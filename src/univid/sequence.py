"""Multimodal token sequences: vocabulary, packing, parsing, wire format.

Text is character-level over the 7-bit range (ids 0..127); four special ids
follow for span delimiters, giving a 132-token vocabulary. Visual content
travels as continuous float32 vectors wrapped in opener/closer spans: image
spans hold exactly one vector, video spans one vector per frame, for each
frame count in VIDEO_FRAMES. A sequence is two columns: its token ids, with
VISUAL at each visual token, and the vectors of those visual tokens in order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .codec import DecodeError, Reader, Writer

TEXT_VOCAB = 128
BOI = 128
EOI = 129
BOV = 130
EOV = 131
VOCAB = 132

VISUAL = -1  # the id of a visual token; its vector is the sequence's next vector row
VISUAL_DIM = 64
IMAGE_SPAN_TOKENS = 1
VIDEO_FRAMES = (8, 12)

# control-range text ids reserved as task markers in the text stream
TASK_UNDERSTAND = 1
TASK_GENERATE = 2
TASK_EDIT = 3
TASK_THINK = 4
TASK_IDS = (TASK_UNDERSTAND, TASK_GENERATE, TASK_EDIT, TASK_THINK)

_OPENERS = {BOI: "image", BOV: "video"}
_CLOSERS = {EOI: "image", EOV: "video"}
_SPAN_LENGTHS = {"image": (IMAGE_SPAN_TOKENS,), "video": VIDEO_FRAMES}


class SequenceError(Exception):
    pass


class PackError(SequenceError):
    pass


class ParseError(SequenceError):
    """Base for malformed-sequence errors; `position` is the first violation."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


class UnmatchedOpenerError(ParseError):
    pass


class UnmatchedCloserError(ParseError):
    pass


class MismatchedCloserError(ParseError):
    pass


class NestedSpanError(ParseError):
    pass


class StrayVisualTokenError(ParseError):
    pass


class SpanLengthError(ParseError):
    pass


class SpanContentError(ParseError):
    pass


# -- sequences ----------------------------------------------------------------


@dataclass(eq=False)
class MultimodalSequence:
    """Token ids (int64 [n], VISUAL at each visual token) and the vectors of the
    visual tokens (float32 [count of VISUAL ids, VISUAL_DIM]), in order;
    `parse(seq)` splits it into text runs and visual blocks."""

    ids: np.ndarray = ()
    vectors: np.ndarray = field(default_factory=lambda: np.zeros((0, VISUAL_DIM), np.float32))

    def __post_init__(self):
        ids = np.asarray(self.ids)
        if ids.ndim != 1 or ids.size and (ids.dtype.kind not in "iu" or ids.min() < VISUAL or ids.max() >= VOCAB):
            raise PackError(f"ids must be a 1-d integer array in [{VISUAL}, {VOCAB}), got {ids.dtype} {ids.shape}")
        self.ids = ids.astype(np.int64, copy=False)
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        n_visual = int(np.count_nonzero(self.ids == VISUAL))
        if self.vectors.shape != (n_visual, VISUAL_DIM):
            raise PackError(f"{n_visual} visual ids need ({n_visual}, {VISUAL_DIM}) vectors, got {self.vectors.shape}")

    def __len__(self):
        return len(self.ids)

    def __eq__(self, other):
        return (isinstance(other, MultimodalSequence) and np.array_equal(self.ids, other.ids)
                and np.array_equal(self.vectors, other.vectors))


def encode_text(text: str) -> list[int]:
    ids = []
    for ch in text:
        cp = ord(ch)
        if cp >= TEXT_VOCAB:
            raise PackError(f"character {ch!r} outside the {TEXT_VOCAB}-char alphabet")
        ids.append(cp)
    return ids


def decode_text(ids: Iterable[int]) -> str:
    out = []
    for i in ids:
        if not 0 <= i < TEXT_VOCAB:
            raise PackError(f"id {i} is not a text id")
        out.append(chr(i))
    return "".join(out)


# -- packing --------------------------------------------------------------------


def pack_parts(parts: list) -> MultimodalSequence:
    """Build a sequence from interleaved parts.

    Each part is ("text", integer ids) or (kind, embeddings) with kind in
    {"image", "video"}. Blocks are wrapped in their opener/closer tokens.
    """
    ids: list[int] = []
    blocks = [np.zeros((0, VISUAL_DIM), np.float32)]
    for tag, payload in parts:
        if tag == "text":
            for i in payload:
                if (isinstance(i, bool) or not isinstance(i, (int, np.integer))
                        or not 0 <= i < VOCAB or i in _OPENERS or i in _CLOSERS):
                    raise PackError(f"id {i!r} is not packable as plain text")
                ids.append(int(i))
        elif tag in _SPAN_LENGTHS:
            emb = np.asarray(payload, dtype=np.float32)
            if emb.ndim == 1:
                emb = emb[None, :]
            if emb.ndim != 2 or emb.shape[1] != VISUAL_DIM:
                raise PackError(f"{tag} block must be [n, {VISUAL_DIM}], got shape {emb.shape}")
            if emb.shape[0] not in _SPAN_LENGTHS[tag]:
                raise PackError(f"{tag} block has {emb.shape[0]} tokens, expected one of {_SPAN_LENGTHS[tag]}")
            opener, closer = (BOI, EOI) if tag == "image" else (BOV, EOV)
            ids += [opener, *[VISUAL] * len(emb), closer]
            blocks.append(emb)
        else:
            raise PackError(f"unknown part tag {tag!r}")
    return MultimodalSequence(ids, np.concatenate(blocks))


# -- parsing ---------------------------------------------------------------------


@dataclass
class ParsedSequence:
    text_segments: list  # list of (position, list-of-ids) for maximal text runs
    blocks: list  # list of (kind, np.ndarray [n, VISUAL_DIM]) in span order


def parse(seq: MultimodalSequence) -> ParsedSequence:
    """Validate and invert `pack_parts`. Raises a ParseError subclass at the first
    violation for malformed input."""
    text_segments: list = []
    blocks: list = []
    run: list[int] = []
    run_start = 0
    open_kind: str | None = None
    open_pos = 0
    n_visual = 0  # visual tokens so far: the row of the next one in seq.vectors

    def flush_run():
        nonlocal run
        if run:
            text_segments.append((run_start, run))
            run = []

    for pos, tid in enumerate(seq.ids.tolist()):
        if tid == VISUAL:
            if open_kind is None:
                raise StrayVisualTokenError(pos, "visual token outside any span")
            n_visual += 1
        elif tid in _OPENERS:
            if open_kind is not None:
                raise NestedSpanError(pos, f"opener inside an open {open_kind} span")
            flush_run()
            open_kind = _OPENERS[tid]
            open_pos = pos
        elif tid in _CLOSERS:
            if open_kind is None:
                raise UnmatchedCloserError(pos, "closer without a matching opener")
            if _CLOSERS[tid] != open_kind:
                raise MismatchedCloserError(pos, f"{open_kind} span closed by {_CLOSERS[tid]} closer")
            n = pos - open_pos - 1  # a span holds only visual tokens
            if n not in _SPAN_LENGTHS[open_kind]:
                raise SpanLengthError(pos, f"{open_kind} span has {n} tokens, expected one of {_SPAN_LENGTHS[open_kind]}")
            blocks.append((open_kind, seq.vectors[n_visual - n:n_visual]))
            open_kind = None
            run_start = pos + 1
        else:
            if open_kind is not None:
                raise SpanContentError(pos, f"text token inside a {open_kind} span")
            if not run:
                run_start = pos
            run.append(tid)
    if open_kind is not None:
        raise UnmatchedOpenerError(open_pos, f"{open_kind} span never closed")
    flush_run()
    return ParsedSequence(text_segments=text_segments, blocks=blocks)


# -- wire format -------------------------------------------------------------------
#
# A `codec` envelope (magic b"MMSQ", version 2, CRC32 trailer) around the two
# columns:
#   dim     u16     visual vector width
#   count   u32     token count
#   tags    count * u8 (1 where the id is VISUAL, else 0), in token order
#   ids     u32 per text token (tag 0), in order
#   vectors dim * float32 per visual token (tag 1), in order
#
# The header (magic, version, dim, count) is 12 bytes and the first
# tag sits right after it. An empty sequence is the header plus the 4-byte
# CRC trailer.

MAGIC = b"MMSQ"
FORMAT_VERSION = 2
_DIM_COUNT = struct.Struct("<HI")


def serialize(seq: MultimodalSequence) -> bytes:
    visual = seq.ids == VISUAL
    w = Writer(MAGIC, FORMAT_VERSION)
    w.pack(_DIM_COUNT, VISUAL_DIM, len(seq.ids))
    w.array(visual, "u1")
    w.array(seq.ids[~visual], "<u4")
    w.array(seq.vectors, "<f4")
    return w.finish()


def deserialize(data: bytes) -> MultimodalSequence:
    r = Reader(data, MAGIC, FORMAT_VERSION)
    dim, count = r.unpack(_DIM_COUNT)
    if dim != VISUAL_DIM:
        raise DecodeError(6, f"visual dim {dim} does not match configured {VISUAL_DIM}")
    visual = r.indices("u1", count, 2, "token tag").astype(bool)
    n_visual = int(np.count_nonzero(visual))
    ids = np.full(count, VISUAL, dtype=np.int64)
    ids[~visual] = r.indices("<u4", count - n_visual, VOCAB, "token id")
    vectors = r.array("<f4", n_visual * dim).astype(np.float32).reshape(n_visual, dim)
    r.finish()
    return MultimodalSequence(ids, vectors)

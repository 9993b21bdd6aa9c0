"""Multimodal token sequences: vocabulary, packing, parsing, wire format.

Text is character-level over the 7-bit range (ids 0..127); four special ids
follow for span delimiters, giving a 132-token vocabulary. Visual content
travels as continuous float32 vectors wrapped in opener/closer spans: image
spans hold exactly one vector, video spans hold exactly one vector per frame.
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

VISUAL_DIM = 64
IMAGE_SPAN_TOKENS = 1
DEFAULT_VIDEO_FRAMES = (8, 12)

# control-range text ids reserved as task markers in the text stream
TASK_UNDERSTAND = 1
TASK_GENERATE = 2
TASK_EDIT = 3
TASK_THINK = 4
TASK_IDS = (TASK_UNDERSTAND, TASK_GENERATE, TASK_EDIT, TASK_THINK)

_OPENERS = {BOI: "image", BOV: "video"}
_CLOSERS = {EOI: "image", EOV: "video"}


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


# -- elements -----------------------------------------------------------------


@dataclass(frozen=True)
class TextToken:
    id: int


class VisualToken:
    __slots__ = ("vector",)

    def __init__(self, vector: np.ndarray):
        v = np.asarray(vector, dtype=np.float32)
        if v.ndim != 1 or v.shape[0] != VISUAL_DIM:
            raise PackError(f"visual token must be a {VISUAL_DIM}-vector, got shape {v.shape}")
        self.vector = v

    def __eq__(self, other):
        return isinstance(other, VisualToken) and np.array_equal(self.vector, other.vector)

    def __repr__(self):
        return f"VisualToken(dim={self.vector.shape[0]})"


@dataclass(frozen=True)
class Span:
    kind: str  # "image" | "video"
    start: int  # index of the opener token
    length: int  # number of visual tokens inside


@dataclass
class MultimodalSequence:
    """A flat element stream; `parse(seq).spans` locates its visual spans."""

    elements: list = field(default_factory=list)

    def __len__(self):
        return len(self.elements)


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


def _check_block(kind: str, embeddings: np.ndarray, video_frames: int) -> np.ndarray:
    emb = np.asarray(embeddings, dtype=np.float32)
    if emb.ndim == 1:
        emb = emb[None, :]
    if emb.ndim != 2 or emb.shape[1] != VISUAL_DIM:
        raise PackError(f"{kind} block must be [n, {VISUAL_DIM}], got shape {emb.shape}")
    expected = IMAGE_SPAN_TOKENS if kind == "image" else video_frames
    if emb.shape[0] != expected:
        raise PackError(f"{kind} block has {emb.shape[0]} tokens, expected {expected}")
    return emb


def pack_parts(parts: list, *, video_frames: int = 8) -> MultimodalSequence:
    """Build a sequence from interleaved parts.

    Each part is ("text", list-of-ids) or (kind, embeddings) with kind in
    {"image", "video"}. Blocks are wrapped in their opener/closer tokens.
    """
    elements: list = []
    for tag, payload in parts:
        if tag == "text":
            for i in payload:
                if not 0 <= int(i) < VOCAB or int(i) in _OPENERS or int(i) in _CLOSERS:
                    raise PackError(f"id {i} is not packable as plain text")
                elements.append(TextToken(int(i)))
        elif tag in ("image", "video"):
            emb = _check_block(tag, payload, video_frames)
            opener, closer = (BOI, EOI) if tag == "image" else (BOV, EOV)
            elements.append(TextToken(opener))
            elements.extend(VisualToken(row) for row in emb)
            elements.append(TextToken(closer))
        else:
            raise PackError(f"unknown part tag {tag!r}")
    return MultimodalSequence(elements=elements)


# -- parsing ---------------------------------------------------------------------


@dataclass
class ParsedSequence:
    text_segments: list  # list of (position, list-of-ids) for maximal text runs
    blocks: list  # list of (kind, np.ndarray [n, VISUAL_DIM]) in order
    spans: list


def parse(seq: MultimodalSequence | list, *,
          allowed_video_lengths: tuple[int, ...] = DEFAULT_VIDEO_FRAMES) -> ParsedSequence:
    """Validate and invert `pack_parts`. Raises a ParseError subclass at the first
    violation for malformed input."""
    elements = seq.elements if isinstance(seq, MultimodalSequence) else list(seq)
    text_segments: list = []
    blocks: list = []
    spans: list = []
    run: list[int] = []
    run_start = 0
    open_kind: str | None = None
    open_pos = 0
    span_vectors: list = []

    def flush_run():
        nonlocal run
        if run:
            text_segments.append((run_start, run))
            run = []

    for pos, el in enumerate(elements):
        if isinstance(el, TextToken):
            tid = el.id
            if tid in _OPENERS:
                if open_kind is not None:
                    raise NestedSpanError(pos, f"opener inside an open {open_kind} span")
                flush_run()
                open_kind = _OPENERS[tid]
                open_pos = pos
                span_vectors = []
            elif tid in _CLOSERS:
                if open_kind is None:
                    raise UnmatchedCloserError(pos, "closer without a matching opener")
                if _CLOSERS[tid] != open_kind:
                    raise MismatchedCloserError(pos, f"{open_kind} span closed by {_CLOSERS[tid]} closer")
                n = len(span_vectors)
                if open_kind == "image":
                    if n != IMAGE_SPAN_TOKENS:
                        raise SpanLengthError(pos, f"image span has {n} tokens, expected {IMAGE_SPAN_TOKENS}")
                else:
                    if n not in allowed_video_lengths:
                        raise SpanLengthError(pos, f"video span has {n} tokens, expected one of {allowed_video_lengths}")
                blocks.append((open_kind, np.stack(span_vectors)))
                spans.append(Span(open_kind, open_pos, n))
                open_kind = None
                run_start = pos + 1
            else:
                if open_kind is not None:
                    raise SpanContentError(pos, f"text token inside a {open_kind} span")
                if not run:
                    run_start = pos
                run.append(tid)
        elif isinstance(el, VisualToken):
            if open_kind is None:
                raise StrayVisualTokenError(pos, "visual token outside any span")
            span_vectors.append(el.vector)
        else:
            raise ParseError(pos, f"unknown element type {type(el).__name__}")
    if open_kind is not None:
        raise UnmatchedOpenerError(open_pos, f"{open_kind} span never closed")
    flush_run()
    return ParsedSequence(text_segments=text_segments, blocks=blocks, spans=spans)


# -- wire format -------------------------------------------------------------------
#
# A `codec` envelope (magic b"MMSQ", version 2, CRC32 trailer) around:
#   dim     u16     visual vector width
#   count   u32     element count
#   tags    count * u8 (0 = text, 1 = visual), in element order
#   ids     u32 per text element, in order
#   vectors dim * float32 per visual element, in order
#
# The header (magic, version, dim, count) is HEADER_SIZE bytes and the first
# tag sits right after it. An empty sequence is the header plus the 4-byte
# CRC trailer.

MAGIC = b"MMSQ"
FORMAT_VERSION = 2
HEADER_SIZE = 12
_DIM_COUNT = struct.Struct("<HI")


def serialize(seq: MultimodalSequence) -> bytes:
    els = seq.elements
    visual = [isinstance(el, VisualToken) for el in els]
    w = Writer(MAGIC, FORMAT_VERSION)
    w.pack(_DIM_COUNT, VISUAL_DIM, len(els))
    w.array(visual, "u1")
    w.array([el.id for el, v in zip(els, visual) if not v], "<u4")
    w.array([el.vector for el, v in zip(els, visual) if v], "<f4")
    return w.finish()


def deserialize(data: bytes) -> MultimodalSequence:
    r = Reader(data, MAGIC, FORMAT_VERSION)
    dim, count = r.unpack(_DIM_COUNT)
    if dim != VISUAL_DIM:
        raise DecodeError(6, f"visual dim {dim} does not match configured {VISUAL_DIM}")
    tags = r.indices("u1", count, 2, "element tag")
    n_visual = int(np.count_nonzero(tags))
    ids = r.indices("<u4", count - n_visual, VOCAB, "token id")
    vectors = r.array("<f4", n_visual * dim).astype(np.float32).reshape(n_visual, dim)
    r.finish()
    text = map(TextToken, ids.tolist())
    visual = map(VisualToken, vectors)
    return MultimodalSequence(elements=[next(visual) if t else next(text) for t in tags.tolist()])

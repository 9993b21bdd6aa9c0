"""Packing, parsing, and the binary wire format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzztools
from univid import sequence as sq


def test_vocabulary_layout():
    assert sq.TEXT_VOCAB == 128
    assert (sq.BOI, sq.EOI, sq.BOV, sq.EOV) == (128, 129, 130, 131)
    assert sq.VOCAB == 132
    assert len({sq.BOI, sq.EOI, sq.BOV, sq.EOV}) == 4
    for tid in (sq.BOI, sq.EOI, sq.BOV, sq.EOV):
        assert tid >= sq.TEXT_VOCAB


def test_pack_text_plus_video_length():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((8, sq.VISUAL_DIM)).astype(np.float32)
    seq = sq.pack_parts([("text", sq.encode_text("cat")), ("video", emb)], video_frames=8)
    assert len(seq) == 3 + 1 + 8 + 1
    assert sq.parse(seq).spans == [sq.Span("video", 3, 8)]


def test_pack_pure_text():
    seq = sq.pack_parts([("text", sq.encode_text("hello"))])
    assert len(seq) == 5
    assert sq.parse(seq).spans == []


def test_pack_wrong_frame_count_errors():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((7, sq.VISUAL_DIM)).astype(np.float32)
    with pytest.raises(sq.PackError):
        sq.pack_parts([("video", emb)], video_frames=8)


def test_pack_wrong_dim_errors():
    with pytest.raises(sq.PackError):
        sq.pack_parts([("image", np.zeros((1, 32), dtype=np.float32))])


@st.composite
def valid_sequences(draw):
    """Up to five text runs, images and 8- or 12-frame videos, in any order;
    the visual vectors are standard normal from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for tag in draw(st.lists(st.sampled_from(["text", "image", "video"]), max_size=5)):
        if tag == "text":
            parts.append((tag, draw(st.lists(st.integers(0, sq.TEXT_VOCAB - 1), max_size=12))))
        else:
            frames = 1 if tag == "image" else draw(st.sampled_from([8, 12]))
            parts.append((tag, rng.standard_normal((frames, sq.VISUAL_DIM)).astype(np.float32)))
    return fuzztools.sequence_of(parts)


@settings(max_examples=200, deadline=None)
@given(valid_sequences())
def test_parse_inverts_pack_fuzzed(seq):
    assert fuzztools.reassemble(sq.parse(seq), seq)


def test_parse_empty():
    parsed = sq.parse(sq.MultimodalSequence())
    assert parsed.text_segments == [] and parsed.blocks == []


def test_unmatched_opener_reports_its_index():
    seq = sq.pack_parts([("text", sq.encode_text("ab"))])
    seq.elements.append(sq.TextToken(sq.BOV))
    with pytest.raises(sq.UnmatchedOpenerError) as exc:
        sq.parse(seq)
    assert exc.value.position == 2


def test_malformed_mutations_rejected():
    rng = np.random.default_rng(77)
    tried = 0
    for _ in range(2000):
        seq = fuzztools.random_valid_sequence(rng)
        mut = fuzztools.mutate_sequence(seq, rng)
        if mut is None:
            continue
        elements, expected = mut
        tried += 1
        with pytest.raises(expected) as exc:
            sq.parse(elements)
        assert isinstance(exc.value, sq.ParseError)
        assert 0 <= exc.value.position <= len(elements)
    assert tried > 500


def test_distinct_error_kinds():
    vec = np.zeros(sq.VISUAL_DIM, dtype=np.float32)
    cases = [
        ([sq.TextToken(sq.BOV)], sq.UnmatchedOpenerError),
        ([sq.TextToken(sq.EOI)], sq.UnmatchedCloserError),
        ([sq.TextToken(sq.BOV), sq.VisualToken(vec), sq.TextToken(sq.EOI)], sq.MismatchedCloserError),
        ([sq.TextToken(sq.BOV), sq.TextToken(sq.BOI)], sq.NestedSpanError),
        ([sq.VisualToken(vec)], sq.StrayVisualTokenError),
        ([sq.TextToken(sq.BOI), sq.VisualToken(vec), sq.VisualToken(vec), sq.TextToken(sq.EOI)], sq.SpanLengthError),
        ([sq.TextToken(sq.BOV), sq.TextToken(65)], sq.SpanContentError),
    ]
    for elements, expected in cases:
        with pytest.raises(expected):
            sq.parse(elements)


def test_video_span_length_validation():
    rng = np.random.default_rng(5)
    emb12 = rng.standard_normal((12, sq.VISUAL_DIM)).astype(np.float32)
    seq = sq.pack_parts([("video", emb12)], video_frames=12)
    sq.parse(seq)  # 12 allowed by default
    with pytest.raises(sq.SpanLengthError):
        sq.parse(seq, allowed_video_lengths=(8,))


# -- wire format ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(valid_sequences())
def test_serialize_round_trip_fuzzed(seq):
    assert sq.deserialize(sq.serialize(seq)) == seq


def test_empty_sequence_serializes_to_documented_header():
    data = sq.serialize(sq.MultimodalSequence())
    assert len(data) == sq.HEADER_SIZE + 4 == 16  # header plus CRC32 trailer
    assert data[:4] == sq.MAGIC


def test_corrupted_tag_byte_reports_offset():
    seq = sq.pack_parts([("text", sq.encode_text("xy"))])
    data = bytearray(sq.serialize(seq))
    data[sq.HEADER_SIZE] = 7  # first element tag
    with pytest.raises(sq.DecodeError) as exc:
        sq.deserialize(bytes(data))
    assert exc.value.offset == sq.HEADER_SIZE


def test_truncated_payload_rejected():
    rng = np.random.default_rng(9)
    seq = fuzztools.random_valid_sequence(rng)
    while len(seq) == 0:
        seq = fuzztools.random_valid_sequence(rng)
    data = sq.serialize(seq)
    with pytest.raises(sq.DecodeError):
        sq.deserialize(data[:-3])


def test_bad_magic_and_version():
    data = sq.serialize(sq.MultimodalSequence())
    with pytest.raises(sq.DecodeError):
        sq.deserialize(b"XXXX" + data[4:])
    bad_version = bytearray(data)
    bad_version[4] = 99
    with pytest.raises(sq.DecodeError):
        sq.deserialize(bytes(bad_version))


def test_text_codec_round_trip_and_alphabet():
    s = "hello world 123\n"
    assert sq.decode_text(sq.encode_text(s)) == s
    with pytest.raises(sq.PackError):
        sq.encode_text("café")


def test_task_ids_are_reserved_text_ids():
    for tid in sq.TASK_IDS:
        assert 0 < tid < sq.TEXT_VOCAB
    assert len(set(sq.TASK_IDS)) == 4

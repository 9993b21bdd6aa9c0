"""Packing, parsing, and the binary wire format."""

import hashlib

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
    seq = sq.pack_parts([("text", sq.encode_text("cat")), ("video", emb)])
    assert len(seq) == 3 + 1 + 8 + 1
    assert np.flatnonzero(seq.ids == sq.BOV).tolist() == [3]
    assert [(kind, len(emb)) for kind, emb in sq.parse(seq).blocks] == [("video", 8)]


def test_pack_pure_text():
    seq = sq.pack_parts([("text", sq.encode_text("hello"))])
    assert len(seq) == 5
    assert sq.parse(seq).blocks == []


def test_pack_wrong_frame_count_errors():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((7, sq.VISUAL_DIM)).astype(np.float32)
    with pytest.raises(sq.PackError):
        sq.pack_parts([("video", emb)])


def test_pack_wrong_dim_errors():
    with pytest.raises(sq.PackError):
        sq.pack_parts([("image", np.zeros((1, 32), dtype=np.float32))])


def test_pack_rejects_non_integer_text_ids():
    for bad in (65.7, "66", True):
        with pytest.raises(sq.PackError, match="not packable"):
            sq.pack_parts([("text", [65, bad])])
    # numpy integers are integers
    assert sq.pack_parts([("text", np.array([65, 66]))]).ids.tolist() == [65, 66]


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
    return sq.pack_parts(parts)


@settings(max_examples=200, deadline=None)
@given(valid_sequences())
def test_parse_inverts_pack_fuzzed(seq):
    assert fuzztools.reassemble(sq.parse(seq), seq)


def test_parse_empty():
    parsed = sq.parse(sq.MultimodalSequence())
    assert parsed.text_segments == [] and parsed.blocks == []


def test_unmatched_opener_reports_its_index():
    seq = sq.MultimodalSequence(sq.encode_text("ab") + [sq.BOV])
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
        corrupted, expected = mut
        tried += 1
        with pytest.raises(expected) as exc:
            sq.parse(corrupted)
        assert isinstance(exc.value, sq.ParseError)
        assert 0 <= exc.value.position <= len(corrupted)
    assert tried > 500


def sequence_of_ids(ids: list) -> sq.MultimodalSequence:
    """`ids` with one distinct vector per VISUAL id: row k holds k * VISUAL_DIM onwards."""
    n = ids.count(sq.VISUAL)
    return sq.MultimodalSequence(ids, np.arange(n * sq.VISUAL_DIM, dtype=np.float32).reshape(n, sq.VISUAL_DIM))


def test_distinct_error_kinds():
    cases = [
        ([sq.BOV], sq.UnmatchedOpenerError),
        ([sq.EOI], sq.UnmatchedCloserError),
        ([sq.BOV, sq.VISUAL, sq.EOI], sq.MismatchedCloserError),
        ([sq.BOV, sq.BOI], sq.NestedSpanError),
        ([sq.VISUAL], sq.StrayVisualTokenError),
        ([sq.BOI, sq.VISUAL, sq.VISUAL, sq.EOI], sq.SpanLengthError),
        ([sq.BOV, 65], sq.SpanContentError),
    ]
    for ids, expected in cases:
        with pytest.raises(expected):
            sq.parse(sequence_of_ids(ids))


def test_video_span_length_validation():
    rng = np.random.default_rng(5)
    emb12 = rng.standard_normal((12, sq.VISUAL_DIM)).astype(np.float32)
    seq = sq.pack_parts([("video", emb12)])
    assert seq.ids[0] == sq.BOV
    assert [(kind, len(emb)) for kind, emb in sq.parse(seq).blocks] == [("video", 12)]  # 12 is one of VIDEO_FRAMES
    with pytest.raises(sq.SpanLengthError):
        sq.parse(sequence_of_ids([sq.BOV, *[sq.VISUAL] * 7, sq.EOV]))


TOKENS = [sq.VISUAL, sq.BOI, sq.EOI, sq.BOV, sq.EOV, 65, sq.TASK_GENERATE]
# id streams over TOKENS, drawn a chunk at a time: a text id, a well-formed
# span, any single id or a run of VISUAL ids, so that streams that parse turn up
# among the errors
CHUNKS = (st.sampled_from([[65], [sq.TASK_GENERATE]])
          | st.sampled_from([[sq.BOI, sq.VISUAL, sq.EOI], [sq.BOV, *[sq.VISUAL] * 8, sq.EOV],
                             [sq.BOV, *[sq.VISUAL] * 12, sq.EOV]])
          | st.sampled_from(TOKENS).map(lambda i: [i])
          | st.integers(1, 13).map(lambda n: [sq.VISUAL] * n))
ID_STREAMS = st.lists(CHUNKS, max_size=10).map(lambda chunks: [i for chunk in chunks for i in chunk])


@settings(max_examples=500, deadline=None)
@given(ID_STREAMS)
def test_arbitrary_id_streams_parse_and_round_trip_or_raise_parse_error(ids):
    seq = sequence_of_ids(ids)
    try:
        parsed = sq.parse(seq)
    except sq.ParseError as err:
        assert 0 <= err.position <= len(ids)
        return
    assert fuzztools.reassemble(parsed, seq)
    back = sq.deserialize(sq.serialize(seq))
    assert back == seq and fuzztools.reassemble(sq.parse(back), seq)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS) | st.integers(-2**40, 2**40), max_size=16),
       st.integers(-2, 2), st.sampled_from([sq.VISUAL_DIM, sq.VISUAL_DIM - 1]), st.booleans())
def test_columns_that_disagree_raise_pack_error(ids, extra_rows, dim, as_column):
    # out-of-range ids, a vector count other than the VISUAL count, a vector
    # width other than VISUAL_DIM and 2-d ids each raise PackError; nothing else escapes
    rows = max(ids.count(sq.VISUAL) + extra_rows, 0)
    id_input = np.array(ids, dtype=np.int64).reshape(-1, 1) if as_column else ids
    vectors = np.zeros((rows, dim), np.float32)
    if (all(sq.VISUAL <= i < sq.VOCAB for i in ids) and rows == ids.count(sq.VISUAL)
            and dim == sq.VISUAL_DIM and not as_column):
        assert len(sq.MultimodalSequence(id_input, vectors)) == len(ids)
    else:
        with pytest.raises(sq.PackError):
            sq.MultimodalSequence(id_input, vectors)


# -- wire format ----------------------------------------------------------------


def pin_block(frames: int, shift: int) -> np.ndarray:
    """Exact float32 vectors that depend on no random generator."""
    return np.arange(frames * sq.VISUAL_DIM, dtype=np.float32).reshape(frames, sq.VISUAL_DIM) / 64 - shift


# SHA-256 of the MMSQ v2 bytes of fixed sequences. The round-trip tests would
# pass if the byte layout moved; these digests would not.
WIRE_PINS = {
    "empty": ([], "c640120b1a3b0473ff0f7a304917dfcec2bdaa69e1716c935b8889cb05732bfb"),
    "text": ([("text", sq.encode_text("a red circle moves left"))],
             "ee724620d9779f61782226909e5e57940b1cb9b662072f6f7a319cb2efa32946"),
    "image": ([("image", pin_block(1, 0))], "9ed8c4e8ef5cac4dcd455c46c1dae38eff5a606edd4d62ab4fb7c8dbd40a6d19"),
    "video8": ([("video", pin_block(8, 1))], "15255362d0288a0077a08503eb844c3b88f1f05564a5c6e5e0cbcbb36e4ab8bb"),
    "video12": ([("video", pin_block(12, 2))], "f228ac712afab69668f14f4bbe01cecdcc7ce14e7e2cf483f2a3595002b89c8d"),
    "mix": ([("text", [sq.TASK_GENERATE, *sq.encode_text("two squares")]), ("image", pin_block(1, 3)),
             ("text", sq.encode_text("then")), ("video", pin_block(8, 4)), ("video", pin_block(12, 5)),
             ("text", sq.encode_text("end"))],
            "d2faaffa43b8dd0d3bdb3852fd0bf2951ed2a056348f7f8f9cd11a5a70308694"),
}


def test_wire_bytes_match_pinned_digests():
    found = {name: hashlib.sha256(sq.serialize(sq.pack_parts(parts))).hexdigest()
             for name, (parts, _) in WIRE_PINS.items()}
    assert found == {name: digest for name, (_, digest) in WIRE_PINS.items()}


@settings(max_examples=200, deadline=None)
@given(valid_sequences())
def test_serialize_round_trip_fuzzed(seq):
    assert sq.deserialize(sq.serialize(seq)) == seq


# the wire header: magic (4), version (2), dim (2) and count (4) bytes
HEADER_SIZE = 12


def test_empty_sequence_serializes_to_documented_header():
    data = sq.serialize(sq.MultimodalSequence())
    assert len(data) == HEADER_SIZE + 4 == 16  # header plus CRC32 trailer
    assert data[:4] == sq.MAGIC


def test_corrupted_tag_byte_reports_offset():
    seq = sq.pack_parts([("text", sq.encode_text("xy"))])
    data = bytearray(sq.serialize(seq))
    data[HEADER_SIZE] = 7  # first token tag
    with pytest.raises(sq.DecodeError) as exc:
        sq.deserialize(bytes(data))
    assert exc.value.offset == HEADER_SIZE


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

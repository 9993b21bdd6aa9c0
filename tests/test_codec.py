"""The checked binary envelope and the two formats built on it: every corrupt
or truncated shard and wire message is a DecodeError, never another error and
never a silent success."""

import functools
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzztools
from univid import codec
from univid import sequence as sq
from univid import synthdata as sd


def reseal(data: bytes) -> bytes:
    """Recompute the CRC32 trailer, so a test reaches the structural check."""
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def read_shard_bytes(data: bytes) -> list:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.uvsh"
        path.write_bytes(data)
        return sd.read_shard(path)


def shard_bytes(samples: list) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        return sd.write_shard(samples, Path(d) / "s.uvsh").read_bytes()


@functools.cache
def valid_shard() -> bytes:
    rng = np.random.default_rng(4)
    return shard_bytes([sd.build_sample(kind, rng) for kind in sd.TASKS])


@functools.cache
def valid_wire() -> bytes:
    rng = np.random.default_rng(6)
    seq = fuzztools.random_valid_sequence(rng)
    while len(seq) < 12 or not len(seq.vectors):
        seq = fuzztools.random_valid_sequence(rng)
    return sq.serialize(seq)


def test_decode_error_is_shared():
    assert sq.DecodeError is codec.DecodeError


def test_valid_inputs_round_trip():
    assert len(read_shard_bytes(valid_shard())) == len(sd.TASKS)
    assert len(sq.deserialize(valid_wire())) >= 12


# -- properties --------------------------------------------------------------------


@st.composite
def flip(draw, data_fn):
    data = data_fn()
    pos = draw(st.integers(0, len(data) - 1))
    mask = draw(st.integers(1, 255))
    out = bytearray(data)
    out[pos] ^= mask
    return bytes(out)


@st.composite
def truncation(draw, data_fn):
    data = data_fn()
    return data[:draw(st.integers(0, len(data) - 1))]


@settings(max_examples=150, deadline=None)
@given(st.one_of(flip(valid_shard), truncation(valid_shard)))
def test_corrupt_shard_raises_decode_error(data):
    with pytest.raises(sq.DecodeError):
        read_shard_bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(flip(valid_wire), truncation(valid_wire)))
def test_corrupt_wire_message_raises_decode_error(data):
    with pytest.raises(sq.DecodeError):
        sq.deserialize(data)


def test_every_wire_byte_flip_rejected():
    data = valid_wire()
    for pos in range(len(data)):
        bad = bytearray(data)
        bad[pos] ^= 0xFF
        with pytest.raises(sq.DecodeError):
            sq.deserialize(bytes(bad))


# -- hand cases ------------------------------------------------------------------


def one_sample_shard(**fields) -> bytes:
    spec = sd.SceneSpec("circle", "red", "right", "gray", "large", seed=3)
    return shard_bytes([sd.Sample(kind="image_edit", spec=spec, **fields)])


# header (6) + count (4) + field mask (2) + kind text (4 + len("image_edit"))
SPEC_OFFSET = 6 + 4 + 2 + 4 + len("image_edit")


def test_spec_enum_out_of_range():
    data = bytearray(one_sample_shard())
    assert data[SPEC_OFFSET + 1] == sd.COLOR_NAMES.index("red")
    data[SPEC_OFFSET + 1] = len(sd.COLOR_NAMES)
    with pytest.raises(sq.DecodeError, match="out of range") as exc:
        read_shard_bytes(reseal(bytes(data)))
    assert exc.value.offset == SPEC_OFFSET + 1


def test_invalid_utf8_in_caption():
    data = bytearray(one_sample_shard(caption_detailed="a red circle"))
    pos = bytes(data).index(b"red circle")
    data[pos] = 0xFF
    with pytest.raises(sq.DecodeError, match="UTF-8") as exc:
        read_shard_bytes(reseal(bytes(data)))
    assert exc.value.offset == pos


def test_mask_payload_shorter_than_its_shape():
    mask = np.ones((1, 4, 4), dtype=bool)  # 16 bits: two packed bytes, last field
    data = one_sample_shard(preserved_mask=mask)
    assert np.array_equal(read_shard_bytes(data)[0].preserved_mask, mask)
    short = data[:-5] + data[-4:]  # drop the last mask byte
    with pytest.raises(sq.DecodeError, match="truncated"):
        read_shard_bytes(reseal(short))


def test_array_rank_beyond_numpy_limit_rejected():
    data = bytearray(one_sample_shard(video=np.zeros((1, 3, 2, 2), dtype=np.float32)))
    ndim_at = SPEC_OFFSET + 14  # the spec is 6 enum bytes and a u64 seed
    assert data[ndim_at] == 4
    data[ndim_at:ndim_at + 4] = struct.pack("<I", 2564)
    with pytest.raises(sq.DecodeError, match="dimensions") as exc:
        read_shard_bytes(reseal(bytes(data)))
    assert exc.value.offset == ndim_at


def test_empty_array_too_large_for_numpy_rejected():
    # zero items, but numpy still bounds the bytes of the other dims
    huge = (0, 2**32 - 1, 2**32 - 1)
    video = one_sample_shard(video=np.zeros((0, 1, 1, 1), dtype=np.float32))
    mask = one_sample_shard(preserved_mask=np.zeros((0, 1, 1), dtype=bool))  # last field, no payload
    for data, dims_at, shape in ((video, SPEC_OFFSET + 18, (*huge, 1)), (mask, len(mask) - 4 - 12, huge)):
        data = bytearray(data)
        assert data[dims_at - 4] == len(shape)
        data[dims_at:dims_at + 4 * len(shape)] = struct.pack(f"<{len(shape)}I", *shape)
        with pytest.raises(sq.DecodeError, match="too large") as exc:
            read_shard_bytes(reseal(bytes(data)))
        assert exc.value.offset == dims_at


def test_v1_headers_rejected():
    # the v1 encodings of an empty shard and an empty sequence
    for v1, read in ((sd.SHARD_MAGIC + struct.pack("<HI", 1, 0), read_shard_bytes),
                     (sq.MAGIC + struct.pack("<HHI", 1, sq.VISUAL_DIM, 0), sq.deserialize)):
        with pytest.raises(sq.DecodeError, match="unsupported version 1") as exc:
            read(v1)
        assert exc.value.offset == 4


def test_trailing_bytes_rejected():
    for data, read in ((valid_shard(), read_shard_bytes), (valid_wire(), sq.deserialize)):
        with pytest.raises(sq.DecodeError, match="trailing"):
            read(data + b"\0")


def test_sample_without_required_field_rejected():
    data = bytearray(one_sample_shard())
    data[10] &= ~1  # clear the `kind` bit of the field mask
    with pytest.raises(sq.DecodeError, match="field mask") as exc:
        read_shard_bytes(reseal(bytes(data)))
    assert exc.value.offset == 10

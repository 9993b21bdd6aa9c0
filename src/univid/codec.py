"""One checked little-endian envelope for the package's binary formats:

    magic    4 bytes  format id: b"MMSQ" wire messages, b"UVSH" shards
    version  u16      body layout version; a reader accepts exactly one
    body     ...      the format's schema, written with `Writer`
    crc32    u32      zlib.crc32 of every byte before it

Text is a u32 byte length and UTF-8 bytes. An n-d array is u32 ndim (at most
MAX_NDIM), u32 dims (whose nonzero product fits a numpy array), then float32
items or, if boolean, `np.packbits` bytes.
`Reader` checks every read against the body's end and raises only
`DecodeError`. It decodes the body before comparing the checksum, so a
structural fault names its own offset and corruption that still parses fails
the checksum.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
MAX_NDIM = 32  # numpy's limit before 2.0


class DecodeError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


class Writer:
    def __init__(self, magic: bytes, version: int):
        self.buf = bytearray(magic) + U16.pack(version)

    def pack(self, st: struct.Struct, *values) -> None:
        self.buf += st.pack(*values)

    def array(self, values, dtype: str) -> None:
        self.buf += np.ascontiguousarray(values, dtype=dtype).tobytes()

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.buf += U32.pack(len(raw)) + raw

    def tensor(self, arr: np.ndarray) -> None:
        self.array([arr.ndim, *arr.shape], "<u4")
        self.array(arr, "<f4")

    def bits(self, arr: np.ndarray) -> None:
        self.array([arr.ndim, *arr.shape], "<u4")
        self.buf += np.packbits(arr.astype(bool).reshape(-1)).tobytes()

    def finish(self) -> bytes:
        self.buf += U32.pack(zlib.crc32(self.buf))
        return bytes(self.buf)


class Reader:
    """Bounds-checked cursor over one envelope; call `finish` after the body."""

    def __init__(self, data: bytes, magic: bytes, version: int):
        if data[:4] != magic:
            raise DecodeError(0, f"bad magic {bytes(data[:4])!r}, expected {magic!r}")
        if len(data) < 10:
            raise DecodeError(len(data), "truncated header")
        (found,) = U16.unpack_from(data, 4)
        if found != version:
            raise DecodeError(4, f"unsupported version {found}, expected {version}")
        self.data = data
        self.off = 6
        self.end = len(data) - 4  # start of the CRC trailer

    def _take(self, size: int) -> int:
        off = self.off
        if off + size > self.end:
            raise DecodeError(off, f"truncated: {size} bytes needed, {self.end - off} left")
        self.off = off + size
        return off

    def unpack(self, st: struct.Struct) -> tuple:
        return st.unpack_from(self.data, self._take(st.size))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """Read-only view of the next `count` items."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.data, dtype=dt, count=count, offset=self._take(count * dt.itemsize))

    def indices(self, dtype: str, count: int, limit: int, what: str) -> np.ndarray:
        """Like `array`, for integers that must lie below `limit`."""
        off = self.off
        values = self.array(dtype, count)
        bad = np.flatnonzero(values >= limit)
        if bad.size:
            raise DecodeError(off + values.itemsize * int(bad[0]), f"{what} {values[bad[0]]} out of range")
        return values

    def enums(self, st: struct.Struct, tables: tuple) -> tuple:
        """Unpack `st`; its first fields index `tables` and come back as names."""
        off = self.off
        values = self.unpack(st)
        for k, names in enumerate(tables):
            if values[k] >= len(names):
                raise DecodeError(off + k, f"enum index {values[k]} out of range")
        return tuple(names[i] for i, names in zip(values, tables)) + values[len(tables):]

    def text(self) -> str:
        (n,) = self.unpack(U32)
        off = self._take(n)
        try:
            return str(self.data[off:off + n], "utf-8")
        except UnicodeDecodeError as e:
            raise DecodeError(off + e.start, "invalid UTF-8 in text") from None

    def _shape(self, itemsize: int) -> tuple:
        off = self.off
        (ndim,) = self.unpack(U32)
        if ndim > MAX_NDIM:
            raise DecodeError(off, f"{ndim} dimensions, at most {MAX_NDIM} supported")
        shape = tuple(self.array("<u4", ndim).tolist())
        # numpy bounds the bytes of the nonzero dims even when another dim is 0
        if math.prod(d for d in shape if d) * itemsize > np.iinfo(np.intp).max:
            raise DecodeError(off + 4, f"shape {shape} too large for an array")
        return shape

    def tensor(self) -> np.ndarray:
        shape = self._shape(4)
        return self.array("<f4", math.prod(shape)).astype(np.float32).reshape(shape)

    def bits(self) -> np.ndarray:
        shape = self._shape(1)
        size = math.prod(shape)
        return np.unpackbits(self.array("u1", (size + 7) // 8), count=size).astype(bool).reshape(shape)

    def finish(self) -> None:
        """Reject trailing body bytes, then check the CRC32 trailer."""
        if self.off != self.end:
            raise DecodeError(self.off, f"{self.end - self.off} trailing bytes")
        (crc,) = U32.unpack_from(self.data, self.end)
        if zlib.crc32(memoryview(self.data)[:self.end]) != crc:
            raise DecodeError(self.end, "checksum mismatch")

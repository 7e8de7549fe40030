"""Binary trace files for detector-rate captures.

Layout, all little-endian:

    offset  size  field
    0       4     magic, ASCII "FTRC"
    4       2     format version, uint16 (currently 1)
    6       2     reserved, uint16, written as 0
    8       8     sample_rate_hz, float64
    16      8     sample_count, uint64
    24      ...   samples, float32 * sample_count

Samples are real post-detector values. Writing then reading returns the
float32-rounded samples bit-exactly. A reader rejects a file whose size is
not exactly the header plus sample_count samples, a sample rate that is not
finite and positive, and any non-finite sample; a writer raises on the
same faults, and on samples that are not one-dimensional, before it opens
the file.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"FTRC"
VERSION = 1
_HEADER = struct.Struct("<4sHHdQ")


class TraceFormatError(ValueError):
    pass


def _check_rate(path, rate: float) -> None:
    if not (math.isfinite(rate) and rate > 0):
        raise TraceFormatError(f"{path}: sample rate {rate!r} is not "
                               f"finite and positive")


def _check_samples(path, samples: np.ndarray) -> None:
    if not np.isfinite(samples).all():
        raise TraceFormatError(f"{path}: non-finite samples")


def write_trace(path, samples: np.ndarray, sample_rate_hz: float) -> None:
    """Write samples at sample_rate_hz to path as float32.

    Raises TraceFormatError naming path, and leaves no file, when the
    samples are not 1-D, a sample is not finite once cast to float32, or
    the rate is not finite and positive: read_trace would refuse the file.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise TraceFormatError(f"{path}: samples have shape {samples.shape}, "
                               f"not one dimension")
    with np.errstate(over="ignore"):     # an overflow is refused below
        data = np.ascontiguousarray(samples, dtype="<f4")
    _check_samples(path, data)
    rate = float(sample_rate_hz)
    _check_rate(path, rate)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, 0, rate, data.size))
        f.write(data)       # through the buffer protocol, not a copy


def read_trace(path) -> tuple[np.ndarray, float]:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, version, _, rate, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        _check_rate(path, rate)
        have = os.fstat(f.fileno()).st_size - _HEADER.size
        if have < 4 * count:
            raise TraceFormatError(f"{path}: expected {count} samples, file short")
        if have > 4 * count:
            raise TraceFormatError(f"{path}: {have - 4 * count} trailing bytes "
                                   f"after {count} samples")
        # straight into one float32 array, then the one float64 copy
        data = np.empty(count, dtype="<f4")
        got = f.readinto(data)
    if got != 4 * count:
        raise TraceFormatError(f"{path}: expected {count} samples, file short")
    _check_samples(path, data)
    return data.astype(np.float64), rate

"""Binary trace format: header fields, float32 payload, failure modes."""
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from foldloc.traceio import TraceFormatError, read_trace, write_trace


def test_round_trip_bit_exact(tmp_path):
    p = tmp_path / "t.bin"
    x = np.random.default_rng(0).normal(size=1000).astype(np.float32)
    write_trace(p, x, 1.92e6)
    back, rate = read_trace(p)
    assert rate == 1.92e6
    # returned as stored: float32, no widened copy
    assert back.dtype == np.float32
    assert np.array_equal(back, x)


def test_float64_input_quantized_to_f32(tmp_path):
    p = tmp_path / "t.bin"
    x = np.random.default_rng(1).normal(size=64)
    write_trace(p, x, 1e6)
    back, _ = read_trace(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, x.astype(np.float32))


def test_header_layout(tmp_path):
    p = tmp_path / "t.bin"
    write_trace(p, np.zeros(3, dtype=np.float32), 2.5e6)
    raw = p.read_bytes()
    magic, version, _, rate, count = struct.unpack("<4sHHdQ", raw[:24])
    assert magic == b"FTRC" and version == 1
    assert rate == 2.5e6 and count == 3
    assert len(raw) == 24 + 3 * 4


def test_float32_samples_written_without_a_copy(tmp_path):
    """A little-endian float32 trace goes to the file as it is: writing it
    allocates well under its own size (the finiteness check's mask), and
    the payload is the samples' bytes."""
    p = tmp_path / "t.bin"
    x = np.random.default_rng(2).normal(size=1 << 20).astype("<f4")
    tracemalloc.start()
    try:
        write_trace(p, x, 1.92e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2
    assert p.read_bytes()[24:] == x.tobytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "t.bin"
    write_trace(p, np.zeros(3), 1e6)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError):
        read_trace(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.bin"
    write_trace(p, np.zeros(100), 1e6)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(TraceFormatError):
        read_trace(p)


def test_truncated_header_rejected(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"FTRC\x01")
    with pytest.raises(TraceFormatError):
        read_trace(p)


def test_unknown_version_rejected(tmp_path):
    p = tmp_path / "t.bin"
    write_trace(p, np.zeros(2), 1e6)
    raw = bytearray(p.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    p.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError):
        read_trace(p)


def _set_count(p, count):
    raw = bytearray(p.read_bytes())
    raw[16:24] = struct.pack("<Q", count)
    p.write_bytes(bytes(raw))


def test_huge_sample_count_rejected_with_exit_3(tmp_path):
    from foldloc.cli import main
    p = tmp_path / "t.bin"
    write_trace(p, np.zeros(4), 1.92e6)
    _set_count(p, 2 ** 62)
    with pytest.raises(TraceFormatError, match="short"):
        read_trace(p)
    assert main(["detect", str(p), "-o", str(tmp_path)]) == 3


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "t.bin"
    write_trace(p, np.zeros(100), 1e6)
    p.write_bytes(p.read_bytes() + b"\0" * 4)
    with pytest.raises(TraceFormatError, match="trailing"):
        read_trace(p)
    _set_count(p, 99)                    # count short of the payload
    with pytest.raises(TraceFormatError, match="trailing"):
        read_trace(p)


def _set_sample(p, i, value):
    raw = bytearray(p.read_bytes())
    raw[24 + 4 * i:28 + 4 * i] = struct.pack("<f", value)
    p.write_bytes(bytes(raw))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected_with_exit_3(tmp_path, bad):
    from foldloc.cli import main
    p = tmp_path / "t.bin"
    write_trace(p, np.zeros(50), 1.92e6)
    _set_sample(p, 17, bad)          # write_trace itself refuses it
    with pytest.raises(TraceFormatError, match="non-finite"):
        read_trace(p)
    assert main(["detect", str(p), "-o", str(tmp_path)]) == 3


@pytest.mark.parametrize("samples,rate,message", [
    ([1.0, 1e39], 1.92e6, "non-finite"),          # inf once cast to float32
    ([1.0, np.nan], 1.92e6, "non-finite"),
    ([1.0, -np.inf], 1.92e6, "non-finite"),
    ([1.0, 2.0], np.nan, "sample rate"),
    ([1.0, 2.0], np.inf, "sample rate"),
    ([1.0, 2.0], 0.0, "sample rate"),
    ([1.0, 2.0], -1.92e6, "sample rate"),
    (np.zeros((2, 3)), 1.92e6, "one dimension"),
], ids=["overflow", "nan", "neg_inf", "rate_nan", "rate_inf", "rate_zero",
        "rate_negative", "2d"])
def test_write_refuses_what_read_refuses(tmp_path, samples, rate, message):
    """write_trace raises before it opens the file, so no file its own
    reader would refuse is left behind, and no warning stands in for it."""
    p = tmp_path / "t.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceFormatError, match=message) as e:
            write_trace(p, np.asarray(samples), rate)
    assert str(p) in str(e.value)
    assert not p.exists()

"""Propagation and square-law receiver front end.

Models the path from tower antennas to detector-rate real samples:
free-space amplitude, the envelope detector's squaring of each cell's
complex baseband, |I+jQ|^2/2, FIR low-pass filtering and decimation to the
one detector rate, DETECTOR_RATE_HZ = 1.92 MHz. The square is exact for a
single band and for bands whose pairwise difference frequencies all clear
the low-pass filter; the tests check it against a real-RF oracle that
upconverts, sums and squares (`tests/oracles.py`). Nothing here adds
noise: detector noise of `FrontEndConfig.noise_sigma` is added once per
fix, by `harness`' synthesis.

`fold_baseband` takes the square into one array and `lowpass_decimate`
filters it with a polyphase decimator (Crochiere & Rabiner, *Multirate
Digital Signal Processing*, 1983): the input, viewed as rows of dec
samples, meets a (taps/dec + 1, dec) matrix of the taps in one matrix
product per block of outputs, whose shifted rows add up to the block.
`detect.build_bank` folds its templates with `fold_baseband`; `harness`'
synthesis takes each cell's square in its delay and filters it with
`lowpass_decimate`. The FIR runs on the thread that calls it, and holds
its products to that thread (`lte._blas_on_caller`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import i0

from .lte import FrameConfig, Pci, _blas_on_caller

SPEED_OF_LIGHT = 3.0e8
DETECTOR_RATE_HZ = 1.92e6     # the detector's one sample rate
# The detector's fixed Kaiser low-pass. The cutoff is deliberately
# aggressive: folded sync lives below ~0.96 MHz, so sampling at 1.92 MHz
# behind a 1.4 MHz filter aliases only data-difference terms the detector
# tolerates. Above the detector's Nyquist frequency, it is all-pass at dec 1.
LPF_CUTOFF_HZ = 1.4e6
LPF_TRANSITION_HZ = 0.4e6
LPF_ATTEN_DB = 60.0
# a cell received below this power is neither synthesized nor counted as
# truth: the detector cannot hear it
SENSITIVITY_FLOOR_DBM = -70.0
# a block of the FIR makes _CHUNK // 4 outputs from a product of about
# 5 * _CHUNK elements (its polyphase matrix has about 20 rows at every rate):
# large enough that its numpy calls cost little, small enough that its
# product's temporary stays small
_CHUNK = 1 << 14


@dataclass(frozen=True)
class FrontEndConfig:
    """Detector noise; its rate, low-pass and sensitivity are constants.

    noise_sigma takes no part in equality or hashing, so every front end
    is equal and `harness._bank_for` builds the bank once per process.
    """

    noise_sigma: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.noise_sigma):
            raise ValueError(f"non-finite value in {self}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class CellConfig:
    """One transmitting cell: identity, carrier, geometry, power."""

    pci: Pci
    carrier_hz: float
    frame_cfg: FrameConfig = field(default=FrameConfig(1.4), repr=False)
    position: tuple[float, float] = (0.0, 0.0)
    tx_power_dbm: float = 30.0
    frame_time_origin_s: float = 0.0

    def __post_init__(self):
        if not np.isfinite([self.carrier_hz, *self.position, self.tx_power_dbm,
                            self.frame_time_origin_s]).all():
            raise ValueError(f"non-finite value in {self}")
        if self.carrier_hz <= self.frame_cfg.bandwidth_mhz * 1e6:
            raise ValueError("carrier must exceed the signal bandwidth")


def path_amplitude(d: float, f: float) -> float:
    """Free-space amplitude factor c/(4*pi*d*f). Halves when d doubles."""
    if d <= 0:
        raise ValueError("receiver co-located with tower (d <= 0)")
    if f <= 0:
        raise ValueError("carrier frequency must be positive")
    return SPEED_OF_LIGHT / (4.0 * np.pi * d * f)


@lru_cache(maxsize=32)
def design_lowpass(fs: float) -> np.ndarray:
    """Linear-phase Kaiser FIR taps of the detector low-pass at rate fs.

    Kaiser's window method (Kaiser 1974): the length and beta come from
    his empirical formulas for LPF_ATTEN_DB over LPF_TRANSITION_HZ, the
    ideal low-pass's sinc is windowed and the taps are scaled to unit DC
    gain, term for term as scipy.signal's firwin(kaiserord(...)) computes
    them. Cached per fs; the shared array is read-only.
    """
    width = LPF_TRANSITION_HZ / (fs / 2.0)
    ntaps = int(np.ceil((LPF_ATTEN_DB - 7.95) / 2.285 / (np.pi * width) + 1))
    ntaps |= 1          # odd length, integer group delay
    beta = 0.1102 * (LPF_ATTEN_DB - 8.7)     # Kaiser's beta above 50 dB
    cutoff = LPF_CUTOFF_HZ / (fs / 2.0)
    alpha = 0.5 * (ntaps - 1)
    m = np.arange(ntaps, dtype=np.float64) - alpha
    window = i0(beta * np.sqrt(1 - (m / alpha) ** 2.0)) / i0(beta)
    taps = cutoff * np.sinc(cutoff * m) * window
    taps /= np.sum(taps)
    taps.setflags(write=False)
    return taps


def lowpass_decimate(sq: np.ndarray, fs_in: float) -> np.ndarray:
    """Low-pass and decimate to DETECTOR_RATE_HZ, along the last axis.

    Output i is the FIR output centered on input sample i * dec: the
    odd-length linear-phase FIR's group delay is compensated, so template
    positions are unbiased. This equals fftconvolve(sq, taps, "same")[::dec],
    but the polyphase filter computes only the outputs that are kept, by
    blocks of outputs (_fir_blocks).
    At dec 1 the filter is all-pass and sq itself is returned, not a copy.
    """
    if _decimation(fs_in) == 1:
        return sq
    return _fir_blocks(sq, *_polyphase(fs_in))


def _decimation(fs: float) -> int:
    """The integer ratio of fs to DETECTOR_RATE_HZ; ValueError otherwise."""
    ratio = fs / DETECTOR_RATE_HZ
    dec = int(round(ratio))
    if abs(ratio - dec) > 1e-9 or dec < 1:
        raise ValueError(f"input rate {fs} not an integer multiple of "
                         f"the detector rate {DETECTOR_RATE_HZ}")
    return dec


def _fir_reach(fs: float) -> int:
    """Input samples the detector low-pass at rate fs reaches either side
    of an output, rounded up to whole outputs; 0 where it is all-pass."""
    dec = _decimation(fs)
    return 0 if dec == 1 else _polyphase(fs)[1] * dec


@lru_cache(maxsize=32)
def _polyphase(fs: float) -> tuple[np.ndarray, int]:
    """(G, first): the detector low-pass at rate fs as a polyphase matrix.

    With h the taps behind `lead` zeros, G[c, u] = h[dec*c - u] (zero
    outside h), so the full convolution of h with x, at index dec*m, is
    sum over c and u of G[c, u] * x[dec*(m - c) + u]. The leading zeros put
    the center of output i, (ntaps - 1) / 2 + i * dec, on such an index:
    dec * (first + i). Cached per rate; G is read-only.
    """
    dec = _decimation(fs)
    taps = design_lowpass(fs)
    center = (taps.size - 1) // 2
    lead = -center % dec
    k = -(-(lead + taps.size) // dec) + 1
    padded = np.zeros(dec * (k + 1))      # padded[j + dec - 1] = h[j]
    padded[dec - 1 + lead:dec - 1 + lead + taps.size] = taps
    g = padded[dec * np.arange(k)[:, None] - np.arange(dec) + dec - 1]
    g.setflags(write=False)
    return g, (center + lead) // dec


def _fir_blocks(sq: np.ndarray, g: np.ndarray, first: int) -> np.ndarray:
    """The decimating FIR of polyphase matrix g, (K, dec), along the last
    axis.

    Row r of the input is its samples dec*r to dec*r + dec - 1. A block of
    _CHUNK // 4 outputs lo:hi reads rows first+lo-K+1 to first+hi-1 of it
    as a view, or as a zero-padded copy where they leave the input, and takes
    Z = g @ rows.T; output lo + t is then the sum of Z[c, K-1-c+t] over
    c = 0 .. K-1, added in that order. Each product has a whole number of
    groups of 8 columns: numpy's OpenBLAS computes the remaining last
    columns of a product with a narrower kernel that rounds differently.
    So, at the decimations of the LTE bandwidths (2 to 16), every output
    has the same bits wherever the blocks cut the outputs. Leading axes
    are looped. The blocks run inside one `_blas_on_caller`, so no
    product wakes a BLAS worker.
    """
    k, dec = g.shape
    n_in = sq.shape[-1]
    x = np.asarray(sq, dtype=np.float64).reshape(
        np.prod(sq.shape[:-1], dtype=int), n_in)
    y = np.empty(x.shape[:-1] + (-(-n_in // dec),))
    n_rows = n_in // dec
    views = x[:, :n_rows * dec].reshape(x.shape[0], n_rows, dec)
    step = max(1, _CHUNK // 4)
    with _blas_on_caller():
        for lo in range(0, y.shape[-1], step):
            n = min(step, y.shape[-1] - lo)
            r0 = first + lo - k + 1
            r1 = r0 + -(-(n + k - 1) // 8) * 8      # whole groups of 8 columns
            s0, s1 = max(0, r0 * dec), min(n_in, r1 * dec)
            for row, out in enumerate(y[:, lo:lo + n]):
                if 0 <= r0 and r1 <= n_rows:
                    win = views[row, r0:r1]
                else:
                    win = np.zeros((r1 - r0, dec))
                    if s0 < s1:
                        win.reshape(-1)[s0 - r0 * dec:s1 - r0 * dec] = x[row, s0:s1]
                z = g @ win.T
                np.copyto(out, z[0, k - 1:k - 1 + n])
                for c in range(1, k):
                    out += z[c, k - 1 - c:k - 1 - c + n]
    return y.reshape(sq.shape[:-1] + y.shape[-1:])


def fold_baseband(bb: np.ndarray, fs_in: float) -> np.ndarray:
    """Fast path: detector output from complex baseband, |I+jQ|^2 / 2.

    Matches the real-RF square+filter pipeline for any single band (the
    2*f_c image is what the filter removes), up to filter leakage. The
    square is taken into one array, then filtered by lowpass_decimate.
    """
    sq = np.empty(bb.shape)     # C order, whatever bb's layout
    np.multiply(bb.real, bb.real, out=sq)
    sq += bb.imag * bb.imag
    sq *= 0.5
    return lowpass_decimate(sq, fs_in)


def arrival(cell: CellConfig, rx) -> tuple[float, float, float]:
    """(delay_s, amplitude, power_dbm) of cell at rx, free-space 1/d law:
    travel time plus frame origin, received amplitude, mean power."""
    d = float(np.hypot(*(np.asarray(cell.position) - np.asarray(rx))))
    gain = path_amplitude(d, cell.carrier_hz)
    return (d / SPEED_OF_LIGHT + cell.frame_time_origin_s,
            gain * 10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0),
            cell.tx_power_dbm + 20.0 * np.log10(gain))

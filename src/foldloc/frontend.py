"""Propagation and square-law receiver front end.

Models the path from tower antennas to detector-rate real samples: free-space
amplitude, geometric and multipath delay, carrier upconversion and
superposition across bands, the envelope detector's squaring, FIR low-pass
filtering and decimation to the one detector rate, DETECTOR_RATE_HZ =
1.92 MHz. Nothing here adds noise: detector noise of
`FrontEndConfig.noise_sigma` is added once per fix trace, by
`harness.synth_fix_trace`.

Two receive paths are provided. The real-RF path squares an explicitly
upconverted waveform and captures cross-band intermodulation. The complex
baseband fast path uses |I+jQ|^2/2, exact for a single band and for
multi-band layouts whose pairwise difference frequencies all clear the
low-pass filter.

`fold_baseband` takes the square into one array and `lowpass_decimate`
runs the FIR by blocks of outputs, each over the input span it reads;
both run their blocks on the calling thread's CPU share once the input
holds lte._PARALLEL_MIN samples (see `lte._run_blocks`). The helper
threads run only private code, so `lowpass_decimate` is always entered on
the caller's thread.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np
from scipy.signal import firwin, kaiserord, upfirdn

from .lte import FrameConfig, Pci, _run_blocks, frame_samples

SPEED_OF_LIGHT = 3.0e8
DETECTOR_RATE_HZ = 1.92e6     # the detector's one sample rate
SYNC_BAND_HZ = 1.08e6         # folded sync occupies DC..~1 MHz
# The detector's fixed Kaiser low-pass. The cutoff is deliberately
# aggressive: folded sync lives below ~0.96 MHz, so sampling at 1.92 MHz
# behind a 1.4 MHz filter aliases only data-difference terms the detector
# tolerates. Above the detector's Nyquist frequency, it is all-pass at dec 1.
LPF_CUTOFF_HZ = 1.4e6
LPF_TRANSITION_HZ = 0.4e6
LPF_ATTEN_DB = 60.0
# elements of the temporaries one block of the square or the FIR makes, so
# that helper threads keep little memory
_CHUNK = 1 << 14


@dataclass(frozen=True)
class FrontEndConfig:
    """Detector sensitivity and noise; its rate and low-pass are constants.

    noise_sigma takes no part in equality or hashing, so one
    `harness._bank_for` entry serves every noise level.
    """

    noise_sigma: float = field(default=0.0, compare=False)
    sensitivity_floor_dbm: float = -70.0

    def __post_init__(self):
        if not np.isfinite([getattr(self, f.name) for f in fields(self)]).all():
            raise ValueError(f"non-finite value in {self}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class MultipathProfile:
    """Sparse tap list (amplitude, phase radians, delay seconds)."""

    taps: tuple[tuple[float, float, float], ...] = ((1.0, 0.0, 0.0),)

    def __post_init__(self):
        if len(self.taps) == 0:
            raise ValueError("at least one tap (the LOS tap) required")
        if any(t[2] < 0 for t in self.taps):
            raise ValueError("negative tap delay")

    @classmethod
    def los(cls) -> "MultipathProfile":
        return cls()


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


def envelope_square(rf: np.ndarray) -> np.ndarray:
    """Ideal square-law detector: element-wise square of a real waveform."""
    rf = np.asarray(rf)
    if np.iscomplexobj(rf):
        raise TypeError("envelope_square expects a real RF waveform")
    return rf * rf


@lru_cache(maxsize=32)
def design_lowpass(fs: float) -> np.ndarray:
    """Linear-phase Kaiser FIR taps of the detector low-pass at rate fs.

    Cached per fs; the shared array is read-only.
    """
    ntaps, beta = kaiserord(LPF_ATTEN_DB, LPF_TRANSITION_HZ / (fs / 2.0))
    ntaps |= 1          # odd length, integer group delay
    taps = firwin(ntaps, LPF_CUTOFF_HZ / (fs / 2.0), window=("kaiser", beta))
    taps.setflags(write=False)
    return taps


def lowpass_decimate(sq: np.ndarray, fs_in: float) -> np.ndarray:
    """Low-pass and decimate to DETECTOR_RATE_HZ, along the last axis.

    Output i is the FIR output centered on input sample i * dec: the
    odd-length linear-phase FIR's group delay is compensated, so template
    positions are unbiased. This equals fftconvolve(sq, taps, "same")[::dec],
    but the polyphase filter computes only the outputs that are kept, by
    blocks of outputs on the caller's share of the CPUs (_fir_blocks).
    At dec 1 the filter is all-pass and sq itself is returned, not a copy.
    """
    ratio = fs_in / DETECTOR_RATE_HZ
    dec = int(round(ratio))
    if abs(ratio - dec) > 1e-9 or dec < 1:
        raise ValueError(f"input rate {fs_in} not an integer multiple of "
                         f"the detector rate {DETECTOR_RATE_HZ}")
    if dec == 1:
        return sq
    return _fir_blocks(sq, design_lowpass(fs_in), dec)


def _fir_blocks(sq: np.ndarray, taps: np.ndarray, dec: int) -> np.ndarray:
    """upfirdn's decimating FIR along the last axis, group delay removed.

    Each block of outputs filters only the input span it reads, starting
    on a multiple of dec, so its outputs are upfirdn's own outputs of the
    whole trace, term for term and in the same order.
    """
    # full-convolution index of output i is (ntaps - 1) / 2 + i * dec;
    # leading zero taps shift it onto the multiples of dec upfirdn keeps
    center = (taps.size - 1) // 2
    lead = -center % dec
    first = (center + lead) // dec
    h = np.concatenate([np.zeros(lead), taps])
    n_in = sq.shape[-1]
    y = np.empty(sq.shape[:-1] + (-(-n_in // dec),))

    def outputs(lo, hi):
        s0 = max(0, (first + lo) * dec - h.size + 1) // dec * dec
        s1 = min(n_in, (first + hi - 1) * dec + 1)
        m0 = first + lo - s0 // dec
        y[..., lo:hi] = upfirdn(h, sq[..., s0:s1], down=dec)[..., m0:m0 + hi - lo]

    rows = sq.size // n_in if n_in else 1
    _run_blocks(outputs, y.shape[-1], sq.size, max(1, _CHUNK // max(1, rows)))
    return y


def fold_baseband(bb: np.ndarray, fs_in: float) -> np.ndarray:
    """Fast path: detector output from complex baseband, |I+jQ|^2 / 2.

    Matches the real-RF square+filter pipeline for any single band (the
    2*f_c image is what the filter removes), up to filter leakage. The
    square is taken into one array by blocks on the caller's share of the
    CPUs, then filtered by lowpass_decimate on the calling thread.
    """
    sq = np.empty(bb.shape)
    flat_bb, flat_sq = bb.reshape(-1), sq.reshape(-1)

    def square(lo, hi):
        x, s = flat_bb[lo:hi], flat_sq[lo:hi]
        np.multiply(x.real, x.real, out=s)
        s += x.imag * x.imag
        s *= 0.5

    _run_blocks(square, sq.size, sq.size, _CHUNK)
    return lowpass_decimate(sq, fs_in)


def receive_rf(rf: np.ndarray, fs_in: float) -> np.ndarray:
    """Full detector chain on a real RF waveform."""
    return lowpass_decimate(envelope_square(rf), fs_in)


def _upsampled_spectrum(bb: np.ndarray, n_out: int) -> np.ndarray:
    """Zero-padded FFT embed: complex baseband resampled to n_out samples."""
    n_in = bb.size
    spec = np.fft.fft(bb)
    out = np.zeros(n_out, dtype=np.complex128)
    half = n_in // 2
    out[:half] = spec[:half]
    out[-(n_in - half):] = spec[half:]
    return out * (n_out / n_in)


def superpose(cells, rx_position, duration_s: float,
              oversample_rate_hz: float = 153.6e6, rng_seed: int = 0) -> np.ndarray:
    """Sum upconverted, delayed, attenuated cell signals at the receiver.

    cells is a list of (CellConfig, MultipathProfile). Each cell's frame
    stream (preamble plus random QPSK payload) is delayed by time of flight
    plus its frame origin, shaped by its multipath taps via a frequency
    response, scaled by tx power and free-space amplitude, upconverted, and
    summed into one real RF buffer at the oversample rate.

    Per-cell payload randomness derives from (rng_seed, cell index) so the
    output is deterministic and independent of iteration order.
    """
    if oversample_rate_hz <= 0:
        raise ValueError("oversample rate must be positive")
    for cell, _ in cells:
        need = 2.0 * (cell.carrier_hz + cell.frame_cfg.bandwidth_mhz * 1e6 / 2.0)
        if oversample_rate_hz < need:
            raise ValueError(
                f"oversample rate {oversample_rate_hz:.3g} below Nyquist "
                f"{need:.3g} for carrier {cell.carrier_hz:.3g}")

    n_out = int(round(duration_s * oversample_rate_hz))
    t = np.arange(n_out) / oversample_rate_hz
    total = np.zeros(n_out, dtype=np.float64)
    rx = np.asarray(rx_position, dtype=np.float64)

    for idx, (cell, mp) in enumerate(cells):
        cfg = cell.frame_cfg
        n_frames = int(np.ceil(duration_s / 0.01))
        rng = np.random.default_rng([rng_seed, idx])
        bb = frame_samples(cfg, cell.pci, "random_qpsk", rng, n_frames)
        bb = bb[:int(round(duration_s * cfg.sample_rate_hz))]

        d = float(np.hypot(*(np.asarray(cell.position) - rx)))
        gain = path_amplitude(d, cell.carrier_hz) * \
            10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0)
        delay = d / SPEED_OF_LIGHT + cell.frame_time_origin_s

        spec = _upsampled_spectrum(bb, n_out)
        freqs = np.fft.fftfreq(n_out, 1.0 / oversample_rate_hz)
        h = np.zeros(n_out, dtype=np.complex128)
        for amp, phase, tau in mp.taps:
            h += amp * np.exp(1j * phase) * np.exp(-2j * np.pi * freqs * (delay + tau))
        lam = np.fft.ifft(spec * h)
        total += gain * np.real(lam * np.exp(2j * np.pi * cell.carrier_hz * t))
    return total


def received_power_dbm(cell: CellConfig, rx_position) -> float:
    """Mean received power in dBm under the free-space 1/d amplitude law."""
    d = float(np.hypot(*(np.asarray(cell.position) - np.asarray(rx_position))))
    return cell.tx_power_dbm + 20.0 * np.log10(path_amplitude(d, cell.carrier_hz))


def folded_sync_overlap(c1: CellConfig, c2: CellConfig,
                        rng_seed: int = 0) -> float:
    """Percent of cross-term power landing in the folded sync band.

    After squaring, the pair's cross term occupies difference frequencies
    around |f1 - f2|. This computes, numerically, the fraction of that
    cross-term power the low-pass filter admits into [0, 1.08 MHz],
    normalized so co-located carriers score 100. Returns 0 without
    simulation when the minimum difference frequency clears the filter
    cutoff plus the sync band.
    """
    b1 = c1.frame_cfg.bandwidth_mhz * 1e6
    b2 = c2.frame_cfg.bandwidth_mhz * 1e6
    spacing = abs(c1.carrier_hz - c2.carrier_hz)
    if spacing - (b1 + b2) / 2.0 > LPF_CUTOFF_HZ + SYNC_BAND_HZ:
        return 0.0

    def cross_inband(delta_f: float) -> float:
        # cross term of the squared sum, analyzed at baseband:
        # 2*r1*r2 -> Re{lam1 * conj(lam2) * e^{j 2 pi delta_f t}} plus a
        # sum-frequency image the filter always removes
        fs = 4.0 * (delta_f + b1 + b2)
        fs = max(fs, 8.0 * SYNC_BAND_HZ)
        n = int(round(fs * 0.01))
        lam1 = _upsampled_spectrum(
            frame_samples(c1.frame_cfg, c1.pci, "random_qpsk",
                          np.random.default_rng([rng_seed, 1])), n)
        lam2 = _upsampled_spectrum(
            frame_samples(c2.frame_cfg, c2.pci, "random_qpsk",
                          np.random.default_rng([rng_seed, 2])), n)
        l1 = np.fft.ifft(lam1)
        l2 = np.fft.ifft(lam2)
        tt = np.arange(n) / fs
        cross = np.real(l1 * np.conj(l2) * np.exp(2j * np.pi * delta_f * tt))
        spec = np.abs(np.fft.rfft(cross)) ** 2
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        band = freqs <= min(LPF_CUTOFF_HZ, SYNC_BAND_HZ)
        return float(spec[band].sum())

    ref = cross_inband(0.0)
    if ref <= 0:
        return 0.0
    return 100.0 * min(1.0, cross_inband(spacing) / ref)

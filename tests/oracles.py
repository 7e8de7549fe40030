"""References the tests compare foldloc against; the pipeline calls none.

An LTE frame built one symbol at a time, with its OFDM inverse; the frame
build as it was before it drew each frame's payload on its own; the real-RF
receive path, whose explicit upconversion and square also capture the
cross-band intermodulation that the fast path's |I+jQ|^2/2 leaves out; an
exhaustive scan of templates at every lag through `ncc`, the NCC kernel
stage 1 once ran; that earlier detector itself, which normalized every
lag before thresholding and scored stage 2 with all 276 columns of the
bank; and the exact delay and its stacked square as they ran before their
passes could be split across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from foldloc import detect
from foldloc.amplitude import _EPS
from foldloc.detect import (CANDIDATE_WINDOW, FRAME_LEN, PSS_TEMPLATE_LEN,
                            STAGE1_GROUP_GAP, TEMPLATE_LEN, Detection,
                            _window_norms)
from foldloc.frontend import (LPF_CUTOFF_HZ, SPEED_OF_LIGHT, CellConfig,
                              lowpass_decimate, path_amplitude)
from foldloc.lte import (_QPSK, SYMBOLS_PER_FRAME, SYMBOLS_PER_SLOT,
                         FrameConfig, Pci, _cp_layout, _sync_columns,
                         central_62_bins, frame_samples, generate_pss,
                         generate_sss)

SYNC_BAND_HZ = 1.08e6         # folded sync occupies DC..~1 MHz


def build_frame(cfg: FrameConfig, pci: Pci,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """One frame's resource grid for a single cell, (fft_size, 140) complex.

    Rows are FFT bins (row 0 = DC, upper rows are negative frequencies),
    columns are OFDM symbols. Without rng every non-sync element is zero;
    with it the occupied band, 12 * n_rb subcarriers around a null DC,
    holds unit-power QPSK symbols from one (band, 140) draw, the bits
    `lte.frame_samples` takes per frame. Sync always overwrites the
    central 62 subcarriers of its four symbols.
    """
    grid = np.zeros((cfg.fft_size, SYMBOLS_PER_FRAME), dtype=np.complex128)
    if rng is not None:
        half = 6 * cfg.n_resource_blocks
        band = np.r_[cfg.fft_size - half:cfg.fft_size, 1:half + 1]
        bits = rng.integers(0, 4, size=(band.size, SYMBOLS_PER_FRAME))
        grid[band, :] = np.exp(1j * (np.pi / 4 + np.pi / 2 * bits))
    c62 = central_62_bins(cfg.fft_size)
    for col, subframe in zip((5, 75), (0, 5)):
        grid[c62, col] = generate_sss(pci.group, pci.sector, subframe)
    for col in (6, 76):
        grid[c62, col] = generate_pss(pci.sector)
    return grid


def ofdm_modulate(symbols: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Unitary IDFT per symbol with cyclic prefixes, one symbol at a time.

    symbols is an (fft_size, 140 * n) grid laid out as build_frame's, n
    frames side by side; returns the n frames end to end.
    """
    shape = symbols.shape
    if (len(shape) != 2 or shape[0] != cfg.fft_size
            or shape[1] == 0 or shape[1] % SYMBOLS_PER_FRAME):
        raise ValueError(f"grid shape {shape} is not ({cfg.fft_size}, "
                         f"{SYMBOLS_PER_FRAME} * n)")
    body = np.fft.ifft(symbols, axis=0, norm="ortho")
    pieces = []
    for s in range(shape[1]):
        cp = cfg.cp_len(s % SYMBOLS_PER_SLOT)
        pieces += [body[-cp:, s], body[:, s]]
    return np.concatenate(pieces)


def ofdm_demodulate(samples: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Strip cyclic prefixes and apply the unitary DFT; inverse of modulate.

    samples must hold whole frames; n frames give an (fft_size, 140 * n) grid.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0 or samples.size % cfg.frame_len:
        raise ValueError(f"{samples.size} samples are not whole "
                         f"{cfg.frame_len}-sample frames")
    bodies, pos = [], 0
    for s in range(samples.size // cfg.frame_len * SYMBOLS_PER_FRAME):
        pos += cfg.cp_len(s % SYMBOLS_PER_SLOT)
        bodies.append(samples[pos:pos + cfg.fft_size])
        pos += cfg.fft_size
    return np.fft.fft(np.stack(bodies), axis=-1, norm="ortho").T


def frame_samples_batched(cfg: FrameConfig, pci: Pci,
                          rng: np.random.Generator,
                          n_frames: int = 1) -> np.ndarray:
    """`lte.frame_samples` as it was built before it drew frame by frame:
    one (n, band, 140) int32 draw of every frame's payload, then a fresh
    (140, fft_size) grid per frame, its IFFT in place, gathered with the
    cyclic prefixes into one preallocated output."""
    half = 6 * cfg.n_resource_blocks
    bits = rng.integers(0, 4, size=(n_frames, 2 * half, SYMBOLS_PER_FRAME),
                        dtype=np.int32)
    c62 = central_62_bins(cfg.fft_size)
    insert = _cp_layout(cfg)
    out = np.empty((n_frames, cfg.frame_len), dtype=np.complex128)
    for f, frame in enumerate(out):
        grid = np.zeros((SYMBOLS_PER_FRAME, cfg.fft_size), dtype=np.complex128)
        qpsk = np.take(_QPSK, bits[f])
        grid[:, -half:] = qpsk[:half].T
        grid[:, 1:half + 1] = qpsk[half:].T
        for col, seq in _sync_columns(pci):
            grid[col, c62] = seq
        np.fft.ifft(grid, axis=-1, norm="ortho", out=grid)
        np.take(grid.ravel(), insert, out=frame, mode="wrap")
    return out.ravel()


def twiddle(a: np.ndarray, sign: int, row: np.ndarray | None = None,
             k: np.ndarray | None = None) -> None:
    """`harness._delay_stacked`'s twiddle as it was before its passes were
    split: a[j, b] *= row[j, 0] * exp(sign*2j*pi*k[j]*b/N) in place,
    N = a.size, with row 1 when None and k[j] = j when None.

    With b = 160*q + r (FRAME_LEN = 120*160) the factor is the product of
    an (n1, 120) and an (n1, 160) table, so no N-sized table is made.
    """
    v = a.reshape(a.shape[0], FRAME_LEN // 160, 160)
    kj = np.arange(a.shape[0]) if k is None else k
    step = sign * 2j * np.pi / a.size * kj[:, None]
    q = np.exp(step * 160 * np.arange(FRAME_LEN // 160))
    v *= (q if row is None else row * q)[:, :, None]
    v *= np.exp(step * np.arange(160))[:, None, :]


def delayed_rows(bb: np.ndarray, delay_samples: float,
                 scale: float) -> np.ndarray:
    """`harness._delay_stacked`'s first three passes, whole, as they were
    before they were split: Z, (n1, FRAME_LEN), of
    y = scale * ifft(fft(bb) * exp(-2j*pi*fftfreq(N)*delay_samples)), bb
    delayed exactly, circularly and band-limited: at m = FRAME_LEN*j + b,
    y[m] = sum over k of Z[k, b] * exp(2j*pi*k*m/N) / n1. bb may be
    overwritten.

    bb, N samples in whole 10 ms frames, is viewed as an (n1, FRAME_LEN)
    array. n1-point transforms along axis 0, a twiddle and FRAME_LEN-point
    transforms along axis 1 leave bin k1 + n1*k2 at [k1, k2], so the ramp
    is a row factor (with scale) times a column factor; k2 >= FRAME_LEN/2
    holds the negative frequencies, as in fftfreq. FRAME_LEN-point inverse
    transforms along axis 1 then give Z.
    """
    n1 = bb.size // FRAME_LEN
    step = -2j * np.pi * delay_samples / bb.size
    a = bb.reshape(n1, FRAME_LEN)
    np.fft.fft(a, axis=0, out=a)
    twiddle(a, -1, scale * np.exp(step * np.arange(n1))[:, None])
    np.fft.fft(a, axis=1, out=a)
    a *= np.exp(step * n1 * np.fft.fftfreq(FRAME_LEN, 1.0 / FRAME_LEN))
    return np.fft.ifft(a, axis=1, out=a)


def delay_stacked(bb: np.ndarray, delay_samples: float, scale: float,
                  n: int, reach: int) -> np.ndarray:
    """`harness._delay_stacked` as it was before it split its passes: the
    square |y|**2 / 2 of `delayed_rows`' delayed trace y, summed
    over its n equal parts and divided by n, as the detector low-pass of
    the whole trace sees it: q*FRAME_LEN samples, q = n1/n, extended by
    reach samples each side. n is 1 for the trace itself and the frame
    count for its stacked frame. bb may be overwritten.

    Part f of y holds rows q*f .. q*f + q - 1 of the (n1, FRAME_LEN) view,
    so with k = n*kb + ka the sum over f is Parseval's over the n-point
    transform along ka: the twiddle's ka half has unit modulus and drops
    out, the kb half is the (q, FRAME_LEN) table
    exp(2j*pi*kb*b/(q*FRAME_LEN)), and a q-point unnormalized inverse
    along kb leaves the energy to sum over ka, scaled by 1/(2*n*n*q*q).
    At n = 1 that is y's own n1-point inverse; at q = 1 it is the sum of
    |Z|**2/(2*n*n) alone. The low-pass zero-pads the trace, so the
    extension is the folded square taken periodically, less the square
    of the trace's last reach samples before it and of its first reach
    samples after it; those 2*reach samples of y come from Z directly.
    The energy is summed one output row at a time, so no temporary spans
    every row.
    """
    z = delayed_rows(bb, delay_samples, scale)
    n1 = z.shape[0]
    q = n1 // n
    p = np.arange(-reach, reach)
    ends = (z[:, p % FRAME_LEN] *
            np.exp(2j * np.pi / z.size * np.outer(np.arange(n1), p))).sum(axis=0)
    ends = (ends.real * ends.real + ends.imag * ends.imag) / (2 * n1 * n1 * n)
    if q > 1:
        twiddle(z, 1, k=np.arange(n1) // n * n)
        z = z.reshape(q, n, FRAME_LEN)
        np.fft.ifft(z, axis=0, norm="forward", out=z)
    parts = z.view(np.float64).reshape(q, n, 2 * FRAME_LEN)   # re, im, ...
    out = np.empty(q * FRAME_LEN + 2 * reach)
    folded = out[reach:reach + q * FRAME_LEN]
    rows = folded.reshape(q, FRAME_LEN)
    for i in range(q):
        x = parts[i:i + 1]
        e = np.einsum("ijk,ijk->ik", x, x)      # summed over ka in order
        np.add(e[:, 0::2], e[:, 1::2], out=rows[i:i + 1])
    rows /= 2 * n * n * q * q
    out[:reach] = folded[folded.size - reach:] - ends[:reach]
    out[reach + folded.size:] = folded[:reach] - ends[reach:]
    return out


@dataclass(frozen=True)
class MultipathProfile:
    """Sparse tap list (amplitude, phase radians, delay seconds); the
    default is the line-of-sight tap alone."""

    taps: tuple[tuple[float, float, float], ...] = ((1.0, 0.0, 0.0),)

    def __post_init__(self):
        if len(self.taps) == 0:
            raise ValueError("at least one tap (the LOS tap) required")
        if any(t[2] < 0 for t in self.taps):
            raise ValueError("negative tap delay")


def envelope_square(rf: np.ndarray) -> np.ndarray:
    """Ideal square-law detector: element-wise square of a real waveform."""
    rf = np.asarray(rf)
    if np.iscomplexobj(rf):
        raise TypeError("envelope_square expects a real RF waveform")
    return rf * rf


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
        bb = frame_samples(cfg, cell.pci, rng, n_frames)
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
        l1, l2 = (np.fft.ifft(_upsampled_spectrum(frame_samples(
            c.frame_cfg, c.pci, np.random.default_rng([rng_seed, k])), n))
            for k, c in ((1, c1), (2, c2)))
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


def ncc(stacked: np.ndarray, wlen: int, spec: np.ndarray) -> np.ndarray:
    """(k, n) scores at every circular lag of the k templates of length wlen
    whose conjugate spectra, at the trace's length, are spec (k, n//2 + 1).

    The trace is transformed once and each lag divided by its window norm
    (Lewis's running-sum fast NCC; flat windows score 0). Scores are
    clipped to [-1, 1].
    """
    n = stacked.size
    denom = _window_norms(stacked, wlen)
    out = np.fft.irfft(np.fft.rfft(stacked) * spec, n=n, axis=1) / \
        np.maximum(denom, _EPS)
    out[:, denom == 0.0] = 0.0
    return np.clip(out, -1.0, 1.0)


def correlate_bank(stacked: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """(k, n) normalized cross-correlation of k templates at every lag.

    Every circular lag of the stacked frame is scored against each row of
    templates (k, L), zero-mean and unit-norm, by `ncc`, BANK_CHUNK
    templates per call. A single template scores as
    correlate_bank(x, tpl[None])[0].
    """
    n = stacked.size
    if n < templates.shape[1]:
        raise ValueError("trace shorter than template")
    return np.concatenate([
        ncc(stacked, templates.shape[1], np.conj(
            np.fft.rfft(templates[lo:lo + detect.BANK_CHUNK], n=n, axis=1)))
        for lo in range(0, len(templates), detect.BANK_CHUNK)])


def stage1_candidates(stacked: np.ndarray, bank: detect.TemplateBank,
                      thresh_pss: float) -> list[int]:
    """Stage 1 normalizing every lag, then thresholding: `ncc` scores both
    PSS shapes at all lags from the bank's spectra; runs of lags above
    thresh_pss at most STAGE1_GROUP_GAP apart keep their best lag."""
    if stacked.size != FRAME_LEN:
        raise ValueError(f"stacked frame of {stacked.size} samples, not "
                         f"{FRAME_LEN}")
    cands = set()
    for scores in ncc(stacked, PSS_TEMPLATE_LEN, bank.pss_spec):
        above = np.flatnonzero(scores > thresh_pss)
        groups = np.split(above,
                          np.flatnonzero(np.diff(above) > STAGE1_GROUP_GAP) + 1)
        cands.update(int(g[np.argmax(scores[g])]) for g in groups if g.size)
    return sorted(cands)


def hierarchical_detect(stacked: np.ndarray, bank: detect.TemplateBank,
                        thresh_pss: float = detect.THRESH_PSS,
                        thresh_sss: float = detect.THRESH_SSS
                        ) -> list[Detection]:
    """The two-stage search with `stage1_candidates` and a stage 2 that
    multiplies each normalized candidate window by all 276 columns of
    bank.samples; flat windows score -inf, and each PCI keeps its first
    best lag above thresh_sss. Sorted by score descending."""
    cands = stage1_candidates(stacked, bank, thresh_pss)
    if not cands:
        return []
    offsets = np.arange(-CANDIDATE_WINDOW, CANDIDATE_WINDOW + 1)
    lags = ((np.array(cands)[:, None] - (TEMPLATE_LEN - PSS_TEMPLATE_LEN)
             + offsets).ravel() % stacked.size)
    windows = stacked.take(lags[:, None] + np.arange(TEMPLATE_LEN), mode="wrap")
    windows -= windows.mean(axis=1, keepdims=True)
    nrm = np.linalg.norm(windows, axis=1)
    flat = nrm < _EPS
    scores = (windows / np.where(flat, 1.0, nrm)[:, None]) @ bank.samples.T
    scores[flat] = -np.inf
    best = np.argmax(scores, axis=0)
    top = scores[best, np.arange(504)]
    out = [Detection(Pci(int(p)), int(lags[best[p]]), float(top[p]))
           for p in np.flatnonzero(top > thresh_sss)]
    out.sort(key=lambda d: (-d.score, d.delay_samples, d.pci.value))
    return out

"""Amplitude recovery and sub-sample timing refinement.

Folded sync components superpose additively in the detector output, so each
detected cell's contribution can be measured by constrained least squares
against its template. Residual fractional delay appears as a linear phase
ramp across the window's frequency bins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-30                  # energies and norms below this count as zero
SUBSAMPLE_FLOOR = 0.05        # usable bins hold this share of the template peak
SUBSAMPLE_PASSES = 3          # de-ramp passes of the phase-slope fit


@dataclass
class SubsampleEstimate:
    """Fractional-sample delay from the phase slope across template bins.

    tau is the delay in fractional samples, -slope * L / (2 pi) for a
    slope in radians per bin over a window of L samples. confidence is
    the weighted phase coherence of the final fit (1 = perfectly linear
    phase). n_bins counts the usable bins; fewer than 8 flags the estimate
    as low confidence.
    """

    tau: float
    confidence: float
    n_bins: int

    @property
    def low_confidence(self) -> bool:
        return self.n_bins < 8


def _window(x: np.ndarray, d: int, wlen: int) -> np.ndarray:
    """x[d:d + wlen], circularly; a view unless it wraps."""
    if 0 <= d and d + wlen <= x.size:
        return x[d:d + wlen]
    return x.take(np.arange(d, d + wlen), mode="wrap")


def fit_amplitude(x: np.ndarray, tpl: np.ndarray, d: int) -> float:
    """Best scale of the template (a bank row) at delay d, clamped to >= 0.

    The objective mean((window - A*template)^2) is quadratic in A, so the
    minimizer is the clamped projection <window, template> / <template,
    template>. A mean-removed template makes the fit insensitive to the
    detector's DC pedestal.
    """
    tt = float(tpl @ tpl)
    if tt < _EPS:
        raise ValueError("zero-energy template")
    return float(max((_window(x, d, tpl.size) @ tpl) / tt, 0.0))


def estimate_subsample(x: np.ndarray, tpl: np.ndarray, d: int) -> SubsampleEstimate:
    """Fractional delay of the windowed signal relative to the template.

    A delay of tau samples multiplies the window's spectrum by
    exp(-j 2 pi k tau / N), so the per-bin phase of X * conj(S) is a line
    through the origin with slope -2 pi tau / N. The slope is fit by
    weighted least squares over bins where |S| exceeds SUBSAMPLE_FLOOR of its
    peak (weights |S|^2, DC excluded), iterating de-ramp passes so raw angles
    never need unwrapping; coarse sync already bounds |tau| below one
    sample, which keeps every usable bin's phase inside (-pi, pi].
    """
    w = _window(x, d, tpl.size)
    spec_t = np.fft.rfft(tpl)
    spec_x = np.fft.rfft(w - w.mean())
    mag = np.abs(spec_t)
    mag[0] = 0.0
    usable = mag > SUBSAMPLE_FLOOR * mag.max()
    k = np.flatnonzero(usable).astype(np.float64)
    n_bins = k.size

    if n_bins == 0:
        return SubsampleEstimate(0.0, 0.0, 0)

    g = spec_x[usable] * np.conj(spec_t[usable])
    wts = mag[usable] ** 2
    wk = wts * k
    wkk = wk @ k
    slope = 0.0
    for _ in range(SUBSAMPLE_PASSES):
        resid = np.angle(g * np.exp(-1j * slope * k))
        slope += float(wk @ resid / wkk)
    resid = np.angle(g * np.exp(-1j * slope * k))
    coherence = float(np.abs(wts @ np.exp(1j * resid)) / wts.sum())

    tau = -slope * tpl.size / (2.0 * np.pi)
    tau = float(min(max(tau, -0.999999), 0.999999))
    return SubsampleEstimate(tau=tau, confidence=coherence, n_bins=int(n_bins))

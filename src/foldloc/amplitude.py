"""Amplitude recovery and sub-sample timing refinement.

Folded sync components superpose additively in the detector output, so each
detected cell's contribution can be measured by constrained least squares
against its template and peeled off iteratively. Residual fractional delay
appears as a linear phase ramp across the window's frequency bins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-30                  # energies and norms below this count as zero


@dataclass
class AmplitudeFit:
    """Constrained LS amplitude for one detection window."""

    amplitude: float
    residual_energy: float
    delay: int


@dataclass
class SubsampleEstimate:
    """Fractional-sample delay from the phase slope across template bins.

    phase_slope is radians per frequency bin; tau is the equivalent delay
    in fractional samples. confidence is the weighted phase coherence of
    the final fit (1 = perfectly linear phase). n_bins counts the usable
    bins; fewer than 8 flags the estimate as low confidence.
    """

    tau: float
    phase_slope: float
    confidence: float
    n_bins: int

    @property
    def low_confidence(self) -> bool:
        return self.n_bins < 8


def _window(x: np.ndarray, d: int, wlen: int) -> np.ndarray:
    return x.take(range(d, d + wlen), mode="wrap")


def fit_amplitude(x: np.ndarray, tpl: np.ndarray, d: int,
                  a_max: float = np.inf) -> AmplitudeFit:
    """Best scale of the template (a bank row) at delay d, clamped to [0, a_max].

    The objective mean((window - A*template)^2) is quadratic in A, so the
    minimizer is the clamped projection <window, template> / <template,
    template>. A mean-removed template makes the fit insensitive to the
    detector's DC pedestal.
    """
    if a_max <= 0:
        raise ValueError("a_max must be positive")
    tt = float(tpl @ tpl)
    if tt < _EPS:
        raise ValueError("zero-energy template")
    w = _window(x, d, tpl.size)
    a = float(np.clip((w @ tpl) / tt, 0.0, a_max))
    resid = w - a * tpl
    return AmplitudeFit(amplitude=a,
                        residual_energy=float(resid @ resid) / tpl.size,
                        delay=int(d))


def iterative_separation(x: np.ndarray, detections, bank,
                         a_max: float = np.inf,
                         joint_refit: bool = False) -> list[AmplitudeFit]:
    """Greedy fit-and-subtract across detections, strongest score first.

    Each round fits the current residual, so earlier (stronger) cells do
    not leak into later fits; total residual energy never increases. With
    joint_refit a single unconstrained least-squares pass over all fitted
    components replaces the greedy amplitudes (clamped to [0, a_max]) and
    the shared final residual energy is reported on every fit.
    """
    dets = sorted(detections, key=lambda d: -d.score)
    resid = np.asarray(x, dtype=np.float64).copy()
    fits = []
    for det in dets:
        tpl = bank.samples[det.pci.value]
        fit = fit_amplitude(resid, tpl, det.delay_samples, a_max)
        idx = np.arange(det.delay_samples,
                        det.delay_samples + tpl.size) % resid.size
        resid[idx] -= fit.amplitude * tpl
        fits.append(fit)

    if joint_refit and fits:
        cols = np.zeros((resid.size, len(fits)))
        for j, (det, _) in enumerate(zip(dets, fits)):
            tpl = bank.samples[det.pci.value]
            idx = np.arange(det.delay_samples,
                            det.delay_samples + tpl.size) % resid.size
            cols[idx, j] = tpl
        sol, *_ = np.linalg.lstsq(cols, np.asarray(x, dtype=np.float64),
                                  rcond=None)
        sol = np.clip(sol, 0.0, a_max)
        final = np.asarray(x, dtype=np.float64) - cols @ sol
        energy = float(final @ final) / resid.size
        fits = [AmplitudeFit(float(a), energy, f.delay)
                for a, f in zip(sol, fits)]
    return fits


def estimate_subsample(x: np.ndarray, tpl: np.ndarray, d: int,
                       floor: float = 0.05, n_passes: int = 3) -> SubsampleEstimate:
    """Fractional delay of the windowed signal relative to the template.

    A delay of tau samples multiplies the window's spectrum by
    exp(-j 2 pi k tau / N), so the per-bin phase of X * conj(S) is a line
    through the origin with slope -2 pi tau / N. The slope is fit by
    weighted least squares over bins where |S| exceeds `floor` of its peak
    (weights |S|^2, DC excluded), iterating de-ramp passes so raw angles
    never need unwrapping; coarse sync already bounds |tau| below one
    sample, which keeps every usable bin's phase inside (-pi, pi].
    """
    w = _window(x, d, tpl.size)
    spec_t = np.fft.rfft(tpl)
    spec_x = np.fft.rfft(w - w.mean())
    mag = np.abs(spec_t)
    mag[0] = 0.0
    usable = mag > floor * mag.max()
    k = np.flatnonzero(usable).astype(np.float64)
    n_bins = k.size

    if n_bins == 0:
        return SubsampleEstimate(0.0, 0.0, 0.0, 0)

    g = spec_x[usable] * np.conj(spec_t[usable])
    wts = mag[usable] ** 2
    slope = 0.0
    for _ in range(n_passes):
        resid = np.angle(g * np.exp(-1j * slope * k))
        slope += float((wts * k) @ resid / ((wts * k) @ k))
    resid = np.angle(g * np.exp(-1j * slope * k))
    coherence = float(np.abs(wts @ np.exp(1j * resid)) / wts.sum())

    tau = -slope * tpl.size / (2.0 * np.pi)
    tau = float(np.clip(tau, -0.999999, 0.999999))
    return SubsampleEstimate(tau=tau, phase_slope=slope,
                             confidence=coherence, n_bins=int(n_bins))

"""Position solvers: amplitude-ratio trilateration and TDOA least squares.

Both objectives are smooth functions of a 2-D position, minimized with
derivative-free simplex descent from a handful of deterministic starts.
Under the free-space law received amplitude scales as 1/distance, so
amplitude ratios constrain distance ratios; sample-delay differences
constrain range differences directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .frontend import SPEED_OF_LIGHT

_AMP_FLOOR = 1e-12


class InsufficientAnchorsError(ValueError):
    """Fewer than three usable tower observations."""


@dataclass(frozen=True)
class TowerObservation:
    position: tuple[float, float]
    amplitude: float = 0.0
    toa_samples: float | None = None
    pci: object = None


@dataclass
class PositionEstimate:
    position: tuple[float, float]
    objective_value: float
    iterations: int
    converged: bool
    warning: str | None = None


def sample_to_distance(delta_samples: float, sample_rate_hz: float) -> float:
    """Meters spanned by a sample-count difference at the given rate."""
    if sample_rate_hz <= 0:
        raise ValueError("sample rate must be positive")
    return delta_samples * SPEED_OF_LIGHT / sample_rate_hz


def _positions(obs) -> np.ndarray:
    if len(obs) < 3:
        raise InsufficientAnchorsError(f"need >= 3 towers, got {len(obs)}")
    return np.array([o.position for o in obs], dtype=np.float64)


def _geometry_warning(pos: np.ndarray) -> str | None:
    centered = pos - pos.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[-1] < 1e-9 * max(sv[0], 1e-30):
        return "degenerate-geometry: towers are collinear"
    return None


def _scene_scale(pos: np.ndarray) -> float:
    diffs = pos[:, None, :] - pos[None, :, :]
    return max(float(np.hypot(diffs[..., 0], diffs[..., 1]).max()), 1.0)


def _simplex(objective, init: np.ndarray, scale: float):
    """Nelder-Mead from four deterministic starts; best result wins."""
    offsets = scale * 0.05 * np.array([[0, 0], [1, 1], [-1, 1], [1, -1]])
    best, total_it = None, 0
    for off in offsets:
        res = minimize(objective, init + off, method="Nelder-Mead",
                       options=dict(xatol=1e-6 * scale, fatol=1e-30,
                                    maxiter=2000, maxfev=4000))
        total_it += res.nit
        if best is None or res.fun < best.fun:
            best = res
    return best, total_it


def trilaterate_ratio(obs, init=None) -> PositionEstimate:
    """Minimize pairwise amplitude-ratio mismatch over position.

    With A ~ 1/d, the observable A_i/A_j equals d_j/d_i, so each unordered
    pair contributes (A_i/A_j - d_j(p)/d_i(p))^2. Initialized at the tower
    centroid unless an init point is given. Amplitudes are floored at 1e-12
    to guard degenerate ratios.
    """
    pos = _positions(obs)
    warning = _geometry_warning(pos)
    amps = np.array([o.amplitude for o in obs], dtype=np.float64)
    if np.any(amps < _AMP_FLOOR):
        amps = np.maximum(amps, _AMP_FLOOR)
        warning = (warning + "; " if warning else "") + "amplitude floored"
    pairs = [(i, j) for i in range(len(obs)) for j in range(i + 1, len(obs))]
    ratios = {(i, j): amps[i] / amps[j] for i, j in pairs}
    scale = _scene_scale(pos)

    def objective(p):
        d = np.maximum(np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1]), 1e-9)
        return sum((ratios[(i, j)] - d[j] / d[i]) ** 2 for i, j in pairs)

    start = np.asarray(init, dtype=np.float64) if init is not None \
        else pos.mean(axis=0)
    res, nit = _simplex(objective, start, scale)
    return PositionEstimate(position=(float(res.x[0]), float(res.x[1])),
                            objective_value=float(res.fun),
                            iterations=nit, converged=bool(res.success),
                            warning=warning)


def solve_tdoa(obs, sample_rate_hz: float, init=None) -> PositionEstimate:
    """Hyperbolic least squares over all pairwise arrival-time differences.

    Sample offsets convert to range differences; a uniform arrival-time
    bias across towers cancels in every pair. The search runs on residuals
    in meters for conditioning; the reported objective value is the sum of
    squared time residuals in seconds.
    """
    pos = _positions(obs)
    if any(o.toa_samples is None for o in obs):
        raise ValueError("every observation needs toa_samples for TDOA")
    warning = _geometry_warning(pos)
    rng_m = np.array([sample_to_distance(o.toa_samples, sample_rate_hz)
                      for o in obs])
    pairs = [(i, j) for i in range(len(obs)) for j in range(i + 1, len(obs))]
    obs_dd = {(i, j): rng_m[j] - rng_m[i] for i, j in pairs}
    scale = _scene_scale(pos)

    def resid_m(p):
        d = np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])
        return [obs_dd[(i, j)] - (d[j] - d[i]) for i, j in pairs]

    def objective(p):
        return sum(r * r for r in resid_m(p))

    start = np.asarray(init, dtype=np.float64) if init is not None \
        else pos.mean(axis=0)
    res, nit = _simplex(objective, start, scale)
    obj_seconds = float(res.fun) / SPEED_OF_LIGHT ** 2
    return PositionEstimate(position=(float(res.x[0]), float(res.x[1])),
                            objective_value=obj_seconds,
                            iterations=nit, converged=bool(res.success),
                            warning=warning)

"""Amplitude fitting, iterative source separation, sub-sample timing."""
import numpy as np
import pytest

from foldloc.amplitude import (estimate_subsample, fit_amplitude,
                               iterative_separation)
from foldloc.detect import FRAME_LEN, TEMPLATE_LEN, Detection
from foldloc.lte import Pci

WLEN = TEMPLATE_LEN


def _embed(pairs, bank, n=FRAME_LEN):
    """Zero frame with a*template added at each (pci, delay, a)."""
    x = np.zeros(n)
    for pci, d, a in pairs:
        idx = np.arange(d, d + WLEN) % n
        x[idx] += a * bank.samples[pci]
    return x


def _objective(x, t, d, a):
    w = x.take(range(d, d + t.size), mode="wrap")
    r = w - a * t
    return float(r @ r) / t.size


# ---------------------------------------------------------------- fit


def test_fit_exact_recovery(bank):
    x = _embed([(42, 1000, 2.5)], bank)
    fit = fit_amplitude(x, bank.samples[42], 1000)
    assert abs(fit.amplitude - 2.5) < 1e-12
    assert fit.residual_energy < 1e-24
    assert fit.delay == 1000


def test_fit_orthogonal_window_gives_zero(bank):
    # zero-mean template is orthogonal to any constant pedestal
    x = np.full(FRAME_LEN, 3.7)
    fit = fit_amplitude(x, bank.samples[42], 500)
    assert abs(fit.amplitude) < 1e-9


def test_fit_explicitly_orthogonalized_noise(bank):
    t = bank.samples[7]
    rng = np.random.default_rng(0)
    w = rng.normal(size=WLEN)
    w -= (w @ t) / (t @ t) * t
    x = np.zeros(FRAME_LEN)
    x[100:100 + WLEN] = w
    fit = fit_amplitude(x, bank.samples[7], 100)
    assert abs(fit.amplitude) < 1e-12


def test_fit_clamps_to_bounds(bank):
    x = _embed([(42, 1000, 2.0)], bank)
    assert fit_amplitude(x, bank.samples[42], 1000, a_max=1.5).amplitude == 1.5
    xneg = _embed([(42, 1000, -2.0)], bank)
    assert fit_amplitude(xneg, bank.samples[42], 1000).amplitude == 0.0


def test_fit_rejects_bad_inputs(bank):
    x = np.zeros(FRAME_LEN)
    with pytest.raises(ValueError):
        fit_amplitude(x, bank.samples[0], 0, a_max=0.0)
    with pytest.raises(ValueError):
        fit_amplitude(x, np.zeros(WLEN), 0)


def test_fit_is_constrained_optimum(bank):
    """100 random windows: no admissible perturbation of the fitted
    amplitude lowers the mean squared residual."""
    rng = np.random.default_rng(11)
    a_max = 5.0
    eps = 1e-3 * a_max
    for _ in range(100):
        pci = int(rng.integers(504))
        d = int(rng.integers(FRAME_LEN))
        x = rng.normal(scale=0.3, size=FRAME_LEN)
        idx = np.arange(d, d + WLEN) % FRAME_LEN
        x[idx] += rng.uniform(-1.0, 6.0) * bank.samples[pci]
        t = bank.samples[pci]
        fit = fit_amplitude(x, bank.samples[pci], d, a_max)
        best = _objective(x, t, d, fit.amplitude)
        assert abs(best - fit.residual_energy) < 1e-12
        for trial in (fit.amplitude - eps, fit.amplitude + eps):
            trial = float(np.clip(trial, 0.0, a_max))
            assert best <= _objective(x, t, d, trial) + 1e-15


# ------------------------------------------------- iterative separation


def _dets(spec):
    return [Detection(Pci(p), d, s, 0.0) for p, d, s in spec]


def test_separation_disjoint_within_1pct(bank):
    x = _embed([(10, 1000, 1.0), (200, 6000, 0.4)], bank)
    fits = iterative_separation(x, _dets([(10, 1000, 0.99), (200, 6000, 0.9)]),
                                bank)
    by_delay = {f.delay: f.amplitude for f in fits}
    assert abs(by_delay[1000] - 1.0) <= 0.01
    assert abs(by_delay[6000] - 0.4) <= 0.01


def test_separation_overlapping_greedy_near_joint(bank):
    # windows overlap by 7 samples
    x = _embed([(10, 1000, 1.0), (200, 1000 + WLEN - 7, 0.4)], bank)
    dets = _dets([(10, 1000, 0.99), (200, 1000 + WLEN - 7, 0.9)])
    greedy = iterative_separation(x, dets, bank)
    joint = iterative_separation(x, dets, bank, joint_refit=True)
    for g, j in zip(greedy, joint):
        assert g.delay == j.delay
        assert abs(g.amplitude - j.amplitude) <= 0.10 * max(j.amplitude, 1e-12)
    # the joint refit solves the coupled system exactly here
    by_delay = {f.delay: f.amplitude for f in joint}
    assert abs(by_delay[1000] - 1.0) < 1e-9
    assert abs(by_delay[1000 + WLEN - 7] - 0.4) < 1e-9


def test_separation_frame_residual_never_increases(bank):
    rng = np.random.default_rng(5)
    x = _embed([(10, 1000, 1.0), (200, 1150, 0.5), (300, 1300, 0.25)], bank)
    x += rng.normal(scale=0.05, size=FRAME_LEN)
    spec = [(10, 1000, 0.99), (200, 1150, 0.9), (300, 1300, 0.8)]
    prev = float(x @ x)
    for k in (1, 2, 3):
        fits = iterative_separation(x, _dets(spec[:k]), bank)
        resid = x.copy()
        for f, (p, d, _) in zip(fits, spec[:k]):
            idx = np.arange(d, d + WLEN) % FRAME_LEN
            resid[idx] -= f.amplitude * bank.samples[p]
        e = float(resid @ resid)
        assert e <= prev + 1e-9
        prev = e


def test_separation_empty_detections(bank):
    assert iterative_separation(np.zeros(FRAME_LEN), [], bank) == []


# ------------------------------------------------------- sub-sample


def _delayed_window(t, tau):
    """Template circularly delayed by tau fractional samples."""
    k = np.arange(t.size // 2 + 1)
    return np.fft.irfft(np.fft.rfft(t) * np.exp(-2j * np.pi * k * tau / t.size),
                        n=t.size)


def test_subsample_known_offsets(bank):
    t = bank.samples[42]
    for tau in (0.0, 0.5, -0.3):
        x = np.zeros(FRAME_LEN)
        x[2000:2000 + WLEN] = _delayed_window(t, tau)
        est = estimate_subsample(x, bank.samples[42], 2000)
        assert abs(est.tau - tau) <= 0.05
        assert est.confidence > 0.99
        assert not est.low_confidence


def test_subsample_linearity_over_grid(bank):
    t = bank.samples[17]
    taus = np.linspace(-0.9, 0.9, 19)
    est = []
    for tau in taus:
        x = np.zeros(FRAME_LEN)
        x[400:400 + WLEN] = _delayed_window(t, tau)
        est.append(estimate_subsample(x, bank.samples[17], 400).tau)
    slope, intercept = np.polyfit(taus, est, 1)
    assert abs(slope - 1.0) <= 0.05
    assert abs(intercept) <= 0.02


def test_subsample_low_confidence_flag():
    # a tone template occupies one usable bin: far below the 8-bin floor
    n = np.arange(WLEN)
    tone = np.cos(2 * np.pi * 6 * n / WLEN)
    x = np.zeros(FRAME_LEN)
    x[0:WLEN] = tone
    est = estimate_subsample(x, tone, 0)
    assert est.n_bins < 8
    assert est.low_confidence


def test_subsample_zero_template_returns_empty_estimate():
    est = estimate_subsample(np.zeros(FRAME_LEN), np.zeros(WLEN), 0)
    assert est.n_bins == 0 and est.tau == 0.0 and est.confidence == 0.0


def test_subsample_correction_never_hurts_fit(bank):
    """De-ramping the window by the estimated offset before the amplitude
    fit can only lower the residual."""
    rng = np.random.default_rng(9)
    t = bank.samples[33]
    for tau in (0.4, -0.25, 0.1):
        x = np.zeros(FRAME_LEN)
        x[3000:3000 + WLEN] = 1.3 * _delayed_window(t, tau)
        x += rng.normal(scale=0.01, size=FRAME_LEN)
        direct = fit_amplitude(x, bank.samples[33], 3000)
        est = estimate_subsample(x, bank.samples[33], 3000)
        w = x[3000:3000 + WLEN]
        wc = _delayed_window(w, -est.tau)
        corrected = fit_amplitude(wc, bank.samples[33], 0)
        assert corrected.residual_energy <= direct.residual_energy + 1e-12


def test_subsample_noise_robust_at_10db(bank):
    t = bank.samples[9]
    rng = np.random.default_rng(21)
    sig_p = float(t @ t) / WLEN
    sigma = np.sqrt(sig_p / 10.0)
    errs = []
    for trial in range(20):
        tau = float(rng.uniform(-0.45, 0.45))
        x = rng.normal(scale=sigma, size=FRAME_LEN)
        x[5000:5000 + WLEN] += _delayed_window(t, tau)
        errs.append(abs(estimate_subsample(x, bank.samples[9], 5000).tau - tau))
    assert np.median(errs) <= 0.05

"""Amplitude fitting and sub-sample timing."""
import numpy as np
import pytest

from foldloc.amplitude import estimate_subsample, fit_amplitude
from foldloc.detect import FRAME_LEN, TEMPLATE_LEN

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
    a = fit_amplitude(x, bank.samples[42], 1000)
    assert abs(a - 2.5) < 1e-12
    assert _objective(x, bank.samples[42], 1000, a) < 1e-24


def test_fit_orthogonal_window_gives_zero(bank):
    # zero-mean template is orthogonal to any constant pedestal
    x = np.full(FRAME_LEN, 3.7)
    assert abs(fit_amplitude(x, bank.samples[42], 500)) < 1e-9


def test_fit_explicitly_orthogonalized_noise(bank):
    t = bank.samples[7]
    rng = np.random.default_rng(0)
    w = rng.normal(size=WLEN)
    w -= (w @ t) / (t @ t) * t
    x = np.zeros(FRAME_LEN)
    x[100:100 + WLEN] = w
    assert abs(fit_amplitude(x, bank.samples[7], 100)) < 1e-12


def test_fit_clamps_to_bounds(bank):
    xneg = _embed([(42, 1000, -2.0)], bank)
    assert fit_amplitude(xneg, bank.samples[42], 1000) == 0.0


def test_fit_rejects_bad_inputs(bank):
    with pytest.raises(ValueError):
        fit_amplitude(np.zeros(FRAME_LEN), np.zeros(WLEN), 0)


def test_fit_is_constrained_optimum(bank):
    """100 random windows: no admissible perturbation of the fitted
    amplitude lowers the mean squared residual."""
    rng = np.random.default_rng(11)
    eps = 5e-3
    for _ in range(100):
        pci = int(rng.integers(504))
        d = int(rng.integers(FRAME_LEN))
        x = rng.normal(scale=0.3, size=FRAME_LEN)
        idx = np.arange(d, d + WLEN) % FRAME_LEN
        x[idx] += rng.uniform(-1.0, 6.0) * bank.samples[pci]
        t = bank.samples[pci]
        a = fit_amplitude(x, bank.samples[pci], d)
        assert a >= 0.0
        best = _objective(x, t, d, a)
        for trial in (a - eps, a + eps):
            trial = max(trial, 0.0)
            assert best <= _objective(x, t, d, trial) + 1e-15


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
        direct = _objective(x, t, 3000, fit_amplitude(x, t, 3000))
        est = estimate_subsample(x, bank.samples[33], 3000)
        w = x[3000:3000 + WLEN]
        wc = _delayed_window(w, -est.tau)
        corrected = _objective(wc, t, 0, fit_amplitude(wc, t, 0))
        assert corrected <= direct + 1e-12


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

import numpy as np
import pytest

from foldloc.detect import build_bank
from foldloc.frontend import FrontEndConfig, fold_baseband
from foldloc.lte import FrameConfig, Pci, frame_samples


@pytest.fixture(scope="session")
def fe():
    return FrontEndConfig()


@pytest.fixture(scope="session")
def bank(fe):
    return build_bank(fe)


@pytest.fixture(scope="session")
def cfg14():
    return FrameConfig.from_bandwidth(1.4)


def phat_reference(x, tpl, floor=0.05):
    """Phase-transform scores of one template at every circular lag of x.

    The cross spectrum is whitened to unit magnitude on the bins where the
    template holds more than floor of its peak magnitude (DC excluded) and
    zeroed elsewhere, then scaled so an in-band self match scores about 1;
    clipped to [-1, 1].
    """
    n = x.size
    spec_t = np.fft.rfft(tpl, n=n)
    mag_t = np.abs(spec_t)
    keep = mag_t > floor * mag_t.max()
    keep[0] = False
    r = np.fft.rfft(x) * np.conj(spec_t)
    w = np.where(keep, r / np.maximum(np.abs(r), 1e-30), 0.0)
    scores = np.fft.irfft(w, n=n) / (np.count_nonzero(keep) / (n / 2.0))
    return np.clip(scores, -1.0, 1.0)


def fold_frame(pci, data_mode="none", rng=None, bandwidth=1.4,
               fe_cfg=None):
    """One folded frame at the detector rate (no noise)."""
    cfg = FrameConfig.from_bandwidth(bandwidth)
    bb = frame_samples(cfg, Pci(pci), data_mode, rng)
    return fold_baseband(bb, cfg.sample_rate_hz, fe_cfg or FrontEndConfig())

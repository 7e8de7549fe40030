import numpy as np
import pytest

from foldloc.detect import build_bank
from foldloc.frontend import FrontEndConfig, fold_baseband
from foldloc.lte import FrameConfig, Pci, frame_samples


@pytest.fixture(scope="session")
def fe():
    return FrontEndConfig()


@pytest.fixture(scope="session")
def bank():
    return build_bank()


@pytest.fixture(scope="session")
def cfg14():
    return FrameConfig.from_bandwidth(1.4)


def fold_frame(pci, data_mode="none", rng=None, bandwidth=1.4):
    """One folded frame at the detector rate (no noise)."""
    cfg = FrameConfig.from_bandwidth(bandwidth)
    bb = frame_samples(cfg, Pci(pci), data_mode, rng)
    return fold_baseband(bb, cfg.sample_rate_hz)

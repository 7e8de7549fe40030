import pytest

from foldloc.detect import build_bank
from foldloc.frontend import FrontEndConfig, fold_baseband
from foldloc.lte import FrameConfig, Pci
from oracles import build_frame, ofdm_modulate


@pytest.fixture(scope="session")
def fe():
    return FrontEndConfig()


@pytest.fixture(scope="session")
def bank():
    return build_bank()


@pytest.fixture(scope="session")
def cfg14():
    return FrameConfig.from_bandwidth(1.4)


def fold_frame(pci):
    """The PCI's data-free 1.4 MHz frame, built by the per-symbol oracle and
    folded to the detector rate (no noise)."""
    cfg = FrameConfig.from_bandwidth(1.4)
    bb = ofdm_modulate(build_frame(cfg, Pci(pci)), cfg)
    return fold_baseband(bb, cfg.sample_rate_hz)

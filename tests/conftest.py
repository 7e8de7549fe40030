import os
from contextlib import contextmanager

import pytest

import foldloc
from foldloc import lte
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


@contextmanager
def cpu_share(share):
    """lte._CPU_SHARE set to share inside, with a helper pool of its own:
    lte._helpers() builds its pool once per process, so without the reset
    a share-3 run would reuse a pool of one helper built at share 2. The
    pool made inside is shut down on the way out. Yields the MonkeyPatch,
    whose further patches are undone with these."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lte, "_CPU_SHARE", share)
        mp.setattr(lte, "_helper_pool", None)
        try:
            yield mp
        finally:
            if lte._helper_pool is not None:
                lte._helper_pool[1].shutdown()


def child_env():
    """The environment of a child process that imports this process's
    foldloc, installed or not."""
    src = os.path.dirname(os.path.dirname(foldloc.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

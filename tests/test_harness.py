"""End-to-end harness: synthesis, detection, localization, CLI plumbing."""
import csv
import json
import os
import pickle
import signal
import struct
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.signal import fftconvolve

from foldloc import cli, detect, harness, lte, traceio
from foldloc.amplitude import estimate_subsample, fit_amplitude
from foldloc.detect import (FRAME_LEN, PSS_TEMPLATE_LEN, TEMPLATE_LEN,
                            TEMPLATE_START, THRESH_PSS, Detection,
                            _stage1_candidates, hierarchical_detect,
                            stack_frames, suppress_false_positives)
from foldloc.frontend import (DETECTOR_RATE_HZ, SENSITIVITY_FLOOR_DBM,
                              SPEED_OF_LIGHT, CellConfig, FrontEndConfig,
                              _fir_reach, arrival, design_lowpass,
                              path_amplitude)
from foldloc.harness import (cmd_localize, cmd_synth, compute_metrics,
                             detect_trace, run_eval, run_fix, run_urban_sim,
                             synth_fix_stack, synth_fix_trace)
from foldloc.locate import PositionEstimate
from foldloc.lte import FrameConfig, Pci
from foldloc.scenario import CellDatabase, Scenario, load_scenario, substream
import oracles
from conftest import child_env, cpu_share
from oracles import build_frame, correlate_bank, ofdm_modulate
from test_bench_targets import TARGETS

FS = 1.92e6
CFG = FrameConfig.from_bandwidth(1.4)


def _cell(pci, x, y, origin_samples=0.0, dbm=46.0):
    return CellConfig(pci=Pci(pci), carrier_hz=2.145e9, frame_cfg=CFG,
                      position=(x, y), tx_power_dbm=dbm,
                      frame_time_origin_s=origin_samples / FS)


def _single_cell_scenario(n_frames=2):
    # receiver exactly 3 samples of travel away from the tower
    return Scenario(cells=[_cell(101, 0.0, 0.0)],
                    front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 468.75, 0.0)],
                    rng_seed=5, n_frames_per_fix=n_frames)


def _three_cell_ratio_scenario(n_frames=8):
    """Cells offset in frame-time so their sync windows never overlap;
    tx power compensates path loss to keep folded amplitudes comparable."""
    cells = [_cell(101, 800.0, 0.0, 0, 46.0),
             _cell(202, 0.0, 1000.0, 1500, 46.0 + 20 * np.log10(1000 / 800)),
             _cell(303, -884.0, -884.0, 3000, 46.0 + 20 * np.log10(1250 / 800))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 0.0, 0.0), (1.0, 30.0, -20.0)],
                    rng_seed=5, n_frames_per_fix=n_frames, solver="ratio")


# -------------------------------------------------------------- synthesis


def test_synth_deterministic_and_sized():
    sc = _single_cell_scenario()
    a = synth_fix_trace(sc, 0)
    b = synth_fix_trace(sc, 0)
    assert a.shape == (2 * FRAME_LEN,)
    assert np.array_equal(a, b)


def test_synth_differs_across_fixes_and_seeds():
    sc = _three_cell_ratio_scenario(n_frames=2)
    a = synth_fix_trace(sc, 0)
    b = synth_fix_trace(sc, 1)
    assert not np.array_equal(a, b)
    c = synth_fix_trace(replace(sc, rng_seed=6), 0)
    assert not np.array_equal(a, c)


def test_noise_added_once_and_not_part_of_front_end_identity():
    quiet = _single_cell_scenario()
    noisy = replace(quiet, front_end=FrontEndConfig(noise_sigma=1e-9))
    assert noisy.front_end == quiet.front_end
    assert hash(noisy.front_end) == hash(quiet.front_end)
    noise = substream(quiet.rng_seed, "noise", 0).normal(0.0, 1e-9, 2 * FRAME_LEN)
    assert np.array_equal(synth_fix_trace(noisy, 0),
                          synth_fix_trace(quiet, 0) + noise)


def test_every_front_end_setting_reaches_the_trace():
    """No front-end setting is accepted and then ignored: changing any
    one of them changes the trace of a one-frame fix of a 1.4 MHz and a
    5 MHz cell."""
    rx = (900.0, 100.0)
    cells = [_cell(11, 0.0, 0.0),
             CellConfig(pci=Pci(22), carrier_hz=1.8e9,
                        frame_cfg=FrameConfig.from_bandwidth(5.0),
                        position=(3000.0, 0.0), tx_power_dbm=46.0)]
    sc = Scenario(cells=cells, front_end=FrontEndConfig(), n_frames_per_fix=1,
                  trajectory=[(0.0, *rx)])
    assert min(arrival(c, rx)[2] for c in cells) >= SENSITIVITY_FLOOR_DBM
    # a non-default valid value of every field
    changes = {"noise_sigma": 1e-9}
    base = synth_fix_trace(sc, 0)
    for f in fields(FrontEndConfig):
        assert f.name in changes, f"no test value for {f.name}"
        fe = replace(FrontEndConfig(), **{f.name: changes[f.name]})
        assert getattr(fe, f.name) != f.default, f.name
        changed = replace(sc, front_end=fe)
        assert not np.array_equal(synth_fix_trace(changed, 0), base), f.name


def test_cell_below_the_sensitivity_floor_is_neither_synthesized_nor_truth():
    """Geometry alone decides which cells are heard: a cell received below
    SENSITIVITY_FLOOR_DBM adds nothing to the trace and is not a true PCI,
    and the same cell moved within range is both."""
    rx = (900.0, 100.0)
    near = _cell(11, 0.0, 0.0)
    far = _cell(22, 20e3, 0.0)
    close = replace(far, position=(3000.0, 0.0))
    assert arrival(near, rx)[2] >= SENSITIVITY_FLOOR_DBM
    assert arrival(far, rx)[2] < SENSITIVITY_FLOOR_DBM
    assert arrival(close, rx)[2] >= SENSITIVITY_FLOOR_DBM
    alone, with_far, with_close = (
        Scenario(cells=cells, front_end=FrontEndConfig(), n_frames_per_fix=1,
                 trajectory=[(0.0, *rx)])
        for cells in ([near], [near, far], [near, close]))
    assert np.array_equal(synth_fix_trace(with_far, 0),
                          synth_fix_trace(alone, 0))
    assert run_fix(with_far, 0)["true_pcis"] == [11]
    assert not np.array_equal(synth_fix_trace(with_close, 0),
                              synth_fix_trace(alone, 0))
    assert run_fix(with_close, 0)["true_pcis"] == [11, 22]


def _seed_synth_fix_trace(sc, fix_idx):
    """Reference trace: the per-symbol oracle's frames, an fftfreq phase
    ramp and a full-rate 'same'-mode FIR decimated afterwards."""
    _, x, y = sc.trajectory[fix_idx]
    rx = np.array([x, y])
    total = np.zeros(sc.n_frames_per_fix * FRAME_LEN)
    for ci, cell in enumerate(sc.cells):
        if arrival(cell, rx)[2] < SENSITIVITY_FLOOR_DBM:
            continue
        cfg = cell.frame_cfg
        rng = substream(sc.rng_seed, "payload", fix_idx, ci)
        bb = ofdm_modulate(np.hstack([build_frame(cfg, cell.pci, rng)
                                      for _ in range(sc.n_frames_per_fix)]), cfg)
        d = float(np.hypot(*(np.asarray(cell.position) - rx)))
        delay_s = d / SPEED_OF_LIGHT + cell.frame_time_origin_s
        freqs = np.fft.fftfreq(bb.size, 1.0 / cfg.sample_rate_hz)
        bb = np.fft.ifft(np.fft.fft(bb) * np.exp(-2j * np.pi * freqs * delay_s))
        a_rx = path_amplitude(d, cell.carrier_hz) * \
            10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0)
        sq = 0.5 * np.abs(a_rx * bb) ** 2
        dec = int(round(cfg.sample_rate_hz / DETECTOR_RATE_HZ))
        if dec > 1:
            taps = design_lowpass(cfg.sample_rate_hz)
            sq = fftconvolve(sq, taps, mode="same")[::dec]
        total += sq
    return total


S5_TOWERS = ((0.0, 0.0), (6000.0, 0.0), (0.0, 6000.0), (6000.0, 6000.0),
             (3000.0, -3000.0))


def _s5_scenario(origins):
    cells = [CellConfig(pci=Pci(p), carrier_hz=700e6 + 20e6 * i, frame_cfg=CFG,
                        position=pos, tx_power_dbm=46.0,
                        frame_time_origin_s=o / FS)
             for i, (p, pos, o) in enumerate(zip((10, 84, 150, 222, 301),
                                                 S5_TOWERS, origins))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 2000.0, 2500.0), (1.0, 2130.0, 2290.0)],
                    rng_seed=3, n_frames_per_fix=2)


def _wideband_scenario(bandwidths=(20.0, 10.0, 5.0), n_frames=2):
    cells = [CellConfig(pci=Pci(p), carrier_hz=f,
                        frame_cfg=FrameConfig.from_bandwidth(bw), position=pos,
                        tx_power_dbm=46.0, frame_time_origin_s=o / FS)
             for p, bw, f, pos, o in zip(
                 (101, 202, 303), bandwidths, (2.115e9, 2.145e9, 2.175e9),
                 ((800.0, 0.0), (0.0, 1000.0), (-884.0, -884.0)),
                 (0, 1500, 3000))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 10.0, -20.0)], rng_seed=3,
                    n_frames_per_fix=n_frames, solver="ratio")


def _wrapping_wideband_scenario():
    """The wideband scenario with the 20 MHz cell's frame origin 8 samples
    short of two frames: with its 5 samples of travel, its delay is about
    3 samples short of the trace, so its frame starts at the last samples
    of the trace and wraps to the first."""
    sc = _wideband_scenario()
    first = replace(sc.cells[0], frame_time_origin_s=0.02 - 8 / FS)
    return replace(sc, cells=[first, *sc.cells[1:]])


# the delay views a cell's n frames as (n * fft_size / 128, FRAME_LEN): one
# row per frame at 1.4 MHz, and 12 per frame at 15 MHz (FFT size 1536)
_SYNTH_SCENARIOS = [
    pytest.param(lambda: _s5_scenario((0, 1500, 3000, 4500, 6000)),
                 id="s5_offset"),
    pytest.param(lambda: _s5_scenario((0,) * 5), id="s5_synchronized"),
    pytest.param(_wideband_scenario, id="wideband_20_10_5"),
    pytest.param(lambda: replace(_s5_scenario((0, 1500, 3000, 4500, 6000)),
                                 n_frames_per_fix=1), id="s5_offset_1_frame"),
    pytest.param(lambda: _wideband_scenario(n_frames=1), id="wideband_1_frame"),
    pytest.param(lambda: _wideband_scenario(n_frames=3), id="wideband_3_frames"),
    pytest.param(lambda: _wideband_scenario((15.0, 3.0, 1.4)),
                 id="wideband_15_3_1.4"),
    pytest.param(lambda: replace(_wideband_scenario(),
                                 front_end=FrontEndConfig(noise_sigma=1e-9)),
                 id="wideband_noisy"),
    pytest.param(_wrapping_wideband_scenario, id="wideband_wrapping"),
]


def _noisy_reference(sc, fix_idx):
    """The frame-by-frame reference trace plus the fix's noise draw."""
    trace = _seed_synth_fix_trace(sc, fix_idx)
    if sc.front_end.noise_sigma > 0:
        trace += substream(sc.rng_seed, "noise", fix_idx).normal(
            0.0, sc.front_end.noise_sigma, trace.size)
    return trace


@pytest.mark.parametrize("make", _SYNTH_SCENARIOS)
def test_synth_matches_frame_by_frame_reference(make):
    """The trace equals the frame-by-frame reference trace, plus the
    fix's noise draw, also where a cell's delay wraps the trace end."""
    sc = make()
    for i in range(len(sc.trajectory)):
        want = _noisy_reference(sc, i)
        got = synth_fix_trace(sc, i)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("make", _SYNTH_SCENARIOS)
def test_synth_stack_matches_stacked_reference(make):
    """The stacked frame equals the frame-by-frame reference trace, plus
    the fix's noise draw, stacked over the fix's frames."""
    sc = make()
    n = sc.n_frames_per_fix
    for i in range(len(sc.trajectory)):
        want = stack_frames(_noisy_reference(sc, i), n)
        got = synth_fix_stack(sc, i)
        assert got.shape == (FRAME_LEN,)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


_THREAD_COUNTS_SCRIPT = """
import pickle
import sys
import numpy as np
from foldloc import lte
from foldloc.harness import synth_fix_stack, synth_fix_trace

sys.setswitchinterval(1e-5)   # more thread switches inside the jobs
for sc in pickle.load(sys.stdin.buffer):
    for synth in (synth_fix_trace, synth_fix_stack):
        runs = []
        for share in (1, 2, 3):   # 3: more threads than two CPUs
            # and a pool of share - 1 helpers, not the one an earlier
            # share built
            lte._CPU_SHARE, lte._helper_pool = share, None
            runs.append(synth(sc, 0))
        print(all(np.array_equal(r, runs[0]) for r in runs[1:]))
"""


def test_synth_does_not_depend_on_the_cpu_share():
    """The trace and the stacked frame are the same bits at every CPU
    share, whose threads work one queue: a fix's cells, and the pieces of
    a large cell's passes. Five small cells whose delays overlap, wideband
    cells mixed with a small one, the benchmark's wideband shape (8
    frames), whose 20 and 10 MHz cells split their passes, and a lone
    20 MHz cell of 8 frames, whose passes are the only work to share. It
    runs in a child process, so a deadlock fails the test instead of
    hanging."""
    scenarios = [_s5_scenario((0, 1500, 3000, 4500, 6000)),
                 _wideband_scenario(),
                 _wideband_scenario((20.0, 15.0, 1.4)),
                 _wideband_scenario(n_frames=8),
                 _wideband_scenario((20.0,), n_frames=8)]
    proc = subprocess.Popen([sys.executable, "-c", _THREAD_COUNTS_SCRIPT],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(pickle.dumps(scenarios), timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a fix at some CPU share did not finish")
    assert proc.returncode == 0, err.decode()
    assert out.decode().split() == ["True"] * 2 * len(scenarios)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("bw", sorted(lte.BANDWIDTH_TABLE))
def test_split_delay_equals_the_whole_reference(bw, n, monkeypatch):
    """_delay_stacked equals the reference that runs each pass whole
    (tests/oracles.py), bit for bit, at one output frame per frame and at
    n, as an _overlap job at CPU shares 1, 2 and 3: with its passes split
    where the cell is large enough, and with every cell's passes split."""
    cfg = FrameConfig.from_bandwidth(bw)
    bb = lte._frames(cfg, Pci(77), np.random.default_rng(11), n)
    args = 1234.567, 0.37, _fir_reach(cfg.sample_rate_hz)
    for per in sorted({1, n}):
        want = oracles.delay_stacked(bb.copy(), args[0], args[1], per,
                                     args[2])
        for split_min in (harness._SPLIT_MIN, 1):
            monkeypatch.setattr(harness, "_SPLIT_MIN", split_min)
            for share in (1, 2, 3):
                got = []
                with cpu_share(share):
                    lte._overlap(harness._delay_stacked,
                                 [(bb.copy(), args[0], args[1], per,
                                   args[2])],
                                 lambda k, out: got.append(out))
                assert np.array_equal(got[0], want), (per, split_min, share)


@pytest.mark.parametrize("stalled", [False, True])
def test_a_split_pass_keeps_nothing_alive(stalled):
    """Once _delay_stacked returns, nothing holds the cell's frames, while
    the _overlap that runs it still runs: not the pieces a helper thread
    worked, and not the pass's tokens that a helper that never starts
    leaves in the queue, which hold no closure over the array."""
    cfg = FrameConfig.from_bandwidth(20.0)
    release = threading.Event()
    pool = ThreadPoolExecutor(1)
    if stalled:
        pool.submit(release.wait)       # the pool's one thread stalls
    seen = []

    def work(k):
        bb = lte._frames(cfg, Pci(5), np.random.default_rng(k), 4)
        assert bb.size >= harness._SPLIT_MIN
        # the array that owns the memory: a view of bb holds it, not bb
        frames = weakref.ref(bb if bb.base is None else bb.base)
        harness._delay_stacked(bb, 321.5, 1.0, 4, 144)
        del bb
        seen.append((frames() is None, len(lte._local.queue._items)))

    try:
        with cpu_share(2) as mp:
            mp.setattr(lte, "_helpers", lambda: pool)
            lte._overlap(work, [(0,), (1,)], lambda k, out: None)
    finally:
        release.set()
        pool.shutdown()
    assert [dead for dead, _ in seen] == [True, True]
    if stalled:     # every pass left its token in the queue
        assert all(tokens for _, tokens in seen)


_SIGNAL_LOADED_SCRIPT = """
import sys
from foldloc.frontend import CellConfig, FrontEndConfig
from foldloc.harness import run_fix
from foldloc.lte import FrameConfig, Pci
from foldloc.scenario import Scenario


def scenario(bandwidths):
    cells = [CellConfig(pci=Pci(p), carrier_hz=700e6 + 20e6 * i,
                        frame_cfg=FrameConfig.from_bandwidth(bw),
                        position=pos, tx_power_dbm=46.0,
                        frame_time_origin_s=1500 * i / 1.92e6)
             for i, (p, bw, pos) in enumerate(zip(
                 (10, 84, 150), bandwidths,
                 ((0.0, 0.0), (6000.0, 0.0), (0.0, 6000.0))))]
    return Scenario(cells=cells, front_end=FrontEndConfig(),
                    trajectory=[(0.0, 2000.0, 2500.0)], rng_seed=3,
                    n_frames_per_fix=2)


run_fix(scenario((1.4, 1.4, 1.4)), 0)
print("scipy.signal" in sys.modules)
run_fix(scenario((20.0, 10.0, 5.0)), 0)
print("scipy.signal" in sys.modules)
"""


def test_fix_of_detector_rate_cells_does_not_load_scipy_signal():
    """No fix loads scipy.signal, and the memory it takes: not a fix of
    1.4 MHz cells, at decimation factor 1, and not a fix of wideband
    cells, whose FIR is foldloc's own."""
    out = subprocess.run([sys.executable, "-c", _SIGNAL_LOADED_SCRIPT],
                         capture_output=True, text=True, env=child_env(),
                         timeout=120, check=True).stdout
    assert out.split() == ["False", "False"]


_SCIPY_LOADED_SCRIPT = """
import json
import sys


def loaded():
    print(json.dumps(sorted(k for k in sys.modules if k.startswith("scipy"))))


import foldloc.cli
loaded()
from foldloc.detect import Detection
from foldloc.frontend import CellConfig, FrontEndConfig
from foldloc.harness import cmd_localize, run_fix
from foldloc.lte import FrameConfig, Pci
from foldloc.scenario import Scenario, scenario_cell_db


def scenario(bandwidths):
    cells = [CellConfig(pci=Pci(p), carrier_hz=700e6 + 20e6 * i,
                        frame_cfg=FrameConfig.from_bandwidth(bw),
                        position=pos, tx_power_dbm=46.0,
                        frame_time_origin_s=1500 * i / 1.92e6)
             for i, (p, bw, pos) in enumerate(zip(
                 (10, 84, 150), bandwidths,
                 ((0.0, 0.0), (6000.0, 0.0), (0.0, 6000.0))))]
    return Scenario(cells=cells, front_end=FrontEndConfig(),
                    trajectory=[(0.0, 2000.0, 2500.0)], rng_seed=3,
                    n_frames_per_fix=2)


s5 = scenario((1.4, 1.4, 1.4))
run_fix(s5, 0)
loaded()
run_fix(scenario((20.0, 10.0, 5.0)), 0)
loaded()
dets = [Detection(c.pci, int(d), 0.9, 1.0, d - int(d))
        for c in s5.cells
        for d in [((c.position[0] - 2000.0) ** 2 +
                   (c.position[1] - 2500.0) ** 2) ** 0.5 / 156.25]]
rows = cmd_localize([(0.0, dets)], scenario_cell_db(s5), "tdoa")
assert rows[0][1] != "", rows
loaded()
"""


def test_no_scipy_module_is_loaded_at_run_time():
    """foldloc runs on numpy alone: importing the CLI, a fix of 1.4 MHz
    cells, a fix of 20/10/5 MHz cells (the FIR and its Kaiser design) and
    a cmd_localize solve load no scipy module, nor the memory one takes."""
    out = subprocess.run([sys.executable, "-c", _SCIPY_LOADED_SCRIPT],
                         capture_output=True, text=True, env=child_env(),
                         timeout=120, check=True).stdout
    assert [json.loads(line) for line in out.split("\n") if line] == [[]] * 4


def test_traced_layers_run_on_the_calling_thread(monkeypatch):
    """Helper threads never enter a function the benchmark's tracer wraps:
    every call of one, through any foldloc binding of it, runs on the
    thread that synthesizes the fix, so the spans of a tracer with one
    stack nest. A wideband fix and an S5 fix both synthesize their cells,
    frame build and delay, on the helper thread while the caller filters
    and folds. The trace and run_fix's stacked frame each filter every
    cell once, build no frame on the caller and fold none at the full
    rate."""
    calls = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return original(*args, **kwargs)
        return wrapper

    for target in TARGETS:
        mod_name, attr = target.split(".")
        original = getattr(sys.modules[f"foldloc.{mod_name}"], attr)
        wrapper = recording(target, original)
        for name, mod in list(sys.modules.items()):
            if name == "foldloc" or name.startswith("foldloc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
    helpers = []
    monkeypatch.setattr(lte, "_helpers",
                        lambda real=lte._helpers: helpers.append(1) or real())
    for sc, n_cells in ((_wideband_scenario(), 3),
                        (_s5_scenario((0, 1500, 3000, 4500, 6000)), 5)):
        harness._bank_for(sc.front_end)     # built before the calls count
        for run in (synth_fix_trace, run_fix):
            calls.clear()
            helpers.clear()
            with cpu_share(2):
                run(sc, 0)
            assert helpers, f"no work of {run.__name__} ran on a helper thread"
            synthesis = [n for n, _ in calls
                         if n.split(".")[0] in ("lte", "frontend")]
            assert synthesis == ["frontend.lowpass_decimate"] * n_cells
            if run is synth_fix_trace:
                assert len(calls) == n_cells
            assert {t for _, t in calls} == {threading.get_ident()}


_FORKED_POOL_SCRIPT = """
import multiprocessing
from foldloc import harness, lte
from foldloc.lte import FrameConfig, Pci
from foldloc.frontend import CellConfig, FrontEndConfig
from foldloc.scenario import Scenario

cells = [CellConfig(pci=Pci(p), carrier_hz=f,
                    frame_cfg=FrameConfig.from_bandwidth(bw),
                    position=pos, tx_power_dbm=46.0)
         for p, bw, f, pos in ((101, 20.0, 2.115e9, (800.0, 0.0)),
                               (202, 5.0, 2.145e9, (0.0, 1000.0)),
                               (303, 5.0, 2.175e9, (-884.0, -884.0)))]
sc = Scenario(cells=cells, front_end=FrontEndConfig(),
              trajectory=[(0.0, 10.0, -20.0)], rng_seed=3, n_frames_per_fix=2)
lte._CPU_SHARE = 2
parent = harness.synth_fix_trace(sc, 0)   # the parent's helper pool exists
assert lte._helper_pool is not None


def child(conn):
    conn.send_bytes(harness.synth_fix_trace(sc, 0).tobytes())


recv, send = multiprocessing.Pipe(duplex=False)
proc = multiprocessing.get_context("fork").Process(target=child, args=(send,))
proc.start()
send.close()   # a child that dies makes recv_bytes raise, not wait
got = recv.recv_bytes()
proc.join()
print(proc.exitcode == 0 and got == parent.tobytes())
"""


def test_a_fix_overlaps_its_cells_and_nothing_else(monkeypatch):
    """A fix's threads work one queue: a fix's cells, and the pieces of a
    large cell's passes. run_fix calls _overlap once, with _synth_cell as
    the work, on a wideband fix shaped like the benchmark's (20, 10 and
    5 MHz, 8 frames) and on an S5 fix. Only the delay's passes split, and
    only on cells of at least _SPLIT_MIN samples: the wideband fix's 20
    and 10 MHz cells split each of their five passes into _PIECES pieces,
    and no pass of its 5 MHz cell or of an S5 cell splits."""
    works, counts = [], []

    def recording(work, *args):
        works.append(work)
        return real(work, *args)

    def split(piece, count):
        counts.append(count)
        return real_split(piece, count)

    real, real_split = lte._overlap, lte._split
    monkeypatch.setattr(lte, "_overlap", recording)
    monkeypatch.setattr(harness, "_overlap", recording)
    monkeypatch.setattr(harness, "_split", split)
    wideband, s5 = (_wideband_scenario(n_frames=8),
                    _s5_scenario((0, 1500, 3000, 4500, 6000)))
    for sc, pieces in ((wideband, [harness._PIECES] * 10), (s5, [])):
        harness._bank_for(sc.front_end)
        works.clear()
        counts.clear()
        with cpu_share(2):
            run_fix(sc, 0)
        assert works == [harness._synth_cell]
        assert [c for c in counts if c > 1] == pieces


def test_worker_processes_do_not_inherit_the_helper_pool():
    """A forked child makes its own helper threads, and its trace equals
    the parent's bit for bit: submitting to the pool it inherits from its
    parent would wait forever."""
    proc = subprocess.Popen([sys.executable, "-c", _FORKED_POOL_SCRIPT],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a forked child's wideband fix did not finish after the "
                    "parent used its helper pool")
    assert proc.returncode == 0, err
    assert out.strip() == "True"


# ------------------------------------------------------------- detection


_THREAD_TICKS = """
import json, os, pickle, sys, threading, time


def ticks():
    # utime + stime of every thread of this process, in clock ticks
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                stat = f.read()
        except FileNotFoundError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        out[tid] = int(fields[11]) + int(fields[12])
    return out


def idle_gains(before):
    # each thread's ticks since before, but the caller's, printed as JSON
    me = str(threading.get_native_id())
    print(json.dumps({tid: t - before.get(tid, 0)
                      for tid, t in ticks().items() if tid != me}))
"""

_QUIET_DETECTION_SCRIPT = _THREAD_TICKS + """
import numpy as np
from foldloc.detect import build_bank
from foldloc.harness import detect_trace

trace, bank = np.load(sys.argv[1]), build_bank()
detect_trace(trace, bank)
time.sleep(0.5)
before = ticks()
for _ in range(20):
    detect_trace(trace, bank)
time.sleep(0.3)
idle_gains(before)
"""

_QUIET_SYNTHESIS_SCRIPT = _THREAD_TICKS + """
from foldloc.harness import synth_fix_trace

sc = pickle.load(sys.stdin.buffer)
for _ in range(4):
    synth_fix_trace(sc, 0)
before = ticks()
time.sleep(0.3)
idle_gains(before)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc to read thread CPU times from")
@pytest.mark.skipif(lte._numpy_openblas() is None,
                    reason="numpy has no OpenBLAS")
def test_detection_wakes_no_other_thread(tmp_path):
    """Twenty detections on an S5 trace leave every thread but the caller
    idle: no BLAS worker spins on after a product, holding a CPU."""
    path = tmp_path / "trace.npy"
    np.save(path, synth_fix_trace(_s5_scenario((0,) * 5), 0))
    out = subprocess.run([sys.executable, "-c", _QUIET_DETECTION_SCRIPT,
                          str(path)], capture_output=True, text=True,
                         env=child_env(), timeout=60, check=True).stdout
    gains = json.loads(out)
    assert all(g <= 1 for g in gains.values()), gains


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc to read thread CPU times from")
@pytest.mark.skipif(lte._numpy_openblas() is None,
                    reason="numpy has no OpenBLAS")
def test_wideband_synthesis_wakes_no_blas_thread():
    """Every thread is idle in the 0.3 s after four wideband fixes, whose
    FIR runs a matrix product per block on the caller's share of the
    CPUs: no BLAS worker spins on after a product, holding a CPU."""
    out = subprocess.run([sys.executable, "-c", _QUIET_SYNTHESIS_SCRIPT],
                         input=pickle.dumps(_wideband_scenario()),
                         capture_output=True, env=child_env(), timeout=120,
                         check=True).stdout
    gains = json.loads(out)
    assert all(g <= 1 for g in gains.values()), gains


def _seed_stage1(stacked, bank, thresh_pss, group_gap=8):
    """Reference stage 1: the exhaustive scan of each PSS shape; lags above
    thresh_pss at most group_gap apart form a run, and each run keeps its
    best lag."""
    cands = []
    for scores in correlate_bank(stacked, bank.pss_unit):
        above = np.flatnonzero(scores > thresh_pss)
        if above.size == 0:
            continue
        run = [above[0]]
        for i in above[1:]:
            if i - run[-1] > group_gap:
                cands.append(run[np.argmax(scores[run])])
                run = [i]
            else:
                run.append(i)
        cands.append(run[np.argmax(scores[run])])
    return sorted(set(cands))


def _seed_stage2(stacked, bank, thresh_pss, thresh_sss, candidate_window=3):
    """Reference stage 2: one matrix-vector product per candidate lag; a
    PCI keeps the first lag with its best score above thresh_sss."""
    n = stacked.size
    dets = {}
    for pk in _seed_stage1(stacked, bank, thresh_pss):
        base = pk - (TEMPLATE_LEN - PSS_TEMPLATE_LEN)
        for lag in range(base - candidate_window, base + candidate_window + 1):
            w = stacked.take(range(lag, lag + TEMPLATE_LEN), mode="wrap")
            w0 = w - w.mean()
            nrm = np.linalg.norm(w0)
            if nrm < 1e-30:
                continue
            scores = bank.samples @ (w0 / nrm)
            for p in np.flatnonzero(scores > thresh_sss):
                if p not in dets or scores[p] > dets[p].score:
                    dets[p] = Detection(Pci(int(p)), lag % n, float(scores[p]))
    return sorted(dets.values(),
                  key=lambda d: (-d.score, d.delay_samples, d.pci.value))


def _seed_enrich(stacked, bank, dets):
    """Reference enrichment: received power (the fitted scale of the unit
    template over its norm) and sub-sample offset of every detection."""
    for d in dets:
        tpl = bank.samples[d.pci.value]
        d.amplitude = fit_amplitude(stacked, tpl, d.delay_samples) \
            / bank.norms[d.pci.value]
        d.subsample_offset = estimate_subsample(stacked, tpl, d.delay_samples).tau
    return dets


def _assert_same_detections(got, want):
    assert [(d.pci, d.delay_samples) for d in got] == \
        [(d.pci, d.delay_samples) for d in want]
    for g, w in zip(got, want):
        assert abs(g.score - w.score) <= 1e-12
        assert abs(g.amplitude - w.amplitude) <= 1e-12 * max(abs(w.amplitude), 1e-300)
        assert abs(g.subsample_offset - w.subsample_offset) <= 1e-9


@pytest.mark.parametrize("origins", [(0, 1500, 3000, 4500, 6000), (0,) * 5],
                         ids=["s5_offset", "s5_synchronized"])
def test_stage1_matches_per_shape_reference(bank, origins):
    sc = _s5_scenario(origins)
    for i in range(len(sc.trajectory)):
        stacked = stack_frames(synth_fix_trace(sc, i), sc.n_frames_per_fix)
        for thresh_pss in (0.1, 0.3):
            want = _seed_stage1(stacked, bank, thresh_pss)
            assert want
            assert _stage1_candidates(stacked, bank, thresh_pss) == want


@pytest.mark.parametrize("origins", [(0, 1500, 3000, 4500, 6000), (0,) * 5],
                         ids=["s5_offset", "s5_synchronized"])
def test_stage1_scores_equal_correlate_bank(bank, origins, monkeypatch):
    """The reference stage 1 scores from the bank's PSS spectra exactly
    what correlate_bank scores from the PSS windows themselves, and stage
    1, which scores only the lags that can clear the threshold, keeps the
    reference's candidates."""
    seen = []

    def spy(*args):
        seen.append(real_ncc(*args))
        return seen[-1]

    real_ncc = oracles.ncc
    monkeypatch.setattr(oracles, "ncc", spy)
    sc = _s5_scenario(origins)
    for i in range(len(sc.trajectory)):
        stacked = stack_frames(synth_fix_trace(sc, i), sc.n_frames_per_fix)
        seen.clear()
        want = oracles.stage1_candidates(stacked, bank, THRESH_PSS)
        [scores] = seen
        assert np.array_equal(scores, correlate_bank(stacked, bank.pss_unit))
        assert _stage1_candidates(stacked, bank, THRESH_PSS) == want


@pytest.mark.parametrize("origins", [(0, 1500, 3000, 4500, 6000), (0,) * 5],
                         ids=["s5_offset", "s5_synchronized"])
def test_stage2_matches_per_lag_reference(bank, origins):
    sc = _s5_scenario(origins)
    for i in range(len(sc.trajectory)):
        trace = synth_fix_trace(sc, i)
        stacked = stack_frames(trace, sc.n_frames_per_fix)
        for thresh_pss, thresh_sss in ((0.3, 0.5), (0.1, 0.3)):
            want = _seed_stage2(stacked, bank, thresh_pss, thresh_sss)
            assert want
            _assert_same_detections(
                hierarchical_detect(stacked, bank, thresh_pss, thresh_sss), want)
        want = suppress_false_positives(
            _seed_enrich(stacked, bank, _seed_stage2(stacked, bank, 0.3, 0.5)))
        _assert_same_detections(detect_trace(trace, bank, n_stack=2), want)


@pytest.mark.parametrize("sc", [
    _s5_scenario((0, 1500, 3000, 4500, 6000)), _s5_scenario((0,) * 5),
    replace(_wideband_scenario(), trajectory=[(0.0, 10.0, -20.0),
                                              (1.0, 30.0, -20.0)])],
    ids=["s5_offset", "s5_synchronized", "wideband"])
def test_detection_matches_the_full_product_reference(bank, sc):
    """On synthesized stacks, stage 1 keeps the candidates of the stage 1
    that normalized every lag, and the split stage-2 product finds the
    detections of multiplying all 276 columns of the bank."""
    for i in range(2):
        stacked = synth_fix_stack(sc, i)
        for thresh_pss, thresh_sss in ((0.3, 0.5), (0.05, 0.3)):
            assert _stage1_candidates(stacked, bank, thresh_pss) == \
                oracles.stage1_candidates(stacked, bank, thresh_pss)
            _assert_same_detections(
                hierarchical_detect(stacked, bank, thresh_pss, thresh_sss),
                oracles.hierarchical_detect(stacked, bank, thresh_pss,
                                            thresh_sss))


def test_detect_single_cell_at_geometric_delay(bank):
    sc = _single_cell_scenario()
    trace = synth_fix_trace(sc, 0)
    dets = detect_trace(trace, bank, n_stack=2)
    assert len(dets) == 1
    d = dets[0]
    assert d.pci.value == 101
    assert d.delay_samples == TEMPLATE_START + 3
    assert abs(d.subsample_offset) < 0.3
    # the amplitude is the received amplitude squared, whatever the PCI
    cell = sc.cells[0]
    a_rx = path_amplitude(468.75, cell.carrier_hz) * \
        10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0)
    assert d.amplitude == pytest.approx(a_rx ** 2, rel=0.01)
    with pytest.raises(ValueError, match="mode"):
        detect_trace(trace, bank, n_stack=2, mode="phat")


def test_detect_three_origin_separated_cells(bank):
    sc = _three_cell_ratio_scenario()
    dets = detect_trace(synth_fix_trace(sc, 0), bank, n_stack=8)
    got = {d.pci.value: d.delay_samples for d in dets}
    assert set(got) == {101, 202, 303}
    assert abs(got[101] - 689) <= 1
    assert abs(got[202] - 2190) <= 1
    assert abs(got[303] - 3692) <= 1


# ---------------------------------------------------------------- run_fix


def test_run_fix_record_roundtrips_through_json():
    sc = _single_cell_scenario()
    r = run_fix(sc, 0)
    back = json.loads(json.dumps(r))
    assert back["true_pcis"] == [101]
    assert back["detections"][0][0] == 101
    assert back["estimate"] is None   # one tower cannot localize
    assert back["n_towers"] == 1


@pytest.mark.parametrize("sc", [
    _s5_scenario((0, 1500, 3000, 4500, 6000)), _s5_scenario((0,) * 5),
    # at the default thresholds no wideband fix detects anything
    replace(_wideband_scenario(), thresh_pss=0.15, thresh_sss=0.25),
], ids=["s5_offset", "s5_synchronized", "wideband"])
def test_run_fix_detects_as_the_full_trace_does(bank, sc, monkeypatch):
    """run_fix's detections, from its stacked frame, are those of the full
    trace: the same PCIs at the same delays, in the same order, with
    offsets, amplitudes and scores equal to within 1e-9."""
    seen = []

    def detecting(*args, **kwargs):
        seen.append(detect_trace(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(harness, "detect_trace", detecting)
    for i in range(len(sc.trajectory)):
        want = detect_trace(synth_fix_trace(sc, i), bank, sc.thresh_pss,
                            sc.thresh_sss, sc.n_frames_per_fix)
        seen.clear()
        record = run_fix(sc, i)
        got, = seen
        assert want
        assert [(d.pci, d.delay_samples) for d in got] == \
            [(d.pci, d.delay_samples) for d in want]
        assert [d[:2] for d in record["detections"]] == \
            [[d.pci.value, d.delay_samples] for d in want]
        for g, w in zip(got, want):
            assert abs(g.subsample_offset - w.subsample_offset) <= 1e-9
            assert abs(g.amplitude - w.amplitude) <= 1e-9 * w.amplitude
            assert abs(g.score - w.score) <= 1e-9


def test_run_fix_records_amplitude_to_nine_significant_digits(bank):
    # received powers are ~1e-8 here, so rounding to decimal places would
    # keep only a few digits
    sc = _single_cell_scenario()
    (det,) = detect_trace(synth_fix_trace(sc, 0), bank, sc.thresh_pss,
                          sc.thresh_sss, sc.n_frames_per_fix)
    got = run_fix(sc, 0)["detections"][0][3]
    assert got == float(f"{det.amplitude:.9g}")
    assert got == pytest.approx(det.amplitude, rel=5e-9, abs=0.0)


def test_run_fix_keeps_true_pci_over_its_half_frame_alias():
    """Fix 5 of the seed-1 S5 offset scenario: PCI 10 at delay ~703 and
    its half-frame alias PCI 274 at ~10304 share a delay cluster; the
    cluster keeps the larger received power, which is PCI 10's."""
    point = (5.0, 1840.755179550707, 2415.420520220291)
    sc = replace(_s5_scenario((0, 1500, 3000, 4500, 6000)), rng_seed=1,
                 n_frames_per_fix=10,
                 trajectory=[(float(i), 2000.0, 2500.0) for i in range(5)]
                 + [point])
    got = {d[0]: d[1] for d in run_fix(sc, 5)["detections"]}
    assert 274 not in got
    assert abs(got[10] - 703) <= 1


def test_run_fix_solves_tdoa_with_the_frame_origins_taken_off():
    """Fix 5 of the seed-1 S5 offset scenario resolves three towers whose
    frame origins are 0, 1500 and 3000 samples: with the origins taken
    off their delays the estimate is metres from the truth and
    converged, where delays that still held them sent it thousands of
    kilometres off."""
    point = (5.0, 1840.755179550707, 2415.420520220291)
    sc = replace(_s5_scenario((0, 1500, 3000, 4500, 6000)), rng_seed=1,
                 n_frames_per_fix=10,
                 trajectory=[(float(i), 2000.0, 2500.0) for i in range(5)]
                 + [point])
    r = run_fix(sc, 5)
    assert r["n_towers"] == 3
    assert r["error_m"] < 25.0
    assert r["converged"]


def _observed(origins_samples, delays):
    """harness._observations of detections at delays (fractional samples)
    of towers with the given frame origins, in detection order."""
    towers = [(10, 0.0, 0.0), (11, 2000.0, 0.0), (12, 1000.0, 1732.0),
              (13, 0.0, 2000.0)]
    db = CellDatabase([
        CellConfig(Pci(p), 2.145e9 + 2e7 * i, CFG, (x, y), 46.0,
                   frame_time_origin_s=o / DETECTOR_RATE_HZ)
        for i, ((p, x, y), o) in enumerate(zip(towers, origins_samples))])
    dets = [Detection(Pci(p), int(np.floor(d)), 0.9, 1.0, d - np.floor(d))
            for (p, _, _), d in zip(towers, delays)]
    obs, skipped = harness._observations(dets, db)
    assert skipped == []
    return np.array([o.toa_samples for o in obs])


def test_observations_take_the_frame_origins_off_the_delays():
    """Each delay loses its tower's frame_time_origin_s in detector
    samples; a delay seen a half frame early or late (the PSS repeats
    every HALF_FRAME) moves back to within HALF_FRAME/2 of the first
    tower's."""
    geo = np.array([704.3, 712.9, 709.1, 716.6])
    origins = np.array([0.0, 1500.0, 3000.0, 6000.0])
    toa = _observed(origins, geo + origins)
    assert np.allclose(toa, geo, rtol=0.0, atol=1e-9)
    shifted = _observed(origins, geo + origins
                        + detect.HALF_FRAME * np.array([0, 1, -1, 1]))
    assert np.allclose(shifted, geo, rtol=0.0, atol=1e-9)
    # the first tower sets the reference: a whole half frame moves all
    first = _observed(origins, geo + origins + [detect.HALF_FRAME, 0, 0, 0])
    assert np.allclose(first, geo + detect.HALF_FRAME, rtol=0.0, atol=1e-9)


def test_observations_of_synchronized_towers_keep_the_delays_bits():
    """Origins of 0 and delays within a half frame of each other leave
    each arrival time the detection's delay_samples + subsample_offset,
    bit for bit, as before the origins were taken off."""
    delays = [704.3, 712.9, 709.1, 716.6]
    assert _observed([0.0] * 4, delays).tolist() == \
        [int(np.floor(d)) + (d - np.floor(d)) for d in delays]


def test_run_fix_ratio_solver_localizes():
    sc = _three_cell_ratio_scenario()
    r = run_fix(sc, 0)
    assert r["n_towers"] == 3
    assert r["estimate"] is not None
    assert r["error_m"] < 200.0
    assert r["converged"]


# ---------------------------------------------------------------- run_eval


def test_run_eval_metrics_recomputable():
    sc = _three_cell_ratio_scenario(n_frames=4)
    rep = run_eval(sc)
    assert compute_metrics(rep.records) == rep.metrics
    assert rep.scenario_summary["n_fixes"] == 2
    assert rep.scenario_summary["solver"] == "ratio"


def test_run_eval_repeat_is_byte_identical():
    sc = _single_cell_scenario()
    assert run_eval(sc).to_json() == run_eval(sc).to_json()


def test_compute_metrics_counts():
    records = [
        {"detections": [[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]],
         "true_pcis": [1, 3], "error_m": 4.0},
        {"detections": [[3, 0, 0, 0, 0]],
         "true_pcis": [3], "error_m": None},
    ]
    m = compute_metrics(records)
    assert (m["tp"], m["fp"], m["fn"]) == (2, 1, 1)
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(2 / 3)
    assert m["n_resolved"] == 1
    assert m["error_p50_m"] == 4.0


# ------------------------------------------------------------- urban study


def test_run_urban_sim_smoke():
    towers = [[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]]
    out = run_urban_sim(towers, n_fixes=20, timing_noise_samples=0.1,
                        epochs_per_fix=10, seed=3)
    assert len(out["errors_m"]) == 20
    assert 0.0 < out["p50_m"] < 20.0
    assert out["p50_m"] <= out["p90_m"] <= out["max_m"]
    again = run_urban_sim(towers, n_fixes=20, timing_noise_samples=0.1,
                          epochs_per_fix=10, seed=3)
    assert out == again


# ------------------------------------------------------------ file plumbing


def test_cmd_synth_writes_manifest_and_traces(tmp_path):
    sc = _single_cell_scenario()
    manifest = cmd_synth(sc, str(tmp_path / "traces"))
    rows = list(csv.DictReader(open(manifest)))
    assert len(rows) == 1
    samples, rate = traceio.read_trace(rows[0]["trace_path"])
    assert rate == FS
    assert samples.size == 2 * FRAME_LEN
    assert rows[0]["true_pcis"] == "101"


@pytest.mark.parametrize("origins", [(0,) * 5, (0, 1500, 3000, 4500, 6000)],
                         ids=["synchronized", "offset"])
def test_replayed_trace_stacks_to_the_bits_of_its_float64_copy(tmp_path,
                                                                origins):
    """read_trace returns the stored float32 samples, and stacking them
    gives the bits of the float64 copy it used to return, stacked by
    mean(axis=0), so replayed detections are unchanged: noisy S5 traces
    of 10 frames."""
    sc = replace(_s5_scenario(origins), n_frames_per_fix=10,
                 front_end=FrontEndConfig(noise_sigma=1e-9))
    manifest = cmd_synth(sc, str(tmp_path / "traces"))
    bank = harness._bank_for(sc.front_end)
    for row in csv.DictReader(open(manifest)):
        samples, _ = traceio.read_trace(row["trace_path"])
        assert samples.dtype == np.float32
        wide = samples.astype(np.float64)
        for n in (1, 9, 10):
            old = wide[:n * FRAME_LEN].reshape(n, FRAME_LEN).mean(axis=0)
            assert stack_frames(samples, n).tobytes() == old.tobytes()
        assert detect_trace(samples, bank) == detect_trace(wide, bank)


def test_cmd_detect_rejects_rate_mismatch(tmp_path, capsys):
    """A trace at another rate than the detector's exits 2 and writes no
    detections."""
    p = tmp_path / "t.bin"
    traceio.write_trace(p, np.zeros(FRAME_LEN), 3.84e6)
    assert cli.main(["detect", str(p), "-o", str(tmp_path)]) == 2
    assert "is not the detector rate" in capsys.readouterr().err
    assert not (tmp_path / "t.detections.csv").exists()


@pytest.mark.parametrize("n", [100, 0])
def test_cli_detect_trace_under_one_frame_exits_3(tmp_path, capsys, n):
    """Without --stack, a trace file holding no whole frame is a data
    error: exit 3 naming the file, and no detections written."""
    p = tmp_path / "t.bin"
    traceio.write_trace(p, np.zeros(n), FS)
    assert cli.main(["detect", str(p), "-o", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"{p}: trace of {n} samples is shorter than one frame" in err
    assert not (tmp_path / "t.detections.csv").exists()


def test_cli_detect_stack_beyond_the_trace_exits_2(tmp_path, capsys):
    """--stack asking for more frames than the trace holds is a usage
    error: exit 2, and no detections written."""
    p = tmp_path / "t.bin"
    traceio.write_trace(p, np.zeros(10 * FRAME_LEN), FS)
    assert cli.main(["detect", str(p), "-o", str(tmp_path),
                     "--stack", "20"]) == 2
    assert "too short for 20 frames" in capsys.readouterr().err
    assert not (tmp_path / "t.detections.csv").exists()


def test_cmd_localize_rows(tmp_path):
    # three synchronized towers, detections at exact geometric delays
    towers = [(10, 0.0, 0.0), (11, 2000.0, 0.0), (12, 1000.0, 1732.0)]
    db = CellDatabase([CellConfig(Pci(p), 2.145e9, CFG, (x, y), 46.0)
                       for p, x, y in towers])
    truth = np.array([700.0, 500.0])
    dets = []
    for p, x, y in towers:
        d_m = float(np.hypot(x - truth[0], y - truth[1]))
        delay = d_m / 156.25
        dets.append(Detection(Pci(p), int(delay), 0.9, 1.0,
                              delay - int(delay)))
    rows = cmd_localize([(0.0, dets), (1.0, dets[:2])], db, "tdoa")
    assert len(rows) == 2
    t, xs, ys, obj, n = rows[0]
    assert n == 3
    assert abs(float(xs) - truth[0]) < 1.0
    assert abs(float(ys) - truth[1]) < 1.0
    assert rows[1][1] == "" and rows[1][4] == 2


def test_cmd_localize_takes_its_prior_only_from_a_converged_fix(monkeypatch):
    """A diverged estimate resolves no repeated PCI of the next fix: PCI 10
    sits at (0, 0) and at (9000, 0), and a first fix that diverges to
    (1e7, 0) leaves the second one without a prior, so its PCI 10 is
    skipped."""
    towers = [(10, 0.0, 0.0), (10, 9000.0, 0.0), (11, 2000.0, 0.0),
              (12, 1000.0, 1732.0), (13, 0.0, 2000.0)]
    db = CellDatabase([CellConfig(Pci(p), 2.145e9 + 2e7 * i, CFG, (x, y), 46.0)
                       for i, (p, x, y) in enumerate(towers)])
    monkeypatch.setitem(harness.SOLVERS, "tdoa", lambda obs: PositionEstimate(
        (1e7, 0.0), 1.0, 10, converged=False))

    def dets(pcis):
        return [Detection(Pci(p), 100 + p, 0.9, 1.0, 0.0) for p in pcis]

    rows = cmd_localize([(0.0, dets((11, 12, 13))), (1.0, dets((10, 11, 12)))],
                        db, "tdoa")
    assert rows[0][1:3] == (f"{1e7:.6f}", f"{0.0:.6f}")
    assert rows[1] == (1.0, "", "", "", 2)


# ------------------------------------------------------------------- CLI


SCENARIO_INI = """\
[scenario]
seed = 5
n_frames_per_fix = 2

[cell.a]
pci = 101
carrier_hz = 2.145e9
x = 0
y = 0
tx_power_dbm = 46

[trajectory]
points = 0,468.75,0; 1,500,0
"""

CELL_DB = ("pci,x,y,carrier_hz,bandwidth_mhz,tx_power_dbm,frame_time_origin_s\n"
           "101,0,0,2.145e9,1.4,46,0\n")

ROADS = ("node_a_id,node_b_id,ax,ay,bx,by,max_speed_mps\n"
         "a,b,-1000,0,1000,0,30\n")


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "foldloc", *args],
                          capture_output=True, text=True, env=child_env())


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "sc.ini").write_text(SCENARIO_INI)
    (d / "cells.csv").write_text(CELL_DB)
    (d / "roads.csv").write_text(ROADS)
    return d


def test_cli_synth_detect_chain(cli_workdir):
    r = _run_cli(["synth", str(cli_workdir / "sc.ini"),
                  "-o", str(cli_workdir / "traces")])
    assert r.returncode == 0, r.stderr
    manifest = cli_workdir / "traces" / "manifest.csv"
    assert manifest.exists()

    r = _run_cli(["detect", str(manifest),
                  "-o", str(cli_workdir / "dets")])
    assert r.returncode == 0, r.stderr
    det_manifest = cli_workdir / "dets" / "detections_manifest.csv"
    assert det_manifest.exists()
    first = list(csv.DictReader(open(det_manifest)))[0]
    det_rows = list(csv.DictReader(open(first["detections_path"])))
    assert det_rows[0]["pci"] == "101"

    r = _run_cli(["localize", str(det_manifest),
                  "--cell-db", str(cli_workdir / "cells.csv"),
                  "-o", str(cli_workdir / "traj.csv")])
    assert r.returncode == 0, r.stderr

    r = _run_cli(["track", str(cli_workdir / "traj.csv"),
                  "--roads", str(cli_workdir / "roads.csv"),
                  "-o", str(cli_workdir / "out")])
    assert r.returncode == 0, r.stderr
    assert (cli_workdir / "out.snapped.csv").exists()
    assert (cli_workdir / "out.alerts.csv").exists()


def test_cli_eval(cli_workdir):
    r = _run_cli(["eval", str(cli_workdir / "sc.ini"),
                  "-o", str(cli_workdir / "report.json")])
    assert r.returncode == 0, r.stderr
    report = json.loads((cli_workdir / "report.json").read_text())
    assert report["metrics"]["recall"] == 1.0


def test_cli_eval_writes_the_run_eval_report(cli_workdir, tmp_path):
    from foldloc.cli import main
    ini = str(cli_workdir / "sc.ini")
    assert main(["eval", ini, "-o", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_text() == \
        run_eval(load_scenario(ini)).to_json()


def test_cli_eval_has_no_workers_option(cli_workdir, tmp_path):
    r = _run_cli(["eval", str(cli_workdir / "sc.ini"), "--workers", "2",
                  "-o", str(tmp_path / "report.json")])
    assert r.returncode == 2
    assert "--workers" in r.stderr
    assert not (tmp_path / "report.json").exists()


def test_bank_built_once_for_every_front_end(monkeypatch):
    builds = []

    def counting_build_bank():
        builds.append(1)
        return real_build_bank()

    real_build_bank = harness.build_bank
    monkeypatch.setattr(harness, "build_bank", counting_build_bank)
    harness._bank_for.cache_clear()
    try:
        a = harness._bank_for(FrontEndConfig())
        assert harness._bank_for(FrontEndConfig(noise_sigma=0.5)) is a
        assert harness._bank_for.cache_info().misses == 1
        assert len(builds) == 1
        harness._bank_for.cache_clear()
        assert harness._bank_for(FrontEndConfig()) is not a
        assert harness._bank_for.cache_info().misses == 1
        assert len(builds) == 2
    finally:
        harness._bank_for.cache_clear()


def test_cli_detect_builds_bank_once_per_process(tmp_path, monkeypatch):
    from foldloc.cli import main
    sc = replace(_single_cell_scenario(),
                 trajectory=[(0.0, 468.75, 0.0), (1.0, 500.0, 0.0)])
    manifest = cmd_synth(sc, str(tmp_path / "traces"))
    builds = []

    def counting_build_bank(*args, **kwargs):
        builds.append(args)
        return real_build_bank(*args, **kwargs)

    real_build_bank = harness.build_bank
    monkeypatch.setattr(harness, "build_bank", counting_build_bank)
    harness._bank_for.cache_clear()
    try:
        assert main(["detect", manifest, "-o", str(tmp_path / "dets")]) == 0
    finally:
        harness._bank_for.cache_clear()
    assert len(builds) == 1


def test_cli_synth_negative_seed_exits_2_without_output(tmp_path, capsys):
    from foldloc.cli import main
    ini = tmp_path / "sc.ini"
    ini.write_text(SCENARIO_INI.replace("seed = 5", "seed = -1"))
    assert main(["synth", str(ini), "-o", str(tmp_path / "traces")]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


def test_cli_localize_manifest_without_detections_path_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    (tmp_path / "manifest.csv").write_text("fix,t\n0,0.0\n")
    (tmp_path / "cells.csv").write_text(CELL_DB)
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(tmp_path / "cells.csv"),
                 "-o", str(tmp_path / "traj.csv")]) == 2
    assert "detections_path" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["nan", "abc"])
def test_cli_localize_bad_manifest_time_exits_2(tmp_path, capsys, t):
    from foldloc.cli import main
    dets = tmp_path / "dets.csv"
    dets.write_text(",".join(cli.DETECTION_COLUMNS) + "\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"t,detections_path\n0.0,{dets}\n{t},{dets}\n")
    (tmp_path / "cells.csv").write_text(CELL_DB)
    assert main(["localize", str(manifest), "--cell-db",
                 str(tmp_path / "cells.csv"), "-o", str(tmp_path / "traj.csv")]) == 2
    assert f"{manifest}:3" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["subsample_offset", "amplitude", "score"])
def test_cli_localize_nonfinite_detection_exits_2(tmp_path, capsys, column,
                                                   value):
    from foldloc.cli import main
    fields = {"subsample_offset": "0.1", "amplitude": "1e-09", "score": "0.9"}
    rows = [dict(fields, pci=p, delay_samples=700 + 10 * p) for p in (1, 2, 3)]
    rows[1][column] = value
    dets = tmp_path / "dets.csv"
    with open(dets, "w", newline="") as f:
        w = csv.DictWriter(f, ["pci", "delay_samples", *fields])
        w.writeheader()
        w.writerows(rows)
    (tmp_path / "manifest.csv").write_text(f"t,detections_path\n0.0,{dets}\n")
    (tmp_path / "cells.csv").write_text(
        "pci,x,y,carrier_hz,bandwidth_mhz,tx_power_dbm,frame_time_origin_s\n"
        "1,0,0,2.145e9,1.4,46,0\n2,2000,0,2.145e9,1.4,46,0\n"
        "3,1000,1732,2.145e9,1.4,46,0\n")
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(tmp_path / "cells.csv"),
                 "-o", str(tmp_path / "traj.csv")]) == 2
    assert f"{dets}:3" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_cli_track_trajectory_without_x_est_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    (tmp_path / "traj.csv").write_text("t,y_est\n0.0,1.0\n")
    (tmp_path / "roads.csv").write_text(ROADS)
    assert main(["track", str(tmp_path / "traj.csv"),
                 "--roads", str(tmp_path / "roads.csv"),
                 "-o", str(tmp_path / "out")]) == 2
    assert "x_est" in capsys.readouterr().err


TRACK_FIXES = "t,x_est,y_est\n0,0,5\n1,20,5\n2,40,5\n"
FENCE = "mode,exit\n-50,-50\n50,-50\n50,50\n-50,50\n"


@pytest.mark.parametrize("roads, fence, where", [
    (ROADS.replace(",30\n", ",nan\n"), None, "roads.csv:2: non-finite"),
    (ROADS, FENCE.replace("\n50,50\n", "\nnan,50\n"), "fence.csv:4: non-finite"),
    (ROADS, FENCE.replace("\n50,-50\n", "\n50,-50,7\n"), "fence.csv:3: expected"),
    (ROADS.split("\n")[0] + "\n", None, "roads.csv: empty road graph"),
    (ROADS.replace(",30\n", ",-3\n"), None,
     "roads.csv:2: edge (a,b) max_speed -3.0 <= 0"),
    (ROADS, "mode,exit\n0,0\n1,0\n", "fence.csv: polygon needs >= 3"),
    (ROADS, "mode,exit\n0,0\n1,1\n1,0\n0,1\n",
     "fence.csv: polygon is self-intersecting"),
    (ROADS, FENCE.replace("exit", "leave"), "fence.csv:1: first line"),
], ids=["speed_nan", "vertex_nan", "vertex_three_fields", "roads_header_only",
        "speed_negative", "fence_two_vertices", "fence_self_intersecting",
        "fence_mode_unknown"])
def test_cli_track_bad_roads_or_geofence_exits_2(tmp_path, capsys, roads,
                                                 fence, where):
    """A road or geofence file that does not parse to finite numbers, or
    that the road graph or geofence rejects, exits 2 naming its path, and
    path:line where one line is at fault; nothing is written."""
    from foldloc.cli import main
    (tmp_path / "traj.csv").write_text(TRACK_FIXES)
    (tmp_path / "roads.csv").write_text(roads)
    args = ["track", str(tmp_path / "traj.csv"),
            "--roads", str(tmp_path / "roads.csv"), "-o", str(tmp_path / "out")]
    if fence is not None:
        (tmp_path / "fence.csv").write_text(fence)
        args += ["--geofence", str(tmp_path / "fence.csv")]
    assert main(args) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out.snapped.csv").exists()


@pytest.mark.parametrize("row, message", [
    ("1,nan,5", "non-finite"), ("1,20,inf", "non-finite"),
    ("1,20,abc", "could not convert"), ("0,20,5", "t = 0 is not after"),
    ("-1,20,5", "t = -1 is not after"),
], ids=["x_nan", "y_inf", "y_unparsable", "t_repeated", "t_step_back"])
def test_cli_track_bad_trajectory_row_exits_2(tmp_path, capsys, row, message):
    """A trajectory position that is not a finite number, or a t no later
    than the previous fix's, exits 2 naming path:line, and nothing is
    written."""
    from foldloc.cli import main
    traj = tmp_path / "traj.csv"
    traj.write_text(TRACK_FIXES.replace("1,20,5", row))
    (tmp_path / "roads.csv").write_text(ROADS)
    assert main(["track", str(traj), "--roads", str(tmp_path / "roads.csv"),
                 "-o", str(tmp_path / "out")]) == 2
    assert f"{traj}:3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out.snapped.csv").exists()
    assert not (tmp_path / "out.alerts.csv").exists()


def test_cli_track_skips_unresolved_fixes(tmp_path):
    from foldloc.cli import main
    traj = tmp_path / "traj.csv"
    traj.write_text(TRACK_FIXES.replace("1,20,5", "1,,"))
    (tmp_path / "roads.csv").write_text(ROADS)
    assert main(["track", str(traj), "--roads", str(tmp_path / "roads.csv"),
                 "-o", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out.snapped.csv")))
    assert [float(r["t"]) for r in rows] == [0.0, 2.0]
    assert [r["reseeded"] for r in rows] == ["0", "0"]


@pytest.mark.parametrize("fence", [
    FENCE, "".join(",".join(f'"{v}"' for v in line.split(",")) + "\n"
                   for line in FENCE.splitlines())], ids=["plain", "quoted"])
def test_cli_track_reads_the_geofence_as_csv(tmp_path, fence):
    """A geofence is a CSV file: with its fields quoted or not, a track
    that leaves the fence on its last fix exits 0 with one exit alert."""
    from foldloc.cli import main
    traj = tmp_path / "traj.csv"
    traj.write_text("t,x_est,y_est\n0,0,5\n1,30,5\n2,60,5\n")
    (tmp_path / "roads.csv").write_text(ROADS)
    (tmp_path / "fence.csv").write_text(fence)
    assert main(["track", str(traj), "--roads", str(tmp_path / "roads.csv"),
                 "--geofence", str(tmp_path / "fence.csv"),
                 "-o", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out.alerts.csv")))
    assert [(float(r["t"]), r["event"]) for r in rows] == [(2.0, "exit")]


@pytest.mark.parametrize("value", ["1.0", "1.5", "nan", "-1.5"])
@pytest.mark.parametrize("flag", ["--thresh-pss", "--thresh-sss"])
def test_cli_detect_threshold_outside_score_range_exits_2(tmp_path, capsys,
                                                          flag, value):
    """The threshold check runs before any trace is read: a missing trace
    would exit 3."""
    from foldloc.cli import main
    assert main(["detect", str(tmp_path / "missing.bin"), "-o", str(tmp_path),
                 f"{flag}={value}"]) == 2
    assert "thresh_pss and thresh_sss must lie in [-1, 1)" in \
        capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_eval_and_synth_detect_agree(cli_workdir, tmp_path):
    """eval and synth -> detect run one receiver: the same PCIs and
    delays, and scores equal up to the float32 of the trace files."""
    from foldloc.cli import main
    ini = str(cli_workdir / "sc.ini")
    assert main(["eval", ini, "-o", str(tmp_path / "report.json")]) == 0
    assert main(["synth", ini, "-o", str(tmp_path / "traces")]) == 0
    assert main(["detect", str(tmp_path / "traces" / "manifest.csv"),
                 "-o", str(tmp_path / "dets")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    manifest = list(csv.DictReader(
        open(tmp_path / "dets" / "detections_manifest.csv")))
    assert len(manifest) == len(report["fixes"]) == 2
    for rec, row in zip(report["fixes"], manifest):
        assert int(row["fix"]) == rec["fix"]
        got = list(csv.DictReader(open(row["detections_path"])))
        assert rec["detections"]
        assert [(int(r["pci"]), int(r["delay_samples"])) for r in got] == \
            [(d[0], d[1]) for d in rec["detections"]]
        for r, d in zip(got, rec["detections"]):
            assert abs(float(r["score"]) - d[4]) <= 1e-5


def test_cli_validation_error_exits_2(cli_workdir, tmp_path, capsys):
    from foldloc.cli import main
    bad = tmp_path / "bad.ini"
    bad.write_text(SCENARIO_INI.replace("pci = 101\n", ""))
    r = _run_cli(["synth", str(bad), "-o", str(tmp_path / "x")])
    assert r.returncode == 2
    assert "pci" in r.stderr
    # a misspelt or retired key or section, a non-finite setting and a
    # [DEFAULT] section are rejected, not ignored; the process exit status
    # is main's return value, checked once above
    for old, new, named in (
            ("seed = 5\n", "seed = 5\ntresh_sss = 0.99\n", "'tresh_sss'"),
            ("tx_power_dbm = 46", "tx_powr_dbm = 46", "'tx_powr_dbm'"),
            ("[scenario]", "[scenaro]", "[scenaro]"),
            ("seed = 5\n", "seed = 5\nmode = plain\n", "'mode'"),
            ("seed = 5\n", "seed = 5\nmode = phat\n", "'mode'"),
            ("seed = 5\n", "seed = 5\nthresh_pss = nan\n", "thresh_pss"),
            ("seed = 5\n", "seed = 5\nthresh_sss = -inf\n", "thresh_sss"),
            ("seed = 5\n", "seed = 5\nthresh_sss = 1.0\n", "thresh_sss"),
            ("[scenario]", "[frontend]\nnoise_sigma = nan\n\n[scenario]",
             "[frontend]: non-finite"),
            *(("[scenario]", f"[frontend]\n{key} = 1e6\n\n[scenario]",
               f"[frontend]: unknown key '{key}'")
              for key in ("adc_rate_hz", "lpf_cutoff_hz", "lpf_transition_hz",
                          "lpf_atten_db", "sensitivity_floor_dbm")),
            ("points = 0,468.75,0; 1,500,0", "points = 0,nan,5; 1,100,200",
             "non-finite t, x or y"),
            ("[scenario]", "[DEFAULT]\ntx_power_dbm = 40\n\n[scenario]",
             "[DEFAULT]")):
        bad.write_text(SCENARIO_INI.replace(old, new))
        assert main(["eval", str(bad), "-o", str(tmp_path / "r.json")]) == 2, new
        assert named in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_synth_nonfinite_cell_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    bad = tmp_path / "bad.ini"
    bad.write_text(SCENARIO_INI.replace("x = 0", "x = nan"))
    assert main(["synth", str(bad), "-o", str(tmp_path / "x")]) == 2
    assert "[cell.a]: non-finite value in CellConfig" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_synth_trace_beyond_float32_exits_3(tmp_path, capsys):
    """A trace whose samples overflow float32 is a data error: no partial
    trace file is left for detect to refuse later."""
    from foldloc.cli import main
    loud = tmp_path / "loud.ini"
    loud.write_text(SCENARIO_INI.replace("tx_power_dbm = 46",
                                         "tx_power_dbm = 1000"))
    assert main(["synth", str(loud), "-o", str(tmp_path / "x")]) == 3
    assert "non-finite samples" in capsys.readouterr().err
    assert not list((tmp_path / "x").glob("*.bin"))


def test_cli_synth_failing_later_fix_leaves_no_manifest(tmp_path, capsys):
    """Fix 0's trace is written and fix 1's overflows float32: synth exits
    3 and leaves no manifest listing fix 0 alone for detect to run on."""
    from foldloc.cli import main
    loud = tmp_path / "loud.ini"
    loud.write_text(SCENARIO_INI.replace("tx_power_dbm = 46",
                                         "tx_power_dbm = 495")
                    .replace("1,500,0", "1,100,0"))
    outdir = tmp_path / "x"
    assert main(["synth", str(loud), "-o", str(outdir)]) == 3
    assert "non-finite samples" in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["trace_fix_0000.bin"]


def test_cli_detect_failing_later_trace_leaves_no_manifest(tmp_path, capsys):
    """The second trace of the manifest is missing: detect exits 3 and
    leaves no detections manifest listing fix 0 alone for localize."""
    from foldloc.cli import main
    manifest = cmd_synth(_single_cell_scenario(), str(tmp_path / "traces"))
    rows = list(csv.DictReader(open(manifest)))
    rows.append(dict(rows[0], fix="1",
                     trace_path=str(tmp_path / "missing.bin")))
    with open(manifest, "w", newline="") as f:
        w = csv.DictWriter(f, list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    outdir = tmp_path / "dets"
    assert main(["detect", manifest, "-o", str(outdir)]) == 3
    assert "missing.bin" in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["detections_fix_0000.csv"]


def test_cli_synth_failed_rerun_leaves_no_stale_manifest(tmp_path, capsys):
    """A good synth run, then one into the same outdir whose fix 1
    overflows float32: the second run exits 3 and leaves no manifest, not
    the first run's, which would list its new fix 0 beside the old fix 1
    and the old truth."""
    from foldloc.cli import main
    good, loud = tmp_path / "good.ini", tmp_path / "loud.ini"
    good.write_text(SCENARIO_INI)
    loud.write_text(SCENARIO_INI.replace("tx_power_dbm = 46",
                                         "tx_power_dbm = 495")
                    .replace("1,500,0", "1,100,0"))
    outdir = tmp_path / "out"
    assert main(["synth", str(good), "-o", str(outdir)]) == 0
    assert (outdir / "manifest.csv").exists()
    assert main(["synth", str(loud), "-o", str(outdir)]) == 3
    assert "non-finite samples" in capsys.readouterr().err
    assert not (outdir / "manifest.csv").exists()
    assert not list(outdir.glob("*.tmp"))


def test_cli_detect_failed_rerun_leaves_no_stale_manifest(tmp_path, capsys):
    """A good detect run, then one into the same outdir whose second trace
    is missing: the second run exits 3 and leaves no detections manifest,
    not the first run's."""
    from foldloc.cli import main
    sc = replace(_single_cell_scenario(),
                 trajectory=[(0.0, 468.75, 0.0), (1.0, 500.0, 0.0)])
    manifest = cmd_synth(sc, str(tmp_path / "traces"))
    outdir = tmp_path / "dets"
    assert main(["detect", manifest, "-o", str(outdir)]) == 0
    assert (outdir / "detections_manifest.csv").exists()
    os.remove(list(csv.DictReader(open(manifest)))[1]["trace_path"])
    assert main(["detect", manifest, "-o", str(outdir)]) == 3
    assert "trace_fix_0001.bin" in capsys.readouterr().err
    assert not (outdir / "detections_manifest.csv").exists()
    assert not list(outdir.glob("*.tmp"))


def test_cli_chain_runs_from_another_directory(tmp_path, monkeypatch):
    """synth into a relative outdir lists absolute trace paths, and detect
    into a relative outdir absolute detections paths: detect and localize
    run from other working directories than the one that wrote each
    manifest."""
    from foldloc.cli import main
    (tmp_path / "sc.ini").write_text(SCENARIO_INI)
    (tmp_path / "cells.csv").write_text(CELL_DB)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "sc.ini", "-o", "out"]) == 0
    monkeypatch.chdir(tmp_path / "sub")
    assert main(["detect", os.path.join("..", "out", "manifest.csv"),
                 "-o", "dets"]) == 0
    monkeypatch.chdir(tmp_path)
    det_manifest = os.path.join("sub", "dets", "detections_manifest.csv")
    for row in csv.DictReader(open(det_manifest)):
        assert os.path.isabs(row["detections_path"])
    assert main(["localize", det_manifest, "--cell-db", "cells.csv",
                 "-o", "traj.csv"]) == 0
    assert len(list(csv.DictReader(open("traj.csv")))) == 2


def test_cli_localize_empty_manifest_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    db = tmp_path / "cells.csv"
    db.write_text(CELL_DB)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("fix,t,detections_path\n")
    assert main(["localize", str(manifest), "--cell-db", str(db),
                 "-o", str(tmp_path / "traj.csv")]) == 2
    assert f"{manifest}: manifest lists no detections" in \
        capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("row", ["999,0,0,2.145e9,1.4,46,0",
                                 "101,0,0,2.145e9,7.0,46,0",
                                 "101,0,0,1000,1.4,46,0",
                                 "101,0,0,2.145e9,1.4,inf,0",
                                 "101,nan,0,2.145e9,1.4,46,0"],
                         ids=["pci_999", "bandwidth_7", "carrier_1kHz",
                              "tx_power_inf", "x_nan"])
def test_cli_localize_bad_cell_db_row_exits_2(tmp_path, capsys, row):
    from foldloc.cli import main
    db = tmp_path / "cells.csv"
    db.write_text(CELL_DB.splitlines()[0] + "\n102,9,9,2.145e9,1.4,46,0\n"
                  + row + "\n")
    (tmp_path / "manifest.csv").write_text("t,detections_path\n")
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(db), "-o", str(tmp_path / "traj.csv")]) == 2
    assert f"{db}:3: " in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_cli_localize_unknown_cell_db_column_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    db = tmp_path / "cells.csv"
    header, row = CELL_DB.splitlines()
    db.write_text(f"{header},tx_powr_dbm\n{row},40\n")
    (tmp_path / "manifest.csv").write_text("t,detections_path\n")
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(db), "-o", str(tmp_path / "traj.csv")]) == 2
    assert "unknown columns ['tx_powr_dbm']" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("text", [
    "pci,x,y,carrier_hz,bandwidth_mhz,tx_power_dbm\n101,0,0,2.145e9,1.4,46\n",
    CELL_DB.replace(",46,0\n", ",46,nan\n"),
    CELL_DB.replace(",46,0\n", ",46,-inf\n"),
], ids=["missing", "nan", "-inf"])
def test_cli_localize_cell_db_frame_origin_exits_2(tmp_path, capsys, text):
    """A cell DB without the frame_time_origin_s column, or with a value
    in it that is not finite, exits 2 naming the column, and writes no
    trajectory."""
    from foldloc.cli import main
    db = tmp_path / "cells.csv"
    db.write_text(text)
    (tmp_path / "manifest.csv").write_text("t,detections_path\n")
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(db), "-o", str(tmp_path / "traj.csv")]) == 2
    assert "frame_time_origin_s" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_cli_data_error_exits_3(tmp_path):
    missing = tmp_path / "missing.bin"
    r = _run_cli(["detect", str(missing), "-o", str(tmp_path)])
    assert r.returncode == 3

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a trace at all")
    r = _run_cli(["detect", str(garbage), "-o", str(tmp_path)])
    assert r.returncode == 3
    assert "error" in r.stderr


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -FS])
def test_cli_detect_bad_trace_rate_exits_3(tmp_path, capsys, rate):
    from foldloc.cli import main
    p = tmp_path / "t.bin"
    traceio.write_trace(p, np.zeros(2 * FRAME_LEN), FS)
    raw = bytearray(p.read_bytes())
    raw[8:16] = struct.pack("<d", rate)     # write_trace itself refuses it
    p.write_bytes(bytes(raw))
    assert main(["detect", str(p), "-o", str(tmp_path)]) == 3
    assert "sample rate" in capsys.readouterr().err
    assert not (tmp_path / "t.detections.csv").exists()


@pytest.mark.parametrize("column,value", [("fix", "abc"), ("fix", "-1"),
                                          ("fix", "0"), ("t", "nan"),
                                          ("t", "abc")])
def test_cli_detect_bad_manifest_row_exits_2(tmp_path, capsys, column, value):
    """Every manifest row is checked before any trace is read or any file
    written: the first row's trace is missing, which would exit 3. A fix
    listed twice would write both rows' detections to one file."""
    from foldloc.cli import main
    rows = [dict(fix=str(i), trace_path=str(tmp_path / f"missing_{i}.bin"),
                 t=f"{i}.0", x_true="0", y_true="0", true_pcis="101")
            for i in range(2)]
    rows[1][column] = value
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="") as f:
        w = csv.DictWriter(f, list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    outdir = tmp_path / "dets"
    assert main(["detect", str(manifest), "-o", str(outdir)]) == 2
    assert f"{manifest}:3" in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_detect_stack_zero_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    manifest = cmd_synth(_single_cell_scenario(), str(tmp_path / "traces"))
    trace = list(csv.DictReader(open(manifest)))[0]["trace_path"]
    assert main(["detect", trace, "-o", str(tmp_path), "--stack", "0"]) == 2
    assert "n_frames" in capsys.readouterr().err
    assert not (tmp_path / "trace_fix_0000.detections.csv").exists()

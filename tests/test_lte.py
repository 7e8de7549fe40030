"""Frame synthesis: sync sequences, grid layout, OFDM round trip."""
import cmath
import gc
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldloc import lte

from foldloc.lte import (BANDWIDTH_TABLE, SYMBOLS_PER_FRAME, FrameConfig, Pci,
                         central_62_bins, frame_samples, generate_pss,
                         generate_sss, sss_shift_pair, sync_segment)
from conftest import child_env, cpu_share
from oracles import (build_frame, frame_samples_batched, ofdm_demodulate,
                     ofdm_modulate)


def test_pci_decomposition():
    p = Pci(503)
    assert p.group == 167 and p.sector == 2
    for v in range(504):
        q = Pci(v)
        assert 3 * q.group + q.sector == v


def test_pci_range_checked():
    with pytest.raises(ValueError):
        Pci(504)
    with pytest.raises(ValueError):
        Pci(-1)


def test_pss_unit_magnitude():
    for i in range(3):
        assert np.abs(np.abs(generate_pss(i)) - 1.0).max() < 1e-12


def test_pss_formula_values():
    # direct evaluation of the root-25 sequence at n=0 and n=1
    p = generate_pss(0)
    assert abs(p[0] - 1.0) < 1e-12
    assert abs(p[1] - cmath.exp(-1j * cmath.pi * 25 * 2 / 63)) < 1e-12


def test_pss_roots_29_34_conjugate():
    # phase arguments reach ~1e2 pi, costing a few bits of precision
    assert np.abs(generate_pss(1) - np.conj(generate_pss(2))).max() < 1e-10


def test_pss_cross_correlation():
    """Zero-lag normalized inner products between distinct roots.

    Roots 25/29 and 29/34 differ by amounts coprime to 63 and stay near
    the 1/sqrt(63) Zadoff-Chu bound. Roots 25/34 differ by 9, which shares
    a factor with 63, so that pair correlates substantially higher; the
    exact values below are frozen from direct evaluation.
    """
    p = [generate_pss(i) for i in range(3)]
    c01 = abs(np.vdot(p[0], p[1])) / 62.0
    c12 = abs(np.vdot(p[1], p[2])) / 62.0
    c02 = abs(np.vdot(p[0], p[2])) / 62.0
    assert abs(c01 - 0.1290) < 1e-3
    assert abs(c12 - 0.1290) < 1e-3
    assert abs(c02 - 0.3844) < 1e-3
    assert c01 <= 0.3 and c12 <= 0.3


def test_sss_alphabet():
    for group in (0, 1, 83, 167):
        for sector in range(3):
            for sf in (0, 5):
                s = generate_sss(group, sector, sf)
                assert s.shape == (62,)
                assert np.all(np.isin(s.real, (-1.0, 1.0)))
                assert np.abs(s.imag).max() == 0.0


def test_sss_zero_lag_autocorrelation():
    s = generate_sss(42, 1, 0)
    assert np.real(np.vdot(s, s)) == 62.0


def test_sss_subframes_differ_for_every_group():
    for group in range(168):
        a = generate_sss(group, 0, 0)
        b = generate_sss(group, 0, 5)
        assert not np.array_equal(a, b)


def test_sss_batched_matches_scalar_calls():
    groups = np.arange(504) // 3
    sectors = np.arange(504) % 3
    m0, m1 = sss_shift_pair(groups)
    for sf in (0, 5):
        batch = generate_sss(groups, sectors, sf)
        assert batch.shape == (504, 62)
        for p in range(504):
            assert np.array_equal(batch[p], generate_sss(p // 3, p % 3, sf))
            assert (m0[p], m1[p]) == sss_shift_pair(p // 3)
    with pytest.raises(ValueError):
        sss_shift_pair(np.array([0, 168]))


def _sss_element_wise(group: int, sector: int, subframe: int) -> list[int]:
    """TS 36.211 6.11.2.1, one element at a time: d(2n) and d(2n + 1) from
    the m-sequences s, c and z, their shifts m0 and m1 from the group."""
    def mseq(taps):
        x = [0, 0, 0, 0, 1]
        for i in range(26):
            x.append(sum(x[i + t] for t in taps) % 2)
        return [1 - 2 * v for v in x]
    s, c, z = mseq((2, 0)), mseq((3, 0)), mseq((4, 2, 1, 0))
    qp = group // 30
    q = (group + qp * (qp + 1) // 2) // 30
    mp = group + q * (q + 1) // 2
    m0 = mp % 31
    m1 = (m0 + mp // 31 + 1) % 31
    d = []
    for n in range(31):
        s0, s1 = s[(n + m0) % 31], s[(n + m1) % 31]
        c0, c1 = c[(n + sector) % 31], c[(n + sector + 3) % 31]
        z0, z1 = z[(n + m0 % 8) % 31], z[(n + m1 % 8) % 31]
        d += ([s0 * c0, s1 * c1 * z0] if subframe == 0
              else [s1 * c0, s0 * c1 * z1])
    return d


def test_sss_matches_the_element_wise_definition():
    """Every (group, sector) pair of both subframes, in one batched call,
    equals the standard's element-wise definition."""
    groups = np.arange(168)[:, None]
    for sf in (0, 5):
        batch = generate_sss(groups, np.arange(3), sf)
        assert batch.shape == (168, 3, 62)
        for g in range(168):
            for sector in range(3):
                assert batch[g, sector].tolist() == \
                    _sss_element_wise(g, sector, sf)


@pytest.mark.parametrize("sector", [3, -1, 28, [0, 3]])
def test_sss_rejects_a_sector_outside_0_2(sector):
    """As generate_pss does, instead of returning another sequence."""
    with pytest.raises(ValueError, match="sector"):
        generate_sss(0, np.array(sector), 0)


def test_sss_distinct_across_groups():
    seen = {tuple(np.real(generate_sss(g, 0, 0)).astype(int)) for g in range(168)}
    assert len(seen) == 168


def test_bandwidth_table():
    assert BANDWIDTH_TABLE[1.4] == (6, 128)
    assert BANDWIDTH_TABLE[10] == (50, 1024)
    for bw, (n_rb, fft) in BANDWIDTH_TABLE.items():
        cfg = FrameConfig.from_bandwidth(bw)
        assert cfg.n_resource_blocks == n_rb
        assert cfg.fft_size == fft
        assert cfg.sample_rate_hz == fft * 15e3
        assert cfg.frame_len == int(cfg.sample_rate_hz * 0.01)
    with pytest.raises(ValueError):
        FrameConfig.from_bandwidth(7)


def test_cp_lengths_scale_with_fft():
    cfg = FrameConfig.from_bandwidth(1.4)
    assert cfg.cp_len(0) == 10 and cfg.cp_len(1) == 9
    cfg20 = FrameConfig.from_bandwidth(20)
    assert cfg20.cp_len(0) == 160 and cfg20.cp_len(3) == 144


def test_grid_sync_placement(cfg14):
    grid = build_frame(cfg14, Pci(37))
    sync = central_62_bins(cfg14.fft_size)
    # PSS at the last symbol of slots 0 and 10, SSS immediately before
    for col in (5, 6, 75, 76):
        assert np.abs(grid[sync, col]).min() > 0.0
    assert np.abs(grid[0, :]).max() == 0.0      # DC row empty
    occupied = np.abs(grid) > 0
    assert occupied.sum() == 4 * 62


def test_grid_energy_none_mode(cfg14):
    grid = build_frame(cfg14, Pci(37))
    total = np.sum(np.abs(grid) ** 2)
    sync_cols = np.sum(np.abs(grid[:, [5, 6, 75, 76]]) ** 2)
    assert abs(total - sync_cols) < 1e-9


def test_grid_data_mode_10mhz():
    cfg = FrameConfig.from_bandwidth(10)
    grid = build_frame(cfg, Pci(0), np.random.default_rng(5))
    col = 10                                  # an arbitrary non-sync symbol
    occ = np.abs(grid[:, col]) > 0
    assert occ.sum() == 600                   # 50 RB x 12 subcarriers
    vals = grid[occ, col]
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-12


def test_build_frame_deterministic(cfg14):
    a = build_frame(cfg14, Pci(9), np.random.default_rng(123))
    b = build_frame(cfg14, Pci(9), np.random.default_rng(123))
    assert np.array_equal(a, b)
    c = build_frame(cfg14, Pci(9), np.random.default_rng(124))
    assert not np.array_equal(a, c)


def test_frame_length_each_bandwidth():
    for bw in BANDWIDTH_TABLE:
        cfg = FrameConfig.from_bandwidth(bw)
        x = frame_samples(cfg, Pci(0), np.random.default_rng(0))
        assert x.size == cfg.frame_len
    assert FrameConfig.from_bandwidth(1.4).frame_len == 19200


def test_single_subcarrier_is_constant_magnitude_tone(cfg14):
    grid = build_frame(cfg14, Pci(0))
    grid[:] = 0
    grid[7, 3] = 1.0
    x = ofdm_modulate(grid, cfg14)
    # symbol 3 of slot 0: skip its CP, look at the 128-sample body
    start = sum(cfg14.cp_len(k) + cfg14.fft_size for k in range(3))
    body = x[start + cfg14.cp_len(3): start + cfg14.cp_len(3) + cfg14.fft_size]
    mags = np.abs(body)
    assert mags.std() / mags.mean() < 1e-9


def test_ofdm_round_trip(cfg14):
    grid = build_frame(cfg14, Pci(101), np.random.default_rng(7))
    back = ofdm_demodulate(ofdm_modulate(grid, cfg14), cfg14)
    scale = np.abs(grid).max()
    assert np.abs(back - grid).max() / scale < 1e-9


def test_energy_conservation_unitary(cfg14):
    """Unitary DFT: each symbol body carries exactly the grid-column energy."""
    grid = build_frame(cfg14, Pci(55))
    x = ofdm_modulate(grid, cfg14)
    pos = 0
    for k in range(4):
        cp = cfg14.cp_len(k)
        body = x[pos + cp: pos + cp + cfg14.fft_size]
        col = np.sum(np.abs(grid[:, k]) ** 2)
        assert abs(np.sum(np.abs(body) ** 2) - col) < 1e-9
        pos += cp + cfg14.fft_size


def test_preamble_frames_identical(cfg14):
    a = frame_samples(cfg14, Pci(300), np.random.default_rng(0))
    b = frame_samples(cfg14, Pci(300), np.random.default_rng(0))
    assert np.array_equal(a, b)


def test_extended_cp_rejected_at_construction():
    # the bandwidth alone sets the geometry; there is no cyclic-prefix choice
    with pytest.raises(TypeError, match="cp_scheme"):
        FrameConfig(bandwidth_mhz=1.4, cp_scheme="extended")


@pytest.mark.parametrize("bw", [1.4, 5.0, 20.0])
def test_batched_frames_match_single_frame_calls(bw):
    """n frames from one call equal n single-frame calls on one Generator."""
    cfg = FrameConfig.from_bandwidth(bw)
    n = 3
    rng = np.random.default_rng([11, 4])
    single = np.concatenate([frame_samples(cfg, Pci(250), rng)
                             for _ in range(n)])
    batched_rng = np.random.default_rng([11, 4])
    batched = frame_samples(cfg, Pci(250), batched_rng, n_frames=n)
    assert batched.shape == (n * cfg.frame_len,)
    assert np.abs(batched - single).max() <= 1e-12 * np.abs(single).max()
    # both consumed the same number of draws
    assert rng.integers(1 << 30) == batched_rng.integers(1 << 30)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("bw", sorted(BANDWIDTH_TABLE))
def test_frames_equal_the_batched_reference(bw, n):
    """Drawn and built frame by frame, the frames equal, to the bit, the
    build that drew every frame's payload at once and gave each frame a
    fresh grid; both leave the Generator in the same state."""
    cfg = FrameConfig.from_bandwidth(bw)
    rng, ref_rng = np.random.default_rng([11, n]), np.random.default_rng([11, n])
    assert np.array_equal(frame_samples(cfg, Pci(250), rng, n_frames=n),
                          frame_samples_batched(cfg, Pci(250), ref_rng, n))
    assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(bw=st.sampled_from(sorted(BANDWIDTH_TABLE)), pci=st.integers(0, 503),
       n=st.integers(1, 3), seed=st.integers(0, 2**63 - 1))
@example(bw=20.0, pci=503, n=3, seed=0)
@example(bw=1.4, pci=0, n=1, seed=1)
def test_frames_equal_the_batched_reference_for_any_cell(bw, pci, n, seed):
    """For any PCI, bandwidth, frame count and seed, the frames equal the
    batched reference to the bit, and both leave the Generator in the same
    state. Each frame holds its PCI's SSS and PSS on the central 62
    subcarriers of symbols 5 and 6 of slots 0 and 10."""
    cfg, p = FrameConfig.from_bandwidth(bw), Pci(pci)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = frame_samples(cfg, p, rng, n_frames=n)
    assert np.array_equal(x, frame_samples_batched(cfg, p, ref_rng, n))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    c62 = central_62_bins(cfg.fft_size)
    symbols = ofdm_demodulate(x, cfg)[c62].reshape(62, n, SYMBOLS_PER_FRAME)
    pss = generate_pss(p.sector)
    for col, seq in [(5, generate_sss(p.group, p.sector, 0)), (6, pss),
                     (75, generate_sss(p.group, p.sector, 5)), (76, pss)]:
        assert np.abs(symbols[:, :, col] - seq[:, None]).max() < 1e-9


def test_frame_build_holds_its_output_and_few_grids():
    """Building 8 frames at 20 MHz allocates at most the 37.5 MiB output,
    one (140, 2048) frame grid and 3 MiB for a frame's payload draw and its
    index temporaries at its peak: each frame's IFFT is taken in the grid
    and copied into the output symbol by symbol, with no body buffer and
    no gather table."""
    cfg = FrameConfig.from_bandwidth(20.0)
    n = 8
    out_bytes = n * cfg.frame_len * 16
    bound = out_bytes + SYMBOLS_PER_FRAME * cfg.fft_size * 16 + 3 * 2**20
    frame_samples(cfg, Pci(101), np.random.default_rng(0))   # caches warm
    tracemalloc.start()
    try:
        x = frame_samples(cfg, Pci(101), np.random.default_rng(1), n_frames=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.nbytes == out_bytes
    assert peak < bound, \
        f"peak {peak / 2**20:.1f} MiB against {bound / 2**20:.1f}"


def test_ofdm_round_trip_multiple_frames(cfg14):
    rng = np.random.default_rng(3)
    grids = [build_frame(cfg14, Pci(101), rng)
             for _ in range(3)]
    x = np.concatenate([ofdm_modulate(g, cfg14) for g in grids])
    back = ofdm_demodulate(x, cfg14)
    assert back.shape == (cfg14.fft_size, 3 * 140)
    assert np.abs(back - np.hstack(grids)).max() < 1e-9
    joint = ofdm_modulate(np.hstack(grids), cfg14)
    assert np.abs(joint - x).max() < 1e-12


def test_ofdm_demodulate_rejects_partial_frames(cfg14):
    with pytest.raises(ValueError, match="whole"):
        ofdm_demodulate(np.zeros(cfg14.frame_len + 1, complex), cfg14)
    with pytest.raises(ValueError, match="whole"):
        ofdm_demodulate(np.zeros(0, complex), cfg14)


def test_ofdm_modulate_needs_whole_frames(cfg14):
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros((cfg14.fft_size, 141), complex), cfg14)
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros((64, 140), complex), cfg14)


@pytest.mark.parametrize("span", [(684, 960), (0, 19200), (9000, 10600)])
def test_sync_segment_matches_data_free_frames(cfg14, span):
    """Rows equal slices of whole data-free frames to the bit, for spans
    holding the slot-0 sync pair, all four sync symbols, or the slot-10
    pair alone."""
    lo, hi = span
    pcis = [0, 1, 2, 250, 503]
    got = sync_segment(cfg14, pcis, lo, hi)
    assert got.shape == (len(pcis), hi - lo)
    for row, p in zip(got, pcis):
        assert np.array_equal(
            row, ofdm_modulate(build_frame(cfg14, Pci(p)), cfg14)[lo:hi])


_CFG14 = FrameConfig.from_bandwidth(1.4)
# the first sample of each symbol of a 1.4 MHz frame, then the frame's end
_SYMBOL_STARTS = np.concatenate([[0], np.cumsum(
    [_CFG14.cp_len(s % 7) + _CFG14.fft_size
     for s in range(SYMBOLS_PER_FRAME)])])
# where a span's end changes which part of which sync symbol it holds: the
# start, end and cyclic-prefix end of each of the four sync symbols
_SYNC_EDGES = sorted({int(_SYMBOL_STARTS[c + d]) for c in (5, 6, 75, 76)
                      for d in (0, 1)} |
                     {int(_SYMBOL_STARTS[c]) + _CFG14.cp_len(c % 7)
                      for c in (5, 6, 75, 76)})
_span_ends = st.one_of(
    st.integers(0, _CFG14.frame_len),
    st.builds(lambda e, d: min(max(e + d, 0), _CFG14.frame_len),
              st.sampled_from(_SYNC_EDGES), st.integers(-12, 12)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ends=st.tuples(_span_ends, _span_ends).filter(lambda t: t[0] != t[1]),
       pcis=st.lists(st.integers(0, 503), min_size=1, max_size=6))
@example(ends=(0, 600), pcis=[7])                   # no sync symbol
@example(ends=(700, 750), pcis=[1, 2])              # part of the slot-0 SSS
@example(ends=(684, 960), pcis=[503, 2, 2, 0])      # the slot-0 pair
@example(ends=(10286, 10560), pcis=[250, 5, 250])   # the slot-10 pair
@example(ends=(0, 19200), pcis=[4, 3])              # all four
def test_sync_segment_is_any_span_of_data_free_frames(ends, pcis):
    """Any span lo < hi of one frame and any PCI list, repeats and
    unsorted order included: row k equals the span of PCI k's whole
    data-free frame, built one symbol at a time, to the bit."""
    lo, hi = sorted(ends)
    got = sync_segment(_CFG14, pcis, lo, hi)
    assert got.shape == (len(pcis), hi - lo)
    frames = {p: ofdm_modulate(build_frame(_CFG14, Pci(p)), _CFG14)
              for p in set(pcis)}
    for row, p in zip(got, pcis):
        assert np.array_equal(row, frames[p][lo:hi])


@pytest.mark.parametrize("share,stalled", [(1, False), (2, False),
                                           (3, False), (2, True), (3, True)])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_overlap_finishes_every_job_in_order(share, stalled, n):
    """Every job is worked once and finished in order on the thread that
    calls _overlap, which also draws the jobs; at most share + 1 drawn jobs
    are unfinished at once, and one at a time when the process has one
    CPU. Helper threads that never start hold nothing back: the caller
    works every job and returns. Share 3 runs more threads than two CPUs,
    with frequent thread switches, and the call must return within the
    timeout."""
    drawn, finished, held, worked, errors = [], [], [], [], []
    lock = threading.Lock()

    def jobs():
        for k in range(n):
            drawn.append((k, threading.get_ident()))
            held.append(len(drawn) - len(finished))
            yield k, k * k

    def work(k, v):
        with lock:
            worked.append((k, threading.get_ident()))
        return k, v + 1

    def finish(k, out):
        finished.append((k, out, threading.get_ident()))

    def caller():
        try:
            lte._overlap(work, jobs(), finish)
        except BaseException as e:
            errors.append(e)

    release = threading.Event()
    stalled_pool = ThreadPoolExecutor(share - 1) if stalled else None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cpu_share(share) as mp:
            if share == 1:   # ThreadPoolExecutor(0) raises
                mp.setattr(lte, "_helpers",
                           lambda: errors.append("helpers at one CPU"))
            elif stalled:   # each of the pool's threads stalls
                for _ in range(share - 1):
                    stalled_pool.submit(release.wait)
                mp.setattr(lte, "_helpers", lambda: stalled_pool)
            t = threading.Thread(target=caller, daemon=True)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive(), "_overlap did not return"
            pool = lte._helper_pool
            if share > 1 and not stalled:     # the helpers it ran with
                assert pool[1]._max_workers == share - 1
            else:
                assert pool is None
    finally:
        sys.setswitchinterval(interval)
        release.set()
        if stalled:
            stalled_pool.shutdown()
    assert not errors
    assert sorted(k for k, _ in worked) == list(range(n))
    if stalled:
        assert all(tid == t.ident for _, tid in worked)
    assert [k for k, _ in drawn] == list(range(n))
    assert finished == [(k, (k, k * k + 1), t.ident) for k in range(n)]
    assert all(tid == t.ident for _, tid in drawn)
    assert max(held, default=0) <= (1 if share == 1 else share + 1)


@pytest.mark.parametrize("where", ["work", "jobs", "finish", "piece"])
def test_overlap_raises_and_frees_the_helper_threads(where):
    """An error in a work, in drawing a job, in finishing one or in a piece
    of a job's split pass reaches the caller, and no helper thread is left
    serving: a task submitted to the helper pool afterwards runs on its
    one thread at once. The piece that raises is the one the job's own
    thread leaves in the queue for another thread to take, and the job's
    thread waits for it."""
    started = threading.Event()

    def piece(i):
        if i == 0:      # hold the job's thread until piece 1 is taken
            started.wait(10)
        else:
            started.set()
            raise KeyError(i)

    def jobs():
        for k in range(6):
            if where == "jobs" and k == 3:
                raise KeyError(k)
            yield (k,)

    def work(k):
        if where == "work" and k == 2:
            raise KeyError(k)
        if where == "piece" and k == 2:
            lte._split(piece, 2)
        return k

    def finish(k, _out):
        if where == "finish" and k == 1:
            raise KeyError(k)

    with cpu_share(2):
        with pytest.raises(KeyError):
            lte._overlap(work, jobs(), finish)
        helper = lte._helpers().submit(threading.get_ident).result(timeout=10)
    assert helper != threading.get_ident()


@pytest.mark.parametrize("case", ["overlap", "split"])
def test_a_stalled_helper_holds_nothing_back(case):
    """A helper thread that never starts holds back no overlapped job and
    no piece of a job's split pass: the caller works them all and
    returns."""
    release = threading.Event()
    pool = ThreadPoolExecutor(1)
    pool.submit(release.wait)       # the pool's one thread stalls
    ran, errors = [], []
    pieces = 4 if case == "split" else 1

    def work(k):
        if case == "split":
            lte._split(lambda i: ran.append(threading.get_ident()), pieces)
        else:
            ran.append(threading.get_ident())

    def caller():
        try:
            lte._overlap(work, ((k,) for k in range(6)), lambda k, out: None)
        except BaseException as e:
            errors.append(e)

    try:
        with cpu_share(2) as mp:
            mp.setattr(lte, "_helpers", lambda: pool)
            t = threading.Thread(target=caller, daemon=True)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive(), f"{case} waited for the stalled helper"
    finally:
        release.set()
        pool.shutdown()
    assert not errors
    assert ran == [t.ident] * 6 * pieces


@pytest.mark.parametrize("share", [1, 2, 3])
def test_overlap_holds_no_finished_job(share):
    """No job's array, nor its work's output, is held after the job is
    finished: each time a job is drawn, at most share earlier jobs are
    alive when helper threads work the jobs, the ones not yet finished,
    and none at one CPU, where each job is finished before the next is
    drawn."""
    arrays, outputs, alive = [], {}, []

    def job(k):     # built outside jobs(), whose frame would hold it
        arrays.append(weakref.ref(a := np.full(64, float(k))))
        return k, a

    def jobs():
        for k in range(12):
            alive.append(sum(
                a() is not None or (j in outputs and outputs[j]() is not None)
                for j, a in enumerate(arrays)))
            yield job(k)

    def work(k, a):
        time.sleep(1e-3)    # releases the GIL, as numpy's large calls do
        outputs[k] = weakref.ref(out := a + 1.0)
        return out

    def finish(k, out):
        assert out[0] == k + 1.0

    with cpu_share(share):
        lte._overlap(work, jobs(), finish)
    assert len(alive) == 12
    assert max(alive) <= (share if share > 1 else 0)


@pytest.mark.parametrize("share", [1, 2, 3])
def test_split_runs_every_piece_once(share):
    """Every piece of a split pass runs once before _split returns: in
    order on the calling thread outside an _overlap job and at one CPU,
    and on the job's thread and the threads that take the pass's queued
    pieces inside one. Share 3 runs more threads than two CPUs, with frequent
    thread switches, and the call must return within the timeout."""
    count = 64
    ran, got, errors = {0: [], 1: [], 2: []}, [], []

    def work(k):
        def piece(i):
            time.sleep(1e-4)    # releases the GIL, as numpy's calls do
            ran[k].append((i, threading.get_ident()))

        lte._split(piece, count)
        return sorted(i for i, _ in ran[k])

    def caller():
        try:
            got.append(work(0))     # outside a job
            lte._overlap(work, [(1,), (2,)], lambda k, out: got.append(out))
        except BaseException as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cpu_share(share):
            t = threading.Thread(target=caller, daemon=True)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive(), "_split did not return"
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert got == [list(range(count))] * 3
    in_order = [(i, t.ident) for i in range(count)]
    assert ran[0] == in_order
    if share == 1:
        assert ran[1] == ran[2] == in_order


@settings(max_examples=100, deadline=None, derandomize=True)
@given(counts=st.lists(st.integers(1, 8), min_size=1, max_size=4),
       share=st.integers(1, 3), stalled=st.booleans(),
       error=st.sampled_from([None, "piece", "job"]),
       where=st.tuples(st.integers(0, 3), st.integers(0, 7)))
def test_overlap_of_split_jobs_completes_each_piece_once(counts, share,
                                                         stalled, error,
                                                         where):
    """Jobs that each split a pass of counts[k] pieces, at CPU shares 1-3,
    with or without a stalled helper pool, and with no error, a piece
    raising or a job raising: the jobs finish in order on the caller up to
    the one that raised, whose error reaches the caller; every piece runs
    at most once, and exactly once in each pass whose job returned; the
    pass's array is dead once _split returns, and every job's argument
    once _overlap returns; and _overlap returns within the timeout."""
    bad_job = where[0] % len(counts)
    bad = (bad_job, where[1] % counts[bad_job]) if error else None
    ran = {k: [] for k in range(len(counts))}
    args, finished, dead, errors = [], [], [], []
    lock = threading.Lock()

    def job(k):     # built outside the generator, whose frame would hold it
        args.append(weakref.ref(a := np.zeros(1)))
        return k, a

    def fill(k, a, i):
        time.sleep(1e-4)    # releases the GIL, as numpy's calls do
        with lock:
            ran[k].append(i)
        if error == "piece" and (k, i) == bad:
            raise KeyError(("piece", k))
        a[i] = i

    def work(k, _arg):
        a = np.full(8, -1.0)
        array = weakref.ref(a)
        lte._split(partial(fill, k, a), counts[k])
        del a
        dead.append((k, array() is None))
        if error == "job" and k == bad[0]:
            raise KeyError(("job", k))
        return k

    def caller():
        try:
            lte._overlap(work, (job(k) for k in range(len(counts))),
                         lambda k, out: finished.append((k, out)))
        except KeyError as e:
            errors.append(e.args[0])

    release = threading.Event()
    stalled = stalled and share > 1
    pool = ThreadPoolExecutor(share - 1) if stalled else None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cpu_share(share) as mp:
            if stalled:     # each of the pool's threads stalls
                for _ in range(share - 1):
                    pool.submit(release.wait)
                mp.setattr(lte, "_helpers", lambda: pool)
            t = threading.Thread(target=caller, daemon=True)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive(), "_overlap did not return"
            if error:   # its traceback holds the frames it left in a cycle
                gc.collect()
            alive = [k for k, a in enumerate(args) if a() is not None]
    finally:
        sys.setswitchinterval(interval)
        release.set()
        if stalled:     # not waited for: a deadlock must fail, not hang
            pool.shutdown(wait=False)
    last = len(counts) if bad is None else bad[0]
    assert errors == ([] if bad is None else [(error, bad[0])])
    assert finished == [(k, k) for k in range(last)]
    assert not alive
    for k, pieces in ran.items():
        assert len(pieces) == len(set(pieces))
        if k < last:
            assert sorted(pieces) == list(range(counts[k]))
    assert all(d for _, d in dead)
    assert {k for k, _ in dead} >= set(range(last))


_NO_AFFINITY_SCRIPT = """
import os
if hasattr(os, "sched_getaffinity"):
    del os.sched_getaffinity     # as on macOS and Windows
from foldloc import lte
print(lte._CPU_SHARE == (os.cpu_count() or 1))
"""


def test_import_without_sched_getaffinity():
    """Where os has no sched_getaffinity, foldloc imports and shares out
    every CPU os.cpu_count counts."""
    out = subprocess.run([sys.executable, "-c", _NO_AFFINITY_SCRIPT],
                         capture_output=True, text=True, env=child_env(),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


@pytest.mark.skipif(lte._numpy_openblas() is None,
                    reason="numpy has no OpenBLAS")
def test_blas_on_caller_restores_the_previous_thread_count():
    """numpy's OpenBLAS runs one thread inside the context and the count
    it had before after it, so the host's BLAS setting never changes."""
    get, set_ = lte._numpy_openblas()
    prev = get()
    try:
        for n in (2, prev):
            set_(n)
            with lte._blas_on_caller():
                assert get() == 1
            assert get() == n
    finally:
        set_(prev)

"""Frame synthesis: sync sequences, grid layout, OFDM round trip."""
import cmath

import numpy as np
import pytest

from foldloc.lte import (BANDWIDTH_TABLE, FrameConfig, Pci,
                         build_frame, central_62_bins, frame_samples,
                         generate_pss, generate_sss, ofdm_demodulate,
                         ofdm_modulate)


def test_pci_decomposition():
    p = Pci(503)
    assert p.group == 167 and p.sector == 2
    assert Pci.from_parts(167, 2).value == 503
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
    grid = build_frame(cfg14, Pci(37), "none")
    sync = central_62_bins(cfg14.fft_size)
    # PSS at the last symbol of slots 0 and 10, SSS immediately before
    for col in (5, 6, 75, 76):
        assert np.abs(grid[sync, col]).min() > 0.0
    assert np.abs(grid[0, :]).max() == 0.0      # DC row empty
    occupied = np.abs(grid) > 0
    assert occupied.sum() == 4 * 62


def test_grid_energy_none_mode(cfg14):
    grid = build_frame(cfg14, Pci(37), "none")
    total = np.sum(np.abs(grid) ** 2)
    sync_cols = np.sum(np.abs(grid[:, [5, 6, 75, 76]]) ** 2)
    assert abs(total - sync_cols) < 1e-9


def test_grid_data_mode_10mhz():
    cfg = FrameConfig.from_bandwidth(10)
    grid = build_frame(cfg, Pci(0), "random_qpsk", rng_seed=5)
    col = 10                                  # an arbitrary non-sync symbol
    occ = np.abs(grid[:, col]) > 0
    assert occ.sum() == 600                   # 50 RB x 12 subcarriers
    vals = grid[occ, col]
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-12


def test_build_frame_deterministic(cfg14):
    a = build_frame(cfg14, Pci(9), "random_qpsk", rng_seed=123)
    b = build_frame(cfg14, Pci(9), "random_qpsk", rng_seed=123)
    assert np.array_equal(a, b)
    c = build_frame(cfg14, Pci(9), "random_qpsk", rng_seed=124)
    assert not np.array_equal(a, c)


def test_frame_length_each_bandwidth():
    for bw in BANDWIDTH_TABLE:
        cfg = FrameConfig.from_bandwidth(bw)
        x = frame_samples(cfg, Pci(0), "none")
        assert x.size == cfg.frame_len
    assert FrameConfig.from_bandwidth(1.4).frame_len == 19200


def test_single_subcarrier_is_constant_magnitude_tone(cfg14):
    grid = build_frame(cfg14, Pci(0), "none")
    grid[:] = 0
    grid[7, 3] = 1.0
    x = ofdm_modulate(grid, cfg14)
    # symbol 3 of slot 0: skip its CP, look at the 128-sample body
    start = sum(cfg14.cp_len(k) + cfg14.fft_size for k in range(3))
    body = x[start + cfg14.cp_len(3): start + cfg14.cp_len(3) + cfg14.fft_size]
    mags = np.abs(body)
    assert mags.std() / mags.mean() < 1e-9


def test_ofdm_round_trip(cfg14):
    grid = build_frame(cfg14, Pci(101), "random_qpsk", rng_seed=7)
    back = ofdm_demodulate(ofdm_modulate(grid, cfg14), cfg14)
    scale = np.abs(grid).max()
    assert np.abs(back - grid).max() / scale < 1e-9


def test_energy_conservation_unitary(cfg14):
    """Unitary DFT: each symbol body carries exactly the grid-column energy."""
    grid = build_frame(cfg14, Pci(55), "none")
    x = ofdm_modulate(grid, cfg14)
    pos = 0
    for k in range(4):
        cp = cfg14.cp_len(k)
        body = x[pos + cp: pos + cp + cfg14.fft_size]
        col = np.sum(np.abs(grid[:, k]) ** 2)
        assert abs(np.sum(np.abs(body) ** 2) - col) < 1e-9
        pos += cp + cfg14.fft_size


def test_preamble_frames_identical(cfg14):
    a = frame_samples(cfg14, Pci(300), "none")
    b = frame_samples(cfg14, Pci(300), "none")
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
    single = np.concatenate([frame_samples(cfg, Pci(250), "random_qpsk", rng)
                             for _ in range(n)])
    batched_rng = np.random.default_rng([11, 4])
    batched = frame_samples(cfg, Pci(250), "random_qpsk", batched_rng, n_frames=n)
    assert batched.shape == (n * cfg.frame_len,)
    assert np.abs(batched - single).max() <= 1e-12 * np.abs(single).max()
    # both consumed the same number of draws
    assert rng.integers(1 << 30) == batched_rng.integers(1 << 30)


def test_ofdm_round_trip_multiple_frames(cfg14):
    rng = np.random.default_rng(3)
    grids = [build_frame(cfg14, Pci(101), "random_qpsk", rng)
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

"""Receiver chain: path loss, squaring, filtering, superposition, overlap."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import upfirdn

from foldloc import frontend
from conftest import fold_frame
from foldloc.frontend import (DETECTOR_RATE_HZ, SPEED_OF_LIGHT, CellConfig,
                              design_lowpass, fold_baseband, lowpass_decimate,
                              arrival, path_amplitude)
from foldloc.lte import FrameConfig, Pci, frame_samples
from oracles import (MultipathProfile, correlate_bank, envelope_square,
                     folded_sync_overlap, receive_rf, superpose)

FS_RF = 153.6e6          # 80x the detector rate, integer decimation


def _cell(pci, carrier, bw=1.4, pos=(0.0, 0.0), dbm=30.0, origin=0.0):
    return CellConfig(pci=Pci(pci), carrier_hz=carrier,
                      frame_cfg=FrameConfig.from_bandwidth(bw),
                      position=pos, tx_power_dbm=dbm,
                      frame_time_origin_s=origin)


def test_path_amplitude_inverse_distance():
    assert abs(path_amplitude(200.0, 1e9) - path_amplitude(100.0, 1e9) / 2) < 1e-18
    f_unit = SPEED_OF_LIGHT / (4 * np.pi)
    assert abs(path_amplitude(1.0, f_unit) - 1.0) < 1e-12
    expect = SPEED_OF_LIGHT / (4 * np.pi * 100.0 * 2.145e9)
    assert abs(path_amplitude(100.0, 2.145e9) - expect) < 1e-24


def test_path_amplitude_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_amplitude(0.0, 1e9)
    with pytest.raises(ValueError):
        path_amplitude(-5.0, 1e9)


def test_received_power_formula():
    """arrival gives the travel time plus the frame origin, the free-space
    amplitude scaled by the transmit power, and that power in dBm."""
    cell = _cell(0, 751e6, dbm=46.0, origin=1e-3)
    delay_s, amp, got = arrival(cell, (1000.0, 0.0))
    want = 46.0 + 20 * np.log10(path_amplitude(1000.0, 751e6))
    assert abs(got - want) < 1e-9
    assert delay_s == 1000.0 / SPEED_OF_LIGHT + 1e-3
    assert abs(30.0 + 20 * np.log10(amp) - got) < 1e-9


def test_envelope_square_basics():
    x = np.array([0.0, 1.0, -2.0, 3.5])
    assert np.array_equal(envelope_square(x), x * x)
    assert np.array_equal(envelope_square(np.zeros(8)), np.zeros(8))
    g = 3.0
    assert np.array_equal(envelope_square(g * x), g * g * envelope_square(x))
    with pytest.raises(TypeError):
        envelope_square(np.array([1 + 1j]))


def test_two_tone_expansion():
    """Squaring sin(f1)+sin(f2) produces exactly the four-term expansion."""
    fs = 40e6
    f1, f2 = 5e6, 4.3e6
    t = np.arange(8192) / fs
    x = np.sin(2 * np.pi * f1 * t) + np.sin(2 * np.pi * f2 * t)
    sq = envelope_square(x)
    closed = (1.0
              - 0.5 * np.cos(2 * np.pi * 2 * f1 * t)
              - 0.5 * np.cos(2 * np.pi * 2 * f2 * t)
              + np.cos(2 * np.pi * (f1 - f2) * t)
              - np.cos(2 * np.pi * (f1 + f2) * t))
    assert np.abs(sq - closed).max() < 1e-9


def test_two_tone_difference_survives_filter():
    # 700 kHz difference tone is in band, everything else above cutoff
    fs = 7.68e6                      # decimate by 4
    f1, f2 = 3.0e6, 2.3e6
    n = int(fs * 0.01)
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * f1 * t) + np.sin(2 * np.pi * f2 * t)
    y = lowpass_decimate(envelope_square(x), fs)
    td = np.arange(y.size) / DETECTOR_RATE_HZ
    want = 1.0 + np.cos(2 * np.pi * (f1 - f2) * td)
    core = slice(200, y.size - 200)  # skip filter edge transients
    assert np.abs(y[core] - want[core]).max() < 0.01


def test_lowpass_dc_and_stopband():
    taps = design_lowpass(FS_RF)
    assert taps.size % 2 == 1
    w = np.abs(np.fft.rfft(taps, 1 << 20))
    f = np.fft.rfftfreq(1 << 20, 1.0 / FS_RF)
    assert abs(w[0] - 1.0) < 0.01
    stop = w[f > 40e6].max()
    assert 20 * np.log10(stop) < -60.0


def test_tone_above_cutoff_attenuated():
    t = np.arange(int(FS_RF * 0.002)) / FS_RF
    tone = np.sin(2 * np.pi * 40e6 * t)
    out = lowpass_decimate(tone, FS_RF)
    ratio = np.mean(out ** 2) / np.mean(tone ** 2)
    assert 10 * np.log10(ratio) < -60.0


def test_lowpass_rejects_fractional_decimation():
    with pytest.raises(ValueError):
        lowpass_decimate(np.zeros(1000), 1.5 * DETECTOR_RATE_HZ)


def test_fold_homogeneity():
    cfg = FrameConfig.from_bandwidth(1.4)
    bb = frame_samples(cfg, Pci(12), np.random.default_rng(0))
    y1 = fold_baseband(bb, cfg.sample_rate_hz)
    y3 = fold_baseband(3.0 * bb, cfg.sample_rate_hz)
    assert np.allclose(y3, 9.0 * y1, rtol=1e-12, atol=0.0)


def test_fast_path_matches_rf_pipeline():
    """|I+jQ|^2 shortcut tracks the real-RF square+filter chain under 2% RMS."""
    cfg = FrameConfig.from_bandwidth(1.4)
    cell = _cell(77, 20e6, pos=(0.0, 0.0))
    rf = superpose([(cell, MultipathProfile())], (100.0, 0.0),
                   0.01, FS_RF, rng_seed=3)
    y_rf = receive_rf(rf, FS_RF)

    bb = frame_samples(cfg, Pci(77), np.random.default_rng([3, 0]))
    freqs = np.fft.fftfreq(bb.size, 1.0 / cfg.sample_rate_hz)
    delay = 100.0 / SPEED_OF_LIGHT
    bb = np.fft.ifft(np.fft.fft(bb) * np.exp(-2j * np.pi * freqs * delay))
    y_bb = fold_baseband(path_amplitude(100.0, 20e6) * bb, cfg.sample_rate_hz)
    err = np.sqrt(np.mean((y_rf - y_bb) ** 2) / np.mean(y_bb ** 2))
    assert err < 0.02


def test_superpose_delay_shifts_detector_peak(bank):
    """Ten detector samples of geometric delay move the peak by ten."""
    cell = _cell(77, 20e6)
    los = MultipathProfile()
    lags = []
    for d in (0.1, 10 * 156.25):
        rf = superpose([(cell, los)], (d, 0.0), 0.01, FS_RF, rng_seed=3)
        y = receive_rf(rf, FS_RF)
        lags.append(int(np.argmax(correlate_bank(y, bank.samples[77][None])[0])))
    assert lags[1] - lags[0] == 10


def test_superpose_multipath_linearity():
    # doubling the single tap doubles the RF exactly; a split two-tap
    # profile with the same total equals the doubled one
    cell = _cell(5, 20e6)
    one = MultipathProfile(taps=((1.0, 0.0, 0.0),))
    two = MultipathProfile(taps=((2.0, 0.0, 0.0),))
    split = MultipathProfile(taps=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    rf1 = superpose([(cell, one)], (50.0, 0.0), 0.002, FS_RF, rng_seed=1)
    rf2 = superpose([(cell, two)], (50.0, 0.0), 0.002, FS_RF, rng_seed=1)
    rfs = superpose([(cell, split)], (50.0, 0.0), 0.002, FS_RF, rng_seed=1)
    assert np.allclose(rf2, 2.0 * rf1, rtol=1e-12, atol=1e-30)
    assert np.allclose(rfs, rf2, rtol=1e-12, atol=1e-30)


def test_superpose_empty_and_nyquist_guard():
    assert np.array_equal(superpose([], (0.0, 0.0), 0.001, FS_RF),
                          np.zeros(int(0.001 * FS_RF)))
    cell = _cell(0, 100e6)       # needs > 200 MHz sampling
    with pytest.raises(ValueError):
        superpose([(cell, MultipathProfile())], (10.0, 0.0), 0.001, FS_RF)


def test_multipath_requires_los_tap():
    with pytest.raises(ValueError):
        MultipathProfile(taps=())


def test_overlap_far_spacing_zero():
    a = _cell(0, 20e6)
    b = _cell(3, 70e6)
    assert folded_sync_overlap(a, b) == 0.0


def test_overlap_identical_carriers_full():
    a = _cell(0, 20e6)
    b = _cell(3, 20e6)
    assert abs(folded_sync_overlap(a, b) - 100.0) < 1e-9


def test_overlap_adjacent_channels():
    """Adjacent 1.4 MHz carriers leak about half their cross power into
    the sync band; value frozen from the numeric oracle at seed 0."""
    a = _cell(0, 20.0e6)
    b = _cell(3, 21.4e6)
    v = folded_sync_overlap(a, b)
    assert abs(v - 54.30) < 0.5
    v7 = folded_sync_overlap(a, b, rng_seed=7)
    assert 40.0 < v7 < 70.0


def test_folded_spectrum_confined_preamble():
    """Preamble-only folded frame keeps its energy under twice the sync
    half-bandwidth (62 bins -> 930 kHz after squaring); the only leakage
    above that is CP boundary discontinuities at the -40 dB level."""
    y = fold_frame(17)
    spec = np.abs(np.fft.rfft(y - y.mean())) ** 2
    f = np.fft.rfftfreq(y.size, 1.0 / 1.92e6)
    high = spec[f > 0.94e6].sum() / spec.sum()
    assert high < 1e-3


@pytest.mark.parametrize("dec", [4, 8, 16, 80])
@pytest.mark.parametrize("extra", [0, 3])
def test_lowpass_decimate_matches_full_rate_filter(dec, extra):
    """The decimating FIR keeps exactly the samples of the full-rate
    'same'-mode convolution at multiples of dec, also for inputs shorter
    than the filter."""
    from scipy.signal import fftconvolve
    fs = dec * DETECTOR_RATE_HZ
    rng = np.random.default_rng(dec)
    for n in (257 * dec + extra, 37 * dec + 1 + extra, 3 * dec + 1 + extra):
        sq = rng.standard_normal(n) ** 2
        want = fftconvolve(sq, design_lowpass(fs), mode="same")[::dec]
        got = lowpass_decimate(sq, fs)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _whole_trace_fir(sq, taps, dec):
    """The decimating FIR as one upfirdn call over the whole trace."""
    center = (taps.size - 1) // 2
    lead = -center % dec
    first = (center + lead) // dec
    y = upfirdn(np.concatenate([np.zeros(lead), taps]), sq, down=dec)
    return y[..., first:first + -(-sq.shape[-1] // dec)]


def _one_piece_fir(sq, fs):
    """lowpass_decimate with its outputs in one piece."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontend, "_CHUNK", 1 << 40)
        return lowpass_decimate(sq, fs)


def _assert_block_fir(got, sq, fs, dec):
    """got has the one-piece output's bits, and is upfirdn's output for
    the whole trace to within 1e-13 of its largest sample."""
    assert np.array_equal(got, _one_piece_fir(sq, fs))
    want = _whole_trace_fir(sq, design_lowpass(fs), dec)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(dec=st.sampled_from([2, 4, 8, 16]), n=st.integers(1, 6000),
       rows=st.sampled_from([(), (2,)]), chunk=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_block_fir_equals_whole_trace_upfirdn(dec, n, rows, chunk, seed):
    """However the outputs are cut into blocks, each has the bits of the
    unsplit polyphase filter, and agrees with upfirdn over the whole
    trace; at dec 1 no FIR runs (test_all_pass_returns_its_input)."""
    fs = dec * DETECTOR_RATE_HZ
    sq = np.random.default_rng(seed).standard_normal(rows + (n,)) ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontend, "_CHUNK", chunk)
        got = lowpass_decimate(sq, fs)
    _assert_block_fir(got, sq, fs, dec)


def test_block_fir_equals_whole_trace_upfirdn_on_a_long_input():
    """The same on 2**19 + 7 samples: many blocks of the real _CHUNK and
    a short last one."""
    for dec in (4, 8, 16):
        fs = dec * DETECTOR_RATE_HZ
        sq = np.random.default_rng(dec).standard_normal((1 << 19) + 7) ** 2
        _assert_block_fir(lowpass_decimate(sq, fs), sq, fs, dec)


def test_all_pass_returns_its_input():
    sq = np.arange(10.0)
    assert lowpass_decimate(sq, DETECTOR_RATE_HZ) is sq


@pytest.mark.parametrize("fs", [3.84e6, 7.68e6, 15.36e6, 23.04e6, 30.72e6,
                                153.6e6])
def test_design_lowpass_equals_firwin(fs):
    """The numpy Kaiser design has the bits of scipy.signal's."""
    from scipy.signal import firwin, kaiserord
    ntaps, beta = kaiserord(frontend.LPF_ATTEN_DB,
                            frontend.LPF_TRANSITION_HZ / (fs / 2.0))
    want = firwin(ntaps | 1, frontend.LPF_CUTOFF_HZ / (fs / 2.0),
                  window=("kaiser", beta))
    assert np.array_equal(design_lowpass(fs), want)


def test_design_lowpass_cached_read_only():
    taps = design_lowpass(FS_RF)
    assert design_lowpass(FS_RF) is taps
    assert design_lowpass(FS_RF / 2) is not taps
    with pytest.raises(ValueError):
        taps[0] = 1.0

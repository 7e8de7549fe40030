"""Template bank, correlation, hierarchical search, suppression."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import fold_frame
import oracles
from foldloc.detect import (FRAME_LEN, HALF_FRAME, PSS_TEMPLATE_LEN, SSS_END,
                            STAGE1_GROUP_GAP, TEMPLATE_LEN, TEMPLATE_START,
                            Detection, _stage1_candidates, _window_norms,
                            build_bank, hierarchical_detect, refine,
                            stack_frames, suppress_false_positives)
from foldloc.cli import read_detections_csv, write_detections_csv
from foldloc.harness import _bank_for, detect_trace
from foldloc.lte import Pci
from oracles import correlate_bank


def test_bank_shape_and_normalization(bank):
    assert bank.samples.shape == (504, TEMPLATE_LEN)
    assert bank.norms.shape == (504,)
    for p in (0, 251, 503):
        tpl = bank.samples[p]
        assert abs(np.linalg.norm(tpl) - 1.0) < 1e-9
        assert abs(tpl.mean()) < 1e-12
        assert bank.norms[p] > 0
    assert bank.pss_unit.shape == (2, PSS_TEMPLATE_LEN)
    assert np.allclose(np.linalg.norm(bank.pss_unit, axis=1), 1.0)
    assert np.allclose(bank.pss_unit.mean(axis=1), 0.0, atol=1e-12)
    for a in (bank.samples, bank.norms, bank.pss_unit, bank.pss_spec):
        assert not a.flags.writeable


def test_bank_deterministic_and_cached(fe):
    a = build_bank()
    b = build_bank()
    for name in ("samples", "norms", "pss_unit", "pss_spec"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    # one bank per process; no front-end field is part of its identity
    assert _bank_for(fe) is _bank_for(replace(fe, noise_sigma=0.5))


def test_bank_matches_full_frame_reference():
    """Each row is, to the bit, the window of the PCI's whole data-free
    frame folded to the detector rate, mean-removed and normalized."""
    samples = np.empty((504, TEMPLATE_LEN))
    norms = np.empty(504)
    for p in range(504):
        w = fold_frame(p)[TEMPLATE_START:TEMPLATE_START + TEMPLATE_LEN]
        w0 = w - w.mean()
        norms[p] = np.linalg.norm(w0)
        samples[p] = w0 / norms[p]
    pss = np.stack([fold_frame(p)[
        TEMPLATE_START + TEMPLATE_LEN - PSS_TEMPLATE_LEN:
        TEMPLATE_START + TEMPLATE_LEN] for p in (0, 1)])
    pss -= pss.mean(axis=1, keepdims=True)
    pss /= np.linalg.norm(pss, axis=1, keepdims=True)
    got = build_bank()
    assert np.array_equal(got.samples, samples)
    assert np.array_equal(got.norms, norms)
    assert np.array_equal(got.pss_unit, pss)


def test_bank_build_peaks_near_the_bank_it_keeps():
    """Building the bank allocates at its peak less than 0.3 MB beyond
    what the bank keeps (2.03 MB against 2.01 MB kept, measured), as it
    works a block of BANK_CHUNK PCIs at a time. One whole-bank
    (504, TEMPLATE_LEN) complex temporary, 2.2 MB, would fail here
    wherever it was made; freed, such a temporary raises glibc's mmap
    threshold, and later set-ups peak about 3 MB higher."""
    build_bank()    # caches warm
    tracemalloc.start()
    try:
        got = build_bank()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(getattr(got, k).nbytes for k in (
        "samples", "norms", "pss_unit", "pss_spec", "pss_halves", "stage2_op"))
    bound = kept + 300_000
    assert peak < bound, f"peak {peak / 1e6:.2f} MB against {bound / 1e6:.2f}"


def test_bank_pss_spectra_are_the_scan_windows_transformed(bank):
    """Stage 1 reads these spectra instead of transforming pss_unit on
    every fix; they must be that transform to the bit."""
    want = np.conj(np.fft.rfft(bank.pss_unit, n=FRAME_LEN, axis=1))
    assert np.array_equal(bank.pss_spec, want)
    with pytest.raises(ValueError, match="read-only"):
        bank.pss_spec[0, 0] = 0.0


@pytest.mark.parametrize("n", [FRAME_LEN - 1, 2 * FRAME_LEN])
def test_stage1_rejects_stack_not_one_frame_long(bank, n):
    with pytest.raises(ValueError, match=f"stacked frame of {n} samples"):
        hierarchical_detect(np.ones(n), bank)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_in_the_stacked_frame_raises(bank, bad):
    """A non-finite sample fails loudly, naming its index, instead of
    scoring nothing and returning no detections."""
    x = fold_frame(10)
    x[1234] = bad
    with pytest.raises(ValueError, match="non-finite sample at index 1234"):
        detect_trace(x, bank, n_stack=1)
    with pytest.raises(ValueError, match="non-finite sample at index 0"):
        detect_trace(np.full(FRAME_LEN, bad), bank, n_stack=1)


def test_windows_split_into_sss_and_a_shared_pss_half(bank):
    """The facts stage 2's split rests on: every PCI's raw folded window
    (its data-free frame, folded, before mean removal) opens with two zero
    samples and ends in its sector's PSS half to the bit; the PSS halves
    of sectors 1 and 2 stay two rows, about 1e-13 apart."""
    raw = np.stack([fold_frame(p)[TEMPLATE_START:TEMPLATE_START + TEMPLATE_LEN]
                    for p in range(504)])
    assert not raw[:, :2].any()
    assert np.array_equal(raw[:, SSS_END:], bank.pss_halves[np.arange(504) % 3])
    assert 0.0 < np.abs(bank.pss_halves[1] - bank.pss_halves[2]).max() < 1e-11


def test_stage2_operator_layout(bank):
    pcis = np.arange(504)
    op = bank.stage2_op
    assert op.shape == (SSS_END + 4, 504)
    assert np.array_equal(op[:SSS_END], bank.samples[:, :SSS_END].T)
    want = np.zeros((3, 504))
    want[pcis % 3, pcis] = 1.0 / bank.norms
    assert np.array_equal(op[SSS_END:-1], want)
    assert np.array_equal(op[-1], bank.samples[:, 0])
    again = build_bank()
    for name in ("pss_halves", "stage2_op"):
        assert np.array_equal(getattr(again, name), getattr(bank, name))
        assert not getattr(bank, name).flags.writeable


def test_split_product_scores_as_the_full_bank(bank):
    """[w[:139], w[139:] @ pss_halves.T, w[139:].sum()] @ stage2_op is
    w @ samples.T for mean-removed unit windows w."""
    w = np.random.default_rng(5).normal(size=(200, TEMPLATE_LEN))
    w -= w.mean(axis=1, keepdims=True)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    x = np.hstack([w[:, :SSS_END], w[:, SSS_END:] @ bank.pss_halves.T,
                   w[:, SSS_END:].sum(axis=1, keepdims=True)])
    assert np.abs(x @ bank.stage2_op - w @ bank.samples.T).max() < 1e-12


def test_folded_pss_halves_merge_for_conjugate_roots(bank):
    """Squaring erases the conjugacy between roots 29 and 34: the folded
    PSS symbol bodies (CP excluded; the CP shift breaks the symmetry)
    agree exactly for sector-1 and sector-2 of every group."""
    for g in (0, 83, 167):
        a = fold_frame(3 * g + 1)[832:960]
        b = fold_frame(3 * g + 2)[832:960]
        cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos >= 0.999


def test_sibling_full_templates_not_identical(bank):
    """The SSS halves differ between sectors 1 and 2 (sector-dependent
    scrambling), so full 276-sample sibling templates stay well apart even
    though their PSS halves merge. Range frozen from the built bank."""
    sib = np.array([bank.samples[3 * g + 1] @ bank.samples[3 * g + 2]
                    for g in range(168)])
    assert sib.max() < 0.5
    assert abs(sib.mean() - 0.198) < 0.01


def test_stack_identity_and_mean():
    x = np.arange(2 * FRAME_LEN, dtype=float)
    assert np.array_equal(stack_frames(x[:FRAME_LEN], 1), x[:FRAME_LEN])
    got = stack_frames(x, 2)
    assert np.allclose(got, (x[:FRAME_LEN] + x[FRAME_LEN:]) / 2)
    with pytest.raises(ValueError):
        stack_frames(x, 3)


def test_stack_identical_frames_exact():
    frame = fold_frame(100)
    assert np.allclose(stack_frames(np.tile(frame, 16), 16), frame,
                       rtol=0, atol=1e-15)


def test_stacking_shrinks_noise_floor_sqrt_n(bank):
    """Matched-filter noise floor drops by sqrt(16)=4 under 16-frame
    stacking while the (deterministic) peak is untouched. Band frozen
    from 20-trial measurement: per-trial in [3.89, 4.07]."""
    tpl = bank.samples[100]
    frame = fold_frame(100)
    win = frame[TEMPLATE_START:TEMPLATE_START + TEMPLATE_LEN]
    sigma = float(np.dot(win - win.mean(), tpl))

    def floor_std(x):
        y = np.convolve(x, tpl[::-1], mode="valid")
        mask = np.ones(y.size, bool)
        mask[TEMPLATE_START - 300:TEMPLATE_START + 576] = False
        return y[mask].std()

    ratios = []
    for trial in range(20):
        rng = np.random.default_rng(trial)
        noisy = np.tile(frame, 16) + rng.normal(0, sigma, 16 * FRAME_LEN)
        ratios.append(floor_std(noisy[:FRAME_LEN])
                      / floor_std(stack_frames(noisy, 16)))
    r = np.array(ratios)
    assert 3.5 < r.min() and r.max() < 4.5
    assert abs(r.mean() - 4.0) < 0.3


def test_correlate_self_peak(bank):
    tpl = bank.samples[42]
    x = np.zeros(FRAME_LEN)
    x[:TEMPLATE_LEN] = tpl
    c = correlate_bank(x, tpl[None])[0]
    assert c.shape == (FRAME_LEN,)
    assert int(np.argmax(c)) == 0
    assert abs(c[0] - 1.0) < 1e-6
    assert c.min() >= -1.0 and c.max() <= 1.0


def _ncc_by_definition(x, tpl, lag):
    """NCC of one template at one circular lag: gather, demean, dot."""
    w = x.take(np.arange(lag, lag + tpl.size), mode="wrap")
    w0 = w - w.mean()
    return float(w0 @ tpl / np.linalg.norm(w0))


def test_correlate_bank_matches_single(bank):
    rng = np.random.default_rng(3)
    x = rng.normal(size=FRAME_LEN)
    x[500:500 + TEMPLATE_LEN] += 0.5 * bank.samples[7]
    scores = correlate_bank(x, bank.samples)
    for p in (0, 7, 200, 503):
        tpl = bank.samples[p]
        for lag in (0, 1, 500, FRAME_LEN - 1):
            assert abs(scores[p, lag] - _ncc_by_definition(x, tpl, lag)) < 1e-9


@pytest.mark.parametrize("n", [TEMPLATE_LEN - 1, 100])
def test_correlate_bank_rejects_trace_shorter_than_template(bank, n):
    with pytest.raises(ValueError, match="shorter than template"):
        correlate_bank(np.ones(n), bank.samples)


def test_preamble_identification_subset(bank):
    for pci in range(0, 504, 61):
        dets = hierarchical_detect(stack_frames(fold_frame(pci), 1), bank)
        assert dets and dets[0].pci.value == pci
        assert dets[0].delay_samples == TEMPLATE_START


def test_hierarchical_single_cell_structure(bank):
    x = fold_frame(251)
    dets = hierarchical_detect(x, bank, 0.3, 0.5)
    best = dets[0]
    assert best.pci.value == 251
    assert best.delay_samples == TEMPLATE_START
    assert best.score > 0.999
    # sync recurs at the half frame; suppression collapses the repeat
    kept = suppress_false_positives(refine(x, bank, dets))
    assert [d.pci.value for d in kept] == [251]


def test_hierarchical_empty_at_threshold_one(bank):
    assert hierarchical_detect(fold_frame(10), bank, 1.0, 0.5) == []


def test_hierarchical_is_superset_of_exhaustive(bank):
    """Any PCI the exhaustive scan accepts at a candidate lag must also
    be found by the two-stage search with a permissive first stage."""
    rng = np.random.default_rng(11)
    x = fold_frame(30) + 1.2 * np.roll(fold_frame(451), 900)
    x += rng.normal(0, 1e-4 * x.std() + 1e-12, x.size)
    scores = correlate_bank(x, bank.samples)
    exhaustive = set()
    for p in range(504):
        lag = int(np.argmax(scores[p]))
        if scores[p, lag] > 0.5:
            exhaustive.add((p, lag))
    dets = hierarchical_detect(x, bank, 0.05, 0.5)
    found = {(d.pci.value, d.delay_samples) for d in dets}
    assert exhaustive <= found


# derandomized so that every run of the suite draws the same examples
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


@PROPERTY
@given(shift=st.integers(0, FRAME_LEN - 1))
@example(shift=1000)
def test_shift_equivariance(bank, shift):
    x = fold_frame(77)
    dets0 = hierarchical_detect(x, bank)
    dets1 = hierarchical_detect(np.roll(x, shift), bank)
    d0 = {d.pci.value: d.delay_samples for d in dets0}
    d1 = {d.pci.value: d.delay_samples for d in dets1}
    assert set(d0) == set(d1)
    for p in d0:
        assert (d0[p] + shift) % FRAME_LEN == d1[p]


@PROPERTY
@given(scale=st.floats(1e-3, 1e3))
@example(scale=7.3)
@example(scale=500.5625)      # round-off once left flat windows unmasked here
def test_scale_invariance(bank, scale):
    x = fold_frame(77) + 1e-5
    a = correlate_bank(x, bank.samples[77][None])[0]
    b = correlate_bank(scale * x, bank.samples[77][None])[0]
    assert np.allclose(a, b, atol=1e-9)
    da = hierarchical_detect(x, bank)
    db = hierarchical_detect(scale * x, bank)
    assert [(d.pci.value, d.delay_samples) for d in da] == \
           [(d.pci.value, d.delay_samples) for d in db]


@st.composite
def mixtures(draw):
    """A frame of 1-5 distinct folded PCIs at random lags and amplitudes,
    plus noise and a zero stretch (flat windows). Distinct, because one PCI
    twice without noise scores two lags equal to round-off, and which of
    them wins is then round-off's choice."""
    cells = draw(st.lists(st.tuples(st.integers(0, 503),
                                    st.integers(0, FRAME_LEN - 1),
                                    st.floats(0.05, 5.0)),
                          min_size=1, max_size=5, unique_by=lambda c: c[0]))
    noise = draw(st.floats(0.0, 0.5))
    zero_at = draw(st.integers(0, FRAME_LEN - 1))
    zero_len = draw(st.integers(0, 3000))
    seed = draw(st.integers(0, 2**32 - 1))
    x = sum(a * np.roll(fold_frame(p), lag) for p, lag, a in cells)
    x = x + np.random.default_rng(seed).normal(0.0, noise * x.std(), x.size)
    x[zero_at:zero_at + zero_len] = 0.0
    return x


@PROPERTY
@given(x=mixtures(), copy_at=st.integers(0, FRAME_LEN - PSS_TEMPLATE_LEN),
       sector=st.integers(0, 1), thresh_pss=st.sampled_from([0.3, 0.05]))
def test_detection_matches_the_full_product_reference(bank, x, copy_at, sector,
                                                      thresh_pss):
    """Stage 1 normalizing only lags that can clear the threshold, and
    stage 2 scoring the split product, find what the detector that
    normalized every lag and multiplied all 276 columns finds. An exact
    copy of a PSS scan window gives a stage-1 score clipped at 1.0. The
    lists are sorted by score, so without noise, where several PCIs score
    1 to round-off, they are compared in (pci, delay) order."""
    x[copy_at:copy_at + PSS_TEMPLATE_LEN] = bank.pss_unit[sector]
    assert _stage1_candidates(x, bank, thresh_pss) == \
        oracles.stage1_candidates(x, bank, thresh_pss)
    got, want = (sorted(detect(x, bank, thresh_pss, 0.3),
                        key=lambda d: (d.pci.value, d.delay_samples))
                 for detect in (hierarchical_detect,
                                oracles.hierarchical_detect))
    assert [(d.pci, d.delay_samples) for d in got] == \
        [(d.pci, d.delay_samples) for d in want]
    assert all(abs(g.score - w.score) <= 1e-12 for g, w in zip(got, want))


@st.composite
def bank_frames(draw):
    """Parameters of `_bank_frame`: 1-4 distinct bank rows at random lags
    and amplitudes (0 included, so some frames are all zero), noise of a
    random share of the frame's spread (often none), and 0-20 back-to-back
    copies of a PSS scan window at a random lag."""
    rows = draw(st.lists(st.tuples(st.integers(0, 503),
                                   st.integers(0, FRAME_LEN - 1),
                                   st.floats(-5.0, 5.0)),
                         min_size=1, max_size=4, unique_by=lambda r: r[0]))
    noise = draw(st.just(0.0) | st.floats(1e-3, 1.0))
    copies = draw(st.integers(0, 20))
    return (rows, noise, copies, draw(st.integers(0, FRAME_LEN - 1)),
            draw(st.integers(0, 1)), draw(st.integers(0, 2**32 - 1)))


def _bank_frame(bank, rows, noise, copies, copy_at, sector, seed):
    """The sum of amp * bank.samples[p] placed circularly at lag, for each
    (p, lag, amp) of rows, plus noise, with copies of pss_unit[sector]
    written end to end from copy_at. Several exact copies score 1.0 after
    clipping at their lags, so a run can hold tied maxima."""
    x = np.zeros(FRAME_LEN)
    pad = (0, FRAME_LEN - TEMPLATE_LEN)
    for p, lag, amp in rows:
        x += amp * np.roll(np.pad(bank.samples[p], pad), lag)
    x += np.random.default_rng(seed).normal(0.0, noise * x.std(), FRAME_LEN)
    at = np.arange(copy_at, copy_at + copies * PSS_TEMPLATE_LEN) % FRAME_LEN
    x[at] = np.tile(bank.pss_unit[sector], copies)
    return x


THRESHOLDS = st.floats(-1.0, 1.0, exclude_max=True)


@PROPERTY
@given(frame=bank_frames(), thresh_pss=THRESHOLDS, thresh_sss=THRESHOLDS)
@example(frame=([(0, 0, 0.0)], 0.0, 0, 0, 0, 0), thresh_pss=-0.5,
         thresh_sss=0.5)                                    # all zero
@example(frame=([(40, 5000, 1.0)], 0.0, 20, 1000, 1, 0), thresh_pss=-1.0,
         thresh_sss=0.5)                                    # tied run
def test_detection_matches_the_references_on_bank_rows(bank, frame, thresh_pss,
                                                       thresh_sss):
    """On frames of bank rows, stage 1 returns the reference's lags exactly
    and stage 2 its (pci, delay) pairs with scores within 1e-12, for any
    thresholds in [-1, 1)."""
    x = _bank_frame(bank, *frame)
    assert _stage1_candidates(x, bank, thresh_pss) == \
        oracles.stage1_candidates(x, bank, thresh_pss)
    got, want = (sorted(detect(x, bank, thresh_pss, thresh_sss),
                        key=lambda d: (d.pci.value, d.delay_samples))
                 for detect in (hierarchical_detect,
                                oracles.hierarchical_detect))
    assert [(d.pci, d.delay_samples) for d in got] == \
        [(d.pci, d.delay_samples) for d in want]
    assert all(abs(g.score - w.score) <= 1e-12 for g, w in zip(got, want))


def test_stage1_keeps_the_first_lag_of_a_tied_run(bank):
    """Twenty copies of a scan window end to end score exactly 1.0 at
    several of their lags, all in one run at a threshold of -1: the run
    keeps the first of them."""
    x = np.zeros(FRAME_LEN)
    x[1000:1000 + 20 * PSS_TEMPLATE_LEN] = np.tile(bank.pss_unit[1], 20)
    scores = oracles.ncc(x, PSS_TEMPLATE_LEN, bank.pss_spec)[1]
    run = np.flatnonzero(scores > -1.0)
    assert np.diff(run).max() <= STAGE1_GROUP_GAP
    tied = run[scores[run] == scores[run].max()]
    assert tied.size > 1
    cands = _stage1_candidates(x, bank, -1.0)
    assert cands == oracles.stage1_candidates(x, bank, -1.0)
    assert tied[0] in cands and not set(tied[1:]) & set(cands)


def _partly_flat():
    """Noise with a zero stretch, a constant stretch and a stretch across
    the frame's end: flat windows of both kinds, one of them circular."""
    x = np.random.default_rng(8).normal(size=FRAME_LEN)
    x[2000:4000] = 0.0
    x[9000:9500] = 3.25
    x[-300:] = -1.5
    x[:100] = -1.5
    return x


@pytest.mark.parametrize("wlen", [PSS_TEMPLATE_LEN, TEMPLATE_LEN])
@pytest.mark.parametrize("frame", [
    lambda: np.full(FRAME_LEN, 2.5),
    lambda: np.zeros(FRAME_LEN),
    _partly_flat,
    lambda: 1e-12 * _partly_flat(),
    lambda: 1e12 * _partly_flat(),
    lambda: fold_frame(77) + 1e-5,
], ids=["constant", "zero", "partly_flat", "scaled_1e-12", "scaled_1e12",
        "folded"])
def test_window_norms_equal_the_reference(frame, wlen):
    """The in-place window norms are the reference's to the bit."""
    x = frame()
    got = _window_norms(x, wlen)
    assert got.shape == (FRAME_LEN,)
    assert np.array_equal(got, oracles.window_norms(x, wlen))


def test_flat_windows_do_not_move_with_scale():
    x = _partly_flat()
    flat = _window_norms(x, PSS_TEMPLATE_LEN) == 0.0
    # exactly the windows inside the zero, constant and wrapping stretches
    assert flat.sum() == sum(n - PSS_TEMPLATE_LEN + 1 for n in (2000, 500, 400))
    for scale in (1e-12, 1e12):
        scaled = _window_norms(scale * x, PSS_TEMPLATE_LEN)
        assert np.array_equal(scaled == 0.0, flat)


def _det(pci, delay, score=0.9, amp=1.0):
    return Detection(Pci(pci), delay, score, amp)


def test_suppression_keeps_max_amplitude():
    dets = [_det(10, 700, 0.95, 1.0), _det(14, 700, 0.90, 0.05)]
    kept = suppress_false_positives(dets)
    assert [d.pci.value for d in kept] == [10]


def test_suppression_distinct_clusters_survive():
    dets = [_det(10, 700, 0.95, 1.0), _det(20, 1400, 0.80, 0.7)]
    kept = suppress_false_positives(dets)
    assert {d.pci.value for d in kept} == {10, 20}
    assert [d.score for d in kept] == sorted((d.score for d in kept),
                                             reverse=True)


def test_suppression_empty():
    assert suppress_false_positives([]) == []


def test_suppression_clusters_modulo_half_frame():
    # the same emission epoch surfaces at d and d + 9600
    dets = [_det(10, 700, 0.95, 1.0), _det(13, 700 + HALF_FRAME, 0.90, 0.2)]
    kept = suppress_false_positives(dets)
    assert [d.pci.value for d in kept] == [10]


def test_suppression_wraps_around_period():
    dets = [_det(10, HALF_FRAME - 2, 0.9, 1.0), _det(11, 2, 0.8, 0.3)]
    kept = suppress_false_positives(dets)
    assert [d.pci.value for d in kept] == [10]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.builds(
    Detection, st.builds(Pci, st.integers(0, 503)), st.integers(0, 10**9),
    st.floats(-1.0, 1.0), st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6))))
def test_detections_csv_round_trip_to_printed_precision(tmp_path, dets):
    """Every field comes back as its printed value: the PCI and delay
    exactly, the sub-sample offset and score to 6 decimals, the amplitude
    to 6 significant digits."""
    p = tmp_path / "d.csv"
    write_detections_csv(p, dets)
    assert read_detections_csv(p) == [
        Detection(d.pci, d.delay_samples, float(f"{d.score:.6f}"),
                  float(f"{d.amplitude:.6g}"),
                  float(f"{d.subsample_offset:.6f}")) for d in dets]


def test_detections_csv_round_trip(tmp_path):
    p = tmp_path / "d.csv"
    dets = [Detection(Pci(5), 700, 0.875, 1.25e-7, -0.31)]
    write_detections_csv(p, dets)
    back = read_detections_csv(p)
    assert len(back) == 1
    assert back[0].pci.value == 5 and back[0].delay_samples == 700
    assert abs(back[0].score - 0.875) < 1e-6
    assert abs(back[0].amplitude - 1.25e-7) < 1e-12
    assert abs(back[0].subsample_offset + 0.31) < 1e-6
    (tmp_path / "bad.csv").write_text("wrong,header\n")
    with pytest.raises(ValueError):
        read_detections_csv(tmp_path / "bad.csv")

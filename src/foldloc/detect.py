"""PCI detection in folded (post-detector) traces.

A squared preamble frame retains a data-free window holding the folded
SSS and PSS symbols. Correlating a 504-entry bank of such windows against a
stacked trace identifies cells and their coarse sample delays. Squaring
destroys the sign difference between Zadoff-Chu roots 29 and 34, so their
folded waveforms coincide and stage-1 scanning needs only two PSS shapes.

The bank holds per PCI a unit-norm window and its original norm, the two
PSS scan windows and their conjugate spectra at the frame length, and the
stage-2 operator with the three raw PSS halves it is built around. A
data-free frame is zero outside its four sync symbols, and the window
holds two zero samples, then SSS and PSS of slot 0 with their cyclic
prefixes. So `build_bank` builds exactly the window, BANK_CHUNK PCIs at a
time, from each distinct sync body modulated once: the three sectors' PSS
bodies, gathered by sector, and each PCI's SSS of slot 0. At the detector
rate the low-pass is all-pass, so folding is squaring, and each block is
mean-removed, normed and divided as array operations.

Stage 1 correlates the bank's two PSS shapes with the trace at every lag,
from one FFT of the trace and the bank's PSS spectra, so a fix transforms
no template. The window norms come from two running sums in one buffer,
with the variance and its root taken in place; only the lags whose raw
correlation can clear the threshold are normalized, and the runs of both
shapes are reduced to their peaks in one vectorized pass. Stage 2 scores
every candidate window against the whole bank, the windows copied out of
one strided view of the frame. A window's PSS half is the same for the
three sectors' PCIs up to each PCI's mean and norm, so the product
splits: the SSS half against all 504 rows, the PSS half against the
three raw PSS halves, and the window's PSS sum, in one product with the
bank's operator. A column maximum then picks the PCIs above threshold,
and only their columns are searched for the best lag. Both stages run on
the calling thread, as `lte`'s threading policy says.
Detection returns scored (pci, delay) pairs; `refine`, the single
enrichment step, gives them their received power, suppresses false
positives by it and gives the survivors a sub-sample offset.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import amplitude
from .amplitude import _EPS
# DETECTOR_RATE_HZ is re-exported for benchmarks/workloads.py
from .frontend import DETECTOR_RATE_HZ, fold_baseband
from .lte import FrameConfig, Pci, _blas_on_caller, sync_segment

FRAME_LEN = 19200             # 10 ms at the detector rate
HALF_FRAME = 9600             # sync repeats every 5 ms
TEMPLATE_START = 684          # window start within a slot-aligned frame
TEMPLATE_LEN = 276            # two tail samples + SSS symbol + PSS symbol
PSS_TEMPLATE_LEN = 138        # trailing CP + PSS portion of the window
SSS_END = 139                 # two tail samples + SSS symbol; the PSS half follows
CANDIDATE_WINDOW = 3          # stage-2 lags searched either side of a PSS peak
STAGE1_GROUP_GAP = 8          # PSS lags this close above threshold are one peak
DELAY_CLUSTER_RADIUS = 5      # delays this close (mod half frame) are one cluster
BANK_CHUNK = 72               # PCIs per block in build_bank
THRESH_PSS = 0.3              # default stage-1 score threshold
THRESH_SSS = 0.5              # default stage-2 score threshold


@dataclass
class Detection:
    pci: Pci
    delay_samples: int            # index where the folded sync window starts
    score: float
    amplitude: float = 0.0        # received amplitude squared, set by refine
    subsample_offset: float = 0.0


class BankMismatchError(RuntimeError):
    """A trace is not sampled at DETECTOR_RATE_HZ, the rate of the bank."""


@dataclass(frozen=True)
class TemplateBank:
    """All 504 folded sync windows of the detector, as read-only arrays.

    samples (504, 276): mean-removed, unit-norm windows, row = PCI.
    norms (504,): the L2 norm each window had before normalization, that
    is the folded window of a unit-amplitude cell. `refine` divides each
    fitted scale of a unit window by it, so a detection's amplitude is
    the received amplitude squared, comparable across PCIs.
    pss_unit (2, 138): mean-removed, unit-norm PSS scan windows of sectors
    0 and 1, the only two folded PSS shapes.
    pss_spec (2, 9601): conj(rfft(pss_unit, n=FRAME_LEN)), the spectra
    stage 1 correlates a stacked frame with.
    pss_halves (3, 137): the raw folded PSS half (window samples SSS_END
    on) of sectors 0, 1 and 2. Every PCI's raw window ends in its
    sector's row exactly; rows 1 and 2 differ by about 1e-13.
    stage2_op (143, 504): the operator stage 2 scores with. Rows 0-138
    are samples[:, :SSS_END].T; row 139 + s holds 1 / norms[p] in the
    columns of sector s's PCIs; row 142 is samples[:, 0], which is
    -mean / norm of the raw window. A unit window w then scores
    w @ samples[p] = w[:139] @ samples[p, :139]
    + (w[139:] @ pss_halves[s]) / norms[p] + samples[p, 0] * w[139:].sum().
    """

    samples: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    pss_unit: np.ndarray = field(repr=False)
    pss_spec: np.ndarray = field(repr=False)
    pss_halves: np.ndarray = field(repr=False)
    stage2_op: np.ndarray = field(repr=False)


def build_bank() -> TemplateBank:
    """Materialize all 504 folded sync templates of the detector.

    Each row equals the PCI's data-free 1.4 MHz frame folded to the
    detector rate, where the low-pass is all-pass, and windowed at
    TEMPLATE_START. Only the window is built, per block of BANK_CHUNK
    PCIs: `sync_segment` modulates the block's SSS of slot 0 in one IFFT
    and gathers the PSS bodies, transformed once, by sector; one
    fold_baseband call folds the (BANK_CHUNK, TEMPLATE_LEN) array, which
    is then mean-removed, normed and divided into the block's rows. A
    row's norm is its dot with itself, one batched (1, L) @ (L, 1) product
    per block, which has the bits of the 1-D np.linalg.norm the tests'
    reference takes; norm(axis=1) and einsum round differently. The PSS
    scan windows and PSS halves come from the raw windows of PCIs 0-2,
    sectors 0-2 of group 0.
    """
    cfg = FrameConfig.from_bandwidth(1.4)    # sampled at the detector rate
    samples = np.empty((504, TEMPLATE_LEN))
    norms = np.empty(504)
    # BANK_CHUNK PCIs at a time: freeing a whole-bank temporary (2.2 MB)
    # raises glibc's mmap threshold, and later set-ups then peak ~3 MB higher
    for lo in range(0, 504, BANK_CHUNK):
        hi = min(lo + BANK_CHUNK, 504)
        w = fold_baseband(sync_segment(cfg, np.arange(lo, hi), TEMPLATE_START,
                                       TEMPLATE_START + TEMPLATE_LEN),
                          cfg.sample_rate_hz)
        if lo == 0:
            group0 = w[:3].copy()
        w -= w.mean(axis=1, keepdims=True)
        np.sqrt(np.matmul(w[:, None, :], w[:, :, None]).ravel(),
                out=norms[lo:hi])
        np.divide(w, norms[lo:hi, None], out=samples[lo:hi])
    # root 34 (sector 2) folds identically to root 29 (sector 1) in the
    # scan window and needs no third entry
    w = group0[:2, -PSS_TEMPLATE_LEN:]
    w = w - w.mean(axis=1, keepdims=True)
    pss_unit = w / np.linalg.norm(w, axis=1, keepdims=True)
    pss_spec = np.fft.rfft(pss_unit, n=FRAME_LEN, axis=1)
    np.conj(pss_spec, out=pss_spec)
    pss_halves = group0[:, SSS_END:]
    pcis = np.arange(504)
    stage2_op = np.zeros((SSS_END + 4, 504))
    stage2_op[:SSS_END] = samples[:, :SSS_END].T
    stage2_op[SSS_END + pcis % 3, pcis] = 1.0 / norms
    stage2_op[-1] = samples[:, 0]
    for a in (samples, norms, pss_unit, pss_spec, pss_halves, stage2_op):
        a.setflags(write=False)
    return TemplateBank(samples, norms, pss_unit, pss_spec, pss_halves,
                        stage2_op)


def stack_frames(trace: np.ndarray, n_frames: int) -> np.ndarray:
    """Element-wise mean of n_frames consecutive frame-length windows, in
    float64.

    Sync content repeats each frame and reinforces; payload and noise
    average down, improving peak SNR by about sqrt(n) in amplitude. The
    rows are added in order into a float64 frame, then divided by
    n_frames, as mean(axis=0) of a float64 trace does; a float32 trace (a
    replayed `traceio.read_trace`) widens exactly as it is added, so it
    stacks to the bits of its float64 copy without that copy being made.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if trace.size < n_frames * FRAME_LEN:
        raise ValueError(f"trace of {trace.size} samples too short for "
                         f"{n_frames} frames of {FRAME_LEN}")
    rows = trace[:n_frames * FRAME_LEN].reshape(n_frames, FRAME_LEN)
    return np.add.reduce(rows, axis=0, dtype=np.float64) / n_frames


def _window_norms(x: np.ndarray, wlen: int) -> np.ndarray:
    """L2 norm of every mean-removed circular window of wlen; 0 where flat.

    Window variances are differences of running sums over x, so a flat
    window (constant signal, zero padding) keeps a round-off variance of up
    to about n * eps * sum(x**2); dividing FFT round-off by its root would
    fabricate scores. Windows at or below that bound get norm 0 and score 0;
    the bound scales with the trace, so scaling never changes which windows
    are flat. The running sums of x and x**2 share one buffer, and the
    variance and its root are taken in place.
    """
    n = x.size
    ext = np.empty(n + wlen - 1)
    ext[:n] = x
    ext[n:] = x[:wlen - 1]
    c = np.empty((2, n + wlen))
    c[:, 0] = 0.0
    np.cumsum(ext, out=c[0, 1:])
    np.multiply(ext, ext, out=ext)
    np.cumsum(ext, out=c[1, 1:])
    s1, var = c[:, wlen:] - c[:, :-wlen]     # window sums of x and x**2
    np.multiply(s1, s1, out=s1)
    s1 /= wlen
    var -= s1
    var[var <= n * np.finfo(np.float64).eps * c[1, n]] = 0.0
    return np.sqrt(var, out=var)


def _stage1_candidates(stacked: np.ndarray, bank: TemplateBank,
                       thresh_pss: float) -> list[int]:
    """Peak lags of the two folded PSS shapes, one per run of lags above
    thresh_pss that lie at most STAGE1_GROUP_GAP apart.

    A lag scores its correlation with a PSS scan window, from one FFT of
    the trace and the bank's PSS spectra, over the norm of its
    mean-removed trace window (Lewis's running-sum fast NCC), clipped to
    [-1, 1]; flat windows score 0. Only the lags whose raw correlation
    exceeds a bound just below thresh_pss times the norm get that score,
    so the lags above thresh_pss are those of scoring every lag. The runs
    of both shapes are reduced in one pass: each keeps its first lag at
    the run's maximum. stacked must be one finite frame of FRAME_LEN
    samples.
    """
    if stacked.size != FRAME_LEN:
        raise ValueError(f"stacked frame of {stacked.size} samples, not "
                         f"{FRAME_LEN}")
    finite = np.isfinite(stacked)
    if not finite.all():
        raise ValueError(f"stacked frame has a non-finite sample at index "
                         f"{np.argmin(finite)}")
    denom = _window_norms(stacked, PSS_TEMPLATE_LEN)
    flat = denom == 0.0
    np.maximum(denom, _EPS, out=denom)
    # just below thresh_pss * denom whatever the threshold's sign, a margin
    # far above the round-off of the division; a flat window scores 0
    floor = (thresh_pss - abs(thresh_pss) * 1e-9) * denom
    floor[flat] = -np.inf if thresh_pss < 0.0 else np.inf
    corr = np.fft.irfft(np.fft.rfft(stacked) * bank.pss_spec, n=FRAME_LEN,
                        axis=1)
    shape, lags = np.divmod(np.flatnonzero(corr > floor), FRAME_LEN)
    scores = corr[shape, lags] / denom[lags]
    np.clip(scores, -1.0, 1.0, out=scores)
    scores[flat[lags]] = 0.0
    keep = np.flatnonzero(scores > thresh_pss)
    if not keep.size:
        return []
    shape, lags, scores = shape[keep], lags[keep], scores[keep]
    # a run starts where its shape's lags step by more than STAGE1_GROUP_GAP
    # or the other shape's lags begin
    new_run = np.empty(lags.size, dtype=bool)
    new_run[0] = True
    np.greater(np.diff(lags), STAGE1_GROUP_GAP, out=new_run[1:])
    new_run[1:] |= shape[1:] != shape[:-1]
    starts = np.flatnonzero(new_run)
    top = np.maximum.reduceat(scores, starts)[np.cumsum(new_run) - 1]
    # each run's first lag at its maximum
    n = lags.size
    first = np.minimum.reduceat(np.where(scores == top, np.arange(n), n),
                                starts)
    return sorted(set(lags[first].tolist()))


def hierarchical_detect(stacked: np.ndarray, bank: TemplateBank,
                        thresh_pss: float = THRESH_PSS,
                        thresh_sss: float = THRESH_SSS) -> list[Detection]:
    """Two-stage search: PSS scan for candidate lags, full bank only there.

    stacked is one finite frame of FRAME_LEN samples. Stage 1 scans all
    its lags with the two folded PSS waveforms and keeps grouped peaks
    above thresh_pss. Stage 2 scores all 504 full templates at each
    candidate's implied window start (PSS peak minus the PSS-template
    offset) within +-CANDIDATE_WINDOW lags, gathered from a strided view
    of the frame extended by TEMPLATE_LEN - 1 samples and normalized in
    place. Each mean-removed unit window w gives the row [w[:SSS_END],
    w[SSS_END:] @ pss_halves.T, w[SSS_END:].sum()], and the rows times
    bank.stage2_op are the scores of w against every unit template, at
    about half the arithmetic of multiplying by bank.samples.T. Both
    products run on the calling thread. Each PCI keeps its best lag (the
    first, on ties) if it scores above thresh_sss: a column maximum picks
    the PCIs, and only their columns are searched for the lag. Flat
    windows score -inf. Returns scored detections sorted by score
    descending; `refine` fills in amplitude and sub-sample offset.
    """
    cands = _stage1_candidates(stacked, bank, thresh_pss)
    if not cands:
        return []
    offsets = np.arange(-CANDIDATE_WINDOW, CANDIDATE_WINDOW + 1)
    lags = ((np.array(cands)[:, None] - (TEMPLATE_LEN - PSS_TEMPLATE_LEN)
             + offsets).ravel() % FRAME_LEN)
    ext = np.concatenate([stacked, stacked[:TEMPLATE_LEN - 1]])
    # row i of the view is the window at lag i; indexing it copies the rows
    windows = np.ndarray((FRAME_LEN, TEMPLATE_LEN), buffer=ext,
                         strides=ext.strides * 2)[lags]
    windows -= windows.mean(axis=1, keepdims=True)
    # the arithmetic of np.linalg.norm(windows, axis=1), without its copies
    nrm = np.sqrt(np.add.reduce(windows * windows, axis=1))
    flat = nrm < _EPS
    nrm[flat] = 1.0
    windows /= nrm[:, None]
    pss = windows[:, SSS_END:]
    x = np.empty((lags.size, SSS_END + 4))
    x[:, :SSS_END] = windows[:, :SSS_END]
    np.add.reduce(pss, axis=1, out=x[:, -1])
    with _blas_on_caller():
        x[:, SSS_END:-1] = pss @ bank.pss_halves.T
        scores = x @ bank.stage2_op
    scores[flat] = -np.inf
    top = scores.max(axis=0)
    pcis = np.flatnonzero(top > thresh_sss)
    best = lags[scores[:, pcis].argmax(axis=0)]
    out = [Detection(Pci(p), d, s) for p, d, s in
           zip(pcis.tolist(), best.tolist(), top[pcis].tolist())]
    out.sort(key=lambda d: (-d.score, d.delay_samples, d.pci.value))
    return out


def suppress_false_positives(raw: list[Detection]) -> list[Detection]:
    """Keep only the highest-amplitude detection per delay cluster.

    Delays are clustered modulo the sync repetition period HALF_FRAME: the
    same emission epoch surfaces at d and d + HALF_FRAME, and near-miss
    templates (notably half-sequence aliases) score there too. Amplitudes
    are received powers (see `refine`), whatever each template's norm.
    Sorting survivors by score descending.
    """
    if not raw:
        return []
    keyed = sorted(raw, key=lambda d: d.delay_samples % HALF_FRAME)
    clusters: list[list[Detection]] = [[keyed[0]]]
    for det in keyed[1:]:
        prev = clusters[-1][-1].delay_samples % HALF_FRAME
        if det.delay_samples % HALF_FRAME - prev <= DELAY_CLUSTER_RADIUS:
            clusters[-1].append(det)
        else:
            clusters.append([det])
    # modulo wrap: last cluster may adjoin the first
    if len(clusters) > 1:
        first = clusters[0][0].delay_samples % HALF_FRAME
        last = clusters[-1][-1].delay_samples % HALF_FRAME
        if first + HALF_FRAME - last <= DELAY_CLUSTER_RADIUS:
            clusters[0] = clusters.pop() + clusters[0]
    out = [max(c, key=lambda d: d.amplitude) for c in clusters]
    out.sort(key=lambda d: (-d.score, d.delay_samples, d.pci.value))
    return out


def refine(stacked: np.ndarray, bank: TemplateBank,
           dets: list[Detection]) -> list[Detection]:
    """Fit received powers, suppress false positives, time the survivors.

    Every raw detection gets its amplitude in place: the fitted scale of
    its unit template over bank.norms, the received amplitude squared. This
    is the one place that division happens, so suppression compares like
    with like and no later step needs the bank. Only the kept detections
    get a sub-sample offset. Returns them sorted by score descending.
    """
    for det in dets:
        p = det.pci.value
        det.amplitude = float(amplitude.fit_amplitude(
            stacked, bank.samples[p], det.delay_samples) / bank.norms[p])
    kept = suppress_false_positives(dets)
    for det in kept:
        det.subsample_offset = amplitude.estimate_subsample(
            stacked, bank.samples[det.pci.value], det.delay_samples).tau
    return kept


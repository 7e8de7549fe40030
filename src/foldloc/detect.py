"""PCI detection in folded (post-detector) traces.

A squared preamble frame retains a data-free window holding the folded
SSS and PSS symbols. Correlating a 504-entry bank of such windows against a
stacked trace identifies cells and their coarse sample delays. Squaring
destroys the sign difference between Zadoff-Chu roots 29 and 34, so their
folded waveforms coincide and stage-1 scanning needs only two PSS shapes.

The bank is three read-only arrays, one row per PCI: unit-norm windows,
their original norms and the two PSS scan windows. A data-free frame is
zero outside its four sync symbols, and the window holds two zero samples,
then SSS and PSS of slot 0 with their cyclic prefixes. So `build_bank`
modulates only those two symbols, many PCIs per transform, and folds
exactly the window: at the detector rate the low-pass is all-pass.

`correlate_bank` is the one kernel that scores templates at every lag,
from one FFT of the trace: stage 1 runs it once on both PSS shapes, and a
single template is a one-row array. Stage 2 scores every candidate window
against the whole bank with one matrix product. Detection returns scored
(pci, delay) pairs; `refine`, the single enrichment step, gives them their
received power, suppresses false positives by it and gives the survivors
a sub-sample offset.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import amplitude
from .amplitude import _EPS
from .frontend import DETECTOR_RATE_HZ, fold_baseband  # noqa: F401
from .lte import FrameConfig, Pci, sync_segment

FRAME_LEN = 19200             # 10 ms at the detector rate
HALF_FRAME = 9600             # sync repeats every 5 ms
TEMPLATE_START = 684          # window start within a slot-aligned frame
TEMPLATE_LEN = 276            # two tail samples + SSS symbol + PSS symbol
PSS_TEMPLATE_LEN = 138        # trailing CP + PSS portion of the window
CANDIDATE_WINDOW = 3          # stage-2 lags searched either side of a PSS peak
STAGE1_GROUP_GAP = 8          # PSS lags this close above threshold are one peak
DELAY_CLUSTER_RADIUS = 5      # delays this close (mod half frame) are one cluster
BANK_CHUNK = 72               # templates per batch in correlate_bank and build_bank
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
    """

    samples: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    pss_unit: np.ndarray = field(repr=False)


def build_bank() -> TemplateBank:
    """Materialize all 504 folded sync templates of the detector.

    Each row equals the PCI's data-free 1.4 MHz frame folded to the
    detector rate, where the low-pass is all-pass, and windowed at
    TEMPLATE_START. Only the window is built: per block of BANK_CHUNK
    PCIs, `sync_segment` modulates its SSS and PSS of slot 0 in one IFFT,
    and one fold_baseband call folds the (BANK_CHUNK, TEMPLATE_LEN) array.
    """
    cfg = FrameConfig.from_bandwidth(1.4)    # sampled at the detector rate

    def windows(pcis):
        return fold_baseband(sync_segment(cfg, pcis, TEMPLATE_START,
                                          TEMPLATE_START + TEMPLATE_LEN),
                             cfg.sample_rate_hz)

    samples = np.empty((504, TEMPLATE_LEN))
    norms = np.empty(504)
    # BANK_CHUNK PCIs at a time: freeing a whole-bank temporary (2.2 MB)
    # raises glibc's mmap threshold, and later set-ups then peak ~3 MB higher
    for block in np.split(np.arange(504), range(BANK_CHUNK, 504, BANK_CHUNK)):
        # row by row: norm(axis=1) can differ from the 1-D norm in the last
        # bit, and each row must equal its single-frame reference exactly
        for p, w in zip(block, windows(block)):
            w0 = w - w.mean()
            norms[p] = np.linalg.norm(w0)
            samples[p] = w0 / norms[p]
    # sectors 0 and 1 of group 0; root 34 (sector 2) folds identically to
    # root 29 and needs no third entry
    w = windows(np.arange(2))[:, -PSS_TEMPLATE_LEN:]
    w = w - w.mean(axis=1, keepdims=True)
    pss_unit = w / np.linalg.norm(w, axis=1, keepdims=True)
    for a in (samples, norms, pss_unit):
        a.setflags(write=False)
    return TemplateBank(samples, norms, pss_unit)


def stack_frames(trace: np.ndarray, n_frames: int) -> np.ndarray:
    """Element-wise mean of n_frames consecutive frame-length windows.

    Sync content repeats each frame and reinforces; payload and noise
    average down, improving peak SNR by about sqrt(n) in amplitude.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if trace.size < n_frames * FRAME_LEN:
        raise ValueError(f"trace of {trace.size} samples too short for "
                         f"{n_frames} frames of {FRAME_LEN}")
    return trace[:n_frames * FRAME_LEN].reshape(n_frames, FRAME_LEN).mean(axis=0)


def _window_norms(x: np.ndarray, wlen: int) -> np.ndarray:
    """L2 norm of every mean-removed circular window of wlen; 0 where flat.

    Window variances are differences of running sums over x, so a flat
    window (constant signal, zero padding) keeps a round-off variance of up
    to about n * eps * sum(x**2); dividing FFT round-off by its root would
    fabricate scores. Windows at or below that bound get norm 0 and score 0;
    the bound scales with the trace, so scaling never changes which windows
    are flat.
    """
    ext = np.concatenate([x, x[:wlen - 1]])
    c1 = np.concatenate([[0.0], np.cumsum(ext)])
    c2 = np.concatenate([[0.0], np.cumsum(ext * ext)])
    s1 = c1[wlen:] - c1[:-wlen]
    s2 = c2[wlen:] - c2[:-wlen]
    var = s2 - s1 * s1 / wlen
    flat = var <= x.size * np.finfo(np.float64).eps * float(x @ x)
    return np.where(flat, 0.0, np.sqrt(np.maximum(var, 0.0)))


def correlate_bank(stacked: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """(k, n) normalized cross-correlation of k templates at every lag.

    Every circular lag of the stacked frame is scored against each row of
    templates (k, L), zero-mean and unit-norm, from one FFT of the trace
    and batches of BANK_CHUNK template spectra, dividing by the shared
    window norms (Lewis's running-sum fast NCC; flat windows score 0).
    Scores are clipped to [-1, 1]. A single template scores as
    correlate_bank(x, tpl[None])[0].
    """
    k, wlen = templates.shape
    n = stacked.size
    if n < wlen:
        raise ValueError("trace shorter than template")
    spec_x = np.fft.rfft(stacked)
    denom = _window_norms(stacked, wlen)
    out = np.empty((k, n))
    for lo in range(0, k, BANK_CHUNK):
        rows = slice(lo, lo + BANK_CHUNK)
        spec_t = np.fft.rfft(templates[rows], n=n, axis=1)
        out[rows] = np.fft.irfft(spec_x * np.conj(spec_t), n=n, axis=1) / \
            np.maximum(denom, _EPS)
    out[:, denom == 0.0] = 0.0
    return np.clip(out, -1.0, 1.0)


def _stage1_candidates(stacked: np.ndarray, bank: TemplateBank,
                       thresh_pss: float) -> list[int]:
    """Peak lags of the two folded PSS shapes, one per group of lags above
    thresh_pss that lie at most STAGE1_GROUP_GAP apart."""
    cands = set()
    for scores in correlate_bank(stacked, bank.pss_unit):
        above = np.flatnonzero(scores > thresh_pss)
        groups = np.split(above,
                          np.flatnonzero(np.diff(above) > STAGE1_GROUP_GAP) + 1)
        cands.update(int(g[np.argmax(scores[g])]) for g in groups if g.size)
    return sorted(cands)


def hierarchical_detect(stacked: np.ndarray, bank: TemplateBank,
                        thresh_pss: float = THRESH_PSS,
                        thresh_sss: float = THRESH_SSS) -> list[Detection]:
    """Two-stage search: PSS scan for candidate lags, full bank only there.

    Stage 1 scans all lags with the two folded PSS waveforms and keeps
    grouped peaks above thresh_pss. Stage 2 scores all 504 full templates
    at each candidate's implied window start (PSS peak minus the
    PSS-template offset) within +-CANDIDATE_WINDOW lags, in one matrix
    product, and keeps each PCI's best lag (the first, on ties) if it scores
    above thresh_sss. Returns scored detections sorted by score descending;
    `refine` fills in amplitude and sub-sample offset.
    """
    cands = _stage1_candidates(stacked, bank, thresh_pss)
    if not cands:
        return []
    offsets = np.arange(-CANDIDATE_WINDOW, CANDIDATE_WINDOW + 1)
    lags = ((np.array(cands)[:, None] - (TEMPLATE_LEN - PSS_TEMPLATE_LEN)
             + offsets).ravel() % stacked.size)
    windows = stacked.take(lags[:, None] + np.arange(TEMPLATE_LEN), mode="wrap")
    windows -= windows.mean(axis=1, keepdims=True)
    nrm = np.linalg.norm(windows, axis=1)
    flat = nrm < _EPS
    scores = (windows / np.where(flat, 1.0, nrm)[:, None]) @ bank.samples.T
    scores[flat] = -np.inf
    best = np.argmax(scores, axis=0)
    top = scores[best, np.arange(504)]
    out = [Detection(Pci(int(p)), int(lags[best[p]]), float(top[p]))
           for p in np.flatnonzero(top > thresh_sss)]
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


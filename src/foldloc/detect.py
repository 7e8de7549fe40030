"""PCI detection in folded (post-detector) traces.

A squared preamble frame retains a data-free window holding the folded
SSS and PSS symbols. Correlating a 504-entry bank of such windows against a
stacked trace identifies cells and their coarse sample delays. Squaring
destroys the sign difference between Zadoff-Chu roots 29 and 34, so their
folded waveforms coincide and stage-1 scanning needs only two PSS shapes.

The bank is three read-only arrays, one row per PCI: unit-norm windows,
their original norms and the two PSS scan windows. Stage 2 scores every
candidate window against the whole bank with one matrix product, and
`correlate_bank` scores every lag with one FFT of the trace. Detection
returns scored (pci, delay) pairs; `refine` then fills in each one's fitted
amplitude and sub-sample offset, the single enrichment step for every mode.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import amplitude
from .amplitude import _EPS
from .frontend import FrontEndConfig, fold_baseband
from .lte import FrameConfig, Pci, frame_samples
from .scenario import read_csv_rows

DETECTOR_RATE_HZ = 1.92e6
FRAME_LEN = 19200             # 10 ms at the detector rate
HALF_FRAME = 9600             # sync repeats every 5 ms
TEMPLATE_START = 684          # window start within a slot-aligned frame
TEMPLATE_LEN = 276            # two tail samples + SSS symbol + PSS symbol
PSS_TEMPLATE_LEN = 138        # trailing CP + PSS portion of the window
CANDIDATE_WINDOW = 3          # stage-2 lags searched either side of a PSS peak
BANK_CHUNK = 72               # templates per FFT batch in correlate_bank
PHAT_FLOOR = 0.05             # phat keeps bins above this share of the peak
DETECTION_COLUMNS = ("pci", "delay_samples", "subsample_offset", "amplitude",
                     "score")


@dataclass
class Detection:
    pci: Pci
    delay_samples: int            # index where the folded sync window starts
    score: float
    amplitude: float = 0.0
    subsample_offset: float = 0.0


class BankMismatchError(RuntimeError):
    """Front-end config of a trace does not match the template bank."""


@dataclass(frozen=True)
class TemplateBank:
    """All 504 folded sync windows of one front end, as read-only arrays.

    samples (504, 276): mean-removed, unit-norm windows, row = PCI.
    norms (504,): the L2 norm each window had before normalization; it
    carries the absolute folded amplitude scale (proportional to received
    amplitude squared).
    pss_unit (2, 138): mean-removed, unit-norm PSS scan windows of sectors
    0 and 1, the only two folded PSS shapes.
    """

    samples: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    pss_unit: np.ndarray = field(repr=False)
    config_key: str = ""

    @classmethod
    def from_arrays(cls, samples, norms, pss_raw, key: str) -> "TemplateBank":
        """Bank from the stored arrays; pss_raw holds the two raw PSS windows."""
        w = pss_raw - pss_raw.mean(axis=1, keepdims=True)
        arrays = (samples, norms, w / np.linalg.norm(w, axis=1, keepdims=True))
        for a in arrays:
            a.setflags(write=False)
        return cls(*arrays, config_key=key)


def _fold_preamble(pci: int, fe: FrontEndConfig) -> np.ndarray:
    cfg = FrameConfig.from_bandwidth(1.4)
    quiet = replace(fe, noise_sigma=0.0)
    return fold_baseband(frame_samples(cfg, pci, "none"),
                         cfg.sample_rate_hz, quiet)


def build_bank(fe: FrontEndConfig, cache_dir: str | None = None) -> TemplateBank:
    """Materialize all 504 folded sync templates through the ideal front end.

    Deterministic for a given front-end config; cache_dir (or the
    FOLDLOC_CACHE_DIR environment variable) enables an npz disk cache keyed
    by a hash of the filter parameters.
    """
    if abs(fe.adc_rate_hz - DETECTOR_RATE_HZ) > 1e-6:
        raise ValueError("template bank arithmetic requires a 1.92 MHz ADC rate")
    cache_dir = cache_dir or os.environ.get("FOLDLOC_CACHE_DIR")
    key = fe.key()
    cache_path = None
    if cache_dir:
        digest = hashlib.sha256(key.encode()).hexdigest()[:12]
        cache_path = os.path.join(cache_dir, f"bank_{digest}.npz")
        if os.path.exists(cache_path):
            with np.load(cache_path, allow_pickle=False) as z:
                if str(z["key"]) == key:
                    return TemplateBank.from_arrays(z["samples"], z["norms"],
                                                    z["pss_raw"], key)

    samples = np.empty((504, TEMPLATE_LEN))
    norms = np.empty(504)
    pss_raw = np.empty((2, PSS_TEMPLATE_LEN))
    for p in range(504):
        y = _fold_preamble(p, fe)
        w = y[TEMPLATE_START:TEMPLATE_START + TEMPLATE_LEN]
        w0 = w - w.mean()
        norms[p] = np.linalg.norm(w0)
        samples[p] = w0 / norms[p]
        if p < 2:
            # sectors 0 and 1 of group 0; root 34 (sector 2) folds
            # identically to root 29 and needs no third entry
            pss_raw[p] = w[-PSS_TEMPLATE_LEN:]

    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        np.savez(cache_path, samples=samples, norms=norms, pss_raw=pss_raw, key=key)
    return TemplateBank.from_arrays(samples, norms, pss_raw, key)


def stack_frames(trace: np.ndarray, n_frames: int,
                 frame_len: int = FRAME_LEN) -> np.ndarray:
    """Element-wise mean of n_frames consecutive frame-length windows.

    Sync content repeats each frame and reinforces; payload and noise
    average down, improving peak SNR by about sqrt(n) in amplitude.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if trace.size < n_frames * frame_len:
        raise ValueError(f"trace of {trace.size} samples too short for "
                         f"{n_frames} frames of {frame_len}")
    return trace[:n_frames * frame_len].reshape(n_frames, frame_len).mean(axis=0)


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
    idx = np.arange(x.size)
    s1 = c1[idx + wlen] - c1[idx]
    s2 = c2[idx + wlen] - c2[idx]
    var = s2 - s1 * s1 / wlen
    flat = var <= x.size * np.finfo(np.float64).eps * float(x @ x)
    return np.where(flat, 0.0, np.sqrt(np.maximum(var, 0.0)))


def _ncc(x: np.ndarray, tpl: np.ndarray) -> np.ndarray:
    """Circular zero-mean NCC of a unit-norm zero-mean template against x."""
    n = x.size
    num = np.fft.irfft(np.fft.rfft(x) * np.conj(np.fft.rfft(tpl, n=n)), n=n)
    denom = _window_norms(x, tpl.size)
    return np.where(denom > 0.0, num / np.maximum(denom, _EPS), 0.0)


def _phat(x: np.ndarray, tpl: np.ndarray) -> np.ndarray:
    """Phase-transform correlation restricted to the template's own band.

    The cross spectrum is whitened to unit magnitude on bins where the
    template holds at least PHAT_FLOOR of its peak magnitude and zeroed
    elsewhere; narrowband interference then contributes at most its few
    bins' worth of weight instead of dominating the metric.
    """
    n = x.size
    spec_t = np.fft.rfft(tpl, n=n)
    mag_t = np.abs(spec_t)
    keep = mag_t > PHAT_FLOOR * mag_t.max()
    keep[0] = False
    r = np.fft.rfft(x) * np.conj(spec_t)
    w = np.where(keep, r / np.maximum(np.abs(r), _EPS), 0.0)
    return np.fft.irfft(w, n=n) / (np.count_nonzero(keep) / (n / 2.0))


def correlate(stacked: np.ndarray, tpl: np.ndarray,
              mode: str = "plain") -> np.ndarray:
    """Score every circular lag of one template against a stacked frame.

    plain: normalized cross-correlation with per-window mean removal and
    variance normalization. phat: whitened cross-spectrum phase correlation.
    Both return one score per lag, clipped to [-1, 1].
    """
    t = np.asarray(tpl)
    if stacked.size < t.size:
        raise ValueError("trace shorter than template")
    if mode == "plain":
        scores = _ncc(stacked, t)
    elif mode == "phat":
        scores = _phat(stacked, t)
    else:
        raise ValueError(f"unknown correlation mode {mode!r}")
    return np.clip(scores, -1.0, 1.0)


def correlate_bank(stacked: np.ndarray, bank: TemplateBank,
                   mode: str = "plain") -> np.ndarray:
    """(504, n) score array of the full bank against one stacked frame.

    Equal to calling correlate per template, computed from one FFT of the
    trace and batches of BANK_CHUNK template spectra. plain divides by the
    shared window statistics; phat whitens each template on its own band.
    """
    if mode not in ("plain", "phat"):
        raise ValueError(f"unknown correlation mode {mode!r}")
    n = stacked.size
    spec_x = np.fft.rfft(stacked)
    denom = _window_norms(stacked, TEMPLATE_LEN)
    out = np.empty((504, n))
    for lo in range(0, 504, BANK_CHUNK):
        rows = slice(lo, lo + BANK_CHUNK)
        spec_t = np.fft.rfft(bank.samples[rows], n=n, axis=1)
        r = spec_x * np.conj(spec_t)
        if mode == "plain":
            out[rows] = np.fft.irfft(r, n=n, axis=1) / np.maximum(denom, _EPS)
        else:
            mag_t = np.abs(spec_t)
            keep = mag_t > PHAT_FLOOR * mag_t.max(axis=1, keepdims=True)
            keep[:, 0] = False
            w = np.where(keep, r / np.maximum(np.abs(r), _EPS), 0.0)
            out[rows] = np.fft.irfft(w, n=n, axis=1) / \
                (np.count_nonzero(keep, axis=1) / (n / 2.0))[:, None]
    if mode == "plain":
        out[:, denom == 0.0] = 0.0
    return np.clip(out, -1.0, 1.0)


def _stage1_candidates(stacked: np.ndarray, bank: TemplateBank,
                       thresh_pss: float, group_gap: int = 8) -> list[int]:
    """Peak indices from scanning the two folded PSS shapes."""
    cands = []
    for pss in bank.pss_unit:
        scores = _ncc(stacked, pss)
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


def hierarchical_detect(stacked: np.ndarray, bank: TemplateBank,
                        thresh_pss: float = 0.3,
                        thresh_sss: float = 0.5) -> list[Detection]:
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


def refine(stacked: np.ndarray, bank: TemplateBank,
           dets: list[Detection]) -> list[Detection]:
    """Fill in each detection's fitted amplitude and sub-sample offset.

    Updates dets in place and returns them.
    """
    for det in dets:
        tpl = bank.samples[det.pci.value]
        det.amplitude = amplitude.fit_amplitude(
            stacked, tpl, det.delay_samples).amplitude
        det.subsample_offset = amplitude.estimate_subsample(
            stacked, tpl, det.delay_samples).tau
    return dets


def suppress_false_positives(raw: list[Detection],
                             delay_cluster_radius: int = 5,
                             period: int = HALF_FRAME) -> list[Detection]:
    """Keep only the highest-amplitude detection per delay cluster.

    Delays are clustered modulo the sync repetition period: the same
    emission epoch surfaces at d and d + period, and near-miss templates
    (notably half-sequence aliases) score there too. Sorting survivors by
    score descending.
    """
    if not raw:
        return []
    keyed = sorted(raw, key=lambda d: d.delay_samples % period)
    clusters: list[list[Detection]] = [[keyed[0]]]
    for det in keyed[1:]:
        prev = clusters[-1][-1].delay_samples % period
        if det.delay_samples % period - prev <= delay_cluster_radius:
            clusters[-1].append(det)
        else:
            clusters.append([det])
    # modulo wrap: last cluster may adjoin the first
    if len(clusters) > 1:
        first = clusters[0][0].delay_samples % period
        last = clusters[-1][-1].delay_samples % period
        if first + period - last <= delay_cluster_radius:
            clusters[0] = clusters.pop() + clusters[0]
    out = [max(c, key=lambda d: d.amplitude) for c in clusters]
    out.sort(key=lambda d: (-d.score, d.delay_samples, d.pci.value))
    return out


def write_detections_csv(path, detections: list[Detection]) -> None:
    with open(path, "w") as f:
        f.write(",".join(DETECTION_COLUMNS) + "\n")
        for d in detections:
            f.write(f"{d.pci.value},{d.delay_samples},{d.subsample_offset:.6f},"
                    f"{d.amplitude:.6g},{d.score:.6f}\n")


def read_detections_csv(path) -> list[Detection]:
    return [Detection(Pci(int(r["pci"])), int(r["delay_samples"]),
                      float(r["score"]), float(r["amplitude"]),
                      float(r["subsample_offset"]))
            for _, r in read_csv_rows(path, DETECTION_COLUMNS)]

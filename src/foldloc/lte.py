"""LTE downlink frame synthesis.

Builds standards-shaped FDD downlink frames: primary/secondary synchronization
sequences on the central 62 subcarriers, random QPSK payload across the
occupied band, and cyclic-prefixed OFDM modulation. Only what the
square-law receiver chain needs is modeled; no PBCH, CRS, or coding chains.

`frame_samples` builds a cell's n frames one at a time, each frame's
payload its own draw, bit-identical to one draw of all n: it fills one
symbol-major (140, fft) grid, takes its IFFT in place and copies the
symbols into one preallocated output, each cyclic prefix copied from its
body's tail, so a build holds its output, one grid and one frame's draw.
`sync_segment` builds a span of many PCIs' data-free frames from the
distinct sync bodies inside it alone: the three sectors' PSS bodies,
transformed once per FFT size and gathered by sector, and each SSS in the
span, all PCIs in one IFFT. The zero symbols around them are not
transformed.

Threading, for the whole package: foldloc's threads work one queue: a
fix's cells, and the pieces of a large cell's passes. `harness._synth`
hands a fix's cells to `_overlap`, each job holding the cell's own payload
Generator, which no other job draws from; `_overlap` draws the jobs into
one queue and finishes them in order on the calling thread. Every unit
of work on the queue, a job or a piece of a pass, is a `Future` that one
runner, `_run`, completes with its result or its error, unless it was
cancelled first. The helper threads work the queue, and so does the
caller while it waits, so a busy or descheduled helper holds back only a
job it started. A helper that has not started by the end is cancelled. A
job builds the cell's frames through the private `_frames` and returns
its square, folded over the frames averaged into each output frame,
which the caller filters and folds into the fix in cell order. A job may
offer the pieces of one pass to the threads idle on its queue (`_split`,
help-first as in work stealing): it queues every piece but the first,
works the first itself, then works every queued piece it can still
cancel, and waits only for the pieces another thread took; a piece left
in the queue holds no array of the pass.
`harness._delay_stacked` splits the passes of a cell of at least 2**20
samples, so a wideband fix's 20 MHz cell does not run alone while the
other threads idle. The numpy calls in the jobs and pieces release the
GIL, so they do run at once. Job and piece functions are private and call
no public function of the package, so a tracer that wraps public
functions, and keeps one span stack for all threads, sees every call on
the thread that made it. The output depends neither on the thread count
nor on how a pass is cut.

No layer asks for threads of its own, and with one CPU there is no
parallel work at all. Detection runs on the calling thread. No BLAS call
wakes a thread: numpy's OpenBLAS would share a large product with worker
threads that keep spinning after it returns, so `_blas_on_caller` holds
each product to the thread that calls it, around detection's stage-2
product and around the FIR's blocks.
"""
from __future__ import annotations

import ctypes
import glob
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

SUBCARRIER_HZ = 15_000.0
SYMBOLS_PER_SLOT = 7          # normal cyclic prefix
SLOTS_PER_FRAME = 20
SYMBOLS_PER_FRAME = SYMBOLS_PER_SLOT * SLOTS_PER_FRAME

PSS_ROOTS = (25, 29, 34)      # Zadoff-Chu roots for sector ids 0, 1, 2

# bandwidth MHz -> (resource blocks, FFT size)
BANDWIDTH_TABLE = {
    1.4: (6, 128),
    3.0: (15, 256),
    5.0: (25, 512),
    10.0: (50, 1024),
    15.0: (75, 1536),
    20.0: (100, 2048),
}

# columns (symbol indices within the frame) that carry sync: SSS is the
# symbol immediately before PSS, PSS is the last symbol of slots 0 and 10
SSS_COLS = (5, 75)
PSS_COLS = (6, 76)


# the caller and its helper threads: every CPU this process may run on,
# counted once at import, or every CPU where the platform cannot say which
_CPU_SHARE = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
_helper_pool: tuple[int, ThreadPoolExecutor] | None = None


def _helpers() -> ThreadPoolExecutor:
    """The process's _CPU_SHARE - 1 helper threads, made on first use.

    A forked child, such as a caller's own multiprocessing worker, makes
    its own pool: the threads of one it inherits do not exist in it, so
    nothing submitted to that one would ever run.
    """
    global _helper_pool
    if _helper_pool is None or _helper_pool[0] != os.getpid():
        _helper_pool = os.getpid(), ThreadPoolExecutor(_CPU_SHARE - 1,
                                                       "foldloc-helper")
    return _helper_pool[1]


class _Queue:
    """The one queue of an _overlap: its jobs, the pieces its jobs' passes
    offer (_split), each a call of _run, and the None that ends a helper.
    A thread in work() wakes on every put and every wake(), so the caller,
    working until its next job in order is done, also takes a piece
    offered meanwhile."""

    def __init__(self):
        self._items = deque()
        self._cond = threading.Condition(threading.Lock())

    def put(self, item) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def work(self, done=lambda: False) -> None:
        """Run items from the front, waiting for one while done() is
        false, until done() is true or the item is None."""
        while True:
            with self._cond:
                self._cond.wait_for(lambda: done() or self._items)
                item = None if done() else self._items.popleft()
            if item is None:
                return
            item()
            del item    # hold no job's arrays while waiting for the next


# .queue: the _Queue of the job this thread works, None outside a job
_local = threading.local()


def _run(out, queue, fn, *args) -> None:
    """Complete the Future out with fn(*args), its result or its error,
    unless out was cancelled first: a job or a piece of queue, run with
    queue as this thread's _local.queue. A thread waiting in queue.work()
    for out wakes after."""
    if not out.set_running_or_notify_cancel():
        return
    prev, _local.queue = getattr(_local, "queue", None), queue
    try:
        out.set_result(fn(*args))
    except BaseException as e:      # raised by out.result()
        out.set_exception(e)
    finally:
        _local.queue = prev
    queue.wake()


def _overlap(work, jobs, finish) -> None:
    """finish(k, work(*job)) for the k-th job of the iterable jobs, in order.

    Jobs are drawn from jobs into one queue, each a Future completed by
    _run, and finished, on the calling thread alone. When the process may
    use several CPUs, the _CPU_SHARE - 1 helper threads work the queue,
    and so does the caller until the job it finishes next is done: it
    draws the next job while at most _CPU_SHARE drawn jobs are unfinished,
    so at most _CPU_SHARE + 1 are held at once. A held job costs what its
    arguments hold until a thread works it (a cell's job holds a
    Generator, not a built cell), then its result until it is finished. A
    job may offer the pieces of one pass at a time to the threads idle on
    the queue (_split). On the way out the jobs no thread started are
    cancelled and dropped from the queue, and a helper that has not
    started is cancelled, not waited for.
    With one CPU each job is worked and finished on the caller before the
    next is drawn. work must call no public function of the package; the
    outputs do not depend on the thread count.
    """
    helpers = _CPU_SHARE - 1
    ahead = _CPU_SHARE if helpers else 0
    todo = _Queue()
    serves = [_helpers().submit(todo.work) for _ in range(helpers)]
    unfinished = deque()    # futures of the drawn jobs not yet finished

    def finish_first(k):
        todo.work(unfinished[0].done)   # work the queue until job k is done
        finish(k, unfinished.popleft().result())

    finished = 0
    try:
        for job in jobs:
            unfinished.append(Future())
            todo.put(partial(_run, unfinished[-1], todo, work, *job))
            del job
            while unfinished and (len(unfinished) > ahead
                                  or unfinished[0].done()):
                finish_first(finished)
                finished += 1
        while unfinished:
            finish_first(finished)
            finished += 1
    finally:
        for out in unfinished:      # no thread runs a job cancelled here
            out.cancel()
        # wait() counts a cancelled serve done only once a thread dequeues it
        started = [f for f in serves if not f.cancel()]
        for _ in range(len(started) + 1):
            todo.put(None)
        todo.work()     # drop what no thread started, with its arguments
        wait(started)


def _split(piece, count: int) -> None:
    """piece(k) for each k in range(count), in any order on any thread.

    Inside a job of an _overlap that has helper threads, pieces 1 to
    count - 1 go to the job's queue, each a Future completed by _run, for
    a thread idle on the queue to take. The job's own thread works piece
    0, then, from the back, every piece it can still cancel, which no
    other thread took, and waits only for the pieces another thread took.
    An error in its own pieces stops it; an error in a taken piece, the
    first in piece order, is raised once its own pieces are done. A queued
    piece reaches piece through a box emptied when the pass ends, so one
    left in the queue holds no array. Elsewhere the pieces run in order on
    the calling thread. piece(k) must write what no other piece reads or
    writes, and call no public function of the package and no BLAS, since
    it may run on a helper thread.
    """
    queue = getattr(_local, "queue", None) if _CPU_SHARE > 1 else None
    if queue is None or count < 2:
        for k in range(count):
            piece(k)
        return
    box = [piece]
    del piece

    def run(k):
        box[0](k)

    outs = [Future() for _ in range(count - 1)]
    for k, out in enumerate(outs, 1):
        queue.put(partial(_run, out, queue, run, k))
    try:
        run(0)
        for k in range(count - 1, 0, -1):
            if outs[k - 1].cancel():
                run(k)
    finally:
        taken = [out for out in outs if not out.cancel()]
        wait(taken)
        box.clear()
    for out in taken:
        out.result()


@lru_cache(maxsize=1)
def _numpy_openblas():
    """(get, set) of the thread count of numpy's own OpenBLAS, or None.

    The library is looked up among the files numpy ships, in numpy's own
    directory or the numpy.libs beside it: another OpenBLAS in the process,
    such as scipy's, exports the same unprefixed names but does not run
    numpy's products.
    """
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


_blas_lock = threading.RLock()


@contextmanager
def _blas_on_caller():
    """Run each numpy BLAS call inside on the thread that makes it.

    OpenBLAS's worker threads keep spinning for about 0.1 s after a
    product they shared returns, holding a CPU that the next fix's
    synthesis overlaps its cells' delays on, for a fraction of a
    millisecond saved on a product of detection's or a FIR block's size.
    The thread count is the process's; the previous count is restored on
    exit, so the host's setting never changes, and the lock keeps two
    threads from restoring each other's count. Without numpy's OpenBLAS
    it does nothing.
    """
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        prev = get()
        set_(1)
        try:
            yield
        finally:
            set_(prev)


@dataclass(frozen=True)
class Pci:
    """Physical cell identity in [0, 503]; value = 3*group + sector."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value <= 503:
            raise ValueError(f"PCI {self.value} outside [0, 503]")

    @property
    def group(self) -> int:
        return self.value // 3

    @property
    def sector(self) -> int:
        return self.value % 3


@dataclass(frozen=True)
class FrameConfig:
    """Sampling and grid geometry for one downlink carrier.

    The bandwidth sets everything else (BANDWIDTH_TABLE); only the normal
    cyclic prefix is modeled.
    """

    bandwidth_mhz: float

    def __post_init__(self):
        if self.bandwidth_mhz not in BANDWIDTH_TABLE:
            raise ValueError(f"bandwidth {self.bandwidth_mhz} MHz not in "
                             f"{sorted(BANDWIDTH_TABLE)}")

    @classmethod
    def from_bandwidth(cls, mhz: float) -> "FrameConfig":
        return cls(float(mhz))

    @property
    def n_resource_blocks(self) -> int:
        return BANDWIDTH_TABLE[self.bandwidth_mhz][0]

    @property
    def fft_size(self) -> int:
        return BANDWIDTH_TABLE[self.bandwidth_mhz][1]

    @property
    def sample_rate_hz(self) -> float:
        return self.fft_size * SUBCARRIER_HZ

    @property
    def frame_len(self) -> int:
        """Samples per 10 ms frame (150 * fft_size under normal CP)."""
        return int(round(self.sample_rate_hz * 0.01))

    def cp_len(self, symbol_in_slot: int) -> int:
        # 2048-sample reference CPs are 160 / 144; scale to this FFT size
        if symbol_in_slot == 0:
            return 160 * self.fft_size // 2048
        return 144 * self.fft_size // 2048


def generate_pss(sector: int) -> np.ndarray:
    """Length-62 frequency-domain Zadoff-Chu PSS for sector id 0, 1, or 2.

    The length-63 root sequence is punctured at its center element, giving
    two 31-sample branches. Every element has unit magnitude.
    """
    if sector not in (0, 1, 2):
        raise ValueError(f"sector {sector} not in {{0,1,2}}")
    u = PSS_ROOTS[sector]
    n = np.arange(31)
    lower = np.exp(-1j * np.pi * u * n * (n + 1) / 63.0)
    upper = np.exp(-1j * np.pi * u * (n + 31 + 1) * (n + 31 + 2) / 63.0)
    return np.concatenate([lower, upper])


def _mseq(taps: tuple[int, ...]) -> np.ndarray:
    """Length-31 binary m-sequence from a degree-5 LFSR, x(i+5) = sum of taps."""
    x = np.zeros(31, dtype=np.int64)
    x[4] = 1
    for i in range(26):
        x[i + 5] = sum(x[i + t] for t in taps) % 2
    return x


# generator recurrences (mod 2), initial state 00001:
#   s: x(i+5) = x(i+2) + x(i)
#   c: x(i+5) = x(i+3) + x(i)
#   z: x(i+5) = x(i+4) + x(i+2) + x(i+1) + x(i)
_S_TILDE = 1 - 2 * _mseq((2, 0))
_C_TILDE = 1 - 2 * _mseq((3, 0))
_Z_TILDE = 1 - 2 * _mseq((4, 2, 1, 0))
# row k of each table is its sequence x shifted by k, x((n + k) mod 31)
_S_SHIFTS, _C_SHIFTS, _Z_SHIFTS = (
    x[(np.arange(31)[:, None] + np.arange(31)) % 31]
    for x in (_S_TILDE, _C_TILDE, _Z_TILDE))


def sss_shift_pair(group):
    """Cyclic-shift pair (m0, m1) for SSS group ids in [0, 167].

    group may be an int or an integer array; m0 and m1 take its shape.
    """
    group = np.asarray(group)
    if np.any((group < 0) | (group > 167)):
        raise ValueError(f"group {group} outside [0, 167]")
    q_prime = group // 30
    q = (group + q_prime * (q_prime + 1) // 2) // 30
    m_prime = group + q * (q + 1) // 2
    m0 = m_prime % 31
    m1 = (m0 + m_prime // 31 + 1) % 31
    return m0, m1


def generate_sss(group, sector, subframe: int) -> np.ndarray:
    """Length-62 BPSK SSS for (group, sector) in subframe 0 or 5.

    Two cyclic shifts of an m-sequence are interleaved on even/odd
    subcarriers, scrambled by sector-dependent shifts of two more
    m-sequences; subframes 0 and 5 swap the shift roles so the receiver can
    resolve frame timing. group and sector may be broadcastable integer
    arrays; the sequences then run along a trailing axis of 62.
    """
    if subframe not in (0, 5):
        raise ValueError("SSS exists only in subframes 0 and 5")
    sector = np.asarray(sector)
    if np.any((sector < 0) | (sector > 2)):
        raise ValueError(f"sector {sector} not in {{0,1,2}}")
    m0, m1 = sss_shift_pair(group)
    if subframe == 5:
        m0, m1 = m1, m0
    # subframe 0: s(m0) c0 on even, s(m1) c1 z(m0 mod 8) on odd subcarriers
    even = _S_SHIFTS[m0] * _C_SHIFTS[sector]
    odd = _S_SHIFTS[m1] * _C_SHIFTS[sector + 3] * _Z_SHIFTS[m0 % 8]
    out = np.empty(even.shape[:-1] + (62,))
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


@lru_cache(maxsize=len(BANDWIDTH_TABLE))
def central_62_bins(fft_size: int) -> np.ndarray:
    """FFT-bin indices for the central 62 subcarriers, DC excluded.

    Sequence element 0..30 lands on subcarriers -31..-1 and element 31..61
    lands on +1..+31, so bin order is [fft-31 .. fft-1, 1 .. 31]. Cached
    per FFT size, read-only.
    """
    neg = np.arange(fft_size - 31, fft_size)
    pos = np.arange(1, 32)
    bins = np.concatenate([neg, pos])
    bins.setflags(write=False)
    return bins


_QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))   # 2-bit symbol -> point


@lru_cache(maxsize=504)
def _sync_columns(pci: Pci) -> tuple[tuple[int, np.ndarray], ...]:
    """(symbol, central-62 sequence) of each sync symbol of a frame.

    Cached per PCI, the sequences read-only: every frame of a cell, and
    every fix, writes the same four.
    """
    pss = generate_pss(pci.sector)
    cols = tuple((col, generate_sss(pci.group, pci.sector, subframe))
                 for col, subframe in zip(SSS_COLS, (0, 5))) + \
        tuple((col, pss) for col in PSS_COLS)
    for _, seq in cols:
        seq.setflags(write=False)
    return cols


def _grid(cfg: FrameConfig, sync, bits: np.ndarray, grid: np.ndarray) -> None:
    """Write one frame's bits, (band, 140) 2-bit payload symbols, and sync,
    _sync_columns' pairs, into grid, a symbol-major (140, fft_size) frame
    whose bins outside the band are zero."""
    half = 6 * cfg.n_resource_blocks
    # the band's negative subcarriers first, then 1..half
    np.take(_QPSK, bits[:half].T, out=grid[:, -half:], mode="clip")
    np.take(_QPSK, bits[half:].T, out=grid[:, 1:half + 1], mode="clip")
    c62 = central_62_bins(cfg.fft_size)
    for col, seq in sync:
        grid[col, c62] = seq


def _frames(cfg: FrameConfig, pci: Pci, rng: np.random.Generator,
            n: int) -> np.ndarray:
    """frame_samples' n frames, built one at a time in one grid: each
    frame's payload is one (band, 140) draw written into the grid, whose
    IFFT, taken in place, is copied symbol by symbol into the frame's row
    of the output, each cyclic prefix then copied from its body's tail."""
    sync = _sync_columns(pci)
    fft, half = cfg.fft_size, 6 * cfg.n_resource_blocks
    cp0, cp1 = cfg.cp_len(0), cfg.cp_len(1)
    grid = np.zeros((SYMBOLS_PER_FRAME, fft), dtype=np.complex128)
    slots = grid.reshape(SLOTS_PER_FRAME, SYMBOLS_PER_SLOT, fft)
    out = np.empty((n, cfg.frame_len), dtype=np.complex128)
    # views of out: each slot's symbol 0, then its symbols 1-6, each with
    # its cyclic prefix (the reshape splits a contiguous axis: no copy)
    s = out.reshape(n, SLOTS_PER_FRAME, cfg.frame_len // SLOTS_PER_FRAME)
    rest = s[:, :, cp0 + fft:].reshape(n, SLOTS_PER_FRAME,
                                       SYMBOLS_PER_SLOT - 1, cp1 + fft)
    for first, others in zip(s[:, :, :cp0 + fft], rest):
        _grid(cfg, sync, rng.integers(0, 4, size=(2 * half, SYMBOLS_PER_FRAME),
                                      dtype=np.int32), grid)
        np.fft.ifft(grid, axis=-1, norm="ortho", out=grid)
        first[:, cp0:] = slots[:, 0]
        others[:, :, cp1:] = slots[:, 1:]
        first[:, :cp0] = first[:, fft:]
        others[:, :, :cp1] = others[:, :, fft:]
        # _grid writes only the band and the sync
        grid[:, half + 1:fft - half] = 0
        grid[:, 0] = 0
    return out.ravel()


def frame_samples(cfg: FrameConfig, pci: Pci, rng: np.random.Generator,
                  n_frames: int = 1) -> np.ndarray:
    """n_frames consecutive 10 ms frames of one cell, modulated end to end.

    The occupied band carries random QPSK, one (band, 140) int32 draw of
    rng per frame, which takes the same values, and leaves rng in the same
    state, as one int64 draw of that shape: n_frames single-frame calls
    that share one Generator give the same samples. Frames are built one
    at a time into one output array, so the build holds the output, one
    frame grid and one frame's draw. The pipeline builds frames through
    `_frames`, on whichever thread synthesizes the cell.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")
    return _frames(cfg, pci, rng, n_frames)


@lru_cache(maxsize=len(BANDWIDTH_TABLE))
def _pss_bodies(fft_size: int) -> np.ndarray:
    """The (3, fft_size) time-domain PSS bodies of sectors 0, 1 and 2,
    without cyclic prefix. Cached per FFT size, read-only."""
    bodies = np.zeros((3, fft_size), dtype=np.complex128)
    bodies[:, central_62_bins(fft_size)] = [generate_pss(s) for s in range(3)]
    np.fft.ifft(bodies, axis=-1, norm="ortho", out=bodies)
    bodies.setflags(write=False)
    return bodies


def sync_segment(cfg: FrameConfig, pcis, lo: int, hi: int) -> np.ndarray:
    """Samples lo:hi of the data-free frame of each PCI, (len(pcis), hi - lo).

    Row k equals, to the bit, samples lo:hi of the PCI's whole data-free
    frame as the tests' per-symbol oracle builds it (`tests/oracles.py`,
    build_frame then ofdm_modulate). Every other symbol of a data-free
    frame is zero, so only the distinct sync bodies in the span are
    modulated: the PSS bodies of the three sectors (`_pss_bodies`, once
    per FFT size), gathered by each PCI's sector, and each SSS in the
    span, all PCIs in one IFFT. The samples of the other symbols stay
    zero, untransformed. Each sync symbol's samples are found from the
    slot geometry `_frames` writes with: a slot of frame_len / 20
    samples, symbol 0 with a cp_len(0) prefix, symbols 1-6 with cp_len(1).
    """
    pcis = np.asarray(pcis)
    group, sector = np.divmod(pcis, 3)
    fft, cp0, cp1 = cfg.fft_size, cfg.cp_len(0), cfg.cp_len(1)
    out = np.zeros((pcis.size, hi - lo), dtype=np.complex128)
    for col in SSS_COLS + PSS_COLS:
        # symbol col's samples: its cyclic prefix, then its body from start
        slot, sym = divmod(col, SYMBOLS_PER_SLOT)
        start = (slot * (cfg.frame_len // SLOTS_PER_FRAME) + cp0
                 + sym * (cp1 + fft))
        a, b = max(lo, start - cfg.cp_len(sym)), min(hi, start + fft)
        if a >= b:
            continue
        pos = (np.arange(a, b) - start) % fft
        if col in PSS_COLS:
            out[:, a - lo:b - lo] = _pss_bodies(fft)[:, pos][sector]
        else:
            bodies = np.zeros((pcis.size, fft), dtype=np.complex128)
            bodies[:, central_62_bins(fft)] = generate_sss(
                group, sector, 0 if col == SSS_COLS[0] else 5)
            np.fft.ifft(bodies, axis=-1, norm="ortho", out=bodies)
            out[:, a - lo:b - lo] = bodies[:, pos]
    return out

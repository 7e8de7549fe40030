"""LTE downlink frame synthesis.

Builds standards-shaped FDD downlink frames: primary/secondary synchronization
sequences on the central 62 subcarriers, optional random QPSK payload across
the occupied band, and cyclic-prefixed OFDM modulation. Only what the
square-law receiver chain needs is modeled; no PBCH, CRS, or coding chains.

Synthesis is batched: `frame_samples` fills all n frames of a cell as one
symbol-major (n, 140, fft) grid, runs one IFFT over it, and inserts cyclic
prefixes with one precomputed gather index per FFT size. The payload of n
frames comes from one draw of the generator, bit-identical to n draws of one
frame each.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    @classmethod
    def from_parts(cls, group: int, sector: int) -> "Pci":
        if not 0 <= group <= 167:
            raise ValueError(f"group {group} outside [0, 167]")
        if sector not in (0, 1, 2):
            raise ValueError(f"sector {sector} not in {{0,1,2}}")
        return cls(3 * group + sector)


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


def sss_shift_pair(group: int) -> tuple[int, int]:
    """Cyclic-shift pair (m0, m1) for an SSS group id in [0, 167]."""
    if not 0 <= group <= 167:
        raise ValueError(f"group {group} outside [0, 167]")
    q_prime = group // 30
    q = (group + q_prime * (q_prime + 1) // 2) // 30
    m_prime = group + q * (q + 1) // 2
    m0 = m_prime % 31
    m1 = (m0 + m_prime // 31 + 1) % 31
    return m0, m1


def generate_sss(group: int, sector: int, subframe: int) -> np.ndarray:
    """Length-62 BPSK SSS for (group, sector) in subframe 0 or 5.

    Two cyclic shifts of an m-sequence are interleaved on even/odd
    subcarriers, scrambled by sector-dependent shifts of two more
    m-sequences; subframes 0 and 5 swap the shift roles so the receiver can
    resolve frame timing.
    """
    if subframe not in (0, 5):
        raise ValueError("SSS exists only in subframes 0 and 5")
    m0, m1 = sss_shift_pair(group)
    n = np.arange(31)
    s_m0 = _S_TILDE[(n + m0) % 31]
    s_m1 = _S_TILDE[(n + m1) % 31]
    c0 = _C_TILDE[(n + sector) % 31]
    c1 = _C_TILDE[(n + sector + 3) % 31]
    z_m0 = _Z_TILDE[(n + (m0 % 8)) % 31]
    z_m1 = _Z_TILDE[(n + (m1 % 8)) % 31]
    out = np.empty(62, dtype=np.float64)
    if subframe == 0:
        out[0::2] = s_m0 * c0
        out[1::2] = s_m1 * c1 * z_m0
    else:
        out[0::2] = s_m1 * c0
        out[1::2] = s_m0 * c1 * z_m1
    return out


def central_62_bins(fft_size: int) -> np.ndarray:
    """FFT-bin indices for the central 62 subcarriers, DC excluded.

    Sequence element 0..30 lands on subcarriers -31..-1 and element 31..61
    lands on +1..+31, so bin order is [fft-31 .. fft-1, 1 .. 31].
    """
    neg = np.arange(fft_size - 31, fft_size)
    pos = np.arange(1, 32)
    return np.concatenate([neg, pos])


def occupied_bins(cfg: FrameConfig) -> np.ndarray:
    """FFT-bin indices of the n_rb*12 occupied subcarriers (DC null)."""
    half = 6 * cfg.n_resource_blocks
    neg = np.arange(cfg.fft_size - half, cfg.fft_size)
    pos = np.arange(1, half + 1)
    return np.concatenate([neg, pos])


_QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))   # 2-bit symbol -> point


def _cell_symbols(cfg: FrameConfig, pci: Pci | int, data_mode: str, rng_seed,
                  n_frames: int) -> np.ndarray:
    """n frames of one cell as a symbol-major (n, 140, fft_size) grid.

    The payload of all frames is one (n, band, 140) draw, which takes the
    same bits from the generator as n draws of one (band, 140) frame.
    """
    if isinstance(pci, int):
        pci = Pci(pci)
    if data_mode not in ("none", "random_qpsk"):
        raise ValueError(f"unknown data_mode {data_mode!r}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)

    grid = np.zeros((n_frames, SYMBOLS_PER_FRAME, cfg.fft_size),
                    dtype=np.complex128)
    if data_mode == "random_qpsk":
        half = 6 * cfg.n_resource_blocks
        bits = rng.integers(0, 4, size=(n_frames, 2 * half, SYMBOLS_PER_FRAME))
        qpsk = np.take(_QPSK, bits)
        # occupied_bins order: negative subcarriers first, then 1..half
        grid[:, :, -half:] = qpsk[:, :half].transpose(0, 2, 1)
        grid[:, :, 1:half + 1] = qpsk[:, half:].transpose(0, 2, 1)

    c62 = central_62_bins(cfg.fft_size)
    pss = generate_pss(pci.sector)
    for col, subframe in zip(SSS_COLS, (0, 5)):
        grid[:, col, c62] = generate_sss(pci.group, pci.sector, subframe)
    for col in PSS_COLS:
        grid[:, col, c62] = pss
    return grid


def build_frame(cfg: FrameConfig, pci: Pci | int, data_mode: str = "none",
                rng_seed=0) -> np.ndarray:
    """One frame's resource grid for a single cell, (fft_size, 140) complex.

    Rows are FFT bins (row 0 = DC, upper rows are negative frequencies),
    columns are OFDM symbols. data_mode "none" leaves every non-sync element
    zero; "random_qpsk" fills the occupied band with independent unit-power
    QPSK symbols drawn from rng_seed (an int seed or a numpy Generator).
    Sync always overwrites the central 62 subcarriers of its four symbols.
    """
    return _cell_symbols(cfg, pci, data_mode, rng_seed, 1)[0].T


@lru_cache(maxsize=len(BANDWIDTH_TABLE))
def _cp_layout(cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices between one frame and its 140 symbol bodies.

    With bodies the (140, fft_size) time-domain symbols of a frame,
    bodies.ravel()[insert] is the frame with cyclic prefixes, and
    frame[strip] is bodies.ravel() again. Both arrays are read-only.
    """
    fft = cfg.fft_size
    cps = np.array([cfg.cp_len(s % SYMBOLS_PER_SLOT)
                    for s in range(SYMBOLS_PER_FRAME)])
    sym = np.repeat(np.arange(SYMBOLS_PER_FRAME), cps + fft)
    starts = np.concatenate([[0], np.cumsum(cps + fft)[:-1]])
    # offset of each frame sample within its symbol, counted from the body
    # start, so the cyclic prefix sits at negative offsets
    offset = np.arange(sym.size) - starts[sym] - cps[sym]
    insert = sym * fft + offset % fft
    strip = ((starts + cps)[:, None] + np.arange(fft)).ravel()
    assert insert.size == cfg.frame_len
    insert.setflags(write=False)
    strip.setflags(write=False)
    return insert, strip


def _add_cyclic_prefixes(bodies: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """(n, 140, fft_size) time-domain symbols -> n framed 10 ms frames."""
    insert, _ = _cp_layout(cfg)
    return np.take(bodies.reshape(bodies.shape[0], -1), insert, axis=1).ravel()


def ofdm_modulate(symbols: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Unitary IDFT per symbol with cyclic prefixes.

    symbols is an (fft_size, 140 * n) grid laid out as build_frame's, n
    frames side by side; returns the n frames end to end.
    """
    shape = symbols.shape
    if (len(shape) != 2 or shape[0] != cfg.fft_size
            or shape[1] == 0 or shape[1] % SYMBOLS_PER_FRAME):
        raise ValueError(f"grid shape {shape} is not ({cfg.fft_size}, "
                         f"{SYMBOLS_PER_FRAME} * n)")
    bodies = symbols.T.reshape(-1, SYMBOLS_PER_FRAME, cfg.fft_size)
    return _add_cyclic_prefixes(np.fft.ifft(bodies, axis=-1, norm="ortho"), cfg)


def ofdm_demodulate(samples: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Strip cyclic prefixes and apply the unitary DFT; inverse of modulate.

    samples must hold whole frames; n frames give an (fft_size, 140 * n) grid.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0 or samples.size % cfg.frame_len:
        raise ValueError(f"{samples.size} samples are not whole "
                         f"{cfg.frame_len}-sample frames")
    _, strip = _cp_layout(cfg)
    bodies = np.take(samples.reshape(-1, cfg.frame_len), strip, axis=1)
    spec = np.fft.fft(bodies.reshape(-1, cfg.fft_size), axis=-1, norm="ortho")
    return spec.T


def frame_samples(cfg: FrameConfig, pci: Pci | int, data_mode: str = "none",
                  rng_seed=0, n_frames: int = 1) -> np.ndarray:
    """n_frames consecutive 10 ms frames of one cell, modulated end to end.

    Equal, to rounding, to concatenating n_frames single-frame calls that
    share one Generator (build_frame followed by ofdm_modulate), but built
    with one payload draw, one IFFT and one cyclic-prefix gather.
    """
    grid = _cell_symbols(cfg, pci, data_mode, rng_seed, n_frames)
    np.fft.ifft(grid, axis=-1, norm="ortho", out=grid)
    return _add_cyclic_prefixes(grid, cfg)

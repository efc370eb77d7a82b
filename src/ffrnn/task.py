"""3-bit flip-flop task data.

Inputs are square SET (+amp) / RESET (-amp) pulses at random intervals with
Gaussian noise on every entry; targets hold the commanded state (+1 / -1,
0 before a channel's first command) and switch ``delay_steps`` after a pulse's
falling edge. Trial i of a dataset is generated from a seed derived from
(config.seed, i), so any single sample can be regenerated in isolation.

The stream contract: trial i reads the PCG64 stream of ``trial_rng(config,
i)`` from its next whole 64-bit output on. Its events come first: on each
channel in turn, a gap in [min_gap, max_gap] and then a sign, repeated
while the pulse fits. Each is drawn by Lemire's bounded method on the
stream's 32-bit halves, each 64-bit output low half first, which gives
exactly the values of ``Generator.integers`` on a fresh stream, its rare
redraws included. The noise is the ``Generator.normal(0, noise_std)`` draws
that follow; they start at the next whole 64-bit output. Where the stream
is left afterwards is not part of the contract. A dataset is built 64
trials at a time, their events drawn in lockstep.
"""

from __future__ import annotations

import dataclasses
import json
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng, derive_seed
from .tensorio import config_from, read_tensor, write_json, write_tensor

PROBE_STEPS = 600
PROBE_HOLD_MIN = 60
_BLOCK_TRIALS = 64   # trials whose events are drawn in lockstep
_LOW_HALF = 0xFFFFFFFF

# each memory state's sign triple, indexed by its code 0..7: channel 0 is the
# most significant bit, 1 for +1 and 0 for -1
_STATE_WEIGHTS = np.array([4, 2, 1])
STATE_SIGNS = np.where(np.arange(8)[:, None] & _STATE_WEIGHTS, 1, -1)
STATE_SIGNS.flags.writeable = False
GRAY_ORDER = (0, 1, 3, 2, 6, 7, 5, 4)   # the probe's states, one bit flipped per transition


@dataclass(frozen=True)
class TaskConfig:
    n_bits: int = 3
    t_steps: int = 300
    pulse_width: int = 10
    pulse_amp: float = 1.0
    min_gap: int = 30
    max_gap: int = 100
    noise_std: float = 0.05
    delay_steps: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if self.pulse_width < 1:
            raise ValueError("pulse_width must be >= 1")
        if self.min_gap > self.max_gap:
            raise ValueError("min_gap must be <= max_gap")
        if self.min_gap < 0:
            raise ValueError("gaps must be non-negative")
        if self.max_gap - self.min_gap >= 1 << 32:
            raise ValueError("max_gap - min_gap must be < 2**32")
        if self.delay_steps < 0:
            raise ValueError("delay_steps must be >= 0")
        if self.t_steps <= self.pulse_width + self.delay_steps:
            raise ValueError("t_steps must exceed pulse_width + delay_steps")
        if not 0 < self.pulse_amp < np.inf:
            raise ValueError("pulse_amp must be finite and > 0")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and >= 0")


@dataclass
class Trial:
    """One trial: inputs (t_steps x n_bits), targets in {-1, 0, +1}, and the
    (onset_step, channel, sign) pulse events that made them."""

    inputs: np.ndarray
    targets: np.ndarray
    events: tuple = ()
    config: TaskConfig | None = None


@dataclass
class Dataset:
    """x, y tensors of shape [samples, t_steps, n_bits], the generator config,
    and the [4, E] int64 events, a (trial, onset, channel, sign) column each.
    The targets y are int8 as ``generate_dataset`` and ``load_dataset`` build
    them, every one -1, 0 or +1; x is float64."""

    x: np.ndarray
    y: np.ndarray
    config: TaskConfig
    events: np.ndarray

    @property
    def samples(self) -> int:
        return self.x.shape[0]


class _Halves:
    """The 32-bit halves of a block of PCG64 streams, in the order that
    ``next_uint32`` hands them out on a fresh stream: each 64-bit output's low
    half and then its high half, split by shifts, so byte order does not
    matter.

    Raw outputs are read from the bit generators as the draws need them, so
    those run ahead of ``pos``, the halves each stream has taken; ``starts``
    keeps the state each stream began in.
    """

    def __init__(self, bit_generators, width: int):
        self.bit_generators = bit_generators
        self.starts = [bg.state for bg in bit_generators]
        self.pos = np.zeros(len(bit_generators), dtype=np.int64)
        self.halves = np.empty((len(bit_generators), 0), dtype=np.uint64)
        self._read(width)

    def _read(self, n: int):
        raw = np.stack([bg.random_raw(n) for bg in self.bit_generators])
        more = np.empty((len(raw), 2 * n), dtype=np.uint64)
        more[:, 0::2] = raw & _LOW_HALF
        more[:, 1::2] = raw >> 32
        self.halves = np.concatenate([self.halves, more], axis=1)

    def _take(self, rows: np.ndarray) -> np.ndarray:
        pos = self.pos[rows]
        if pos.max() >= self.halves.shape[1]:
            self._read(self.halves.shape[1])
        self.pos[rows] = pos + 1
        return self.halves[rows, pos]

    def integers(self, rows: np.ndarray, span: int) -> np.ndarray:
        """``Generator.integers(0, span)`` once on each stream of ``rows``,
        1 <= span <= 2**32: Lemire's bounded method, redraws included, as
        numpy runs it. A span of 1 draws nothing."""
        if span == 1:
            return np.zeros(len(rows), dtype=np.int64)
        m = self._take(rows) * np.uint64(span)
        out = m >> 32
        threshold = (1 << 32) % span
        redo = np.flatnonzero((m & _LOW_HALF) < threshold)
        while redo.size:
            m = self._take(rows[redo]) * np.uint64(span)
            out[redo] = m >> 32
            redo = redo[(m & _LOW_HALF) < threshold]
        return out.astype(np.int64)

    def seek(self, b: int, bit_generator):
        """Set ``bit_generator`` to stream b's next whole 64-bit output after
        the halves taken."""
        bit_generator.state = self.starts[b]
        bit_generator.advance((int(self.pos[b]) + 1) // 2)


def _first_read(config: TaskConfig) -> int:
    """Raw outputs to read per stream at first: enough for every draw of the
    busiest possible trial without a redraw (a gap and a sign per pulse that
    fits, and the gap that does not, on each channel), at most 512."""
    room = config.t_steps - config.pulse_width
    pulses = 0 if config.min_gap > room else (
        (room - config.min_gap) // (config.min_gap + config.pulse_width) + 1)
    return min(config.n_bits * (2 * pulses + 1) // 2 + 1, 512)


def _draw_events(config: TaskConfig, halves: _Halves):
    """Per channel, gap ~ U[min_gap, max_gap] then a pulse of equiprobable
    sign, repeated while it fits; drawn in lockstep over the streams still
    drawing, channel by channel. Returns the [4, E] array of (trial, onset,
    channel, sign) columns ordered by trial, onset and channel."""
    room = config.t_steps - config.pulse_width   # the latest onset that fits
    span = config.max_gap - config.min_gap + 1
    low = min(config.min_gap, room + 1)   # a longer gap fits no better
    trials = len(halves.starts)
    drawn = [np.zeros((4, 0), dtype=np.int64)]
    for channel in range(config.n_bits):
        free = np.zeros(trials, dtype=np.int64)   # where the last pulse ended
        rows = np.arange(trials)
        while rows.size:
            onset = free[rows] + low + halves.integers(rows, span)
            fits = onset <= room
            rows, onset = rows[fits], onset[fits]
            if rows.size:
                sign = 2 * halves.integers(rows, 2) - 1
                drawn.append(np.stack([rows, onset, np.full_like(rows, channel), sign]))
                free[rows] = onset + config.pulse_width
    trial, onset, channel, sign = events = np.concatenate(drawn, axis=1)
    return events[:, np.lexsort((channel, onset, trial))]


def _event_array(triples) -> np.ndarray:
    """The [4, E] int64 events of one trial's (onset, channel, sign) triples, as trial 0."""
    return np.insert(np.array(triples, dtype=np.int64).reshape(-1, 3).T, 0, 0, axis=0)


def _events_of(events: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The columns of trials lo <= trial < hi, renumbered from trial 0."""
    picked = events[:, (events[0] >= lo) & (events[0] < hi)]
    picked[0] -= lo
    return picked


def _add_pulses(x, trial, onset, channel, sign, pulse_width: int, pulse_amp: float):
    """Add each event's square pulse to x[trial, step, channel]. Pulses on
    one channel never overlap, so no index repeats within one ``+=``."""
    value = sign * pulse_amp
    for j in range(pulse_width):
        x[trial, onset + j, channel] += value


def _write_targets(y, trial, onset, channel, sign, pulse_width: int, delay_steps: int):
    """Write the flip-flop states of the events into the zeroed
    y[trial, step, channel]: each event sets its channel to sign at
    onset + pulse_width + delay_steps. Built as the running sum over steps of
    each event's change of state, sign minus the sign before it on its
    channel, in y's own dtype and in place; every partial sum is a state in
    {-1, 0, +1}, so int8 and float64 sum it exactly. The delay is an
    argument, so the targets of any delay come from the same events."""
    order = np.lexsort((onset, channel, trial))
    trial, onset, channel, sign = trial[order], onset[order], channel[order], sign[order]
    change = sign.astype(y.dtype)
    same = (trial[1:] == trial[:-1]) & (channel[1:] == channel[:-1])
    change[1:][same] -= sign[:-1][same]
    effect = onset + pulse_width + delay_steps
    shown = effect < y.shape[1]
    y[trial[shown], effect[shown], channel[shown]] = change[shown]
    np.cumsum(y, axis=1, dtype=y.dtype, out=y)


def _committed(targets: np.ndarray) -> np.ndarray:
    """Whether every channel (last axis) of ``targets`` is at +-1, through one
    boolean temporary of their size: the comparisons are or-ed in place."""
    held = targets == 1
    held |= targets == -1
    return held.all(axis=-1)


def state_codes(targets: np.ndarray) -> np.ndarray:
    """The memory state 0..7 (``STATE_SIGNS``) of each row of the
    [..., 3] ``targets``, or -1 where any channel is not at +-1."""
    targets = np.asarray(targets)
    return np.where(_committed(targets), (targets > 0) @ _STATE_WEIGHTS, -1)


def _clean_hold_mask(events: np.ndarray, y: np.ndarray, config, pad: int) -> np.ndarray:
    """[trials, t_steps] clean holds of ``y``: all channels at +-1 and no
    pulse of ``events`` (trials from y's first) in [onset, onset + pulse_width
    + delay_steps + pad]. The open windows are a scatter-add of +1 at each
    onset and -1 past its window's end (at most t_steps), summed over steps
    in place. No count exceeds the number of events, so they are int16
    below 2**15 events and int32 from there."""
    mask = _committed(y)
    trial, onset, t_steps = events[0], events[1], y.shape[1]
    span = min(config.pulse_width + config.delay_steps + pad + 1, t_steps)   # no overflow
    count = np.int16 if events.shape[1] < 1 << 15 else np.int32
    open_windows = np.zeros((len(y), t_steps + 1), dtype=count)
    np.add.at(open_windows, (trial, onset), 1)
    np.add.at(open_windows, (trial, np.minimum(onset + span, t_steps)), -1)
    np.cumsum(open_windows, axis=1, dtype=count, out=open_windows)
    mask &= open_windows[:, :t_steps] == 0
    return mask


def _build(config: TaskConfig, halves: _Halves, x, y, noise) -> tuple:
    """Draw the events of a block of trials and write the trials into its
    zeroed x and y: each trial's noise from the ``noise`` Generator, set to
    its stream after its events, then the pulses and the targets. Returns
    the events as ``_draw_events`` does."""
    events = _draw_events(config, halves)
    if config.noise_std > 0:
        for b in range(len(x)):
            halves.seek(b, noise.bit_generator)
            noise.standard_normal(out=x[b])
        x *= config.noise_std
        x += 0.0   # a product that underflowed to -0.0 reads +0.0, as 0 + std * z does
    _add_pulses(x, *events, config.pulse_width, config.pulse_amp)
    _write_targets(y, *events, config.pulse_width, config.delay_steps)
    return events


def generate_trial(config: TaskConfig, rng: SeededRng) -> Trial:
    """One random trial from ``rng``'s stream, built as a dataset's are: its
    events and then its noise, from the stream's next whole 64-bit output
    on. Where ``rng`` is left afterwards is not part of the contract."""
    halves = _Halves([rng.gen.bit_generator], _first_read(config))
    x = np.zeros((1, config.t_steps, config.n_bits))
    y = np.zeros_like(x)
    events = _build(config, halves, x, y, rng.gen)
    return Trial(x[0], y[0], tuple(map(tuple, events[1:].T.tolist())), config)


def trial_rng(config: TaskConfig, index: int) -> SeededRng:
    """Stream for sample ``index``; independent of all other samples. The
    same stream as ``SeededRng(config.seed).derive(f"trial|{index}")``."""
    return SeededRng(derive_seed(config.seed, f"trial|{index}"))


def _block_events(config: TaskConfig, samples: int, draw) -> np.ndarray:
    """The [4, E] events of ``samples`` trials, block by block of trials
    lo..hi-1 from ``draw(lo, hi, halves)`` with lo added to the trial row;
    grown in place, since joining the blocks would briefly hold them twice."""
    events = np.empty((0, 4), dtype=np.int64)
    for lo in range(0, samples, _BLOCK_TRIALS):
        hi = min(lo + _BLOCK_TRIALS, samples)
        streams = [np.random.PCG64(derive_seed(config.seed, f"trial|{i}"))
                   for i in range(lo, hi)]
        block = draw(lo, hi, _Halves(streams, _first_read(config)))
        events.resize((len(events) + block.shape[1], 4), refcheck=False)
        events[len(events) - block.shape[1]:] = block.T + [lo, 0, 0, 0]
    return events.T


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """A zeroed ``dtype`` array in a private anonymous mapping of its own,
    unmapped when the array is freed. A dataset freed from the heap would
    leave a large free chunk there, or raise glibc's mmap threshold, and the
    next one set up would grow the heap instead of reusing it. Every page is
    written, so the mapping is populated up front, which the kernel does
    faster than one page fault at a time."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    buffer = mmap.mmap(-1, dtype.itemsize * count, flags=flags)
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def generate_dataset(config: TaskConfig, samples: int) -> Dataset:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = _mapped((samples, config.t_steps, config.n_bits), np.float64)
    y = _mapped(x.shape, np.int8)   # every target is -1, 0 or +1
    noise = np.random.Generator(np.random.PCG64(0))   # set to each trial's stream
    events = _block_events(config, samples, lambda lo, hi, halves: _build(
        config, halves, x[lo:hi], y[lo:hi], noise))
    return Dataset(x, y, config, events)


def generate_probe(config: TaskConfig) -> Trial:
    """Deterministic noiseless 600-step trial visiting all 8 memory states in
    Gray order.

    All three channels are commanded at step 0 to establish the first state;
    the remaining 7 transitions flip one channel each, spaced so every state
    holds at least PROBE_HOLD_MIN steps after its target settles.
    """
    if config.n_bits != 3:
        raise ValueError("the probe is defined for 3-bit configs")
    settle = config.pulse_width + config.delay_steps
    spacing = (PROBE_STEPS - settle - PROBE_HOLD_MIN) // 7
    if spacing < max(PROBE_HOLD_MIN, config.pulse_width + 1):
        raise ValueError("probe schedule does not fit in 600 steps")

    states = STATE_SIGNS[list(GRAY_ORDER)].tolist()
    events = [(0, ch, states[0][ch]) for ch in range(3)] + [
        (k * spacing, ch, states[k][ch])
        for k in range(1, 8) for ch in range(3) if states[k][ch] != states[k - 1][ch]]
    config = dataclasses.replace(config, t_steps=PROBE_STEPS, noise_std=0.0)
    arrays = _event_array(events)
    x = np.zeros((1, PROBE_STEPS, 3))
    y = np.zeros_like(x)
    _add_pulses(x, *arrays, config.pulse_width, config.pulse_amp)
    _write_targets(y, *arrays, config.pulse_width, config.delay_steps)
    return Trial(x[0], y[0], events=tuple(events), config=config)


def save_dataset(dataset: Dataset, out_dir) -> list:
    """Write x.rnt, y.rnt and config.json; returns the file paths. The [4, E]
    events are not written: ``load_dataset`` regenerates them."""
    paths = [os.path.join(out_dir, name) for name in ("x.rnt", "y.rnt", "config.json")]
    write_tensor(paths[0], dataset.x)
    write_tensor(paths[1], dataset.y)
    write_json(paths[2], dataclasses.asdict(dataset.config))
    return paths


def load_dataset(in_dir) -> Dataset:
    """Read a dataset directory, its targets as int8 (``_read_targets``).
    Its [4, E] events are drawn again from each
    ``trial_rng(config, i)``, which yields them before any noise, 64 trials
    at a time and with no noise drawn."""
    config_path = os.path.join(in_dir, "config.json")
    if not os.path.isfile(config_path):
        raise FileNotFoundError(f"no config.json under {in_dir}")
    with open(config_path) as fh:
        config = config_from(TaskConfig, json.load(fh), config_path)
    x = read_tensor(os.path.join(in_dir, "x.rnt"))
    y = _read_targets(os.path.join(in_dir, "y.rnt"))
    if x.shape != y.shape or x.ndim != 3:
        raise ValueError(f"inconsistent dataset tensors: x {x.shape}, y {y.shape}")
    if x.shape[1:] != (config.t_steps, config.n_bits):
        raise ValueError(f"dataset tensors {x.shape} do not match config.json")
    events = _block_events(config, x.shape[0],
                           lambda lo, hi, halves: _draw_events(config, halves))
    return Dataset(x, y, config, events)


def _read_targets(path) -> np.ndarray:
    """The targets of a y.rnt file as int8, read as the file's float32. Any
    value but -1, 0 or +1 (NaN included) raises a ValueError naming
    ``path`` and the first such value."""
    y = read_tensor(path, np.float32)
    valid = y == 0
    valid |= y == 1
    valid |= y == -1
    if not valid.all():
        bad = np.unravel_index(np.argmin(valid), y.shape)
        raise ValueError(f"{path}: targets must be -1, 0 or +1, "
                         f"found {float(y[bad])!r} at {tuple(map(int, bad))}")
    return y.astype(np.int8)

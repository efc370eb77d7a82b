"""3-bit flip-flop task data.

Inputs are square SET (+amp) / RESET (-amp) pulses at random intervals with
Gaussian noise on every entry; targets hold the commanded state (+1 / -1,
0 before a channel's first command) and switch ``delay_steps`` after a pulse's
falling edge. Trial i of a dataset is generated from a seed derived from
(config.seed, i), so any single sample can be regenerated in isolation.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng, derive_seed
from .tensorio import config_from, read_tensor, write_json, write_tensor

PROBE_STEPS = 600
PROBE_HOLD_MIN = 60

# state sequence for the probe: one channel flips per transition
GRAY_ORDER = ("000", "001", "011", "010", "110", "111", "101", "100")


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
    and per sample the (onset_step, channel, sign) pulse events."""

    x: np.ndarray
    y: np.ndarray
    config: TaskConfig
    events: list

    @property
    def samples(self) -> int:
        return self.x.shape[0]


def flipflop_oracle(events, t_steps: int, delay_steps: int, n_bits: int,
                    pulse_width: int = 1) -> np.ndarray:
    """Exact flip-flop state machine.

    ``events`` are (onset_step, channel, sign) sorted by step, sign in
    {+1, -1}. A channel is 0 until its first event takes effect; it becomes
    sign at onset + pulse_width + delay_steps (falling edge plus delay) and
    holds until overridden. Effects beyond the horizon never show. Overlapping
    pulses on one channel are rejected.
    """
    targets = np.zeros((t_steps, n_bits))
    last_end = {}
    prev_step = None
    for step, channel, sign in events:
        if prev_step is not None and step < prev_step:
            raise ValueError("events must be sorted by step")
        prev_step = step
        if not 0 <= channel < n_bits:
            raise ValueError(f"channel {channel} out of range")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if step < 0 or step + pulse_width > t_steps:
            raise ValueError(f"pulse at step {step} does not fit the trial")
        if channel in last_end and step < last_end[channel]:
            raise ValueError(
                f"overlapping pulses on channel {channel} at step {step}"
            )
        last_end[channel] = step + pulse_width
        effect = step + pulse_width + delay_steps
        if effect < t_steps:
            targets[effect:, channel] = sign
    return targets


def _draw_events(config: TaskConfig, rng: SeededRng) -> tuple:
    """Per channel, gap ~ U[min_gap, max_gap] then a pulse of equiprobable
    sign, repeated while it fits; sorted by (onset, channel)."""
    events = []
    for channel in range(config.n_bits):
        t = 0
        while True:
            gap = int(rng.gen.integers(config.min_gap, config.max_gap + 1))
            onset = t + gap
            if onset + config.pulse_width > config.t_steps:
                break
            sign = 1 if rng.gen.integers(0, 2) == 1 else -1
            events.append((onset, channel, sign))
            t = onset + config.pulse_width
    events.sort(key=lambda e: (e[0], e[1]))
    return tuple(events)


def _pulse_trial(config: TaskConfig, events) -> Trial:
    """The noiseless trial of ``events``: square pulses of ``pulse_amp`` as
    inputs and the ``flipflop_oracle`` states as targets."""
    inputs = np.zeros((config.t_steps, config.n_bits))
    for onset, channel, sign in events:
        inputs[onset:onset + config.pulse_width, channel] = sign * config.pulse_amp
    targets = flipflop_oracle(events, config.t_steps, config.delay_steps,
                              config.n_bits, config.pulse_width)
    return Trial(inputs, targets, events=tuple(events), config=config)


def generate_trial(config: TaskConfig, rng: SeededRng) -> Trial:
    """One random trial: the events of ``_draw_events``, then noise added to
    every input entry from the same stream."""
    trial = _pulse_trial(config, _draw_events(config, rng))
    if config.noise_std > 0:
        trial.inputs += rng.gen.normal(0.0, config.noise_std, trial.inputs.shape)
    return trial


def trial_rng(config: TaskConfig, index: int) -> SeededRng:
    """Stream for sample ``index``; independent of all other samples. The
    same stream as ``SeededRng(config.seed).derive(f"trial|{index}")``."""
    return SeededRng(derive_seed(config.seed, f"trial|{index}"))


def generate_dataset(config: TaskConfig, samples: int) -> Dataset:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = np.zeros((samples, config.t_steps, config.n_bits))
    y = np.zeros_like(x)
    events = []
    for i in range(samples):
        trial = generate_trial(config, trial_rng(config, i))
        x[i] = trial.inputs
        y[i] = trial.targets
        events.append(trial.events)
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

    states = [tuple(2 * int(b) - 1 for b in code) for code in GRAY_ORDER]
    events = [(0, ch, states[0][ch]) for ch in range(3)]
    for k in range(1, 8):
        flipped = next(c for c in range(3) if states[k][c] != states[k - 1][c])
        events.append((k * spacing, flipped, states[k][flipped]))
    return _pulse_trial(
        dataclasses.replace(config, t_steps=PROBE_STEPS, noise_std=0.0), events)


def save_dataset(dataset: Dataset, out_dir) -> list:
    """Write x.rnt, y.rnt and config.json; returns the file paths. The events
    are not written: ``load_dataset`` regenerates them from the config."""
    paths = [os.path.join(out_dir, name) for name in ("x.rnt", "y.rnt", "config.json")]
    write_tensor(paths[0], dataset.x)
    write_tensor(paths[1], dataset.y)
    write_json(paths[2], dataclasses.asdict(dataset.config))
    return paths


def load_dataset(in_dir) -> Dataset:
    """Read a dataset directory. Each sample's events are drawn again from
    ``trial_rng(config, i)``, which yields them before any noise."""
    config_path = os.path.join(in_dir, "config.json")
    if not os.path.isfile(config_path):
        raise FileNotFoundError(f"no config.json under {in_dir}")
    with open(config_path) as fh:
        config = config_from(TaskConfig, json.load(fh), config_path)
    x = read_tensor(os.path.join(in_dir, "x.rnt"))
    y = read_tensor(os.path.join(in_dir, "y.rnt"))
    if x.shape != y.shape or x.ndim != 3:
        raise ValueError(f"inconsistent dataset tensors: x {x.shape}, y {y.shape}")
    if x.shape[1:] != (config.t_steps, config.n_bits):
        raise ValueError(f"dataset tensors {x.shape} do not match config.json")
    events = [_draw_events(config, trial_rng(config, i)) for i in range(x.shape[0])]
    return Dataset(x, y, config, events)

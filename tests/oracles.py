"""Independent reference implementations used by multiple test modules.

These deliberately avoid the production code paths (no slice assignment, no
shared helpers) so comparisons stay meaningful.
"""

from itertools import product

import numpy as np

from ffrnn.analysis import CUBE_GROUP_SIZES, CubeReport
from ffrnn.linalg import SeededRng, derive_seed


def replay_oracle(events, t_steps, delay_steps, n_bits, pulse_width):
    """Walk time forward step by step, applying scheduled state flips."""
    pending = {}
    for onset, channel, sign in events:
        pending.setdefault(onset + pulse_width + delay_steps, []).append(
            (channel, sign))
    state = [0.0] * n_bits
    rows = []
    for t in range(t_steps):
        for channel, sign in pending.get(t, []):
            state[channel] = float(sign)
        rows.append(list(state))
    return np.array(rows)


def step(params, config, h, x):
    """Single Euler update of the hidden state from matrix-vector products."""
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=float)
    if h.shape != (config.n_units,):
        raise ValueError(f"state has shape {h.shape}, expected ({config.n_units},)")
    if x.shape != (config.n_in,):
        raise ValueError(f"input has shape {x.shape}, expected ({config.n_in},)")
    a = params.w_rec @ h + params.w_in @ x + params.b_rec
    alpha = config.dt / config.tau
    return (1.0 - alpha) * h + alpha * np.tanh(a)


def bptt_oracle(params, config, x, y):
    """Gradients of the mean squared readout error, one trial and one step at
    a time: a forward walk keeping h_t and tanh(a_t), then a backward walk
    with outer products. Returns (dict of gradients, loss)."""
    alpha = config.dt / config.tau
    batch, t_steps, n_out = y.shape
    n = config.n_units
    scale = 2.0 / (batch * t_steps * n_out)
    g = {"w_in": np.zeros(params.w_in.shape), "w_rec": np.zeros((n, n)),
         "w_out": np.zeros(params.w_out.shape), "b_rec": np.zeros(n),
         "b_out": np.zeros(n_out)}
    total = 0.0
    for b in range(batch):
        hs, ss = [np.zeros(n)], []
        for t in range(t_steps):
            a = params.w_rec @ hs[t] + params.w_in @ x[b, t] + params.b_rec
            ss.append(np.tanh(a))
            hs.append((1.0 - alpha) * hs[t] + alpha * ss[t])
        dh_later = np.zeros(n)  # dL/dh_t through h_{t+1}
        for t in range(t_steps - 1, -1, -1):
            err = params.w_out @ hs[t + 1] + params.b_out - y[b, t]
            total += float(err @ err)
            e = scale * err
            g["w_out"] += np.outer(e, hs[t + 1])
            g["b_out"] += e
            dh = params.w_out.T @ e + dh_later
            da = alpha * (1.0 - ss[t] ** 2) * dh
            g["w_rec"] += np.outer(da, hs[t])
            g["w_in"] += np.outer(da, x[b, t])
            g["b_rec"] += da
            dh_later = (1.0 - alpha) * dh + params.w_rec.T @ da
    if not config.use_bias:
        g["b_rec"] = np.zeros(n)
        g["b_out"] = np.zeros(n_out)
    return g, total / (batch * t_steps * n_out)


def clean_hold_oracle(events, y, pulse_width, delay, pad):
    """Clean-hold steps of one [t_steps, channels] trial, step by step: every
    channel committed to +-1 and no pulse with
    onset <= step <= onset + pulse_width + delay + pad."""
    t_steps = y.shape[0]
    valid = np.zeros(t_steps, dtype=bool)
    for t in range(t_steps):
        committed = all(abs(v) == 1.0 for v in y[t])
        blocked = any(onset <= t <= onset + pulse_width + delay + pad
                      for onset, _, _ in events)
        valid[t] = committed and not blocked
    return valid


def state_label_int(target_row) -> int:
    """Committed sign triple encoded as 0..7 (channel 0 = MSB); -1 otherwise."""
    if not np.all(np.abs(target_row) == 1.0):
        return -1
    bits = [(1 if v > 0 else 0) for v in target_row]
    return (bits[0] << 2) | (bits[1] << 1) | bits[2]


def hold_mask_oracle(targets, start_step, hold_margin):
    """Steps in a settled hold, from the targets: committed on all channels,
    at/after start, and at least hold_margin steps past the most recent
    change of any channel's target."""
    mask = np.all(np.abs(targets) == 1.0, axis=1)
    mask[:start_step] = False
    changed = np.nonzero(np.any(targets[1:] != targets[:-1], axis=1))[0] + 1
    for t_c in changed:   # the int64 t_c plus a huge margin would overflow
        mask[t_c:t_c + min(hold_margin, len(mask))] = False
    return mask


def memory_states_oracle(projection, probe, hold_margin):
    """``analysis.memory_states`` one hold step at a time: each step's point
    appended to the list of its target's sign triple, then the centroids,
    spreads and sorted centroid distances of the sorted triples."""
    targets = probe.targets
    mask = hold_mask_oracle(targets, projection.start_step, hold_margin)
    groups = {}
    for step in np.nonzero(mask)[0]:
        idx = step - projection.start_step
        if idx < 0 or idx >= len(projection.points):
            continue
        label = tuple(int(v) for v in targets[step])
        groups.setdefault(label, []).append(projection.points[idx])

    all_labels = sorted(product((-1, 1), repeat=3))
    missing = [s for s in all_labels if s not in groups]
    present = [s for s in all_labels if s in groups]
    centroids = np.array([np.mean(groups[s], axis=0) for s in present]) \
        if present else np.zeros((0, 3))
    if missing:
        return CubeReport(state_labels=present, centroids=centroids,
                          missing_states=missing)
    spreads = [
        float(np.sqrt(np.mean(np.sum((np.asarray(groups[s]) - c) ** 2, axis=1))))
        for s, c in zip(present, centroids)
    ]
    within = float(np.mean(spreads))
    dists = sorted(
        float(np.linalg.norm(centroids[i] - centroids[j]))
        for i in range(8) for j in range(i + 1, 8)
    )
    e, f = CUBE_GROUP_SIZES[0], CUBE_GROUP_SIZES[0] + CUBE_GROUP_SIZES[1]
    return CubeReport(state_labels=present, centroids=centroids,
                      edge_group=(e, float(np.mean(dists[:e]))),
                      face_group=(CUBE_GROUP_SIZES[1], float(np.mean(dists[e:f]))),
                      body_group=(CUBE_GROUP_SIZES[2], float(np.mean(dists[f:]))),
                      within_state_spread=within,
                      separation_ratio=float(dists[0] / within if within > 0
                                             else float("inf")))


def split_events(events, trials):
    """Per trial, the tuple of the (onset, channel, sign) triples of a
    [4, E] event array, in column order."""
    per_trial = [[] for _ in range(trials)]
    for trial, onset, channel, sign in np.asarray(events).T.tolist():
        per_trial[trial].append((onset, channel, sign))
    return [tuple(triples) for triples in per_trial]


def draw_events(config, rng):
    """A trial's pulse events from scalar ``Generator.integers`` calls: per
    channel, a gap in [min_gap, max_gap] and then a sign, while the pulse
    fits; sorted by (onset, channel)."""
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


def build_trial(config, rng):
    """(inputs, targets, events) of one trial drawn from ``rng``: the events,
    each pulse written entry by entry, the replayed targets, then
    ``Generator.normal`` noise added from the same stream."""
    events = draw_events(config, rng)
    inputs = np.zeros((config.t_steps, config.n_bits))
    for onset, channel, sign in events:
        for step in range(onset, onset + config.pulse_width):
            inputs[step, channel] = sign * config.pulse_amp
    targets = replay_oracle(events, config.t_steps, config.delay_steps,
                            config.n_bits, config.pulse_width)
    if config.noise_std > 0:
        inputs += rng.gen.normal(0.0, config.noise_std, inputs.shape)
    return inputs, targets, events


def build_dataset(config, samples):
    """(x, y, events) of a dataset, one trial at a time, trial i from the
    stream seeded with ``derive_seed(config.seed, f"trial|{i}")``."""
    trials = [build_trial(config, SeededRng(derive_seed(config.seed, f"trial|{i}")))
              for i in range(samples)]
    return (np.stack([t[0] for t in trials]), np.stack([t[1] for t in trials]),
            [t[2] for t in trials])

"""Supervised training: mean-squared loss, exact backpropagation through
time, bias-corrected adaptive moment updates, and evaluation metrics.

The loss is the mean of squared errors over batch, time and output channels.
That differs from the plain half-sum-of-squares only by the positive factor
2/(steps * channels), so minimizers and gradient directions are unchanged
while the learning rate stays independent of sequence length.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import SeededRng
from .model import (ModelConfig, RnnParams, _forward_input, _recurrence,
                    _time_major, batch_forward)
from .task import Dataset, Trial

# final learning rate of a run as a fraction of TrainConfig.learning_rate
LR_FLOOR = 0.3
# Adam's moment decay rates and denominator floor, as in the paper's Keras Adam
BETA1, BETA2, EPS_HAT = 0.9, 0.999, 1e-8
# central-difference step and pass bound of run_gradcheck
GRADCHECK_STEP, GRADCHECK_TOLERANCE = 1e-5, 1e-4
# steps per block of evaluate's forward pass and of the backward sweep of
# bptt_gradients; a block's buffer, 4.4-4.7 MB at 128 units and 128 trials,
# is small enough to stay in cache
_BLOCK_STEPS = 32


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite values.

    ``params`` holds the last parameters known to be good (end of the
    previous epoch, or the initial ones).
    """

    def __init__(self, message, params=None, epoch=None):
        super().__init__(message)
        self.params = params
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings.

    The learning rate follows a half cosine over all updates of the run, from
    ``learning_rate`` on the first update down to ``LR_FLOOR * learning_rate``
    on the last. Global gradient-norm clipping (``grad_clip_norm``, None
    disables) caps the occasional gradient spikes of backpropagation through
    hundreds of steps before they enter the moment estimates.

    What these defaults do on the delayed 3-bit task is measured, not
    guaranteed; see the README section "Training". In short: the 128-unit,
    2000-trial, 30-epoch recipe learned all three bits on 5 of the 6 seed
    triples measured, while the four 64-unit, 1200-trial, 30-epoch runs
    stopped with one or two bits each.
    """

    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 1e-3
    grad_clip_norm: float | None = 0.5
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is allowed: it makes training a documented no-op
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        # a negative clip norm would flip every gradient's sign
        if self.grad_clip_norm is not None and not self.grad_clip_norm > 0:
            raise ValueError("grad_clip_norm must be > 0, or None to disable")

    def learning_rate_at(self, step: int, total_updates: int) -> float:
        """Learning rate of update ``step`` (0-based) out of ``total_updates``."""
        cosine = 0.5 * (1.0 + math.cos(math.pi * step / total_updates))
        return self.learning_rate * (LR_FLOOR + (1.0 - LR_FLOOR) * cosine)


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


@dataclass
class EvalMetrics:
    mse: float
    state_accuracy: float


@dataclass
class TrainReport:
    loss_per_epoch: list = field(default_factory=list)
    wall_time: float = 0.0
    final_eval: EvalMetrics | None = None


def loss(z: np.ndarray, z_target: np.ndarray) -> float:
    """Mean over all entries of the squared output error."""
    z = np.asarray(z, dtype=float)
    z_target = np.asarray(z_target, dtype=float)
    if z.shape != z_target.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {z_target.shape}")
    return float(np.mean((z - z_target) ** 2))


def bptt_workspace(config: ModelConfig, t_steps: int, batch: int):
    """Buffers for ``bptt_gradients(..., work=...)`` on up to ``batch``
    trials of ``t_steps`` steps: two flat float64 arrays, one for the
    forward history and one for a block of the backward sweep, of which
    each call uses a contiguous prefix."""
    n, n_in, n_out = config.n_units, config.n_in, config.n_out
    return (np.empty((t_steps + 2) * batch * (n_out + n + n_in + 1)),
            np.empty((min(t_steps, _BLOCK_STEPS) + 1) * batch * (n_out + n)))


def bptt_gradients(params: RnnParams, config: ModelConfig,
                   batch_x: np.ndarray, batch_y: np.ndarray, work=None):
    """Exact loss gradients over a batch by reverse accumulation.

    Unrolls the recurrence from the zero state with the time-major kernel
    that ``batch_forward`` also runs, whose row t holds
    [z(h_{t-1}) | h_t | x_t | 1]. Then walks the steps backwards in blocks
    of ``_BLOCK_STEPS``, newest block first, through a ring of
    ``_BLOCK_STEPS + 1`` rows [err_j | d_j]: the readout error
    z(h_j) - y_{j-1} of state h_j (zero for h_0) and d_j = dL/da_j (zero
    for j = t_steps). A block [lo, hi) holds its rows in the ring's first
    hi - lo rows and row hi, carried from the block after it, in the next.
    Each step is one GEMM, [err_{t+1} | d_{t+1}] @ [scale * W_out; W_rec]
    with scale = 2 / size the factor of the mean, plus the leak path
    (1 - alpha) from t+1 and the gain alpha * tanh'(a_t). At alpha < 1,
    tanh(a_t) is recovered from the states as
    (h_{t+1} - (1 - alpha) h_t) / alpha. Once a block's d_j are done, one
    GEMM, [err | d]^T @ [h | x | 1] over its rows (the newest block's also
    over row t_steps), adds them to all five gradients together: its top
    n_out rows, times scale, those of W_out and b_out, and its other rows
    those of W_rec, W_in and b_rec.

    The loss is summed block by block, before the block's steps run. A
    non-finite loss raises a DivergenceError naming the first step with a
    non-finite activation, if any. ``work`` (from ``bptt_workspace``)
    supplies the buffers; without it they are allocated per call. Returns
    (grads, batch_loss) where grads mirrors RnnParams.
    """
    batch_x = np.asarray(batch_x, dtype=float)
    batch_y = np.asarray(batch_y, dtype=float)
    if batch_x.ndim != 3 or batch_y.ndim != 3:
        raise ValueError("batch_x and batch_y must be [batch, t, channels]")
    if batch_x.shape[:2] != batch_y.shape[:2]:
        raise ValueError(f"batch shapes differ: {batch_x.shape} vs {batch_y.shape}")
    batch, t_steps, _ = batch_x.shape
    if batch == 0 or t_steps == 0:
        raise ValueError(f"no gradients over an empty batch or sequence: {batch_x.shape}")
    n, n_in, n_out = config.n_units, config.n_in, config.n_out
    alpha = config.alpha
    if work is None:
        work = bptt_workspace(config, t_steps, batch)
    u = _time_major(t_steps + 2, batch, n_out + n + n_in + 1, work[0])
    ring = _time_major(min(t_steps, _BLOCK_STEPS) + 1, batch, n_out + n, work[1])

    u[0, :, n_out:n_out + n] = 0.0
    _recurrence(params, config, batch_x, u)
    h = u[:, :, n_out:n_out + n]
    y = batch_y.transpose(1, 0, 2)
    scale = 2.0 / batch_y.size

    w_back = np.concatenate([scale * params.w_out, params.w_rec])
    g = np.zeros((n_out + n, n + n_in + 1))
    dh = np.empty((batch, n))
    gain = np.empty((batch, n))
    if alpha != 1.0:
        leak = np.zeros((batch, n))
    batch_loss = 0.0
    for lo in range((t_steps - 1) // _BLOCK_STEPS * _BLOCK_STEPS, -1, -_BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, t_steps)
        if hi == t_steps:   # the newest block also takes row t_steps, where d = 0
            ring[hi - lo, :, n_out:] = 0.0
            rows = hi - lo + 1
        else:   # row hi, the oldest row of the block after this one
            ring[hi - lo] = ring[0]
            rows = hi - lo
        first = max(lo, 1)   # h_0 has no target: err_0 = 0
        err = ring[first - lo:rows, :, :n_out]
        np.subtract(u[first + 1:lo + rows + 1, :, :n_out],
                    y[first - 1:lo + rows - 1], out=err)
        if lo == 0:
            ring[0, :, :n_out] = 0.0
        block_loss = float(np.sum(np.square(err)))   # pairwise summation
        # tanh is bounded, so a non-finite activation always makes the loss
        # non-finite; only then are the steps scanned for the first bad one
        if not np.isfinite(block_loss):
            finite = np.isfinite(h[1:t_steps + 1]).all(axis=(1, 2))
            if not finite.all():
                raise DivergenceError(
                    f"non-finite activations at step {int(np.argmin(finite))}")
            raise DivergenceError("non-finite loss")
        batch_loss += block_loss

        for t in range(hi - 1, lo - 1, -1):
            np.matmul(ring[t - lo + 1], w_back, out=dh)   # dL/dh_{t+1} minus the leak
            if alpha == 1.0:
                np.square(h[t + 1], out=gain)
            else:
                np.multiply(h[t], 1.0 - alpha, out=gain)
                np.subtract(h[t + 1], gain, out=gain)
                gain /= alpha   # tanh(a_t)
                np.square(gain, out=gain)
            np.subtract(1.0, gain, out=gain)
            if alpha != 1.0:
                dh += leak
                np.multiply(dh, 1.0 - alpha, out=leak)
                gain *= alpha
            np.multiply(dh, gain, out=ring[t - lo, :, n_out:])
        g += (ring[:rows].reshape(rows * batch, -1).T
              @ u[lo:lo + rows, :, n_out:].reshape(rows * batch, -1))
    batch_loss /= batch_y.size

    g_w_out = g[:n_out, :n] * scale
    g_w_rec, g_w_in = g[n_out:, :n].copy(), g[n_out:, n:-1].copy()
    if config.use_bias:
        g_b_rec, g_b_out = g[n_out:, -1].copy(), g[:n_out, -1] * scale
    else:
        g_b_rec, g_b_out = np.zeros(n), np.zeros(n_out)
    return RnnParams(g_w_in, g_w_rec, g_w_out, g_b_rec, g_b_out), batch_loss


def init_adam_state(params: RnnParams) -> AdamState:
    zeros = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    return AdamState(m=zeros, v={k: np.zeros_like(v) for k, v in params.as_dict().items()})


def adam_update(state: AdamState, params: RnnParams, grads: RnnParams, lr: float):
    """One bias-corrected Adam step at rate ``lr``; returns (params', state')."""
    t = state.t + 1
    new_m, new_v, new_p = {}, {}, {}
    gd = grads.as_dict()
    for key, theta in params.as_dict().items():
        g = gd[key]
        m = BETA1 * state.m[key] + (1 - BETA1) * g
        v = BETA2 * state.v[key] + (1 - BETA2) * g ** 2
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        new_m[key], new_v[key] = m, v
        new_p[key] = theta - lr * m_hat / (np.sqrt(v_hat) + EPS_HAT)
    return RnnParams(**new_p), AdamState(new_m, new_v, t)


def clip_gradients(grads: RnnParams, max_norm: float) -> RnnParams:
    if not max_norm > 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.as_dict().values()))
    if total <= max_norm:   # max_norm > 0, so this covers a zero gradient
        return grads
    return grads.map(lambda _, g: g * (max_norm / total))


def train(params: RnnParams, model_cfg: ModelConfig, dataset: Dataset,
          train_cfg: TrainConfig, eval_fraction: float = 0.05,
          epoch_hook=None):
    """Mini-batch training loop; returns (trained params, TrainReport).

    A trailing ``eval_fraction`` of the samples is held out of training and
    used for the report's final metrics. Update k of the run uses the
    learning rate ``train_cfg.learning_rate_at(k, total_updates)``. Every
    epoch is shuffled by a stream derived from (seed, epoch), so runs are
    bit-reproducible.
    ``epoch_hook(epoch, params, epoch_loss)`` is invoked after every epoch
    when given.
    """
    if dataset.samples < 1:
        raise ValueError("dataset is empty")
    if not 0 <= eval_fraction < 1:
        raise ValueError(f"eval_fraction must lie in [0, 1), got {eval_fraction}")
    n_eval = min(int(round(eval_fraction * dataset.samples)), dataset.samples - 1)
    n_train = dataset.samples - n_eval
    total_updates = train_cfg.epochs * -(-n_train // train_cfg.batch_size)

    rng = SeededRng(train_cfg.seed)
    # one set of BPTT buffers for the run; a short last batch uses a prefix
    work = bptt_workspace(model_cfg, dataset.x.shape[1],
                          min(train_cfg.batch_size, n_train))
    state = init_adam_state(params)
    params = params.copy()
    last_good = params.copy()
    losses = []
    start = time.perf_counter()

    for epoch in range(train_cfg.epochs):
        order = rng.derive(f"shuffle|{epoch}").gen.permutation(n_train)
        total, count = 0.0, 0
        for lo in range(0, n_train, train_cfg.batch_size):
            idx = order[lo:lo + train_cfg.batch_size]
            try:
                grads, batch_loss = bptt_gradients(
                    params, model_cfg, dataset.x[idx], dataset.y[idx], work=work)
            except DivergenceError as exc:
                raise DivergenceError(str(exc), params=last_good, epoch=epoch) from None
            if train_cfg.grad_clip_norm is not None:
                grads = clip_gradients(grads, train_cfg.grad_clip_norm)
            lr = train_cfg.learning_rate_at(state.t, total_updates)
            params, state = adam_update(state, params, grads, lr)
            total += batch_loss * len(idx)
            count += len(idx)
        epoch_loss = total / count
        losses.append(epoch_loss)
        last_good = params.copy()
        if epoch_hook is not None:
            epoch_hook(epoch, params, epoch_loss)

    wall = time.perf_counter() - start
    del work   # free the buffers before the held-out forward pass allocates its own
    if n_eval > 0:
        eval_set = Dataset(dataset.x[n_train:], dataset.y[n_train:],
                           dataset.config, dataset.events[n_train:])
    else:
        eval_set = dataset
    report = TrainReport(loss_per_epoch=losses, wall_time=wall,
                         final_eval=evaluate(params, model_cfg, eval_set))
    return params, report


def _clean_hold_mask(events, y: np.ndarray, config, pad: int) -> np.ndarray:
    """Steps of each trial that are clean holds: every channel committed to
    +-1 and no pulse in [onset, onset + pulse_width + delay_steps + pad].

    ``events[i]`` holds trial i's (onset_step, channel, sign) triples and
    ``y`` is [trials, t_steps, channels]; returns [trials, t_steps]. The
    window also covers a trailing pulse whose delayed target flip lands
    beyond the horizon.
    """
    mask = np.all(np.abs(y) == 1.0, axis=2)
    span = config.pulse_width + config.delay_steps + pad + 1
    for i, trial_events in enumerate(events):
        for onset, _, _ in trial_events:
            mask[i, onset:onset + span] = False
    return mask


# trials per forward pass in evaluate
_EVAL_CHUNK = 128


def evaluate(params: RnnParams, model_cfg: ModelConfig, data,
             transition_pad: int = 10) -> EvalMetrics:
    """MSE over every step plus sign-match accuracy on clean hold steps.

    ``data`` is a Dataset or a single Trial. Accuracy counts the steps where
    all channels hold a committed +-1 target, outside the transition window
    of every pulse event (``_clean_hold_mask``), and sign(z) equals the
    target on all channels; it is NaN when no step is a clean hold.

    The forward pass runs ``_EVAL_CHUNK`` trials at a time, each chunk in
    blocks of ``_BLOCK_STEPS`` steps through one
    [_BLOCK_STEPS + 2, chunk, n_out + n + n_in + 1] buffer: ``_recurrence``
    starts each block from the state in row 0, and the block's last state
    goes there for the next one. Only the chunk's readouts are kept, so
    memory does not grow with the number of trials or of steps. The readout
    of a block's last state is taken from the next block's first step GEMM,
    as ``batch_forward`` takes it, so a chunk's readouts equal those of
    ``batch_forward`` over that chunk bit for bit.
    """
    if isinstance(data, Trial):
        x, y, events = data.inputs[None], data.targets[None], [data.events]
    else:
        x, y, events = data.x, data.y, data.events
    cfg = data.config
    if cfg is None:
        raise ValueError("a task config is required to locate transition windows")
    if transition_pad < 0:
        raise ValueError(f"transition_pad must be >= 0, got {transition_pad}")
    x = _forward_input(params, model_cfg, x)

    trials, t_steps, _ = x.shape
    n, n_out = model_cfg.n_units, model_cfg.n_out
    width = n_out + n + model_cfg.n_in + 1
    chunk = min(_EVAL_CHUNK, trials)
    flat = np.empty((_BLOCK_STEPS + 2) * chunk * width)
    z_chunk = np.empty((chunk, t_steps, n_out))
    squared, matched, considered = 0.0, 0, 0
    for lo in range(0, trials, _EVAL_CHUNK):
        xs, ys = x[lo:lo + _EVAL_CHUNK], y[lo:lo + _EVAL_CHUNK]
        batch = xs.shape[0]
        z = z_chunk[:batch]
        u = _time_major(_BLOCK_STEPS + 2, batch, width, flat)
        u[0, :, n_out:n_out + n] = 0.0
        for t in range(0, t_steps, _BLOCK_STEPS):
            k = min(_BLOCK_STEPS, t_steps - t)
            _recurrence(params, model_cfg, xs[:, t:t + k], u)
            if t:   # the previous block's last readout, from the step GEMM
                z[:, t - 1] = u[1, :, :n_out]
            z[:, t:t + k] = u[2:k + 2, :, :n_out].transpose(1, 0, 2)
            u[0, :, n_out:n_out + n] = u[k, :, n_out:n_out + n]
        squared += float(np.sum((z - ys) ** 2))
        valid = _clean_hold_mask(events[lo:lo + _EVAL_CHUNK], ys, cfg,
                                 transition_pad)
        ok = np.all(np.sign(z) == ys, axis=2)
        considered += int(valid.sum())
        matched += int((ok & valid).sum())
    mse = squared / y.size if y.size else float("nan")
    accuracy = matched / considered if considered else float("nan")
    return EvalMetrics(mse=mse, state_accuracy=accuracy)


@dataclass
class GradcheckReport:
    max_rel_err: float
    tolerance: float
    trial_errors: list
    passed: bool


def run_gradcheck(n_units: int = 8, t_steps: int = 10, trials: int = 20,
                  batch: int = 2, seed: int = 0) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    Each trial draws random parameters, inputs and targets (alternating
    between the reduced dt = tau step and a leaky dt < tau step) and checks
    every parameter coordinate. Relative error uses max(|a|, |n|, 1e-6) as
    denominator to keep near-zero coordinates meaningful.
    """
    for name, value in (("n_units", n_units), ("t_steps", t_steps),
                        ("trials", trials), ("batch", batch)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    root = SeededRng(seed)
    errors = []
    for trial in range(trials):
        rng = root.derive(f"gradcheck|{trial}")
        dt = 1.0 if trial % 2 == 0 else 0.5
        cfg = ModelConfig(n_units=n_units, n_in=3, n_out=3, tau=1.0, dt=dt,
                          use_bias=True)
        params = RnnParams(
            w_in=rng.gen.normal(0, 0.6, (n_units, 3)),
            w_rec=rng.gen.normal(0, 0.8 / np.sqrt(n_units), (n_units, n_units)),
            w_out=rng.gen.normal(0, 0.6, (3, n_units)),
            b_rec=rng.gen.normal(0, 0.1, n_units),
            b_out=rng.gen.normal(0, 0.1, 3),
        )
        x = rng.gen.uniform(-1, 1, (batch, t_steps, 3))
        y = rng.gen.uniform(-1, 1, (batch, t_steps, 3))

        grads, _ = bptt_gradients(params, cfg, x, y)
        gd = grads.as_dict()

        def loss_at(p):
            _, z = batch_forward(p, cfg, x)
            return loss(z, y)

        worst = 0.0
        for key, theta in params.as_dict().items():
            flat = theta.reshape(-1)
            g_flat = gd[key].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + GRADCHECK_STEP
                hi = loss_at(params)
                flat[j] = orig - GRADCHECK_STEP
                lo = loss_at(params)
                flat[j] = orig
                numeric = (hi - lo) / (2 * GRADCHECK_STEP)
                denom = max(abs(g_flat[j]), abs(numeric), 1e-6)
                worst = max(worst, abs(g_flat[j] - numeric) / denom)
        errors.append(worst)
    max_err = max(errors)
    return GradcheckReport(max_rel_err=max_err, tolerance=GRADCHECK_TOLERANCE,
                           trial_errors=errors, passed=max_err <= GRADCHECK_TOLERANCE)

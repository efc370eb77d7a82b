"""Supervised training: mean-squared loss, exact backpropagation through
time, bias-corrected adaptive moment updates, and evaluation metrics.

The loss is the mean of squared errors over batch, time and output channels.
That differs from the plain half-sum-of-squares only by the positive factor
2/(steps * channels), so minimizers and gradient directions are unchanged
while the learning rate stays independent of sequence length.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import SeededRng
from .model import (ModelConfig, RnnParams, _buffer, _forward_input,
                    _recurrence, _step_matrix, batch_forward)
from .task import Dataset, Trial, _clean_hold_mask, _event_array, _events_of

# final learning rate of a run as a fraction of TrainConfig.learning_rate
LR_FLOOR = 0.3
# Adam's moment decay rates and denominator floor, as in the paper's Keras Adam
BETA1, BETA2, EPS_HAT = 0.9, 0.999, 1e-8
# central-difference step and pass bound of run_gradcheck
GRADCHECK_STEP, GRADCHECK_TOLERANCE = 1e-5, 1e-4
# steps per block of the backward sweep of bptt_gradients, and most steps
# per block of evaluate's forward pass; a block's buffer, 4.4-4.7 MB at 128
# units and 128 trials, is small enough to stay in cache
_BLOCK_STEPS = 32
# ring rows per batched GEMM of the weight gradients in bptt_gradients
_GRAD_GROUP = 8


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite values.

    ``params`` holds the last parameters whose loss read finite: the initial
    ones, or those that ended an epoch, measured on the next one's first batch.
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
    """``final_eval`` scores the ``held_out`` trials held out of training,
    or the training set itself when that is 0."""

    loss_per_epoch: list = field(default_factory=list)
    wall_time: float = 0.0
    final_eval: EvalMetrics | None = None
    held_out: int = 0


def loss(z: np.ndarray, z_target: np.ndarray) -> float:
    """Mean over all entries of the squared output error."""
    z = np.asarray(z, dtype=float)
    z_target = np.asarray(z_target, dtype=float)
    if z.shape != z_target.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {z_target.shape}")
    return float(np.mean((z - z_target) ** 2))


def bptt_workspace(config: ModelConfig, t_steps: int, batch: int):
    """Buffers for ``bptt_gradients(..., work=...)`` on up to ``batch``
    trials of ``t_steps`` steps: three flat float64 arrays. The first holds
    the forward history, the second the ring of a block of the backward
    sweep, and the third one [_GRAD_GROUP, n_out + n, n + n_in + 1] scratch
    per worker for the products of the weight-gradient GEMMs (1.1 MB each
    at 128 units). A call on b trials uses the prefix of the first two
    that b trials fill; when it cuts the batch into chunks, each worker
    takes its own consecutive part of that prefix, laid out as a fresh
    buffer for its first chunk would be, and worker k the k-th scratch of
    the third."""
    n, n_in, n_out = config.n_units, config.n_in, config.n_out
    workers = max(1, min(_CHUNK_WORKERS,
                         len(_chunk_bounds(batch, n, _CHUNK_TRIALS))))
    return (np.empty((t_steps + 2) * batch * (n_out + n + n_in + 1)),
            np.empty((min(t_steps, _BLOCK_STEPS) + 3) * batch * (n_out + n)),
            np.empty(workers * _GRAD_GROUP * (n_out + n) * (n + n_in + 1)))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads per BLAS call: the first of these variables that is set to a
    positive integer, else every usable core, as BLAS itself decides.
    numpy's wheels link OpenBLAS, which does not read ``MKL_NUM_THREADS``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return _usable_cores()


# most trials per chunk of bptt_gradients, and fewest worth a chunk of their
# own (_min_chunk)
_CHUNK_TRIALS = 64
# most trials per chunk of evaluate. Its chunks run only the forward pass, so
# fewer and wider GEMMs pay: at 128 units, one worker and one BLAS thread on
# a 2-core x86 machine, 500 trials took 171 ms in two chunks, 222 ms in eight.
# At most (_BLOCK_STEPS + 2) * _CHUNK_TRIALS // 3, so that the block rule of
# evaluate gives one step at least
_EVAL_TRIALS = 256
# fewest state entries (trials x units) per step in a chunk. Smaller chunks
# lose more to the per-step costs that every chunk repeats than the second
# core gains: at one BLAS thread on 2 cores and 300 steps, a batch cut in
# two ran at 1.45-1.92x the whole batch's speed at 4,096 entries per part
# (64 trials x 64 units, 32 x 128, 128 x 32), but at 0.65-0.88x at 2,048
# (32 x 64, 64 x 32), though at 1.22-1.28x for 16 x 128.
_MIN_CHUNK_STATES = 4096
# the chunks run at once, at most, the calling thread's included: usable
# cores // threads per BLAS call. BLAS reads its thread count once at
# start-up, so this is read once at import too. At 1, one core per BLAS call
# leaves no core idle, and bptt_gradients runs every batch whole.
_CHUNK_WORKERS = max(1, _usable_cores() // _blas_threads())
# Runs every worker but the first, which is the calling thread
# (_run_chunks). It is made, and concurrent.futures imported, on the first
# call that runs two chunks at once (_chunk_pool). Workers call only
# private functions (_bptt_chunk, _forward_chunk, model._recurrence): the
# benchmark's tracer wraps the public ones and keeps a single stack of open
# spans, which calls from two threads at once would interleave.
_POOL = None
_POOL_LOCK = threading.Lock()


def _chunk_pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(max_workers=_CHUNK_WORKERS - 1,
                                       thread_name_prefix="ffrnn-chunk")
        return _POOL


def _min_chunk(n_units: int) -> int:
    """The fewest trials worth a chunk of their own at ``n_units`` units:
    max(_CHUNK_TRIALS, ceil(_MIN_CHUNK_STATES / n_units))."""
    return max(_CHUNK_TRIALS, -(-_MIN_CHUNK_STATES // n_units))


def _chunk_bounds(trials: int, n_units: int, cap: int) -> list:
    """[lo, hi) ranges of the chunks of ``trials`` trials: the fewest
    contiguous ranges of near-equal size, larger ones first, that hold at
    most max(cap, _min_chunk(n_units)) trials each (as ``np.array_split``
    cuts them), and at least two once there are more than
    ``_min_chunk(n_units)`` trials; none for no trial. ``bptt_gradients``
    caps them at _CHUNK_TRIALS trials, ``evaluate`` at _EVAL_TRIALS. They
    depend on the trial count, the network size and the cap alone, never
    on the workers."""
    least = _min_chunk(n_units)
    chunks = -(-trials // max(cap, least))
    if trials > least:
        chunks = max(chunks, 2)
    if not chunks:
        return []
    size, larger = divmod(trials, chunks)
    return [(k * size + min(k, larger), (k + 1) * size + min(k + 1, larger))
            for k in range(chunks)]


def _run_chunks(run, bounds: list, alloc) -> list:
    """[run(lo, hi, *buffers) for lo, hi in bounds], in chunk order.

    Worker k of W = min(_CHUNK_WORKERS, chunks) runs chunks k, k + W, ...
    one after another, all through the buffers ``alloc(k, lo, hi)`` of its
    first chunk [lo, hi), the largest it runs. The calling thread allocates
    them all: glibc keeps what a pool thread frees in that thread's own
    arena, where the next round of training does not reuse it (train-128's
    peak RSS rose 1.8 MB). Worker 0 is the calling thread, the others run
    on the pool, which a single chunk (or none) never makes. Waits for
    every worker before it returns or raises, so none still writes into
    its buffers afterwards; the first error, in worker order, is raised.
    """
    workers = max(1, min(_CHUNK_WORKERS, len(bounds)))
    buffers = [alloc(k, lo, hi) for k, (lo, hi) in enumerate(bounds[:workers])]

    def run_worker(k):
        return [run(lo, hi, *buffers[k]) for lo, hi in bounds[k::workers]]

    futures = [_chunk_pool().submit(run_worker, k) for k in range(1, workers)]
    try:
        results = [run_worker(0)]
    finally:
        for future in futures:
            future.exception()
    results += [future.result() for future in futures]
    return [results[i % workers][i // workers] for i in range(len(bounds))]


def bptt_gradients(params: RnnParams, config: ModelConfig,
                   batch_x: np.ndarray, batch_y: np.ndarray, work=None):
    """Exact loss gradients over a batch by reverse accumulation.

    Unrolls the recurrence from the zero state with the time-major kernel
    that ``batch_forward`` also runs, whose row t is the [features, trials]
    slab [z(h_{t-1}); h_t; x_t; 1]. Then walks the steps backwards in
    blocks of ``_BLOCK_STEPS``, newest block first, through a ring of
    ``_BLOCK_STEPS + 1`` [n_out + n, trials] slabs [err_j; d_j]: the
    readout error z(h_j) - y_{j-1} of state h_j (zero for h_0) and
    d_j = dL/da_j (zero for j = t_steps). A block [lo, hi) holds its rows
    in the ring's first hi - lo rows and row hi, carried from the block
    after it, in the next. One pass over the block first writes each
    step's gain alpha * tanh'(a_t) into the d slots; at alpha < 1,
    tanh(a_t) is recovered from the states as
    (h_{t+1} - (1 - alpha) h_t) / alpha. Each step is then one GEMM,
    dh = [scale * W_out^T | W_rec^T] @ [err_{t+1}; d_{t+1}] with
    scale = 2 / size the factor of the mean, and one multiply of the gain
    by dh in place; at alpha < 1 the leak path (1 - alpha) from t+1 adds
    two more. Once a block's d_j are done, one batched GEMM per group of
    ``_GRAD_GROUP`` rows, [err; d] @ [h; x; 1]^T per row, adds them to all
    five gradients together: the top n_out rows, times scale, those of
    W_out and b_out, and the other rows those of W_rec, W_in and b_rec
    (``_bptt_chunk``).

    When BLAS leaves a core idle (``_CHUNK_WORKERS`` >= 2), the batch is
    cut into chunks of at most ``_min_chunk(n)`` trials (``_chunk_bounds``),
    which run this sweep on the workers of ``_run_chunks``, worker k in its
    own consecutive part of the history and ring buffers and in its own
    gradient scratch. The step matrices are built once per call, on the
    calling thread. Every chunk scales by the whole batch's
    size, and the gradients and the squared-error sums are added up in
    chunk order. So the result depends on the batch, the network size and
    whether BLAS leaves a core idle, never on the number of cores or on
    how the threads were scheduled. Otherwise the batch runs whole: one
    worker running two chunks one after another is slower than the whole
    batch.

    The loss is summed block by block, before the block's steps run. A
    non-finite loss raises a DivergenceError naming the first step with a
    non-finite activation in any chunk, if any; the call waits for every
    chunk first. ``work`` (from ``bptt_workspace``) supplies the buffers;
    without it they are allocated per call. ``model._forward_input``
    checks the batch, and one of no trials or steps raises a ValueError
    too. Returns (grads, batch_loss) where grads mirrors RnnParams.
    """
    batch_x, batch_y = _forward_input(params, config, batch_x, batch_y)
    batch, t_steps, _ = batch_x.shape
    if batch == 0 or t_steps == 0:
        raise ValueError(f"no gradients over an empty batch or sequence: {batch_x.shape}")
    n, n_in, n_out = config.n_units, config.n_in, config.n_out
    if work is None:
        work = bptt_workspace(config, t_steps, batch)
    scale = 2.0 / batch_y.size

    w = _step_matrix(params)
    w_back = np.concatenate([scale * params.w_out, params.w_rec]).T.copy()
    # the ring: a block's rows, the row carried from the block after it,
    # and two rows of [n, trials] scratch, dh and the leak
    rows, ring_rows = t_steps + 2, min(t_steps, _BLOCK_STEPS) + 3
    width = n_out + n + n_in + 1
    group = (_GRAD_GROUP, n_out + n, n + n_in + 1)
    group_size = math.prod(group)

    def run(lo, hi, u, ring, products):
        return _bptt_chunk(w, w_back, config, batch_x[lo:hi], batch_y[lo:hi],
                           _buffer((rows, width, hi - lo), u),
                           _buffer((ring_rows, n_out + n, hi - lo), ring),
                           _buffer(group, products))

    # the trials before a worker's first chunk take the workspace before its part
    results = _run_chunks(
        run, (_chunk_bounds(batch, n, _CHUNK_TRIALS) if _CHUNK_WORKERS > 1
              else [(0, batch)]),
        lambda k, lo, hi: (work[0][lo * rows * width:],
                           work[1][lo * ring_rows * (n_out + n):],
                           work[2][k * group_size:]))

    if any(g is None for g, _ in results):
        steps = [step for g, step in results if g is None and step is not None]
        raise DivergenceError(f"non-finite activations at step {min(steps)}"
                              if steps else "non-finite loss")
    g, squared = results[0]
    for g_chunk, squared_chunk in results[1:]:
        g += g_chunk
        squared += squared_chunk
    batch_loss = squared / batch_y.size

    g_w_out = g[:n_out, :n] * scale
    g_w_rec, g_w_in = g[n_out:, :n].copy(), g[n_out:, n:-1].copy()
    if config.use_bias:
        g_b_rec, g_b_out = g[n_out:, -1].copy(), g[:n_out, -1] * scale
    else:
        g_b_rec, g_b_out = np.zeros(n), np.zeros(n_out)
    return RnnParams(g_w_in, g_w_rec, g_w_out, g_b_rec, g_b_out), batch_loss


def _bptt_chunk(w: np.ndarray, w_back: np.ndarray, config: ModelConfig,
                batch_x: np.ndarray, batch_y: np.ndarray, u: np.ndarray,
                ring: np.ndarray, products: np.ndarray):
    """The forward pass and the blocked backward sweep of ``bptt_gradients``
    over the trials of one chunk, in its [t_steps + 2, ..., trials] history
    ``u``, its [min(t_steps, _BLOCK_STEPS) + 3, n_out + n, trials] ring,
    whose last two rows hold dh and the leak in their first n slots, and
    its [_GRAD_GROUP, n_out + n, n + n_in + 1] scratch ``products``, with
    the forward step matrix ``w`` (``model._step_matrix``) and the C-ordered
    backward one ``w_back`` = [scale * W_out^T | W_rec^T].

    Returns (g, squared): the [n_out + n, n + n_in + 1] sum of the rows'
    [err; d] @ [h; x; 1]^T products, pairwise within each group of rows
    and group by group in row order, and the sum of the blocks' squared
    readout errors. Once a block's sum is not finite, the
    sweep stops before that block's steps and returns (None, the first step
    with a non-finite activation, or None if there is none), read before
    the worker's next chunk overwrites the history.
    """
    batch, t_steps, _ = batch_x.shape
    n, n_out = config.n_units, config.n_out
    alpha = config.alpha
    u[0, n_out:n_out + n] = 0.0
    _recurrence(w, config, batch_x, u)
    h = u[:, n_out:n_out + n]
    y = batch_y.transpose(1, 2, 0)

    g = np.zeros(products.shape[1:])
    dh, leak = ring[-2, :n], ring[-1, :n]
    leak[:] = 0.0
    squared = 0.0
    for lo in range((t_steps - 1) // _BLOCK_STEPS * _BLOCK_STEPS, -1, -_BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, t_steps)
        if hi == t_steps:   # the newest block also takes row t_steps, where d = 0
            ring[hi - lo, n_out:] = 0.0
            rows = hi - lo + 1
        else:   # row hi, the oldest row of the block after this one
            ring[hi - lo] = ring[0]
            rows = hi - lo
        first = max(lo, 1)   # h_0 has no target: err_0 = 0
        err = ring[first - lo:rows, :n_out]
        np.subtract(u[first + 1:lo + rows + 1, :n_out],
                    y[first - 1:lo + rows - 1], out=err)
        if lo == 0:
            ring[0, :n_out] = 0.0
        # an overflow is a DivergenceError below, not a warning; set here, as
        # a pool thread does not inherit the caller's errstate
        with np.errstate(over="ignore"):
            block_loss = float(np.sum(np.square(err)))   # pairwise summation
        # tanh is bounded, so a non-finite activation always makes the loss
        # non-finite; only then are the steps scanned for the first bad one
        if not np.isfinite(block_loss):
            finite = np.isfinite(h[1:t_steps + 1]).all(axis=(1, 2))
            return None, (None if finite.all() else int(np.argmin(finite)))
        squared += block_loss

        # the block's gains alpha * tanh'(a_t), t = lo .. hi - 1, in its d slots
        gain = ring[:hi - lo, n_out:]
        if alpha == 1.0:
            np.square(h[lo + 1:hi + 1], out=gain)
        else:
            np.multiply(h[lo:hi], 1.0 - alpha, out=gain)
            np.subtract(h[lo + 1:hi + 1], gain, out=gain)
            gain /= alpha   # tanh(a_t)
            np.square(gain, out=gain)
        np.subtract(1.0, gain, out=gain)
        if alpha != 1.0:
            gain *= alpha
        for t in range(hi - 1, lo - 1, -1):
            np.matmul(w_back, ring[t - lo + 1], out=dh)   # dL/dh_{t+1} minus the leak
            if alpha != 1.0:
                dh += leak
                np.multiply(dh, 1.0 - alpha, out=leak)
            ring[t - lo, n_out:] *= dh
        for j in range(0, rows, _GRAD_GROUP):
            k = min(_GRAD_GROUP, rows - j)
            np.matmul(ring[j:j + k], u[lo + j:lo + j + k, n_out:].transpose(0, 2, 1),
                      out=products[:k])
            while k > 1:   # pairwise, in place: half the rounding of a running sum
                half = k // 2
                products[:half] += products[k - half:k]
                k -= half
            g += products[0]
    return g, squared


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

    A trailing ``eval_fraction`` of the samples, rounded to whole trials
    and at most all but one, is held out of training, with its [4, E]
    events (``task._events_of``), for the report's final metrics. When that
    rounds to no trial, they score the training set, and ``held_out`` is 0.
    Update k of the run uses the learning rate
    ``train_cfg.learning_rate_at(k, total_updates)``. Every epoch is
    shuffled by a stream derived from (seed, epoch). A non-finite loss, or a
    non-finite MSE of the final metrics, raises a DivergenceError.

    Every batch's gradients come from one set of ``bptt_workspace``
    buffers, sized for the largest batch and freed before the held-out
    ``evaluate``. ``bptt_gradients`` cuts a batch into chunks only where
    BLAS leaves a core idle, and the chunks depend on the batch and network
    sizes alone. So a run repeats bit for bit on the same machine and BLAS
    thread setting, and the number of usable cores changes the trained
    values only by whether BLAS leaves one idle, or through BLAS itself.
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
    last_good = params
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
            if lo == 0:   # the parameters the epoch began with read a finite loss
                last_good = params
            if train_cfg.grad_clip_norm is not None:
                grads = clip_gradients(grads, train_cfg.grad_clip_norm)
            lr = train_cfg.learning_rate_at(state.t, total_updates)
            params, state = adam_update(state, params, grads, lr)
            total += batch_loss * len(idx)
            count += len(idx)
        epoch_loss = total / count
        losses.append(epoch_loss)
        if epoch_hook is not None:
            epoch_hook(epoch, params, epoch_loss)

    wall = time.perf_counter() - start
    del work   # free the buffers before the held-out forward pass allocates its own
    eval_set = dataset if not n_eval else Dataset(
        dataset.x[n_train:], dataset.y[n_train:], dataset.config,
        _events_of(dataset.events, n_train, dataset.samples))
    final_eval = evaluate(params, model_cfg, eval_set)
    if not math.isfinite(final_eval.mse):
        raise DivergenceError("non-finite mse in the final evaluation",
                              params=last_good, epoch=max(train_cfg.epochs - 1, 0))
    return params, TrainReport(loss_per_epoch=losses, wall_time=wall,
                               final_eval=final_eval, held_out=n_eval)


def evaluate(params: RnnParams, model_cfg: ModelConfig, data,
             transition_pad: int = 10) -> EvalMetrics:
    """MSE over every step plus sign-match accuracy on clean hold steps.

    ``data`` is a Dataset, with [4, E] events, or a single Trial, whose
    triples become such events of trial 0, checked by
    ``model._forward_input``. Accuracy counts the steps where
    all channels hold a committed +-1 target, outside the transition window
    of every pulse event (``task._clean_hold_mask``, per chunk), and sign(z)
    equals the target on all channels; it is NaN when no step is a clean
    hold. Both are NaN for a dataset of no trials.

    The trials are cut into chunks of at most _EVAL_TRIALS trials
    (``_chunk_bounds``), two at least once there are more than
    ``_min_chunk`` of them, so that two workers share a held-out set of
    100 trials at 128 units. Each chunk runs forward in blocks of k steps
    through a [k + 2, n_out + n + n_in + 1, chunk] buffer of
    [features, trials] slabs, as ``batch_forward``'s (``_forward_chunk``),
    with k = min(t_steps, _BLOCK_STEPS,
    (_BLOCK_STEPS + 2) * _min_chunk(n) // largest chunk - 2), 1 at least:
    6 steps for 250 trials at 128 units. So a block buffer never holds more
    values than one of _BLOCK_STEPS + 2 rows over ``_min_chunk(n)`` trials,
    and memory does not grow with the number of trials or of steps. Each block is scored as
    it comes out, and no readout is kept beyond its block. The readout of a
    block's last state is taken from the next block's first step GEMM, as
    ``batch_forward`` takes it. So a chunk's readouts equal those of
    ``batch_forward`` over that chunk bit for bit.

    The chunks run on the workers of ``_run_chunks``, each worker through
    one block buffer, and each chunk is scored on its worker, with no float
    temporaries: the squared errors overwrite the readouts in the buffer
    once the sign test has read them. The block sums are added up in step
    order and the chunk sums in chunk order. A chunk's bounds, blocks and
    GEMMs do not depend on the worker count, so neither do the metrics.
    """
    if isinstance(data, Trial):
        x, y, events = data.inputs[None], data.targets[None], _event_array(data.events)
    else:
        x, y, events = data.x, data.y, data.events
    if transition_pad < 0:
        raise ValueError(f"transition_pad must be >= 0, got {transition_pad}")
    x, y = _forward_input(params, model_cfg, x, y)

    trials, t_steps, _ = x.shape
    n = model_cfg.n_units
    width = model_cfg.n_out + n + model_cfg.n_in + 1
    w = _step_matrix(params)
    bounds = _chunk_bounds(trials, n, _EVAL_TRIALS)
    largest = bounds[0][1] if bounds else 1   # the first chunk, (0, largest)
    # 1 step for trials of no steps, which run no block
    block = max(1, min(t_steps, _BLOCK_STEPS,
                       (_BLOCK_STEPS + 2) * _min_chunk(n) // largest - 2))

    def run(lo, hi, flat):
        ys = y[lo:hi]
        valid = _clean_hold_mask(_events_of(events, lo, hi), ys, data.config,
                                 transition_pad)
        squared, matched = _forward_chunk(w, model_cfg, x[lo:hi], ys, valid,
                                          _buffer((block + 2, width, hi - lo), flat))
        return squared, matched, int(valid.sum())

    results = _run_chunks(run, bounds,
                          lambda k, lo, hi: (np.empty((block + 2) * width * (hi - lo)),))
    squared, matched, considered = 0.0, 0, 0
    for s, m, c in results:   # in chunk order
        squared, matched, considered = squared + s, matched + m, considered + c
    mse = squared / y.size if y.size else float("nan")
    accuracy = matched / considered if considered else float("nan")
    return EvalMetrics(mse=mse, state_accuracy=accuracy)


def _forward_chunk(w: np.ndarray, config: ModelConfig, x: np.ndarray,
                   y: np.ndarray, valid: np.ndarray, u: np.ndarray) -> tuple:
    """``evaluate``'s forward pass and scoring of one chunk: the
    [trials, t_steps, n_in] inputs ``x``, from the zero state, against the
    [trials, t_steps, n_out] targets ``y``, with the [trials, t_steps]
    clean-hold mask ``valid``. Runs in blocks of k steps through the
    [k + 2, ..., trials] buffer ``u`` of [features, trials] slabs, with the
    step matrix ``w``. Block [t, t + k) scores the readouts of steps
    t - 1 .. t + k - 2 in rows 1 .. k, the one of step t - 1 from the
    block's first step GEMM, and the last block also that of its last step
    in row k + 1. Returns (the sum of the squared errors, the count of
    clean-hold steps whose signs match on every channel)."""
    t_steps = x.shape[1]
    n, n_out = config.n_units, config.n_out
    block = u.shape[0] - 2
    y_rows, valid_rows = y.transpose(1, 2, 0), valid.T
    squared, matched = 0.0, 0
    u[0, n_out:n_out + n] = 0.0
    for t in range(0, t_steps, block):
        k = min(block, t_steps - t)
        _recurrence(w, config, x[:, t:t + k], u)
        # row r holds the readout of step t + r - 2; h_0's in row 1 has no target
        first, last = (1 if t else 2), (k + 2 if t + k == t_steps else k + 1)
        z, ys = u[first:last, :n_out], y_rows[t + first - 2:t + last - 2]
        # sign(z) == ys wherever ys is +-1, as on every clean hold
        ok = np.where(ys > 0, z > 0, z < 0).all(axis=1)
        ok &= valid_rows[t + first - 2:t + last - 2]
        matched += int(np.count_nonzero(ok))
        np.subtract(z, ys, out=z)
        with np.errstate(over="ignore"):   # an infinite mse, as in _bptt_chunk
            np.square(z, out=z)
            squared += float(np.sum(z))
        u[0, n_out:n_out + n] = u[k, n_out:n_out + n]
    return squared, matched


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

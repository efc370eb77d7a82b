"""Discrete-time vanilla recurrent network.

State update (alpha = dt/tau):

    h' = (1 - alpha) * h + alpha * tanh(W_rec h + W_in x + b_rec)

which reduces to h' = tanh(W_rec h + W_in x) for dt = tau and zero bias.
Readout is linear: z = W_out h + b_out. The recurrent matrix starts as a
random orthogonal matrix; input/output weights are Gaussian with the Glorot
variance 2/(fan_in + fan_out), the variance of the default kernel
initializer of Keras' SimpleRNN and Dense layers.

The recurrence runs time-major in one [t_steps + 1, batch, n + n_in + 1]
buffer whose row t holds [h_t | x_t | 1], so each step is a single GEMM
with [W_rec | W_in | b_rec] followed by tanh (``_recurrence``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng, orthogonal_init, random_normal
from .tensorio import config_from, read_tensor, write_json, write_tensor


@dataclass(frozen=True)
class ModelConfig:
    n_units: int
    n_in: int = 3
    n_out: int = 3
    tau: float = 1.0
    dt: float = 1.0
    activation: str = "tanh"
    use_bias: bool = False

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")
        if self.tau <= 0 or self.dt <= 0:
            raise ValueError("tau and dt must be > 0")
        if self.dt > self.tau:
            raise ValueError("dt must be <= tau for a stable Euler step")
        if self.activation != "tanh":
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def alpha(self) -> float:
        return self.dt / self.tau


@dataclass
class RnnParams:
    w_in: np.ndarray   # n_units x n_in
    w_rec: np.ndarray  # n_units x n_units
    w_out: np.ndarray  # n_out x n_units
    b_rec: np.ndarray  # n_units
    b_out: np.ndarray  # n_out

    def as_dict(self) -> dict:
        return {"w_in": self.w_in, "w_rec": self.w_rec, "w_out": self.w_out,
                "b_rec": self.b_rec, "b_out": self.b_out}

    def copy(self) -> "RnnParams":
        return RnnParams(**{k: v.copy() for k, v in self.as_dict().items()})

    def map(self, fn) -> "RnnParams":
        return RnnParams(**{k: fn(k, v) for k, v in self.as_dict().items()})


def init_params(config: ModelConfig, rng: SeededRng) -> RnnParams:
    """Orthogonal recurrent matrix, Gaussian(0, 2/(fan_in + fan_out)) in/out,
    zero biases.

    The Glorot scale keeps the input drive in the near-linear range of tanh:
    after one 10-step unit pulse a fresh 128-unit network sits at mean |h|
    0.25 with no unit past 0.9, against 0.5 and a tenth of the units past 0.9
    at variance 1/fan_in. At 1/fan_in the delayed flip-flop task is not
    learned within the pinned 30-epoch recipe (README, "Training").
    """
    n, i, o = config.n_units, config.n_in, config.n_out
    w_rec = orthogonal_init(rng.derive("w_rec"), n)
    w_in = random_normal(rng.derive("w_in"), n, i, 0.0, np.sqrt(2.0 / (i + n)))
    w_out = random_normal(rng.derive("w_out"), o, n, 0.0, np.sqrt(2.0 / (n + o)))
    return RnnParams(w_in, w_rec, w_out, np.zeros(n), np.zeros(o))


def _check_shapes(params: RnnParams, config: ModelConfig) -> None:
    n, i, o = config.n_units, config.n_in, config.n_out
    expected = {"w_in": (n, i), "w_rec": (n, n), "w_out": (o, n),
                "b_rec": (n,), "b_out": (o,)}
    for name, shape in expected.items():
        actual = getattr(params, name).shape
        if actual != shape:
            raise ValueError(f"{name} has shape {actual}, expected {shape}")


def _time_major(t_steps: int, batch: int, width: int, flat=None):
    """A [t_steps + 1, batch, width] float64 buffer: a fresh array, or a
    contiguous prefix of the 1-D array ``flat``, so its strides are the
    same either way."""
    shape = (t_steps + 1, batch, width)
    if flat is None:
        return np.empty(shape)
    size = shape[0] * shape[1] * shape[2]
    if flat.size < size:
        raise ValueError(f"workspace holds {flat.size} values, {size} needed")
    return flat[:size].reshape(shape)


def _recurrence(params: RnnParams, config: ModelConfig, x: np.ndarray,
                hx: np.ndarray, ss: np.ndarray | None = None) -> None:
    """The recurrence over a [batch, t_steps, n_in] tensor, time-major, from
    the zero state, written into the [t_steps + 1, batch, n_units + n_in + 1]
    buffer ``hx``.

    Row t of hx holds [h_t | x_t | 1]: h_0 = 0, h_{t+1} is the state after
    step t, and row t_steps holds h only. Each step is one GEMM,
    [h_t | x_t | 1] @ [W_rec | W_in | b_rec]^T, then tanh. At alpha = 1 the
    state is tanh(a_t) itself; at alpha < 1, tanh(a_t) goes to ss[t] when ss
    (a [t_steps, batch, n_units] view) is given. Values are not checked for
    finiteness here.
    """
    batch, t_steps, _ = x.shape
    n = config.n_units
    alpha = config.alpha
    hx[0, :, :n] = 0.0
    hx[:t_steps, :, n:-1] = x.transpose(1, 0, 2)
    hx[:t_steps, :, -1] = 1.0
    w = np.concatenate([params.w_rec, params.w_in, params.b_rec[:, None]], axis=1).T
    a = np.empty((batch, n))
    for t in range(t_steps):
        np.matmul(hx[t], w, out=a)
        h = hx[t + 1, :, :n]
        if alpha == 1.0:
            np.tanh(a, out=h)
        else:
            s = a if ss is None else ss[t]
            np.tanh(a, out=s)
            np.multiply(hx[t, :, :n], 1.0 - alpha, out=h)
            np.multiply(s, alpha, out=a)
            h += a


def batch_forward(params: RnnParams, config: ModelConfig, x: np.ndarray):
    """Forward over a [batch, t_steps, n_in] tensor from the zero state.

    Returns (h, z) with shapes [batch, t_steps, n_units] and
    [batch, t_steps, n_out]. Batch elements are independent. The recurrence
    runs time-major in a fresh buffer, so h and z are transposed views of
    time-major buffers, not contiguous arrays. Non-finite values are
    returned as they are; ``training.bptt_gradients`` checks finiteness once
    per batch.
    """
    _check_shapes(params, config)
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != config.n_in:
        raise ValueError(f"x must be [batch, t, {config.n_in}], got {x.shape}")

    batch, t_steps, _ = x.shape
    n = config.n_units
    hx = _time_major(t_steps, batch, n + config.n_in + 1)
    _recurrence(params, config, x, hx)
    hs = hx[1:, :, :n]
    z = hs.reshape(-1, n) @ params.w_out.T
    z += params.b_out
    z = z.reshape(t_steps, batch, config.n_out)
    return hs.transpose(1, 0, 2), z.transpose(1, 0, 2)


def save_checkpoint(out_dir, params: RnnParams, config: ModelConfig,
                    metadata: dict | None = None) -> None:
    """Write manifest.json plus one tensor file per weight matrix."""
    write_tensor(os.path.join(out_dir, "w_in.rnt"), params.w_in)
    write_tensor(os.path.join(out_dir, "w_rec.rnt"), params.w_rec)
    write_tensor(os.path.join(out_dir, "w_out.rnt"), params.w_out)
    if config.use_bias:
        write_tensor(os.path.join(out_dir, "b_rec.rnt"), params.b_rec)
        write_tensor(os.path.join(out_dir, "b_out.rnt"), params.b_out)
    manifest = {"model": dataclasses.asdict(config)}
    manifest.update(metadata or {})
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_checkpoint(in_dir):
    """Read a checkpoint directory; returns (params, config, manifest)."""
    manifest_path = os.path.join(in_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"no manifest.json under {in_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if "model" not in manifest:
        raise ValueError(f"{manifest_path}: missing 'model' section")
    config = config_from(ModelConfig, manifest["model"], manifest_path)
    w_in = read_tensor(os.path.join(in_dir, "w_in.rnt"))
    w_rec = read_tensor(os.path.join(in_dir, "w_rec.rnt"))
    w_out = read_tensor(os.path.join(in_dir, "w_out.rnt"))
    if config.use_bias:
        b_rec = read_tensor(os.path.join(in_dir, "b_rec.rnt")).reshape(-1)
        b_out = read_tensor(os.path.join(in_dir, "b_out.rnt")).reshape(-1)
    else:
        b_rec = np.zeros(config.n_units)
        b_out = np.zeros(config.n_out)
    params = RnnParams(w_in, w_rec, w_out, b_rec, b_out)
    _check_shapes(params, config)
    return params, config, manifest

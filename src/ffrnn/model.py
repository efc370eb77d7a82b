"""Discrete-time vanilla recurrent network.

State update (alpha = dt/tau):

    h' = (1 - alpha) * h + alpha * tanh(W_rec h + W_in x + b_rec)

which reduces to h' = tanh(W_rec h + W_in x) for dt = tau and zero bias.
Readout is linear: z = W_out h + b_out. The recurrent matrix starts as a
random orthogonal matrix; input/output weights are Gaussian with the Glorot
variance 2/(fan_in + fan_out), the variance of the default kernel
initializer of Keras' SimpleRNN and Dense layers.
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


def _recurrence(params: RnnParams, config: ModelConfig, x: np.ndarray):
    """The recurrence over a [batch, t_steps, n_in] tensor, time-major, from
    the zero state.

    Returns (hs, ss): hs is [t_steps + 1, batch, n_units] with hs[0] = 0 and
    hs[t + 1] the state after step t; ss is [t_steps, batch, n_units] with
    ss[t] = tanh(a_t). At alpha = 1 the state is tanh(a_t) itself and ss is
    the view hs[1:]. Values are not checked for finiteness here.
    """
    batch, t_steps, n_in = x.shape
    n = config.n_units
    alpha = config.alpha
    hs = np.empty((t_steps + 1, batch, n))
    hs[0] = 0.0
    ss = hs[1:] if alpha == 1.0 else np.empty((t_steps, batch, n))
    drive = x.transpose(1, 0, 2).reshape(-1, n_in) @ params.w_in.T
    drive += params.b_rec
    drive = drive.reshape(t_steps, batch, n)
    w_rec_t = params.w_rec.T
    a = np.empty((batch, n))
    for t in range(t_steps):
        np.matmul(hs[t], w_rec_t, out=a)
        a += drive[t]
        np.tanh(a, out=ss[t])
        if alpha != 1.0:
            np.multiply(hs[t], 1.0 - alpha, out=hs[t + 1])
            np.multiply(ss[t], alpha, out=a)
            hs[t + 1] += a
    return hs, ss


def batch_forward(params: RnnParams, config: ModelConfig, x: np.ndarray):
    """Forward over a [batch, t_steps, n_in] tensor from the zero state.

    Returns (h, z) with shapes [batch, t_steps, n_units] and
    [batch, t_steps, n_out]. Batch elements are independent. The recurrence
    runs time-major, so h and z are transposed views of time-major buffers,
    not contiguous arrays. Non-finite values are returned as they are;
    ``training.bptt_gradients`` checks finiteness once per batch.
    """
    _check_shapes(params, config)
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != config.n_in:
        raise ValueError(f"x must be [batch, t, {config.n_in}], got {x.shape}")

    batch, t_steps, _ = x.shape
    hs, _ = _recurrence(params, config, x)
    z = hs[1:].reshape(-1, config.n_units) @ params.w_out.T
    z += params.b_out
    z = z.reshape(t_steps, batch, config.n_out)
    return hs[1:].transpose(1, 0, 2), z.transpose(1, 0, 2)


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

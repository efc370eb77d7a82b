"""Discrete-time vanilla recurrent network.

State update (alpha = dt/tau):

    h' = (1 - alpha) * h + alpha * tanh(W_rec h + W_in x + b_rec)

which reduces to h' = tanh(W_rec h + W_in x) for dt = tau and zero bias.
Readout is linear: z = W_out h + b_out. The recurrent matrix starts as a
random orthogonal matrix; input/output weights are Gaussian with the Glorot
variance 2/(fan_in + fan_out), the variance of the default kernel
initializer of Keras' SimpleRNN and Dense layers.

The recurrence runs time-major in one
[t_steps + 2, n_out + n + n_in + 1, batch] buffer whose row t holds the
slab [z(h_{t-1}); h_t; x_t; 1], one feature per line and the trials
innermost, so every slot is a contiguous [features, batch] block. Each
step is then a single GEMM of the step matrix
[[W_out, 0, b_out]; [W_rec, W_in, b_rec]] with [h_t; x_t; 1], which gives
the readout of h_t and the pre-activation a_t together, followed by tanh
on one contiguous slab (``_recurrence``). The caller builds the step
matrix once per call (``_step_matrix``) and leaves the start state in
row 0: ``batch_forward`` and ``training.bptt_gradients`` zero it, and
``training.evaluate`` carries the last state of one block of steps into
the next.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng, orthogonal_init
from .tensorio import config_from, read_tensor, write_json, write_tensor


@dataclass(frozen=True)
class ModelConfig:
    n_units: int
    n_in: int = 3
    n_out: int = 3
    tau: float = 1.0
    dt: float = 1.0
    use_bias: bool = False

    def __post_init__(self):
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")
        if not (0 < self.tau < np.inf and 0 < self.dt < np.inf):
            raise ValueError("tau and dt must be finite and > 0")
        if self.dt > self.tau:
            raise ValueError("dt must be <= tau for a stable Euler step")

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
    w_in = rng.derive("w_in").gen.normal(0.0, np.sqrt(2.0 / (i + n)), size=(n, i))
    w_out = rng.derive("w_out").gen.normal(0.0, np.sqrt(2.0 / (n + o)), size=(o, n))
    return RnnParams(w_in, w_rec, w_out, np.zeros(n), np.zeros(o))


def _check_shapes(params: RnnParams, config: ModelConfig) -> None:
    n, i, o = config.n_units, config.n_in, config.n_out
    expected = {"w_in": (n, i), "w_rec": (n, n), "w_out": (o, n),
                "b_rec": (n,), "b_out": (o,)}
    for name, shape in expected.items():
        actual = getattr(params, name).shape
        if actual != shape:
            raise ValueError(f"{name} has shape {actual}, expected {shape}")


def _forward_input(params: RnnParams, config: ModelConfig, x, y=None) -> tuple:
    """The one check of a batch: the parameter shapes, x of [batch, t_steps,
    n_in] and y, if given, of exactly [batch, t_steps, n_out]. Returns
    (x, y) as arrays at their own dtypes: ``_recurrence`` casts x into its
    float64 buffer, and the error ufuncs cast y exactly."""
    _check_shapes(params, config)
    x, y = np.asarray(x), (None if y is None else np.asarray(y))
    if x.ndim != 3 or x.shape[2] != config.n_in:
        raise ValueError(f"x must be [batch, t, {config.n_in}], got {x.shape}")
    if y is not None and y.shape != x.shape[:2] + (config.n_out,):
        raise ValueError(f"y must be {x.shape[:2] + (config.n_out,)}, got {y.shape}")
    return x, y


def _buffer(shape: tuple, flat=None) -> np.ndarray:
    """A float64 buffer of ``shape``: a fresh array, or a contiguous prefix
    of the 1-D array ``flat``, so its strides are the same either way."""
    if flat is None:
        return np.empty(shape)
    size = math.prod(shape)
    if flat.size < size:
        raise ValueError(f"workspace holds {flat.size} values, {size} needed")
    return flat[:size].reshape(shape)


def _step_matrix(params: RnnParams) -> np.ndarray:
    """The C-ordered [n_out + n, n + n_in + 1] step matrix
    [[W_out, 0, b_out]; [W_rec, W_in, b_rec]] of ``_recurrence``."""
    n_in, n_out = params.w_in.shape[1], params.w_out.shape[0]
    return np.block([[params.w_out, np.zeros((n_out, n_in)), params.b_out[:, None]],
                     [params.w_rec, params.w_in, params.b_rec[:, None]]])


def _recurrence(w: np.ndarray, config: ModelConfig, x: np.ndarray,
                u: np.ndarray) -> None:
    """The recurrence over a [batch, t_steps, n_in] tensor, time-major,
    written into the first t_steps + 2 rows of the
    [rows, n_out + n_units + n_in + 1, batch] buffer ``u``, from the start
    state h_0 that the caller leaves in row 0's h slot.

    Row t of u is the slab [z(h_{t-1}); h_t; x_t; 1], trials innermost:
    h_{t+1} is the state after step t, and z(h) = W_out h + b_out. Step t
    is one GEMM, w @ [h_t; x_t; 1], with w = [[W_out, 0, b_out];
    [W_rec, W_in, b_rec]] the step matrix from ``_step_matrix``, into the
    contiguous [z(h_t); a_t] slab of row t + 1, then tanh in place on the
    a_t slab. One more step at t = t_steps, over x = 0, reads out
    h_t_steps into row t_steps + 1, so the readouts of h_1 .. h_t_steps sit
    in rows 2 .. t_steps + 1; row 0's readout slot and row t_steps + 1's
    other slots hold no values. At alpha = 1 the state is tanh(a_t) itself;
    at alpha < 1, tanh(a_t) passes through [n_units, batch] scratch and is
    not kept, since ``training.bptt_gradients`` recovers it from h_t and
    h_{t+1}. Values are not checked for finiteness here.
    """
    batch, t_steps, _ = x.shape
    n, n_out = config.n_units, config.n_out
    alpha = config.alpha
    u[:t_steps, n_out + n:-1] = x.transpose(1, 2, 0)
    u[t_steps, n_out + n:-1] = 0.0
    u[:t_steps + 1, -1] = 1.0
    if alpha != 1.0:
        s = np.empty((n, batch))
    for t in range(t_steps):
        out = u[t + 1, :n_out + n]
        np.matmul(w, u[t, n_out:], out=out)
        h = out[n_out:]
        if alpha == 1.0:
            np.tanh(h, out=h)
        else:
            np.tanh(h, out=s)
            np.multiply(u[t, n_out:n_out + n], 1.0 - alpha, out=h)
            s *= alpha
            h += s
    np.matmul(w[:n_out], u[t_steps, n_out:], out=u[t_steps + 1, :n_out])


def batch_forward(params: RnnParams, config: ModelConfig, x: np.ndarray):
    """Forward over a [batch, t_steps, n_in] tensor from the zero state.

    Returns (h, z) with shapes [batch, t_steps, n_units] and
    [batch, t_steps, n_out]. Batch elements are independent. The recurrence
    runs time-major in a fresh [z; h; x; 1] buffer of [features, batch]
    slabs (``_recurrence``), which also computes the readouts. h is a
    transposed view of that buffer; z is copied out into an array of its
    own, so a caller that keeps only z does not keep the whole buffer
    alive. Non-finite values are returned as they are;
    ``training.bptt_gradients`` checks finiteness once per batch.
    """
    x, _ = _forward_input(params, config, x)
    batch, t_steps, _ = x.shape
    n, n_out = config.n_units, config.n_out
    u = _buffer((t_steps + 2, n_out + n + config.n_in + 1, batch))
    u[0, n_out:n_out + n] = 0.0
    _recurrence(_step_matrix(params), config, x, u)
    h = u[1:t_steps + 1, n_out:n_out + n].transpose(2, 0, 1)
    z = u[2:, :n_out].transpose(2, 0, 1).copy()
    return h, z


def save_checkpoint(out_dir, params: RnnParams, config: ModelConfig,
                    metadata: dict | None = None) -> list:
    """Write one tensor file per weight matrix (and per bias when the model
    uses them) plus manifest.json; returns the tensor file paths. A value
    that float32 cannot hold (NaN, infinite, or beyond its range) raises a
    FloatingPointError before any file is written."""
    names = ("w_in", "w_rec", "w_out") + (("b_rec", "b_out") if config.use_bias else ())
    for name in names:
        with np.errstate(over="ignore"):   # the overflow to float32 is what is checked
            if not np.isfinite(getattr(params, name).astype(np.float32)).all():
                raise FloatingPointError(f"{name} holds a value that float32 cannot hold")
    paths = [os.path.join(out_dir, f"{name}.rnt") for name in names]
    for name, path in zip(names, paths):
        write_tensor(path, getattr(params, name))
    manifest = {"model": dataclasses.asdict(config)}
    manifest.update(metadata or {})
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return paths


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
        b_rec = np.zeros(w_rec.shape[:1])   # sized as the tensors _check_shapes checks
        b_out = np.zeros(w_out.shape[:1])
    params = RnnParams(w_in, w_rec, w_out, b_rec, b_out)
    _check_shapes(params, config)
    return params, config, manifest

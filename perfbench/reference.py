"""Reference computations the benchmark checks the program against.

Everything here is written from the documented method, in plain numpy, and
shares no code with the ``ffrnn`` package: the tensor-file reader, a forward
pass that walks time one step at a time, the flip-flop state replay, the
clean-hold mask derived from the generated pulse events, a central
finite-difference gradient, principal variances by SVD, the cube geometry of the
memory states, and the peak-memory reader.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

RNT_MAGIC = b"RNT1"


def read_rnt(path) -> np.ndarray:
    """Read a ``.rnt`` tensor file: magic, uint32 version/rank/dims, float32."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != RNT_MAGIC:
        raise ValueError(f"{path}: not an RNT1 file")
    _version, rank = struct.unpack_from("<2I", raw, 4)
    dims = struct.unpack_from(f"<{rank}I", raw, 12)
    data = np.frombuffer(raw, dtype="<f4", offset=12 + 4 * rank)
    return data.astype(np.float64).reshape(dims)


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def forward_steps(w_in, w_rec, w_out, b_rec, b_out, alpha, x, keep_states=False):
    """Run h(t+1) = (1-alpha) h(t) + alpha tanh(W_rec h + W_in x(t) + b_rec)
    from h = 0 one step at a time over a [batch, t, n_in] tensor.

    Returns ``(states, z)``: states is [batch, t, n] when ``keep_states``,
    else None; z = W_out h + b_out is [batch, t, n_out].
    """
    batch, t_steps, _ = x.shape
    n = w_rec.shape[0]
    h = np.zeros((batch, n))
    z = np.empty((batch, t_steps, w_out.shape[0]))
    states = np.empty((batch, t_steps, n)) if keep_states else None
    for t in range(t_steps):
        a = h @ w_rec.T + x[:, t] @ w_in.T + b_rec
        h = (1.0 - alpha) * h + alpha * np.tanh(a)
        z[:, t] = h @ w_out.T + b_out
        if keep_states:
            states[:, t] = h
    return states, z


def replay_targets(events, t_steps, n_bits, pulse_width, delay):
    """Flip-flop targets by walking time forward: a channel takes the sign of
    a pulse ``pulse_width + delay`` steps after its onset and holds it."""
    due = {}
    for onset, channel, sign in events:
        due.setdefault(onset + pulse_width + delay, []).append((channel, sign))
    state = np.zeros(n_bits)
    targets = np.empty((t_steps, n_bits))
    for t in range(t_steps):
        for channel, sign in due.get(t, ()):
            state[channel] = sign
        targets[t] = state
    return targets


def clean_hold_mask(events, targets, pulse_width, delay, pad):
    """Steps where every channel holds a committed +-1 target and no pulse is
    between its onset and ``delay + pad`` steps past its falling edge."""
    t_steps = targets.shape[0]
    mask = np.all(np.abs(targets) == 1.0, axis=1)
    for onset, _channel, _sign in events:
        mask[onset:min(t_steps, onset + pulse_width + delay + pad + 1)] = False
    return mask


def state_accuracy(z, y, masks):
    """Share of masked steps where sign(z) equals the target on every channel;
    None when no step is masked."""
    matched = considered = 0
    for zi, yi, mask in zip(z, y, masks):
        considered += int(mask.sum())
        matched += int((np.all(np.sign(zi) == yi, axis=1) & mask).sum())
    return matched / considered if considered else None


def central_differences(loss_fn, array, coords, eps=1e-5):
    """d loss / d array[c] for each coordinate c by central differences.

    ``loss_fn()`` is evaluated with ``array`` perturbed in place; every entry
    is restored before returning.
    """
    flat = array.reshape(-1)
    out = []
    for c in coords:
        orig = flat[c]
        flat[c] = orig + eps
        hi = loss_fn()
        flat[c] = orig - eps
        lo = loss_fn()
        flat[c] = orig
        out.append((hi - lo) / (2.0 * eps))
    return np.array(out)


def relative_error(analytic, numeric, floor=1e-6):
    """|a - n| / max(|a|, |n|, floor), elementwise."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB: ``VmHWM`` of
    /proc/self/status.

    ``getrusage``'s ``ru_maxrss`` is not used: on Linux it keeps the peak of
    the image the process replaced by ``exec``, so a benchmark started from a
    large parent would report the parent's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                value, unit = line.split()[1:3]
                if unit != "kB":
                    raise ValueError(f"unexpected VmHWM unit {unit!r}")
                return int(value) / 1024.0
    raise OSError("/proc/self/status has no VmHWM line")


def principal_variances(activity, k=3):
    """Centred activity (rows = steps), the variances sigma_i^2 along its
    top-k principal axes from an SVD, and their shares of the total."""
    centred = activity - activity.mean(axis=0)
    var = np.linalg.svd(centred, compute_uv=False) ** 2
    return centred, var[:k], var[:k] / var.sum()


def hold_mask(targets, start_step, margin):
    """Steps at or after ``start_step`` with every channel committed and at
    least ``margin`` steps since the last change of the target vector."""
    mask = np.all(np.abs(targets) == 1.0, axis=1)
    mask[:start_step] = False
    since_change = margin
    for t in range(targets.shape[0]):
        if t > 0 and np.any(targets[t] != targets[t - 1]):
            since_change = 0
        if since_change < margin:
            mask[t] = False
        since_change += 1
    return mask


def cube_geometry(points, labels, margin_mask):
    """Centroid of each memory state's points and the cube distance groups.

    ``labels`` holds one sign triple per point. Returns a dict with the
    states in sorted order, their centroids, the mean of the 12 shortest,
    12 next and 4 longest pairwise centroid distances, the mean RMS spread
    of points around their centroid, and the shortest distance over that
    spread.
    """
    groups = {}
    for p, lab, keep in zip(points, labels, margin_mask):
        if keep:
            groups.setdefault(tuple(int(v) for v in lab), []).append(p)
    states = sorted(groups)
    centroids = np.array([np.mean(groups[s], axis=0) for s in states])
    spread = float(np.mean([
        np.sqrt(np.mean(np.sum((np.asarray(groups[s]) - c) ** 2, axis=1)))
        for s, c in zip(states, centroids)]))
    dists = sorted(float(np.sqrt(np.sum((centroids[i] - centroids[j]) ** 2)))
                   for i in range(len(states)) for j in range(i + 1, len(states)))
    return {
        "states": states,
        "centroids": centroids,
        "edge": float(np.mean(dists[:12])),
        "face": float(np.mean(dists[12:24])),
        "body": float(np.mean(dists[24:])),
        "spread": spread,
        "separation": dists[0] / spread,
    }


def procrustes_residual(a, b):
    """Frobenius residual of the best orthogonal map of centred a onto b."""
    a_c = a - a.mean(axis=0)
    b_c = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(a_c.T @ b_c)
    return float(np.linalg.norm(a_c @ (u @ vt) - b_c))


def same_eigenvalues(found, expected, tol):
    """True when the two lists are equal as multisets within ``tol``."""
    left = list(np.asarray(expected, dtype=complex))
    if len(left) != len(found):
        return False
    for value in found:
        dist = [abs(value - e) for e in left]
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return False
        left.pop(j)
    return True

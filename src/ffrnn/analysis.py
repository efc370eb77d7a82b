"""Post-training dynamics analysis.

Covers the eigenspectrum of the recurrent matrix (who left the unit circle),
projection of probe-driven activity onto the top-3 variance axes, grouping of
the 8 memory states into centroids, and the cube geometry of those centroids
(12 edges : 12 face diagonals : 4 body diagonals, lengths 1 : sqrt2 : sqrt3).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .linalg import eigenvalues, pca_top_k
from .model import ModelConfig, RnnParams, batch_forward
from .task import STATE_SIGNS, Trial, state_codes
from .tensorio import write_file

IDEAL_RATIOS = (1.0, np.sqrt(2.0), np.sqrt(3.0))
CUBE_GROUP_SIZES = (12, 12, 4)


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # complex128
    n_outside: int
    radius_min: float
    radius_max: float
    radius_mean: float
    eps_circle: float


@dataclass
class ProjectionResult:
    points: np.ndarray                     # (t_steps - prefix) x 3
    labels: np.ndarray                     # each point's state code (task.state_codes)
    explained_variance_ratio: np.ndarray   # 3
    components: np.ndarray                 # 3 x n_units
    start_step: int = 0                    # probe step of points[0]


@dataclass
class CubeReport:
    state_labels: list                     # 8 sign triples, sorted
    centroids: np.ndarray                  # 8 x 3
    edge_group: tuple | None = None        # (count, mean length)
    face_group: tuple | None = None
    body_group: tuple | None = None
    within_state_spread: float = float("nan")
    separation_ratio: float = float("nan")
    missing_states: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missing_states

    def group_ratios(self):
        """Mean lengths normalized by the edge mean (ideal: 1, sqrt2, sqrt3)."""
        if not self.complete:
            raise ValueError("cube metrics unavailable: missing states")
        edge = self.edge_group[1]
        return (1.0, self.face_group[1] / edge, self.body_group[1] / edge)

    def to_dict(self) -> dict:
        out = {
            "state_labels": [list(map(int, s)) for s in self.state_labels],
            "centroids": np.asarray(self.centroids).tolist(),
            "missing_states": [list(map(int, s)) for s in self.missing_states],
            "within_state_spread": self.within_state_spread,
            "separation_ratio": self.separation_ratio,
        }
        for name in ("edge_group", "face_group", "body_group"):
            g = getattr(self, name)
            out[name] = None if g is None else {"count": g[0], "mean_length": g[1]}
        return out


def spectrum(w_rec: np.ndarray, eps_circle: float = 0.05) -> Spectrum:
    """Eigenvalues of the recurrent matrix plus unit-circle statistics."""
    if not 0 <= eps_circle < np.inf:
        raise ValueError(f"eps_circle must be finite and >= 0, got {eps_circle}")
    vals = eigenvalues(w_rec)
    radii = np.abs(vals)
    return Spectrum(
        eigenvalues=vals,
        n_outside=int(np.sum(radii > 1.0 + eps_circle)),
        radius_min=float(radii.min()),
        radius_max=float(radii.max()),
        radius_mean=float(radii.mean()),
        eps_circle=eps_circle,
    )


def collect_and_project(params: RnnParams, model_cfg: ModelConfig,
                        probe: Trial) -> ProjectionResult:
    """Run the probe, drop the steps before its first memory state, project
    onto top-3 axes; each point is labelled with its state code."""
    h, _ = batch_forward(params, model_cfg, probe.inputs[None])
    codes = state_codes(probe.targets)
    prefix = int(np.argmax(codes >= 0))
    components, projected, ratios = pca_top_k(h[0, prefix:], 3)
    return ProjectionResult(points=projected, labels=codes[prefix:],
                            explained_variance_ratio=ratios, components=components,
                            start_step=prefix)


def _hold_mask(codes: np.ndarray, hold_margin: int) -> np.ndarray:
    """Steps in a settled hold: in a memory state (code >= 0) and at least
    hold_margin steps (at most the trial's length) past the latest change of
    code. A change between two steps in no state is not seen, but the change
    into the next state excludes every step in a state that it would."""
    steps = np.arange(len(codes))
    changed = np.r_[False, codes[1:] != codes[:-1]]
    last_change = np.maximum.accumulate(np.where(changed, steps, -len(codes)))
    settled = steps - last_change >= min(hold_margin, len(codes))
    return settled & (codes >= 0)


def memory_states(projection: ProjectionResult, probe: Trial,
                  hold_margin: int = 10) -> CubeReport:
    """Centroid per memory state plus the cube-distance geometry.

    Projected points are grouped by the probe target's state code over the
    settled hold windows, and the states listed in code order. The 28
    pairwise centroid distances are sorted and split by ideal-cube
    multiplicity into 12 edges, 12 face diagonals and 4 body diagonals.
    When fewer than 8 states appear the report only carries the
    missing-state list: no groups, and NaN spread and separation ratio.
    """
    if hold_margin < 0:
        raise ValueError(f"hold_margin must be >= 0, got {hold_margin}")
    start = projection.start_step
    codes = state_codes(probe.targets)
    held = _hold_mask(codes, hold_margin)[start:]
    codes, points = codes[start:][held], projection.points[held]
    signs = [tuple(s) for s in STATE_SIGNS.tolist()]
    groups = {s: points[codes == code] for code, s in enumerate(signs)}
    groups = {s: group for s, group in groups.items() if len(group)}
    labels, missing = list(groups), [s for s in signs if s not in groups]
    centroids = np.array([group.mean(axis=0) for group in groups.values()]).reshape(-1, 3)
    if missing:
        return CubeReport(state_labels=labels, centroids=centroids,
                          missing_states=missing)

    spreads = [float(np.sqrt(np.mean(np.sum((group - c) ** 2, axis=1))))
               for group, c in zip(groups.values(), centroids)]
    within = float(np.mean(spreads))
    dists = sorted(float(np.linalg.norm(centroids[i] - centroids[j]))
                   for i in range(8) for j in range(i + 1, 8))
    e, f = CUBE_GROUP_SIZES[0], CUBE_GROUP_SIZES[0] + CUBE_GROUP_SIZES[1]
    separation = dists[0] / within if within > 0 else float("inf")
    return CubeReport(state_labels=labels, centroids=centroids,
                      edge_group=(e, float(np.mean(dists[:e]))),
                      face_group=(CUBE_GROUP_SIZES[1], float(np.mean(dists[e:f]))),
                      body_group=(CUBE_GROUP_SIZES[2], float(np.mean(dists[f:]))),
                      within_state_spread=within, separation_ratio=float(separation))


def procrustes_align(a: np.ndarray, b: np.ndarray):
    """Best orthogonal map (rotation/reflection, no scaling) of centered a
    onto centered b; returns (transform, residual norm)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"point sets differ in shape: {a.shape} vs {b.shape}")
    a_c = a - a.mean(axis=0)
    b_c = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(a_c.T @ b_c)
    rot = u @ vt
    residual = float(np.linalg.norm(a_c @ rot - b_c))
    return rot, residual


@dataclass
class RealizationSummary:
    per_report: list   # dicts: separation_ratio, group means, ratio errors
    pairwise: list     # dicts: i, j, raw_diff, procrustes_residual


def compare_realizations(reports: list) -> RealizationSummary:
    """Cross-realization table: cube quality per report and pairwise
    centroid alignment (raw distance vs best-rotation residual)."""
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    labels = reports[0].state_labels
    for r in reports:
        if not r.complete:
            raise ValueError("cannot compare reports with missing states")
        if r.state_labels != labels:
            raise ValueError("state labels do not match across reports")

    per_report = []
    for r in reports:
        ratios = r.group_ratios()
        per_report.append({
            "separation_ratio": r.separation_ratio,
            "edge_mean": r.edge_group[1],
            "face_mean": r.face_group[1],
            "body_mean": r.body_group[1],
            "face_ratio_error": abs(ratios[1] - IDEAL_RATIOS[1]) / IDEAL_RATIOS[1],
            "body_ratio_error": abs(ratios[2] - IDEAL_RATIOS[2]) / IDEAL_RATIOS[2],
        })

    pairwise = []
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            a, b = reports[i].centroids, reports[j].centroids
            raw = float(np.linalg.norm(a - b))
            _, residual = procrustes_align(a, b)
            pairwise.append({"i": i, "j": j, "raw_diff": raw,
                             "procrustes_residual": residual})
    return RealizationSummary(per_report=per_report, pairwise=pairwise)


# ---------------------------------------------------------------------------
# CSV emission (canonical text outputs; 32-bit value precision)

F32_FMT = "%.9g"


def _write_csv(path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_file(path, buf.getvalue())


def write_spectrum_csv(path, spec: Spectrum) -> None:
    _write_csv(path, [["re", "im"]] + [[F32_FMT % lam.real, F32_FMT % lam.imag]
                                       for lam in spec.eigenvalues])


def write_projection_csv(path, projection: ProjectionResult) -> None:
    """One row per point: its probe step, its coordinates and its state code."""
    start = projection.start_step
    _write_csv(path, [["step", "pc1", "pc2", "pc3", "state_label"]] + [
        [start + i] + [F32_FMT % v for v in point] + [label]
        for i, (point, label) in enumerate(zip(projection.points,
                                               projection.labels.tolist()))
    ])


def write_connectivity_csv(path, w_rec: np.ndarray) -> None:
    """The raw recurrent matrix, one CSV row per matrix row; no transform."""
    w = np.asarray(w_rec, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"connectivity matrix must be square, got {w.shape}")
    _write_csv(path, [[F32_FMT % v for v in row] for row in w])

import csv
import dataclasses
import json
import math
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from ffrnn.analysis import (
    CubeReport,
    ProjectionResult,
    collect_and_project,
    compare_realizations,
    memory_states,
    procrustes_align,
    settle_step,
    spectrum,
    state_label_int,
    write_connectivity_csv,
    write_projection_csv,
    write_spectrum_csv,
)
from ffrnn.linalg import SeededRng, orthogonal_init
from ffrnn.model import ModelConfig, RnnParams, init_params
from ffrnn.task import TaskConfig, Trial, generate_probe
from ffrnn.tensorio import dump_json


def cube_vertices():
    return np.array(sorted(product((-1.0, 1.0), repeat=3)))


def synthetic_projection_and_probe(rotate=None, scale=1.0, jitter=0.0,
                                   hold=40, seed=0):
    """Probe-shaped targets plus projected points sitting on cube vertices."""
    vertices = cube_vertices()
    if rotate is not None:
        vertices = vertices @ rotate.T
    vertices = vertices * scale
    labels = sorted(product((-1, 1), repeat=3))
    t_steps = hold * 8
    targets = np.zeros((t_steps, 3))
    points = np.zeros((t_steps, 3))
    rng = SeededRng(seed)
    for k, label in enumerate(labels):
        sl = slice(k * hold, (k + 1) * hold)
        targets[sl] = label
        points[sl] = vertices[k] + jitter * rng.gen.normal(size=(hold, 3))
    probe = Trial(inputs=np.zeros((t_steps, 3)), targets=targets,
                  config=TaskConfig())
    projection = ProjectionResult(points=points,
                                  explained_variance_ratio=np.ones(3) / 3,
                                  components=np.eye(3), start_step=0)
    return projection, probe


class TestSpectrum:
    def test_orthogonal_matrix_stays_inside(self):
        q = orthogonal_init(SeededRng(1), 60)
        spec = spectrum(q, eps_circle=0.05)
        assert spec.n_outside == 0
        assert abs(spec.radius_mean - 1.0) <= 1e-8

    def test_diagonal_counts(self):
        spec = spectrum(np.diag([1.2, 0.5]), eps_circle=0.05)
        assert spec.n_outside == 1
        assert spec.radius_max == pytest.approx(1.2)
        assert spec.radius_min == pytest.approx(0.5)

    @pytest.mark.parametrize("eps", [-2.0, np.nan, np.inf])
    def test_bad_margin_rejected(self, eps):
        with pytest.raises(ValueError, match="eps_circle"):
            spectrum(np.eye(2), eps_circle=eps)

    def test_conjugate_symmetry_and_trace(self):
        m = SeededRng(2).gen.normal(size=(12, 12))
        spec = spectrum(m)
        npt.assert_allclose(spec.eigenvalues.sum().real, np.trace(m),
                            rtol=1e-8, atol=1e-10)
        for lam in spec.eigenvalues:
            if abs(lam.imag) > 0:
                assert np.min(np.abs(spec.eigenvalues - lam.conj())) <= 1e-9


class TestCollectAndProject:
    def test_zero_network_zero_ratios(self):
        cfg = ModelConfig(n_units=10)
        params = init_params(cfg, SeededRng(3))
        trial = Trial(inputs=np.zeros((100, 3)), targets=np.zeros((100, 3)),
                      config=TaskConfig())
        result = collect_and_project(params, cfg, trial)
        npt.assert_array_equal(result.explained_variance_ratio, 0.0)
        npt.assert_allclose(result.points, 0.0, atol=1e-12)
        assert result.start_step == 0

    def test_point_count_bookkeeping(self):
        cfg = ModelConfig(n_units=16)
        params = init_params(cfg, SeededRng(4))
        probe = generate_probe(TaskConfig())
        result = collect_and_project(params, cfg, probe)
        assert result.start_step == settle_step(probe.targets)
        assert len(result.points) == 600 - result.start_step

    def test_constructed_embedding_recovers_rank_three(self):
        # activity = cube vertices under an orthogonal embedding + noise;
        # the top three axes must capture nearly all variance
        vertices = cube_vertices()
        reps = np.repeat(vertices, 40, axis=0)
        basis = orthogonal_init(SeededRng(5), 30)[:, :3]
        data = reps @ basis.T + 0.01 * SeededRng(6).gen.normal(size=(320, 30))
        from ffrnn.linalg import pca_top_k

        _, _, ratios = pca_top_k(data, 3)
        assert ratios.sum() > 0.99


class TestMemoryStates:
    def test_ideal_cube_geometry(self):
        projection, probe = synthetic_projection_and_probe()
        report = memory_states(projection, probe, hold_margin=5)
        assert report.complete
        assert report.edge_group[0] == 12
        assert report.face_group[0] == 12
        assert report.body_group[0] == 4
        ratios = report.group_ratios()
        npt.assert_allclose(ratios, (1.0, np.sqrt(2), np.sqrt(3)), rtol=1e-12)
        npt.assert_allclose(report.edge_group[1], 2.0, rtol=1e-12)

    def test_rotation_and_scale_invariance(self):
        rot = orthogonal_init(SeededRng(7), 3)
        projection, probe = synthetic_projection_and_probe(rotate=rot, scale=5.0)
        report = memory_states(projection, probe, hold_margin=5)
        ratios = report.group_ratios()
        npt.assert_allclose(ratios, (1.0, np.sqrt(2), np.sqrt(3)), rtol=1e-9)

    def test_centroids_match_labels(self):
        projection, probe = synthetic_projection_and_probe(jitter=0.01)
        report = memory_states(projection, probe, hold_margin=5)
        for label, centroid in zip(report.state_labels, report.centroids):
            npt.assert_allclose(centroid, label, atol=0.05)

    def test_separation_ratio_large_for_tight_clusters(self):
        projection, probe = synthetic_projection_and_probe(jitter=0.02)
        report = memory_states(projection, probe, hold_margin=5)
        assert report.separation_ratio > 10

    def test_missing_states_flagged(self):
        projection, probe = synthetic_projection_and_probe()
        probe.targets[probe.targets[:, 0] == 1] = 0  # erase half the states
        report = memory_states(projection, probe, hold_margin=5)
        assert not report.complete
        assert len(report.missing_states) == 4
        assert report.edge_group is None
        # no number over an empty denominator: NaN here, null in the JSON
        assert math.isnan(report.separation_ratio)
        assert math.isnan(report.within_state_spread)
        out = json.loads(dump_json(report.to_dict()))
        assert out["separation_ratio"] is None and out["within_state_spread"] is None

    def test_hold_margin_excludes_transients(self):
        projection, probe = synthetic_projection_and_probe(hold=30)
        # corrupt the first 10 points after each state change
        for k in range(1, 8):
            projection.points[k * 30:k * 30 + 10] += 100.0
        report = memory_states(projection, probe, hold_margin=10)
        for label, centroid in zip(report.state_labels, report.centroids):
            npt.assert_allclose(centroid, label, atol=1e-9)


def read_csv_matrix(path):
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row])


class TestExportConnectivity:
    def test_zero_matrix(self, tmp_path):
        write_connectivity_csv(tmp_path / "c.csv", np.zeros((4, 4)))
        npt.assert_array_equal(read_csv_matrix(tmp_path / "c.csv"), np.zeros((4, 4)))

    def test_identity(self, tmp_path):
        write_connectivity_csv(tmp_path / "c.csv", np.eye(3))
        npt.assert_array_equal(read_csv_matrix(tmp_path / "c.csv"), np.eye(3))

    def test_csv_round_trip_32bit(self, tmp_path):
        w = SeededRng(8).gen.normal(size=(9, 9))
        path = tmp_path / "connectivity.csv"
        write_connectivity_csv(path, w)
        back = read_csv_matrix(path)
        npt.assert_array_equal(back.astype(np.float32), w.astype(np.float32))

    def test_non_square_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_connectivity_csv(tmp_path / "c.csv", np.zeros((2, 3)))
        assert not (tmp_path / "c.csv").exists()


class TestProcrustes:
    def test_self_alignment_is_exact(self):
        pts = SeededRng(9).gen.normal(size=(8, 3))
        _, residual = procrustes_align(pts, pts)
        assert residual <= 1e-10

    def test_rotation_absorbed(self):
        pts = SeededRng(10).gen.normal(size=(8, 3))
        rot = orthogonal_init(SeededRng(11), 3)
        _, residual = procrustes_align(pts, pts @ rot.T + 3.0)
        assert residual <= 1e-8


class TestCompareRealizations:
    def reports(self, n=3, jitter=0.01):
        out = []
        for k in range(n):
            rot = orthogonal_init(SeededRng(20 + k), 3)
            projection, probe = synthetic_projection_and_probe(
                rotate=rot, jitter=jitter, seed=30 + k)
            out.append(memory_states(projection, probe, hold_margin=5))
        return out

    def test_identical_reports_zero_residual(self):
        r = self.reports(2)[0]
        summary = compare_realizations([r, r])
        assert summary.pairwise[0]["raw_diff"] == 0.0
        assert summary.pairwise[0]["procrustes_residual"] <= 1e-10

    def test_rotated_copies_align(self):
        base, = self.reports(1, jitter=0.0)
        rot = orthogonal_init(SeededRng(40), 3)
        rotated = dataclasses.replace(base, centroids=base.centroids @ rot.T)
        summary = compare_realizations([base, rotated])
        pair = summary.pairwise[0]
        assert pair["procrustes_residual"] <= 1e-8
        assert pair["raw_diff"] > 1.0

    def test_mismatched_labels_rejected(self):
        a, b = self.reports(2)
        b = dataclasses.replace(b, state_labels=list(reversed(b.state_labels)))
        with pytest.raises(ValueError, match="labels"):
            compare_realizations([a, b])

    def test_incomplete_report_rejected(self):
        a, b = self.reports(2)
        b = dataclasses.replace(b, missing_states=[(1, 1, 1)])
        with pytest.raises(ValueError, match="missing"):
            compare_realizations([a, b])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            compare_realizations(self.reports(1))


class TestCsvOutputs:
    def test_spectrum_csv(self, tmp_path):
        spec = spectrum(SeededRng(12).gen.normal(size=(6, 6)))
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spec)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "re,im"
        assert len(rows) == 7
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        got = np.sort(values[:, 0] + 1j * values[:, 1])
        want = np.sort(spec.eigenvalues)
        npt.assert_allclose(got, want, atol=1e-6)

    def test_projection_csv(self, tmp_path):
        projection, probe = synthetic_projection_and_probe(hold=10)
        path = tmp_path / "projection.csv"
        write_projection_csv(path, projection, probe)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "step,pc1,pc2,pc3,state_label"
        assert len(rows) == 81
        first = rows[1].split(",")
        assert first[0] == "0"
        assert int(first[4]) == state_label_int(probe.targets[0])

    def test_state_label_encoding(self):
        assert state_label_int(np.array([-1.0, -1.0, -1.0])) == 0
        assert state_label_int(np.array([1.0, 1.0, 1.0])) == 7
        assert state_label_int(np.array([1.0, -1.0, 1.0])) == 5
        assert state_label_int(np.array([0.0, 1.0, 1.0])) == -1

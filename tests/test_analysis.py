import csv
import dataclasses
import json
import math
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ffrnn.analysis import (
    CubeReport,
    ProjectionResult,
    _hold_mask,
    collect_and_project,
    compare_realizations,
    memory_states,
    procrustes_align,
    spectrum,
    write_connectivity_csv,
    write_projection_csv,
    write_spectrum_csv,
)
from ffrnn.linalg import SeededRng, orthogonal_init
from ffrnn.model import ModelConfig, RnnParams, init_params
from ffrnn.task import PROBE_HOLD_MIN, TaskConfig, Trial, generate_probe, state_codes
from ffrnn.tensorio import dump_json
from oracles import hold_mask_oracle, memory_states_oracle, state_label_int


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
    projection = ProjectionResult(points=points, labels=state_codes(targets),
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
        # the first step at which every channel holds a committed +-1 value
        assert result.start_step == np.argmax(np.all(np.abs(probe.targets) == 1, axis=1))
        assert len(result.points) == 600 - result.start_step
        assert result.labels.tolist() == [state_label_int(row)
                                          for row in probe.targets[result.start_step:]]

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


# targets with committed, uncommitted and invalid entries, in runs of one row
# so that holds, and changes between two uncommitted rows, both occur
TARGET_ROWS = hnp.arrays(np.float64, 3, elements=st.sampled_from(
    [-1.0, 0.0, 1.0, 0.5, -2.0, np.nan]))
TARGETS = st.lists(st.tuples(TARGET_ROWS, st.integers(1, 12)), max_size=12).map(
    lambda runs: np.array([row for row, n in runs for _ in range(n)]).reshape(-1, 3))


class TestStateCodes:
    @settings(max_examples=300, deadline=None)
    @given(targets=TARGETS)
    def test_codes_match_row_by_row(self, targets):
        codes = state_codes(targets)
        assert codes.shape == targets.shape[:1]
        assert codes.tolist() == [state_label_int(row) for row in targets]

    @settings(max_examples=300, deadline=None)
    @given(targets=TARGETS, margin=st.one_of(st.integers(0, 40), st.just(10 ** 20)))
    def test_hold_mask_from_codes_matches_targets(self, targets, margin):
        # codes miss a change between two uncommitted rows; the mask does not
        npt.assert_array_equal(_hold_mask(state_codes(targets), margin),
                               hold_mask_oracle(targets, 0, margin))


class TestMemoryStatesOracle:
    """``memory_states`` against the step-by-step grouping, bit for bit."""

    @staticmethod
    def assert_same(projection, probe, margin):
        got = memory_states(projection, probe, hold_margin=margin)
        want = memory_states_oracle(projection, probe, margin)
        assert got.state_labels == want.state_labels
        assert got.missing_states == want.missing_states
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert dump_json(got.to_dict()) == dump_json(want.to_dict())
        return got

    @pytest.mark.parametrize("seed", [600, 601, 602])
    @pytest.mark.parametrize("margin", [0, 10, PROBE_HOLD_MIN, 200])
    def test_untrained_networks_on_the_probe(self, seed, margin):
        cfg = ModelConfig(n_units=128)
        probe = generate_probe(TaskConfig())
        projection = collect_and_project(init_params(cfg, SeededRng(seed)), cfg, probe)
        report = self.assert_same(projection, probe, margin)
        assert report.complete == (margin <= PROBE_HOLD_MIN)

    @pytest.mark.parametrize("erase, missing", [
        ([], 0), ([(0, 1)], 4), ([(0, 1), (2, -1)], 6), ([(1, 1), (1, -1)], 8)])
    def test_hand_made_probes_with_missing_states(self, erase, missing):
        projection, probe = synthetic_projection_and_probe(jitter=0.1, hold=12)
        for channel, sign in erase:   # uncommit every row with that sign
            probe.targets[probe.targets[:, channel] == sign] = 0
        report = self.assert_same(projection, probe, 3)
        assert len(report.missing_states) == missing

    @settings(max_examples=100, deadline=None)
    @given(targets=TARGETS, margin=st.integers(0, 15))
    def test_drawn_targets(self, targets, margin):
        assume(len(targets))
        probe = Trial(inputs=np.zeros(targets.shape), targets=targets, config=TaskConfig())
        prefix = int(np.argmax(state_codes(targets) >= 0))
        points = SeededRng(len(targets)).gen.normal(size=(len(targets) - prefix, 3))
        projection = ProjectionResult(points=points, labels=state_codes(targets)[prefix:],
                                      explained_variance_ratio=np.ones(3) / 3,
                                      components=np.eye(3), start_step=prefix)
        self.assert_same(projection, probe, margin)


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
        write_projection_csv(path, projection)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "step,pc1,pc2,pc3,state_label"
        assert len(rows) == 81
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(80))
        assert [int(r.split(",")[4]) for r in rows[1:]] == [
            state_label_int(row) for row in probe.targets]

    def test_state_label_encoding(self):
        # channel 0 is the most significant bit; -1 where a channel is uncommitted
        rows = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                         [0.0, 1.0, 1.0]])
        assert state_codes(rows).tolist() == [0, 7, 5, -1]

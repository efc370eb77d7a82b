import numpy as np
import numpy.testing as npt
import pytest

from ffrnn.linalg import (
    SeededRng,
    eigenvalues,
    orthogonal_init,
    pca_top_k,
)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(123).gen.normal(size=100)
        b = SeededRng(123).gen.normal(size=100)
        npt.assert_array_equal(a, b)

    def test_derived_streams_differ(self):
        root = SeededRng(5)
        assert root.derive("init").seed != root.derive("data").seed
        assert root.derive("a").seed != SeededRng(6).derive("a").seed

    def test_derivation_is_stable(self):
        # derived seeds must not depend on parent draw position
        r1 = SeededRng(9)
        r1.gen.normal(size=10)
        r2 = SeededRng(9)
        assert r1.derive("x").seed == r2.derive("x").seed


class TestOrthogonalInit:
    def test_one_by_one(self):
        q = orthogonal_init(SeededRng(4), 1)
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [5, 50, 400])
    def test_orthonormal(self, n):
        q = orthogonal_init(SeededRng(n), n)
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10

    def test_spectrum_on_unit_circle(self):
        q = orthogonal_init(SeededRng(6), 50)
        radii = np.abs(eigenvalues(q))
        assert np.all(radii >= 1 - 1e-8)
        assert np.all(radii <= 1 + 1e-8)

    def test_unit_determinant(self):
        for seed in range(5):
            q = orthogonal_init(SeededRng(seed), 20)
            assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8

    def test_not_degenerate_across_seeds(self):
        a = orthogonal_init(SeededRng(7), 8)
        b = orthogonal_init(SeededRng(8), 8)
        assert np.max(np.abs(a - b)) > 1e-3


class TestEigenvalues:
    def test_identity(self):
        vals = eigenvalues(np.eye(6))
        npt.assert_allclose(sorted(vals.real), np.ones(6))
        npt.assert_allclose(vals.imag, np.zeros(6), atol=1e-15)

    def test_rotation_pair(self):
        th = np.pi / 3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        vals = sorted(eigenvalues(rot), key=lambda v: v.imag)
        npt.assert_allclose(vals[0], 0.5 - 0.8660254037844386j, atol=1e-10)
        npt.assert_allclose(vals[1], 0.5 + 0.8660254037844386j, atol=1e-10)

    def test_trace_and_determinant_invariants(self):
        rng = SeededRng(11)
        for _ in range(20):
            n = int(rng.gen.integers(2, 7))
            m = rng.gen.normal(size=(n, n))
            vals = eigenvalues(m)
            npt.assert_allclose(vals.sum().real, np.trace(m), rtol=1e-8, atol=1e-10)
            npt.assert_allclose(np.prod(vals).real, np.linalg.det(m), rtol=1e-8)

    def test_conjugate_closure(self):
        rng = SeededRng(12)
        for _ in range(10):
            vals = eigenvalues(rng.gen.normal(size=(8, 8)))
            for v in vals:
                if abs(v.imag) > 0:
                    assert np.min(np.abs(vals - v.conjugate())) <= 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues(np.zeros((3, 4)))

    def test_non_finite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(m)


class TestPcaTopK:
    def test_collinear_data(self):
        rng = SeededRng(13)
        t = rng.gen.normal(size=(50, 1))
        direction = np.array([[1.0, 2.0, -1.0, 0.5]])
        data = t @ direction
        _, _, ratios = pca_top_k(data, 3)
        assert abs(ratios[0] - 1.0) <= 1e-10
        assert np.all(ratios[1:] <= 1e-10)

    def test_embedded_cube_is_rank_three(self):
        # 8 cube vertices mapped into 40 dims by an orthogonal matrix
        vertices = np.array([[sx, sy, sz] for sx in (-1, 1)
                             for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
        basis = orthogonal_init(SeededRng(14), 40)[:, :3]
        data = vertices @ basis.T
        _, _, ratios = pca_top_k(data, 3)
        assert abs(ratios.sum() - 1.0) <= 1e-8

    def test_components_orthonormal(self):
        data = SeededRng(15).gen.normal(size=(30, 12))
        comps, _, _ = pca_top_k(data, 4)
        assert np.max(np.abs(comps @ comps.T - np.eye(4))) <= 1e-10

    def test_ratios_sorted_and_bounded(self):
        data = SeededRng(16).gen.normal(size=(40, 6))
        _, _, ratios = pca_top_k(data, 6)
        assert np.all(np.diff(ratios) <= 1e-12)
        assert np.all((ratios >= 0) & (ratios <= 1))

    def test_projection_idempotent(self):
        data = SeededRng(17).gen.normal(size=(25, 9))
        comps, projected, _ = pca_top_k(data, 3)
        again = (projected @ comps) @ comps.T
        assert np.max(np.abs(again - projected)) <= 1e-10

    def test_zero_variance_data(self):
        data = np.ones((10, 5))
        comps, projected, ratios = pca_top_k(data, 2)
        npt.assert_array_equal(ratios, 0.0)
        assert np.max(np.abs(comps @ comps.T - np.eye(2))) <= 1e-10
        npt.assert_allclose(projected, 0.0, atol=1e-12)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            pca_top_k(np.zeros((5, 3)), 4)
        with pytest.raises(ValueError):
            pca_top_k(np.zeros((1, 3)), 1)

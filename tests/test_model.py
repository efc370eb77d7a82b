import json

import numpy as np
import numpy.testing as npt
import pytest

from ffrnn.linalg import SeededRng, eigenvalues
from ffrnn.model import (
    ModelConfig,
    RnnParams,
    batch_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from reference import forward_steps


def small_params(n_units=6, n_in=3, n_out=3, seed=0):
    cfg = ModelConfig(n_units=n_units, n_in=n_in, n_out=n_out)
    return init_params(cfg, SeededRng(seed)), cfg


class TestInitParams:
    def test_shapes_and_zero_biases(self):
        params, cfg = small_params(10)
        assert params.w_in.shape == (10, 3)
        assert params.w_rec.shape == (10, 10)
        assert params.w_out.shape == (3, 10)
        npt.assert_array_equal(params.b_rec, 0.0)
        npt.assert_array_equal(params.b_out, 0.0)

    def test_recurrent_matrix_orthogonal(self):
        cfg = ModelConfig(n_units=400)
        params = init_params(cfg, SeededRng(1))
        err = np.max(np.abs(params.w_rec.T @ params.w_rec - np.eye(400)))
        assert err <= 1e-10

    def test_recurrent_spectrum_on_unit_circle(self):
        cfg = ModelConfig(n_units=50)
        params = init_params(cfg, SeededRng(2))
        radii = np.abs(eigenvalues(params.w_rec))
        assert np.max(np.abs(radii - 1.0)) <= 1e-8

    def test_deterministic(self):
        a = init_params(ModelConfig(n_units=12), SeededRng(3))
        b = init_params(ModelConfig(n_units=12), SeededRng(3))
        for k, v in a.as_dict().items():
            npt.assert_array_equal(v, b.as_dict()[k])

    def test_input_weight_scale(self):
        cfg = ModelConfig(n_units=300, n_in=3)
        params = init_params(cfg, SeededRng(4))
        # Glorot variance 2 / (fan_in + fan_out); 900 entries each, so the
        # sample std is within 10% of the target with a wide margin
        glorot = np.sqrt(2 / (3 + 300))
        assert abs(params.w_in.std() / glorot - 1) < 0.1
        assert abs(params.w_out.std() / glorot - 1) < 0.1


class TestStep:
    """The model equation h(t+1) = (1 - alpha) h(t) + alpha tanh(a(t)),
    through ``batch_forward`` from h = 0."""

    def test_origin_is_fixed_point(self):
        params, cfg = small_params()
        h, _ = batch_forward(params, cfg, np.zeros((1, 5, 3)))
        npt.assert_array_equal(h, 0.0)

    def test_scalar_closed_form(self):
        cfg = ModelConfig(n_units=1, n_in=1, n_out=1)
        params = RnnParams(w_in=np.array([[1.0]]), w_rec=np.array([[0.0]]),
                           w_out=np.array([[1.0]]), b_rec=np.zeros(1),
                           b_out=np.zeros(1))
        h, _ = batch_forward(params, cfg, np.array([[[0.5]]]))
        npt.assert_allclose(h[0, 0], [np.tanh(0.5)], rtol=1e-12)
        assert abs(h[0, 0, 0] - 0.462117) < 1e-6

    def test_leak_only_euler_step(self):
        # h1 = 0.5 tanh(0.5), then h2 = 0.5 h1 + 0.5 tanh(0)
        cfg = ModelConfig(n_units=1, n_in=1, n_out=1, dt=0.5, tau=1.0)
        params = RnnParams(w_in=np.ones((1, 1)), w_rec=np.zeros((1, 1)),
                           w_out=np.ones((1, 1)), b_rec=np.zeros(1),
                           b_out=np.zeros(1))
        h, _ = batch_forward(params, cfg, np.array([[[0.5], [0.0]]]))
        npt.assert_allclose(h[0, :, 0], [0.5 * np.tanh(0.5), 0.25 * np.tanh(0.5)],
                            rtol=1e-15)

    def test_state_stays_bounded(self):
        params, cfg = small_params(seed=7)
        h, _ = batch_forward(params, cfg, SeededRng(8).gen.uniform(-2, 2, (1, 200, 3)))
        assert np.all(np.abs(h) < 1.0)


class TestForward:
    def test_empty_sequence(self):
        params, cfg = small_params()
        h, z = batch_forward(params, cfg, np.zeros((1, 0, 3)))
        assert h.shape == (1, 0, 6)
        assert z.shape == (1, 0, 3)

    def test_zero_inputs_zero_trace(self):
        params, cfg = small_params()
        h, z = batch_forward(params, cfg, np.zeros((1, 20, 3)))
        npt.assert_array_equal(h, 0.0)
        npt.assert_array_equal(z, 0.0)

    def test_readout_definition(self):
        params, cfg = small_params(seed=9)
        inputs = SeededRng(10).gen.normal(size=(15, 3))
        h, z = batch_forward(params, cfg, inputs[None])
        for t in range(15):
            npt.assert_allclose(z[0, t], params.w_out @ h[0, t], atol=1e-12)

    def test_matches_step_sequence(self):
        params, cfg = small_params(seed=11)
        inputs = SeededRng(12).gen.normal(size=(1, 10, 3))
        h, _ = batch_forward(params, cfg, inputs)
        states, _ = forward_steps(**params.as_dict(), alpha=cfg.alpha, x=inputs,
                                  keep_states=True)
        npt.assert_allclose(h, states, atol=1e-12)

    def test_readout_linear_in_state(self):
        params, cfg = small_params(seed=13)
        rng = SeededRng(14)
        ha, hb = rng.gen.normal(size=6), rng.gen.normal(size=6)
        za = params.w_out @ ha
        zb = params.w_out @ hb
        npt.assert_allclose(params.w_out @ (ha + hb), za + zb, atol=1e-12)


class TestBatchForward:
    def test_leaky_step_matches_step(self):
        cfg = ModelConfig(n_units=6, dt=0.5, tau=1.0)
        params = init_params(cfg, SeededRng(24))
        x = SeededRng(25).gen.normal(size=(3, 9, 3))
        h, z = batch_forward(params, cfg, x)
        states, readouts = forward_steps(**params.as_dict(), alpha=cfg.alpha, x=x,
                                         keep_states=True)
        npt.assert_allclose(h, states, rtol=0, atol=1e-12)
        npt.assert_allclose(z, readouts, atol=1e-12)

    def test_batch_of_one_matches_forward(self):
        # a trial's forward pass alone equals its row in a larger batch
        params, cfg = small_params(seed=15)
        x = SeededRng(16).gen.normal(size=(4, 12, 3))
        h, z = batch_forward(params, cfg, x)
        h1, z1 = batch_forward(params, cfg, x[2:3])
        npt.assert_allclose(h1[0], h[2], rtol=0, atol=1e-12)
        npt.assert_allclose(z1[0], z[2], rtol=0, atol=1e-12)

    def test_batch_permutation_equivariance(self):
        params, cfg = small_params(seed=17)
        x = SeededRng(18).gen.normal(size=(5, 9, 3))
        perm = np.array([3, 0, 4, 1, 2])
        h1, z1 = batch_forward(params, cfg, x)
        h2, z2 = batch_forward(params, cfg, x[perm])
        npt.assert_array_equal(h1[perm], h2)
        npt.assert_array_equal(z1[perm], z2)

    def test_identical_inputs_identical_outputs(self):
        params, cfg = small_params(seed=19)
        one = SeededRng(20).gen.normal(size=(8, 3))
        x = np.broadcast_to(one, (128, 8, 3)).copy()
        _, z = batch_forward(params, cfg, x)
        for b in range(1, 128):
            npt.assert_array_equal(z[b], z[0])

    def test_z_owns_its_memory(self):
        # h is a view of the forward buffer; z must not be, or keeping z
        # alone would keep the whole buffer alive
        params, cfg = small_params(seed=27)
        h, z = batch_forward(params, cfg, SeededRng(28).gen.normal(size=(4, 9, 3)))
        assert not np.shares_memory(h, z)
        # h and z slots interleave in the buffer without overlapping, so
        # check z against the whole buffer h views
        assert h.base is not None and not np.shares_memory(h.base, z)

    def test_bad_shapes_rejected(self):
        params, cfg = small_params()
        with pytest.raises(ValueError):
            batch_forward(params, cfg, np.zeros((2, 5, 4)))
        with pytest.raises(ValueError):
            batch_forward(params, cfg, np.zeros((5, 4)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params, cfg = small_params(seed=21)
        save_checkpoint(tmp_path, params, cfg, {"note": "test"})
        loaded, cfg2, manifest = load_checkpoint(tmp_path)
        assert cfg2 == cfg
        assert manifest["note"] == "test"
        for k, v in params.as_dict().items():
            npt.assert_allclose(loaded.as_dict()[k], v, rtol=1e-6, atol=1e-7)

    def test_bias_round_trip(self, tmp_path):
        cfg = ModelConfig(n_units=4, use_bias=True)
        params = init_params(cfg, SeededRng(22))
        params.b_rec = SeededRng(23).gen.normal(size=4)
        paths = save_checkpoint(tmp_path, params, cfg)
        loaded, _, _ = load_checkpoint(tmp_path)
        npt.assert_allclose(loaded.b_rec, params.b_rec, rtol=1e-6)
        assert paths == [str(tmp_path / f"{k}.rnt") for k in
                         ("w_in", "w_rec", "w_out", "b_rec", "b_out")]

    def test_written_tensors_listed(self, tmp_path):
        params, cfg = small_params(seed=24)
        paths = save_checkpoint(tmp_path, params, cfg)
        assert paths == [str(tmp_path / f"{k}.rnt") for k in ("w_in", "w_rec", "w_out")]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "w_in.rnt", "w_out.rnt", "w_rec.rnt"]

    @pytest.mark.parametrize("name", ["w_in", "w_rec", "w_out", "b_out"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -3.5e38])
    def test_value_beyond_float32_refused_before_writing(self, tmp_path, name, value):
        cfg = ModelConfig(n_units=4, use_bias=True)
        params = init_params(cfg, SeededRng(25))
        getattr(params, name).flat[-1] = value
        with pytest.raises(FloatingPointError, match=name):
            save_checkpoint(tmp_path / "ckpt", params, cfg)
        assert not (tmp_path / "ckpt").exists()

    def test_largest_float32_values_kept(self, tmp_path):
        # 3.4028235e38 and values that round to it stay finite in float32
        params, cfg = small_params(seed=25)
        params.w_rec[0, :2] = 3.4028235e38, -3.40282356e38
        save_checkpoint(tmp_path, params, cfg)
        w_rec = load_checkpoint(tmp_path)[0].w_rec
        assert w_rec[0, :2].tolist() == [3.4028234663852886e38, -3.4028234663852886e38]

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(n_units=0)
        with pytest.raises(ValueError):
            ModelConfig(n_units=4, dt=2.0, tau=1.0)
        for bad in ({"tau": np.nan}, {"dt": np.nan}, {"tau": np.inf}):
            with pytest.raises(ValueError, match="finite"):
                ModelConfig(n_units=4, **bad)

    def test_manifest_activation_key(self, tmp_path):
        # manifests written while ModelConfig had an activation field carry
        # "activation": "tanh"; it is dropped, and any other value rejected
        params, cfg = small_params(seed=26)
        save_checkpoint(tmp_path, params, cfg)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert "activation" not in manifest["model"]
        manifest["model"]["activation"] = "tanh"
        path.write_text(json.dumps(manifest))
        assert load_checkpoint(tmp_path)[1] == cfg
        manifest["model"]["activation"] = "relu"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="relu"):
            load_checkpoint(tmp_path)

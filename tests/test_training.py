import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrnn import training
from ffrnn.linalg import SeededRng
from ffrnn.model import ModelConfig, RnnParams, batch_forward, init_params
from ffrnn.task import (Dataset, TaskConfig, Trial, _clean_hold_mask, _events_of,
                        generate_dataset, generate_trial, trial_rng)
from ffrnn.training import (
    BETA1,
    BETA2,
    EPS_HAT,
    AdamState,
    DivergenceError,
    TrainConfig,
    _BLOCK_STEPS,
    _CHUNK_TRIALS,
    _EVAL_TRIALS,
    adam_update,
    bptt_gradients,
    bptt_workspace,
    clip_gradients,
    evaluate,
    init_adam_state,
    loss,
    run_gradcheck,
    train,
)
from oracles import bptt_oracle, clean_hold_oracle, split_events, step

NO_EVENTS = np.zeros((4, 0), dtype=np.int64)


def naive_mean_squared(z, target):
    total, count = 0.0, 0
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            total += (z[i, j] - target[i, j]) ** 2
            count += 1
    return total / count


def assert_matches_oracle(params, cfg, x, y):
    """bptt_gradients against bptt_oracle: the loss to rtol 1e-12, and each
    gradient to within 1e-12 of its largest entry."""
    grads, batch_loss = bptt_gradients(params, cfg, x, y)
    expected, expected_loss = bptt_oracle(params, cfg, x, y)
    npt.assert_allclose(batch_loss, expected_loss, rtol=1e-12)
    for key, g in grads.as_dict().items():
        scale = max(np.max(np.abs(expected[key])), 1e-300)
        assert np.max(np.abs(g - expected[key])) <= 1e-12 * scale, key


class TestLoss:
    def test_perfect_fit(self):
        z = SeededRng(1).gen.normal(size=(6, 3))
        assert loss(z, z) == 0.0

    def test_single_entry(self):
        # mean form gives 4.0; the half-sum form would give 2.0
        assert loss(np.array([[2.0]]), np.array([[0.0]])) == 4.0

    def test_matches_naive_oracle(self):
        rng = SeededRng(2)
        z = rng.gen.normal(size=(11, 5))
        t = rng.gen.normal(size=(11, 5))
        npt.assert_allclose(loss(z, t), naive_mean_squared(z, t), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestBpttGradients:
    def test_zero_at_minimum(self):
        cfg = ModelConfig(n_units=5)
        params = init_params(cfg, SeededRng(3))
        x = SeededRng(4).gen.normal(size=(2, 8, 3))
        _, z = batch_forward(params, cfg, x)
        grads, batch_loss = bptt_gradients(params, cfg, x, z)
        assert batch_loss == 0.0
        for g in grads.as_dict().values():
            npt.assert_allclose(g, 0.0, atol=1e-15)

    def test_one_step_readout_closed_form(self):
        cfg = ModelConfig(n_units=4)
        params = init_params(cfg, SeededRng(5))
        x = SeededRng(6).gen.normal(size=(1, 1, 3))
        y = SeededRng(7).gen.normal(size=(1, 1, 3))
        h, z = batch_forward(params, cfg, x)
        grads, _ = bptt_gradients(params, cfg, x, y)
        err = z[0, 0] - y[0, 0]
        expected = (2.0 / err.size) * np.outer(err, h[0, 0])
        npt.assert_allclose(grads.w_out, expected, rtol=1e-12)

    def test_matches_finite_differences(self):
        report = run_gradcheck(n_units=8, t_steps=10, trials=4, batch=2, seed=8)
        assert report.passed, f"max rel err {report.max_rel_err:.3e}"

    def test_leaky_step_matches_finite_differences(self):
        # odd trials of the gradcheck use dt = 0.5 < tau
        report = run_gradcheck(n_units=6, t_steps=7, trials=2, batch=2, seed=9)
        assert report.passed

    def test_injected_sign_flip_detected(self, monkeypatch):
        def broken(params, config, bx, by):
            grads, batch_loss = bptt_gradients(params, config, bx, by)
            grads.w_rec = -grads.w_rec
            return grads, batch_loss

        monkeypatch.setattr(training, "bptt_gradients", broken)
        report = run_gradcheck(n_units=6, t_steps=6, trials=2, batch=1, seed=10)
        assert not report.passed

    def test_scale_relation_to_half_sum_loss(self):
        # gradients of the mean loss = (2 / (t_steps * n_out)) x gradients
        # of the half-sum-of-squares loss, checked by finite differences
        cfg = ModelConfig(n_units=5)
        params = init_params(cfg, SeededRng(11))
        x = SeededRng(12).gen.normal(size=(1, 6, 3))
        y = SeededRng(13).gen.normal(size=(1, 6, 3))
        grads, _ = bptt_gradients(params, cfg, x, y)

        def half_sum_loss(p):
            _, z = batch_forward(p, cfg, x)
            return 0.5 * float(np.sum((z - y) ** 2))

        eps, scale = 1e-6, 2.0 / (6 * 3)
        flat = params.w_rec.reshape(-1)
        g_flat = grads.w_rec.reshape(-1)
        for j in range(0, flat.size, 7):
            orig = flat[j]
            flat[j] = orig + eps
            hi = half_sum_loss(params)
            flat[j] = orig - eps
            lo = half_sum_loss(params)
            flat[j] = orig
            fd = (hi - lo) / (2 * eps)
            npt.assert_allclose(g_flat[j], scale * fd, rtol=1e-4, atol=1e-10)

    def test_non_finite_input_reported(self):
        cfg = ModelConfig(n_units=3)
        params = init_params(cfg, SeededRng(14))
        params.w_rec[0, 0] = np.nan
        x = np.zeros((1, 4, 3))
        x[0, 0, 0] = 1.0
        with pytest.raises(DivergenceError, match="step"):
            bptt_gradients(params, cfg, x, np.zeros((1, 4, 3)))

    def test_non_finite_target_reported(self):
        # every activation is finite, so the loss is what the error names
        cfg = ModelConfig(n_units=3)
        params = init_params(cfg, SeededRng(14))
        y = np.zeros((2, 4, 3))
        y[1, 3, 2] = np.inf
        with pytest.raises(DivergenceError, match="^non-finite loss$"):
            bptt_gradients(params, cfg, np.zeros((2, 4, 3)), y)

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_matches_per_step_oracle(self, dt, use_bias):
        cfg = ModelConfig(n_units=7, dt=dt, use_bias=use_bias)
        rng = SeededRng(40)
        params = init_params(cfg, rng)
        params.b_rec = rng.gen.normal(0, 0.1, 7)
        params.b_out = rng.gen.normal(0, 0.1, 3)
        x = rng.gen.normal(size=(3, 11, 3))
        y = rng.gen.uniform(-1, 1, (3, 11, 3))
        assert_matches_oracle(params, cfg, x, y)

    # lengths below, at and past one and several blocks of the backward sweep
    @pytest.mark.parametrize("t_steps", [1, _BLOCK_STEPS - 1, _BLOCK_STEPS,
                                         _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 1,
                                         3 * _BLOCK_STEPS + 1])
    @pytest.mark.parametrize("dt", [1.0, 0.5, 0.01])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_matches_oracle_across_blocks(self, t_steps, dt, use_bias):
        cfg = ModelConfig(n_units=5, dt=dt, use_bias=use_bias)
        rng = SeededRng(49)
        params = init_params(cfg, rng)
        params.b_rec = rng.gen.normal(0, 0.1, 5)
        params.b_out = rng.gen.normal(0, 0.1, 3)
        x = rng.gen.normal(size=(2, t_steps, 3))
        y = rng.gen.uniform(-1, 1, (2, t_steps, 3))
        assert_matches_oracle(params, cfg, x, y)

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_divergence_across_blocks(self, dt):
        # the sweep sums the loss newest block first; a bad step in an older
        # block is still named, and a bad target there still raises
        cfg = ModelConfig(n_units=4, dt=dt)
        params = init_params(cfg, SeededRng(50))
        t_steps = 3 * _BLOCK_STEPS + 5
        x = SeededRng(51).gen.normal(size=(2, t_steps, 3))
        y = np.zeros((2, t_steps, 3))
        y[0, 3, 1] = np.inf
        with pytest.raises(DivergenceError, match="^non-finite loss$"):
            bptt_gradients(params, cfg, x, y)
        x[1, _BLOCK_STEPS + 7, 2] = np.nan
        with pytest.raises(DivergenceError, match=f"at step {_BLOCK_STEPS + 7}$"):
            bptt_gradients(params, cfg, x, np.zeros_like(y))

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_divergence_names_first_bad_step(self, dt):
        cfg = ModelConfig(n_units=4, dt=dt)
        params = init_params(cfg, SeededRng(41))
        x = SeededRng(42).gen.normal(size=(2, 6, 3))
        x[1, 2, 0] = np.nan
        with pytest.raises(DivergenceError, match=r"at step 2$"):
            bptt_gradients(params, cfg, x, np.zeros((2, 6, 3)))

    def test_peak_memory_bounded(self):
        # without a workspace a call allocates the time-major [z; h; x; 1]
        # history, about 1.1 [batch, t, n] arrays at 64 units, the
        # (_BLOCK_STEPS + 3)-row [err; d] ring, the weight-gradient
        # products and a few small ones
        cfg = ModelConfig(n_units=64)
        params = init_params(cfg, SeededRng(43))
        rng = SeededRng(44)
        x = rng.gen.normal(size=(32, 200, 3))
        y = rng.gen.uniform(-1, 1, (32, 200, 3))
        bptt_gradients(params, cfg, x, y)
        tracemalloc.start()
        try:
            bptt_gradients(params, cfg, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        trajectory = 32 * 200 * 64 * 8
        assert peak <= 1.5 * trajectory, f"peak {peak / trajectory:.2f} trajectories"

    @pytest.mark.parametrize("n_units", [64, 128])
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_workspace_peak_memory(self, dt, n_units):
        # with a workspace a call allocates only the step matrices, one
        # block's squared errors, numpy's buffers for the block's strided
        # slabs and the gradients, at dt = tau and at dt < tau alike; the
        # weight-gradient products, 8 [n, n] matrices, would not fit at 128
        # units
        cfg = ModelConfig(n_units=n_units, dt=dt)
        params = init_params(cfg, SeededRng(45))
        rng = SeededRng(46)
        x = rng.gen.normal(size=(32, 200, 3))
        y = rng.gen.uniform(-1, 1, (32, 200, 3))
        work = bptt_workspace(cfg, 200, 32)
        bptt_gradients(params, cfg, x, y, work=work)
        tracemalloc.start()
        try:
            bptt_gradients(params, cfg, x, y, work=work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        states = 201 * 32 * n_units * 8
        assert peak <= 0.1 * states, f"peak {peak / states:.3f} state arrays"

    def test_empty_batch_rejected(self):
        cfg = ModelConfig(n_units=4)
        params = init_params(cfg, SeededRng(48))
        with pytest.raises(ValueError, match="empty batch"):
            bptt_gradients(params, cfg, np.zeros((0, 5, 3)), np.zeros((0, 5, 3)))

    def test_workspace_too_small_rejected(self):
        cfg = ModelConfig(n_units=4)
        params = init_params(cfg, SeededRng(47))
        x = np.zeros((3, 5, 3))
        with pytest.raises(ValueError, match="workspace"):
            bptt_gradients(params, cfg, x, x, work=bptt_workspace(cfg, 5, 2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), t_steps=st.integers(1, 2 * _BLOCK_STEPS + 6),
       batch=st.integers(1, 5), spare=st.integers(0, 3),
       dt=st.sampled_from([1.0, 0.5]),
       use_bias=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_workspace_matches_fresh_buffers(n, t_steps, batch, spare, dt, use_bias,
                                         seed):
    cfg = ModelConfig(n_units=n, dt=dt, use_bias=use_bias)
    rng = SeededRng(seed)
    params = init_params(cfg, rng)
    params.b_rec = rng.gen.normal(0, 0.1, n)
    params.b_out = rng.gen.normal(0, 0.1, 3)
    x = rng.gen.normal(size=(batch, t_steps, 3))
    y = rng.gen.uniform(-1, 1, (batch, t_steps, 3))
    # sized for a larger batch and filled with NaN: a call reads nothing it
    # did not write, and uses a prefix laid out as fresh buffers are
    work = bptt_workspace(cfg, t_steps, batch + spare)
    for buf in work:
        buf.fill(np.nan)
    expected, expected_loss = bptt_gradients(params, cfg, x, y)
    for _ in range(2):
        grads, batch_loss = bptt_gradients(params, cfg, x, y, work=work)
        assert batch_loss == expected_loss
        for key, g in grads.as_dict().items():
            npt.assert_array_equal(g, expected.as_dict()[key], err_msg=key)
    # batch_forward's h views a buffer of its own, never a shared one
    h, z = batch_forward(params, cfg, x)
    h_before, z_before = h.copy(), z.copy()
    batch_forward(params, cfg, y)
    npt.assert_array_equal(h, h_before)
    npt.assert_array_equal(z, z_before)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), t_steps=st.integers(1, 12), batch=st.integers(1, 5),
       dt=st.sampled_from([1.0, 0.5]), use_bias=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_gradients_and_readout_match_oracles(n, t_steps, batch, dt, use_bias, seed):
    cfg = ModelConfig(n_units=n, dt=dt, use_bias=use_bias)
    rng = SeededRng(seed)
    params = init_params(cfg, rng)
    params.b_rec = rng.gen.normal(0, 0.1, n)
    params.b_out = rng.gen.normal(0, 0.1, 3)
    x = rng.gen.normal(size=(batch, t_steps, 3))
    y = rng.gen.uniform(-1, 1, (batch, t_steps, 3))
    assert_matches_oracle(params, cfg, x, y)
    # the readout the forward GEMM computes, against step-by-step states
    _, z = batch_forward(params, cfg, x)
    for b in range(batch):
        h = np.zeros(n)
        zs = []
        for t in range(t_steps):
            h = step(params, cfg, h, x[b, t])
            zs.append(params.w_out @ h + params.b_out)
        assert np.max(np.abs(z[b] - zs)) <= 1e-12 * np.max(np.abs(zs))


@pytest.fixture
def small_chunks(monkeypatch):
    """bptt_gradients and evaluate cut every batch and dataset into chunks
    of 8 trials (fewer where the trials do not split evenly), run two at a
    time, whatever the BLAS thread count of the run and however few units
    the network has."""
    monkeypatch.setattr(training, "_CHUNK_WORKERS", 2)
    monkeypatch.setattr(training, "_MIN_CHUNK_STATES", 1)
    monkeypatch.setattr(training, "_CHUNK_TRIALS", 8)
    monkeypatch.setattr(training, "_EVAL_TRIALS", 8)


def run_python(code, **env):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ffrnn, with ``env`` added to the environment; returns its stdout."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(training.__file__)),
         env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


class SerialPool:
    """Runs each submitted worker at once, on the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def random_problem(n, batch, t_steps, dt=1.0, use_bias=True, seed=60):
    cfg = ModelConfig(n_units=n, dt=dt, use_bias=use_bias)
    rng = SeededRng(seed)
    params = init_params(cfg, rng)
    params.b_rec = rng.gen.normal(0, 0.1, n)
    params.b_out = rng.gen.normal(0, 0.1, 3)
    x = rng.gen.normal(size=(batch, t_steps, 3))
    y = rng.gen.uniform(-1, 1, (batch, t_steps, 3))
    return params, cfg, x, y


def assert_same_results(actual, expected):
    (grads, batch_loss), (grads_0, loss_0) = actual, expected
    assert batch_loss == loss_0
    for key, g in grads.as_dict().items():
        npt.assert_array_equal(g, grads_0.as_dict()[key], err_msg=key)


def divergence_message(params, cfg, x, y):
    with pytest.raises(DivergenceError) as info:
        bptt_gradients(params, cfg, x, y)
    return str(info.value)


class TestShardedBptt:
    @pytest.mark.parametrize("threads, expected", [
        ({}, 5), ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3", "OMP_NUM_THREADS": "4"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "x", "OMP_NUM_THREADS": "3"}, 3),
        ({"OMP_NUM_THREADS": "4,2"}, 5),
        ({"MKL_NUM_THREADS": "1"}, 5),   # OpenBLAS does not read it
    ])
    def test_blas_threads(self, monkeypatch, threads, expected):
        # the first of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to a
        # positive integer, else every usable core
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in threads.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(training, "_usable_cores", lambda: 5)
        assert training._blas_threads() == expected

    @pytest.mark.parametrize("trials, n, sizes", [
        pytest.param(128, 128, [64, 64], id="128@128"),
        pytest.param(108, 128, [54, 54], id="108@128"),
        pytest.param(116, 64, [58, 58], id="116@64"),
        pytest.param(500, 128, [63] * 4 + [62] * 4, id="500@128"),
        pytest.param(128, 32, [128], id="128@32"),   # 128 x 32 = 4096
        pytest.param(0, 128, [], id="no-trial"),
        pytest.param(128, 64, [64, 64], id="128@64"),
        pytest.param(256, 64, [64] * 4, id="256@64"),
        pytest.param(65, 128, [33, 32], id="65@128"),
        pytest.param(200, 128, [50] * 4, id="200@128"),
        pytest.param(100, 128, [50, 50], id="100@128"),
        pytest.param(96, 128, [48, 48], id="96@128"),
        pytest.param(127, 64, [64, 63], id="127@64"),
        pytest.param(2, 8192, [2], id="2@8192"),
    ])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_chunk_bounds(self, monkeypatch, trials, n, sizes, workers):
        # bptt's cuts: contiguous, near-equal and larger first, of at most
        # 64 trials or 4096 state entries per step, whichever is more
        # trials, whatever the worker count
        monkeypatch.setattr(training, "_CHUNK_WORKERS", workers)
        assert (training._CHUNK_TRIALS, training._MIN_CHUNK_STATES) == (64, 4096)
        edges = np.cumsum([0] + sizes).tolist()
        assert (training._chunk_bounds(trials, n, training._CHUNK_TRIALS)
                == list(zip(edges, edges[1:])))

    def test_more_blas_threads_than_cores_is_one_worker(self):
        # usable cores // threads per call is 0 here, and 0 workers would
        # run no chunk of a batch or of a dataset
        cores = len(os.sched_getaffinity(0))
        code = "from ffrnn import training\nprint(training._CHUNK_WORKERS)\n"
        assert run_python(code, OMP_NUM_THREADS=str(cores + 1),
                          OPENBLAS_NUM_THREADS=str(cores + 1)).split() == ["1"]

    def test_one_worker_runs_the_batch_whole(self, monkeypatch):
        # 1000 trials make 16 chunks at 128 units, but one worker would run
        # them one after another, which is slower than the whole batch
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 1)
        sizes, run_chunk = [], training._bptt_chunk

        def chunk(w, w_back, config, x, *args):
            sizes.append(len(x))
            return run_chunk(w, w_back, config, x, *args)

        monkeypatch.setattr(training, "_bptt_chunk", chunk)
        params, cfg, x, y = random_problem(128, 1000, 3)
        assert len(training._chunk_bounds(1000, 128, _CHUNK_TRIALS)) == 16
        bptt_gradients(params, cfg, x, y)
        assert sizes == [1000]

    @pytest.mark.parametrize("threads", ["1", ""])
    def test_pool_made_on_first_sharded_batch(self, threads):
        # importing the module starts no thread pool and loads no
        # concurrent.futures, even where batches will be cut into chunks
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["OMP_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(training.__file__)),
             env.get("PYTHONPATH", "")])
        code = ("import sys\n"
                "from ffrnn import training\n"
                "print(training._POOL, 'concurrent.futures' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["None", "False"]

    def test_pool_sized_for_the_workers(self, small_chunks, monkeypatch):
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 3)
        monkeypatch.setattr(training, "_POOL", None)
        params, cfg, x, y = random_problem(4, 9, 5)
        bptt_gradients(params, cfg, x, y)
        pool = training._POOL
        try:
            assert pool._max_workers == 2
            bptt_gradients(params, cfg, x, y)
            assert training._POOL is pool
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("batch", [65, 128, 129, 200])
    @pytest.mark.parametrize("dt", [1.0, 0.5, 0.01])
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_matches_oracle(self, small_chunks, batch, dt, use_bias):
        params, cfg, x, y = random_problem(5, batch, _BLOCK_STEPS + 5, dt, use_bias)
        bounds = training._chunk_bounds(batch, cfg.n_units, training._CHUNK_TRIALS)
        assert len(bounds) >= 9
        assert_matches_oracle(params, cfg, x, y)

    def test_concurrent_equals_serial(self, monkeypatch):
        # 4 chunks on 3 workers plus the caller, more threads than cores,
        # switching threads as often as the interpreter allows: the result
        # is the serial one bit for bit, every time
        params, cfg, x, y = random_problem(6, 200, 2 * _BLOCK_STEPS + 3, dt=0.5)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 4)
        monkeypatch.setattr(training, "_MIN_CHUNK_STATES", 1)
        monkeypatch.setattr(training, "_POOL", SerialPool())
        expected = bptt_gradients(params, cfg, x, y)
        pool = ThreadPoolExecutor(max_workers=3)
        monkeypatch.setattr(training, "_POOL", pool)
        results = []

        def stress():
            work = bptt_workspace(cfg, x.shape[1], 200)
            for _ in range(20):
                results.append(bptt_gradients(params, cfg, x, y, work=work))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=stress)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=not runner.is_alive())
        assert not runner.is_alive()
        assert len(results) == 20
        for result in results:
            assert_same_results(result, expected)

    @pytest.mark.parametrize("batch", [129, 130])
    def test_nan_workspace_matches_fresh_buffers(self, small_chunks, batch):
        params, cfg, x, y = random_problem(7, batch, _BLOCK_STEPS + 9, dt=0.5)
        work = bptt_workspace(cfg, x.shape[1], 130)
        for buf in work:
            buf.fill(np.nan)
        expected = bptt_gradients(params, cfg, x, y)
        for _ in range(2):
            assert_same_results(bptt_gradients(params, cfg, x, y, work=work), expected)

    @pytest.mark.parametrize("bad_steps, message", [
        ([(100, 40)], "non-finite activations at step 40"),
        ([(10, 50), (90, 20)], "non-finite activations at step 20"),
        ([(10, 20), (90, 50)], "non-finite activations at step 20"),
        ([], "non-finite loss"),
    ])
    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_divergence_matches_whole_batch(self, monkeypatch, bad_steps, message, dt):
        # bad inputs in the second chunk only or in both, or else a bad
        # target in the second chunk only: the message is that of the
        # batch run whole
        params, cfg, x, y = random_problem(4, 128, 2 * _BLOCK_STEPS + 3, dt=dt)
        monkeypatch.setattr(training, "_MIN_CHUNK_STATES", 1)
        for trial, t in bad_steps:
            x[trial, t, 1] = np.nan
        if not bad_steps:
            y[100, 5, 2] = np.inf
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 1)
        whole = divergence_message(params, cfg, x, y)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 2)
        assert divergence_message(params, cfg, x, y) == whole == message

    @pytest.mark.parametrize("bad_steps, message", [
        ([(10, 40)], "non-finite activations at step 40"),
        ([(10, 40), (70, 20)], "non-finite activations at step 20"),
        ([(10, 20), (70, 40), (150, 30)], "non-finite activations at step 20"),
    ])
    def test_divergence_before_the_workers_next_chunk(self, monkeypatch,
                                                      bad_steps, message):
        # three chunks on two workers: the calling thread runs chunks 0 and
        # 2, so chunk 2 overwrites the history where chunk 0 diverged, and
        # chunk 0 must name its step before that
        params, cfg, x, y = random_problem(4, 192, 2 * _BLOCK_STEPS + 3)
        monkeypatch.setattr(training, "_MIN_CHUNK_STATES", 1)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 2)
        assert len(training._chunk_bounds(192, cfg.n_units, _CHUNK_TRIALS)) == 3
        for trial, t in bad_steps:
            x[trial, t, 1] = np.nan
        assert divergence_message(params, cfg, x, y) == message

    def test_gradients_do_not_depend_on_the_workers(self, monkeypatch):
        # four 64-trial chunks at the default chunk rule, run by 2, 3 or 4
        # workers: the chunks and their sums are the same every time
        params, cfg, x, y = random_problem(64, 256, _BLOCK_STEPS + 8, dt=0.5)
        assert len(training._chunk_bounds(256, cfg.n_units, _CHUNK_TRIALS)) == 4
        results = []
        for workers in (2, 3, 4):
            monkeypatch.setattr(training, "_CHUNK_WORKERS", workers)
            monkeypatch.setattr(training, "_POOL", None)
            results.append(bptt_gradients(params, cfg, x, y))
            training._POOL.shutdown()
        assert_same_results(results[1], results[0])
        assert_same_results(results[2], results[0])

    def test_whole_batch_is_one_shard_call(self, monkeypatch):
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 1)
        params, cfg, x, y = random_problem(8, 128, _BLOCK_STEPS + 4, dt=0.5)
        grads, batch_loss = bptt_gradients(params, cfg, x, y)
        n = cfg.n_units
        # [features, trials] slabs: the history, the ring with its two rows
        # of [n, trials] scratch, and the weight-gradient products
        u = np.empty((x.shape[1] + 2, 3 + n + 3 + 1, 128))
        ring = np.empty((_BLOCK_STEPS + 3, 3 + n, 128))
        products = np.empty((training._GRAD_GROUP, 3 + n, n + 3 + 1))
        w_back = np.concatenate([(2.0 / y.size) * params.w_out, params.w_rec]).T.copy()
        g, squared = training._bptt_chunk(training._step_matrix(params), w_back,
                                          cfg, x, y, u, ring, products)
        assert batch_loss == squared / y.size
        npt.assert_array_equal(grads.w_rec, g[3:, :n])
        npt.assert_array_equal(grads.w_in, g[3:, n:-1])
        npt.assert_array_equal(grads.b_rec, g[3:, -1])
        npt.assert_array_equal(grads.w_out, g[:3, :n] * (2.0 / y.size))
        npt.assert_array_equal(grads.b_out, g[:3, -1] * (2.0 / y.size))

    @pytest.mark.parametrize("dt", [1.0, 0.01])
    def test_agrees_with_whole_batch_at_128_units(self, monkeypatch, dt):
        # the recipe's size: only the summation order of the weight-gradient
        # GEMMs and of the loss differs
        params, cfg, x, y = random_problem(128, 128, 300, dt=dt)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 1)
        whole, whole_loss = bptt_gradients(params, cfg, x, y)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 2)
        grads, batch_loss = bptt_gradients(params, cfg, x, y)
        npt.assert_allclose(batch_loss, whole_loss, rtol=1e-15)
        for key, g in grads.as_dict().items():
            scale = np.max(np.abs(whole.as_dict()[key]))
            assert np.max(np.abs(g - whole.as_dict()[key])) <= 1e-15 * scale, key


class TestAdamUpdate:
    def setup_method(self):
        self.lr = TrainConfig().learning_rate
        mcfg = ModelConfig(n_units=3)
        self.params = init_params(mcfg, SeededRng(15))

    def test_zero_gradient_is_noop(self):
        grads = self.params.map(lambda _, v: np.zeros_like(v))
        state = init_adam_state(self.params)
        new_params, new_state = adam_update(state, self.params, grads, self.lr)
        for k, v in self.params.as_dict().items():
            npt.assert_array_equal(new_params.as_dict()[k], v)
        assert new_state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        grads = self.params.map(lambda _, v: np.zeros_like(v))
        grads.w_rec = np.full_like(grads.w_rec, 0.25)  # |g| >> EPS_HAT
        state = init_adam_state(self.params)
        new_params, _ = adam_update(state, self.params, grads, self.lr)
        delta = new_params.w_rec - self.params.w_rec
        npt.assert_allclose(delta, -self.lr, rtol=1e-6)
        new_params, _ = adam_update(state, self.params, grads, 2e-4)
        npt.assert_allclose(new_params.w_rec - self.params.w_rec, -2e-4, rtol=1e-6)

    def test_two_identical_gradients_scalar_trace(self):
        # scalar oracle: replay the update equations by hand
        g = 0.3
        lr = self.lr
        m = v = 0.0
        steps = []
        theta = 1.0
        for t in range(1, 3):
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            m_hat = m / (1 - BETA1 ** t)
            v_hat = v / (1 - BETA2 ** t)
            stepped = lr * m_hat / (np.sqrt(v_hat) + EPS_HAT)
            steps.append(stepped)
            theta -= stepped

        params = self.params
        grads = params.map(lambda _, x: np.zeros_like(x))
        grads.w_rec = np.full_like(grads.w_rec, g)
        state = init_adam_state(params)
        p1, state = adam_update(state, params, grads, lr)
        p2, state = adam_update(state, p1, grads, lr)
        d1 = params.w_rec - p1.w_rec
        d2 = p1.w_rec - p2.w_rec
        npt.assert_allclose(d1, steps[0], rtol=1e-12)
        npt.assert_allclose(d2, steps[1], rtol=1e-12)
        assert np.all(np.abs(d2) <= np.abs(d1) * (1 + 1e-9))

    def test_clip_gradients(self):
        grads = self.params.map(lambda _, v: np.zeros_like(v))
        grads.w_rec = np.full_like(grads.w_rec, 10.0)
        clipped = clip_gradients(grads, 1.0)
        total = np.sqrt(sum(np.sum(g ** 2) for g in clipped.as_dict().values()))
        npt.assert_allclose(total, 1.0, rtol=1e-12)
        small = clip_gradients(grads, 1e9)
        npt.assert_array_equal(small.w_rec, grads.w_rec)
        # a negative norm would turn every gradient around
        with pytest.raises(ValueError):
            clip_gradients(grads, -0.5)


def tiny_dataset(samples=12, seed=31):
    cfg = TaskConfig(t_steps=60, delay_steps=5, pulse_width=4, min_gap=8,
                     max_gap=20, seed=seed)
    return generate_dataset(cfg, samples)


def hand_batches(cfg, n_train):
    """The sample indices of every update of ``train``, in order: each
    epoch's permutation, as ``train`` draws it, cut into batches."""
    for epoch in range(cfg.epochs):
        order = SeededRng(cfg.seed).derive(f"shuffle|{epoch}").gen.permutation(n_train)
        for lo in range(0, n_train, cfg.batch_size):
            yield epoch, order[lo:lo + cfg.batch_size]


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        ds = tiny_dataset()
        mcfg = ModelConfig(n_units=6)
        params = init_params(mcfg, SeededRng(16))
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.0, seed=17)
        trained, report = train(params, mcfg, ds, cfg)
        for k, v in params.as_dict().items():
            npt.assert_array_equal(trained.as_dict()[k], v)
        # each epoch groups the same 11 training trials into other batches,
        # so its mean of batch means rounds on its own; it stays a few ulp
        # from the exactly rounded mean of the untrained squared errors
        _, z = batch_forward(params, mcfg, ds.x[:11])
        squared = ((z - ds.y[:11]) ** 2).ravel()
        mean = math.fsum(squared) / squared.size
        for epoch_loss in report.loss_per_epoch:
            assert abs(epoch_loss - mean) <= 4 * math.ulp(mean), epoch_loss

    def test_zero_epochs(self):
        ds = tiny_dataset()
        mcfg = ModelConfig(n_units=6)
        params = init_params(mcfg, SeededRng(18))
        trained, report = train(params, mcfg, ds, TrainConfig(epochs=0, seed=19))
        for k, v in params.as_dict().items():
            npt.assert_array_equal(trained.as_dict()[k], v)
        assert report.loss_per_epoch == []

    def test_deterministic(self):
        ds = tiny_dataset()
        mcfg = ModelConfig(n_units=6)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=20)
        p1, r1 = train(init_params(mcfg, SeededRng(21)), mcfg, ds, cfg)
        p2, r2 = train(init_params(mcfg, SeededRng(21)), mcfg, ds, cfg)
        npt.assert_array_equal(p1.w_rec, p2.w_rec)
        assert r1.loss_per_epoch == r2.loss_per_epoch

    def test_divergence_keeps_last_good(self):
        tiny = tiny_dataset()
        # int8 targets hold no NaN: put it into a float copy of them
        ds = Dataset(tiny.x, tiny.y.astype(float), tiny.config, tiny.events)
        ds.y[:, 10, 0] = np.nan
        mcfg = ModelConfig(n_units=4)
        params = init_params(mcfg, SeededRng(22))
        with pytest.raises(DivergenceError, match="non-finite loss") as info:
            train(params, mcfg, ds, TrainConfig(epochs=1, batch_size=4, seed=23))
        assert info.value.epoch == 0
        assert info.value.params is not None
        npt.assert_array_equal(info.value.params.w_rec, params.w_rec)

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_divergence_keeps_only_measured_parameters(self, epochs):
        # a rate of 1e300 sends every weight near 1e300 in the first update:
        # the loss of those weights is measured only on the next epoch's
        # first batch or, after the last epoch, by the final evaluation
        ds = tiny_dataset()
        mcfg = ModelConfig(n_units=4)
        params = init_params(mcfg, SeededRng(22))
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore"):
            train(params, mcfg, ds,
                  TrainConfig(epochs=epochs, batch_size=16, learning_rate=1e300, seed=23))
        assert info.value.epoch == epochs - 1
        assert str(info.value).startswith("non-finite mse in the final evaluation"
                                          if epochs == 1 else "non-finite")
        for k, v in params.as_dict().items():
            npt.assert_array_equal(info.value.params.as_dict()[k], v)

    def test_divergence_keeps_the_last_measured_epoch(self):
        # the first batch of epoch 2 measures the parameters that ended
        # epoch 1; those of epoch 2's end are measured by no one
        tiny = tiny_dataset()
        ds = Dataset(tiny.x, tiny.y.astype(float), tiny.config, tiny.events)
        mcfg = ModelConfig(n_units=4)
        params = init_params(mcfg, SeededRng(22))
        cfg = TrainConfig(epochs=3, batch_size=16, seed=23)
        ends = []
        train(params, mcfg, ds, cfg, epoch_hook=lambda e, p, l: ends.append(p))
        ds.y[-1, 0, 0] = np.nan   # only the final evaluation sees it
        with pytest.raises(DivergenceError, match="final evaluation") as info:
            train(params, mcfg, ds, cfg)
        assert info.value.epoch == 2
        for k, v in ends[1].as_dict().items():
            npt.assert_array_equal(info.value.params.as_dict()[k], v)

    def test_epoch_hook_called(self):
        ds = tiny_dataset()
        mcfg = ModelConfig(n_units=4)
        params = init_params(mcfg, SeededRng(24))
        seen = []
        train(params, mcfg, ds, TrainConfig(epochs=3, batch_size=6, seed=25),
              epoch_hook=lambda e, p, l: seen.append(e))
        assert seen == [0, 1, 2]

    def test_matches_hand_loop_with_annealed_rate(self):
        ds = tiny_dataset()
        mcfg = ModelConfig(n_units=5)
        params = init_params(mcfg, SeededRng(34))
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2, seed=35)
        trained, _ = train(params, mcfg, ds, cfg, eval_fraction=0.0)

        # 12 samples in batches of 4: 3 updates per epoch, 6 in the run
        expected, state = params.copy(), init_adam_state(params)
        for k, (_, idx) in enumerate(hand_batches(cfg, 12)):
            grads, _ = bptt_gradients(expected, mcfg, ds.x[idx], ds.y[idx])
            grads = clip_gradients(grads, cfg.grad_clip_norm)
            expected, state = adam_update(state, expected, grads,
                                          cfg.learning_rate_at(k, 6))
        assert k == 5
        for k, v in expected.as_dict().items():
            npt.assert_array_equal(trained.as_dict()[k], v)

    def test_short_last_batch_matches_hand_loop(self):
        # 10 samples in batches of 4: the last batch of each epoch has 2
        ds = tiny_dataset(samples=10)
        mcfg = ModelConfig(n_units=5, dt=0.5)
        params = init_params(mcfg, SeededRng(36))
        cfg = TrainConfig(epochs=2, batch_size=4, seed=37)
        trained, report = train(params, mcfg, ds, cfg, eval_fraction=0.0)

        expected, state = params.copy(), init_adam_state(params)
        losses = [0.0, 0.0]
        for k, (epoch, idx) in enumerate(hand_batches(cfg, 10)):
            grads, batch_loss = bptt_gradients(expected, mcfg, ds.x[idx], ds.y[idx])
            losses[epoch] += batch_loss * len(idx)
            grads = clip_gradients(grads, cfg.grad_clip_norm)
            expected, state = adam_update(state, expected, grads,
                                          cfg.learning_rate_at(k, 6))
        assert (k, len(idx)) == (5, 2)
        for k, v in expected.as_dict().items():
            npt.assert_array_equal(trained.as_dict()[k], v)
        assert report.loss_per_epoch == [losses[0] / 10, losses[1] / 10]

    def test_loss_decreases_on_small_run(self):
        cfg = TaskConfig(t_steps=80, delay_steps=5, pulse_width=4,
                         min_gap=10, max_gap=25, seed=26)
        ds = generate_dataset(cfg, 64)
        mcfg = ModelConfig(n_units=16)
        params = init_params(mcfg, SeededRng(27))
        tcfg = TrainConfig(epochs=8, batch_size=16, learning_rate=5e-3, seed=28)
        _, report = train(params, mcfg, ds, tcfg)
        assert report.loss_per_epoch[-1] < report.loss_per_epoch[0]

    def test_held_out_split_scores_the_tail_trials(self):
        # the last quarter of 40 trials, each rebuilt on its own from its
        # (seed, index) stream and scored with batch_forward and the
        # step-by-step mask: the split hands evaluate those trials' events,
        # numbered from the first of them
        cfg = TaskConfig(seed=50)
        ds = generate_dataset(cfg, 40)
        mcfg = ModelConfig(n_units=16)
        params = init_params(mcfg, SeededRng(51))
        _, report = train(params, mcfg, ds, TrainConfig(epochs=0, seed=52),
                          eval_fraction=0.25)
        assert report.held_out == 10
        tail = [generate_trial(cfg, trial_rng(cfg, i)) for i in range(30, 40)]
        y = np.stack([trial.targets for trial in tail])
        _, z = batch_forward(params, mcfg, np.stack([trial.inputs for trial in tail]))
        mask = np.stack([clean_hold_oracle(trial.events, trial.targets, cfg.pulse_width,
                                           cfg.delay_steps, 10) for trial in tail])
        ok = np.all(np.sign(z) == y, axis=2) & mask
        assert 0 < ok.sum() < mask.sum()
        npt.assert_allclose(report.final_eval.mse, np.mean((z - y) ** 2), rtol=1e-12)
        assert report.final_eval.state_accuracy == ok.sum() / mask.sum()


def latch_params(kappa=1000.0):
    """Hand-built network that latches pulses exactly: one unit per bit."""
    eye = np.eye(3)
    return RnnParams(w_in=kappa * eye, w_rec=kappa * eye, w_out=eye,
                     b_rec=np.zeros(3), b_out=np.zeros(3))


class TestEvaluate:
    def test_latch_network_is_perfect(self):
        cfg = TaskConfig(noise_std=0.0, seed=29)
        ds = generate_dataset(cfg, 5)
        metrics = evaluate(latch_params(), ModelConfig(n_units=3), ds)
        assert metrics.state_accuracy == 1.0
        # mse stays finite but nonzero: the latch flips early, inside the
        # masked transition windows
        assert np.isfinite(metrics.mse)

    def test_zero_readout_scores_zero(self):
        cfg = TaskConfig(seed=30)
        ds = generate_dataset(cfg, 3)
        params = latch_params()
        params.w_out = np.zeros_like(params.w_out)
        metrics = evaluate(params, ModelConfig(n_units=3), ds)
        assert metrics.state_accuracy == 0.0

    def test_no_clean_hold_is_nan(self):
        # no pulse fits in 40 steps, so no target is ever committed
        cfg = TaskConfig(t_steps=40, min_gap=50, max_gap=60)
        ds = generate_dataset(cfg, 3)
        assert ds.events.shape == (4, 0)
        metrics = evaluate(latch_params(), ModelConfig(n_units=3), ds)
        assert np.isnan(metrics.state_accuracy)
        assert np.isfinite(metrics.mse)

    def test_untrained_network_near_chance(self):
        cfg = TaskConfig(seed=31)
        ds = generate_dataset(cfg, 10)
        mcfg = ModelConfig(n_units=32)
        params = init_params(mcfg, SeededRng(32))
        metrics = evaluate(params, mcfg, ds)
        print(f"untrained accuracy baseline: {metrics.state_accuracy:.3f}")
        assert 0.0 <= metrics.state_accuracy <= 1.0

    def test_single_trial_input(self):
        cfg = TaskConfig(noise_std=0.0, seed=33)
        ds = generate_dataset(cfg, 1)
        trial = Trial(ds.x[0], ds.y[0], events=split_events(ds.events, 1)[0], config=cfg)
        metrics = evaluate(latch_params(), ModelConfig(n_units=3), trial)
        assert metrics.state_accuracy == 1.0

    @pytest.mark.parametrize("pad", [0, 10, 40])
    def test_trial_scores_as_its_one_trial_dataset(self, pad):
        cfg = TaskConfig(seed=34)
        trial = generate_trial(cfg, trial_rng(cfg, 7))
        one = generate_dataset(cfg, 8)
        one = Dataset(one.x[7:], one.y[7:], cfg, _events_of(one.events, 7, 8))
        npt.assert_array_equal(one.x[0], trial.inputs)
        mcfg = ModelConfig(n_units=16)
        params = init_params(mcfg, SeededRng(35))
        # NaN accuracy, with no clean hold, at the widest pad
        npt.assert_equal(dataclasses.astuple(evaluate(params, mcfg, trial, transition_pad=pad)),
                         dataclasses.astuple(evaluate(params, mcfg, one, transition_pad=pad)))

    @pytest.mark.parametrize("noise", [0.05, 0.2, 0.3])
    def test_mask_matches_per_pulse_loop(self, noise):
        cfg = TaskConfig(noise_std=noise, seed=7000)
        ds = generate_dataset(cfg, 60)
        mask = _clean_hold_mask(ds.events, ds.y, cfg, 10)
        for i, events in enumerate(split_events(ds.events, 60)):
            expected = clean_hold_oracle(events, ds.y[i], cfg.pulse_width,
                                         cfg.delay_steps, 10)
            npt.assert_array_equal(mask[i], expected)
        # the events, and so the mask, do not depend on the noise level
        quiet = generate_dataset(dataclasses.replace(cfg, noise_std=0.0), 60)
        npt.assert_array_equal(mask, _clean_hold_mask(quiet.events, quiet.y, cfg, 10))
        assert mask.mean() > 0.05

    @pytest.mark.parametrize("count", [(1 << 15) - 1, 1 << 15, 1 << 16])
    def test_mask_window_counts_do_not_wrap(self, count):
        # count pulses open their windows at step 20 of trial 1. The window
        # counts are int16 below 2**15 events, which holds 2**15 - 1 of
        # them, and int32 from there: 2**16 would wrap to 0 in int16
        cfg = TaskConfig(t_steps=60, pulse_width=4, delay_steps=5)
        events = np.zeros((4, count), dtype=np.int64)
        events[0], events[1], events[3] = 1, 20, 1
        mask = _clean_hold_mask(events, np.ones((2, 60, 3), dtype=np.int8), cfg, 2)
        expected = np.ones((2, 60), dtype=bool)
        expected[1, 20:20 + 4 + 5 + 2 + 1] = False
        npt.assert_array_equal(mask, expected)

    def test_peak_memory_one_chunk(self):
        # each worker runs its chunks through one [k + 2, ..., chunk] block
        # buffer, no larger than one of _BLOCK_STEPS + 2 rows over 64
        # trials, and keeps no readout beyond its block, so the peak is a
        # small part of one 128-trial full-history buffer, a bound that does
        # not move with the chunk size
        task = TaskConfig(t_steps=300)
        mcfg = ModelConfig(n_units=64)
        params = init_params(mcfg, SeededRng(37))
        trials = 384
        x = SeededRng(38).gen.normal(size=(trials, 300, 3))
        ds = Dataset(x, np.zeros_like(x), task, NO_EVENTS)
        evaluate(params, mcfg, ds)
        tracemalloc.start()
        try:
            evaluate(params, mcfg, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = (300 + 2) * 128 * (3 + 64 + 3 + 1) * 8
        assert peak <= 0.3 * full, f"peak {peak / full:.2f} full-history buffers"

    # short trials, so that clean holds exist at transition pad 2
    SHORT = dict(pulse_width=2, delay_steps=2, min_gap=4, max_gap=12)

    # the last two cases hold one and three trials past a whole chunk
    CHUNK_CASES = [
        pytest.param(dict(t_steps=300), {}, 2 * _CHUNK_TRIALS + 44, 10,
                     id="300-steps"),
        pytest.param(SHORT | dict(t_steps=_BLOCK_STEPS - 7), {}, 40, 2,
                     id="below-one-block"),
        pytest.param(SHORT | dict(t_steps=_BLOCK_STEPS), {}, 40, 2, id="one-block"),
        pytest.param(SHORT | dict(t_steps=3 * _BLOCK_STEPS + 5), {}, 40, 2,
                     id="not-a-multiple-of-the-block"),
        pytest.param(dict(t_steps=100), dict(dt=0.5, use_bias=True), 40, 10,
                     id="leaky-with-bias"),
        pytest.param(SHORT | dict(t_steps=70), {}, _CHUNK_TRIALS + 1, 2,
                     id="one-trial-last-chunk"),
        pytest.param(SHORT | dict(t_steps=70), {}, _CHUNK_TRIALS + 3, 2,
                     id="last-chunk-below-the-workers"),
    ]

    @staticmethod
    def chunk_case(task, model, trials):
        cfg = TaskConfig(seed=35, **task)
        ds = generate_dataset(cfg, trials)
        mcfg = ModelConfig(n_units=8, **model)
        params = init_params(mcfg, SeededRng(36))
        if mcfg.use_bias:
            params.b_rec = SeededRng(39).gen.normal(0, 0.3, 8)
            params.b_out = SeededRng(40).gen.normal(0, 0.3, 3)
        return cfg, ds, mcfg, params

    @pytest.mark.parametrize("task, model, trials, pad", CHUNK_CASES)
    def test_chunked_matches_whole_dataset(self, monkeypatch, task, model,
                                           trials, pad):
        # within a tolerance, not bitwise: evaluate's GEMMs run over its
        # chunks, batch_forward's here over all of the trials
        monkeypatch.setattr(training, "_MIN_CHUNK_STATES", 1)
        cfg, ds, mcfg, params = self.chunk_case(task, model, trials)
        metrics = evaluate(params, mcfg, ds, transition_pad=pad)
        _, z = batch_forward(params, mcfg, ds.x)
        npt.assert_allclose(metrics.mse, np.mean((z - ds.y) ** 2), rtol=1e-12)
        mask = np.stack([clean_hold_oracle(events, ds.y[i], cfg.pulse_width,
                                           cfg.delay_steps, pad)
                         for i, events in enumerate(split_events(ds.events, trials))])
        assert mask.any()
        ok = np.all(np.sign(z) == ds.y, axis=2)
        assert metrics.state_accuracy == (ok & mask).sum() / mask.sum()

    @pytest.mark.parametrize("task, model, trials, pad", CHUNK_CASES)
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_sharded_equals_serial(self, small_chunks, monkeypatch, workers,
                                   task, model, trials, pad):
        # a chunk's bounds and GEMMs do not depend on the worker count, and
        # the chunk sums are added up in chunk order, so the metrics are
        # the serial ones bit for bit
        _, ds, mcfg, params = self.chunk_case(task, model, trials)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 1)
        serial = evaluate(params, mcfg, ds, transition_pad=pad)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", workers)
        bounds = training._chunk_bounds(trials, mcfg.n_units, training._EVAL_TRIALS)
        assert len(bounds) >= workers
        assert evaluate(params, mcfg, ds, transition_pad=pad) == serial

    def test_sharded_peak_memory_one_chunk(self, monkeypatch):
        # two workers, each with the block buffer of one 192-trial chunk
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 2)
        assert training._chunk_bounds(384, 64, _EVAL_TRIALS) == [(0, 192), (192, 384)]
        self.test_peak_memory_one_chunk()

    def test_peak_memory_at_500_trials(self, monkeypatch):
        # two workers at 128 units, each with one 250-trial chunk. The bound
        # is the peak of the same call in the code before evaluate's chunks
        # grew from 64 trials to 256 (eight chunks of 62-63 trials, 32-step
        # blocks and whole-chunk readouts), the lowest of five measured
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 2)
        ds = generate_dataset(TaskConfig(seed=7000), 500)
        mcfg = ModelConfig(n_units=128)
        params = init_params(mcfg, SeededRng(1))
        assert training._chunk_bounds(500, 128, _EVAL_TRIALS) == [(0, 250), (250, 500)]
        evaluate(params, mcfg, ds)
        tracemalloc.start()
        try:
            evaluate(params, mcfg, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5_926_692, f"peak {peak} B"

    @settings(max_examples=40, deadline=None)
    @given(trials=st.one_of(st.sampled_from([64, 65, 256, 257, 512, 513]),
                            st.integers(1, 600)),
           t_steps=st.integers(1, 3 * _BLOCK_STEPS + 5),
           n=st.sampled_from([8, 64, 128]), dt=st.sampled_from([1.0, 0.5]),
           use_bias=st.booleans(), workers=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_fuzz_chunk_and_block_edges(self, trials, t_steps, n, dt, use_bias,
                                        workers, seed):
        # evaluate against batch_forward over each of its chunks and the
        # step-by-step mask: the mse within rounding, the accuracy exactly,
        # the readouts bit for bit, and the metrics whatever the workers
        params, mcfg, x, _ = random_problem(n, trials, t_steps, dt, use_bias, seed)
        z = np.concatenate([batch_forward(params, mcfg, x[lo:hi])[1] for lo, hi
                            in training._chunk_bounds(trials, n, _EVAL_TRIALS)])
        # targets: the readouts' signs, a fifth flipped and a tenth uncommitted
        rng = SeededRng(seed + 1).gen
        y = np.sign(z) * np.where(rng.random(z.shape) < 0.2, -1.0, 1.0)
        y[rng.random(z.shape) < 0.1] = 0.0
        events = np.array([(i, onset, 0, 1) for i in range(trials) for onset in
                           rng.integers(0, t_steps, rng.integers(0, 3))],
                          dtype=np.int64).reshape(-1, 4).T
        task = TaskConfig(pulse_width=2, delay_steps=1)   # the mask reads these two
        ds = Dataset(x, y, task, events)
        workers_before = training._CHUNK_WORKERS
        try:
            training._CHUNK_WORKERS = 1
            serial = evaluate(params, mcfg, ds, transition_pad=1)
            training._CHUNK_WORKERS = workers
            metrics = evaluate(params, mcfg, ds, transition_pad=1)
            readouts = evaluate(params, mcfg, Dataset(x, z, task, events))
        finally:
            training._CHUNK_WORKERS = workers_before
        npt.assert_equal(dataclasses.astuple(metrics), dataclasses.astuple(serial))
        assert readouts.mse == 0.0
        npt.assert_allclose(metrics.mse, np.mean((z - y) ** 2), rtol=1e-12, atol=0)
        mask = np.stack([clean_hold_oracle(triples, y[i], 2, 1, 1)
                         for i, triples in enumerate(split_events(events, trials))])
        ok = np.all(np.sign(z) == y, axis=2) & mask
        if mask.any():
            assert metrics.state_accuracy == ok.sum() / mask.sum()
        else:
            assert math.isnan(metrics.state_accuracy)

    @pytest.mark.parametrize("n, chunk", [(1, 4096), (8, 512), (32, 128),
                                          (64, 64), (128, 64), (256, 64)])
    def test_chunk_size(self, n, chunk):
        # _CHUNK_TRIALS trials, or enough for _MIN_CHUNK_STATES state
        # entries: bptt's largest chunk, and the most trials that evaluate
        # runs as one chunk
        assert (_CHUNK_TRIALS, training._MIN_CHUNK_STATES) == (64, 4096)
        assert training._min_chunk(n) == chunk
        assert training._chunk_bounds(3 * chunk, n, _CHUNK_TRIALS) == [
            (0, chunk), (chunk, 2 * chunk), (2 * chunk, 3 * chunk)]
        assert len(training._chunk_bounds(3 * chunk + 1, n, _CHUNK_TRIALS)) == 4
        assert training._chunk_bounds(chunk, n, _EVAL_TRIALS) == [(0, chunk)]
        assert len(training._chunk_bounds(chunk + 1, n, _EVAL_TRIALS)) == 2

    @pytest.mark.parametrize("n, trials, chunks", [
        (128, 150, [75, 75]), (128, 64, [64]), (32, 300, [150, 150]),
        (8, 3, [3]), (256, 1, [1])])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_run(self, monkeypatch, n, trials, chunks, workers):
        # the chunks, in order, whatever the worker count; a dataset smaller
        # than a chunk runs as one chunk of its size
        monkeypatch.setattr(training, "_CHUNK_WORKERS", workers)
        mcfg = ModelConfig(n_units=n)
        params = init_params(mcfg, SeededRng(48))
        x = SeededRng(49).gen.normal(size=(trials, 40, 3))
        starts, run_chunk = [], training._forward_chunk

        def chunk(w, config, xs, *args):
            starts.append((int(np.flatnonzero((x == xs[0]).all(axis=(1, 2)))[0]),
                           len(xs)))
            return run_chunk(w, config, xs, *args)

        monkeypatch.setattr(training, "_forward_chunk", chunk)
        evaluate(params, mcfg, Dataset(x, np.zeros_like(x), TaskConfig(t_steps=40),
                                       NO_EVENTS))
        assert sorted(starts) == list(zip(np.cumsum([0] + chunks[:-1]).tolist(), chunks))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_empty_dataset_is_nan(self, monkeypatch, workers):
        # no trial: no chunk, no worker, and no number for either metric
        monkeypatch.setattr(training, "_CHUNK_WORKERS", workers)
        cfg = TaskConfig(t_steps=40)
        x = np.zeros((0, 40, 3))
        metrics = evaluate(latch_params(), ModelConfig(n_units=3),
                           Dataset(x, x.copy(), cfg, NO_EVENTS))
        assert math.isnan(metrics.mse) and math.isnan(metrics.state_accuracy)

    def test_no_steps_is_nan(self):
        # trials of no steps run no block: no number for either metric
        x = np.zeros((70, 0, 3))
        metrics = evaluate(latch_params(), ModelConfig(n_units=3),
                           Dataset(x, x.copy(), TaskConfig(), NO_EVENTS))
        assert math.isnan(metrics.mse) and math.isnan(metrics.state_accuracy)

    @staticmethod
    def chunk_readouts(params, mcfg, x):
        """batch_forward's readouts, run over one chunk of evaluate at a
        time."""
        return np.concatenate([batch_forward(params, mcfg, x[lo:hi])[1] for lo, hi
                               in training._chunk_bounds(len(x), mcfg.n_units,
                                                         training._EVAL_TRIALS)])

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_one_chunk_matches_batch_forward_bitwise(self, dt):
        # every readout, block boundaries included, comes from a GEMM of the
        # same shape as in batch_forward over the same trials; with
        # batch_forward's readouts over each chunk as targets, any differing
        # bit shows as a nonzero mse
        cfg = TaskConfig(seed=41, t_steps=3 * _BLOCK_STEPS + 5)
        ds = generate_dataset(cfg, 50)
        mcfg = ModelConfig(n_units=16, dt=dt)
        params = init_params(mcfg, SeededRng(42))
        z = self.chunk_readouts(params, mcfg, ds.x)
        assert evaluate(params, mcfg, Dataset(ds.x, z, cfg, ds.events)).mse == 0.0

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    def test_sharded_chunk_matches_batch_forward_bitwise(self, small_chunks, dt):
        # seven chunks of 7 or 8 trials, on two workers
        assert len(training._chunk_bounds(50, 16, training._EVAL_TRIALS)) == 7
        self.test_one_chunk_matches_batch_forward_bitwise(dt)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_workers_match_at_network_sizes(self, threads):
        # in a fresh interpreter at 1 and at 2 BLAS threads per call, with
        # 2-4 workers forced at either: the metrics equal the one-worker
        # ones, and every chunk's readouts equal batch_forward's over that
        # chunk. Each line printed is units, trials, workers, whether the
        # metrics equal the one-worker ones, and the mse against
        # batch_forward's readouts
        code = """
import numpy as np
from ffrnn import training
from ffrnn.linalg import SeededRng
from ffrnn.model import ModelConfig, batch_forward, init_params
from ffrnn.task import Dataset, TaskConfig
cfg = TaskConfig(t_steps=training._BLOCK_STEPS + 8)
for n in (8, 16, 64, 128, 200, 256):
    mcfg = ModelConfig(n_units=n)
    params = init_params(mcfg, SeededRng(46))
    for trials in (1, 63, 65, 130, 300, 513):
        rng = SeededRng(47 + trials)
        x = rng.gen.normal(size=(trials, cfg.t_steps, 3))
        signs = Dataset(x, np.sign(rng.gen.normal(size=x.shape)), cfg,
                        np.zeros((4, 0), dtype=np.int64))
        z = np.concatenate([batch_forward(params, mcfg, x[lo:hi])[1]
                            for lo, hi in training._chunk_bounds(
                                trials, n, training._EVAL_TRIALS)])
        readouts = Dataset(x, z, cfg, signs.events)
        for workers in (1, 4, 3, 2):   # the pool is made for 4
            training._CHUNK_WORKERS = workers
            metrics = training.evaluate(params, mcfg, signs)
            if workers == 1:
                serial = metrics
            mse = training.evaluate(params, mcfg, readouts).mse
            print(n, trials, workers, metrics == serial, mse)
"""
        lines = [line.split() for line in
                 run_python(code, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                            MKL_NUM_THREADS=threads).splitlines()]
        assert len(lines) == 6 * 6 * 4
        assert {equal for *_, equal, _ in lines} == {"True"}
        assert {float(mse) for *_, mse in lines} == {0.0}

    def test_concurrent_equals_serial(self, small_chunks, monkeypatch):
        # 13 chunks on 3 workers plus the caller, more threads than cores,
        # switching threads as often as the interpreter allows: the metrics
        # are the serial ones every time
        _, ds, mcfg, params = self.chunk_case(
            self.SHORT | dict(t_steps=2 * _BLOCK_STEPS + 3), dict(dt=0.5),
            _CHUNK_TRIALS + 40)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 1)
        expected = evaluate(params, mcfg, ds, transition_pad=2)
        assert not math.isnan(expected.state_accuracy)
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 4)
        bounds = training._chunk_bounds(len(ds.x), mcfg.n_units, training._EVAL_TRIALS)
        assert len(bounds) == 13
        pool = ThreadPoolExecutor(max_workers=3)
        monkeypatch.setattr(training, "_POOL", pool)
        results = []

        def stress():
            for _ in range(10):
                results.append(evaluate(params, mcfg, ds, transition_pad=2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=stress)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=not runner.is_alive())
        assert not runner.is_alive()
        assert results == [expected] * 10

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_failing_shard_raises_after_every_shard(self, small_chunks, monkeypatch,
                                                    failing):
        # three chunks on three workers: the first runs on the calling
        # thread, the others on the pool
        cfg = TaskConfig(seed=43, t_steps=40)
        ds = generate_dataset(cfg, 30)
        mcfg = ModelConfig(n_units=8)
        params = init_params(mcfg, SeededRng(44))
        monkeypatch.setattr(training, "_CHUNK_WORKERS", 3)
        monkeypatch.setattr(training, "_EVAL_TRIALS", 10)
        starts = [0, 10, 20]
        finished = []
        run_chunk = training._forward_chunk

        def chunk(w, config, x, *args):
            index = next(i for i, lo in enumerate(starts)
                         if np.array_equal(x[0], ds.x[lo]))
            if index == failing:
                raise RuntimeError(f"chunk {index} failed")
            time.sleep(0.2)
            result = run_chunk(w, config, x, *args)
            finished.append(index)
            return result

        monkeypatch.setattr(training, "_forward_chunk", chunk)
        pool = ThreadPoolExecutor(max_workers=2)
        monkeypatch.setattr(training, "_POOL", pool)
        try:
            with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
                evaluate(params, mcfg, ds)
            assert sorted(finished) == [i for i in range(3) if i != failing]
        finally:
            pool.shutdown()

    def test_probe_makes_no_pool(self):
        # the probe of `ffrnn eval` is one trial, so one chunk, which runs
        # on the calling thread however many workers there are
        code = ("import sys\n"
                "from ffrnn import training\n"
                "from ffrnn.linalg import SeededRng\n"
                "from ffrnn.model import ModelConfig, init_params\n"
                "from ffrnn.task import TaskConfig, generate_probe\n"
                "training._CHUNK_WORKERS = 4\n"
                "training._MIN_CHUNK_STATES = 1\n"
                "mcfg = ModelConfig(n_units=128)\n"
                "params = init_params(mcfg, SeededRng(45))\n"
                "training.evaluate(params, mcfg, generate_probe(TaskConfig()))\n"
                "print(training._POOL, 'concurrent.futures' in sys.modules)\n")
        assert run_python(code).split() == ["None", "False"]


class TestTrainConfig:
    def test_learning_rate_schedule(self):
        # half cosine from 1e-3 down to LR_FLOOR (0.3) of it
        cfg = TrainConfig(learning_rate=1e-3)
        rates = [cfg.learning_rate_at(k, 100) for k in range(100)]
        assert rates[0] == 1e-3
        npt.assert_allclose(rates[50], 0.65e-3, rtol=1e-12)
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert 0.3e-3 < rates[-1] < 0.301e-3
        zero = TrainConfig(learning_rate=0.0)
        assert {zero.learning_rate_at(k, 100) for k in range(100)} == {0.0}

    def test_validation(self):
        for rate in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for clip in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="grad_clip_norm"):
                TrainConfig(grad_clip_norm=clip)
        assert TrainConfig(grad_clip_norm=None).grad_clip_norm is None

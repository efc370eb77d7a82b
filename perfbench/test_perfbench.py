"""Tests of the benchmark's reference computations and its bookkeeping.

Run with ``python -m pytest perfbench``; they take a few seconds and do not
need the ``ffrnn`` package.
"""

import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import harness
import reference as ref
from tracer import Tracer

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("alpha", [1.0, 0.4])
def test_forward_steps_matches_scalar_loop(alpha):
    rng = np.random.default_rng(3)
    n, n_in, n_out, batch, t_steps = 4, 3, 2, 2, 6
    w_in = rng.normal(size=(n, n_in))
    w_rec = rng.normal(size=(n, n)) * 0.5
    w_out = rng.normal(size=(n_out, n))
    b_rec, b_out = rng.normal(size=n), rng.normal(size=n_out)
    x = rng.normal(size=(batch, t_steps, n_in))
    states, z = ref.forward_steps(w_in, w_rec, w_out, b_rec, b_out, alpha, x,
                                  keep_states=True)
    for b in range(batch):
        h = [0.0] * n
        for t in range(t_steps):
            a = [sum(w_rec[i, j] * h[j] for j in range(n))
                 + sum(w_in[i, j] * x[b, t, j] for j in range(n_in)) + b_rec[i]
                 for i in range(n)]
            h = [(1 - alpha) * h[i] + alpha * math.tanh(a[i]) for i in range(n)]
            out = [sum(w_out[o, i] * h[i] for i in range(n)) + b_out[o]
                   for o in range(n_out)]
            assert np.allclose(states[b, t], h, rtol=0, atol=1e-12)
            assert np.allclose(z[b, t], out, rtol=0, atol=1e-12)
    no_states, z2 = ref.forward_steps(w_in, w_rec, w_out, b_rec, b_out, alpha, x)
    assert no_states is None and np.array_equal(z, z2)


# pulse width 2, delay 3, pad 1: a pulse at onset s switches its channel at
# s + 5 and blocks steps s .. s + 6
EVENTS = [(2, 0, 1), (2, 1, -1), (4, 2, 1), (20, 1, 1)]


def test_replay_targets_by_hand():
    targets = ref.replay_targets(EVENTS, 40, 3, pulse_width=2, delay=3)
    expected = np.zeros((40, 3))
    expected[7:] = [1, -1, 0]
    expected[9:] = [1, -1, 1]
    expected[25:] = [1, 1, 1]
    assert np.array_equal(targets, expected)


def test_clean_hold_mask_by_hand():
    targets = ref.replay_targets(EVENTS, 40, 3, pulse_width=2, delay=3)
    mask = ref.clean_hold_mask(EVENTS, targets, pulse_width=2, delay=3, pad=1)
    # committed from step 9; windows [2, 8], [4, 10] and [20, 26]
    assert set(np.nonzero(mask)[0]) == set(range(11, 20)) | set(range(27, 40))


def test_state_accuracy_counts_masked_steps_only():
    y = np.ones((1, 4, 3))
    z = np.ones((1, 4, 3))
    z[0, 1, 2] = -0.5
    z[0, 3, 0] = -0.1
    mask = np.array([True, True, True, False])
    assert ref.state_accuracy(z, y, [mask]) == pytest.approx(2 / 3)
    assert ref.state_accuracy(z, y, [np.zeros(4, bool)]) is None


def test_central_differences_on_known_gradients():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 4))
    a, b = rng.uniform(0.5, 2, size=w.shape), rng.normal(size=w.shape)
    before = w.copy()
    coords = [0, 5, 11]
    numeric = ref.central_differences(lambda: float(np.sum(a * w ** 2 + b * w)),
                                      w, coords)
    exact = (2 * a * w + b).reshape(-1)[coords]
    assert np.array_equal(w, before)
    assert ref.relative_error(exact, numeric).max() < 1e-8
    # a cubic's central difference is off by exactly eps^2 per coordinate
    cubic = ref.central_differences(lambda: float(np.sum(w ** 3)), w, coords,
                                    eps=1e-3)
    assert np.allclose(cubic - 3 * w.reshape(-1)[coords] ** 2, 1e-6, atol=1e-9)


def test_relative_error_floor():
    assert ref.relative_error(1e-9, 0.0, floor=1e-6) == pytest.approx(1e-3)
    assert ref.relative_error(2.0, 1.0) == pytest.approx(0.5)


def test_peak_rss_grows_with_touched_memory():
    code = ("import numpy as np, reference as r\n"
            "before = r.peak_rss_mb()\n"
            "a = np.ones(96 * 2**20 // 8)\n"
            "print(before, r.peak_rss_mb())\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    before, after = map(float, out.split())
    assert before > 0
    assert 80 <= after - before <= 130


def test_peak_rss_is_not_inherited_from_a_large_parent():
    # the parent touches 160 MiB, then starts a small child through exec
    child = "import reference as r; print(r.peak_rss_mb())"
    code = ("import subprocess, sys, numpy as np\n"
            "a = np.ones(160 * 2**20 // 8)\n"
            f"print(subprocess.run([sys.executable, '-c', {child!r}], check=True,\n"
            "                      capture_output=True, text=True).stdout)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert 0 < float(out) < 80


def test_replay_peak_bytes_sees_numpy_temporaries():
    def two_at_once(n):
        a = np.ones(n)
        return float((a + 1.0).sum())   # a and a + 1.0 are alive together

    calls = [((2**20,), {}), ((), {"n": 2**19})]
    total = harness.replay_peak_bytes(two_at_once, calls)
    assert 3 * 2**23 <= total <= 3 * 2**23 + 2**16


def test_hold_mask_and_cube_geometry():
    corners = [tuple(c) for c in np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1]))
               .reshape(3, -1).T]
    targets, points = [], []
    for c in corners:
        for offset in (-0.1, 0.1):
            targets.append(c)
            points.append(np.array(c, float) + [offset, 0, 0])
    targets = np.array(targets, float)
    mask = ref.hold_mask(targets, 0, margin=1)
    # each step whose target differs from the step before is excluded
    assert list(mask) == [True, True] + [False, True] * 7
    geo = ref.cube_geometry(points, targets, np.ones(16, bool))
    assert geo["states"] == sorted(corners)
    assert np.allclose(geo["centroids"], sorted(corners))
    assert (geo["edge"], geo["face"], geo["body"]) == pytest.approx(
        (2, 2 * math.sqrt(2), 2 * math.sqrt(3)))
    assert geo["spread"] == pytest.approx(0.1)
    assert geo["separation"] == pytest.approx(20)


def test_procrustes_and_eigenvalue_matching():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    assert ref.procrustes_residual(a, a @ q + 5.0) < 1e-12
    assert ref.procrustes_residual(a, rng.normal(size=(8, 3))) > 0.1
    vals = np.array([1 + 2j, 1 - 2j, 0.5, -3])
    assert ref.same_eigenvalues(vals[::-1], vals, 1e-12)
    assert not ref.same_eigenvalues(vals + 1e-6, vals, 1e-9)
    assert not ref.same_eigenvalues(vals[:3], vals, 1e-9)


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(n):
        return sum(range(n))

    def outer(n):
        return core.leaf(n) + user.leaf(n)

    core.leaf, core.outer = leaf, outer
    user.leaf = leaf
    pkg.leaf = leaf
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user, pkg, leaf, outer
    for name in mods:
        del sys.modules[name]


def test_tracer_wraps_every_binding_and_restores(fake_package):
    core, user, pkg, leaf, outer = fake_package
    tracer = Tracer()
    tracer.install("fakepkg", "core", "leaf", "core.leaf",
                   lambda args, kwargs, result: {"n": args[0]})
    tracer.install("fakepkg", "core", "outer", "core.outer")
    assert core.leaf is user.leaf is pkg.leaf is not leaf
    tracer.run_id = "round-1"
    assert core.outer(1000) == 2 * sum(range(1000))
    tracer.uninstall()
    assert core.leaf is user.leaf is pkg.leaf is leaf and core.outer is outer

    names = [s[0] for s in tracer.spans]
    assert names == ["core.outer", "core.leaf", "core.leaf"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert tracer.check_nesting()
    selfs = tracer.self_times()
    spans = tracer.spans
    assert selfs[0] == pytest.approx(
        (spans[0][2] - spans[0][1]) - sum(s[2] - s[1] for s in spans[1:]))
    total, self_total, top = tracer.totals({"round-1"})
    assert sum(self_total.values()) == pytest.approx(top["round-1"])
    assert tracer.count_totals({"round-1"}) == {"core.leaf.n": 2000}
    assert tracer.count_totals({"setup-0"}) == {}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        harness.per_layer_metrics()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]

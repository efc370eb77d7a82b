import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ffrnn import training
from ffrnn.cli import main
from ffrnn.linalg import SeededRng
from ffrnn.model import ModelConfig, RnnParams, init_params, load_checkpoint, save_checkpoint
from ffrnn.task import Dataset, TaskConfig, generate_dataset, load_dataset, save_dataset
from ffrnn.tensorio import sha256_file


def run_cli(*args):
    return main([str(a) for a in args])


def with_src_on_path():
    """This process's environment, with the ``src/`` that its ffrnn comes
    from first on PYTHONPATH, so a fresh interpreter imports the same
    ffrnn from a plain checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(training.__file__)), env.get("PYTHONPATH", "")])
    return env


def gen_args(out, samples=5, steps=60, seed=1, noise=0.05, **extra):
    args = ["gen", "--samples", samples, "--steps", steps, "--seed", seed,
            "--noise", noise, "--out", out]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", v]
    return args


class TestGen:
    def test_deterministic_hashes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*gen_args(a)) == 0
        assert run_cli(*gen_args(b)) == 0
        for name in ("x.rnt", "y.rnt"):
            assert sha256_file(a / name) == sha256_file(b / name)

    def test_header_dims(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(*gen_args(out, samples=7, steps=64)) == 0
        raw = (out / "x.rnt").read_bytes()
        version, rank, s, t, b = struct.unpack_from("<5I", raw, 4)
        assert (version, rank, s, t, b) == (1, 3, 7, 64, 3)

    def test_delay_flag_sets_target_lag(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(*gen_args(out, noise=0.0, delay=20)) == 0
        from ffrnn.task import load_dataset

        ds = load_dataset(out)
        assert ds.config.delay_steps == 20
        x, y = ds.x[0], ds.y[0]
        for c in range(3):
            pulsed = np.nonzero(np.abs(x[:, c]) > 0.5)[0]
            if pulsed.size == 0:
                continue
            onset = pulsed[0]
            falling = onset
            while falling < len(x) and abs(x[falling, c]) > 0.5:
                falling += 1
            effect = falling + 20
            if effect < len(y):
                assert y[effect, c] != 0
                assert y[effect - 1, c] == 0

    def test_full_scale_sample_count(self, tmp_path):
        out = tmp_path / "big"
        assert run_cli(*gen_args(out, samples=15000, steps=60)) == 0
        raw = (out / "x.rnt").read_bytes()
        version, rank, s, t, b = struct.unpack_from("<5I", raw, 4)
        assert (rank, s, t, b) == (3, 15000, 60, 3)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "d"
        run_cli(*gen_args(out))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "gen"
        # the benchmark checks this set of files
        assert sorted(o["path"] for o in manifest["outputs"]) == \
            ["config.json", "x.rnt", "y.rnt"]

    def test_bad_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli("gen", "--samples", "notanumber", "--out", tmp_path / "x")
        assert info.value.code == 2


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = TaskConfig(t_steps=60, delay_steps=5, pulse_width=4, min_gap=8,
                     max_gap=20, seed=5)
    save_dataset(generate_dataset(cfg, 24), out)
    return out


class TestTrain:
    def test_epochs_zero_keeps_init(self, tmp_path, small_data):
        out = tmp_path / "ckpt"
        code = run_cli("train", "--data", small_data, "--units", 12,
                       "--epochs", 0, "--seed", 9, "--out", out)
        assert code == 0
        params, cfg, _ = load_checkpoint(out)
        fresh = init_params(ModelConfig(n_units=12), SeededRng(9))
        npt.assert_allclose(params.w_rec, fresh.w_rec, rtol=1e-6, atol=1e-7)

    def test_large_units_checkpoint_dims(self, tmp_path, small_data):
        out = tmp_path / "ckpt400"
        code = run_cli("train", "--data", small_data, "--units", 400,
                       "--epochs", 0, "--seed", 3, "--out", out)
        assert code == 0
        params, cfg, _ = load_checkpoint(out)
        assert params.w_rec.shape == (400, 400)
        assert cfg.n_units == 400

    def test_zero_lr_constant_history(self, tmp_path, small_data):
        out = tmp_path / "ckpt0"
        code = run_cli("train", "--data", small_data, "--units", 8,
                       "--epochs", 3, "--batch", 8, "--lr", 0.0,
                       "--seed", 4, "--out", out)
        assert code == 0
        rows = (out / "history.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,loss"
        losses = {float(r.split(",")[1]) for r in rows[1:]}
        assert len(rows) == 4
        assert max(losses) - min(losses) < 1e-12

    def test_zero_clip_disables_clipping(self, tmp_path, small_data):
        out = tmp_path / "ckpt"
        assert run_cli("train", "--data", small_data, "--units", 4, "--epochs", 1,
                       "--clip", 0, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["training"]["grad_clip_norm"] is None

    def test_bias_run_manifest_hashes_biases(self, tmp_path, small_data):
        out = tmp_path / "ckpt_b"
        assert run_cli("train", "--data", small_data, "--units", 4, "--epochs", 1,
                       "--bias", "--out", out) == 0
        listed = {o["path"]: o["sha256"] for o in
                  json.loads((out / "run_manifest.json").read_text())["outputs"]}
        assert list(listed) == ["w_in.rnt", "w_rec.rnt", "w_out.rnt", "b_rec.rnt",
                                "b_out.rnt", "history.csv"]
        for name, digest in listed.items():
            assert digest == sha256_file(out / name)

    def test_missing_dataset_exits_2(self, tmp_path):
        code = run_cli("train", "--data", tmp_path / "nope", "--units", 8,
                       "--out", tmp_path / "out")
        assert code == 2

    def test_periodic_checkpoints(self, tmp_path, small_data):
        out = tmp_path / "ckpt_k"
        code = run_cli("train", "--data", small_data, "--units", 8,
                       "--epochs", 2, "--batch", 8, "--seed", 5,
                       "--checkpoint-every", 1, "--out", out)
        assert code == 0
        assert (out / "epoch_0000" / "w_rec.rnt").exists()
        assert (out / "epoch_0001" / "w_rec.rnt").exists()

    def test_epoch_checkpoint_cube_uses_dataset_task(self, tmp_path, small_data):
        out = tmp_path / "ckpt_e"
        assert run_cli("train", "--data", small_data, "--units", 8,
                       "--epochs", 1, "--batch", 8, "--seed", 5,
                       "--checkpoint-every", 1, "--out", out) == 0
        task = json.loads((small_data / "config.json").read_text())
        _, _, manifest = load_checkpoint(out / "epoch_0000")
        assert manifest["task"] == task
        # after one epoch the epoch checkpoint holds the final weights, so
        # both cube reports come from the same probe only if both carry the task
        for ckpt, dest in ((out, "final"), (out / "epoch_0000", "epoch")):
            assert run_cli("cube", "--checkpoint", ckpt,
                           "--out", tmp_path / dest) == 0
        assert ((tmp_path / "final" / "cube_report.json").read_bytes()
                == (tmp_path / "epoch" / "cube_report.json").read_bytes())

    def test_divergent_data_exits_3(self, tmp_path, capsys):
        cfg = TaskConfig(t_steps=60, delay_steps=5, pulse_width=4,
                         min_gap=8, max_gap=20, seed=5)
        ds = generate_dataset(cfg, 8)
        ds.y[:, 30, 0] = np.nan
        data_dir = tmp_path / "nan_data"
        save_dataset(ds, data_dir)
        out = tmp_path / "out"
        code = run_cli("train", "--data", data_dir, "--units", 8,
                       "--epochs", 1, "--batch", 4, "--out", out)
        assert code == 3
        assert "training diverged in epoch 0: non-finite loss" in capsys.readouterr().err
        # last good parameters (the initialization) were still checkpointed
        params, _, manifest = load_checkpoint(out)
        assert manifest["diverged_at_epoch"] == 0
        assert np.isfinite(params.w_rec).all()

    def test_train_then_eval_pipeline(self, tmp_path, small_data):
        out = tmp_path / "ckpt_t"
        code = run_cli("train", "--data", small_data, "--units", 12,
                       "--epochs", 2, "--batch", 8, "--seed", 6, "--out", out)
        assert code == 0
        metrics_file = tmp_path / "metrics.json"
        # at the default pad of 10 the transition windows of small_data
        # cover every step; at pad 0, 119 steps are clean holds
        code = run_cli("eval", "--checkpoint", out, "--data", small_data,
                       "--pad", 0, "--out", metrics_file)
        assert code == 0
        metrics = json.loads(metrics_file.read_text())
        assert 0.0 <= metrics["state_accuracy"] <= 1.0
        assert metrics["mse"] >= 0.0


def exit_code(*args):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


def manifest_with_unknown_model_key(tmp_path, _data):
    ckpt = tmp_path / "odd"
    cfg = ModelConfig(n_units=4)
    save_checkpoint(ckpt, init_params(cfg, SeededRng(1)), cfg)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["model"]["n_layers"] = 2
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    return ["eval", "--checkpoint", ckpt]


def manifest_with_relu_activation(tmp_path, data):
    args = manifest_with_unknown_model_key(tmp_path, data)
    manifest = json.loads((tmp_path / "odd" / "manifest.json").read_text())
    del manifest["model"]["n_layers"]
    manifest["model"]["activation"] = "relu"
    (tmp_path / "odd" / "manifest.json").write_text(json.dumps(manifest))
    return args


def manifest_without_n_units(tmp_path, data):
    args = manifest_with_unknown_model_key(tmp_path, data)
    manifest = json.loads((tmp_path / "odd" / "manifest.json").read_text())
    del manifest["model"]["n_layers"], manifest["model"]["n_units"]
    (tmp_path / "odd" / "manifest.json").write_text(json.dumps(manifest))
    return args


def dataset_with_unknown_task_key(tmp_path, data):
    cfg = json.loads((data / "config.json").read_text())
    cfg["n_channels"] = 3
    odd = tmp_path / "odd_data"
    odd.mkdir()
    for name in ("x.rnt", "y.rnt"):
        (odd / name).write_bytes((data / name).read_bytes())
    (odd / "config.json").write_text(json.dumps(cfg))
    ckpt = tmp_path / "ckpt"
    cfg = ModelConfig(n_units=4)
    save_checkpoint(ckpt, init_params(cfg, SeededRng(1)), cfg)
    return ["eval", "--checkpoint", ckpt, "--data", odd]


def manifest_with_unknown_task_key(tmp_path, _data):
    ckpt = tmp_path / "odd"
    cfg = ModelConfig(n_units=4)
    task = {"seed": 3, "n_channels": 3}
    save_checkpoint(ckpt, init_params(cfg, SeededRng(1)), cfg, {"task": task})
    return ["cube", "--checkpoint", ckpt, "--out", tmp_path / "cube"]


def manifest_with_float_n_units(tmp_path, data):
    args = manifest_with_unknown_model_key(tmp_path, data)
    manifest = json.loads((tmp_path / "odd" / "manifest.json").read_text())
    del manifest["model"]["n_layers"]
    manifest["model"]["n_units"] = 4.0
    (tmp_path / "odd" / "manifest.json").write_text(json.dumps(manifest))
    return args


def manifest_with_huge_n_units(tmp_path, data):
    # the bias-free biases are sized from the tensors, never from the manifest
    args = manifest_with_float_n_units(tmp_path, data)
    manifest = json.loads((tmp_path / "odd" / "manifest.json").read_text())
    manifest["model"]["n_units"] = 10 ** 12
    (tmp_path / "odd" / "manifest.json").write_text(json.dumps(manifest))
    return args


def dataset_with_fractional_delay(tmp_path, data):
    args = dataset_with_unknown_task_key(tmp_path, data)
    cfg = json.loads((data / "config.json").read_text())
    cfg["delay_steps"] = 20.5
    (tmp_path / "odd_data" / "config.json").write_text(json.dumps(cfg))
    return args


def manifest_with_nan_tau(tmp_path, data):
    args = manifest_with_float_n_units(tmp_path, data)
    manifest = json.loads((tmp_path / "odd" / "manifest.json").read_text())
    manifest["model"]["n_units"] = 4
    manifest["model"]["tau"] = float("nan")   # json writes and reads NaN
    (tmp_path / "odd" / "manifest.json").write_text(json.dumps(manifest))
    return args


def config_file_args(tmp_path, values, *args):
    """``--config FILE`` holding ``values``, then ``args``."""
    (tmp_path / "conf.json").write_text(json.dumps(values))
    return ["--config", tmp_path / "conf.json", *args]


def checkpoint_args(tmp_path, data, *args):
    """``args`` naming a fresh checkpoint whose manifest carries
    ``data``'s task."""
    ckpt = tmp_path / "ckpt"
    cfg = ModelConfig(n_units=4)
    task = json.loads((data / "config.json").read_text())
    save_checkpoint(ckpt, init_params(cfg, SeededRng(1)), cfg, {"task": task})
    return [a if a != "CKPT" else ckpt for a in args]


def two_bit_data_on_three_input_checkpoint(tmp_path, data):
    two_bits = tmp_path / "bits2"
    save_dataset(generate_dataset(TaskConfig(n_bits=2, t_steps=60, delay_steps=5,
                                             seed=5), 3), two_bits)
    return checkpoint_args(tmp_path, data, "eval", "--checkpoint", "CKPT",
                           "--data", two_bits)


def gen_over_a_file(tmp_path, _data):
    (tmp_path / "taken").write_text("")
    return gen_args(tmp_path / "taken")


def eval_out_a_directory(tmp_path, data):
    (tmp_path / "m").mkdir()
    return checkpoint_args(tmp_path, data, "eval", "--checkpoint", "CKPT",
                           "--data", data, "--out", tmp_path / "m")


def config_holding_a_list(tmp_path, _data):
    (tmp_path / "list.json").write_text("[3, 64]")
    return ["--config", tmp_path / "list.json", "gen", "--out", tmp_path / "d"]


@pytest.mark.parametrize("make_args, message", [
    pytest.param(lambda tmp_path, _data: ["gen", "--out", tmp_path / "d", "--config"],
                 "--config", id="config-without-file"),
    pytest.param(config_holding_a_list, "table of flags", id="config-not-a-table"),
    pytest.param(lambda tmp_path, _data: config_file_args(
        tmp_path, {"samples": 4.5}, "gen", "--out", tmp_path / "d"),
                 "--samples", id="config-float-for-int-flag"),
    pytest.param(lambda tmp_path, _data: config_file_args(
        tmp_path, {"samples": True}, "gen", "--out", tmp_path / "d"),
                 "'samples' takes a number or text", id="config-bool-for-number"),
    pytest.param(lambda tmp_path, data: config_file_args(
        tmp_path, {"bias": 1}, "train", "--data", data, "--units", 4,
        "--out", tmp_path / "t"),
                 "'bias' takes true or false", id="config-number-for-switch"),
    pytest.param(lambda tmp_path, _data: config_file_args(
        tmp_path, {"sample": 3, "steps": 64}, "gen", "--out", tmp_path / "d"),
                 "'sample' is a flag of no command", id="config-unknown-key"),
    pytest.param(two_bit_data_on_three_input_checkpoint, "x must be [batch, t, 3]",
                 id="eval-bits-mismatch"),
    pytest.param(gen_over_a_file, "File exists", id="gen-out-is-a-file"),
    pytest.param(eval_out_a_directory, "Is a directory", id="eval-out-is-a-directory"),
    pytest.param(lambda tmp_path, _data: gen_args(tmp_path / "d", noise="nan"),
                 "noise_std", id="nan-noise"),
    pytest.param(lambda tmp_path, _data: gen_args(tmp_path / "d", pulse_amp="inf"),
                 "pulse_amp", id="infinite-pulse-amp"),
    pytest.param(lambda tmp_path, data: ["train", "--data", data, "--units", 4,
                                         "--lr", "nan", "--out", tmp_path / "t"],
                 "learning_rate", id="nan-learning-rate"),
    pytest.param(lambda tmp_path, data: ["train", "--data", data, "--units", 4,
                                         "--tau", "inf", "--out", tmp_path / "t"],
                 "tau and dt must be finite", id="infinite-tau"),
    pytest.param(manifest_with_nan_tau, "tau and dt must be finite",
                 id="nan-tau-in-manifest"),
    pytest.param(lambda tmp_path, data: checkpoint_args(
        tmp_path, data, "spectrum", "--checkpoint", "CKPT", "--eps", -2,
        "--out", tmp_path / "spec"),
                 "eps_circle", id="negative-spectrum-eps"),
    pytest.param(lambda tmp_path, data: ["train", "--data", data, "--units", 4,
                                         "--eval-fraction", -0.5,
                                         "--out", tmp_path / "t"],
                 "eval_fraction", id="negative-eval-fraction"),
    pytest.param(lambda tmp_path, data: ["train", "--data", data, "--units", 4,
                                         "--clip", -1, "--out", tmp_path / "t"],
                 "grad_clip_norm", id="negative-clip"),
    pytest.param(lambda tmp_path, data: ["train", "--data", data, "--units", 4,
                                         "--clip", "nan", "--out", tmp_path / "t"],
                 "grad_clip_norm", id="nan-clip"),
    pytest.param(lambda tmp_path, data: ["train", "--data", data, "--units", 4,
                                         "--checkpoint-every", -1,
                                         "--out", tmp_path / "t"],
                 "--checkpoint-every", id="negative-checkpoint-every"),
    pytest.param(lambda tmp_path, data: checkpoint_args(
        tmp_path, data, "eval", "--checkpoint", "CKPT", "--pad", -100),
                 "transition_pad", id="negative-pad"),
    pytest.param(lambda tmp_path, data: checkpoint_args(
        tmp_path, data, "cube", "--checkpoint", "CKPT", "--margin", -5,
        "--out", tmp_path / "cube"),
                 "hold_margin", id="negative-cube-margin"),
    pytest.param(lambda tmp_path, data: checkpoint_args(
        tmp_path, data, "compare", "--checkpoints", "CKPT", "CKPT", "--margin", -1,
        "--out", tmp_path / "cmp"),
                 "hold_margin", id="negative-compare-margin"),
    pytest.param(manifest_with_float_n_units, "'n_units' must be int",
                 id="float-n-units-in-manifest"),
    pytest.param(manifest_with_huge_n_units, "expected (1000000000000, 3)",
                 id="huge-n-units-in-manifest"),
    pytest.param(dataset_with_fractional_delay, "'delay_steps' must be int",
                 id="fractional-delay-in-dataset"),
    pytest.param(lambda tmp_path, _data: ["eval", "--checkpoint", tmp_path,
                                          "--probe", tmp_path],
                 "--probe", id="probe-flag-removed"),
    pytest.param(lambda tmp_path, _data: ["gradcheck", "--batch", 0],
                 "batch", id="gradcheck-empty-batch"),
    pytest.param(lambda tmp_path, _data: ["gradcheck", "--trials", 0],
                 "trials", id="gradcheck-no-trials"),
    pytest.param(manifest_with_relu_activation, "relu", id="relu-activation"),
    pytest.param(manifest_with_unknown_model_key, "n_layers", id="unknown-model-key"),
    pytest.param(manifest_without_n_units, "n_units", id="missing-model-key"),
    pytest.param(dataset_with_unknown_task_key, "n_channels",
                 id="unknown-task-key-in-dataset"),
    pytest.param(manifest_with_unknown_task_key, "n_channels",
                 id="unknown-task-key-in-manifest"),
])
def test_bad_input_exits_2(tmp_path, small_data, make_args, message, capsys):
    assert exit_code(*make_args(tmp_path, small_data)) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp*"))


@pytest.mark.parametrize("values, command, message", [
    ({"pad": "x"}, ["eval", "--checkpoint", "x"], "invalid int value for --pad: 'x'"),
    ({"pad": float("nan")}, ["eval", "--checkpoint", "x"],
     "invalid int value for --pad: nan"),
    ({"units": "x"}, ["gradcheck"], "invalid int value for --units: 'x'"),
])
def test_config_value_its_flag_rejects_returns_2(tmp_path, capsys, values, command,
                                                  message):
    # main returns 2 and raises nothing: no SystemExit from argparse
    assert run_cli(*config_file_args(tmp_path, values, *command)) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    """A 4-unit checkpoint and its manifest's model section."""
    ckpt = tmp_path_factory.mktemp("fuzz") / "ckpt"
    cfg = ModelConfig(n_units=4)
    save_checkpoint(ckpt, init_params(cfg, SeededRng(1)), cfg)
    return ckpt, json.loads((ckpt / "manifest.json").read_text())["model"]


MODEL_KEYS = st.sampled_from(sorted(dataclasses.asdict(ModelConfig(n_units=1))))
# any JSON scalar or short list, and values next to the valid ones
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=4), st.lists(st.integers(), max_size=2),
                        st.sampled_from([0, 1, 3, 4, 4.0, 0.5, 1.0, "4"]))


@settings(max_examples=150, deadline=None)
@given(changed=st.dictionaries(MODEL_KEYS, JSON_VALUES, max_size=3),
       dropped=st.sets(MODEL_KEYS, max_size=2))
def test_fuzzed_model_manifest_exits_0_or_2(small_ckpt, changed, dropped):
    ckpt, model = small_ckpt
    model = {k: v for k, v in model.items() if k not in dropped} | changed
    (ckpt / "manifest.json").write_text(json.dumps({"model": model}))
    assert run_cli("spectrum", "--checkpoint", ckpt, "--out", ckpt / "spec") in (0, 2)


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory, small_data):
    """A copy of small_data's tensors, its config.json as a dict, and a
    4-unit checkpoint to evaluate on it."""
    root = tmp_path_factory.mktemp("fuzz_data")
    for name in ("x.rnt", "y.rnt"):
        (root / name).write_bytes((small_data / name).read_bytes())
    cfg = ModelConfig(n_units=4)
    save_checkpoint(root / "ckpt", init_params(cfg, SeededRng(1)), cfg)
    return root, json.loads((small_data / "config.json").read_text())


TASK_KEYS = st.sampled_from(sorted(dataclasses.asdict(TaskConfig())))
# JSON_VALUES plus non-finite, negative and fractional numbers, and floats
# equal to an int field's valid value
TASK_VALUES = st.one_of(JSON_VALUES, st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -1, -0.5, 0.0, 1e300, 10 ** 20,
     2 ** 63, 3.0, 4.0, 5.0, 8, 20, 20.5, 60, 60.0]))


@settings(max_examples=120, deadline=None)
@given(changed=st.dictionaries(TASK_KEYS, TASK_VALUES, max_size=3),
       dropped=st.sets(TASK_KEYS, max_size=2))
def test_fuzzed_dataset_config_exits_0_or_2(fuzz_data, changed, dropped):
    root, task = fuzz_data
    task = {k: v for k, v in task.items() if k not in dropped} | changed
    (root / "config.json").write_text(json.dumps(task))
    assert run_cli("eval", "--checkpoint", root / "ckpt", "--data", root) in (0, 2)


@pytest.fixture(scope="module")
def config_root(tmp_path_factory):
    """A directory holding a 3-trial dataset ``data`` and a checkpoint
    ``ckpt`` for the fuzzed --config runs, which run in it."""
    root = tmp_path_factory.mktemp("fuzz_config")
    task_cfg = TaskConfig(t_steps=40, delay_steps=5, seed=13)
    save_dataset(generate_dataset(task_cfg, 3), root / "data")
    write_latch_checkpoint(root / "ckpt", task_cfg)
    return root


# the flags of gradcheck and eval, the two commands the fuzz runs
CONFIG_KEYS = st.sampled_from(["units", "steps", "trials", "batch", "seed",
                               "checkpoint", "data", "pad", "out"])
# JSON scalars, with integers kept small so that no gradcheck grows large
# and names that resolve inside config_root, then lists and objects of them
CONFIG_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.floats(),
              st.sampled_from([float("nan"), float("inf"), -float("inf"), 2.0,
                               "", "3", "-1", "nan", "data", "ckpt", "m.json"])),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["units", "a"]), inner, max_size=2),
    max_leaves=4)


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from([["gradcheck"], ["eval", "--checkpoint", "ckpt"]]),
       values=st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, max_size=4))
def test_fuzzed_config_file_exits_0_2_or_3(config_root, command, values):
    # main returns the code: a file value that its flag rejects exits 2
    # without a SystemExit, and any exception fails the test. The file asks
    # for 2 gradcheck trials unless it sets its own
    (config_root / "conf.json").write_text(json.dumps({"trials": 2} | values))
    cwd = os.getcwd()
    before = set(os.listdir(cwd))
    os.chdir(config_root)
    try:
        code = run_cli("--config", "conf.json", *command)
    finally:
        os.chdir(cwd)
    event(f"{command[0]} exit {code}")
    assert code in (0, 2, 3)
    assert set(os.listdir(cwd)) == before


def write_latch_checkpoint(out_dir, task_cfg):
    eye = np.eye(3)
    params = RnnParams(w_in=1000.0 * eye, w_rec=1000.0 * eye, w_out=eye,
                        b_rec=np.zeros(3), b_out=np.zeros(3))
    cfg = ModelConfig(n_units=3)
    save_checkpoint(out_dir, params, cfg,
                    {"task": dataclasses.asdict(task_cfg)})


class TestEval:
    def test_latch_checkpoint_is_perfect(self, tmp_path):
        task_cfg = TaskConfig(noise_std=0.0, seed=8)
        data_dir = tmp_path / "data"
        save_dataset(generate_dataset(task_cfg, 4), data_dir)
        ckpt = tmp_path / "latch"
        write_latch_checkpoint(ckpt, task_cfg)
        out = tmp_path / "m.json"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_dir,
                       "--out", out) == 0
        assert json.loads(out.read_text())["state_accuracy"] == 1.0

    def test_no_clean_hold_writes_null_accuracy(self, tmp_path):
        # no pulse fits in 40 steps, so no step is a clean hold
        task_cfg = TaskConfig(t_steps=40, min_gap=50, max_gap=60)
        data_dir = tmp_path / "data"
        save_dataset(generate_dataset(task_cfg, 3), data_dir)
        ckpt = tmp_path / "latch"
        write_latch_checkpoint(ckpt, task_cfg)
        out = tmp_path / "m.json"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_dir,
                       "--out", out) == 0
        assert json.loads(out.read_text())["state_accuracy"] is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_dataset_writes_nulls(self, tmp_path, capsys, monkeypatch, workers):
        # a dataset of no trials, written by hand: no chunk to run, and
        # neither metric has a number
        monkeypatch.setattr(training, "_CHUNK_WORKERS", workers)
        task_cfg = TaskConfig(t_steps=40)
        data_dir = tmp_path / "data"
        x = np.zeros((0, 40, 3))
        save_dataset(Dataset(x, x.copy(), task_cfg, []), data_dir)
        ckpt = tmp_path / "latch"
        write_latch_checkpoint(ckpt, task_cfg)
        out = tmp_path / "m.json"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_dir,
                       "--out", out) == 0
        expected = {"mse": None, "state_accuracy": None}
        assert json.loads(capsys.readouterr().out) == expected
        assert json.loads(out.read_text()) == expected

    def test_eval_on_probe_by_default(self, tmp_path):
        task_cfg = TaskConfig(noise_std=0.0, seed=9)
        ckpt = tmp_path / "latch"
        write_latch_checkpoint(ckpt, task_cfg)
        out = tmp_path / "m.json"
        assert run_cli("eval", "--checkpoint", ckpt, "--out", out) == 0
        assert json.loads(out.read_text())["state_accuracy"] == 1.0

    def test_sharded_eval_writes_the_same_bytes(self, tmp_path):
        # at one BLAS thread per call, as the benchmark runs: four 50-trial
        # chunks of a 128-unit network, run by one worker and by two at once
        data_dir = tmp_path / "data"
        save_dataset(generate_dataset(TaskConfig(t_steps=60, seed=11), 200), data_dir)
        cfg = ModelConfig(n_units=128)
        save_checkpoint(tmp_path / "ckpt", init_params(cfg, SeededRng(12)), cfg)
        code = ("import sys\n"
                "from ffrnn import cli, training\n"
                "training._CHUNK_WORKERS = int(sys.argv[1])\n"
                "print(len(training._chunk_bounds(200, 128)))\n"
                "sys.exit(cli.main(sys.argv[2:]))\n")
        env = {**with_src_on_path(), "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        written = []
        for workers in (1, 2):
            out = tmp_path / f"m{workers}.json"
            proc = subprocess.run(
                [sys.executable, "-c", code, str(workers), "eval", "--checkpoint",
                 str(tmp_path / "ckpt"), "--data", str(data_dir), "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[0] == "4"
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        ckpt = tmp_path / "bad"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text("{}")
        assert run_cli("eval", "--checkpoint", ckpt) == 2


class TestAnalysisCommands:
    @pytest.fixture()
    def fresh_ckpt(self, tmp_path):
        ckpt = tmp_path / "fresh"
        cfg = ModelConfig(n_units=24)
        params = init_params(cfg, SeededRng(10))
        save_checkpoint(ckpt, params, cfg,
                        {"task": dataclasses.asdict(TaskConfig())})
        return ckpt

    def test_spectrum_fresh_orthogonal(self, tmp_path, fresh_ckpt, capsys):
        out = tmp_path / "spec"
        assert run_cli("spectrum", "--checkpoint", fresh_ckpt, "--svg",
                       "--out", out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_outside"] == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()
        assert len(rows) == 25
        assert (out / "spectrum.svg").exists()
        assert (out / "connectivity.csv").exists()

    def test_project_row_count(self, tmp_path, fresh_ckpt, capsys):
        out = tmp_path / "proj"
        assert run_cli("project", "--checkpoint", fresh_ckpt, "--svg",
                       "--out", out) == 0
        summary = json.loads(capsys.readouterr().out)
        rows = (out / "projection.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == summary["points"]
        assert summary["points"] == 600 - summary["start_step"]
        assert (out / "projection_pc1_pc2.svg").exists()
        assert (out / "projection_pc1_pc3.svg").exists()

    def test_cube_report_written(self, tmp_path, fresh_ckpt):
        out = tmp_path / "cube"
        assert run_cli("cube", "--checkpoint", fresh_ckpt, "--out", out) == 0
        report = json.loads((out / "cube_report.json").read_text())
        assert "separation_ratio" in report
        assert "state_labels" in report

    def test_compare_rotated_latches(self, tmp_path):
        task_cfg = TaskConfig(noise_std=0.0, seed=13)
        meta = {"task": dataclasses.asdict(task_cfg)}
        cfg = ModelConfig(n_units=3)
        eye, k = np.eye(3), 1000.0
        # permuting which unit latches which channel rotates the cube while
        # keeping the outputs perfect
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        a, b = tmp_path / "a", tmp_path / "b"
        save_checkpoint(a, RnnParams(k * eye, k * eye, eye, np.zeros(3),
                                     np.zeros(3)), cfg, meta)
        save_checkpoint(b, RnnParams(k * perm, k * eye, perm.T, np.zeros(3),
                                     np.zeros(3)), cfg, meta)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--checkpoints", a, b, "--out", out) == 0
        report = json.loads((out / "compare_report.json").read_text())
        # projection is variance-aligned, so a permuted latch lands on the
        # same cube coordinates: both distances collapse
        pair = report["pairwise"][0]
        assert pair["procrustes_residual"] <= 1e-6
        assert pair["raw_diff"] <= 1e-6
        assert len(report["per_report"]) == 2


class TestGradcheckCommand:
    def test_passes_with_defaults(self, capsys):
        assert run_cli("gradcheck", "--trials", 3) == 0
        assert "PASS" in capsys.readouterr().out

    def test_single_step_passes(self):
        assert run_cli("gradcheck", "--steps", 1, "--trials", 2) == 0

    def test_oversized_units_exit_2(self):
        assert run_cli("gradcheck", "--units", 32) == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ffrnn.cli", "gen", "--samples", "2",
             "--steps", "60", "--seed", "77", "--out", str(tmp_path / "d")],
            env=with_src_on_path(), capture_output=True, text=True)
        assert proc.returncode == 0
        cfg = json.loads((tmp_path / "d" / "config.json").read_text())
        assert cfg["seed"] == 77

    def test_config_file_defaults(self, tmp_path):
        cfg_file = tmp_path / "conf.json"
        cfg_file.write_text(json.dumps({"samples": 3, "steps": 64}))
        out = tmp_path / "d"
        assert run_cli("--config", cfg_file, "gen", "--out", out) == 0
        raw = (out / "x.rnt").read_bytes()
        _, _, s, t, _ = struct.unpack_from("<5I", raw, 4)
        assert (s, t) == (3, 64)

    def test_abbreviated_config_flag(self, tmp_path):
        # argparse takes --conf for --config, and the file must count then too
        cfg_file = tmp_path / "conf.json"
        cfg_file.write_text(json.dumps({"samples": 3, "steps": 64, "noise": 0}))
        assert run_cli("--conf", cfg_file, "gen", "--out", tmp_path / "d") == 0
        assert load_dataset(tmp_path / "d").x.shape == (3, 64, 3)
        # a flag on the command line wins over the file
        assert run_cli("--conf", cfg_file, "gen", "--samples", 2,
                       "--out", tmp_path / "e") == 0
        assert load_dataset(tmp_path / "e").x.shape == (2, 64, 3)

    def test_config_key_of_another_command(self, tmp_path):
        # one file can serve several commands: gen leaves train's --units be
        cfg_file = tmp_path / "conf.json"
        cfg_file.write_text(json.dumps({"units": 8, "samples": 3, "steps": 64}))
        assert run_cli("--config", cfg_file, "gen", "--out", tmp_path / "d") == 0
        assert load_dataset(tmp_path / "d").x.shape == (3, 64, 3)

    def test_config_switch(self, tmp_path, small_data):
        cfg_file = tmp_path / "conf.json"
        cfg_file.write_text(json.dumps({"bias": True, "units": 4, "epochs": 0}))
        out = tmp_path / "ckpt"
        assert run_cli("--config", cfg_file, "train", "--data", small_data,
                       "--out", out) == 0
        _, cfg, _ = load_checkpoint(out)
        assert cfg == ModelConfig(n_units=4, use_bias=True)

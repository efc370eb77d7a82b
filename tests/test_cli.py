import contextlib
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile

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
from ffrnn.tensorio import read_tensor, sha256_file, write_tensor
from oracles import build_dataset

# a numpy warning that reaches the CLI user's stderr is a fault of its own
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    def test_file_bytes_are_pinned(self, tmp_path):
        # recorded when the targets were still float64 in memory: int8
        # targets write the same float32 bytes
        out = tmp_path / "d"
        assert run_cli("gen", "--samples", 64, "--seed", 2025, "--out", out) == 0
        assert [sha256_file(out / name) for name in ("x.rnt", "y.rnt")] == [
            "87b6b9852ea7cc2fc13aecdc82d8dd6a5e487166ebc6cd9b7fd32267629d3f5c",
            "254f72afc77c30cce83a20968f5d185a692482b90e5934a2729e7a0918e7acbc"]

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
        data_dir = tmp_path / "nan_data"
        save_dataset(generate_dataset(cfg, 8), data_dir)
        # save_dataset refuses a NaN input, and load_dataset a NaN target
        x = read_tensor(data_dir / "x.rnt")
        x[:, 30, 0] = np.nan
        write_tensor(data_dir / "x.rnt", x)
        out = tmp_path / "out"
        code = run_cli("train", "--data", data_dir, "--units", 8,
                       "--epochs", 1, "--batch", 4, "--out", out)
        assert code == 3
        assert ("training diverged in epoch 0: non-finite activations at step 30"
                in capsys.readouterr().err)
        # last good parameters (the initialization) were still checkpointed
        params, _, manifest = load_checkpoint(out)
        assert manifest["diverged_at_epoch"] == 0
        assert np.isfinite(params.w_rec).all()

    @pytest.mark.parametrize("epochs, every", [(1, 0), (2, 0), (2, 1)])
    def test_runaway_rate_exits_3_with_no_nonfinite_checkpoint(self, tmp_path, capsys,
                                                               epochs, every):
        # at rate 1e300 the weights after the first update overflow float32:
        # the loss of those weights is measured by the next epoch's first
        # batch, or after the last epoch by the held-out evaluation
        cfg = TaskConfig(t_steps=60, delay_steps=5, pulse_width=4,
                         min_gap=8, max_gap=20, seed=5)
        save_dataset(generate_dataset(cfg, 24), tmp_path / "data")
        out = tmp_path / "out"
        code = run_cli("train", "--data", tmp_path / "data", "--units", 4,
                       "--epochs", epochs, "--lr", "1e300",
                       "--checkpoint-every", every, "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert not (out / "epoch_0000" / "manifest.json").exists()
        if every:   # the epoch checkpoint of the runaway weights is skipped
            assert "epoch 0: checkpoint skipped: w_in holds a value that float32" in err
        assert f"training diverged in epoch {epochs - 1}: non-finite" in err
        params, _, manifest = load_checkpoint(out)
        assert manifest["diverged_at_epoch"] == epochs - 1
        for value in params.as_dict().values():
            assert np.isfinite(value).all()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("value", [np.nan, 0.5, 2.0])
    def test_target_outside_the_states_exits_2(self, tmp_path, capsys, small_data,
                                                command, value):
        # a target is -1, 0 or +1; anything else in y.rnt is refused on load
        data_dir = tmp_path / "bad_targets"
        data_dir.mkdir()
        for name in ("x.rnt", "config.json"):
            (data_dir / name).write_bytes((small_data / name).read_bytes())
        y = read_tensor(small_data / "y.rnt")
        y[3, 40, 1] = value
        write_tensor(data_dir / "y.rnt", y)
        out = tmp_path / "out"
        if command == "train":
            args = ["train", "--data", data_dir, "--units", 4, "--epochs", 1,
                    "--out", out]
        else:
            ckpt = tmp_path / "ckpt"
            cfg = ModelConfig(n_units=4)
            save_checkpoint(ckpt, init_params(cfg, SeededRng(1)), cfg)
            args = ["eval", "--checkpoint", ckpt, "--data", data_dir, "--out", out]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert f"y.rnt: targets must be -1, 0 or +1, found {value!r} at (3, 40, 1)" in err
        assert not out.exists()

    @pytest.mark.parametrize("samples, fraction, held_out, label", [
        (8, "0.05", 0, "training-set"),    # 0.4 trials round to none
        (24, "0", 0, "training-set"),
        (24, "0.05", 1, "held-out"),
        (24, "0.5", 12, "held-out"),
    ])
    def test_report_names_the_trials_it_scored(self, tmp_path, capsys, samples,
                                               fraction, held_out, label):
        # with no trial held out, the final metrics score the training set
        # and say so, on the console and in the manifest
        data_dir = tmp_path / "data"
        assert run_cli("gen", "--samples", samples, "--out", data_dir) == 0
        out = tmp_path / "ckpt"
        capsys.readouterr()
        assert run_cli("train", "--data", data_dir, "--units", 8, "--epochs", 1,
                       "--eval-fraction", fraction, "--out", out) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith(f"{label} mse "), last
        final = load_checkpoint(out)[2]["final_eval"]
        assert sorted(final) == ["held_out_trials", "mse", "state_accuracy"]
        assert final["held_out_trials"] == held_out

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


def manifest_with_pulse_amp(tmp_path, amp):
    """``project`` on a 4-unit checkpoint whose task section sets
    pulse_amp to the JSON integer ``amp``."""
    ckpt = tmp_path / "odd"
    cfg = ModelConfig(n_units=4)
    save_checkpoint(ckpt, init_params(cfg, SeededRng(1)), cfg,
                    {"task": {"pulse_amp": amp}})
    return ["project", "--checkpoint", ckpt, "--out", tmp_path / "proj"]


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
    pytest.param(lambda tmp_path, _data: gen_args(tmp_path / "d", pulse_amp="1e300"),
                 "x.rnt: an input that float32 cannot hold", id="pulse-amp-beyond-float32"),
    pytest.param(lambda tmp_path, _data: gen_args(tmp_path / "d", noise="1e39"),
                 "x.rnt: an input that float32 cannot hold", id="noise-beyond-float32"),
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
    pytest.param(lambda tmp_path, _data: manifest_with_pulse_amp(tmp_path, 10 ** 400),
                 "'pulse_amp' is beyond the float range", id="pulse-amp-beyond-float"),
    pytest.param(dataset_with_fractional_delay, "'delay_steps' must be int",
                 id="fractional-delay-in-dataset"),
    pytest.param(lambda tmp_path, _data: ["eval", "--checkpoint", tmp_path,
                                          "--probe", tmp_path],
                 "--probe", id="probe-flag-removed"),
    pytest.param(lambda tmp_path, _data: ["gradcheck", "--batch", 0],
                 "batch", id="gradcheck-empty-batch"),
    pytest.param(lambda tmp_path, _data: ["gradcheck", "--trials", 0],
                 "trials", id="gradcheck-no-trials"),
    pytest.param(manifest_with_relu_activation, "activation", id="relu-activation"),
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


@st.composite
def gen_flags(draw):
    """Valid ``gen`` flags, or flags with one value that TaskConfig
    rejects."""
    width, delay = draw(st.integers(1, 12)), draw(st.integers(0, 30))
    min_gap = draw(st.integers(0, 60))
    flags = {"samples": draw(st.integers(1, 70)), "bits": draw(st.integers(1, 4)),
             "steps": width + delay + draw(st.integers(1, 80)),
             "pulse_width": width, "delay": delay, "min_gap": min_gap,
             "max_gap": min_gap + draw(st.integers(0, 60)),
             "noise": draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))}
    bad = {"bits": 0, "pulse_width": 0, "delay": -1, "min_gap": -1,
           "max_gap": min_gap - 1, "steps": width + delay, "noise": -0.05}
    key = draw(st.sampled_from([None] * len(bad) + sorted(bad)))
    return flags | ({key: bad[key]} if key else {})


@settings(max_examples=80, deadline=None)
@given(flags=gen_flags())
def test_fuzzed_gen_exits_0_with_reference_data_or_2(flags):
    try:
        cfg = TaskConfig(n_bits=flags["bits"], t_steps=flags["steps"],
                         pulse_width=flags["pulse_width"], min_gap=flags["min_gap"],
                         max_gap=flags["max_gap"], noise_std=flags["noise"],
                         delay_steps=flags["delay"], seed=9)
    except ValueError:
        cfg = None
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "d")
        # --flag=value, so that argparse reads a value such as -1e-05 as one
        code = run_cli("gen", "--out", out, "--seed", 9,
                       *(f"--{k.replace('_', '-')}={v}" for k, v in flags.items()))
        event(f"gen exit {code}")
        if cfg is None:
            assert code == 2
            return
        assert code == 0
        x, y, _ = build_dataset(cfg, flags["samples"])
        npt.assert_array_equal(read_tensor(os.path.join(out, "x.rnt")),
                               x.astype(np.float32))
        npt.assert_array_equal(read_tensor(os.path.join(out, "y.rnt")), y)


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


@pytest.fixture(scope="module")
def analysis_root(tmp_path_factory):
    """A directory holding ``ckpt``, an untrained 8-unit checkpoint with the
    default task, for the fuzzed analysis commands to write beside."""
    root = tmp_path_factory.mktemp("fuzz_analysis")
    cfg = ModelConfig(n_units=8)
    save_checkpoint(root / "ckpt", init_params(cfg, SeededRng(3)), cfg,
                    {"task": dataclasses.asdict(TaskConfig())})
    return root


def captured_cli(*args):
    """(exit code, stdout, stderr) of one run of ``exit_code``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(*args)
    return code, out.getvalue(), err.getvalue()


def margin_value(text):
    """The hold margin that ``--margin=text`` asks for, or None if argparse
    or ``memory_states`` rejects it."""
    try:
        margin = int(text)
    except ValueError:
        return None
    return margin if margin >= 0 else None


# margins of every size and sign, and text that --margin does not take;
# at margin 100 or more no state of the probe holds that long
MARGINS = st.one_of(st.integers(-2, 120), st.integers(),
                    st.sampled_from(["1.5", "", "x", "1e3", "nan", "-0", "10" * 12]))


@settings(max_examples=30, deadline=None)
@given(margin=MARGINS)
def test_fuzzed_cube_margin_exits_0_or_2(analysis_root, margin):
    # an incomplete cube has no metric: null on stdout and in the report
    out = analysis_root / "cube"
    code, stdout, stderr = captured_cli("cube", "--checkpoint", analysis_root / "ckpt",
                                        f"--margin={margin}", "--out", out)
    assert "Traceback" not in stderr
    assert code == (2 if margin_value(str(margin)) is None else 0), stderr
    if code == 2:
        return
    summary = json.loads(stdout)
    report = json.loads((out / "cube_report.json").read_text())
    event(f"cube complete {summary['complete']}")
    assert summary["complete"] == (report["missing_states"] == [])
    if not summary["complete"]:
        assert summary["separation_ratio"] is None
        for key in ("edge_group", "face_group", "body_group",
                    "within_state_spread", "separation_ratio"):
            assert report[key] is None, key


@settings(max_examples=20, deadline=None)
@given(margin=MARGINS)
def test_fuzzed_compare_margin_exits_0_or_2(analysis_root, margin):
    # two copies of one checkpoint: complete cubes align with no residual,
    # and incomplete ones are refused with exit 2
    ckpt = analysis_root / "ckpt"
    code, stdout, stderr = captured_cli("compare", "--checkpoints", ckpt, ckpt,
                                        f"--margin={margin}",
                                        "--out", analysis_root / "compare")
    event(f"compare exit {code}")
    assert "Traceback" not in stderr
    assert code in (0, 2)
    if code == 0:
        (pair,) = json.loads(stdout)
        assert pair["raw_diff"] == 0.0 and pair["procrustes_residual"] <= 1e-9
    elif margin_value(str(margin)) is not None:
        assert "missing states" in stderr


@settings(max_examples=20, deadline=None)
@given(eps=st.one_of(st.floats(), st.sampled_from(["", "x", "1e400", "-0.0"])))
def test_fuzzed_spectrum_eps_exits_0_or_2(analysis_root, eps):
    code, stdout, stderr = captured_cli("spectrum", "--checkpoint", analysis_root / "ckpt",
                                        f"--eps={eps}", "--out", analysis_root / "spec")
    assert "Traceback" not in stderr
    try:
        valid = 0 <= float(eps) < math.inf
    except ValueError:
        valid = False
    assert code == (0 if valid else 2), stderr
    if valid:
        assert 0 <= json.loads(stdout)["n_outside"] <= 8


# floats of every kind for the float flags, and values next to the edges
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(["", "x", "1e400", "-0.0"]))


@st.composite
def train_cases(draw):
    """A tiny dataset's task config and sample count, and valid ``train``
    flags at 2-4 units and 1 epoch, or with one flag at an edge: a value
    that a config rejects, one that may diverge, or any float."""
    width, delay = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    min_gap = draw(st.integers(0, 15))
    task = TaskConfig(n_bits=draw(st.integers(1, 3)), t_steps=draw(st.integers(20, 40)),
                      pulse_width=width, delay_steps=delay, min_gap=min_gap,
                      max_gap=min_gap + draw(st.integers(0, 20)),
                      noise_std=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 99)))
    flags = {"units": draw(st.integers(2, 4)), "epochs": 1,
             "batch": draw(st.integers(1, 9)), "lr": draw(st.floats(0.0, 0.1)),
             "tau": 1.0, "dt": draw(st.sampled_from([1.0, 0.5])),
             "clip": draw(st.floats(0.0, 10.0)), "seed": draw(st.integers(0, 2 ** 64 - 1)),
             "eval_fraction": draw(st.floats(0.0, 0.99)),
             "checkpoint_every": draw(st.integers(0, 2))}
    edges = {"units": [0, -1, "3.5"], "epochs": [0, -1], "batch": [0, -3],
             "lr": [1e300, -1e-3, "nan", "inf"], "tau": [0.0, 1e-300, 0.25, "nan"],
             "dt": [5e-324, 3.0, "-inf"], "clip": [-1.0, "nan", "inf"],
             "seed": [-1, 2 ** 64], "eval_fraction": [1.0, -0.1, "nan"],
             "checkpoint_every": [-1]}
    key = draw(st.sampled_from([None] * 4 + sorted(edges)))
    if key:
        edge = st.sampled_from(edges[key])
        flags[key] = draw(edge | ANY_FLOAT if isinstance(flags[key], float) else edge)
    return task, draw(st.integers(4, 8)), flags, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(case=train_cases())
def test_fuzzed_train_exits_0_2_or_3(tmp_path_factory, case):
    task, samples, flags, bias = case
    root = tmp_path_factory.mktemp("fuzz_train")
    save_dataset(generate_dataset(task, samples), root / "data")
    code, _, stderr = captured_cli(
        "train", "--data", root / "data", "--out", root / "ckpt",
        *(["--bias"] if bias else []),
        # --flag=value, so that argparse reads a value such as -1 as one
        *(f"--{k.replace('_', '-')}={v}" for k, v in flags.items()))
    event(f"train exit {code}")
    assert "Traceback" not in stderr
    assert code in (0, 2, 3), stderr
    if code == 0:
        assert load_checkpoint(root / "ckpt")[2]["final_eval"]["held_out_trials"] >= 0


@pytest.fixture(scope="module")
def project_root(tmp_path_factory):
    """A 3-unit checkpoint ``ckpt`` with the default task, and its manifest."""
    root = tmp_path_factory.mktemp("fuzz_project")
    cfg = ModelConfig(n_units=3)
    save_checkpoint(root / "ckpt", init_params(cfg, SeededRng(4)), cfg,
                    {"task": dataclasses.asdict(TaskConfig())})
    return root, json.loads((root / "ckpt" / "manifest.json").read_text())


@settings(max_examples=100, deadline=None)
@given(changed=st.dictionaries(TASK_KEYS, TASK_VALUES, max_size=3),
       dropped=st.sets(TASK_KEYS, max_size=2), svg=st.booleans())
def test_fuzzed_project_task_section_exits_0_or_2(project_root, changed, dropped, svg):
    # the probe comes from the manifest's task section; a section that
    # TaskConfig or the probe's schedule refuses exits 2
    root, manifest = project_root
    task = {k: v for k, v in manifest["task"].items() if k not in dropped} | changed
    (root / "ckpt" / "manifest.json").write_text(json.dumps(manifest | {"task": task}))
    out = root / "proj"
    code, stdout, stderr = captured_cli("project", "--checkpoint", root / "ckpt",
                                        *(["--svg"] if svg else []), "--out", out)
    event(f"project exit {code}")
    assert "Traceback" not in stderr
    assert code in (0, 2), stderr
    if code == 0:
        rows = (out / "projection.csv").read_text().strip().splitlines()
        assert len(rows) == json.loads(stdout)["points"] + 1


@pytest.fixture(scope="module")
def cube_root(tmp_path_factory):
    """Two 3-unit checkpoints ``a`` and ``b`` with the default task, and
    their manifests."""
    root = tmp_path_factory.mktemp("fuzz_cube")
    cfg = ModelConfig(n_units=3)
    for seed, name in ((5, "a"), (6, "b")):
        save_checkpoint(root / name, init_params(cfg, SeededRng(seed)), cfg,
                        {"task": dataclasses.asdict(TaskConfig())})
    return root, json.loads((root / "a" / "manifest.json").read_text())


@settings(max_examples=100, deadline=None)
@given(changed=st.lists(st.dictionaries(TASK_KEYS, TASK_VALUES, max_size=3),
                        min_size=2, max_size=2),
       dropped=st.sets(TASK_KEYS, max_size=2), margin=st.integers(0, 80))
def test_fuzzed_cube_and_compare_task_section_exit_0_or_2(cube_root, changed, dropped,
                                                          margin):
    # each checkpoint's probe comes from its own manifest's task section; a
    # section that TaskConfig or the probe's schedule refuses exits 2, and so
    # does a compare of a report with missing states
    root, manifest = cube_root
    for name, change in zip("ab", changed):
        task = {k: v for k, v in manifest["task"].items() if k not in dropped} | change
        (root / name / "manifest.json").write_text(json.dumps(manifest | {"task": task}))
    codes = []
    for args in (("cube", "--checkpoint", root / "a"),
                 ("compare", "--checkpoints", root / "a", root / "b")):
        code, _, stderr = captured_cli(*args, f"--margin={margin}", "--out", root / "out")
        event(f"{args[0]} exit {code}")
        assert "Traceback" not in stderr
        assert code in (0, 2), stderr
        codes.append(code)
    if codes[0] == 0:
        report = json.loads((root / "out" / "cube_report.json").read_text())
        assert len(report["state_labels"]) + len(report["missing_states"]) == 8
    if codes[1] == 0:   # both reports complete, so the cube of a is too
        assert codes[0] == 0 and not report["missing_states"]


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
        # at one BLAS thread per call, as the benchmark runs: two 100-trial
        # chunks of a 128-unit network, run by one worker and by two at once
        data_dir = tmp_path / "data"
        save_dataset(generate_dataset(TaskConfig(t_steps=60, seed=11), 200), data_dir)
        cfg = ModelConfig(n_units=128)
        save_checkpoint(tmp_path / "ckpt", init_params(cfg, SeededRng(12)), cfg)
        code = ("import sys\n"
                "from ffrnn import cli, training\n"
                "training._CHUNK_WORKERS = int(sys.argv[1])\n"
                "print(len(training._chunk_bounds(200, 128, training._EVAL_TRIALS)))\n"
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
            assert proc.stdout.splitlines()[0] == "2"
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

    def test_project_integer_pulse_amp(self, tmp_path):
        # a JSON integer past int64 is a float amplitude, not an overflow
        assert run_cli(*manifest_with_pulse_amp(tmp_path, 10 ** 20)) == 0

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

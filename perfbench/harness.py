"""The ffrnn benchmark: three workloads, timed end to end and per module.

Usage (from the root of a checkout; ``run.py`` pins BLAS to one thread):

    python3 perfbench/run.py --workload train-128 --seed 0 --seconds 20 --trace 0

Workloads (seed 0 reproduces the acceptance suite's pinned seeds):

- ``train-128``: the criterion-3 recipe, 2000 trials (data seed 2025+s),
  128 units (init seed 418+s), train seed 71+s, batch 128, default
  ``TrainConfig``, ``EPOCHS`` epochs. The 128x128 GEMMs of each step make
  BLAS and the backward sweep a large share of the time.
- ``train-64x4``: the criterion-6 study, four 64-unit realizations trained
  one after another on 1200 trials each, seeds (1000+4s+k, 500+4s+k,
  900+4s+k). Per-step Python overhead, not BLAS, sets the time here.
- ``cli-analyse``: the README walkthrough minus training, through
  ``ffrnn.cli.main`` in process, on four untrained 128-unit checkpoints:
  ``gen`` of 500 trials at noise 0.05 and 0.3, ``eval --data`` of every
  checkpoint on both datasets, ``spectrum``/``project``/``cube`` per
  checkpoint and one ``compare``. No BPTT or Adam runs.

A run alternates gaps of repeated set-ups (at least ``SETUP_GAP_S`` seconds
each) and whole rounds of the workload's operations, starting and ending with a
gap, until ``--seconds`` have passed, then checks every output against
``reference``. With ``--trace 1`` rounds alternate
untraced and traced, and the per-module figures are for one set-up plus one
round. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import reference as ref
from tracer import Tracer

WORKLOADS = ("train-128", "train-64x4", "cli-analyse")
OUT_DIR = "perfbench-out"
EPOCHS = 2          # the fewest that still lets the loss be seen to fall
BATCH = 128
EVAL_FRACTION = 0.05   # train()'s default held-out share
EVAL_PAD = 10          # evaluate()'s and the CLI's default transition pad
HOLD_MARGIN = 10       # memory_states()'s and the CLI's default margin
EPS_CIRCLE = 0.05      # spectrum()'s and the CLI's default
CLI_SAMPLES = 500
CLI_NETS = 4
CLI_UNITS = 128
# the noise-0.3 dataset has a fixed seed: its evaluations fail on every run
CLI_DATASETS = (("noise0.05", 0.05, 7000, True), ("noise0.3", 0.3, 7300, False))
MANIFEST_OUTPUTS = {
    "gen": {"x.rnt", "y.rnt", "config.json"},
    "spectrum": {"spectrum.csv", "connectivity.csv", "spectrum.svg"},
    "project": {"projection.csv", "projection_pc1_pc2.svg", "projection_pc1_pc3.svg"},
    "cube": {"cube_report.json"},
    "compare": {"compare_report.json"},
}
SETUP_GAP_S = 2.0      # each gap between rounds sets up for at least this long
OUTSIDE_SHARE = 0.05   # most of a traced round that may fall outside every span
FD_COORDS = 3          # sampled coordinates per weight matrix
FD_TOL = 1e-4

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trial_steps_per_s", "trial-steps/s"),
]


def _steps(x):
    shape = np.shape(x)
    return shape[0] * shape[1]


def _eval_steps(args, kwargs, _result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    x = data.x if hasattr(data, "x") else data.inputs[None]
    return {"trial_steps": _steps(x)}


def _file_bytes(args, kwargs, _result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name, counter, report self time)
TRACED = [
    ("task", "generate_dataset", "task.generate_dataset", None, False),
    ("model", "batch_forward", "model.batch_forward", None, False),
    ("model", "init_params", "model.init_params", None, False),
    ("training", "train", "training.train", None, True),
    ("training", "bptt_gradients", "training.bptt_gradients", None, False),
    ("training", "adam_update", "training.adam_update",
     lambda a, k, r: {"calls": 1}, False),
    ("training", "clip_gradients", "training.clip_gradients",
     lambda a, k, r: {"clipped": int(r is not a[0])}, False),
    ("training", "evaluate", "training.evaluate", _eval_steps, False),
    ("analysis", "spectrum", "analysis.spectrum", None, False),
    ("analysis", "collect_and_project", "analysis.collect_and_project", None, False),
    ("analysis", "memory_states", "analysis.memory_states", None, False),
    ("analysis", "compare_realizations", "analysis.compare_realizations", None, False),
    ("linalg", "eigenvalues", "linalg.eigenvalues", None, False),
    ("linalg", "pca_top_k", "linalg.pca_top_k", None, False),
    ("linalg", "orthogonal_init", "linalg.orthogonal_init", None, False),
    ("tensorio", "write_tensor", "tensorio.write_tensor", _file_bytes, False),
    ("tensorio", "read_tensor", "tensorio.read_tensor", _file_bytes, False),
    ("tensorio", "sha256_file", "tensorio.sha256_file", _file_bytes, False),
    ("svgplot", "write_spectrum_svg", "svgplot.write_spectrum_svg", None, False),
    ("svgplot", "write_projection_svg", "svgplot.write_projection_svg", None, False),
] + [("cli", f"cmd_{c}", f"cli.{c}", None, True)
     for c in ("gen", "eval", "spectrum", "project", "cube", "compare")]

COUNTS = {
    "model.batch_forward.trial_steps": "count",
    "model.batch_forward.bytes_computed": "B",
    "training.bptt_gradients.calls": "count",
    "training.bptt_gradients.trial_steps": "count",
    "training.adam_update.calls": "count",
    "training.clip_gradients.clipped": "count",
    "training.evaluate.trial_steps": "count",
    "tensorio.write_tensor.bytes": "B",
    "tensorio.read_tensor.bytes": "B",
    "tensorio.sha256_file.bytes": "B",
}


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints, in order."""
    out = []
    for _mod, _fn, span, _counter, with_self in TRACED:
        out.append((f"{span}.s", "s"))
        if with_self:
            out.append((f"{span}.self_s", "s"))
        out += [(name, unit) for name, unit in COUNTS.items()
                if name.startswith(span + ".")]
        if span == "training.bptt_gradients":
            out.append(("training.bptt_gradients.forward_ref_s", "s"))
    return out + [("trace.run_s", "s"), ("trace.outside_s", "s"),
                  ("trace.overhead_s", "s")]


def load_program(root: Path):
    """Import ``ffrnn`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ffrnn
    import ffrnn.cli  # noqa: F401  (binds every module the CLI uses)

    if Path(ffrnn.__file__).resolve().parent != src / "ffrnn":
        raise ImportError(f"ffrnn was imported from {ffrnn.__file__}, not {src}")
    return ffrnn


def _close(a, b, rel, scale=1.0):
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checks of the CLI outputs


class Problems(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)
        return bool(ok)


def probe_reference(problems, tag, probe, weights):
    """Own probe targets, settle step and hidden states.

    The probe's pulse schedule comes from the program; its inputs and
    targets are rebuilt here from that schedule and must equal the
    program's, and the forward pass is the reference one.
    """
    cfg = probe.config
    steps = probe.inputs.shape[0]
    inputs = np.zeros((steps, 3))
    for onset, channel, sign in probe.events:
        inputs[onset:onset + cfg.pulse_width, channel] = sign * cfg.pulse_amp
    targets = ref.replay_targets(probe.events, steps, 3, cfg.pulse_width,
                                 cfg.delay_steps)
    problems.expect(np.array_equal(inputs, probe.inputs)
                    and np.array_equal(targets, probe.targets),
                    f"{tag}: probe inputs or targets differ from its schedule")
    start = int(np.argmax(np.all(np.abs(targets) == 1.0, axis=1)))
    states, _ = ref.forward_steps(*weights, inputs[None], keep_states=True)
    return targets, start, states[0]


def check_spectrum(problems, tag, eigs, n_outside, w_rec, tol):
    own = np.linalg.eigvals(w_rec)
    problems.expect(ref.same_eigenvalues(eigs, own, tol),
                    f"{tag}: eigenvalues differ from numpy.linalg.eigvals")
    problems.expect(n_outside == int(np.sum(np.abs(own) > 1.0 + EPS_CIRCLE)),
                    f"{tag}: n_outside {n_outside} is wrong")
    trace = np.sum(eigs)
    problems.expect(abs(trace.real - np.trace(w_rec)) <= tol * len(eigs)
                    and abs(trace.imag) <= tol * len(eigs),
                    f"{tag}: eigenvalues do not sum to the trace")


def check_projection(problems, tag, points, ratios, components, activity, tol):
    """Orthonormal components, projections of the centred activity, variance
    ratios and per-axis variances of an SVD of the same activity."""
    centred, sing2, own_ratios = ref.principal_variances(activity, 3)
    problems.expect(np.allclose(components @ components.T, np.eye(3), atol=1e-9),
                    f"{tag}: components are not orthonormal")
    scale = float(np.abs(points).max())
    problems.expect(np.allclose(points, centred @ components.T, rtol=0,
                                atol=tol * scale),
                    f"{tag}: points are not the centred activity on the components")
    problems.expect(np.allclose(ratios, own_ratios, rtol=tol, atol=1e-12),
                    f"{tag}: variance ratios {ratios} differ from SVD {own_ratios}")
    gram = points.T @ points
    problems.expect(np.allclose(gram, np.diag(sing2), rtol=0,
                                atol=tol * 10 * sing2[0]),
                    f"{tag}: components are not the top principal axes")


def check_cube(problems, tag, report, points, targets, start, tol):
    """``report``: dict in the layout of ``CubeReport.to_dict``."""
    mask = ref.hold_mask(targets, start, HOLD_MARGIN)[start:]
    own = ref.cube_geometry(points, targets[start:], mask)
    problems.expect([tuple(s) for s in report["state_labels"]] == own["states"],
                    f"{tag}: memory states differ")
    problems.expect(np.allclose(report["centroids"], own["centroids"], rtol=0,
                                atol=tol * float(np.abs(own["centroids"]).max())),
                    f"{tag}: centroids differ")
    for key, name in (("edge", "edge_group"), ("face", "face_group"),
                      ("body", "body_group")):
        problems.expect(_close(report[name]["mean_length"], own[key], tol),
                        f"{tag}: {name} mean differs")
    problems.expect(_close(report["within_state_spread"], own["spread"], tol),
                    f"{tag}: within-state spread differs")
    problems.expect(_close(report["separation_ratio"], own["separation"], tol),
                    f"{tag}: separation ratio differs")


def check_compare(problems, tag, pairwise, centroids, tol):
    expected = [(i, j) for i in range(len(centroids))
                for j in range(i + 1, len(centroids))]
    problems.expect([(p["i"], p["j"]) for p in pairwise] == expected,
                    f"{tag}: pairs differ")
    for p in pairwise:
        a, b = centroids[p["i"]], centroids[p["j"]]
        problems.expect(_close(p["raw_diff"], float(np.linalg.norm(a - b)), tol),
                        f"{tag}: raw_diff of {p['i']},{p['j']} differs")
        problems.expect(_close(p["procrustes_residual"],
                               ref.procrustes_residual(a, b), tol, 1e-12),
                        f"{tag}: procrustes residual of {p['i']},{p['j']} differs")


def regenerate_events(ffrnn, cfg, indices):
    task = ffrnn.task
    return [task.generate_trial(cfg, task.trial_rng(cfg, i)).events for i in indices]


def reference_eval(x, y, events, cfg, weights):
    """MSE over every step and accuracy over the event-derived clean holds."""
    masks = [ref.clean_hold_mask(ev, yi, cfg["pulse_width"], cfg["delay_steps"],
                                 EVAL_PAD) for ev, yi in zip(events, y)]
    _, z = ref.forward_steps(*weights, x)
    return float(np.mean((z - y) ** 2)), ref.state_accuracy(z, y, masks)


# ---------------------------------------------------------------------------
# workloads


@dataclasses.dataclass
class Net:
    task: object
    data: object
    model: object
    params0: object
    train_cfg: object


class TrainWorkload:
    """Train each network from its initial parameters, one after another."""

    def __init__(self, ffrnn, seeds, n_units, samples):
        self.ffrnn = ffrnn
        self.seeds = seeds
        self.n_units = n_units
        self.samples = samples
        self.n_train = samples - int(round(EVAL_FRACTION * samples))
        self.ops = len(seeds)

    def setup(self):
        f = self.ffrnn
        self.nets = []
        for data_seed, init_seed, train_seed in self.seeds:
            task = f.task.TaskConfig(seed=data_seed)
            data = f.task.generate_dataset(task, self.samples)
            model = f.model.ModelConfig(n_units=self.n_units)
            params0 = f.model.init_params(model, f.linalg.SeededRng(init_seed))
            train_cfg = f.training.TrainConfig(epochs=EPOCHS, batch_size=BATCH,
                                               seed=train_seed)
            self.nets.append(Net(task, data, model, params0, train_cfg))
        return {}

    def round(self):
        f = self.ffrnn
        trained, epochs = [], []
        for net in self.nets:
            marks = [time.perf_counter()]
            trained.append(f.training.train(
                net.params0, net.model, net.data, net.train_cfg,
                epoch_hook=lambda *_: marks.append(time.perf_counter())))
            epochs += [b - a for a, b in zip(marks, marks[1:])]
        return {"epoch": epochs}, trained

    def summarise(self, pooled):
        """Median over epochs of trained trial-steps per second."""
        steps = self.n_train * self.nets[0].task.t_steps
        return {"trial_steps_per_s": statistics.median(steps / t for t in pooled["epoch"])}

    def fingerprint(self, trained):
        return json.dumps([(_digest(*p.as_dict().values()), r.loss_per_epoch,
                            dataclasses.asdict(r.final_eval)) for p, r in trained])

    def check(self, trained):
        f = self.ffrnn
        problems = Problems()
        for k, (net, (params, report)) in enumerate(zip(self.nets, trained)):
            tag = f"net {k}"
            problems.expect(all(np.isfinite(v).all()
                                for v in params.as_dict().values()),
                            f"{tag}: trained parameters are not finite")
            losses = report.loss_per_epoch
            problems.expect(len(losses) == EPOCHS and losses[-1] < losses[0],
                            f"{tag}: epoch losses {losses} did not fall")

            held = range(self.n_train, self.samples)
            events = regenerate_events(f, net.task, held)
            x, y = net.data.x[self.n_train:], net.data.y[self.n_train:]
            cfg = dataclasses.asdict(net.task)
            problems.expect(all(np.array_equal(
                ref.replay_targets(ev, cfg["t_steps"], cfg["n_bits"],
                                   cfg["pulse_width"], cfg["delay_steps"]), yi)
                for ev, yi in zip(events, y)), f"{tag}: targets differ from replay")
            mse, acc = reference_eval(x, y, events, cfg, (
                params.w_in, params.w_rec, params.w_out, params.b_rec, params.b_out,
                net.model.alpha))
            problems.expect(_close(report.final_eval.mse, mse, 1e-9),
                            f"{tag}: final_eval mse {report.final_eval.mse} != {mse}")
            problems.expect(acc is not None and
                            abs(report.final_eval.state_accuracy - acc) <= 1e-12,
                            f"{tag}: final_eval accuracy "
                            f"{report.final_eval.state_accuracy} != {acc}")

            self._check_gradients(problems, tag, net)
        return 0, problems

    def _check_gradients(self, problems, tag, net):
        """bptt_gradients against central differences of an own loss on the
        first training batch, at sampled coordinates of each weight matrix."""
        f = self.ffrnn
        x, y = net.data.x[:BATCH], net.data.y[:BATCH]
        grads, _ = f.training.bptt_gradients(net.params0, net.model, x, y)
        p = {k: v.copy() for k, v in net.params0.as_dict().items()}

        def loss():
            _, z = ref.forward_steps(p["w_in"], p["w_rec"], p["w_out"], p["b_rec"],
                                     p["b_out"], net.model.alpha, x)
            return float(np.mean((z - y) ** 2))

        rng = np.random.default_rng(net.train_cfg.seed)
        for key in ("w_in", "w_rec", "w_out"):
            coords = rng.choice(p[key].size, FD_COORDS, replace=False)
            numeric = ref.central_differences(loss, p[key], coords)
            analytic = getattr(grads, key).reshape(-1)[coords]
            err = float(ref.relative_error(analytic, numeric).max())
            problems.expect(err <= FD_TOL,
                            f"{tag}: {key} gradient relative error {err:.2e}")
        problems.expect(not grads.b_rec.any() and not grads.b_out.any(),
                        f"{tag}: bias gradients are not zero without biases")


class CliWorkload:
    """The CLI analysis walkthrough on untrained checkpoints."""

    def __init__(self, ffrnn, seed, work):
        self.ffrnn = ffrnn
        self.work = work
        self.init_seeds = [600 + 4 * seed + k for k in range(CLI_NETS)]
        self.datasets = [(tag, noise, data_seed + (seed if seeded else 0))
                         for tag, noise, data_seed, seeded in CLI_DATASETS]
        self.ckpts = [work / "ckpt" / f"net{k}" for k in range(CLI_NETS)]
        n = len(self.ckpts)
        self.ops = len(self.datasets) * (1 + n) + 3 * n + 1

    def _cli(self, times, *argv):
        """Run one command in process; its seconds go to times[command]."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.ffrnn.cli.main([str(a) for a in argv])
        times.setdefault(argv[0], []).append(time.perf_counter() - t0)
        return code, buf.getvalue()

    def setup(self):
        f = self.ffrnn
        (self.work / "eval").mkdir(parents=True, exist_ok=True)
        for ckpt, init_seed in zip(self.ckpts, self.init_seeds):
            model = f.model.ModelConfig(n_units=CLI_UNITS)
            params = f.model.init_params(model, f.linalg.SeededRng(init_seed))
            f.model.save_checkpoint(ckpt, params, model)
        return {}

    def round(self):
        w = self.work
        ops, times = {}, {}
        for tag, noise, data_seed in self.datasets:
            ops[f"gen {tag}"] = self._cli(
                times, "gen", "--samples", CLI_SAMPLES, "--seed", data_seed,
                "--noise", noise, "--out", w / "data" / tag)
        for k, ckpt in enumerate(self.ckpts):
            for tag, _, _ in self.datasets:
                ops[f"eval {k} {tag}"] = self._cli(
                    times, "eval", "--checkpoint", ckpt, "--data", w / "data" / tag,
                    "--out", w / "eval" / f"net{k}-{tag}.json")
        for k, ckpt in enumerate(self.ckpts):
            ana = w / "ana" / f"net{k}"
            ops[f"spectrum {k}"] = self._cli(times, "spectrum", "--checkpoint", ckpt,
                                             "--svg", "--out", ana / "spectrum")
            ops[f"project {k}"] = self._cli(times, "project", "--checkpoint", ckpt,
                                            "--svg", "--out", ana / "project")
            ops[f"cube {k}"] = self._cli(times, "cube", "--checkpoint", ckpt,
                                         "--out", ana / "cube")
        ops["compare"] = self._cli(times, "compare", "--checkpoints", *self.ckpts,
                                   "--out", w / "compare")
        return times, ops

    def summarise(self, pooled):
        """Median over ``eval --data`` commands of trial-steps per second."""
        steps = CLI_SAMPLES * self.ffrnn.task.TaskConfig().t_steps
        return {"trial_steps_per_s": statistics.median(steps / t for t in pooled["eval"])}

    def _manifests(self):
        w = self.work
        dirs = {f"gen {tag}": w / "data" / tag for tag, _, _ in self.datasets}
        for k in range(len(self.ckpts)):
            for cmd in ("spectrum", "project", "cube"):
                dirs[f"{cmd} {k}"] = w / "ana" / f"net{k}" / cmd
        dirs["compare"] = w / "compare"
        return dirs

    def fingerprint(self, ops):
        w = self.work
        files = {}
        for key, d in self._manifests().items():
            with open(d / "run_manifest.json") as fh:
                files[key] = json.load(fh)["outputs"]
        for k in range(len(self.ckpts)):
            for tag, _, _ in self.datasets:
                files[f"eval {k} {tag}"] = (w / "eval" / f"net{k}-{tag}.json").read_text()
        return json.dumps([ops, files], sort_keys=True)

    def check(self, ops):
        f = self.ffrnn
        w = self.work
        problems = Problems()
        failed = set()

        @contextlib.contextmanager
        def judged(key):
            """The operation ``key`` failed if its checks added problems."""
            before = len(problems)
            yield
            if len(problems) > before:
                failed.add(key)

        for key, (code, _) in ops.items():
            with judged(key):
                problems.expect(code == 0, f"{key}: exit code {code}")

        for key, d in self._manifests().items():
            with judged(key), open(d / "run_manifest.json") as fh:
                outputs = json.load(fh)["outputs"]
                problems.expect(
                    {o["path"] for o in outputs} == MANIFEST_OUTPUTS[key.split()[0]],
                    f"{key}: manifest lists {[o['path'] for o in outputs]}")
                for o in outputs:
                    problems.expect(ref.sha256_of(d / o["path"]) == o["sha256"],
                                    f"{key}: hash of {o['path']} differs")

        data = {}
        for tag, noise, data_seed in self.datasets:
            d = w / "data" / tag
            with judged(f"gen {tag}"), open(d / "config.json") as fh:
                cfg = json.load(fh)
                x, y = ref.read_rnt(d / "x.rnt"), ref.read_rnt(d / "y.rnt")
                task = f.task.TaskConfig(**cfg)
                trials = [f.task.generate_trial(task, f.task.trial_rng(task, i))
                          for i in range(CLI_SAMPLES)]
                events = [t.events for t in trials]
                problems.expect(
                    cfg["seed"] == data_seed and cfg["noise_std"] == noise
                    and x.shape == (CLI_SAMPLES, cfg["t_steps"], cfg["n_bits"])
                    and all(np.array_equal(
                        ref.replay_targets(ev, cfg["t_steps"], cfg["n_bits"],
                                           cfg["pulse_width"], cfg["delay_steps"]), yi)
                        for ev, yi in zip(events, y))
                    and all(np.array_equal(t.inputs.astype(np.float32), xi)
                            for t, xi in zip(trials, x)),
                    f"gen {tag}: config, shape, targets or inputs differ from "
                    f"the regenerated trials")
                data[tag] = (x, y, events, cfg)

        probe = f.task.generate_probe(f.task.TaskConfig())
        cube_centroids = []
        for k, ckpt in enumerate(self.ckpts):
            with open(ckpt / "manifest.json") as fh:
                model = json.load(fh)["model"]
            weights = (ref.read_rnt(ckpt / "w_in.rnt"), ref.read_rnt(ckpt / "w_rec.rnt"),
                       ref.read_rnt(ckpt / "w_out.rnt"), np.zeros(model["n_units"]),
                       np.zeros(model["n_out"]), model["dt"] / model["tau"])
            for tag, _, _ in self.datasets:
                key = f"eval {k} {tag}"
                x, y, events, cfg = data[tag]
                got = json.loads((w / "eval" / f"net{k}-{tag}.json").read_text())
                mse, acc = reference_eval(x, y, events, cfg, weights)
                with judged(key):
                    problems.expect(_close(got["mse"], mse, 1e-9),
                                    f"{key}: mse {got['mse']} != {mse}")
                if acc is None or abs(got["state_accuracy"] - acc) > 1e-12:
                    failed.add(key)
                    # the known fault on noise0.3: the program's pulse
                    # detector, not the events, decides which steps count
                    problems.expect(tag == "noise0.3", f"{key}: accuracy "
                                    f"{got['state_accuracy']} != {acc}")

            ana = w / "ana" / f"net{k}"
            with judged(f"spectrum {k}"), open(ana / "spectrum" / "spectrum.csv",
                                               newline="") as fh:
                eigs = np.array([complex(float(r), float(i))
                                 for r, i in list(csv.reader(fh))[1:]])
                check_spectrum(problems, f"spectrum {k}", eigs,
                               json.loads(ops[f"spectrum {k}"][1])["n_outside"],
                               weights[1], 1e-6)

            with judged(f"project {k}"), open(ana / "project" / "projection.csv",
                                              newline="") as fh:
                table = np.array([[float(v) for v in r]
                                  for r in list(csv.reader(fh))[1:]])
                targets, start, states = probe_reference(problems, f"project {k}",
                                                         probe, weights)
                problems.expect(
                    np.array_equal(table[:, 0], np.arange(start, len(targets)))
                    and table[:, 4].tolist() == [ref_label(t) for t in targets[start:]],
                    f"project {k}: steps or state labels differ")
                params, model_cfg, _ = f.model.load_checkpoint(ckpt)
                components = f.analysis.collect_and_project(params, model_cfg,
                                                            probe).components
                ratios = json.loads(ops[f"project {k}"][1])["explained_variance_ratio"]
                check_projection(problems, f"project {k}", table[:, 1:4],
                                 np.array(ratios), components, states[start:], 1e-6)

            with judged(f"cube {k}"), open(ana / "cube" / "cube_report.json") as fh:
                report = json.load(fh)
                check_cube(problems, f"cube {k}", report, table[:, 1:4], targets,
                           start, 1e-6)
                cube_centroids.append(np.array(report["centroids"]))

        with judged("compare"), open(w / "compare" / "compare_report.json") as fh:
            check_compare(problems, "compare", json.load(fh)["pairwise"],
                          cube_centroids, 1e-9)
        return len(failed), problems


def ref_label(target_row):
    """Memory state 0..7 with channel 0 as the most significant bit."""
    if not np.all(np.abs(target_row) == 1.0):
        return -1
    return sum((1 << (2 - c)) for c in range(3) if target_row[c] > 0)


def make_workload(ffrnn, name, seed, work):
    if name == "train-128":
        return TrainWorkload(ffrnn, [(2025 + seed, 418 + seed, 71 + seed)], 128, 2000)
    if name == "train-64x4":
        return TrainWorkload(ffrnn, [(1000 + 4 * seed + k, 500 + 4 * seed + k,
                                      900 + 4 * seed + k) for k in range(4)],
                             64, 1200)
    return CliWorkload(ffrnn, seed, work)


# ---------------------------------------------------------------------------
# the run


def install_tracing(tracer, bptt_batches, forward_calls):
    """Wrap every function in TRACED. Each bptt_gradients call also keeps
    its (params, config, batch_x) for the forward-only reference timing, and
    each batch_forward call its arguments for the memory replay."""
    def bptt_counter(args, kwargs, result):
        bptt_batches.append(args[:3])
        return {"calls": 1, "trial_steps": _steps(args[2])}

    def forward_counter(args, kwargs, result):
        forward_calls.append((args, kwargs))
        return {"trial_steps": _steps(args[2])}

    for module, fn, span, counter, _ in TRACED:
        if span == "training.bptt_gradients":
            counter = bptt_counter
        elif span == "model.batch_forward":
            counter = forward_counter
        tracer.install("ffrnn", module, fn, span, counter)


def replay_peak_bytes(fn, calls):
    """Sum over the calls of the peak memory allocated during each, as
    ``tracemalloc`` sees it (numpy reports its arrays to it). Replayed
    outside every timed region: tracing allocations slows a call with many
    small ones, such as a long single-trial forward pass, about threefold."""
    total = 0
    for args, kwargs in calls:
        tracemalloc.start()
        fn(*args, **kwargs)
        total += tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return total


def run(ffrnn, workload_name, seed, seconds, trace, work, out_dir):
    workload = make_workload(ffrnn, workload_name, seed, work)
    tracer = Tracer() if trace else None
    bptt_batches, forward_calls = [], []   # both of the last traced round

    pooled, setup_times = {}, []

    def pool(sample):
        for key, values in sample.items():
            pooled.setdefault(key, []).extend(values)

    def set_up():
        if tracer:
            install_tracing(tracer, bptt_batches, forward_calls)
            tracer.run_id = f"setup-{len(setup_times)}"
        t0 = time.perf_counter()
        sample = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        pool(sample)

    def set_up_gap():
        """Set up again and again for at least SETUP_GAP_S seconds."""
        t0 = time.perf_counter()
        set_up()
        while time.perf_counter() - t0 < SETUP_GAP_S:
            set_up()

    # gaps of set-ups and rounds alternate, so the set-up samples span the run
    set_up_gap()
    rounds = []   # (run id or None, wall, fingerprint)
    start = time.perf_counter()
    while True:
        run_id = None
        if tracer and len(rounds) % 2 == 1:
            run_id = f"round-{len(rounds)}"
            bptt_batches.clear()
            forward_calls.clear()
            install_tracing(tracer, bptt_batches, forward_calls)
            tracer.run_id = run_id
        t0 = time.perf_counter()
        sample, result = workload.round()
        wall = time.perf_counter() - t0
        if run_id:
            tracer.uninstall()
        else:
            pool(sample)
        rounds.append((run_id, wall, workload.fingerprint(result)))
        set_up_gap()
        if time.perf_counter() - start >= seconds and (
                not tracer or len(rounds) % 2 == 0):
            break
    peak = ref.peak_rss_mb()

    failed_per_round, problems = workload.check(result)
    problems.expect(all(r[2] == rounds[0][2] for r in rounds),
                    "rounds gave different outputs")

    if not tracer:
        metrics = workload.summarise(pooled)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["run_s"] = statistics.median(r[1] for r in rounds)
        metrics["peak_rss_mb"] = peak
        units = dict(END_TO_END)
    else:
        forward_ref = 0.0
        for params, config, batch_x in bptt_batches:
            t0 = time.perf_counter()
            ffrnn.model.batch_forward(params, config, batch_x)
            forward_ref += time.perf_counter() - t0
        metrics = trace_metrics(tracer, problems, len(setup_times), rounds)
        metrics["training.bptt_gradients.forward_ref_s"] = forward_ref
        metrics["model.batch_forward.bytes_computed"] = replay_peak_bytes(
            ffrnn.model.batch_forward, forward_calls)
        units = dict(per_layer_metrics())
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{workload_name}-seed{seed}.json")

    return {
        "correct": not problems,
        "attempted": workload.ops * len(rounds),
        "failed": failed_per_round * len(rounds),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": units[name]}
                    for name in units},
    }, problems


def trace_metrics(tracer, problems, n_setups, rounds):
    """Per-layer figures for one set-up plus one traced round."""
    setup_ids = {f"setup-{i}" for i in range(n_setups)}
    traced = [r for r in rounds if r[0]]
    round_ids = {r[0] for r in traced}
    problems.expect(tracer.check_nesting(), "trace spans do not nest")
    metrics = {}
    for ids, n in ((setup_ids, len(setup_ids)), (round_ids, len(round_ids))):
        total, self_total, _ = tracer.totals(ids)
        for name in total:
            metrics[f"{name}.s"] = metrics.get(f"{name}.s", 0.0) + total[name] / n
            metrics[f"{name}.self_s"] = (metrics.get(f"{name}.self_s", 0.0)
                                         + self_total[name] / n)
        for name, amount in tracer.count_totals(ids).items():
            metrics[name] = metrics.get(name, 0.0) + amount / n
    # The self times of a round's spans add up to its time under top-level
    # spans, so with trace.outside_s they add up to trace.run_s by definition.
    # A round mostly outside every span would mean a layer went unseen.
    outside = []
    for run_id, wall, _ in traced:
        _, _, top = tracer.totals({run_id})
        outside.append(wall - top[run_id])
        problems.expect(0 <= outside[-1] <= OUTSIDE_SHARE * wall,
                        f"{run_id}: {outside[-1]:.3f} s of {wall:.3f} s "
                        f"fell outside every span")
    metrics["trace.run_s"] = statistics.mean(r[1] for r in traced)
    metrics["trace.outside_s"] = statistics.mean(outside)
    metrics["trace.overhead_s"] = (metrics["trace.run_s"]
                                   - statistics.mean(r[1] for r in rounds if not r[0]))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    try:
        ffrnn = load_program(root)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, problems = run(ffrnn, args.workload, args.seed, args.seconds,
                               args.trace, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0

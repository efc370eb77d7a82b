"""Command-line front door: gen / train / eval / spectrum / project / cube /
gradcheck / compare, wired into reproducible runs.

Exit codes: 0 success, 2 usage, input or file error, 3 numerical failure.
gen, train, spectrum, project, cube and compare write a run_manifest.json
into their output directory, listing its outputs with content hashes;
re-running with the same flags reproduces the hashed tensors bit-exactly.
eval and gradcheck print their results and write no manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    collect_and_project,
    compare_realizations,
    memory_states,
    spectrum,
    state_label_int,
    write_connectivity_csv,
    write_projection_csv,
    write_spectrum_csv,
)
from .linalg import SeededRng
from .model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from .svgplot import write_projection_svg, write_spectrum_svg
from .task import TaskConfig, generate_dataset, generate_probe, load_dataset, save_dataset
from .tensorio import config_from, dump_json, sha256_file, write_file, write_json
from .training import DivergenceError, TrainConfig, evaluate, run_gradcheck, train

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _finish(out, command, configs, seeds, outputs, start, summary) -> int:
    """Write ``out/run_manifest.json`` listing ``outputs`` with their hashes,
    print ``summary`` and return exit code 0."""
    write_json(os.path.join(out, "run_manifest.json"), {
        "command": command,
        "version": __version__,
        "configs": configs,
        "seeds": seeds,
        "wall_time_s": time.perf_counter() - start,
        "outputs": [{"path": os.path.basename(p), "sha256": sha256_file(p)}
                    for p in outputs],
    })
    print(summary)
    return 0


def _probe_for(checkpoint_dir, manifest):
    """The probe of the checkpoint's task section."""
    source = os.path.join(checkpoint_dir, "manifest.json") + " task section"
    return generate_probe(config_from(TaskConfig, manifest.get("task") or {}, source))


def _project_probe(checkpoint_dir):
    """Load the checkpoint and project its activity on its probe; returns
    (projection, probe)."""
    params, model_cfg, manifest = load_checkpoint(checkpoint_dir)
    probe = _probe_for(checkpoint_dir, manifest)
    return collect_and_project(params, model_cfg, probe), probe


def cmd_gen(args) -> int:
    start = time.perf_counter()
    config = TaskConfig(
        n_bits=args.bits, t_steps=args.steps, pulse_width=args.pulse_width,
        pulse_amp=args.pulse_amp, min_gap=args.min_gap, max_gap=args.max_gap,
        noise_std=args.noise, delay_steps=args.delay, seed=args.seed,
    )
    dataset = generate_dataset(config, args.samples)
    paths = save_dataset(dataset, args.out)
    return _finish(args.out, "gen", {"task": dataclasses.asdict(config)},
                   {"seed": args.seed}, paths, start,
                   f"wrote {args.samples} samples to {args.out}")


def cmd_train(args) -> int:
    start = time.perf_counter()
    if args.checkpoint_every < 0:
        raise ValueError("--checkpoint-every must be >= 0")
    dataset = load_dataset(args.data)
    model_cfg = ModelConfig(n_units=args.units, n_in=dataset.config.n_bits,
                            n_out=dataset.config.n_bits, tau=args.tau,
                            dt=args.dt, use_bias=args.bias)
    train_cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch,
                            learning_rate=args.lr, grad_clip_norm=args.clip or None,
                            seed=args.seed)
    params = init_params(model_cfg, SeededRng(args.seed))
    metadata = {
        "seed": args.seed,
        "task": dataclasses.asdict(dataset.config),
        "training": dataclasses.asdict(train_cfg),
        "data_dir": os.path.abspath(args.data),
        "samples": dataset.samples,
    }

    history_path = os.path.join(args.out, "history.csv")
    history = ["epoch,loss\n"]
    write_file(history_path, history[0])

    def epoch_hook(epoch, epoch_params, epoch_loss):
        history.append(f"{epoch},{epoch_loss!r}\n")
        write_file(history_path, "".join(history))
        if args.checkpoint_every and (epoch + 1) % args.checkpoint_every == 0:
            save_checkpoint(os.path.join(args.out, f"epoch_{epoch:04d}"),
                            epoch_params, model_cfg, metadata)

    try:
        params, report = train(params, model_cfg, dataset, train_cfg,
                               eval_fraction=args.eval_fraction,
                               epoch_hook=epoch_hook)
    except DivergenceError as exc:
        if exc.params is not None:
            metadata["diverged_at_epoch"] = exc.epoch
            save_checkpoint(args.out, exc.params, model_cfg, metadata)
        print(f"training diverged in epoch {exc.epoch}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR

    metadata["loss_history"] = report.loss_per_epoch
    metadata["wall_time_s"] = report.wall_time
    metadata["final_eval"] = dataclasses.asdict(report.final_eval)
    outputs = save_checkpoint(args.out, params, model_cfg, metadata) + [history_path]
    final = report.final_eval
    summary = (f"final loss {report.loss_per_epoch[-1]:.6g}"
               if report.loss_per_epoch else "no epochs run")
    return _finish(
        args.out, "train",
        {"model": dataclasses.asdict(model_cfg),
         "training": dataclasses.asdict(train_cfg)},
        {"seed": args.seed}, outputs, start,
        f"{summary}\nheld-out mse {final.mse:.6g} "
        f"accuracy {final.state_accuracy:.4f}")


def cmd_eval(args) -> int:
    params, model_cfg, manifest = load_checkpoint(args.checkpoint)
    if args.data:
        data = load_dataset(args.data)
    else:
        data = _probe_for(args.checkpoint, manifest)
    metrics = evaluate(params, model_cfg, data, transition_pad=args.pad)
    payload = dataclasses.asdict(metrics)
    print(dump_json(payload))
    if args.out:
        write_json(args.out, payload)
    return 0


def cmd_spectrum(args) -> int:
    start = time.perf_counter()
    params, _, _ = load_checkpoint(args.checkpoint)
    spec = spectrum(params.w_rec, eps_circle=args.eps)
    csv_path = os.path.join(args.out, "spectrum.csv")
    write_spectrum_csv(csv_path, spec)
    outputs = [csv_path]
    conn_path = os.path.join(args.out, "connectivity.csv")
    write_connectivity_csv(conn_path, params.w_rec)
    outputs.append(conn_path)
    if args.svg:
        svg_path = os.path.join(args.out, "spectrum.svg")
        write_spectrum_svg(svg_path, spec.eigenvalues, spec.eps_circle)
        outputs.append(svg_path)
    return _finish(args.out, "spectrum", {"eps_circle": args.eps}, {}, outputs,
                   start, dump_json({
                       "n_outside": spec.n_outside,
                       "radius_min": spec.radius_min,
                       "radius_max": spec.radius_max,
                       "radius_mean": spec.radius_mean,
                   }))


def cmd_project(args) -> int:
    start = time.perf_counter()
    projection, probe = _project_probe(args.checkpoint)
    csv_path = os.path.join(args.out, "projection.csv")
    write_projection_csv(csv_path, projection, probe)
    outputs = [csv_path]
    if args.svg:
        labels = [state_label_int(probe.targets[projection.start_step + i])
                  for i in range(len(projection.points))]
        for axes, name in (((0, 1), "projection_pc1_pc2.svg"),
                           ((0, 2), "projection_pc1_pc3.svg")):
            svg_path = os.path.join(args.out, name)
            write_projection_svg(svg_path, projection.points, labels, axes)
            outputs.append(svg_path)
    return _finish(args.out, "project", {}, {}, outputs, start, dump_json({
        "points": len(projection.points),
        "start_step": projection.start_step,
        "explained_variance_ratio":
            [float(r) for r in projection.explained_variance_ratio],
    }))


def _cube_report_for(checkpoint_dir, margin):
    return memory_states(*_project_probe(checkpoint_dir), hold_margin=margin)


def cmd_cube(args) -> int:
    start = time.perf_counter()
    report = _cube_report_for(args.checkpoint, args.margin)
    path = os.path.join(args.out, "cube_report.json")
    write_json(path, report.to_dict())
    return _finish(args.out, "cube", {"hold_margin": args.margin}, {}, [path],
                   start, dump_json({
                       "complete": report.complete,
                       "separation_ratio": report.separation_ratio,
                       "missing_states": len(report.missing_states),
                   }))


def cmd_compare(args) -> int:
    start = time.perf_counter()
    reports = [_cube_report_for(c, args.margin) for c in args.checkpoints]
    summary = compare_realizations(reports)
    path = os.path.join(args.out, "compare_report.json")
    write_json(path, {"per_report": summary.per_report,
                      "pairwise": summary.pairwise})
    return _finish(args.out, "compare", {"hold_margin": args.margin}, {}, [path],
                   start, dump_json(summary.pairwise))


def cmd_gradcheck(args) -> int:
    if args.units > 16 or args.steps > 16:
        print("gradcheck is limited to --units <= 16 and --steps <= 16",
              file=sys.stderr)
        return USAGE_ERROR
    report = run_gradcheck(n_units=args.units, t_steps=args.steps,
                           trials=args.trials, batch=args.batch,
                           seed=args.seed)
    for i, err in enumerate(report.trial_errors):
        print(f"trial {i:2d}: max relative error {err:.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict}: max {report.max_rel_err:.3e} "
          f"(tolerance {report.tolerance:.0e})")
    return 0 if report.passed else NUMERICAL_ERROR


def build_parser(defaults=None):
    """The full parser, and each subcommand's flags (subcommand name ->
    flag dest -> argparse Action); ``defaults`` (flag dest -> value)
    override the defaults of every subcommand."""
    defaults = defaults or {}
    actions = {}

    def flag(p, *names, **kwargs):
        action = p.add_argument(*names, **kwargs)
        actions.setdefault(p, {})[action.dest] = action

    parser = argparse.ArgumentParser(
        prog="ffrnn",
        description="Train and analyze flip-flop memory recurrent networks.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None,
                        help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a flip-flop dataset")
    flag(p, "--samples", type=int, default=1000)
    flag(p, "--steps", type=int, default=300)
    flag(p, "--bits", type=int, default=3)
    flag(p, "--seed", type=int, default=0)
    flag(p, "--noise", type=float, default=0.05)
    flag(p, "--delay", type=int, default=20)
    flag(p, "--pulse-width", type=int, default=10)
    flag(p, "--pulse-amp", type=float, default=1.0)
    flag(p, "--min-gap", type=int, default=30)
    flag(p, "--max-gap", type=int, default=100)
    flag(p, "--out", required=True)
    p.set_defaults(func=cmd_gen, **defaults)

    p = sub.add_parser("train", help="train a network on a dataset")
    flag(p, "--data", required=True)
    flag(p, "--units", type=int, default=400)
    flag(p, "--epochs", type=int, default=20)
    flag(p, "--batch", type=int, default=128)
    flag(p, "--lr", type=float, default=1e-3)
    flag(p, "--tau", type=float, default=1.0)
    flag(p, "--dt", type=float, default=1.0)
    flag(p, "--bias", action="store_true")
    flag(p, "--clip", type=float, default=0.5,
            help="global gradient-norm clip; 0 disables")
    flag(p, "--seed", type=int, default=0)
    flag(p, "--eval-fraction", type=float, default=0.05)
    flag(p, "--checkpoint-every", type=int, default=0)
    flag(p, "--out", required=True)
    p.set_defaults(func=cmd_train, **defaults)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    flag(p, "--checkpoint", required=True)
    flag(p, "--data", default=None)
    flag(p, "--pad", type=int, default=10)
    flag(p, "--out", default=None)
    p.set_defaults(func=cmd_eval, **defaults)

    p = sub.add_parser("spectrum", help="eigenspectrum of the recurrent matrix")
    flag(p, "--checkpoint", required=True)
    flag(p, "--eps", type=float, default=0.05)
    flag(p, "--svg", action="store_true")
    flag(p, "--out", required=True)
    p.set_defaults(func=cmd_spectrum, **defaults)

    p = sub.add_parser("project", help="project probe activity onto top-3 axes")
    flag(p, "--checkpoint", required=True)
    flag(p, "--svg", action="store_true")
    flag(p, "--out", required=True)
    p.set_defaults(func=cmd_project, **defaults)

    p = sub.add_parser("cube", help="memory-state cube geometry report")
    flag(p, "--checkpoint", required=True)
    flag(p, "--margin", type=int, default=10)
    flag(p, "--out", required=True)
    p.set_defaults(func=cmd_cube, **defaults)

    p = sub.add_parser("compare", help="compare cube reports across checkpoints")
    flag(p, "--checkpoints", nargs="+", required=True)
    flag(p, "--margin", type=int, default=10)
    flag(p, "--out", required=True)
    p.set_defaults(func=cmd_compare, **defaults)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    flag(p, "--units", type=int, default=8)
    flag(p, "--steps", type=int, default=10)
    flag(p, "--trials", type=int, default=20)
    flag(p, "--batch", type=int, default=2)
    flag(p, "--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck, **defaults)

    return parser, {name: actions[p] for name, p in sub.choices.items()}


def _config_defaults(path, command, flags) -> dict:
    """The flags of subcommand ``command`` that the JSON file ``path`` sets,
    as parser defaults. Each value goes through its flag's ``type`` as
    command-line text would, and one the type rejects raises ValueError;
    true/false fit only on/off flags. A key that is a flag of another
    subcommand (``flags``, from ``build_parser``) is left for that one, so
    one file can serve several commands; a key of no subcommand is
    rejected."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} does not hold a table of flags")
    unknown = sorted(set(values).difference(*flags.values()))
    if unknown:
        raise ValueError(f"config file {path}: {unknown[0]!r} is a flag of no command")
    defaults, actions = {}, flags[command]
    for key in sorted(set(values) & set(actions)):
        value, action = values[key], actions[key]
        switch = isinstance(action.default, bool)
        if type(value) not in ((bool,) if switch else (int, float, str)):
            raise ValueError(f"config file {path}: {key!r} takes " + (
                "true or false" if switch else "a number or text") + f", got {value!r}")
        if switch:
            defaults[key] = value
            continue
        convert = action.type or str
        try:
            defaults[key] = convert(str(value))
        except ValueError:
            raise ValueError(f"config file {path}: invalid {convert.__name__} value "
                             f"for {action.option_strings[0]}: {value!r}") from None
    return defaults


def main(argv=None) -> int:
    parser, flags = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # flags given on the command line still win over the file's
            defaults = _config_defaults(args.config, args.command, flags)
            args = build_parser(defaults)[0].parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (np.linalg.LinAlgError, DivergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Paired runs of the benchmark on two checkouts, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent OLD --change NEW --workload train-64x4 \
        --pairs 10 --seconds 20 --out BENCH_6.json

OLD and NEW are roots of two checkouts, each with its own ``src/`` and
``perfbench/``. Each pair runs ``perfbench/run.py`` once in each checkout,
one after the other; the checkout that runs first alternates from pair to
pair, so a slow drift of the machine weighs on both alike. ``run.py`` pins
BLAS to one thread. For every end-to-end metric of ``BENCHMARK.json`` the
output holds the median, quartiles, minimum and maximum of each side (so a
metric whose runs fall in two clusters shows without reading the runs),
the median change, and the number of pairs the new code won. Two verdicts
read the direction the metric is better in: ``claimable`` (at least 9 of
10 pairs won, and the median moved the better way by more than the
parent's interquartile range) and ``worse_than_bound`` (the median moved
the worse way by more than the metric's relative ``bound``; null for a
metric without one). Workloads already in ``--out`` are kept, so the
workloads can be run one at a time into the same file.

Both checkouts must hold the same benchmark: if ``BENCHMARK.json`` or a file
under ``perfbench/`` differs between them, the script names the file and
exits 2 before it runs anything, since a pairing of two different
benchmarks measures no change of the program. A run that exits non-zero,
or whose result line reports ``"correct": false`` or failed operations,
stops the script with exit 1: it names the side and the pair and prints
the last lines of the run's stderr, and ``--out`` is left as it was. So
every run summarised in ``--out`` was correct.

A gain from running work on more cores than one needs those cores free, so
the output also records the cores this process may run on and the 1-, 5-
and 15-minute load averages just before and just after each run. ``--out``
is replaced whole, through a temporary file beside it, so an interrupted
write never leaves it half written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_files(root: Path) -> dict:
    """Relative path -> bytes of ``BENCHMARK.json`` and of every file under
    ``perfbench/``, leaving out Python's bytecode caches."""
    paths = [root / "BENCHMARK.json"] + sorted((root / "perfbench").rglob("*"))
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths
            if p.is_file() and "__pycache__" not in p.parts}


def benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file that is not the same in both checkouts."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return next((name for name in sorted(a.keys() | b.keys())
                 if a.get(name) != b.get(name)), None)


# lines of a failed run's stderr that the script prints
STDERR_TAIL = 20


def run_once(root: Path, workload: str, seed: int, seconds: float):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)


def write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through ``<path>.tmp<pid>``; on any
    error the temporary file is removed and ``path`` is left as it was."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def summarise(runs: dict, metrics: list) -> dict:
    """Per metric: both sides' spread, the median change, pairs won by the
    change, whether that change is larger than the parent's IQR in either
    direction, and the two verdicts that read the better direction."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        a, b = spread(old), spread(new)
        wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
        # how far the median moved the better way; negative when worse
        gain = (b["median"] - a["median"]) * (1 if higher else -1)
        iqr = a["q3"] - a["q1"]
        bound = metric.get("bound")
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": a, "change": b,
            "median_change": b["median"] / a["median"] - 1.0 if a["median"] else None,
            "change_wins": wins,
            "exceeds_parent_iqr": abs(gain) > iqr,
            "claimable": 10 * wins >= 9 * len(old) and gain > iqr,
            "worse_than_bound": (None if bound is None
                                 else -gain > bound * abs(a["median"])),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    differs = benchmark_difference(args.parent, args.change)
    if differs is not None:
        print(f"the benchmark differs between the checkouts: {differs}",
              file=sys.stderr)
        return 2

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    load = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            before = os.getloadavg()
            proc = run_once(sides[side], args.workload, args.seed, args.seconds)
            load[side].append({"before": before, "after": os.getloadavg()})
            if proc.returncode != 0:
                failure = f"perfbench/run.py exited {proc.returncode}"
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                failure = (None if result["correct"] and not result["failed"] else
                           'perfbench/run.py reported "correct": '
                           f'{json.dumps(result["correct"])}, "failed": {result["failed"]}')
            if failure is not None:
                print(f"pair {pair} {side}: {failure}",
                      *proc.stderr.splitlines()[-STDERR_TAIL:],
                      sep="\n", file=sys.stderr)
                return 1
            runs[side].append(result)
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
        "first_in_pair": "parent on even pairs, change on odd pairs",
        "usable_cores": len(os.sched_getaffinity(0)),
        "load_average": load,
        "metrics": summarise(runs, bench["end_to_end"]),
        "runs": {side: [{k: v["value"] for k, v in r["metrics"].items()} for r in rs]
                 for side, rs in runs.items()},
    }
    write_atomically(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

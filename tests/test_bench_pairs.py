"""tools/bench_pairs.py pairs only checkouts that hold the same benchmark,
and records the machine it ran on."""

import importlib.util
import json
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def make_root(path, harness="WORKLOADS = 3\n",
              run="raise SystemExit('no such workload here')\n"):
    """A checkout holding only a benchmark; its run.py fails if it is run,
    with a message on stderr, unless ``run`` replaces it."""
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text('{"end_to_end": []}\n')
    (path / "perfbench" / "run.py").write_text(run)
    (path / "perfbench" / "harness.py").write_text(harness)
    return path


def pair_args(parent, change, tmp_path):
    return ["--parent", str(parent), "--change", str(change),
            "--workload", "train-128", "--pairs", "2", "--out", str(tmp_path / "o.json")]


def test_same_benchmark_pairs(tmp_path):
    parent, change = make_root(tmp_path / "a"), make_root(tmp_path / "b")
    # bytecode caches differ from checkout to checkout and do not count
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "harness.pyc").write_bytes(b"\0")
    (change / "src").mkdir()
    (change / "src" / "program.py").write_text("changed = True\n")
    assert bench_pairs.benchmark_difference(parent, change) is None


@pytest.mark.parametrize("edit, name", [
    (lambda root: (root / "perfbench" / "harness.py").write_text("WORKLOADS = 4\n"),
     "perfbench/harness.py"),
    (lambda root: (root / "perfbench" / "extra.py").write_text(""),
     "perfbench/extra.py"),
    (lambda root: (root / "perfbench" / "run.py").unlink(), "perfbench/run.py"),
    (lambda root: (root / "BENCHMARK.json").write_text("{}\n"), "BENCHMARK.json"),
])
def test_different_benchmark_exits_2_before_running(tmp_path, capsys, edit, name):
    parent, change = make_root(tmp_path / "a"), make_root(tmp_path / "b")
    edit(change)
    assert bench_pairs.main(pair_args(parent, change, tmp_path)) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_failed_run_exits_1_with_its_stderr(tmp_path, capsys):
    parent, change = make_root(tmp_path / "a"), make_root(tmp_path / "b")
    assert bench_pairs.main(pair_args(parent, change, tmp_path)) == 1
    err = capsys.readouterr().err
    assert "pair 0 parent: perfbench/run.py exited 1" in err
    assert "no such workload here" in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2)])
def test_incorrect_run_exits_1_and_keeps_out(tmp_path, capsys, correct, failed):
    # run.py exits 0 here, but its result line reports a failed check
    run = ("import json, sys\n"
           "print('check failed: readouts differ', file=sys.stderr)\n"
           f"print(json.dumps({{'correct': {correct}, 'failed': {failed}, "
           "'metrics': {}}))\n")
    parent = make_root(tmp_path / "a", run=run)
    change = make_root(tmp_path / "b", run=run)
    (tmp_path / "o.json").write_text("{}\n")
    assert bench_pairs.main(pair_args(parent, change, tmp_path)) == 1
    err = capsys.readouterr().err
    assert (f'pair 0 parent: perfbench/run.py reported "correct": '
            f'{str(correct).lower()}, "failed": {failed}') in err
    assert "check failed: readouts differ" in err
    assert (tmp_path / "o.json").read_text() == "{}\n"


def test_out_records_cores_and_load_and_keeps_other_workloads(tmp_path):
    run = ("import json\n"
           "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n")
    parent = make_root(tmp_path / "a", run=run)
    change = make_root(tmp_path / "b", run=run)
    (tmp_path / "o.json").write_text('{"workloads": {"cli-analyse": {}}}\n')
    assert bench_pairs.main(pair_args(parent, change, tmp_path)) == 0
    report = json.loads((tmp_path / "o.json").read_text())
    assert report["workloads"]["cli-analyse"] == {}
    entry = report["workloads"]["train-128"]
    assert entry["usable_cores"] == len(os.sched_getaffinity(0))
    for side in ("parent", "change"):
        assert len(entry["runs"][side]) == 2
        assert len(entry["load_average"][side]) == 2
        for load in entry["load_average"][side]:
            assert sorted(load) == ["after", "before"]
            assert all(len(v) == 3 and min(v) >= 0 for v in load.values())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "o.json"]


def test_failed_write_keeps_out(tmp_path, monkeypatch):
    out = tmp_path / "o.json"
    out.write_text("{}\n")

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(bench_pairs.os, "replace", no_replace)
    with pytest.raises(OSError, match="disk full"):
        bench_pairs.write_atomically(out, '{"new": 1}\n')
    assert out.read_text() == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["o.json"]


def test_summary_keeps_each_sides_extremes():
    # one change run of five reads far above the others: the quartiles hide
    # it, the maximum shows it
    def runs(values):
        return [{"metrics": {"peak_rss_mb": {"value": v}}} for v in values]

    summary = bench_pairs.summarise(
        {"parent": runs([134.5, 134.6, 134.8, 134.4, 134.7]),
         "change": runs([135.0, 153.9, 135.2, 135.1, 135.3])},
        [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"}])["peak_rss_mb"]
    assert (summary["parent"]["min"], summary["parent"]["max"]) == (134.4, 134.8)
    assert (summary["change"]["min"], summary["change"]["max"]) == (135.0, 153.9)
    assert summary["change"]["q3"] == 135.3
    assert summary["change_wins"] == 0


def runs_of(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


@pytest.mark.parametrize("better, parent, change, claimable, worse", [
    # 10/10 pairs won, median 20% better, far past the parent IQR of 2
    ("higher", [99, 100, 101] * 3 + [100], [120] * 10, True, False),
    ("lower", [99, 100, 101] * 3 + [100], [80] * 10, True, False),
    # 8/10 pairs won: not claimable, though the median moved far
    ("higher", [100] * 10, [120] * 8 + [90] * 2, False, False),
    # every pair won, but by less than the parent IQR
    ("higher", [90, 100, 110] * 3 + [100], [x + 1 for x in [90, 100, 110] * 3 + [100]],
     False, False),
    # 30% worse: past the 25% bound, and past the IQR, yet never claimable
    ("higher", [99, 100, 101] * 3 + [100], [70] * 10, False, True),
    ("lower", [99, 100, 101] * 3 + [100], [130] * 10, False, True),
    # 20% worse: inside the bound
    ("lower", [99, 100, 101] * 3 + [100], [120] * 10, False, False),
])
def test_verdicts_read_the_better_direction(better, parent, change, claimable, worse):
    metric = {"name": "m", "unit": "u", "better": better, "bound": 0.25}
    summary = bench_pairs.summarise(
        {"parent": runs_of("m", parent), "change": runs_of("m", change)},
        [metric])["m"]
    assert summary["claimable"] is claimable
    assert summary["worse_than_bound"] is worse


def test_worsening_exceeds_the_iqr_but_is_not_claimable():
    # a rise of a lower-is-better metric that no pair won: the magnitude
    # check reads true, the verdicts show which way it went
    summary = bench_pairs.summarise(
        {"parent": runs_of("peak_rss_mb", [57.2, 57.3, 57.4, 57.5, 57.3]),
         "change": runs_of("peak_rss_mb", [58.1, 58.3, 58.4, 58.5, 58.2])},
        [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]
    )["peak_rss_mb"]
    assert summary["change_wins"] == 0
    assert summary["exceeds_parent_iqr"] is True
    assert summary["claimable"] is False
    assert summary["worse_than_bound"] is False


def test_metric_without_bound_has_no_bound_verdict():
    summary = bench_pairs.summarise(
        {"parent": runs_of("m", [1, 2, 3]), "change": runs_of("m", [9, 9, 9])},
        [{"name": "m", "unit": "u", "better": "lower"}])["m"]
    assert summary["worse_than_bound"] is None
    assert summary["claimable"] is False

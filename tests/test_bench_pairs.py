"""tools/bench_pairs.py pairs only checkouts that hold the same benchmark."""

import importlib.util
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

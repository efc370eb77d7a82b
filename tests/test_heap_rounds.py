"""tools/heap_rounds.py runs a benchmark workload in process and prints one
line of memory figures after each set-up and round."""

import ctypes
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINE = re.compile(r"(setup|round) \d+ +rss +[\d.]+ +maxrss +[\d.]+ +arena +[\d.]+ "
                  r"+free +[\d.]+ +top +[\d.]+")


def one_round(*prefix):
    return subprocess.run(
        [sys.executable, *prefix, str(ROOT / "tools" / "heap_rounds.py"),
         "--workload", "cli-analyse", "--rounds", "1", "--gap", "0"],
        capture_output=True, text=True, timeout=300)


def test_one_round_of_cli_analyse():
    run = one_round()
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        assert run.returncode == 2 and "mallinfo2" in run.stderr
        return
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[0] + line.split()[1] for line in lines] == [
        "setup0", "round0", "setup1"]
    assert all(LINE.fullmatch(line) for line in lines), lines


def test_maxrss_is_the_peak_of_this_image():
    # started by exec from an image that held 192 MB: getrusage's ru_maxrss
    # would keep that peak, VmHWM does not
    ballast = ("import os, sys\n"
               "ballast = b'\\x01' * (192 << 20)\n"
               "os.execv(sys.executable, [sys.executable] + sys.argv[1:])\n")
    run = one_round("-c", ballast)
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        assert run.returncode == 2
        return
    assert run.returncode == 0, run.stderr
    peaks = [float(line.split()[5]) for line in run.stdout.splitlines()]
    assert len(peaks) == 3 and max(peaks) < 150, peaks

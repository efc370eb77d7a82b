"""Heap and resident memory after each set-up and round of one benchmark workload.

    python3 tools/heap_rounds.py --workload train-64x4 --seed 0 --rounds 3

Runs the workload in this process the way ``perfbench/run.py`` does: BLAS
pinned to one thread, then gaps of repeated set-ups (each gap at least
``--gap`` seconds, by default the harness's ``SETUP_GAP_S``) alternating with
whole rounds, starting and ending with a gap. It imports ``perfbench/harness.py``
from the checkout it sits in and calls the workload's ``setup`` and ``round``
from outside, so it measures the benchmark's own code. After each set-up and
each round it prints one line:

    setup 3   rss 131.2  maxrss 135.9  arena 32.1  free 3.0  top 2.9

in MB: the resident set size now, its peak so far (``VmHWM``, read by
``perfbench/reference.peak_rss_mb`` as the benchmark's ``peak_rss_mb`` is;
``ru_maxrss`` would keep the peak of the image before ``exec``), and from
glibc's ``mallinfo2`` the main heap's size (``arena``), its free bytes
(``fordblks``) and the free chunk at its top (``keepcost``). A peak that
moves between runs of the same code shows here as the round whose line
raises ``maxrss``, and the heap figures say whether the heap grew or reused
what an earlier set-up freed. Exits 2 where the C library has no
``mallinfo2`` (glibc before 2.33, or another C library).
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MB = 1 << 20
sys.path.insert(0, str(ROOT / "perfbench"))

from reference import peak_rss_mb  # noqa: E402


class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def mallinfo2():
    """glibc's ``mallinfo2`` as a function of no arguments, or None."""
    fn = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if fn is not None:
        fn.argtypes = []
        fn.restype = Mallinfo2
    return fn


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB


def report(label: str, info) -> str:
    heap = info()
    return (f"{label:<9} rss {rss_mb():6.1f}  maxrss {peak_rss_mb():6.1f}  "
            f"arena {heap.arena / MB:6.1f}  free {heap.fordblks / MB:5.1f}  "
            f"top {heap.keepcost / MB:5.1f}")


def main(argv=None) -> int:
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--gap", type=float, default=harness.SETUP_GAP_S,
                        help="seconds of repeated set-ups between rounds")
    args = parser.parse_args(argv)
    info = mallinfo2()
    if info is None:
        print("this C library has no mallinfo2", file=sys.stderr)
        return 2
    ffrnn = harness.load_program(ROOT)
    setups = 0

    def gap():
        nonlocal setups
        t0 = time.perf_counter()
        while True:
            workload.setup()
            print(report(f"setup {setups}", info), flush=True)
            setups += 1
            if time.perf_counter() - t0 >= args.gap:
                return

    with tempfile.TemporaryDirectory() as work:
        workload = harness.make_workload(ffrnn, args.workload, args.seed, Path(work))
        gap()
        for k in range(args.rounds):
            workload.round()
            print(report(f"round {k}", info), flush=True)
            gap()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of postsel: one workload per run, checked exactly, metrics as JSON.

Run from the repository root (no build step; the program is imported from
``src/``):

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``verify-all``, ``oracle-dense`` and
``gap-count``; ``BENCHMARK.json`` lists the first two (see README.md).  A
run sets the workload up, then makes passes over its items, one item at a
time in this one process, until ``--seconds`` is used up (at least
``MIN_PASSES`` passes).  Every call a pass makes into the program is timed
on its own; ``verify-all`` makes one.  The run sets the workload up again
after every pass, outside the pass, so that set-up is sampled across the
whole run.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``,
``setup_s`` (the fastest set-up: importing postsel in a fresh interpreter,
then generating the seeded inputs and writing their files) and
``peak_rss_mb`` (peak resident memory of this process, which runs one
workload only).  ``wall_s`` is the time of one pass in which every call ran
at its fastest: the sum, over the calls of a pass, of each call's fastest
time across the run's passes.  Medians are no use here: on a shared machine
other tenants slow the whole machine down by a quarter to a half for
seconds to minutes at a time, and that noise only ever adds time, so the
fastest time is the figure that repeats from run to run.  Every pass time
is in the info line.  With ``--trace 1`` half of ``--seconds`` goes to
untraced passes (at least ``MIN_PASSES``, so that a warm one is among them)
and half to traced ones, and the metrics are the per-layer ones of
``spans.py`` (medians over the traced passes), plus ``trace.overhead_s``
(``wall_s`` of the traced passes minus that of the untraced ones, which is
within the noise on ``verify-all``) and ``fail_frac``.

The last line of stdout is the result object; the line before it carries
the problem sizes, the input digest and the machine.  The run refuses to
start when ``POSTSEL_MAX_QUBITS`` is set, since that changes the program's
width cap, and when the checkout has no ``src/postsel``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-all", "oracle-dense", "gap-count")
MIN_PASSES = 2
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics reported beside those of spans.LAYER_METRICS
RUN_METRICS = (("trace.overhead_s", "s", "lower"), ("fail_frac", "frac", "lower"))
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import postsel.cli; print(time.perf_counter() - t)"
)
# postsel makes no BLAS call, but numpy's import starts one OpenBLAS thread
# per core and waits for each; on a VM that wake-up alone varied the import
# from 0.12 s to 0.25 s between runs, so the probe starts none.
PROBE_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def use_source_tree() -> None:
    """Import postsel from this checkout's ``src/``, or exit if there is none."""
    if not (SRC / "postsel" / "__init__.py").is_file():
        sys.exit(f"bench: no postsel sources under {SRC}")
    sys.path.insert(0, str(SRC))


def fresh_import_seconds() -> float:
    """Time to import postsel (and numpy, with one BLAS thread) in a new interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, env=PROBE_ENV,
    )
    return float(probe.stdout)


class SetUp:
    """Sets a workload up; records the seconds and input digest of each set-up."""

    def __init__(self, workload_cls, seed: int, workdir: Path):
        self.workload_cls, self.seed, self.workdir = workload_cls, seed, workdir
        self.seconds: list[float] = []
        self.digests: set[str] = set()

    def __call__(self):
        import_s = fresh_import_seconds()
        t0 = perf_counter()
        wl = self.workload_cls(self.seed, self.workdir)
        self.seconds.append(import_s + perf_counter() - t0)
        self.digests.add(wl.input_digest)
        return wl


def timed_passes(wl, seconds: float, min_passes: int, set_up: SetUp, traced: bool = False):
    """Passes until ``seconds`` is used up, each followed by one more set-up.

    Returns the passes and their layer metrics.
    """
    import spans

    passes, layers = [], []
    start = perf_counter()
    while len(passes) < min_passes or (
        perf_counter() - start + statistics.median(p.seconds for p in passes) <= seconds
    ):
        with spans.Tracer() if traced else contextlib.nullcontext() as tracer:
            passes.append(wl.run_pass())
        if traced:
            layers.append(spans.layer_metrics(tracer.spans))
        set_up()
    return passes, layers


def fastest_pass_s(passes) -> float:
    """Sum over a pass's timed calls of each call's fastest time."""
    return sum(min(call) for call in zip(*(p.call_s for p in passes)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if "POSTSEL_MAX_QUBITS" in os.environ:
        sys.exit(
            "bench: POSTSEL_MAX_QUBITS is set; it changes the simulator's width cap, "
            "so unset it to measure the default program"
        )
    use_source_tree()

    import numpy as np
    import spans
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    traced: list = []
    try:
        set_up = SetUp(WORKLOADS[args.workload], args.seed, workdir)
        wl = set_up()
        if args.trace:
            plain, _ = timed_passes(wl, args.seconds / 2, MIN_PASSES, set_up)
            traced, layers = timed_passes(wl, args.seconds / 2, 1, set_up, traced=True)
        else:
            plain, _ = timed_passes(wl, args.seconds, MIN_PASSES, set_up)
        sizes = wl.sizes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(p.attempted for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    if args.trace:
        values = {n: statistics.median(m[n] for m in layers) for n, _, _ in spans.LAYER_METRICS}
        values["trace.overhead_s"] = fastest_pass_s(traced) - fastest_pass_s(plain)
        values["fail_frac"] = failed / attempted
        units = [(n, u) for n, u, _ in spans.LAYER_METRICS + RUN_METRICS]
    else:
        values = {
            "wall_s": fastest_pass_s(plain),
            "setup_s": min(set_up.seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": sorted(set_up.digests),
        "sizes": sizes,
        "pass_s": [p.seconds for p in plain],
        "traced_pass_s": [p.seconds for p in traced],
        "setup_s": set_up.seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    correct = failed == 0 and len(set_up.digests) == 1
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

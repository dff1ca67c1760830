"""Benchmark of the ``artifact`` package: end-to-end timings or a traced run.

    python3 perfbench/run.py --workload verify-defaults --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root. One workload runs in one process, closed
loop with one client: the next op starts when the previous one has ended.
The ops of a run use a fixed list of seeds drawn from ``--seed``. A warm-up
op with the first seed comes before the timed ops; the first timed op reuses
that seed.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics: ``op_s`` (median wall time of one timed op),
``setup_s`` (median time to import the package in a fresh interpreter, plus
the warm-up op) and ``peak_rss_mb`` (peak resident set of this process).
``failed_frac`` is printed on the line before it.

With ``--trace 1`` untraced and traced ops alternate, all with the first
seed, and the metrics are the per-layer metrics of ``tracer.PER_LAYER``
(times are medians over the traced ops) plus ``trace.overhead``, the
traced op time over the untraced one. The spans of the last traced op are
written to ``.perfbench_out/`` when the run ends.

``--workload all`` runs every workload in its own process and prints a
table. The exit code is 0 when every op passed its correctness check, 1 when
one did not, and 2 when there is no package under ``src/`` to import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER, Tracer, counts, median_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("verify-defaults", "chain-reach", "spectrum")
SEEDS_PER_RUN = 8
IMPORT_SAMPLES = 3
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_IMPORT = "import artifact.cli, artifact.spin_chain, artifact.boundary_charges"


def _import_package() -> None:
    """Import the package from ``src/`` of this checkout, nowhere else."""
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'artifact'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import artifact

    if Path(artifact.__file__).resolve().parent != SRC / "artifact":
        print(f"error: imported artifact from {artifact.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _fresh_import_s() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=ROOT, check=True,
                   timeout=120)
    return perf_counter() - start


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas": vendor,
        "blas_threads": int(BLAS_THREADS),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def op_seeds(seed: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**32, SEEDS_PER_RUN)]


class Runner:
    """Times ops of one workload and counts the ones that fail their check."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def op(self, seed: int, tracer=None) -> float:
        """Run one op; return its wall time (the check is not timed)."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            start = perf_counter()
            try:
                result = self.workload.run(seed)
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            problems = self.workload.check(seed, result)
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {self.workload.name} seed {seed}: {problem}", file=sys.stderr)
        return elapsed


def run_timed(runner: Runner, seeds: list[int], seconds: float) -> dict:
    warmup_s = runner.op(seeds[0])
    imports = [_fresh_import_s() for _ in range(IMPORT_SAMPLES)]
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        times.append(runner.op(seeds[len(times) % len(seeds)]))
    op_s, import_s = statistics.median(times), statistics.median(imports)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print("op times     " + " ".join(f"{t:.3f}" for t in times) + " s")
    print(f"op_s         {op_s:.6f} s   (median of {len(times)} timed ops)")
    print(f"setup_s      {import_s + warmup_s:.6f} s   (import {import_s:.6f} s, "
          f"median of {len(imports)}; warm-up op {warmup_s:.6f} s)")
    print(f"peak_rss_mb  {rss_mb:.3f} MB")
    return {
        "op_s": {"value": op_s, "unit": "s"},
        "setup_s": {"value": import_s + warmup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def run_traced(runner: Runner, seeds: list[int], seconds: float, tracer) -> dict:
    """Alternate untraced and traced ops with the first seed."""
    seed = seeds[0]
    runner.op(seed)
    plain, traced, per_op = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(runner.op(seed))
        traced.append(runner.op(seed, tracer))
        per_op.append(tracer.op_metrics())
    if any(counts(m) != counts(per_op[0]) for m in per_op):
        runner.failed += 1
        print("FAILED: counts differ between traced ops with the same seed", file=sys.stderr)
    metrics = median_metrics(per_op)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    print(f"traced ops {len(traced)}, untraced ops {len(plain)}, "
          f"spans in the last traced op {len(tracer.spans)}")
    for name, unit, _better, workload, moves in PER_LAYER:
        print(f"{name:<58} {metrics[name]:>14.6g} {unit:<6} [{workload} -> {moves}]")
    tracer.write_spans(OUT_DIR / f"spans-{runner.workload.name}.tsv")
    return {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in PER_LAYER}


def run_one(args) -> int:
    # BLAS reads its thread count when numpy loads, so numpy is imported
    # only after this line.
    os.environ.update({k: BLAS_THREADS for k in _BLAS_ENV})
    _import_package()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    workload = WORKLOADS[args.workload](OUT_DIR)
    seeds = op_seeds(args.seed)
    workload.prepare(seeds)
    runner = Runner(workload)
    if args.trace:
        metrics = run_traced(runner, seeds, args.seconds, Tracer())
    else:
        metrics = run_timed(runner, seeds, args.seconds)
    print(f"failed_frac  {runner.failed / runner.attempted:.6g}   "
          f"({runner.failed} of {runner.attempted} ops, warm-up included)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process; print one row per workload."""
    rows, code = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            rows.append((name, json.loads(lines[-1])))
    print()
    for name, result in rows:
        cells = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
                 if not args.trace]
        frac = result["failed"] / result["attempted"]
        print(f"{name:<16} " + "  ".join(cells) + f"  failed_frac {frac:.3g}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

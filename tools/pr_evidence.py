"""Evidence for a change: both report matrices, their comparison and the benchmark pairs.

    python3 tools/pr_evidence.py PARENT_REV OUTDIR [bench_pairs flags]
    python3 tools/pr_evidence.py HEAD~1 evidence --pairs 10 --claim chain-reach:op_s

PARENT_REV is exported as ``bench_pairs.py`` exports it (``git archive`` into
a temporary directory; nothing is fetched and no worktree is made), and this
checkout's ``report_matrix.py`` is copied into the export's ``tools/`` so that
both sides write the same reports. Each step is its own process; in order:

1. ``report_matrix.py`` of each side, the parent's into OUTDIR/parent and
   this checkout's into OUTDIR/change;
2. with ``--claim W:METRIC``, each side's own ``perfbench/run.py --workload
   W --trace 1`` (with the pairs' ``--seed`` and ``--seconds``), the parent
   first; both sides' per-layer metrics are written side by side to
   OUTDIR/layers.txt;
3. ``compare_reports.py`` of the two report directories, its output printed
   and written to OUTDIR/compare.txt;
4. ``bench_pairs.py`` with PARENT_REV and the flags after OUTDIR, which
   writes the next BENCH_<n>.json at the root of this checkout.

Every step runs even when an earlier one failed. The exit code is 2 when
PARENT_REV or OUTDIR is missing, or when the flags after OUTDIR are not
``bench_pairs.py``'s; otherwise it is 1 when any step failed (a report run,
a traced run, a pass flip, multiplicity change or one-sided report, a
benchmark run) and 0 when none did.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bench_pairs

TOOLS = Path(__file__).resolve().parent


def run_tool(script: Path, args: list[str], capture: bool = False) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` by this Python, in its own process, with
    PYTHONDONTWRITEBYTECODE=1; its stdout is captured as text if ``capture``.

    No tool runs in this process: Linux carries a process's peak resident
    set into the children it starts, so pairs started from a process that
    had imported ``compare_reports`` (numpy, scipy) would read that peak,
    about 83 MB, as every run's ``peak_rss_mb``. And a bytecode cache left
    in this checkout's ``src/`` would shorten its side's ``setup_s``.
    """
    return subprocess.run([sys.executable, str(script), *args], text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          stdout=subprocess.PIPE if capture else None)


def traced_layers(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The per-layer metrics, {name: {"value", "unit"}}, of one traced run of
    the benchmark in the checkout at ``root``; None when the run failed."""
    proc = run_tool(root / "perfbench" / "run.py",
                    ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
                     "--trace", "1"], capture=True)
    lines = proc.stdout.strip().splitlines() if proc.stdout else []
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])["metrics"]


def layers_table(layers: dict, workload: str, seed: int, seconds: float) -> str:
    """Both sides' per-layer metrics, one row per metric in the parent's
    order, with the change over the parent where the parent is nonzero."""
    parent, change = layers["parent"], layers["change"]
    rows = [f"traced per-layer metrics of {workload}, seed {seed}, {seconds:g} s a side",
            f"{'metric':<58} {'unit':<6} {'parent':>12} {'change':>12} {'ratio':>7}"]
    for name in list(parent) + [m for m in change if m not in parent]:
        values = [side[name]["value"] if name in side else None for side in (parent, change)]
        unit = (parent.get(name) or change[name])["unit"]
        cells = [f"{v:>12.6g}" if v is not None else f"{'-':>12}" for v in values]
        ratio = f"{values[1] / values[0]:>7.3f}" if None not in values and values[0] else f"{'-':>7}"
        rows.append(f"{name:<58} {unit:<6} {cells[0]} {cells[1]} {ratio}")
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print("usage: python3 tools/pr_evidence.py PARENT_REV OUTDIR [bench_pairs flags]",
              file=sys.stderr)
        return 2
    parent_rev, outdir, bench_args = argv[0], Path(argv[1]), argv[2:]
    try:
        settings = bench_pairs.build_parser().parse_args([parent_rev, *bench_args])
    except SystemExit:
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    sides = {"parent": outdir / "parent", "change": outdir / "change"}
    failed = []
    with tempfile.TemporaryDirectory(prefix="pr_evidence_") as tmp:
        tree = Path(tmp)
        bench_pairs.export_parent(parent_rev, tree)
        (tree / "tools").mkdir(exist_ok=True)
        shutil.copy(TOOLS / "report_matrix.py", tree / "tools" / "report_matrix.py")
        roots = {"parent": tree, "change": TOOLS.parent}
        for side, root in roots.items():
            if run_tool(root / "tools" / "report_matrix.py", [str(sides[side])]).returncode:
                failed.append(f"{side} report matrix")
        if settings.claim:
            workload = settings.claim.partition(":")[0]
            layers = {side: traced_layers(root, workload, settings.seed, settings.seconds)
                      for side, root in roots.items()}
            failed += [f"{side} traced run" for side, got in layers.items() if got is None]
            if None not in layers.values():
                (outdir / "layers.txt").write_text(
                    layers_table(layers, workload, settings.seed, settings.seconds))
    compared = run_tool(TOOLS / "compare_reports.py", [str(sides["parent"]), str(sides["change"])],
                        capture=True)
    (outdir / "compare.txt").write_text(compared.stdout)
    print(compared.stdout, end="")
    if compared.returncode:
        failed.append("report comparison")
    if run_tool(TOOLS / "bench_pairs.py", [parent_rev, *bench_args]).returncode:
        failed.append("benchmark pairs")
    if failed:
        print(f"pr_evidence: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

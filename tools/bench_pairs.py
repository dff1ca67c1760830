"""Alternating parent/change runs of the benchmark, written as the next BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_REV --pairs 10 --seconds 8 --seed 3
    python3 tools/bench_pairs.py PARENT_REV --pairs 10 --claim chain-reach:op_s

PARENT_REV is exported with ``git archive`` into a temporary directory, so
nothing is fetched and no worktree is made; the change is the checkout that
holds this script. The workloads, the end-to-end metrics and the command
come from ``BENCHMARK.json``. For each workload, pair i runs the command
with ``--workload W --seed K --seconds S --trace 0`` once from the root of
each side, one run at a time, the parent first when i is even, with
PYTHONDONTWRITEBYTECODE=1.

Each run's value of a metric is the one in the JSON line that ``run.py``
prints last. The output records, per workload and metric, both sides' runs,
medians and quartiles (inclusive method), the pairs the change won (a pair
is won when the change's value is better; ties count for neither) and the
ratio of the medians, next to the machine that ``run.py`` reports. With
``--claim W:METRIC`` it also records whether that metric meets the gain rule:
the change wins at least nine tenths of the pairs, and the medians differ by
more than the distance between the parent's quartiles.

A run that exits nonzero or reports ``correct: false`` stops the script with
exit code 1, naming the side, and no JSON is written. The file goes to the
root of this checkout, numbered one above the highest BENCH_<n>.json there.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


class RunFailed(Exception):
    pass


def export_parent(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``; return
    its short hash."""
    git = ["git", "-C", str(ROOT)]
    tar = subprocess.run(git + ["archive", "--format=tar", rev],
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return subprocess.run(git + ["rev-parse", "--short", rev], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_once(command: list[str], root: Path) -> tuple[dict, dict]:
    """(result, machine) of one ``run.py`` process started in ``root``: the
    JSON of its last stdout line and the machine it printed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RunFailed(f"exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RunFailed(f"{result.get('failed')} of {result.get('attempted')} ops failed")
    machine = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("machine ")), {})
    return result, machine


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 4),
            "quartiles": [round(q1, 4), round(q3, 4)],
            "runs": [round(v, 4) for v in runs]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' summaries, the pairs the change won and the median ratio."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out = {"parent": summary(parent), "change": summary(change),
           "change_won": f"{won}/{len(parent)}"}
    out["ratio_of_medians"] = round(statistics.median(change) / statistics.median(parent), 3)
    return out


def gain_rule(metric: dict, better: str) -> dict:
    won, pairs = (int(x) for x in metric["change_won"].split("/"))
    q1, q3 = metric["parent"]["quartiles"]
    gap = metric["parent"]["median"] - metric["change"]["median"]
    gap = gap if better == "lower" else -gap
    return {"change_won": metric["change_won"], "parent_interquartile": round(q3 - q1, 4),
            "met": won >= math.ceil(0.9 * pairs) and gap > q3 - q1}


def next_bench_path(root: Path) -> Path:
    numbers = [int(m.group(1)) for p in root.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(numbers, default=0) + 1}.json"


def measure(bench: dict, sides: dict, pairs: int, seconds: float, seed: int) -> tuple:
    """(commands, machine, workloads) of the pairs; ``sides`` maps "parent"
    and "change" to the roots the runs start in."""
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    commands, machine, workloads = [], {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", f"{seconds:g}", "--trace", "0"]
        commands.append(" ".join(command))
        values = {side: {m: [] for m in metrics} for side in sides}
        ops = {side: {"attempted": 0, "failed": 0} for side in sides}
        for pair in range(pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                try:
                    result, machine = run_once(command, sides[side])
                except RunFailed as exc:
                    raise RunFailed(f"{side} run of {workload}, pair {pair}: {exc}") from None
                for m in metrics:
                    values[side][m].append(result["metrics"][m]["value"])
                for key in ("attempted", "failed"):
                    ops[side][key] += result[key]
        workloads[workload] = {
            "pairs": pairs, "seed": seed, "all_ops_correct": True,
            "ops_attempted": {side: ops[side]["attempted"] for side in sides},
            "ops_failed": {side: ops[side]["failed"] for side in sides},
            "metrics": {m: compare(values["parent"][m], values["change"][m], better)
                        for m, better in metrics.items()},
        }
    return commands, machine, workloads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC of the claimed gain")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 2, --seconds positive and --seed non-negative")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    claim = args.claim.partition(":")[::2] if args.claim else None
    if claim and (claim[0] not in {w["name"] for w in bench["workloads"]}
                  or claim[1] not in better):
        parser.error(f"--claim {args.claim!r} names no workload and end-to-end metric")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = export_parent(args.parent_rev, Path(tmp))
        try:
            commands, machine, workloads = measure(
                bench, {"parent": Path(tmp), "change": ROOT},
                args.pairs, args.seconds, args.seed)
        except RunFailed as exc:
            print(f"bench_pairs: {exc}; no JSON written", file=sys.stderr)
            return 1
    out = {
        "machine": machine, "parent": parent, "run_seconds": args.seconds,
        "commands": commands,
        "protocol": (
            "each command run from the root of an export (git archive) of the parent "
            "and from the change's checkout, one run at a time, alternating which side "
            "runs first (even pairs parent first, counting from 0), with "
            f"PYTHONDONTWRITEBYTECODE=1, {args.seconds:g} s per run. Medians and "
            "quartiles (inclusive method) are over the per-run values, each run.py's own "
            "median over its timed ops; a pair is won when the change's value is better"),
    }
    if claim:
        workload, metric = claim
        out["claim"] = {
            "workload": workload, "metric": metric,
            "target": "change wins at least nine tenths of the pairs, and the medians "
                      "differ by more than the parent's interquartile distance",
            **gain_rule(workloads[workload]["metrics"][metric], better[metric])}
    out["workloads"] = workloads
    path = next_bench_path(ROOT)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    for workload, entry in workloads.items():
        for metric, m in entry["metrics"].items():
            print(f"{workload:<16} {metric:<12} parent {m['parent']['median']:<9g} "
                  f"change {m['change']['median']:<9g} won {m['change_won']:<6} "
                  f"ratio {m['ratio_of_medians']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

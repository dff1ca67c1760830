"""The evidence tools under tools/, run on small report directories, stubbed
report and benchmark runs and one real run of this checkout's benchmark."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from artifact import cli

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _load("compare_reports")
bench_pairs = _load("bench_pairs")
report_matrix = _load("report_matrix")
pr_evidence = _load("pr_evidence")


def _matrix(outdir: Path) -> Path:
    """A two-report stand-in for a ``report_matrix.py`` directory."""
    outdir.mkdir()
    for name, args in (("verify_hecke", ["verify", "--suite", "hecke", "--n", "2", "--sites", "2"]),
                       ("spectrum_n2_sites3", ["spectrum", "--n", "2", "--sites", "3"])):
        assert cli.main([*args, "--out", str(outdir / f"{name}.json")]) == 0
    return outdir


def test_identical_directories_give_zero_moved_values(tmp_path, capsys):
    parent = _matrix(tmp_path / "parent")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    assert compare_reports.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 identical, 0 moved values, 0 pass flips, 0 multiplicity changes, 0 one-sided")


def test_moves_and_flips_are_reported(tmp_path):
    parent = _matrix(tmp_path / "parent")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    spectrum = json.loads((change / "spectrum_n2_sites3.json").read_text())
    spectrum["eigenvalues"][0][0] += 1e-9
    (change / "spectrum_n2_sites3.json").write_text(json.dumps(spectrum))
    verify = json.loads((change / "verify_hecke.json").read_text())
    verify["checks"][0]["pass"] = not verify["checks"][0]["pass"]
    (change / "verify_hecke.json").write_text(json.dumps(verify))
    out = compare_reports.compare(parent, change)
    assert (out.identical, out.moved, out.flips, out.multiplicity_changes) == ([], 1, 1, 0)
    assert out.failed


def _bench_checkout(root: Path) -> Path:
    """A checkout stand-in: a two-workload BENCHMARK.json and two earlier
    BENCH files, the higher one numbered 12."""
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "op_s", "better": "lower"},
                       {"name": "peak_rss_mb", "better": "lower"}]}))
    for n in (7, 12):
        (root / f"BENCH_{n}.json").write_text("{}")
    return root


def test_bench_pairs_alternates_sides_and_summarizes(tmp_path, monkeypatch):
    root = _bench_checkout(tmp_path / "checkout")
    op_s = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 2.5, 2.0, 3.0]}
    order = []

    def run(command, side_root):
        side = "change" if side_root == root else "parent"
        workload = command[command.index("--workload") + 1]
        pair = order.count((workload, side))
        order.append((workload, side))
        metrics = {"op_s": {"value": op_s[side][pair]}, "peak_rss_mb": {"value": 50.0}}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}, {"nproc": 2}

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: "abc1234")
    monkeypatch.setattr(bench_pairs, "run_once", run)
    argv = ["HEAD~1", "--pairs", "4", "--seconds", "2", "--seed", "5", "--claim", "w1:op_s"]
    assert bench_pairs.main(argv) == 0
    # even pairs run the parent first, odd pairs the change
    assert [side for _, side in order] == ["parent", "change", "change", "parent"] * 4
    assert [w for w, _ in order] == ["w1"] * 8 + ["w2"] * 8
    out = json.loads((root / "BENCH_13.json").read_text())
    assert (out["parent"], out["machine"]) == ("abc1234", {"nproc": 2})
    assert out["commands"][0] == ("python3 perfbench/run.py --workload w1 --seed 5 "
                                  "--seconds 2 --trace 0")
    w1 = out["workloads"]["w1"]
    assert w1["ops_attempted"] == {"parent": 12, "change": 12}
    op = w1["metrics"]["op_s"]
    assert op["parent"] == {"median": 2.5, "quartiles": [1.75, 3.25], "runs": op_s["parent"]}
    assert op["change"]["median"] == 2.25 and op["change"]["quartiles"] == [1.625, 2.625]
    assert op["change_won"] == "3/4" and op["ratio_of_medians"] == 0.9
    assert w1["metrics"]["peak_rss_mb"]["change_won"] == "0/4"  # ties win nothing
    assert out["claim"]["met"] is False  # 3 of 4 wins is under nine tenths


def test_bench_pairs_stops_on_a_failed_run_and_writes_nothing(tmp_path, monkeypatch, capsys):
    root = _bench_checkout(tmp_path / "checkout")

    def run(command, side_root):
        if side_root != root:
            raise bench_pairs.RunFailed("exit code 1")
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"op_s": {"value": 1.0}, "peak_rss_mb": {"value": 1.0}}}, {}

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: "abc1234")
    monkeypatch.setattr(bench_pairs, "run_once", run)
    assert bench_pairs.main(["HEAD~1", "--pairs", "2"]) == 1
    assert "parent run of w1, pair 0: exit code 1" in capsys.readouterr().err
    assert not (root / "BENCH_13.json").exists()


@pytest.mark.parametrize("code,result", [
    (1, {"correct": True}),
    (0, {"correct": False, "attempted": 4, "failed": 1}),
])
def test_bench_pairs_run_fails_on_an_exit_code_or_a_failed_op(tmp_path, code, result):
    script = f"print('machine {{}}'); print({json.dumps(json.dumps(result))}); raise SystemExit({code})"
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.run_once([sys.executable, "-c", script], tmp_path)


def test_bench_pairs_run_reads_the_result_and_the_machine(tmp_path):
    result = {"correct": True, "attempted": 2, "failed": 0, "metrics": {}}
    script = f"print('machine {{\"nproc\": 2}}'); print({json.dumps(json.dumps(result))})"
    assert bench_pairs.run_once([sys.executable, "-c", script], tmp_path) == (result, {"nproc": 2})


def test_bench_pairs_runs_this_checkouts_benchmark():
    # run.py refuses --seconds 0; any positive value under one op's time
    # gives the warm-up op and one timed op
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"] + ["--workload", "verify-defaults", "--seconds", "0.01",
                                  "--trace", "0"]
    result, machine = bench_pairs.run_once(command, ROOT)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert "nproc" in machine


def test_report_matrix_names_every_report_once(tmp_path):
    names = [name for name, _ in report_matrix.runs(tmp_path / "matrix.cfg")]
    assert len(names) == 31
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("argv", [[], ["a", "b"]])
def test_report_matrix_refuses_a_wrong_argument_count(argv, capsys):
    assert report_matrix.main(argv) == 2
    assert "usage" in capsys.readouterr().err


def test_report_matrix_writes_the_rest_when_one_run_fails(tmp_path, monkeypatch, capsys):
    failing = "spectrum_n2_sites10"

    def run(cmd, **kwargs):
        out = Path(cmd[cmd.index("--out") + 1])
        if out.stem == failing:
            return subprocess.CompletedProcess(cmd, 2, "", "refused")
        out.write_text("{}")
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(report_matrix.subprocess, "run", run)
    outdir = tmp_path / "reports"
    assert report_matrix.main([str(outdir)]) == 1
    written = {path.stem for path in outdir.glob("*.json")}
    names = {name for name, _ in report_matrix.runs(outdir / "matrix.cfg")}
    assert written == names - {failing}
    captured = capsys.readouterr()
    assert "30 of 31 reports written" in captured.out
    assert "exit 2: " in captured.err and "refused" in captured.err


@pytest.mark.parametrize("flip", [False, True])
def test_pr_evidence_runs_both_matrices_the_comparison_then_the_pairs(tmp_path, monkeypatch,
                                                                      capsys, flip):
    # the report and benchmark runs are stubbed; the comparison runs for real
    steps = []
    real_run_tool = pr_evidence.run_tool

    def export(rev, dest):
        steps.append(("export", rev))
        (dest / "src").mkdir()
        return "abc1234"

    def run_tool(script, args, capture=False):
        steps.append((script.name, *args))
        if script.name == "compare_reports.py":
            return real_run_tool(script, args, capture)
        if script.name == "run.py":
            metrics = {"yang_baxter.build_r.calls": {"value": 5, "unit": "count"}}
            return subprocess.CompletedProcess([script, *args], 0, json.dumps({"metrics": metrics}))
        if script.name == "report_matrix.py":
            # the parent's export carries this checkout's matrix script
            assert script.read_bytes() == (TOOLS / "report_matrix.py").read_bytes()
            side = "change" if script.parents[1] == ROOT else "parent"
            outdir = Path(args[0])
            outdir.mkdir()
            check = {"id": "chain.tr2", "residual": 1e-16, "scalar": None,
                     "pass": not (flip and side == "change")}
            (outdir / "verify.json").write_text(json.dumps({"suite": "chain", "checks": [check]}))
        return subprocess.CompletedProcess([script, *args], 0, "" if capture else None)

    monkeypatch.setattr(bench_pairs, "export_parent", export)
    monkeypatch.setattr(pr_evidence, "run_tool", run_tool)
    outdir = tmp_path / "evidence"
    code = pr_evidence.main(["HEAD~1", str(outdir), "--pairs", "10", "--claim", "w1:op_s"])
    parent, change = str(outdir / "parent"), str(outdir / "change")
    traced = ("run.py", "--workload", "w1", "--seed", "3", "--seconds", "8", "--trace", "1")
    assert steps == [("export", "HEAD~1"), ("report_matrix.py", parent),
                     ("report_matrix.py", change), traced, traced,
                     ("compare_reports.py", parent, change),
                     ("bench_pairs.py", "HEAD~1", "--pairs", "10", "--claim", "w1:op_s")]
    summary = (outdir / "compare.txt").read_text().splitlines()[-1]
    assert summary in capsys.readouterr().out
    if flip:  # a pass flip fails the run, and the pairs still run
        assert code == 1 and summary.startswith("0 identical, 0 moved values, 1 pass flips")
    else:
        assert code == 0 and summary.startswith("1 identical, 0 moved values, 0 pass flips")


def test_pr_evidence_writes_both_sides_traced_layers_side_by_side(tmp_path, monkeypatch):
    # the report, traced and benchmark runs are stubbed; each traced run is
    # the claimed workload's, from the root of its own side
    traced = []

    def export(rev, dest):
        (dest / "src").mkdir()
        return "abc1234"

    def run_tool(script, args, capture=False):
        if script.name == "run.py":
            side = "change" if script.parents[1] == ROOT else "parent"
            traced.append((side, *args))
            value = {"parent": 566, "change": 340}[side]
            metrics = {"yang_baxter.build_r.calls": {"value": value, "unit": "count"},
                       "yang_baxter.build_r.self_s": {"value": 0.002, "unit": "s"}}
            out = "machine {}\n" + json.dumps({"correct": True, "metrics": metrics}) + "\n"
            return subprocess.CompletedProcess([script, *args], 0, out)
        if script.name == "report_matrix.py":
            Path(args[0]).mkdir()
        return subprocess.CompletedProcess([script, *args], 0, "" if capture else None)

    monkeypatch.setattr(bench_pairs, "export_parent", export)
    monkeypatch.setattr(pr_evidence, "run_tool", run_tool)
    outdir = tmp_path / "evidence"
    argv = ["HEAD~1", str(outdir), "--seed", "5", "--seconds", "2", "--claim", "verify-defaults:op_s"]
    assert pr_evidence.main(argv) == 0
    flags = ("--workload", "verify-defaults", "--seed", "5", "--seconds", "2", "--trace", "1")
    assert traced == [("parent", *flags), ("change", *flags)]
    rows = [line.split() for line in (outdir / "layers.txt").read_text().splitlines()[2:]]
    assert rows == [["yang_baxter.build_r.calls", "count", "566", "340", "0.601"],
                    ["yang_baxter.build_r.self_s", "s", "0.002", "0.002", "1.000"]]


def test_pr_evidence_traces_nothing_without_a_claim_and_fails_on_a_failed_trace(
        tmp_path, monkeypatch):
    calls = []

    def run_tool(script, args, capture=False):
        calls.append(script.name)
        if script.name == "report_matrix.py":
            Path(args[0]).mkdir()
        return subprocess.CompletedProcess([script, *args], 1 if script.name == "run.py" else 0,
                                           "" if capture else None)

    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: "abc1234")
    monkeypatch.setattr(pr_evidence, "run_tool", run_tool)
    assert pr_evidence.main(["HEAD~1", str(tmp_path / "a")]) == 0
    assert "run.py" not in calls
    assert pr_evidence.main(["HEAD~1", str(tmp_path / "b"), "--claim", "w1:op_s"]) == 1
    assert calls.count("run.py") == 2 and not (tmp_path / "b" / "layers.txt").exists()


def test_pr_evidence_runs_each_tool_in_a_process_of_its_own(tmp_path):
    # a child reports the peak resident set of the process that started it,
    # so the script that starts the pairs must never load numpy itself
    script = tmp_path / "tool.py"
    script.write_text("import os, sys\nprint(sys.argv[1], os.environ['PYTHONDONTWRITEBYTECODE'])\n")
    out = pr_evidence.run_tool(script, ["x"], capture=True)
    assert (out.returncode, out.stdout) == (0, "x 1\n")
    loads = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import pr_evidence; "
             "print(sorted(m for m in sys.modules if m in ('numpy', 'scipy', 'compare_reports')))")
    out = subprocess.run([sys.executable, "-c", loads], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("argv", [[], ["HEAD~1"], ["HEAD~1", "out", "--pairs", "x"]])
def test_pr_evidence_refuses_a_missing_argument(argv, capsys):
    assert pr_evidence.main(argv) == 2
    assert "usage" in capsys.readouterr().err

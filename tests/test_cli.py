"""Command-line contract: flags, config, exit codes, serialization.

Everything runs in-process through cli.main so the exit-code payload is the
actual return value; report bytes are compared through --out files.
"""

import json
import sys
from collections import Counter

import pytest

from artifact import cli, spin_chain, tensor_core
from artifact.cli import CliError, main, parse_complex, read_config
from artifact.reporting import VerificationReport, emit_report


def test_parse_complex_forms():
    assert parse_complex("0.9+0.2i") == 0.9 + 0.2j
    assert parse_complex("1.1") == 1.1
    assert parse_complex("-0.3i") == -0.3j
    assert parse_complex(" 2 - 1i ") == 2 - 1j
    assert parse_complex("0.5+0.1j") == 0.5 + 0.1j
    with pytest.raises(CliError):
        parse_complex("abc")


def test_verify_single_suite_exit_zero(capsys):
    code = main(["verify", "--suite", "hecke", "--n", "2", "--sites", "2"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "hecke"
    assert report["pass"] is True
    assert report["params"]["n"] == 2
    assert all(c["millis"] == 0 for c in report["checks"])


def test_verify_all_is_array_of_suites(capsys):
    code = main(["verify", "--suite", "all", "--n", "2", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == [
        "hecke", "ybe", "reflection", "algebra", "chain", "symmetry"]
    assert all(r["pass"] for r in reports)


@pytest.mark.parametrize("suite", ["symmetry", "all"])
def test_vanishing_x0_skips_the_hamiltonian_checks_and_exits_zero(suite, capsys):
    # x(0) = 0 at cosh(i mu m) = cosh(2 i mu zeta): no Hamiltonian to build
    code = main(["verify", "--suite", suite, "--m", "1.2", "--zeta", "0.6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    reports = out if suite == "all" else [out]
    ids = {c["id"] for r in reports for c in r["checks"]}
    assert {"symmetry.corollary_skipped_degenerate",
            "symmetry.degeneracy_skipped_degenerate"} <= ids
    assert "symmetry.degeneracy" not in ids


def test_text_headline_leaves_out_flag_residuals(capsys):
    # symmetry.com12_nonzero passes by being large (about 0.3 here); the
    # headline is the largest residual of the checks gated by a bound
    code = main(["verify", "--suite", "symmetry", "--m", "1.2", "--zeta", "0.6",
                 "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    flagged = [float(line.split()[1]) for line in lines
               if line.startswith("symmetry.com12_nonzero.")]
    assert flagged and max(flagged) > 1e-3
    headline = float(lines[-1].rsplit("max residual ", 1)[1].rstrip(")"))
    assert headline < 1e-9


def test_impossible_tolerance_exits_one(capsys):
    code = main(["verify", "--suite", "hecke", "--n", "2", "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["--suite", "ybe", "--mu", "0"], "sinh(i*mu)",
                     id="degenerate-mu"),
        pytest.param(["--suite", "hecke", "--sites", "1"], "two sites",
                     id="hecke-one-site"),
        pytest.param(["--suite", "all", "--sites", "1"], "two sites",
                     id="all-one-site"),
        pytest.param(["--suite", "chain", "--diag-block", "7"], "diagonal block",
                     id="diag-block-high"),
        pytest.param(["--suite", "chain", "--diag-block", "0"], "diagonal block",
                     id="diag-block-zero"),
        pytest.param(["--suite", "hecke", "--samples", "0"], "samples",
                     id="samples-zero"),
        pytest.param(["--suite", "hecke", "--samples", "-1"], "samples",
                     id="samples-negative"),
        pytest.param(["--suite", "hecke", "--tol", "nan"], "tol", id="tol-nan"),
        pytest.param(["--suite", "hecke", "--tol", "inf"], "tol", id="tol-inf"),
        pytest.param(["--suite", "hecke", "--tol", "0"], "tol", id="tol-zero"),
        pytest.param(["--suite", "hecke", "--tol=-1e-9"], "tol",
                     id="tol-negative"),
        pytest.param(["--samples", "1", "--m", "nan"], "m must be finite",
                     id="m-nan"),
        pytest.param(["--samples", "1", "--zeta", "nan"], "zeta must be finite",
                     id="zeta-nan"),
        pytest.param(["--suite", "ybe", "--mu", "inf"], "mu must be finite",
                     id="mu-inf"),
        pytest.param(["--suite", "chain", "--xi", "nan"], "xi must be finite",
                     id="xi-nan"),
        # finite but huge: the derived constants overflow or Q underflows to 0
        pytest.param(["--mu", "1000i"], "overflows", id="mu-huge-imaginary"),
        pytest.param(["--mu=-1000i"], "overflows", id="mu-huge-negative-imaginary"),
        pytest.param(["--mu", "1e308"], "overflows", id="mu-huge-real"),
        pytest.param(["--m", "3000i"], "overflows", id="m-huge-imaginary"),
        pytest.param(["--zeta", "3000i"], "overflows", id="zeta-huge-imaginary"),
        pytest.param(["--xi", "1e308i"], "overflows", id="xi-huge-imaginary"),
    ],
)
def test_invalid_input_exits_two(args, message, capsys):
    code = main(["verify", "--n", "2"] + args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_bad_flag_value_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--mu", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_byte_identical_reruns(tmp_path):
    args = ["verify", "--suite", "reflection", "--n", "3", "--samples", "4",
            "--seed", "11"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_config_defaults_and_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nsuite = hecke\nseed = 3  # trailing comment\n")
    code = main(["verify", "--config", str(cfg)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["suite"] == "hecke"
    assert report["params"]["n"] == 2
    assert report["params"]["seed"] == 3

    code = main(["verify", "--config", str(cfg), "--n", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["params"]["n"] == 3  # flag wins over config


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code = main(["verify", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    with pytest.raises(CliError):
        read_config(str(cfg))


def test_unwritable_out_exits_three(capsys):
    code = main(["verify", "--suite", "hecke", "--n", "2",
                 "--out", "/nonexistent_dir_xq/report.json"])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_spectrum_shape_and_clusters(capsys):
    code = main(["spectrum", "--n", "3", "--sites", "2"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert len(rep["eigenvalues"]) == 9
    assert sum(c["multiplicity"] for c in rep["clusters"]) == 9
    assert any(c["multiplicity"] >= 2 for c in rep["clusters"])
    assert rep["cluster_tol"] == 1e-8


def test_spectrum_forms_no_dense_hamiltonian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the spectrum went through the dense route")

    embed_at = tensor_core.embed_at

    def local_only(op, slots, space):
        # the local terms are embedded on their own one- or two-site chains;
        # an embedding onto the 4-site chain is the dense route
        if len(space) > 2:
            refuse()
        return embed_at(op, slots, space)

    monkeypatch.setattr(spin_chain, "build_hamiltonian", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("artifact") and getattr(module, "embed_at", None) is embed_at:
            monkeypatch.setattr(module, "embed_at", local_only)
    report = cli.run_spectrum(dict(cli.DEFAULTS, n=3, sites=4))
    assert report.total_multiplicity == len(report.eigenvalues) == 81


@pytest.mark.parametrize("n, sites, pattern", [
    (3, 3, {1: 4, 2: 5, 3: 3, 4: 1}),
    (3, 4, {1: 9, 2: 12, 3: 9, 4: 4, 5: 1}),
    (4, 3, {1: 2, 3: 6, 6: 3, 8: 2, 10: 1}),
    (2, 4, {1: 16}),
])
def test_spectrum_cluster_multiplicities(n, sites, pattern):
    # multiplicity: number of clusters, as the dense eigensolve gave them
    report = cli.run_spectrum(dict(cli.DEFAULTS, n=n, sites=sites))
    assert Counter(c["multiplicity"] for c in report.clusters) == pattern


def test_spectrum_size_cap_exits_two(capsys):
    code = main(["spectrum", "--n", "4", "--sites", "7"])
    assert code == 2
    assert "4096" in capsys.readouterr().err


def test_spectrum_huge_mu_exits_two(capsys):
    code = main(["spectrum", "--mu", "1000i"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "overflows" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "suite, sites",
    [("all", 5), ("chain", 5), ("symmetry", 6), ("algebra", 7)],
)
def test_verify_size_cap_exits_two_before_any_suite(suite, sites, monkeypatch, capsys):
    # at n = 4 these need dense sides of 4^7 = 16384: refused before a suite runs
    def refuse(spec, **kw):
        pytest.fail("a suite ran on a request over the size cap")

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, refuse)
    code = main(["verify", "--n", "4", "--sites", str(sites), "--suite", suite])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "4096" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args, scalar",
    [
        (["--mu", "300i"], "Q"),
        (["--m", "700i"], "Q"),
        (["--zeta", "400i"], "cosh(2i*mu*zeta)"),
        (["--xi", "800i"], "sinh(lambda + i*mu*xi)"),
    ],
)
def test_overflowing_couplings_exit_two_before_any_suite(args, scalar, monkeypatch, capsys):
    # finite constants, but the suites' products would overflow to inf/NaN
    # residuals (exit 1), or the crossing fit would raise (a traceback)
    def refuse(spec, **kw):
        pytest.fail("a suite ran on couplings whose products overflow")

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, refuse)
    code = main(["verify", "--samples", "1"] + args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert scalar in captured.err and "overflow" in captured.err
    assert captured.err.count("\n") == 1


def test_degenerate_parameters_inside_a_suite_exit_two(monkeypatch, capsys):
    def degenerate(spec, **kw):
        raise cli.DegenerateParameters("crossing product overflows on the fit grid")

    monkeypatch.setitem(cli.SUITES, "ybe", degenerate)
    code = main(["verify", "--suite", "ybe", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "fit grid" in captured.err


def test_verify_size_cap_admits_the_cap(monkeypatch, capsys):
    # the chain suite at n = 4, four sites needs side 4^6 = 4096, the cap itself
    ran = []

    def record(spec, **kw):
        ran.append(spec)
        return VerificationReport(suite="chain", params={})

    monkeypatch.setitem(cli.SUITES, "chain", record)
    assert main(["verify", "--n", "4", "--sites", "4", "--suite", "chain"]) == 0
    assert len(ran) == 1
    capsys.readouterr()


def test_text_format_has_summary_line(capsys):
    code = main(["verify", "--suite", "hecke", "--n", "2", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_empty_report_is_vacuously_passing():
    rep = VerificationReport(suite="demo", params={})
    assert rep.passed
    assert json.loads(emit_report(rep, "json")) == {
        "suite": "demo", "params": {}, "checks": [], "pass": True}

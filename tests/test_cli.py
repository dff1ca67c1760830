"""Command-line contract: flags, config, exit codes, serialization.

Everything runs in-process through cli.main so the exit-code payload is the
actual return value; report bytes are compared through --out files.
"""

import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from artifact import ModelParams, cli, quantum_algebra, spin_chain, tensor_core
from artifact.cli import CliError, main, parse_complex, read_config
from artifact.params import DegenerateParameters
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


def test_ybe_suite_passes_at_large_imaginary_mu(capsys):
    # the crossing shift n mu / 2 = 2.25i is far off the real axis
    code = main(["verify", "--suite", "ybe", "--samples", "1", "--mu", "1.5i"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert {c["id"] for c in report["checks"] if c["id"].startswith("ybe.crossing")} == {
        "ybe.crossing.fit.homo", "ybe.crossing.drift.homo",
        "ybe.crossing.fit.prin", "ybe.crossing.drift.prin"}


def test_ybe_suite_passes_at_integer_m(capsys):
    # the hecke suite refuses m = 1; the R-matrix checks do not read m
    code = main(["verify", "--suite", "ybe", "--m", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_verify_all_is_array_of_suites(capsys):
    code = main(["verify", "--suite", "all", "--n", "2", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == [
        "hecke", "ybe", "reflection", "algebra", "chain", "symmetry"]
    assert all(r["pass"] for r in reports)


@pytest.mark.parametrize("sites", [3, 4, 5])
def test_symmetry_suite_reads_the_charge_tower_dense(sites, monkeypatch, capsys):
    # at n = 3 the charge tower has 27 rows on three sites (stored dense), 81
    # on four and 243 on five (stored as entry lists); every check reads its
    # images as arrays
    towers = []
    init = quantum_algebra.Tower.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        towers.append((self.params.n**self.L, self.sparse))

    monkeypatch.setattr(quantum_algebra.Tower, "__init__", recorded)
    code = main(["verify", "--suite", "symmetry", "--n", "3", "--sites", str(sites),
                 "--samples", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"] is True
    assert all(c["pass"] is True for c in report["checks"])
    assert (3**sites, sites > 3) in towers


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
        # integer m: kappa' (m = 1) or delta0' (m = 0) of the hecke suite is 0
        pytest.param(["--m", "1"], "BOUNDARY_CONSTANT_GAP", id="m-one"),
        pytest.param(["--m", "0"], "BOUNDARY_CONSTANT_GAP", id="m-zero"),
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
        # n^sites has over 4300 digits: the refusal writes the power, not its value
        pytest.param(["--n", "3", "--sites", "100000"], "side 3^100000, over the cap 4096",
                     id="sites-huge"),
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


@pytest.mark.parametrize("flag", ["m", "mu", "zeta", "xi"])
def test_negative_complex_value_after_a_space(flag, tmp_path):
    # argparse would read "-0.4+0.7i" as a flag; both spellings must give
    # the same report, and one that the value changed
    args = ["verify", "--suite", "reflection", "--n", "2", "--samples", "1"]
    reports = {}
    for name, extra in (("spaced", [f"--{flag}", "-0.4+0.7i"]),
                        ("joined", [f"--{flag}=-0.4+0.7i"]), ("default", [])):
        reports[name] = tmp_path / f"{name}.json"
        assert main(args + extra + ["--out", str(reports[name])]) == 0
    spaced, joined, default = (reports[k].read_bytes() for k in ("spaced", "joined", "default"))
    assert spaced == joined != default


def test_a_complex_flag_still_refuses_a_following_flag():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "--n", "2"])
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


@pytest.mark.parametrize("line, flags, message", [
    ("gauge = weird", ["--gauge", "principal"], "gauge: 'weird' is not one of"),
    ("n = 2.5", ["--n", "2"], "n: cannot parse '2.5'"),
    ("seed = -1", ["--seed", "0"], "seed: seed must fit in 64 unsigned bits"),
])
def test_invalid_config_value_exits_two_under_an_overriding_flag(
        line, flags, message, tmp_path, capsys):
    # each line is checked when the file is read, whether or not a flag wins
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"suite = hecke  # the key a flag overrides is on line 2\n{line}\n")
    code = main(["verify", "--config", str(cfg), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{cfg}:2: {message}" in captured.err
    assert captured.err.count("\n") == 1


# Every verify setting and its default; spectrum reads only the model
# parameters and the output settings.
VERIFY_DEFAULTS = {
    "n": 3, "sites": 2, "mu": 0.41 + 0j, "m": 0.9 + 0.2j, "zeta": 0.6 + 0j,
    "samples": 5, "seed": 0, "tol": 1e-9, "gauge": "homogeneous", "left": "identity",
    "right": "explicit", "diag-block": 1, "xi": 0.35 + 0j, "suite": "all",
    "format": "json", "out": None, "timings": False,
}
SPECTRUM_KEYS = {"n", "sites", "mu", "m", "zeta", "out", "format"}


def test_defaults_keep_every_verify_setting():
    assert list(cli.DEFAULTS.items()) == list(VERIFY_DEFAULTS.items())


@pytest.mark.parametrize("command, keys, fixed", [
    ("verify", set(VERIFY_DEFAULTS), ["--suite", "hecke", "--n", "2", "--samples", "1"]),
    ("spectrum", SPECTRUM_KEYS, ["--n", "2", "--sites", "2"]),
])
def test_long_flags_and_config_keys_are_the_same_set(command, keys, fixed, tmp_path, capsys):
    # each setting is given once as a flag and once as a config key, at its
    # default; the flags after it keep every run small
    cfg = tmp_path / "run.cfg"
    by_flag, by_config = set(), set()
    for key, default in VERIFY_DEFAULTS.items():
        value = str(tmp_path / "report.json") if key == "out" else str(default)
        try:
            code = main([command, f"--{key}", *([] if key == "timings" else [value]), *fixed])
        except SystemExit as exc:
            assert exc.code == 2
            assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        else:
            assert code == 0
            by_flag.add(key)
        cfg.write_text(f"{key} = {value}\n")
        code = main([command, "--config", str(cfg), *fixed])
        captured = capsys.readouterr()
        if code == 0:
            by_config.add(key)
        else:
            assert code == 2
            assert captured.err == f"error: {cfg}:1: unknown config key {key!r}\n"
    assert by_flag == by_config == keys


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
    # n = 2 takes the seminormal blocks, not its one weight sector
    monkeypatch.setattr(cli, "hamiltonian_blocks", refuse)
    report = cli.run_spectrum(dict(cli.DEFAULTS, n=2, sites=6))
    assert report.total_multiplicity == len(report.eigenvalues) == 64


def _dense_spectrum(settings):
    p = ModelParams(n=settings["n"], mu=settings["mu"], m=settings["m"],
                    zeta=settings["zeta"], sites=settings["sites"])
    return np.linalg.eigvals(spin_chain.build_hamiltonian(spin_chain.ChainSpec(p)).mat)


def _worst_move(got, want):
    """Largest |got - want| over the pairing of the two multisets that makes
    it least, relative to the largest |want|."""
    got = np.asarray(got, dtype=np.complex128)
    i, j = linear_sum_assignment(np.abs(want[:, None] - got[None, :]))
    return np.max(np.abs(want[i] - got[j])) / np.max(np.abs(want))


def _weight_sector_report(monkeypatch, settings):
    def degenerate(params):
        raise DegenerateParameters("weight-sector route forced")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "hecke_blocks", degenerate)
        return cli.run_spectrum(settings)


SPECTRUM_POINTS = [(0.41, 0.9 + 0.2j, 0.6), (0.3 + 0.2j, 1.5, 0.25), (1.1, -0.4 + 0.7j, 0.25)]


def _check_block_route(monkeypatch, settings):
    """The spectrum takes the seminormal blocks, and matches the dense
    eigensolve and the weight sectors' cluster multiplicities."""
    returned = []
    inner = cli.hecke_blocks

    def blocks(params):
        returned.append(inner(params))
        return returned[-1]

    monkeypatch.setattr(cli, "hecke_blocks", blocks)
    report = cli.run_spectrum(settings)
    assert len(returned) == 1  # the block route, not the fallback
    assert _worst_move(report.eigenvalues, _dense_spectrum(settings)) <= 1e-11
    dense = _weight_sector_report(monkeypatch, settings)
    assert [c["multiplicity"] for c in report.clusters] == [
        c["multiplicity"] for c in dense.clusters]


@pytest.mark.parametrize("mu, m, zeta", SPECTRUM_POINTS)
@pytest.mark.parametrize("sites", range(1, 9))
def test_spectrum_at_n2_matches_the_dense_eigensolve(monkeypatch, sites, mu, m, zeta):
    _check_block_route(monkeypatch, dict(cli.DEFAULTS, n=2, sites=sites, mu=mu, m=m, zeta=zeta))


@pytest.mark.parametrize("mu, m, zeta", SPECTRUM_POINTS)
@pytest.mark.parametrize("n, sites", [(3, s) for s in range(1, 6)] + [(4, s) for s in range(1, 5)])
def test_spectrum_at_n3_and_n4_matches_the_dense_eigensolve(monkeypatch, n, sites, mu, m, zeta):
    _check_block_route(monkeypatch, dict(cli.DEFAULTS, n=n, sites=sites, mu=mu, m=m, zeta=zeta))


def test_spectrum_at_n2_reaches_ten_sites():
    settings = dict(cli.DEFAULTS, n=2, sites=10)
    report = cli.run_spectrum(settings)
    assert _worst_move(report.eigenvalues, _dense_spectrum(settings)) <= 1e-11
    assert report.total_multiplicity == 1024


@pytest.mark.parametrize("sites", range(3, 9))
def test_spectrum_at_a_root_of_unity_takes_the_charge_route(monkeypatch, sites):
    # q^6 = 1, but at n = 2 no component has two rows, so no separation
    # b - a of the seminormal blocks is q^(2d) - 1; at n = 2 the blocks are
    # H on the eigenspaces of the charge Q_11
    settings = dict(cli.DEFAULTS, n=2, sites=sites, mu=math.pi / 3)

    def refuse(spec):
        raise AssertionError("the spectrum fell back to the weight sectors")

    monkeypatch.setattr(cli, "hamiltonian_blocks", refuse)
    report = cli.run_spectrum(settings)
    assert _worst_move(report.eigenvalues, _dense_spectrum(settings)) <= 1e-11


@pytest.mark.parametrize("mu, m", [(0.41, 0), (0.41, 1), (0.7, 2),
                                   (0.15 - 0.1j, 2 + 0.001953125j)])
def test_spectrum_at_integer_m_takes_the_weight_sectors(monkeypatch, mu, m):
    # e^{2i mu (m - s)} = 1 across the components there (nearly so at the
    # last point), so the seminormal blocks are refused and the one weight
    # sector of n = 2 is eigensolved whole
    settings = dict(cli.DEFAULTS, n=2, sites=6, mu=mu, m=m)
    calls = []
    inner = cli.hamiltonian_blocks
    monkeypatch.setattr(cli, "hamiltonian_blocks", lambda spec: calls.append(spec) or inner(spec))
    report = cli.run_spectrum(settings)
    assert len(calls) == 1
    assert _worst_move(report.eigenvalues, _dense_spectrum(settings)) <= 1e-11


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
    # 2^20000 has over 4300 digits: the refusal writes the power, not its value
    for n, sites in ((4, 7), (2, 20000)):
        code = main(["spectrum", "--n", str(n), "--sites", str(sites)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: n^sites = {n}^{sites} exceeds the "
                                "dense-eigensolve cap 4096\n")


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
        raise cli.DegenerateParameters("crossing product overflows at mu = 300j")

    monkeypatch.setitem(cli.SUITES, "ybe", degenerate)
    code = main(["verify", "--suite", "ybe", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "crossing product overflows" in captured.err


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

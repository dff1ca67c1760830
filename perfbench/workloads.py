"""The benchmark's workloads: what one op calls, and how its output is checked.

Each workload has ``run(seed)``, the timed calls into the package, and
``check(seed, result)``, which returns a list of problems (empty when the op
is correct). Checks run after the timer stops and outside any trace.

Correctness is judged by residuals recomputed here from the program's own
outputs, never by ``max_residual()`` (the ``*_nonzero``/``*_witness`` flags
pass by being large) and never by comparing floats with output stored from
another commit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Package functions are called through their modules, so that the tracer's
# rebinding of module attributes sees these calls too.
from artifact import boundary_charges, cli, spin_chain
from artifact.params import ModelParams
from artifact.sampling import rng_from_seed, sample_spectral
from artifact.spin_chain import ChainSpec

RESIDUAL_TOL = 1e-9
CHECK_IDS = Path(__file__).with_name("verify_defaults_check_ids.json")


def _comm_zero(a: np.ndarray, b: np.ndarray) -> float:
    """||AB - BA||_F / (||A||_F ||B||_F), the suites' commutator convention."""
    return float(np.linalg.norm(a @ b - b @ a)
                 / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-300))


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    """||A - B||_F / ||B||_F."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _cli_params(n: int, sites: int) -> ModelParams:
    d = cli.DEFAULTS
    return ModelParams(n=n, mu=d["mu"], m=d["m"], zeta=d["zeta"], sites=sites)


class VerifyDefaults:
    """``artifact verify --suite all --seed S --out <file>`` at CLI defaults."""

    name = "verify-defaults"

    def __init__(self, out_dir: Path):
        self.out = out_dir / "verify-defaults.json"
        self.expected_ids = json.loads(CHECK_IDS.read_text(encoding="utf-8"))
        self.first_output: dict[int, bytes] = {}

    def prepare(self, seeds: list[int]) -> None:
        pass

    def run(self, seed: int) -> int:
        return cli.main(["verify", "--suite", "all", "--seed", str(seed),
                         "--out", str(self.out)])

    def check(self, seed: int, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        raw = self.out.read_bytes()
        problems = []
        # The same seed must give byte-identical JSON within the run.
        first = self.first_output.setdefault(seed, raw)
        if raw != first:
            problems.append(f"seed {seed}: JSON differs from the first op with this seed")
        reports = json.loads(raw)
        ids = [c["id"] for r in reports for c in r["checks"]]
        if ids != self.expected_ids:
            problems.append(f"check ids differ from {CHECK_IDS.name} "
                            f"({len(ids)} ids, {len(self.expected_ids)} expected)")
        failing = [c["id"] for r in reports for c in r["checks"] if c["pass"] is not True]
        if failing:
            problems.append(f"failing checks: {failing[:5]}")
        if not all(r["pass"] is True for r in reports):
            problems.append("a suite reports pass = false")
        return problems


class ChainReach:
    """Open transfer matrices, both Hamiltonian routes and the boundary
    charges at the largest sizes the dense path handles in seconds."""

    name = "chain-reach"
    SIZES = ((2, 8), (3, 5), (4, 4))

    def __init__(self, out_dir: Path, sizes=SIZES):
        self.specs = [ChainSpec(params=_cli_params(n, sites)) for n, sites in sizes]
        self.points: dict[int, list] = {}

    def prepare(self, seeds: list[int]) -> None:
        for seed in seeds:
            rng = rng_from_seed(seed)
            self.points[seed] = [sample_spectral(rng, spec.params, 2) for spec in self.specs]

    def run(self, seed: int) -> list[dict]:
        out = []
        for spec, (l1, l2) in zip(self.specs, self.points[seed]):
            out.append({
                "t1": spin_chain.build_transfer(spec, l1).mat,
                "t2": spin_chain.build_transfer(spec, l2).mat,
                "h_hecke": spin_chain.build_hamiltonian(spec, "hecke_form").mat,
                "h_deriv": spin_chain.build_hamiltonian(spec, "transfer_derivative").mat,
                "charges": [q.mat for q in boundary_charges.build_boundary_charges(
                    spec.params, spec.params.sites).entries.values()],
            })
        return out

    def check(self, seed: int, result: list[dict]) -> list[str]:
        problems = []
        for spec, r in zip(self.specs, result):
            p = spec.params
            size = f"n={p.n} N={p.sites}"
            d = p.n**p.sites
            mats = [r["t1"], r["t2"], r["h_hecke"], r["h_deriv"], *r["charges"]]
            if any(m.shape != (d, d) or not np.all(np.isfinite(m))
                   or np.linalg.norm(m) == 0.0 for m in mats):
                problems.append(f"{size}: an output is mis-shaped, non-finite or zero")
                continue
            t1, h = r["t1"], r["h_hecke"]
            residuals = {
                "[t(l1),t(l2)]": _comm_zero(t1, r["t2"]),
                "H routes": _rel(r["h_deriv"], h),
                "[H,t]": _comm_zero(h, t1),
                "[Q,t] (Prop. 4.3)": max(_comm_zero(q, t1) for q in r["charges"]),
                "[Q,H]": max(_comm_zero(q, h) for q in r["charges"]),
            }
            for what, value in residuals.items():
                if not value <= RESIDUAL_TOL:
                    problems.append(f"{size}: {what} residual {value:.3e} > {RESIDUAL_TOL}")
        return problems


class Spectrum:
    """``cli.run_spectrum`` at CLI defaults; the dense eigensolve dominates.

    The spectrum depends on the model parameters only, so every seed gives
    the same input here.
    """

    name = "spectrum"
    SIZES = ((3, 6), (2, 10))

    def __init__(self, out_dir: Path, sizes=SIZES):
        self.sizes = sizes
        self.oracle: list[tuple] = []

    def prepare(self, seeds: list[int]) -> None:
        # Traces of H and H^2, and ||H||_F, to check the eigenvalues against.
        for n, sites in self.sizes:
            h = spin_chain.build_hamiltonian(ChainSpec(params=_cli_params(n, sites))).mat
            self.oracle.append(
                (np.trace(h), np.sum(h * h.T), float(np.linalg.norm(h)))
            )

    def run(self, seed: int) -> list:
        return [cli.run_spectrum(dict(cli.DEFAULTS, n=n, sites=sites, seed=seed))
                for n, sites in self.sizes]

    def check(self, seed: int, result: list) -> list[str]:
        problems = []
        for (n, sites), report, (tr1, tr2, norm) in zip(self.sizes, result, self.oracle):
            size = f"n={n} N={sites}"
            evals = np.asarray(report.eigenvalues, dtype=np.complex128)
            if evals.shape != (n**sites,) or not np.all(np.isfinite(evals)):
                problems.append(f"{size}: expected {n**sites} finite eigenvalues")
                continue
            if report.total_multiplicity != n**sites:
                problems.append(f"{size}: cluster multiplicities do not sum to {n**sites}")
            res1 = abs(evals.sum() - tr1) / norm
            res2 = abs((evals * evals).sum() - tr2) / norm**2
            for what, value in (("sum", res1), ("sum of squares", res2)):
                if not (math.isfinite(value) and value <= RESIDUAL_TOL):
                    problems.append(f"{size}: eigenvalue {what} vs trace residual "
                                    f"{value:.3e} > {RESIDUAL_TOL}")
        return problems


WORKLOADS = {w.name: w for w in (VerifyDefaults, ChainReach, Spectrum)}

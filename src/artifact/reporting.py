"""Verification and spectrum reports plus their JSON/text serialization.

The JSON layout is stable so runs can be diffed: a report is
{"suite": ..., "params": {...}, "checks": [...], "pass": bool} and each check
is {"id", "residual", "scalar", "pass", "millis"}. Complex numbers serialize
as two-element [re, im] lists. Timings default to 0 so identical args + seed
produce byte-identical output; set_timings_default(True) records wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    id: str
    residual: float
    passed: bool
    scalar: complex | None = None
    millis: int = 0
    # Set by ReportBuilder.add_flag; kept out of the JSON.
    flag: bool = False


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def max_residual(self) -> float:
        """Largest residual over the checks that compare with a bound.

        Flags are left out: their residual is a size that passes by being
        large (``*_nonzero``, ``*_witness``) or a diagnostic."""
        return max((c.residual for c in self.checks if not c.flag), default=0.0)

    def find(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)


_collect_timings_default = False


def set_timings_default(on: bool) -> None:
    """Opt subsequently built reports into wall-time capture (CLI hook)."""
    global _collect_timings_default
    _collect_timings_default = bool(on)


class ReportBuilder:
    """Collects checks in a fixed order; ids are 'module.check.instance'."""

    def __init__(self, suite: str, params: dict):
        self.suite = suite
        self.params = dict(params)
        self.checks: list[CheckResult] = []
        self.collect_timings = _collect_timings_default
        self._t0 = time.perf_counter()

    def _lap_ms(self) -> int:
        if not self.collect_timings:
            return 0
        now = time.perf_counter()
        ms = int(round(1000 * (now - self._t0)))
        self._t0 = now
        return ms

    def add(
        self,
        check_id: str,
        residual: float,
        tol: float,
        scalar: complex | None = None,
    ) -> CheckResult:
        c = CheckResult(
            id=check_id,
            residual=float(residual),
            passed=bool(residual <= tol),
            scalar=scalar,
            millis=self._lap_ms(),
        )
        self.checks.append(c)
        return c

    def add_flag(self, check_id: str, ok: bool, residual: float = 0.0) -> CheckResult:
        """For pass/fail facts that are not residual comparisons."""
        c = CheckResult(
            id=check_id,
            residual=float(residual),
            passed=bool(ok),
            scalar=None,
            millis=self._lap_ms(),
            flag=True,
        )
        self.checks.append(c)
        return c

    def report(self) -> VerificationReport:
        return VerificationReport(self.suite, self.params, self.checks)


@dataclass
class SpectrumReport:
    n: int
    sites: int
    eigenvalues: list[complex]
    clusters: list[dict]  # {"value": complex centroid, "multiplicity": int}
    hermitian_defect: float
    cluster_tol: float

    @property
    def total_multiplicity(self) -> int:
        return sum(c["multiplicity"] for c in self.clusters)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _num(z):
    """Complex (or real) number -> JSON-safe value."""
    if z is None:
        return None
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "suite": r.suite,
        "params": {k: _num(v) if isinstance(v, (float, complex)) else v
                   for k, v in r.params.items()},
        "checks": [
            {
                "id": c.id,
                "residual": c.residual,
                "scalar": _num(c.scalar),
                "pass": c.passed,
                "millis": c.millis,
            }
            for c in r.checks
        ],
        "pass": r.passed,
    }


def spectrum_to_dict(r: SpectrumReport) -> dict:
    return {
        "n": r.n,
        "sites": r.sites,
        "eigenvalues": [_num(z) for z in r.eigenvalues],
        "clusters": [
            {"value": _num(c["value"]), "multiplicity": c["multiplicity"]}
            for c in r.clusters
        ],
        "hermitian_defect": r.hermitian_defect,
        "cluster_tol": r.cluster_tol,
    }


def emit_report(report, fmt: str = "json") -> str:
    """Serialize a VerificationReport or SpectrumReport."""
    if isinstance(report, VerificationReport):
        d = report_to_dict(report)
    elif isinstance(report, SpectrumReport):
        d = spectrum_to_dict(report)
    else:
        raise TypeError(f"cannot serialize {type(report).__name__}")
    if fmt == "json":
        return json.dumps(d, indent=2, sort_keys=False) + "\n"
    if fmt == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_text(report) -> str:
    lines = []
    if isinstance(report, VerificationReport):
        lines.append(f"suite: {report.suite}")
        for k, v in report.params.items():
            lines.append(f"  {k} = {v}")
        lines.append(f"{'check':<44} {'residual':>12} {'scalar':>24} {'ok':>4}")
        for c in report.checks:
            sc = "" if c.scalar is None else f"{c.scalar:.6g}"
            lines.append(
                f"{c.id:<44} {c.residual:>12.3e} {sc:>24} "
                f"{'ok' if c.passed else 'FAIL':>4}"
            )
        lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} "
                     f"({len(report.checks)} checks, "
                     f"max residual {report.max_residual():.3e})")
    else:
        lines.append(f"spectrum: n={report.n} sites={report.sites}")
        lines.append(f"hermitian defect: {report.hermitian_defect:.3e}")
        lines.append(f"clusters (tol {report.cluster_tol:.1e}):")
        for c in report.clusters:
            lines.append(f"  {c['value']!s:<40} x{c['multiplicity']}")
    return "\n".join(lines) + "\n"

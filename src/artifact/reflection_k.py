"""Boundary K-matrices and the reflection-equation check suite.

Right-boundary solutions on C^n:

* ansatz form   K = x(lambda) I + y(lambda) M0 with M0 the rescaled boundary
  Hecke generator on one site, x built from the rescaled quadratic constants,
  y = 2 sinh 2lambda sinh i mu;
* explicit form, homogeneous gauge:
      K_11 = e^{2 lambda} cosh i mu m - cosh 2 i mu zeta,
      K_nn = e^{-2 lambda} cosh i mu m - cosh 2 i mu zeta,
      K_1n = K_n1 = -i sinh 2 lambda,
      K_jj = cosh(2 lambda + i mu m) - cosh 2 i mu zeta   (1 < j < n);
  the two agree entrywise, not merely up to scale;
* principal gauge: V(lambda) K^(h) V(lambda), with the exponents written out;
* the diagonal one-parameter family diag(alpha ... alpha, beta ... beta) with
  alpha = sinh(-lambda + i mu xi) e^{lambda}, beta = sinh(lambda + i mu xi)
  e^{-lambda} and a block size 1 <= l <= n-1.

Left boundaries: identity, the transposed-and-shifted explicit right K
K(-lambda - i mu n/2)^t (homogeneous gauge), and its boundary-parameter limit
diag(e^{-2 lambda - i mu n}, ..., e^{2 lambda + i mu n}).

A published diagonal+corner solution in the principal gradation is
reproduced exactly under the parameter identifications implemented in
``map_abad_rios`` (theta = 2 lambda / n, both matrices rescaled as
``verify_reflection_suite`` does).

``reflection_sandwich`` is S(v) = R12(l1 - v) K1(l1) R21(l1 + v), and
``reflection_residual`` is Sklyanin's reflection equation S(l2) K2 = K2 S(-l2),
written once for every K on C^n and for the double row on the auxiliary
space and the sites. The chain's intertwiner checks read the same sandwich
block by block.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hecke_algebra import rep_boundary
from .params import ModelParams
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_model, sample_spectral
from .tensor_core import (
    RESIDUAL_FLOOR,
    Operator,
    apply_left,
    apply_right,
    embed_at,
    identity_op,
    kron,
    prop_check,
    rel_residual,
    sym_residual,
)
from .yang_baxter import Gauge, build_gauge_V, build_r, build_r_hat, build_rcheck

__all__ = [
    "LeftBoundaryKind",
    "AbadRiosParams",
    "build_k_ansatz",
    "build_k_explicit",
    "build_k_diagonal",
    "build_k_left",
    "map_abad_rios",
    "build_abad_rios_k",
    "reflection_sandwich",
    "reflection_residual",
    "verify_reflection_suite",
]


class LeftBoundaryKind(str, Enum):
    identity = "identity"
    transpose_shift = "transpose-shift"
    affine_limit = "affine-limit"


def build_k_ansatz(params: ModelParams, lam: complex) -> Operator:
    n = params.n
    p1 = ModelParams(n=n, mu=params.mu, m=params.m, zeta=params.zeta, sites=1)
    m0 = rep_boundary(p1)
    x = params.k_diag_x(lam)
    y = params.k_offdiag_y(lam)
    return Operator(x * np.eye(n) + y * m0.mat, (n,))


def build_k_explicit(
    params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous
) -> Operator:
    n, mu, m, zeta = params.n, params.mu, params.m, params.zeta
    ch_m = cmath.cosh(1j * mu * m)
    ch_z = cmath.cosh(2j * mu * zeta)
    k = np.zeros((n, n), dtype=np.complex128)
    k[0, 0] = cmath.exp(2 * lam) * ch_m - ch_z
    k[n - 1, n - 1] = cmath.exp(-2 * lam) * ch_m - ch_z
    k[0, n - 1] += -1j * cmath.sinh(2 * lam)
    k[n - 1, 0] += -1j * cmath.sinh(2 * lam)
    for j in range(2, n):
        k[j - 1, j - 1] = cmath.cosh(2 * lam + 1j * mu * m) - ch_z
    if gauge == Gauge.principal:
        # exponent pattern of the gauge-dressed entries, written out
        kp = np.zeros_like(k)
        kp[0, 0] = k[0, 0]
        kp[n - 1, n - 1] = cmath.exp(2 * (n - 1) * 2 * lam / n) * k[n - 1, n - 1]
        corner = cmath.exp((n - 1) * 2 * lam / n)
        kp[0, n - 1] = corner * k[0, n - 1]
        kp[n - 1, 0] = corner * k[n - 1, 0]
        for j in range(2, n):
            kp[j - 1, j - 1] = cmath.exp((2 * j - 2) * 2 * lam / n) * k[j - 1, j - 1]
        k = kp
    return Operator(k, (n,))


def build_k_diagonal(params: ModelParams, lam: complex, l: int, xi: complex) -> Operator:
    n = params.n
    if not (1 <= l <= n - 1):
        raise ValueError(f"block size {l} out of range 1..{n-1}")
    alpha = cmath.sinh(-lam + 1j * params.mu * xi) * cmath.exp(lam)
    beta = cmath.sinh(lam + 1j * params.mu * xi) * cmath.exp(-lam)
    return Operator(np.diag([alpha] * l + [beta] * (n - l)), (n,))


def build_k_left(params: ModelParams, lam: complex, kind: LeftBoundaryKind) -> Operator:
    """Left-boundary matrix; transpose-shift transposes and shifts the
    homogeneous explicit right K."""
    n = params.n
    if kind == LeftBoundaryKind.identity:
        return identity_op([n])
    if kind == LeftBoundaryKind.transpose_shift:
        return build_k_explicit(params, -lam - 1j * params.mu * n / 2.0).transpose()
    if kind == LeftBoundaryKind.affine_limit:
        lead = cmath.exp(-2 * lam - 1j * params.mu * n)
        d = [lead] * (n - 1) + [cmath.exp(2 * lam + 1j * params.mu * n)]
        return Operator(np.diag(d), (n,))
    raise ValueError(f"unknown left boundary kind {kind}")


# ---------------------------------------------------------------------------
# published principal-gradation solution, for comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbadRiosParams:
    rho_a: complex
    rho_b: complex
    rho_c: complex
    rho_d: complex
    eps_plus: complex

    def constraint_residual(self) -> float:
        lhs = self.rho_c * self.rho_d
        rhs = self.rho_b * (self.rho_b + self.rho_a * cmath.exp(-self.eps_plus))
        return abs(lhs - rhs) / max(abs(lhs), RESIDUAL_FLOOR)


def map_abad_rios(params: ModelParams) -> AbadRiosParams:
    """Parameter identifications, with rho_c = rho_d = 1.

    e^{-eps} rho_a = -2i cosh(i mu m), e^{+eps} rho_a = -2i cosh(2 i mu zeta)
    and rho_b = i e^{i mu m}; eps is fixed by the ratio with the principal
    logarithm branch.
    """
    ch_m = cmath.cosh(1j * params.mu * params.m)
    ch_z = cmath.cosh(2j * params.mu * params.zeta)
    if abs(ch_m) < 1e-12 or abs(ch_z) < 1e-12:
        raise ValueError("degenerate boundary parameters: cosh factor near zero")
    eps = 0.5 * cmath.log(ch_z / ch_m)
    rho_a = -2j * ch_m * cmath.exp(eps)
    rho_b = 1j * cmath.exp(1j * params.mu * params.m)
    return AbadRiosParams(rho_a=rho_a, rho_b=rho_b, rho_c=1.0, rho_d=1.0, eps_plus=eps)


def build_abad_rios_k(params: ModelParams, lam: complex, ar: AbadRiosParams) -> Operator:
    n = params.n
    theta = 2.0 * lam / n
    eps = ar.eps_plus
    k = np.zeros((n, n), dtype=np.complex128)
    k[0, 0] = ar.rho_a * cmath.sinh(eps - n * theta / 2)
    k[n - 1, n - 1] = ar.rho_a * cmath.exp((n - 2) * theta) * cmath.sinh(eps + n * theta / 2)
    k[0, n - 1] = ar.rho_d * cmath.exp((n / 2 - 1) * theta) * cmath.sinh(n * theta)
    k[n - 1, 0] = ar.rho_c * cmath.exp((n / 2 - 1) * theta) * cmath.sinh(n * theta)
    for j in range(2, n):
        k[j - 1, j - 1] = ar.rho_a * cmath.exp((2 * j - 2 - n) * theta) * cmath.sinh(
            eps + n * theta / 2
        ) + ar.rho_b * cmath.exp((2 * j - 2 - n / 2) * theta) * cmath.sinh(n * theta)
    return Operator(k, (n,))


# ---------------------------------------------------------------------------
# reflection equation
# ---------------------------------------------------------------------------


def reflection_sandwich(params, k1: Operator, l1: complex, v: complex,
                        gauge: Gauge = Gauge.homogeneous) -> Operator:
    """R12(l1-v) K1 R21(l1+v), with ``k1`` = K(l1) already placed on
    auxiliary spaces 1 and 2 followed by the quantum spaces. The two R's are
    applied to K1, never embedded."""
    space = k1.dims
    r12k1 = apply_left(build_r(params, l1 - v, gauge), k1.mat, [1, 2], space)
    return Operator(apply_right(r12k1, build_r_hat(params, l1 + v, gauge), [1, 2], space), space)


def reflection_residual(params, k_of_lam, l1: complex, l2: complex,
                        gauge: Gauge = Gauge.homogeneous) -> float:
    """sym_residual of the reflection equation S(l2) K2(l2) = K2(l2) S(-l2),
    i.e. R12(l1-l2) K1(l1) R21(l1+l2) K2(l2) = K2(l2) R12(l1+l2) K1(l1) R21(l1-l2),
    with S the ``reflection_sandwich`` of K1(l1).

    ``k_of_lam(u)`` acts on one auxiliary space, optionally followed by
    quantum spaces (the double row); K1 and K2 put it on auxiliary space 1
    and 2 with the same quantum spaces. K1 is embedded for the sandwiches;
    K2 is applied to them, never embedded.
    """
    ka = k_of_lam(l1)
    space = (params.n, params.n) + ka.dims[1:]
    quantum = list(range(3, len(space) + 1))
    k1 = embed_at(ka, [1] + quantum, space)
    k2 = k_of_lam(l2)
    return sym_residual(
        apply_right(reflection_sandwich(params, k1, l1, l2, gauge).mat, k2, [2] + quantum, space),
        apply_left(k2, reflection_sandwich(params, k1, l1, -l2, gauge).mat, [2] + quantum, space))


def _braid_reflection_residual(params, k_of_lam, l1, l2) -> float:
    n = params.n
    eye = identity_op([n])

    def c(u):
        return build_rcheck(params, u)

    k1a = kron(k_of_lam(l1), eye)
    k1b = kron(k_of_lam(l2), eye)
    lhs = c(l1 - l2) @ k1a @ c(l1 + l2) @ k1b
    rhs = k1b @ c(l1 + l2) @ k1a @ c(l1 - l2)
    return sym_residual(lhs, rhs)


def verify_reflection_suite(
    params: ModelParams,
    samples: int = 10,
    tol: float = 1e-10,
    seed: int = 0,
    diag_block: int = 1,
    xi: complex = 0.35,
) -> VerificationReport:
    n = params.n
    rng = rng_from_seed(seed)
    rb = ReportBuilder(
        "reflection",
        {"n": n, "samples": samples, "seed": seed, "tol": tol,
         "diag_block": diag_block, "xi": xi},
    )

    for s in range(samples):
        p = params if s == 0 else sample_model(rng, n)
        l1, l2 = sample_spectral(rng, p, 2)

        k_ans = lambda u, p=p: build_k_ansatz(p, u)
        k_hom = lambda u, p=p: build_k_explicit(p, u, Gauge.homogeneous)
        k_pri = lambda u, p=p: build_k_explicit(p, u, Gauge.principal)
        k_dia = lambda u, p=p: build_k_diagonal(p, u, diag_block, xi)

        rb.add(f"reflection.re.ansatz.s{s}",
               reflection_residual(p, k_ans, l1, l2), tol)
        rb.add(f"reflection.re.explicit_hom.s{s}",
               reflection_residual(p, k_hom, l1, l2), tol)
        rb.add(f"reflection.re.explicit_prin.s{s}",
               reflection_residual(p, k_pri, l1, l2, Gauge.principal), tol)
        rb.add(f"reflection.re.diagonal.s{s}",
               reflection_residual(p, k_dia, l1, l2), tol)
        rb.add(f"reflection.re_braid.s{s}",
               _braid_reflection_residual(p, k_hom, l1, l2), tol)

        # unitarity K(lambda) K(-lambda) ∝ I (needs x(±lambda) away from 0)
        for name, fam in (("ansatz", k_ans), ("explicit", k_hom),
                          ("diagonal", k_dia)):
            prod = fam(l1) @ fam(-l1)
            res = prop_check(prod, identity_op([n]))
            rb.add(f"reflection.kunitarity.{name}.s{s}", res.residual, tol,
                   scalar=res.scalar)

        rb.add(f"reflection.ansatz_eq_explicit.s{s}",
               rel_residual(k_ans(l1), k_hom(l1)), 1e-11)
        v = build_gauge_V(p, l1)
        rb.add(f"reflection.gauge.s{s}",
               rel_residual(v @ k_hom(l1) @ v, k_pri(l1)), 1e-12)

        # published-solution match: i K^(p) against e^{lambda} K^(AR)
        ar = map_abad_rios(p)
        rb.add(f"reflection.ar_constraint.s{s}", ar.constraint_residual(), 1e-10)
        scaled_ours = 1j * k_pri(l1)
        scaled_ar = cmath.exp(l1) * build_abad_rios_k(p, l1, ar)
        pr = prop_check(scaled_ours, scaled_ar)
        rb.add(f"reflection.ar_match.s{s}", pr.residual, tol, scalar=pr.scalar)
        rb.add(f"reflection.ar_scale.s{s}", abs(pr.scalar - 1.0), 1e-9)
    return rb.report()

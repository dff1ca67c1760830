"""Trigonometric R-matrices in both gradations, with their full check suite.

The braid-form solution on C^n (x) C^n is

    Rcheck(lambda) = sinh(lambda + i mu) I + sinh(lambda) U,

with U the bulk Hecke generator; R = P Rcheck. Entrywise,

    R^(h) = a sum e_ii (x) e_ii + b sum_{i!=j} e_ii (x) e_jj
            + c sum_{i!=j} e^{-sgn(i-j) lambda} e_ij (x) e_ji,

a = sinh(lambda+i mu), b = sinh lambda, c = sinh i mu. The principal
gradation replaces the hopping phase by e^{((i-j) 2/n - sgn(i-j)) lambda} and
equals the gauge conjugation V1(lambda) R^(h) V1(-lambda) with
V(lambda) = diag(1, e^{2 lambda/n}, ..., e^{(n-1) 2 lambda/n}).

Unitarity holds with the scalar

    g(lambda) = sinh(i mu + lambda) sinh(i mu - lambda):

Rcheck(lambda) Rcheck(-lambda) = g(lambda) I and R(lambda) Rhat(-lambda) =
g(lambda) I where Rhat = P R P. The closed form of the inverse,
R(-lambda)^{-1} = Rhat(lambda)/g(lambda), is what makes large-lambda
monodromy asymptotics numerically viable, so it is exposed here.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np
from scipy.optimize import least_squares

from .hecke_algebra import build_bulk_generator
from .params import DegenerateParameters, ModelParams
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_model, sample_spectral
from .tensor_core import (
    RESIDUAL_FLOOR,
    Operator,
    commutator,
    embed_at,
    frob,
    identity_op,
    kron,
    partial_transpose,
    permutation_swap,
    prop_check,
    rel_residual,
    rtt_residual,
    weight_preserving,
    worst_of,
)

__all__ = [
    "Gauge",
    "build_rcheck",
    "build_r",
    "build_r_hat",
    "build_r_inverse",
    "unitarity_scalar",
    "build_gauge_V",
    "build_M",
    "fit_crossing_shift",
    "verify_ybe_suite",
]

# Distance from lam = 0 (mod i pi) inside which fit_crossing_shift refuses.
REGULAR_GAP = 1e-3


class Gauge(str, Enum):
    homogeneous = "homogeneous"
    principal = "principal"


def build_rcheck(params: ModelParams, lam: complex) -> Operator:
    n = params.n
    u = build_bulk_generator(params)
    eye = np.eye(n * n, dtype=np.complex128)
    return Operator(
        cmath.sinh(lam + 1j * params.mu) * eye + cmath.sinh(lam) * u.mat, (n, n)
    )


def build_r(params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous) -> Operator:
    n, mu = params.n, params.mu
    a = cmath.sinh(lam + 1j * mu)
    b = cmath.sinh(lam)
    c = cmath.sinh(1j * mu)

    def hop(i, j):
        if gauge == Gauge.homogeneous:
            return c * cmath.exp(-np.sign(i - j) * lam)
        return c * cmath.exp(((i - j) * 2.0 / n - np.sign(i - j)) * lam)

    return weight_preserving(n, lambda i: a, lambda i, j: b, hop)


def build_r_hat(params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous) -> Operator:
    """P R(lambda) P; for these symmetric R matrices also the total transpose."""
    p = permutation_swap(params.n)
    return p @ build_r(params, lam, gauge) @ p


def unitarity_scalar(params: ModelParams, lam: complex) -> complex:
    return cmath.sinh(1j * params.mu + lam) * cmath.sinh(1j * params.mu - lam)


def build_r_inverse(params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous) -> Operator:
    """Closed-form R(lambda)^{-1} = Rhat-at-(-lambda) / g(lambda), no np.linalg.inv.

    In the principal gradation the same identity holds after conjugating by
    the gauge matrix on the first factor.
    """
    g = unitarity_scalar(params, lam)
    if abs(g) < 1e-14:
        raise DegenerateParameters(f"R(lambda) singular at lambda = {lam}")
    if gauge == Gauge.homogeneous:
        return build_r_hat(params, -lam, gauge) * (1.0 / g)
    v_pos = embed_at(build_gauge_V(params, -lam), [1], (params.n, params.n))
    v_neg = embed_at(build_gauge_V(params, lam), [1], (params.n, params.n))
    inner = build_r_hat(params, -lam, Gauge.homogeneous)
    return (v_neg @ inner @ v_pos) * (1.0 / g)


def build_gauge_V(params: ModelParams, lam: complex) -> Operator:
    n = params.n
    d = [cmath.exp(2.0 * lam * j / n) for j in range(n)]
    return Operator(np.diag(d), (n,))


def build_M(params: ModelParams, gauge: Gauge = Gauge.homogeneous) -> Operator:
    n = params.n
    if gauge == Gauge.principal:
        return identity_op([n])
    d = [cmath.exp(1j * params.mu * (n - 2 * j + 1)) for j in range(1, n + 1)]
    return Operator(np.diag(d), (n,))


# ---------------------------------------------------------------------------
# crossing-shift fit
# ---------------------------------------------------------------------------


def fit_crossing_shift(
    params: ModelParams,
    lam: complex,
    gauge: Gauge = Gauge.homogeneous,
) -> tuple[complex, float]:
    """Fit the shift rho of the crossing relation R1(lam)^t1 M1 R2(-lam-2i rho)^t2 M1^-1 ∝ I.

    Returns (rho, residual-at-rho); the residual is prop_check of the product
    against I. The lambda side is built once per fit: M1, M1^-1 and
    R1(lam)^t1 M1 are plain arrays, so one evaluation at rho is one build_r
    call and two products. A grid over one period strip of Re(rho) (31 or
    62 points) times Im(rho) in [-0.6, 0.6] (9 points) is scored by
    ||P - cI|| / ||P|| with c = tr P / n^2, and the best 3 points are
    polished by Levenberg-Marquardt on the real and imaginary parts of
    (P - cI) / ||P||.

    The value is fitted, never assumed. It lands on n mu / 2 mod the period
    at every point tried (n = 2..4, both gradations, the sampling boxes);
    that is an observation about the R-matrix, which the code does not use.

    A crossing product whose norm is not finite at some grid point raises
    DegenerateParameters. A polish start that steps out of floating-point
    range is dropped; when every start does, the best grid point stands and
    its residual says the fit failed.

    Within REGULAR_GAP of lam = 0 (mod i pi), R(lam) is near the multiple
    sinh(i mu) P of the swap, R1(lam)^t1 near rank one, and the relation's
    scalar near zero: the zero set in rho is then narrower than the scan's
    step and the polish wanders off, so these points raise
    DegenerateParameters.
    """
    lam = complex(lam)
    if abs(complex(lam.real, math.remainder(lam.imag, math.pi))) < REGULAR_GAP:
        raise DegenerateParameters(f"crossing relation degenerate at lambda = {lam}")
    n = params.n
    side = n * n
    eye = np.eye(side)
    m1 = embed_at(build_M(params, gauge), [1], (n, n))
    m1_inv = m1.inv().mat
    left = partial_transpose(build_r(params, lam, gauge), 1).mat @ m1.mat

    def product(xy) -> np.ndarray:
        r2 = partial_transpose(build_r(params, -lam - 2j * complex(xy[0], xy[1]), gauge), 2)
        return left @ r2.mat @ m1_inv

    def centred(prod) -> np.ndarray:
        return (prod - np.trace(prod) / side * eye) / np.linalg.norm(prod)

    def defect(xy) -> np.ndarray:
        return centred(product(xy))

    # Entries depend on rho through sinh(... - 2 i rho) and e^{± 2 i rho}
    # factors, so the zero set of the (proportional!) relation is periodic in
    # Re(rho): shifting rho by pi/2 flips the global sign of R in the
    # homogeneous gradation (and for n = 2 in both), which a proportionality
    # cannot see; in the principal gradation with n > 2 the hopping phases
    # break that half-period and only pi survives. Scan one fundamental strip
    # and report the canonical representative.
    period = np.pi / 2 if (gauge == Gauge.homogeneous or n == 2) else np.pi
    grid = [(re, im)
            for re in np.linspace(0.0, period, max(8, int(period / 0.05)), endpoint=False)
            for im in np.linspace(-0.6, 0.6, 9)]
    products = [product(xy) for xy in grid]
    if not all(np.isfinite(np.linalg.norm(prod)) for prod in products):
        raise DegenerateParameters(
            f"crossing product overflows on the fit grid at mu = {params.mu}, lambda = {lam}")
    scores = [np.linalg.norm(centred(prod)) for prod in products]
    starts = [grid[k] for k in np.argsort(scores, kind="stable")[:3]]
    found = [starts[0]]
    for x0 in starts:
        try:
            fit = least_squares(lambda xy: defect(xy).ravel().view(np.float64), x0,
                                method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        except OverflowError:  # a polish step left the range of cmath.sinh
            continue
        if np.isfinite(np.linalg.norm(product(fit.x))):
            found.append(fit.x)
    best = min(found, key=lambda xy: np.linalg.norm(defect(xy)))
    residual = prop_check(product(best), np.eye(side, dtype=np.complex128)).residual
    return complex(best[0] % period, best[1]), residual


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def verify_ybe_suite(
    params: ModelParams,
    samples: int = 20,
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    n = params.n
    rng = rng_from_seed(seed)
    rb = ReportBuilder(
        "ybe", {"n": n, "samples": samples, "seed": seed, "tol": tol}
    )
    space3 = (n, n, n)

    for s in range(samples):
        p = params if s == 0 else sample_model(rng, n)
        l1, l2 = sample_spectral(rng, p, 2)
        for gauge in (Gauge.homogeneous, Gauge.principal):
            tag = f"s{s}.{gauge.value[:4]}"
            rb.add(f"ybe.ybe.{tag}",
                   rtt_residual(build_r(p, l1 - l2, gauge), build_r(p, l1, gauge),
                                build_r(p, l2, gauge)), tol)

            ru = build_r(p, l1, gauge)
            uni = ru @ build_r_hat(p, -l1, gauge)
            g = unitarity_scalar(p, l1)
            rb.add(
                f"ybe.runitarity.{tag}",
                rel_residual(uni, g * identity_op((n, n))),
                tol,
            )
            inv = build_r_inverse(p, l1, gauge)
            rb.add(
                f"ybe.rinverse.{tag}",
                rel_residual(ru @ inv, identity_op((n, n))),
                tol,
            )

            m = build_M(p, gauge)
            mm = kron(m, m)
            rb.add(
                f"ybe.mcomm.{tag}",
                frob(commutator(mm, ru)) / max(frob(ru) * frob(mm.mat) / n, RESIDUAL_FLOOR),
                tol,
            )

        # braid form, homogeneous only (Rcheck is gauge-independent input)
        c12_a = embed_at(build_rcheck(p, l1 - l2), [1, 2], space3)
        c23_b = embed_at(build_rcheck(p, l1), [2, 3], space3)
        c12_c = embed_at(build_rcheck(p, l2), [1, 2], space3)
        c23_d = embed_at(build_rcheck(p, l2), [2, 3], space3)
        c12_e = embed_at(build_rcheck(p, l1), [1, 2], space3)
        c23_f = embed_at(build_rcheck(p, l1 - l2), [2, 3], space3)
        lhs = c12_a @ c23_b @ c12_c
        rhs = c23_d @ c12_e @ c23_f
        rb.add(f"ybe.braid.s{s}", rel_residual(rhs, lhs), tol)

        cu = build_rcheck(p, l1) @ build_rcheck(p, -l1)
        rb.add(
            f"ybe.cunitarity.s{s}",
            rel_residual(cu, unitarity_scalar(p, l1) * identity_op((n, n))),
            tol,
        )
        # P Rcheck equals the entrywise homogeneous R
        rb.add(
            f"ybe.prcheck.s{s}",
            rel_residual(
                permutation_swap(n) @ build_rcheck(p, l1),
                build_r(p, l1, Gauge.homogeneous),
            ),
            1e-13,
        )
        # gauge covariance
        v1p = embed_at(build_gauge_V(p, l1), [1], (n, n))
        v1m = embed_at(build_gauge_V(p, -l1), [1], (n, n))
        rb.add(
            f"ybe.gauge.s{s}",
            rel_residual(
                v1p @ build_r(p, l1, Gauge.homogeneous) @ v1m,
                build_r(p, l1, Gauge.principal),
            ),
            1e-12,
        )

    # crossing: fit the shift at one lambda, assert lambda-independence at a
    # second, for each gauge (fit once per suite run; it is a scan)
    lam_a, lam_b = sample_spectral(rng, params, 2)
    for gauge in (Gauge.homogeneous, Gauge.principal):
        rho_a, res_a = fit_crossing_shift(params, lam_a, gauge)
        rho_b, res_b = fit_crossing_shift(params, lam_b, gauge)
        rb.add(f"ybe.crossing.fit.{gauge.value[:4]}", worst_of((res_a, res_b)), tol,
               scalar=rho_a)
        rb.add(
            f"ybe.crossing.drift.{gauge.value[:4]}",
            abs(rho_a - rho_b) / max(abs(rho_a), RESIDUAL_FLOOR),
            1e-8,
            scalar=rho_b,
        )
    return rb.report()

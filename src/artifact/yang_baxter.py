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

Crossing holds exactly with the shift rho = n mu / 2 and M = diag(q^{n-1},
q^{n-3}, ..., q^{1-n}), q = e^{i mu} (M = I in the principal gradation), in
the form of Mezincescu & Nepomechie (J. Phys. A 24 (1991) L17):

    R1(lambda)^t1 M1 R2(-lambda - i n mu)^t2 M1^{-1} = -sinh lambda sinh(lambda + i n mu) I.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np

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
    rel_residual,
    rtt_residual,
    weight_preserving,
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

# Distance from either zero of the crossing scalar inside which
# fit_crossing_shift refuses.
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


def _r_entries(params: ModelParams, lam: complex, gauge: Gauge) -> tuple:
    """(a, b, hop) of R(lambda): the e_ii (x) e_ii and e_ii (x) e_jj entries
    and the hopping entry of e_ij (x) e_ji as a function of (i, j). The
    homogeneous hop depends only on the side of the diagonal, so its two
    values are computed once; the principal one is computed entry by entry."""
    n, mu = params.n, params.mu
    c = cmath.sinh(1j * mu)
    if gauge == Gauge.homogeneous:
        above, below = c * cmath.exp(lam), c * cmath.exp(-lam)

        def hop(i, j):
            return below if i > j else above
    else:
        def hop(i, j):
            return c * cmath.exp(((i - j) * 2.0 / n - (1 if i > j else -1)) * lam)
    return cmath.sinh(lam + 1j * mu), cmath.sinh(lam), hop


def build_r(params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous) -> Operator:
    a, b, hop = _r_entries(params, lam, gauge)
    return weight_preserving(params.n, lambda i: a, lambda i, j: b, hop)


def build_r_hat(params: ModelParams, lam: complex, gauge: Gauge = Gauge.homogeneous) -> Operator:
    """P R(lambda) P; for these symmetric R matrices also the total transpose.

    The swap P exchanges the two legs, so P R P is the weight-preserving
    fill of R with the hop's arguments exchanged, written directly; no
    product with P is formed."""
    a, b, hop = _r_entries(params, lam, gauge)
    return weight_preserving(params.n, lambda i: a, lambda i, j: b, lambda i, j: hop(j, i))


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
# crossing relation
# ---------------------------------------------------------------------------


def fit_crossing_shift(params: ModelParams, lam: complex,
                       gauge: Gauge = Gauge.homogeneous) -> tuple[complex, float]:
    """Crossing shift rho = n mu / 2 and the crossing relation's residual at lam.

    The residual is rel_residual of R1(lam)^t1 M1 R2(-lam - 2i rho)^t2 M1^-1
    against b(lam) b(-lam - 2i rho) I, with b = sinh the e_ii (x) e_jj entry
    of R (Mezincescu & Nepomechie; see the module docstring). The scalar is
    never read off the product, so this tests the identity, not only a
    proportionality to I. Raises DegenerateParameters within REGULAR_GAP of
    the scalar's zeros, lam = 0 and lam = -i n mu (mod i pi), and when the
    product or scalar leaves floating-point range.
    """
    lam = complex(lam)
    n = params.n
    rho = complex(n * params.mu / 2)
    shifted = -lam - 2j * rho
    for zero in (lam, shifted):
        if abs(complex(zero.real, math.remainder(zero.imag, math.pi))) < REGULAR_GAP:
            raise DegenerateParameters(f"crossing relation degenerate at lambda = {lam}")
    try:
        m1 = embed_at(build_M(params, gauge), [1], (n, n))
        product = (partial_transpose(build_r(params, lam, gauge), 1).mat @ m1.mat
                   @ partial_transpose(build_r(params, shifted, gauge), 2).mat @ m1.inv().mat)
        scalar = cmath.sinh(lam) * cmath.sinh(shifted)
    except OverflowError:  # cmath raises where numpy would return inf
        product = scalar = np.nan
    if not (np.isfinite(product).all() and cmath.isfinite(scalar)):
        raise DegenerateParameters(
            f"crossing product overflows at mu = {params.mu}, lambda = {lam}")
    return rho, rel_residual(product, scalar * np.eye(n * n))


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

    # crossing: the identity at one lambda, and at a second with the same
    # shift, for each gauge (the drift check keeps its looser tolerance)
    lam_a, lam_b = sample_spectral(rng, params, 2)
    for gauge in (Gauge.homogeneous, Gauge.principal):
        rho, res_a = fit_crossing_shift(params, lam_a, gauge)
        _, res_b = fit_crossing_shift(params, lam_b, gauge)
        rb.add(f"ybe.crossing.fit.{gauge.value[:4]}", res_a, tol, scalar=rho)
        rb.add(f"ybe.crossing.drift.{gauge.value[:4]}", res_b, 1e-8, scalar=rho)
    return rb.report()

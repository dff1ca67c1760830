"""Bulk and boundary Hecke generators and their chain representations.

The bulk generator U acts on C^n (x) C^n,

    U = sum_{i != j} ( e_ij (x) e_ji  -  q^{-sgn(i-j)} e_ii (x) e_jj ),

and satisfies U^2 = delta U with delta = -(q + q^{-1}), the braid relation
with its neighbours, and distant commutativity: the chain operators
rho(U_l) = U acting on sites (l, l+1) represent the quadratic Hecke algebra.

The boundary generator on C^n,

    U0 = -Q^{-1} e_11 - Q e_nn + e_1n + e_n1,        Q = i e^{i mu m},

is represented on site 1 after rescaling by 1/(2i sinh i mu). With that
rescaling the boundary quadratic, the mixed four-term relation and the
two-term quotient hold with delta0' = -sinh(i mu m)/sinh(i mu) and
kappa' = sinh(i mu (m-1))/sinh(i mu); the scale-invariant ratio
delta0/kappa is checked against the unrescaled constants as well.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams
from .reporting import ReportBuilder, VerificationReport
from .sampling import rng_from_seed, sample_model
from .tensor_core import (RESIDUAL_FLOOR, Operator, basis_matrix, comm_residual, embed_at,
                          frob, prop_check, sym_residual, weight_preserving)

__all__ = [
    "build_bulk_generator",
    "rep_bulk",
    "build_boundary_generator",
    "rep_boundary",
    "verify_hecke_suite",
]


def build_bulk_generator(params: ModelParams) -> Operator:
    q = params.q
    return weight_preserving(params.n, lambda i: 0.0,
                             lambda i, j: -q ** (-1 if i > j else 1), lambda i, j: 1.0)


def rep_bulk(params: ModelParams, l: int) -> Operator:
    """rho(U_l) acting on sites (l, l+1) of the N-site chain."""
    n, N = params.n, params.sites
    if not (1 <= l <= N - 1):
        raise ValueError(f"bulk generator index {l} out of range 1..{N-1}")
    return embed_at(build_bulk_generator(params), [l, l + 1], [n] * N)


def build_boundary_generator(params: ModelParams) -> Operator:
    n, Q = params.n, params.Q
    u0 = np.zeros((n, n), dtype=np.complex128)
    u0 -= (1.0 / Q) * basis_matrix(n, 1, 1)
    u0 -= Q * basis_matrix(n, n, n)
    u0 += basis_matrix(n, 1, n)
    u0 += basis_matrix(n, n, 1)
    return Operator(u0, (n,))


def rep_boundary(params: ModelParams) -> Operator:
    """rho(U_0): the rescaled boundary generator acting on site 1."""
    n, N = params.n, params.sites
    u0 = build_boundary_generator(params)
    return embed_at(u0, [1], [n] * N) * (1.0 / params.boundary_scale)


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------


def verify_hecke_suite(
    params: ModelParams,
    tol: float = 1e-10,
    samples: int = 5,
    seed: int = 0,
) -> VerificationReport:
    """Check every defining relation at `samples` random (mu, m) draws.

    The rank and site count come from `params`; the deformation and boundary
    parameters are resampled per instance so the relations are exercised at
    generic points, with `params` itself as instance s0.
    """
    n, N = params.n, params.sites
    if N < 2:
        raise ValueError("relation suite needs at least two sites")
    rng = rng_from_seed(seed)
    rb = ReportBuilder(
        "hecke",
        {"n": n, "sites": N, "samples": samples, "seed": seed, "tol": tol},
    )

    draws = [params] + [sample_model(rng, n, N) for _ in range(max(0, samples - 1))]
    for s, p in enumerate(draws):
        bulk = [rep_bulk(p, l) for l in range(1, N)]
        bdry = rep_boundary(p)

        for l, ul in enumerate(bulk, start=1):
            rb.add(
                f"hecke.quad.s{s}l{l}",
                sym_residual(ul @ ul, p.delta * ul),
                tol,
            )
        for l in range(1, N - 1):
            a, b = bulk[l - 1], bulk[l]
            lhs = a @ b @ a - a
            rhs = b @ a @ b - b
            rb.add(
                f"hecke.braid.s{s}l{l}",
                frob(lhs - rhs) / max(frob(a), RESIDUAL_FLOOR),
                tol,
            )
        gens = {0: bdry, **{l: bulk[l - 1] for l in range(1, N)}}
        for la in gens:
            for lb in gens:
                if lb - la > 1:
                    rb.add(f"hecke.comm.s{s}l{la}l{lb}",
                           comm_residual(gens[la], gens[lb]), tol)

        rb.add(
            f"hecke.bquad.s{s}",
            sym_residual(bdry @ bdry, p.delta0_rescaled * bdry),
            tol,
        )

        u1 = bulk[0]
        kap = p.kappa_rescaled
        lhs = u1 @ bdry @ u1 @ bdry - kap * (u1 @ bdry)
        rhs = bdry @ u1 @ bdry @ u1 - kap * (bdry @ u1)
        # in this representation both sides vanish separately (the quotient
        # holds), so normalize by the size of the four-letter words rather
        # than by the near-zero sides themselves
        word_scale = max(frob(u1 @ bdry @ u1 @ bdry), abs(kap) * frob(u1 @ bdry))
        rb.add(f"hecke.mixed.s{s}", frob(lhs - rhs) / max(word_scale, RESIDUAL_FLOOR), tol)
        rb.add(
            f"hecke.quotient.s{s}",
            sym_residual(u1 @ bdry @ u1 @ bdry, kap * (u1 @ bdry)),
            tol,
        )
        rb.add(
            f"hecke.quotient_rev.s{s}",
            sym_residual(bdry @ u1 @ bdry @ u1, kap * (bdry @ u1)),
            tol,
        )

        # the rescaled kappa is also determined numerically from the quotient
        # and recorded (its value is not free: the delta0/kappa ratio is
        # renormalization-invariant)
        fit = prop_check(u1 @ bdry @ u1 @ bdry, u1 @ bdry)
        rb.add(
            f"hecke.kappa_fit.s{s}",
            abs(fit.scalar - kap) / max(abs(kap), RESIDUAL_FLOOR),
            tol,
            scalar=fit.scalar,
        )
        ratio_resc = p.delta0_rescaled / p.kappa_rescaled
        ratio_raw = p.delta0 / p.kappa
        rb.add(
            f"hecke.ratio.s{s}",
            abs(ratio_resc - ratio_raw) / abs(ratio_raw),
            1e-12,
            scalar=ratio_resc,
        )
    return rb.report()

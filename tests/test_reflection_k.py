"""Boundary matrices: frozen entries, reflection equation, published solution.

Oracles here are computed through real trig identities (cosh of a purely
imaginary argument is a cosine, etc.) so they do not share code paths with
the builders.
"""

import cmath
import math

import numpy as np
import pytest

from artifact import ModelParams
from artifact.reflection_k import (
    AbadRiosParams,
    LeftBoundaryKind,
    build_abad_rios_k,
    build_k_ansatz,
    build_k_diagonal,
    build_k_explicit,
    build_k_left,
    map_abad_rios,
    reflection_residual,
    verify_reflection_suite,
)
from artifact.tensor_core import Operator, frob, prop_check, rel_residual
from artifact.yang_baxter import Gauge, build_gauge_V


P3 = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6)


def test_explicit_entries_real_parameters():
    # real mu, m, zeta: cosh(i x) = cos x and the corner is -i sinh(2 lam)
    p = ModelParams(n=2, mu=0.3, m=1.2, zeta=0.7)
    lam = 0.25
    k = build_k_explicit(p, lam).mat
    c_m = math.cos(0.3 * 1.2)
    c_z = math.cos(2 * 0.3 * 0.7)
    assert abs(k[0, 0] - (math.exp(0.5) * c_m - c_z)) < 1e-14
    assert abs(k[1, 1] - (math.exp(-0.5) * c_m - c_z)) < 1e-14
    assert abs(k[0, 1] - (-1j * math.sinh(0.5))) < 1e-14
    assert abs(k[0, 1] - k[1, 0]) < 1e-16


def test_explicit_middle_diagonal_n4():
    p = ModelParams(n=4, mu=0.23, m=0.8, zeta=0.45)
    lam = 0.4 - 0.1j
    k = build_k_explicit(p, lam).mat
    want = cmath.cosh(2 * lam + 1j * 0.23 * 0.8) - math.cos(2 * 0.23 * 0.45)
    assert abs(k[1, 1] - want) < 1e-14
    assert abs(k[2, 2] - want) < 1e-14
    # no other off-diagonal entries
    mask = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(mask, False)
    mask[0, 3] = mask[3, 0] = False
    assert np.all(k[mask] == 0)


def test_ansatz_at_zero_is_scalar():
    k0 = build_k_ansatz(P3, 0.0).mat
    x0 = cmath.cosh(1j * 0.41 * (0.9 + 0.2j)) - cmath.cosh(2j * 0.41 * 0.6)
    assert np.allclose(k0, x0 * np.eye(3), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ansatz_equals_explicit(n):
    p = ModelParams(n=n, mu=0.37, m=1.1 - 0.3j, zeta=0.8 + 0.1j)
    for lam in (0.3, -0.55 + 0.2j, 1.1j):
        assert rel_residual(build_k_ansatz(p, lam), build_k_explicit(p, lam)) < 1e-12


def test_principal_gauge_is_V_K_V():
    for n in (2, 3, 4):
        p = ModelParams(n=n, mu=0.52, m=0.6 + 0.4j, zeta=1.3)
        lam = 0.27 - 0.33j
        v = build_gauge_V(p, lam)
        dressed = v @ build_k_explicit(p, lam) @ v
        assert rel_residual(dressed, build_k_explicit(p, lam, Gauge.principal)) < 1e-13


def test_diagonal_family_entries():
    p = ModelParams(n=3, mu=0.41, m=0.0, zeta=0.0)
    lam, xi = 0.3, 0.9
    k = build_k_diagonal(p, lam, 2, xi).mat
    alpha = math.exp(lam) * (
        -math.sinh(lam) * math.cos(0.41 * xi) + 1j * math.cosh(lam) * math.sin(0.41 * xi)
    )
    beta = math.exp(-lam) * (
        math.sinh(lam) * math.cos(0.41 * xi) + 1j * math.cosh(lam) * math.sin(0.41 * xi)
    )
    assert np.allclose(k, np.diag([alpha, alpha, beta]), atol=1e-14)
    with pytest.raises(ValueError):
        build_k_diagonal(p, lam, 3, xi)


def test_reflection_equation_explicit_and_broken():
    res = reflection_residual(P3, lambda u: build_k_explicit(P3, u), 0.31, -0.44 + 0.2j)
    assert res < 1e-12

    def broken(u):
        k = build_k_explicit(P3, u).mat.copy()
        k[0, 2] = 0.0
        return Operator(k, (3,))

    assert reflection_residual(P3, broken, 0.31, -0.44 + 0.2j) > 1e-3


def test_left_transpose_shift_and_identity():
    lam = 0.4 + 0.1j
    kl = build_k_left(P3, lam, LeftBoundaryKind.transpose_shift)
    direct = build_k_explicit(P3, -lam - 1j * 0.41 * 3 / 2).transpose()
    assert rel_residual(kl, direct) < 1e-15
    assert np.allclose(build_k_left(P3, lam, LeftBoundaryKind.identity).mat, np.eye(3))


def test_left_affine_limit_matches_large_boundary_parameter():
    # push i mu m far along the real axis; the shifted transpose collapses
    # onto the fixed diagonal up to one overall scale
    mu = 0.41
    p_big = ModelParams(n=3, mu=mu, m=-40j / mu, zeta=0.6)
    lam = 0.23 - 0.11j
    shifted = build_k_left(p_big, lam, LeftBoundaryKind.transpose_shift)
    fixed = build_k_left(p_big, lam, LeftBoundaryKind.affine_limit)
    res = prop_check(shifted, fixed, 1e-9)
    assert res.residual < 1e-12
    d = fixed.mat
    assert abs(d[0, 0] - cmath.exp(-2 * lam - 3j * mu)) < 1e-14
    assert abs(d[2, 2] - cmath.exp(2 * lam + 3j * mu)) < 1e-14


def test_abad_rios_identifications():
    # real parameters keep every cosh real, so eps_plus is a real log
    p = ModelParams(n=3, mu=0.3, m=1.2, zeta=0.7)
    ar = map_abad_rios(p)
    assert ar.rho_c == 1.0 and ar.rho_d == 1.0
    c_m, c_z = math.cos(0.36), math.cos(0.42)
    assert abs(cmath.exp(2 * ar.eps_plus) - c_z / c_m) < 1e-14
    assert abs(ar.eps_plus.imag) < 1e-14
    assert abs(ar.rho_a * cmath.exp(-ar.eps_plus) - (-2j * c_m)) < 1e-14
    assert abs(ar.rho_b - 1j * cmath.exp(0.36j)) < 1e-15
    assert ar.constraint_residual() < 1e-14


def test_abad_rios_constraint_is_parameter_free():
    # the quadratic relation among the rho's holds for any admissible m, zeta
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        ar = map_abad_rios(ModelParams(n=3, mu=0.41, m=m, zeta=z))
        assert ar.constraint_residual() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_abad_rios_matches_principal_k(n):
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6)
    ar = map_abad_rios(p)
    for lam in (0.3, -0.5 + 0.25j, 0.8j):
        ours = 1j * build_k_explicit(p, lam, Gauge.principal)
        theirs = cmath.exp(lam) * build_abad_rios_k(p, lam, ar)
        assert rel_residual(ours, theirs) < 1e-12


def test_abad_rios_scale_is_lambda_independent_only_when_redressed():
    # at any single lambda the two solutions are proportional; the content of
    # the identification is that i e^{-lambda} K^(p) / K^(AR) is CONSTANT
    p = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6)
    ar = map_abad_rios(p)

    def scalar(lam, redress):
        ours = build_k_explicit(p, lam, Gauge.principal)
        theirs = build_abad_rios_k(p, lam, ar)
        if redress:
            ours = 1j * ours
            theirs = cmath.exp(lam) * theirs
        return prop_check(ours, theirs, 1e-9).scalar

    raw = [scalar(lam, False) for lam in (0.3, 0.9, 0.3 + 0.4j)]
    assert abs(raw[0] - raw[1]) > 1e-2 and abs(raw[0] - raw[2]) > 1e-2
    dressed = [scalar(lam, True) for lam in (0.3, 0.9, 0.3 + 0.4j)]
    assert all(abs(s - 1.0) < 1e-12 for s in dressed)


def test_k_unitarity_frozen_scalar():
    # K(lam) K(-lam) = (x(lam) x(-lam) - y(lam) y(-lam) stuff) I; freeze via
    # the 11 entry of the product at a point
    lam = 0.37
    prod = (build_k_explicit(P3, lam) @ build_k_explicit(P3, -lam)).mat
    res = prop_check(Operator(prod, (3,)), Operator(np.eye(3), (3,)), 1e-10)
    assert res.residual < 1e-13
    assert abs(res.scalar - prod[1, 1]) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reflection_suite(n):
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6)
    rep = verify_reflection_suite(p, samples=4, tol=1e-9, seed=11)
    bad = [c.id for c in rep.failing()]
    assert rep.passed, f"failing: {bad}"

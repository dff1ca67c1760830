import cmath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from artifact import yang_baxter
from artifact.params import DegenerateParameters, ModelParams
from artifact.tensor_core import identity_op, permutation_swap, prop_check, rel_residual
from artifact.yang_baxter import (
    Gauge,
    build_M,
    build_gauge_V,
    build_r,
    build_r_hat,
    build_r_inverse,
    build_rcheck,
    fit_crossing_shift,
    unitarity_scalar,
    verify_ybe_suite,
)


def test_rcheck_at_zero():
    p = ModelParams(n=3, mu=0.6)
    r0 = build_rcheck(p, 0.0)
    assert_allclose(r0.mat, cmath.sinh(0.6j) * np.eye(9), atol=1e-15)


def test_rcheck_entry_frozen():
    # diagonal entry at |12>: sinh(lambda + i mu) - e^{i mu} sinh(lambda),
    # evaluated independently at lambda = 0.5, mu = 0.3
    p = ModelParams(n=2, mu=0.3)
    expected = cmath.sinh(0.5 + 0.3j) - cmath.exp(0.3j) * cmath.sinh(0.5)
    got = build_rcheck(p, 0.5).mat[1, 1]
    assert abs(got - expected) < 1e-15
    # frozen value: the expression collapses to e^{-lambda} sinh(i mu),
    # i.e. e^{-0.5} * i sin(0.3)
    assert abs(expected - 0.17924206590471603j) < 1e-15


def test_rcheck_unitarity():
    p = ModelParams(n=3, mu=0.45 + 0.05j)
    lam = 0.7 - 0.3j
    prod = build_rcheck(p, lam) @ build_rcheck(p, -lam)
    res = prop_check(prod, identity_op((3, 3)))
    assert res.residual <= 1e-12
    assert abs(res.scalar - unitarity_scalar(p, lam)) < 1e-12


def test_r_at_zero_is_permutation():
    p = ModelParams(n=4, mu=0.33)
    for gauge in Gauge:
        r0 = build_r(p, 0.0, gauge)
        assert rel_residual(r0, cmath.sinh(0.33j) * permutation_swap(4)) < 1e-14


def test_r_equals_p_rcheck():
    p = ModelParams(n=3, mu=0.52)
    lam = 0.4 + 0.2j
    pr = permutation_swap(3) @ build_rcheck(p, lam)
    assert rel_residual(build_r(p, lam, Gauge.homogeneous), pr) < 1e-13


def test_gauge_transformation():
    p = ModelParams(n=3, mu=0.52)
    lam = -0.3 + 0.15j
    v = build_gauge_V(p, lam)
    assert_allclose(v.mat, np.diag([1, cmath.exp(2 * lam / 3), cmath.exp(4 * lam / 3)]))
    assert rel_residual(build_gauge_V(p, lam) @ build_gauge_V(p, -lam), identity_op([3])) < 1e-15
    p2 = ModelParams(n=2, mu=0.4)
    assert_allclose(build_gauge_V(p2, lam).mat, np.diag([1, cmath.exp(lam)]))


def test_r_unitarity_and_inverse():
    p = ModelParams(n=3, mu=0.61 - 0.04j)
    lam = 0.8 + 0.1j
    for gauge in Gauge:
        r = build_r(p, lam, gauge)
        prod = r @ build_r_hat(p, -lam, gauge)
        assert rel_residual(prod, unitarity_scalar(p, lam) * identity_op((3, 3))) < 1e-13
        inv = build_r_inverse(p, lam, gauge)
        assert rel_residual(r @ inv, identity_op((3, 3))) < 1e-13
        assert np.max(np.abs(inv.mat - np.linalg.inv(r.mat))) < 1e-12


def test_M_matrix():
    p = ModelParams(n=2, mu=0.37)
    assert_allclose(
        build_M(p, Gauge.homogeneous).mat,
        np.diag([cmath.exp(0.37j), cmath.exp(-0.37j)]),
    )
    assert_allclose(build_M(p, Gauge.principal).mat, np.eye(2))
    p3 = ModelParams(n=3, mu=0.29 + 0.02j)
    mu = p3.mu
    tr = np.trace(build_M(p3, Gauge.homogeneous).mat)
    assert abs(tr - cmath.sinh(3j * mu) / cmath.sinh(1j * mu)) < 1e-13


def test_crossing_fit_matches_half_n_mu():
    p = ModelParams(n=2, mu=0.41)
    rho, res = fit_crossing_shift(p, 0.37 + 0.21j, Gauge.homogeneous)
    assert res < 1e-10
    assert abs(rho - 0.41) < 1e-7
    p3 = ModelParams(n=3, mu=0.41)
    rho3, res3 = fit_crossing_shift(p3, 0.37 + 0.21j, Gauge.principal)
    assert res3 < 1e-10
    assert abs(rho3 - 0.615) < 1e-7


@pytest.mark.parametrize("gauge", list(Gauge))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 1e-300, 1e-8, 9e-4j, 1j * cmath.pi])
def test_crossing_fit_refuses_the_regular_point(lam, n, gauge):
    # the relation's scalar -sinh(lam) sinh(lam + i n mu) vanishes at both
    # lam = 0 and lam = -i n mu (mod i pi): a relative residual means nothing
    p = ModelParams(n=n, mu=0.15 - 0.1j, m=0.3 - 0.5j, zeta=0.3 - 0.5j)
    for at in (lam, lam - 1j * n * p.mu):
        with pytest.raises(DegenerateParameters, match="crossing relation degenerate"):
            fit_crossing_shift(p, at, gauge)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("gauge", list(Gauge))
def test_crossing_relation_refuses_a_product_that_overflows(gauge):
    # at mu = 300i, R2(-lam - i n mu) leaves the range of cmath.sinh
    with pytest.raises(DegenerateParameters, match="crossing product overflows"):
        fit_crossing_shift(ModelParams(n=3, mu=300j), 0.37 + 0.21j, gauge)


@pytest.mark.parametrize("gauge", list(Gauge))
@pytest.mark.parametrize("mu", [1.5j, 5j, 50j])
def test_crossing_identity_holds_at_large_imaginary_mu(mu, gauge):
    # the shift n mu / 2 is far off the real axis
    rho, res = fit_crossing_shift(ModelParams(n=3, mu=mu), 0.37 + 0.21j, gauge)
    assert abs(rho - 1.5 * mu) < 1e-12
    assert res <= 1e-12


@pytest.mark.parametrize("gauge", list(Gauge))
def test_crossing_fit_builds_the_lambda_side_once(gauge, monkeypatch):
    calls = []
    inner = yang_baxter.build_r

    def counted(params, lam, gauge=Gauge.homogeneous):
        calls.append(lam)
        return inner(params, lam, gauge)

    monkeypatch.setattr(yang_baxter, "build_r", counted)
    lam = 0.37 + 0.21j
    fit_crossing_shift(ModelParams(n=3, mu=0.41), lam, gauge)
    assert len(calls) == 2 and calls.count(lam) == 1  # the lambda side and R2


@pytest.mark.parametrize("n,limit", [(2, 1e-10), (3, 1e-10), (4, 1e-9)])
def test_verify_ybe_suite(n, limit):
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6)
    report = verify_ybe_suite(p, samples=5, tol=limit, seed=3)
    assert report.passed, [(c.id, c.residual) for c in report.failing()]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("gauge", list(Gauge))
def test_r_hat_is_the_swap_conjugate_of_r_exactly(n, gauge):
    # build_r_hat fills P R P directly with the hop's arguments exchanged;
    # P has one 1 per row, so the products with it are exact
    p = ModelParams(n=n, mu=0.41 + 0.05j)
    swap = permutation_swap(n)
    for lam in (0.0, 0.3 - 0.1j, -0.7 + 0.2j):
        conjugated = swap @ build_r(p, lam, gauge) @ swap
        assert np.array_equal(build_r_hat(p, lam, gauge).mat, conjugated.mat)

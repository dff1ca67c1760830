"""Evaluation representations, coproducts, dressed matrix elements, Lax.

Frozen values are derived through independent one-liners (real trig for q
powers, explicit kron sums written out by hand) rather than the module's own
builders.
"""

import cmath
import math

import numpy as np
import pytest

from artifact import ModelParams
from artifact.boundary_charges import build_boundary_charges
from artifact.params import DegenerateParameters
from artifact.quantum_algebra import (
    GeneratorKind,
    GeneratorLabel,
    TElementFamily,
    TElementLabel,
    Tower,
    block_closed_rep,
    build_lax,
    build_lax_hat,
    coproduct_rep,
    eval_generator,
    intertwine_residual,
    t_coproduct_sum,
    t_element_rep,
    verify_algebra_suite,
)
from artifact.tensor_core import basis_matrix, frob, prop_check, rel_residual
from artifact.yang_baxter import Gauge, build_r

P3 = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)


def test_eval_generator_images():
    lam = 0.2 - 0.3j
    q = cmath.exp(0.41j)
    e1 = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 1), lam).mat
    assert np.array_equal(e1, basis_matrix(3, 1, 2))
    f2 = eval_generator(P3, GeneratorLabel(GeneratorKind.F, 2), lam).mat
    assert np.array_equal(f2, basis_matrix(3, 3, 2))
    e3 = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 3), lam).mat
    assert np.allclose(e3, cmath.exp(-2 * lam) * basis_matrix(3, 3, 1))
    f3 = eval_generator(P3, GeneratorLabel(GeneratorKind.F, 3), lam).mat
    assert np.allclose(f3, cmath.exp(2 * lam) * basis_matrix(3, 1, 3))
    h1 = eval_generator(P3, GeneratorLabel(GeneratorKind.HCARTAN, 1), lam).mat
    assert np.allclose(h1, np.diag([q**0.5, q**-0.5, 1.0]))
    h3 = eval_generator(P3, GeneratorLabel(GeneratorKind.HCARTAN, 3), lam).mat
    assert np.allclose(h3, np.diag([q**-0.5, 1.0, q**0.5]))
    k2i = eval_generator(
        P3, GeneratorLabel(GeneratorKind.KCARTAN, 2, inverse=True), lam
    ).mat
    assert np.allclose(k2i, np.diag([1.0, q**-0.5, 1.0]))


def test_eval_generator_principal_phases():
    lam = 0.37
    e1p = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 1), lam, Gauge.principal)
    assert np.allclose(e1p.mat, math.exp(-2 * 0.37 / 3) * basis_matrix(3, 1, 2))
    e3p = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 3), lam, Gauge.principal)
    assert np.allclose(e3p.mat, math.exp(-2 * 0.37 / 3) * basis_matrix(3, 3, 1))
    # pi_0 equals the principal representation at lambda = 0
    for lab in (GeneratorLabel(GeneratorKind.E, 3), GeneratorLabel(GeneratorKind.F, 1)):
        assert np.allclose(
            eval_generator(P3, lab, 0.0).mat,
            eval_generator(P3, lab, 0.0, Gauge.principal).mat,
        )


def test_chevalley_ef_relation():
    q = cmath.exp(0.41j)
    for i in (1, 2):
        e = eval_generator(P3, GeneratorLabel(GeneratorKind.E, i)).mat
        f = eval_generator(P3, GeneratorLabel(GeneratorKind.F, i)).mat
        h = eval_generator(P3, GeneratorLabel(GeneratorKind.HCARTAN, i)).mat
        lhs = e @ f - f @ e
        rhs = (h @ h - np.linalg.inv(h @ h)) / (q - 1 / q)
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_coproduct_two_site_explicit():
    # Delta(e_1) = q^{-h_1/2} (x) e_1 + e_1 (x) q^{h_1/2}, written out by hand
    p = ModelParams(n=2, mu=0.3)
    q = cmath.exp(0.3j)
    d = coproduct_rep(p, GeneratorLabel(GeneratorKind.E, 1), 2).mat
    hm = np.diag([q**-0.5, q**0.5])
    hp = np.diag([q**0.5, q**-0.5])
    e = basis_matrix(2, 1, 2)
    assert np.allclose(d, np.kron(hm, e) + np.kron(e, hp), atol=1e-14)
    dp = coproduct_rep(p, GeneratorLabel(GeneratorKind.E, 1), 2, "delta_prime").mat
    assert np.allclose(dp, np.kron(e, hm) + np.kron(hp, e), atol=1e-14)


def test_coproduct_three_site_prime_structure():
    # primed three-fold: y (x) h- (x) h- + h+ (x) y (x) h+ + h+ (x) h- (x) y
    p = ModelParams(n=2, mu=0.3)
    q = cmath.exp(0.3j)
    hm = np.diag([q**-0.5, q**0.5])
    hp = np.diag([q**0.5, q**-0.5])
    f = basis_matrix(2, 2, 1)
    want = (
        np.kron(f, np.kron(hm, hm))
        + np.kron(hp, np.kron(f, hp))
        + np.kron(hp, np.kron(hm, f))
    )
    got = coproduct_rep(p, GeneratorLabel(GeneratorKind.F, 1), 3, "delta_prime").mat
    assert np.allclose(got, want, atol=1e-14)


def test_root_elements_at_pi0():
    p = ModelParams(n=4, mu=0.29, m=0.7 + 0.1j, zeta=0.5)
    tower = Tower(p)
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                for hat in (False, True):
                    assert rel_residual(tower.root(i, j, hat),
                                        basis_matrix(4, i, j)) < 1e-13


def test_tower_memoizes_every_image():
    tower = Tower(P3, 2, 0.23)
    e1 = tower.gen(GeneratorKind.E, 1)
    t13 = tower.t(1, 3)
    assert tower.gen(GeneratorKind.E, 1) is e1
    assert tower.t(1, 3) is t13
    assert tower.t_image(TElementLabel(TElementFamily.t, 1, 3)) is t13
    assert tower.root(3, 1, False) is tower.root(3, 1, False)
    with pytest.raises(ValueError):
        t13 += 1.0  # shared images are read-only


def test_tower_entries_equal_one_shot_images():
    tower = Tower(P3, 2, 0.23)
    labels = [TElementLabel(TElementFamily.t, i, j) for i in (1, 2, 3)
              for j in (1, 2, 3) if i <= j]
    labels += [TElementLabel(TElementFamily.t_hat, i, j) for i in (1, 2, 3)
               for j in (1, 2, 3) if i >= j]
    labels += [TElementLabel(TElementFamily.t0_n1, 3, 1),
               TElementLabel(TElementFamily.t0hat_1n, 1, 3)]
    for lab in labels:
        one_shot = t_element_rep(P3, lab, L=2, first_site_lambda=0.23).mat
        assert np.array_equal(tower.t_image(lab), one_shot), lab
        if lab.family == TElementFamily.t:
            assert tower.t(lab.i, lab.j) is tower.t_image(lab)
        if lab.family == TElementFamily.t_hat:
            assert tower.h(lab.i, lab.j) is tower.t_image(lab)


def test_t_elements_at_pi0():
    w = 2j * math.sin(0.41)
    t13 = t_element_rep(P3, TElementLabel(TElementFamily.t, 1, 3)).mat
    assert np.allclose(t13, w * basis_matrix(3, 3, 1), atol=1e-14)
    that31 = t_element_rep(P3, TElementLabel(TElementFamily.t_hat, 3, 1)).mat
    assert np.allclose(that31, w * basis_matrix(3, 1, 3), atol=1e-14)
    q = cmath.exp(0.41j)
    t22 = t_element_rep(P3, TElementLabel(TElementFamily.t, 2, 2)).mat
    assert np.allclose(t22, np.diag([1, q, 1]), atol=1e-14)
    t22m = t_element_rep(P3, TElementLabel(TElementFamily.t_minus, 2, 2)).mat
    assert np.allclose(t22m, np.diag([1, 1 / q, 1]), atol=1e-14)
    # affine corner at spectral lambda
    lam = 0.4 + 0.1j
    t0 = t_element_rep(P3, TElementLabel(TElementFamily.t0_n1, 3, 1),
                       first_site_lambda=lam).mat
    assert np.allclose(t0, w * cmath.exp(2 * lam) * basis_matrix(3, 1, 3), atol=1e-13)


def test_t_element_index_validation():
    with pytest.raises(ValueError):
        t_element_rep(P3, TElementLabel(TElementFamily.t, 3, 1))
    with pytest.raises(ValueError):
        t_element_rep(P3, TElementLabel(TElementFamily.t_hat, 1, 3))
    with pytest.raises(ValueError):
        t_element_rep(P3, TElementLabel(TElementFamily.t0_n1, 1, 3))


def test_factorized_coproduct_matches_homomorphism():
    # hand-built sum for Delta(t_13) at n=3: k runs over 1..3
    lhs = t_element_rep(P3, TElementLabel(TElementFamily.t, 1, 3), L=2).mat
    acc = np.zeros((9, 9), dtype=complex)
    for k in (1, 2, 3):
        a = t_element_rep(P3, TElementLabel(TElementFamily.t, k, 3)).mat
        b = t_element_rep(P3, TElementLabel(TElementFamily.t, 1, k)).mat
        acc += np.kron(a, b)
    assert rel_residual(lhs, acc) < 1e-13
    # and the module's own sum helper agrees
    assert rel_residual(
        lhs, t_coproduct_sum(P3, TElementLabel(TElementFamily.t, 1, 3)).mat
    ) < 1e-13


def test_affine_coproduct_sum():
    lam = 0.27
    lab = TElementLabel(TElementFamily.t0hat_1n, 1, 3)
    direct = t_element_rep(P3, lab, L=2, first_site_lambda=lam)
    via_sum = t_coproduct_sum(P3, lab, first_site_lambda=lam)
    assert rel_residual(direct, via_sum) < 1e-13


def test_lax_is_twice_r():
    for n in (2, 3, 4):
        p = ModelParams(n=n, mu=0.37, m=1.1, zeta=0.8)
        for lam in (0.3, -0.5 + 0.25j):
            for gauge in (Gauge.homogeneous, Gauge.principal):
                assert rel_residual(build_lax(p, lam, gauge),
                                    2 * build_r(p, lam, gauge)) < 1e-13


def test_lax_structure_at_zero():
    # L(0) = L+ - L-; off-diagonal entries are the w-scaled matrix units and
    # the diagonal collapses to 2 sinh(i mu) identity-like blocks
    p = ModelParams(n=2, mu=0.3)
    l0 = build_lax(p, 0.0).mat
    w = 2j * math.sin(0.3)
    q = cmath.exp(0.3j)
    # aux (1,2) block carries t_12 -> w e_21; aux (2,1) carries -t-minus_21 -> +w e_12
    assert np.allclose(l0[0:2, 2:4], w * basis_matrix(2, 2, 1), atol=1e-14)
    assert np.allclose(l0[2:4, 0:2], w * basis_matrix(2, 1, 2), atol=1e-14)
    assert np.allclose(l0[0:2, 0:2], np.diag([q - 1 / q, 0]), atol=1e-14)
    assert np.allclose(l0[2:4, 2:4], np.diag([0, q - 1 / q]), atol=1e-14)


def test_lax_hat_inverse_and_degenerate():
    lam = 0.31 - 0.22j
    hat = build_lax_hat(P3, lam)
    prod = hat @ build_lax(P3, -lam)
    assert rel_residual(prod.mat, np.eye(9)) < 1e-13
    # L(0) for this parameter set is 2 sinh(i mu) P, perfectly regular;
    # a genuinely singular point sits where sinh(lam + i mu) vanishes on the
    # diagonal subspace: lam = -i mu kills the symmetric sector
    with pytest.raises(DegenerateParameters):
        build_lax_hat(P3, 0.41j)  # L(-lam) at lam = i mu is singular


def test_block_closed_chevalley_blocks():
    lam = 0.23 + 0.19j
    # non-affine raising: diagonal blocks dressed at slots i, i+1
    got = block_closed_rep(P3, "chevalley_e", 2, lam, index=1)
    want = coproduct_rep(P3, GeneratorLabel(GeneratorKind.E, 1), 3,
                         "delta_prime", lam)
    assert rel_residual(got, want) < 1e-13
    # affine: corner block carries e^{-2 lambda}
    got = block_closed_rep(P3, "chevalley_e", 2, lam, index=3)
    want = coproduct_rep(P3, GeneratorLabel(GeneratorKind.E, 3), 3,
                         "delta_prime", lam)
    assert rel_residual(got, want) < 1e-13
    n = 3
    dq = 9
    corner = got.mat[(n - 1) * dq:, :dq]
    hinv = coproduct_rep(P3, GeneratorLabel(GeneratorKind.HCARTAN, 3, True), 2).mat
    assert np.allclose(corner, cmath.exp(-2 * lam) * hinv, atol=1e-13)


def test_block_closed_cartan_and_errors():
    lam = 0.4
    got = block_closed_rep(P3, "cartan_eps", 1, lam, index=2)
    half = coproduct_rep(P3, GeneratorLabel(GeneratorKind.KCARTAN, 2), 2,
                         "delta_prime", lam)
    assert rel_residual(got, half @ half) < 1e-13
    with pytest.raises(ValueError):
        block_closed_rep(P3, "chevalley_e", 1, lam)  # missing index
    with pytest.raises(ValueError):
        block_closed_rep(P3, (1, 1), 1, lam)  # missing charge set
    p4 = ModelParams(n=4, mu=0.3)
    with pytest.raises(ValueError):
        block_closed_rep(p4, (1, 2), 1, lam, charges=build_boundary_charges(p4, 1))
    with pytest.raises(ValueError):
        block_closed_rep(P3, "nonsense", 1, lam)


def test_intertwining_cross_gauge_fails():
    lam = 0.33 - 0.12j
    lab = GeneratorLabel(GeneratorKind.E, 3)
    ok = intertwine_residual(P3, lab, build_r(P3, lam, Gauge.principal), lam, Gauge.principal)
    assert ok < 1e-13
    mismatched = intertwine_residual(
        P3, lab, build_r(P3, lam, Gauge.homogeneous), lam, Gauge.principal
    )
    assert mismatched > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_suite(n):
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)
    rep = verify_algebra_suite(p, samples=3, tol=1e-10, seed=7)
    bad = [c.id for c in rep.failing()]
    assert rep.passed, f"failing: {bad}"

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from artifact.hecke_algebra import (
    BOUNDARY_CONSTANT_GAP,
    build_boundary_generator,
    build_bulk_generator,
    hecke_blocks,
    rep_boundary,
    rep_bulk,
    seminormal_modules,
    verify_hecke_suite,
)
from artifact.params import DegenerateParameters, ModelParams
from artifact.spin_chain import (ChainSpec, build_hamiltonian, hamiltonian_blocks,
                                 hamiltonian_coefficients)
from artifact.tensor_core import comm_residual, commutator, densify, frob, sym_residual


def test_params_invariants():
    with pytest.raises(DegenerateParameters):
        ModelParams(n=1, mu=0.3)
    with pytest.raises(DegenerateParameters):
        ModelParams(n=2, mu=0.0)  # q = 1
    with pytest.raises(DegenerateParameters):
        ModelParams(n=2, mu=cmath.pi)  # q = -1 => q^2 = 1
    with pytest.raises(DegenerateParameters):
        ModelParams(n=3, mu=cmath.pi / 3)  # q^6 = 1
    p = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)
    assert abs(p.q - cmath.exp(0.41j)) < 1e-15


def test_derived_constants():
    p = ModelParams(n=3, mu=0.37, m=1.1 - 0.3j)
    imu = 1j * p.mu
    assert abs(p.delta + (p.q + 1 / p.q)) < 1e-15
    # Q + 1/Q = 2i sinh(i mu m)
    assert abs(p.delta0 + 2j * cmath.sinh(imu * p.m)) < 1e-14
    assert abs(p.kappa - 2j * cmath.sinh(imu * (p.m - 1))) < 1e-14
    assert abs(p.delta0_rescaled + cmath.sinh(imu * p.m) / cmath.sinh(imu)) < 1e-14
    assert abs(p.kappa_rescaled - cmath.sinh(imu * (p.m - 1)) / cmath.sinh(imu)) < 1e-14
    # x(0) simplifies to cosh(i mu m) - cosh(2 i mu zeta)
    x0 = p.k_diag_x(0.0)
    assert abs(x0 - (cmath.cosh(imu * p.m) - cmath.cosh(2j * p.mu * p.zeta))) < 1e-14


def test_bulk_generator_n2_matrix():
    # expanded by hand from the double sum, basis (11, 12, 21, 22)
    p = ModelParams(n=2, mu=0.31)
    q = cmath.exp(0.31j)
    expected = np.array(
        [
            [0, 0, 0, 0],
            [0, -q, 1, 0],
            [0, 1, -1 / q, 0],
            [0, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert_allclose(build_bulk_generator(p).mat, expected, atol=1e-15)


def test_bulk_generator_n3_nonzero_count():
    p = ModelParams(n=3, mu=0.37)
    u = build_bulk_generator(p).mat
    assert int(np.count_nonzero(np.abs(u) > 1e-14)) == 12


def test_bulk_generator_quadratic():
    for n in (2, 3, 4):
        p = ModelParams(n=n, mu=0.52 + 0.03j)
        u = build_bulk_generator(p)
        assert frob(u @ u - p.delta * u) < 1e-12 * frob(u)


def test_rep_bulk_embeddings():
    p2 = ModelParams(n=2, mu=0.44, sites=2)
    u = build_bulk_generator(p2)
    assert_allclose(rep_bulk(p2, 1).mat, u.mat)
    p3 = ModelParams(n=2, mu=0.44, sites=3)
    assert_allclose(rep_bulk(p3, 2).mat, np.kron(np.eye(2), u.mat))
    with pytest.raises(ValueError):
        rep_bulk(p3, 3)


def test_rep_bulk_distant_commute():
    p = ModelParams(n=2, mu=0.61, sites=4)
    u1, u3 = rep_bulk(p, 1), rep_bulk(p, 3)
    assert frob(commutator(u1, u3)) < 1e-14 * frob(u1) * frob(u3)


def test_boundary_generator_matrices():
    p = ModelParams(n=3, mu=0.5, m=0.8 + 0.1j)
    Q = p.Q
    expected = np.array(
        [[-1 / Q, 0, 1], [0, 0, 0], [1, 0, -Q]],
        dtype=complex,
    )
    assert_allclose(build_boundary_generator(p).mat, expected, atol=1e-15)
    p2 = ModelParams(n=2, mu=0.5, m=0.8 + 0.1j)
    expected2 = np.array([[-1 / p2.Q, 1], [1, -p2.Q]], dtype=complex)
    assert_allclose(build_boundary_generator(p2).mat, expected2, atol=1e-15)
    # unrescaled quadratic with -(Q + 1/Q)
    u0 = build_boundary_generator(p)
    assert frob(u0 @ u0 - p.delta0 * u0) < 1e-13 * frob(u0)


def test_rep_boundary():
    p = ModelParams(n=3, mu=0.5, m=0.8, sites=1)
    u0 = build_boundary_generator(p)
    assert_allclose(rep_boundary(p).mat, u0.mat / (2j * cmath.sinh(0.5j)))
    p3 = ModelParams(n=3, mu=0.5, m=0.8, sites=3)
    b = rep_boundary(p3)
    u2 = rep_bulk(p3, 2)
    assert frob(commutator(b, u2)) < 1e-14 * frob(b) * frob(u2)
    # rescaled quadratic
    assert frob(b @ b - p3.delta0_rescaled * b) < 1e-13 * frob(b)


@pytest.mark.parametrize(
    "n,sites,mu,m,limit",
    [
        (2, 2, 0.31, 0.8 + 0.2j, 1e-11),
        (3, 3, 0.47, 1.1 - 0.2j, 1e-11),
        (4, 4, 0.29, 0.7 + 0.1j, 1e-10),
    ],
)
def test_verify_hecke_suite(n, sites, mu, m, limit):
    p = ModelParams(n=n, mu=mu, m=m, zeta=0.6, sites=sites)
    report = verify_hecke_suite(p, tol=limit, samples=5, seed=42)
    assert report.passed, [c.id for c in report.failing()]
    assert report.max_residual() < limit


@pytest.mark.parametrize("mu", [0.41, 1.1])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("zero_at", [1, 0])  # kappa' vanishes at m = 1, delta0' at m = 0
def test_verify_hecke_suite_refuses_within_the_boundary_constant_gap(zero_at, n, mu):
    # |kappa'| = |sin(mu (m - 1))| / sin(mu) and |delta0'| = |sin(mu m)| / sin(mu)
    def at(scale):
        step = math.asin(scale * BOUNDARY_CONSTANT_GAP * math.sin(mu)) / mu
        return ModelParams(n=n, mu=mu, m=zero_at + step, zeta=0.6, sites=2)

    for scale in (0.0, 0.95):
        with pytest.raises(DegenerateParameters, match="BOUNDARY_CONSTANT_GAP"):
            verify_hecke_suite(at(scale), samples=1)
    report = verify_hecke_suite(at(1.05), samples=1)
    assert report.passed, [c.id for c in report.failing()]


# (mu, m): the CLI defaults and a large mu with complex m
SEMINORMAL_POINTS = [(0.41, 0.9 + 0.2j), (1.1, -0.4 + 0.7j)]


@pytest.mark.parametrize("mu, m", SEMINORMAL_POINTS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_seminormal_matrices_satisfy_the_type_b_relations(n, mu, m):
    for sites in range(1, 6):
        p = ModelParams(n=n, mu=mu, m=m, zeta=0.6, sites=sites)
        q1, q2 = cmath.exp(1j * mu * m), cmath.exp(-1j * mu * m)
        for module in seminormal_modules(p):
            side = module.jm.shape[0]
            one = np.eye(side)
            t = [np.diag(module.jm[:, 0])] + [densify(side, g) for g in module.generators]
            assert sym_residual(t[0] @ t[0], (q1 + q2) * t[0] - q1 * q2 * one) <= 1e-13
            for k in range(1, sites):
                assert sym_residual(t[k] @ t[k], p.w * t[k] + one) <= 1e-13
                for j in range(k + 2, sites):
                    assert comm_residual(t[k], t[j]) <= 1e-13
            for j in range(2, sites):
                assert comm_residual(t[0], t[j]) <= 1e-13
            for k in range(1, sites - 1):
                assert sym_residual(t[k] @ t[k + 1] @ t[k], t[k + 1] @ t[k] @ t[k + 1]) <= 1e-13
            if sites > 1:
                assert sym_residual(t[0] @ t[1] @ t[0] @ t[1], t[1] @ t[0] @ t[1] @ t[0]) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_seminormal_modules_fill_the_chain(n):
    for sites in range(1, 5):
        p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=sites)
        modules = seminormal_modules(p)
        assert sum(mod.multiplicity * mod.jm.shape[0] for mod in modules) == n**sites
        # one module per bipartition, lambda1 of at most n - 1 rows
        labels = [mod.label for mod in modules]
        assert len(set(labels)) == len(labels)
        assert all(len(one) <= n - 1 and len(two) <= 1 for one, two in labels)


def test_seminormal_modules_at_three_sites_of_rank_three():
    # f^(2,1) = 2 and dim V_(2,1)(gl_2) = 2; C(3, 1) f^(2) = 3 with lambda2 = (1)
    p = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=3)
    got = {mod.label: (mod.jm.shape[0], mod.multiplicity) for mod in seminormal_modules(p)}
    assert got == {((3,), ()): (1, 4), ((2, 1), ()): (2, 2), ((1, 1), (1,)): (3, 1),
                   ((2,), (1,)): (3, 3), ((1,), (2,)): (3, 2), ((), (3,)): (1, 1)}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_site_boundary_identifies_q1_and_q2(n):
    # 2 sinh(i mu) U_0' + e^{i mu m} on one site: e^{i mu m} n - 1 times,
    # e^{-i mu m} once, so the component of n - 1 rows carries Q1 = e^{i mu m}
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=1)
    q1 = cmath.exp(1j * p.mu * p.m)
    got = np.sort_complex(np.linalg.eigvals(p.w * rep_boundary(p).mat + q1 * np.eye(n)))
    want = np.sort_complex(np.array([q1] * (n - 1) + [1 / q1]))
    assert np.max(np.abs(got - want)) <= 1e-13
    jm = {mod.label: (mod.jm[0, 0], mod.multiplicity) for mod in seminormal_modules(p)}
    assert jm == {((1,), ()): (q1, n - 1), ((), (1,)): (1 / q1, 1)}


def test_hecke_blocks_carry_the_generators():
    p = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=4)
    for (label, boundary, bulk, mult), module in zip(hecke_blocks(p), seminormal_modules(p),
                                                     strict=True):
        side = module.jm.shape[0]
        assert (label, mult) == (module.label, module.multiplicity)
        want = sum(densify(side, g) for g in module.generators) - 3 * p.q * np.eye(side)
        assert np.max(np.abs(bulk - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(p.w * boundary + cmath.exp(1j * p.mu * p.m) - module.jm[:, 0])) <= 1e-15


@pytest.mark.parametrize("n, sites, mu, m", [
    # e^{2i mu (m - s)} = 1 across the components at integer m (nearly so at
    # the last point, separation 7e-4)
    (2, 6, 0.41, 0), (2, 6, 0.41, 1), (2, 6, 0.7, 2), (2, 6, 0.15 - 0.1j, 2 + 0.001953125j),
    (3, 5, math.pi / 4, 0.9 + 0.2j),  # q^8 = 1 inside lambda1
    (2, 9, 1.1, 1 + 0.0739j),  # separation 0.150: over the gate at N <= 8, under it at N = 9
])
def test_seminormal_modules_refuse_the_non_semisimple_locus(n, sites, mu, m):
    p = ModelParams(n=n, mu=mu, m=m, zeta=0.6, sites=sites)
    with pytest.raises(DegenerateParameters, match="non-semisimple"):
        seminormal_modules(p)


def _h_blocks(spec):
    """H on each seminormal module, with its multiplicity."""
    a, b, c = hamiltonian_coefficients(spec)
    return [(a * bulk + np.diag(b * boundary + c), mult)
            for _, boundary, bulk, mult in hecke_blocks(spec.params)]


def test_hecke_blocks_carry_the_spectrum():
    for n, sites in ((2, 5), (3, 4)):
        spec = ChainSpec(ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=sites))
        blocks = _h_blocks(spec)
        if n == 2:  # the blob algebra's standard modules, one each
            assert sorted(b.shape[0] for b, _ in blocks) == sorted(
                math.comb(sites, j) for j in range(sites + 1))
            assert all(mult == 1 for _, mult in blocks)
        h = build_hamiltonian(spec).mat
        trace = sum(mult * np.trace(b) for b, mult in blocks)
        assert abs(trace - np.trace(h)) <= 1e-13 * np.linalg.norm(h)


def test_hecke_blocks_form_no_chain_sized_array():
    # beyond the blocks it returns, the route holds less than half of one
    # n^N-row basis of its largest module (at (2, 11), 2048 x 462 x 16 B)
    for n, sites in ((2, 11), (3, 7)):
        p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=sites)
        tracemalloc.start()
        try:
            blocks = hecke_blocks(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(bulk.nbytes for _, _, bulk, _ in blocks) <= held
        side = max(bulk.shape[0] for _, _, bulk, _ in blocks)
        assert peak - held < n**sites * side * 16 / 2


def _coord(lo, hi):
    return st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi))


@st.composite
def _model(draw):
    # the sampling boxes of artifact.sampling, corners included; the sites
    # keep every weight sector small enough for a 30-digit eigensolve
    def box(re_lo, re_hi, im_lo, im_hi):
        return complex(draw(_coord(re_lo, re_hi)), draw(_coord(im_lo, im_hi)))

    n = draw(st.integers(2, 4))
    try:
        return ModelParams(n=n, mu=box(0.15, 1.2, -0.1, 0.1), m=box(0.3, 2.0, -0.5, 0.5),
                           zeta=box(0.3, 2.0, -0.5, 0.5),
                           sites=draw(st.integers(1, 4 if n == 2 else 3)))
    except DegenerateParameters:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(_model())
@example(ModelParams(n=2, mu=0.15, m=0.3 + 0.25j, zeta=0.3, sites=4))
@example(ModelParams(n=2, mu=1.1, m=1 + 0.05j, zeta=0.6, sites=4))  # just over the gate
def test_hecke_blocks_carry_the_dense_eigenvalues(p):
    spec = ChainSpec(p)
    try:
        blocks = _h_blocks(spec)
    except DegenerateParameters:
        assume(False)  # near the non-semisimple locus, or x(0) near 0
    h = build_hamiltonian(spec).mat
    dense, left, right = scipy.linalg.eig(h, left=True, right=True)
    # H is far from normal in places (||H||_2 = 37 with |eigenvalues| <= 3 at
    # mu = 0.15, m = 0.3 + 0.25i, zeta = 0.3, N = 4), and there the blocks,
    # formed in double precision, may err by eps ||H||_2 kappa_i, kappa_i the
    # condition number of the i-th eigenvalue. The dense eigensolve errs by as
    # much, so it lends only kappa, and the eigenvalues come from a 30-digit
    # eigensolve of each weight sector, the blocks' independent oracle
    kappa = (np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
             / np.abs(np.sum(left.conj() * right, axis=0)))
    with mpmath.workdps(30):  # (mpmath.eig returns a 1 x 1 matrix's vectors too)
        exact = np.array([complex(e) for _, sector in hamiltonian_blocks(spec)
                          for e in (mpmath.eig(mpmath.matrix(sector.tolist()), left=False,
                                               right=False) if len(sector) > 1 else sector[0])])
    _, d = linear_sum_assignment(np.abs(exact[:, None] - dense[None, :]))
    bound = 1e-11 * np.max(np.abs(exact)) + np.finfo(float).eps * np.linalg.norm(h, 2) * kappa[d]
    got = np.concatenate([np.repeat(np.linalg.eigvals(b), mult) for b, mult in blocks])
    i, j = linear_sum_assignment(np.abs(exact[:, None] - got[None, :]))
    assert np.all(np.abs(exact[i] - got[j]) <= bound[i])

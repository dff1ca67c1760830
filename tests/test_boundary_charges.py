"""Boundary non-local charges: closed forms, recursions, asymptotics.

The single-site oracles are frozen complex literals computed from the
scalar closed forms with cmath alone (2 cosh factors, -iwq corners, the
w^2 interior weight) before the builders existed; multi-site oracles are
hand krons of group-like diagonals, transposition identities, and the
dominant-balance limit of the affine charge at large boundary parameter.
"""

import cmath
import math
import tracemalloc
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from artifact import ModelParams, boundary_charges, quantum_algebra
from artifact.boundary_charges import (
    _charge_positions,
    _recursive_charges,
    asymptotic_charges_residual,
    boundary_entry_indices,
    braid_exchange_residuals,
    build_boundary_charges,
    charge_block_closed,
    coproduct_charges,
    cyclic_shift,
    degeneracy_witness,
    double_row_blocks,
    eval_Q_rep,
    exchange_relation_residuals,
    principal_asymptotic_residual,
    verify_symmetry_suite,
)
from artifact.params import DegenerateParameters
from artifact.quantum_algebra import (
    TElementFamily,
    TElementLabel,
    Tower,
)
from artifact.reflection_k import build_k_explicit
from artifact.hecke_algebra import hecke_blocks
from artifact.spin_chain import ChainSpec, build_hamiltonian, hamiltonian_coefficients
from artifact.tensor_core import rel_residual
from artifact.yang_baxter import Gauge

P31 = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=1)
P32 = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)


def test_entry_indices_structure():
    assert boundary_entry_indices(2) == ((1, 1), (1, 2), (2, 1))
    assert boundary_entry_indices(3) == ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
    idx4 = boundary_entry_indices(4)
    assert (1, 1) in idx4 and (1, 4) in idx4 and (4, 1) in idx4
    assert {(2, 2), (2, 3), (3, 2), (3, 3)} <= set(idx4)
    assert (4, 4) not in idx4  # the affine charge is kept separately


def test_single_site_q11_frozen_values():
    # 2 cosh(i mu m) diag(q^2, 1, 1) - iwq (E13 + E31) + w^2 e^{i mu m} E22
    got = eval_Q_rep(P31, (1, 1))
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = 1.3201778416484846 + 1.3280504948335419j
    want[1, 1] = 1.3255428458527256 - 0.2704058754514922j
    want[2, 2] = 1.8716519019280695 - 0.05921831149489237j
    want[0, 2] = want[2, 0] = 0.7311458297268959 + 0.31777879271238646j
    assert np.max(np.abs(got - want)) < 1e-14


def test_single_site_q12_frozen_values():
    # w (e^{i mu m} E21 - i E23): one hop into the bulk, one toward the wall
    got = eval_Q_rep(P31, (1, 2))
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = -0.26490544642353775 + 0.6850179081818739j
    want[1, 2] = 0.7972186559688458
    assert np.max(np.abs(got - want)) < 1e-14


def test_single_site_corner_charges_frozen_values():
    # Q_{1n} = Q_{n1} = -i q^{E11 + Enn}
    want = np.diag([0.3986093279844229 - 0.9171208228166051j, -1j,
                    0.3986093279844229 - 0.9171208228166051j])
    for pos in ((1, 3), (3, 1)):
        assert np.max(np.abs(eval_Q_rep(P31, pos) - want)) < 1e-14


def test_single_site_affine_frozen_values():
    # at lam = 0: -2 cosh(2 i mu zeta) diag(1, 1, q^2) - iwq (E13 + E31)
    got = eval_Q_rep(P31, (3, 3))
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = want[1, 1] = -1.7627796855923026
    want[2, 2] = -1.2026056852868607 - 1.2888490158481007j
    want[0, 2] = want[2, 0] = 0.7311458297268959 + 0.31777879271238646j
    assert np.max(np.abs(got - want)) < 1e-14


def test_single_site_affine_corner_spectral_dependence():
    # the two corners carry e^{+-2 lam}, everything else is lam-independent
    lam = 0.23 - 0.11j
    at0 = eval_Q_rep(P31, (3, 3))
    at = eval_Q_rep(P31, (3, 3), lam)
    assert abs(at[0, 2] / at0[0, 2] - cmath.exp(2 * lam)) < 1e-13
    assert abs(at[2, 0] / at0[2, 0] - cmath.exp(-2 * lam)) < 1e-13
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = mask[2, 0] = False
    assert np.max(np.abs((at - at0)[mask])) < 1e-14


def test_single_site_transpose_identity():
    for i in (2, 3):
        qi1 = eval_Q_rep(P31, (i, 1))
        q1i = eval_Q_rep(P31, (1, i))
        assert np.max(np.abs(qi1 - q1i.T)) < 1e-15


def test_interior_charge_two_sites_group_like():
    # Delta(t_22) and Delta(t_hat_22) are the same group-like diagonal, so
    # the interior charge is e^{i mu m} kron(d, d) with d = diag(1, q^2, 1)
    em = 0.8592597564709317 + 0.33228706383144385j
    q2 = cmath.exp(2j * 0.41)
    d = np.diag([1.0, q2, 1.0])
    got = build_boundary_charges(P32, 2).entries[(2, 2)].mat
    assert np.max(np.abs(got - em * np.kron(d, d))) < 1e-14


def test_affine_charge_dominant_balance():
    # for zeta far down the imaginary axis the 2 cosh(2 i mu zeta) term
    # swamps the O(1) corner products, leaving the square of Delta(t_nn)
    p = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6 - 50j, sites=2)
    c2 = 2 * cmath.cosh(2j * p.mu * p.zeta)
    tnn = Tower(p, 2).t(3, 3)
    assert rel_residual(build_boundary_charges(p, 2).affine.mat, -c2 * tnn @ tnn) < 1e-12


def test_recursion_matches_products():
    charges = build_boundary_charges(P32, 2)
    built = _recursive_charges(P32, 2, "delta", 0.0, cache(partial(Tower, P32)))
    for pos in boundary_entry_indices(3):
        assert rel_residual(built[pos], charges.entries[pos].mat) < 1e-12
    assert rel_residual(built[3, 3], charges.affine.mat) < 1e-12


def test_recursion_prime_is_cycled_recursion():
    # every position; n = 4 reaches the rows and columns i >= 3 and the
    # interior block. One recursion per order returns every position.
    for n in (3, 4):
        p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=3)
        shift = cyclic_shift(n, 3)
        inv = shift.conj().T
        tower = cache(partial(Tower, p))
        plain = _recursive_charges(p, 3, "delta", 0.0, tower)
        primed = _recursive_charges(p, 3, "delta_prime", 0.0, tower)
        for pos in boundary_entry_indices(n) + ((n, n),):
            cycled = shift @ plain[pos] @ inv
            assert rel_residual(primed[pos], cycled) < 1e-12, (n, pos)


def test_plain_recursion_carries_only_the_affine_charge_down(monkeypatch):
    # the plain order reads only the (n, n) charge of the L - 1 sites below,
    # so t-hat is read for the top level's entries alone: one read per
    # (i, j, a, b) term with a >= i and b >= j, 15 at n = 3, where building
    # every charge on every level read it 15 (L - 1) times
    reads = []
    inner = Tower.h

    def counted(self, *args):
        reads.append(args)
        return inner(self, *args)

    monkeypatch.setattr(Tower, "h", counted)
    built = _recursive_charges(P32, 4, "delta", 0.0, cache(partial(Tower, P32)))
    assert len(reads) == 15
    assert set(built) == set(boundary_entry_indices(3)) | {(3, 3)}
    p4 = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=4)
    charges = build_boundary_charges(p4, 4)
    for pos in boundary_entry_indices(3) + ((3, 3),):
        assert rel_residual(built[pos], charges.charge(pos)) < 1e-12, pos


def test_recursion_builds_no_tower_on_all_sites(monkeypatch):
    # the recursion reads towers on one and L - 1 sites only: a tower on all
    # L sites would make symmetry.recursion compare the product route with
    # itself
    p = ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=3)
    sites = []
    inner = boundary_charges.Tower

    def counted(params, L=1, *args):
        sites.append(L)
        return inner(params, L, *args)

    monkeypatch.setattr(boundary_charges, "Tower", counted)
    for pos in ((1, 4), (4, 1), (2, 3)):
        coproduct_charges(p, 3, pos)
    assert sites and 3 not in sites


def _dense_charges(tower):
    # the charge formulas as dense products of the tower entries
    p, n = tower.params, tower.params.n
    t, h = tower.t, tower.h
    em = cmath.exp(1j * p.mu * p.m)
    out = {(1, 1): (em + 1 / em) * (t(1, 1) @ h(1, 1)) - 1j * (t(1, n) @ h(1, 1))
           - 1j * (t(1, 1) @ h(n, 1))
           + sum(em * (t(1, j) @ h(j, 1)) for j in range(2, n))}
    for i in range(2, n + 1):
        out[(1, i)] = -1j * (t(1, 1) @ h(n, i)) + sum(em * (t(1, j) @ h(j, i)) for j in range(i, n))
        out[(i, 1)] = -1j * (t(i, n) @ h(1, 1)) + sum(em * (t(i, j) @ h(j, 1)) for j in range(i, n))
    for k in range(2, n):
        for l in range(2, n):
            out[(k, l)] = sum(em * (t(k, j) @ h(j, l)) for j in range(max(k, l), n))
    T = TElementFamily
    out[(n, n)] = (
        -2 * cmath.cosh(2j * p.mu * p.zeta) * (t(n, n) @ t(n, n))
        - 1j * (t(n, n) @ tower.t_image(TElementLabel(T.t0hat_1n, 1, n)))
        - 1j * (tower.t_image(TElementLabel(T.t0_n1, n, 1)) @ h(n, n))
    )
    return out


@pytest.mark.parametrize("n,N", [(2, 5), (3, 3), (4, 3), (2, 7), (2, 8), (3, 5), (4, 4)])
def test_charges_equal_dense_tower_products(n, N, monkeypatch):
    # sizes on both sides of CSR_ABOVE, the oracle read from a tower forced dense
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=N)
    charges = build_boundary_charges(p, N, 0.23 - 0.11j)
    assert charges.tower.sparse == (n**N > quantum_algebra.CSR_ABOVE)
    monkeypatch.setattr(quantum_algebra, "CSR_ABOVE", math.inf)
    want = _dense_charges(Tower(p, N, 0.23 - 0.11j))
    assert set(want) == set(charges.entries) | {(n, n)}
    for pos, mat in want.items():
        assert rel_residual(charges.charge(pos), mat) <= 1e-14, pos
    assert rel_residual(charges.affine.mat, want[(n, n)]) <= 1e-14
    for op in [*charges.entries.values(), charges.affine]:
        assert type(op.mat) is np.ndarray
        assert op.mat.dtype == np.complex128 and op.mat.flags.c_contiguous
        assert op.mat.shape == (n**N, n**N)


def test_charge_build_keeps_no_dense_tower():
    # at (4, 5) a tower of dense 1024-sided images peaks near 870 MB, while
    # the eleven dense entries and the affine charge take 201 MB
    p = ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=5)
    tracemalloc.start()
    try:
        charges = build_boundary_charges(p, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charges.tower.sparse and len(charges.entries) == 11
    assert peak < 400e6


def test_charges_build_each_coproduct_once(monkeypatch):
    # n = 4 on two sites (a dense tower) needs twelve distinct generator
    # coproducts: the four half Cartans, e_i and f_i for i < n, and e_n, f_n
    # for the corners
    p = ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)
    calls = []
    inner = quantum_algebra.coproduct_rep

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return inner(*args, **kwargs)

    monkeypatch.setattr(quantum_algebra, "coproduct_rep", counted)
    assert not build_boundary_charges(p, 2).tower.sparse
    assert len(calls) == 12
    assert len(set(calls)) == 12
    # the primed recursion needs twelve distinct (label, sites, lambda)
    # images across all its levels: the four half Cartans and e_i, f_i for
    # i < n on one site, and the half Cartans of t_11 and t_nn on two sites
    calls.clear()
    coproduct_charges(p, 3, (1, 1), "delta_prime")
    assert len(calls) == 12
    assert len(set(calls)) == 12


def test_csr_charges_build_each_generator_image_once(monkeypatch):
    # the sparse twin of the test above: at (4, 4) the tower stores entry
    # lists, builds the same twelve distinct generator images once each, and
    # never calls coproduct_rep, whose dense band writes only dense towers use
    p = ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=4)
    built, dense = [], []
    inner = Tower._build_gen

    def counted(self, label):
        built.append((self.L, self.first_site_lambda, label))
        return inner(self, label)

    monkeypatch.setattr(Tower, "_build_gen", counted)
    monkeypatch.setattr(quantum_algebra, "coproduct_rep", lambda *args: dense.append(args))
    charges = build_boundary_charges(p, 4)
    assert charges.tower.sparse
    assert len(built) == 12
    assert len(set(built)) == 12
    assert dense == []


def test_block_closed_forms_match_generic_coproduct():
    lam = 0.27 - 0.19j
    charges = build_boundary_charges(P32, 2)
    generic = _recursive_charges(P32, 3, "delta_prime", lam, cache(partial(Tower, P32)))
    for pos in ((3, 3), (1, 1), (1, 2), (2, 1)):
        closed = charge_block_closed(charges, pos, lam)
        assert rel_residual(generic[pos], closed) < 1e-12


@pytest.mark.parametrize("n,sites", [(4, 2), (2, 4)])
def test_affine_only_primed_charges_hold_the_full_affine_charge(n, sites):
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6)
    lam = 0.27 - 0.19j
    tower = cache(partial(Tower, p))
    full = _recursive_charges(p, sites, "delta_prime", lam, tower)
    affine = _recursive_charges(p, sites, "delta_prime", lam, tower, affine_only=True)
    assert list(affine) == [(n, n)]
    assert np.array_equal(affine[n, n], full[n, n])


def _intertwiner_null_space(p, lam, swapped=False):
    """Relative singular values and the least singular vector of the stacked
    linear maps X -> Q(lam) X - X Q(-lam) over every charge position, X
    row-major; ``swapped`` solves X Q(lam) = Q(-lam) X instead."""
    eye = np.eye(p.n)
    blocks = []
    for pos in _charge_positions(p.n):
        a, b = eval_Q_rep(p, pos, lam), eval_Q_rep(p, pos, -lam)
        if swapped:
            a, b = b, a
        blocks.append(np.kron(a, eye) - np.kron(eye, b.T))
    _, sv, vh = np.linalg.svd(np.vstack(blocks))
    return sv / sv[0], vh[-1].conj().reshape(p.n, p.n)


def _miss_after_scalar_fit(x, k):
    scale = np.vdot(x, k) / np.vdot(x, x)
    return np.linalg.norm(scale * x - k) / np.linalg.norm(k)


K_RECOVERY_CASES = [(n, m, lam) for n in range(2, 6)
                    for m in (0.9 + 0.2j, 1.5, 0.3 - 0.4j, 0.0)
                    for lam in (0.3 - 0.1j, 1.1 + 0.4j)]


@pytest.mark.parametrize("n,m,lam", K_RECOVERY_CASES)
def test_k_is_recovered_from_the_linear_intertwining_relation(n, m, lam):
    # Q(lam) K = K Q(-lam) over every charge has a one-dimensional solution
    # space, and it is the closed-form K; measured: smallest singular value
    # <= 2.0e-16, the next >= 0.133, the miss <= 9.2e-16
    p = ModelParams(n=n, mu=0.41, m=m, zeta=0.6)
    k = build_k_explicit(p, lam).mat
    sv, x = _intertwiner_null_space(p, lam)
    assert sv[-1] <= 1e-13 and sv[-2] >= 1e-2
    assert _miss_after_scalar_fit(x, k) <= 1e-12
    # the swapped orientation also has a one-dimensional solution space,
    # but not K (measured miss 0.28-1.00): the comparison is what recovers K
    sv, x = _intertwiner_null_space(p, lam, swapped=True)
    assert sv[-1] <= 1e-13 and sv[-2] >= 1e-2
    assert _miss_after_scalar_fit(x, k) >= 0.1


def test_charge_block_closed_refusals():
    p4 = ModelParams(n=4, mu=0.3)
    with pytest.raises(ValueError, match="n=3 only"):
        charge_block_closed(build_boundary_charges(p4, 1), (1, 2), 0.4)
    with pytest.raises(ValueError, match="no closed form"):
        charge_block_closed(build_boundary_charges(P31, 1), (2, 3), 0.4)


def test_asymptotic_readout_homogeneous():
    res, scalar = asymptotic_charges_residual(build_boundary_charges(P32, 2))
    assert res < 1e-8
    # the shared prefactor of the surviving blocks is e^{2 lam} / 2
    assert abs(scalar / (cmath.exp(30.0) / 2) - 1) < 1e-6


def test_asymptotic_readout_principal():
    assert principal_asymptotic_residual(build_boundary_charges(P32, 2)) < 1e-8


def test_braid_exchange_single_site():
    rp, rm = braid_exchange_residuals(build_boundary_charges(P31, 1))
    assert rp < 1e-12 and rm < 1e-12


def test_exchange_relations_n3_displays():
    spec = ChainSpec(params=P32)
    charges = build_boundary_charges(P32, 2)
    out = exchange_relation_residuals(double_row_blocks(spec, 0.31 - 0.13j), 0.31 - 0.13j,
                                      charges)
    for name in ("com4", "com5", "com6", "com7", "com8", "com9", "com11"):
        assert out[name] < 1e-12, name
    # the strictly-interior ladder relations need n >= 4
    assert "com2" not in out and "com3" not in out


def test_exchange_relations_nonvacuous_n4():
    p = ModelParams(n=4, mu=0.37, m=1.1 + 0.15j, zeta=0.52, sites=2)
    spec = ChainSpec(params=p)
    charges = build_boundary_charges(p, 2)
    out = exchange_relation_residuals(double_row_blocks(spec, 0.21 + 0.17j), 0.21 + 0.17j,
                                      charges)
    for name in ("com2", "com3", "com4", "com4b", "com8", "com11"):
        assert out[name] < 1e-12, name


@pytest.mark.parametrize("mu", [3.5, -3.5])
def test_exchange_relations_take_the_towers_half_power_of_q(mu):
    # beyond |Re mu| = pi the principal square root of q = e^{i mu} is
    # -e^{i mu / 2}; the relations hold with the tower's branch e^{i mu / 2}
    p = ModelParams(n=4, mu=mu, m=0.9 + 0.2j, zeta=0.6, sites=2)
    out = exchange_relation_residuals(double_row_blocks(ChainSpec(params=p), 0.21 + 0.17j),
                                      0.21 + 0.17j, build_boundary_charges(p, 2))
    for name in ("com2", "com3", "com4", "com4b"):
        assert out[name] < 1e-12, name


def test_bad_positions_and_variants_raise():
    with pytest.raises(ValueError):
        eval_Q_rep(P31, (2, 3))
    with pytest.raises(ValueError):
        eval_Q_rep(P31, (4, 1))
    with pytest.raises(ValueError):
        coproduct_charges(P32, 2, (1, 1), variant="delta_double_prime")
    with pytest.raises(ValueError):
        coproduct_charges(P32, 0, (1, 1))


def test_degeneracy_witness():
    assert degeneracy_witness(build_boundary_charges(P32, 2)) < 1e-8


def test_degeneracy_witness_without_isolated_eigenvalue_is_nan():
    # a cluster tolerance this wide merges the whole spectrum into one cluster
    assert math.isnan(degeneracy_witness(build_boundary_charges(P32, 2), cluster_tol=1e6))


def test_symmetry_suite_builds_its_charge_set_once(monkeypatch):
    # at CLI defaults (n=3, N=2) the suite's own charge set serves every
    # two-site check, the braid exchange included
    sizes = []
    inner = boundary_charges.build_boundary_charges

    def counted(params, N, *args, **kwargs):
        sizes.append(N)
        return inner(params, N, *args, **kwargs)

    monkeypatch.setattr(boundary_charges, "build_boundary_charges", counted)
    rep = verify_symmetry_suite(ChainSpec(params=P32))
    assert rep.passed
    assert sizes.count(2) == 1


def test_symmetry_suite_shares_one_recursion_memo(monkeypatch):
    # at CLI defaults the three recursion checks (recursion, recursion_prime,
    # block_closed) read one set of recursion-side towers, apart from the
    # charge set's own tower, instead of fresh towers per position
    calls = []
    inner = quantum_algebra.coproduct_rep

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return inner(*args, **kwargs)

    monkeypatch.setattr(quantum_algebra, "coproduct_rep", counted)
    rep = verify_symmetry_suite(ChainSpec(params=P32))
    assert rep.passed
    assert len(calls) == 34


def test_suite_green_n3():
    rep = verify_symmetry_suite(ChainSpec(params=P32), samples=3, tol=1e-9, seed=7)
    assert rep.passed
    assert all(c.id.startswith("symmetry.") for c in rep.checks)
    names = {c.id.rsplit(".s", 1)[0] for c in rep.checks}
    assert {"symmetry.recursion", "symmetry.asym_hom", "symmetry.rr_plus",
            "symmetry.com12", "symmetry.trivial_k", "symmetry.diagonal_k"} <= names


def test_suite_green_n2():
    p = ModelParams(n=2, mu=0.33, m=1.05 + 0.1j, zeta=0.47, sites=3)
    rep = verify_symmetry_suite(ChainSpec(params=p), samples=3, tol=1e-9, seed=7)
    assert rep.passed


# ---------------------------------------------------------------------------
# Q_11 at n = 2 by the last-site recursion
# ---------------------------------------------------------------------------

# (mu, m, zeta): the defaults, a complex mu, and a large mu with complex m
Q11_POINTS = [(0.41, 0.9 + 0.2j, 0.6), (0.3 + 0.2j, 1.5, 0.25), (1.1, -0.4 + 0.7j, 0.25)]
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _q11_by_last_site(p, L):
    """Q_11 on L sites from Q_11^(l) = Q_11^(l-1) (x) diag(q^2, 1) - i w q^l
    (1 (x) sigma_x), starting from the one-site closed form."""
    q11 = eval_Q_rep(p, (1, 1))
    for sites in range(2, L + 1):
        q11 = (np.kron(q11, np.diag([p.q**2, 1]))
               - 1j * p.w * p.q**sites * np.kron(np.eye(2 ** (sites - 1)), SIGMA_X))
    return q11


@pytest.mark.parametrize("mu, m, zeta", Q11_POINTS)
def test_q11_last_site_recursion_matches_the_products(mu, m, zeta):
    for L in range(2, 7):
        p = ModelParams(n=2, mu=mu, m=m, zeta=zeta, sites=L)
        want = build_boundary_charges(p, L).entries[1, 1].mat
        assert rel_residual(_q11_by_last_site(p, L), want) <= 1e-13, L


@pytest.mark.parametrize("mu, m, zeta", Q11_POINTS)
def test_q11_eigenspaces_are_eigenspaces(mu, m, zeta):
    # Q_11 on L sites has the eigenvalue nu_j = q^L (y + 1/y), y = e^{i mu m}
    # q^(L - 2j), on C(L, j) dimensions, and H, which commutes with it, acts
    # on that eigenspace as on the n = 2 seminormal module ((L - j), (j))
    for L in range(1, 7):
        p = ModelParams(n=2, mu=mu, m=m, zeta=zeta, sites=L)
        spec = ChainSpec(p)
        q11, h = _q11_by_last_site(p, L), build_hamiltonian(spec).mat
        a, b, c = hamiltonian_coefficients(spec)
        blocks = {label: a * bulk + np.diag(b * boundary + c)
                  for label, boundary, bulk, _ in hecke_blocks(p)}
        for j in range(L + 1):
            y = cmath.exp(1j * mu * m) * p.q ** (L - 2 * j)
            _, sv, vh = np.linalg.svd(q11 - p.q**L * (y + 1 / y) * np.eye(2**L))
            space = vh[sv <= 1e-10 * sv[0]].conj().T
            assert space.shape[1] == math.comb(L, j), (L, j)
            block = blocks[tuple(r for r in (L - j,) if r), tuple(r for r in (j,) if r)]
            got = np.linalg.eigvals(space.conj().T @ h @ space)
            want = np.linalg.eigvals(block)
            i, k = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
            assert np.max(np.abs(got[i] - want[k])) <= 1e-11 * np.linalg.norm(h), (L, j)


def _coord(lo, hi):
    return st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi))


@st.composite
def _n2_model(draw):
    # the sampling boxes of artifact.sampling, corners included
    def box(re_lo, re_hi, im_lo, im_hi):
        return complex(draw(_coord(re_lo, re_hi)), draw(_coord(im_lo, im_hi)))

    try:
        return ModelParams(n=2, mu=box(0.15, 1.2, -0.1, 0.1), m=box(0.3, 2.0, -0.5, 0.5),
                           zeta=box(0.3, 2.0, -0.5, 0.5), sites=draw(st.integers(2, 4)))
    except DegenerateParameters:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(_n2_model())
def test_q11_last_site_recursion_over_the_sampling_boxes(p):
    want = build_boundary_charges(p, p.sites).entries[1, 1].mat
    assert rel_residual(_q11_by_last_site(p, p.sites), want) <= 1e-13

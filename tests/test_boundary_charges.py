"""Boundary non-local charges: closed forms, recursions, asymptotics.

The single-site oracles are frozen complex literals computed from the
scalar closed forms with cmath alone (2 cosh factors, -iwq corners, the
w^2 interior weight) before the builders existed; multi-site oracles are
hand krons of group-like diagonals, transposition identities, and the
dominant-balance limit of the affine charge at large boundary parameter.
"""

import cmath
import math

import numpy as np
import pytest

from artifact import ModelParams, boundary_charges, quantum_algebra
from artifact.boundary_charges import (
    _t_prime_rep,
    asymptotic_charges_residual,
    boundary_entry_indices,
    braid_exchange_residuals,
    build_affine_charge,
    build_boundary_charges,
    coproduct_charges,
    cyclic_shift,
    degeneracy_witness,
    eval_Q_rep,
    exchange_relation_residuals,
    principal_asymptotic_residual,
    verify_symmetry_suite,
)
from artifact.quantum_algebra import (
    TElementFamily,
    TElementLabel,
    Tower,
    block_closed_rep,
    t_element_rep,
)
from artifact.spin_chain import ChainSpec
from artifact.tensor_core import Operator, rel_residual
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
    got = eval_Q_rep(P31, (1, 1)).mat
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = 1.3201778416484846 + 1.3280504948335419j
    want[1, 1] = 1.3255428458527256 - 0.2704058754514922j
    want[2, 2] = 1.8716519019280695 - 0.05921831149489237j
    want[0, 2] = want[2, 0] = 0.7311458297268959 + 0.31777879271238646j
    assert np.max(np.abs(got - want)) < 1e-14


def test_single_site_q12_frozen_values():
    # w (e^{i mu m} E21 - i E23): one hop into the bulk, one toward the wall
    got = eval_Q_rep(P31, (1, 2)).mat
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = -0.26490544642353775 + 0.6850179081818739j
    want[1, 2] = 0.7972186559688458
    assert np.max(np.abs(got - want)) < 1e-14


def test_single_site_corner_charges_frozen_values():
    # Q_{1n} = Q_{n1} = -i q^{E11 + Enn}
    want = np.diag([0.3986093279844229 - 0.9171208228166051j, -1j,
                    0.3986093279844229 - 0.9171208228166051j])
    for pos in ((1, 3), (3, 1)):
        assert np.max(np.abs(eval_Q_rep(P31, pos).mat - want)) < 1e-14


def test_single_site_affine_frozen_values():
    # at lam = 0: -2 cosh(2 i mu zeta) diag(1, 1, q^2) - iwq (E13 + E31)
    got = eval_Q_rep(P31, (3, 3)).mat
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = want[1, 1] = -1.7627796855923026
    want[2, 2] = -1.2026056852868607 - 1.2888490158481007j
    want[0, 2] = want[2, 0] = 0.7311458297268959 + 0.31777879271238646j
    assert np.max(np.abs(got - want)) < 1e-14


def test_single_site_affine_corner_spectral_dependence():
    # the two corners carry e^{+-2 lam}, everything else is lam-independent
    lam = 0.23 - 0.11j
    at0 = eval_Q_rep(P31, (3, 3)).mat
    at = eval_Q_rep(P31, (3, 3), lam).mat
    assert abs(at[0, 2] / at0[0, 2] - cmath.exp(2 * lam)) < 1e-13
    assert abs(at[2, 0] / at0[2, 0] - cmath.exp(-2 * lam)) < 1e-13
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = mask[2, 0] = False
    assert np.max(np.abs((at - at0)[mask])) < 1e-14


def test_single_site_transpose_identity():
    for i in (2, 3):
        qi1 = eval_Q_rep(P31, (i, 1)).mat
        q1i = eval_Q_rep(P31, (1, i)).mat
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
    tnn = t_element_rep(p, TElementLabel(TElementFamily.t, 3, 3), L=2).mat
    assert rel_residual(build_affine_charge(Tower(p, 2)).mat, -c2 * tnn @ tnn) < 1e-12


def test_recursion_matches_products():
    charges = build_boundary_charges(P32, 2)
    for pos in boundary_entry_indices(3):
        built = coproduct_charges(P32, 2, pos)
        assert rel_residual(built.mat, charges.entries[pos].mat) < 1e-12
    built = coproduct_charges(P32, 2, (3, 3))
    assert rel_residual(built.mat, charges.affine.mat) < 1e-12


def test_recursion_prime_is_cycled_recursion():
    # every position; n = 4 reaches the rows and columns i >= 3, and the
    # interior and (1, n) / (n, 1) entries that go through _t_prime_rep
    for n in (3, 4):
        p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=3)
        shift = cyclic_shift(n, 3)
        inv = Operator(shift.mat.conj().T, shift.dims)
        for pos in boundary_entry_indices(n) + ((n, n),):
            plain = coproduct_charges(p, 3, pos)
            primed = coproduct_charges(p, 3, pos, "delta_prime")
            cycled = shift @ plain @ inv
            assert rel_residual(primed.mat, cycled.mat) < 1e-12, (n, pos)


def test_t_prime_rep_is_cycled_tower():
    p = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=3)
    shift = cyclic_shift(3, 3)
    inv = Operator(shift.mat.conj().T, shift.dims)
    labels = [TElementLabel(TElementFamily.t, i, j) for i in (1, 2, 3) for j in (1, 2, 3)
              if i <= j]
    labels += [TElementLabel(TElementFamily.t_hat, i, j) for i in (1, 2, 3)
               for j in (1, 2, 3) if i >= j]
    labels += [TElementLabel(TElementFamily.t0_n1, 3, 1),
               TElementLabel(TElementFamily.t0hat_1n, 1, 3)]
    first, rest = Tower(p, 1), Tower(p, 2)
    for lab in labels:
        cycled = shift @ t_element_rep(p, lab, L=3) @ inv
        assert rel_residual(_t_prime_rep(first, rest, lab), cycled.mat) < 1e-12, lab


def test_charges_build_each_coproduct_once(monkeypatch):
    # n = 4 on three sites needs twelve distinct generator coproducts: the
    # four half Cartans, e_i and f_i for i < n, and e_n, f_n for the corners
    p = ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=3)
    calls = []
    inner = quantum_algebra.coproduct_rep

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return inner(*args, **kwargs)

    monkeypatch.setattr(quantum_algebra, "coproduct_rep", counted)
    build_boundary_charges(p, 3)
    assert len(calls) == 12
    assert len(set(calls)) == 12
    # the primed recursion needs sixteen distinct (label, sites, lambda)
    # images, on one and two sites, across all its levels
    calls.clear()
    coproduct_charges(p, 3, (1, 1), "delta_prime")
    assert len(calls) == 16
    assert len(set(calls)) == 16


def test_block_closed_forms_match_generic_coproduct():
    lam = 0.27 - 0.19j
    charges = build_boundary_charges(P32, 2)
    for pos in ((3, 3), (1, 1), (1, 2), (2, 1)):
        closed = block_closed_rep(P32, pos, 2, lam, charges=charges)
        generic = coproduct_charges(P32, 3, pos, "delta_prime", first_site_lambda=lam)
        assert rel_residual(generic.mat, closed.mat) < 1e-12


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
    out = exchange_relation_residuals(spec, 0.31 - 0.13j, charges)
    for name in ("com4", "com5", "com6", "com7", "com8", "com9", "com11"):
        assert out[name] < 1e-12, name
    # the strictly-interior ladder relations need n >= 4
    assert "com2" not in out and "com3" not in out


def test_exchange_relations_nonvacuous_n4():
    p = ModelParams(n=4, mu=0.37, m=1.1 + 0.15j, zeta=0.52, sites=2)
    spec = ChainSpec(params=p)
    charges = build_boundary_charges(p, 2)
    out = exchange_relation_residuals(spec, 0.21 + 0.17j, charges)
    for name in ("com2", "com3", "com4", "com4b", "com8", "com11"):
        assert out[name] < 1e-12, name


@pytest.mark.parametrize("mu", [3.5, -3.5])
def test_exchange_relations_take_the_towers_half_power_of_q(mu):
    # beyond |Re mu| = pi the principal square root of q = e^{i mu} is
    # -e^{i mu / 2}; the relations hold with the tower's branch e^{i mu / 2}
    p = ModelParams(n=4, mu=mu, m=0.9 + 0.2j, zeta=0.6, sites=2)
    out = exchange_relation_residuals(ChainSpec(params=p), 0.21 + 0.17j,
                                      build_boundary_charges(p, 2))
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
    assert len(calls) == 46


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

"""Evaluation representations, coproducts, dressed matrix elements, Lax.

Frozen values are derived through independent one-liners (real trig for q
powers, explicit kron sums written out by hand) rather than the module's own
builders.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import ModelParams, quantum_algebra
from artifact.params import DegenerateParameters
from artifact.quantum_algebra import (
    GeneratorKind,
    GeneratorLabel,
    LaxFamily,
    TElementFamily,
    TElementLabel,
    Tower,
    block_closed_rep,
    coproduct_rep,
    coproduct_stack,
    eval_generator,
    intertwine_residual,
    t_coproduct_sum,
    verify_algebra_suite,
)
from artifact.tensor_core import (
    Operator,
    basis_matrix,
    densify,
    frob,
    prop_check,
    rel_residual,
)
from artifact.yang_baxter import Gauge, build_r

P3 = ModelParams(n=3, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)


def test_eval_generator_images():
    lam = 0.2 - 0.3j
    q = cmath.exp(0.41j)
    e1 = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 1), lam)
    assert np.array_equal(e1, basis_matrix(3, 1, 2))
    f2 = eval_generator(P3, GeneratorLabel(GeneratorKind.F, 2), lam)
    assert np.array_equal(f2, basis_matrix(3, 3, 2))
    e3 = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 3), lam)
    assert np.allclose(e3, cmath.exp(-2 * lam) * basis_matrix(3, 3, 1))
    f3 = eval_generator(P3, GeneratorLabel(GeneratorKind.F, 3), lam)
    assert np.allclose(f3, cmath.exp(2 * lam) * basis_matrix(3, 1, 3))
    h1 = eval_generator(P3, GeneratorLabel(GeneratorKind.HCARTAN, 1), lam)
    assert np.allclose(h1, np.diag([q**0.5, q**-0.5, 1.0]))
    h3 = eval_generator(P3, GeneratorLabel(GeneratorKind.HCARTAN, 3), lam)
    assert np.allclose(h3, np.diag([q**-0.5, 1.0, q**0.5]))
    k2i = eval_generator(
        P3, GeneratorLabel(GeneratorKind.KCARTAN, 2, inverse=True), lam
    )
    assert np.allclose(k2i, np.diag([1.0, q**-0.5, 1.0]))


def test_eval_generator_principal_phases():
    lam = 0.37
    e1p = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 1), lam, Gauge.principal)
    assert np.allclose(e1p, math.exp(-2 * 0.37 / 3) * basis_matrix(3, 1, 2))
    e3p = eval_generator(P3, GeneratorLabel(GeneratorKind.E, 3), lam, Gauge.principal)
    assert np.allclose(e3p, math.exp(-2 * 0.37 / 3) * basis_matrix(3, 3, 1))
    # pi_0 equals the principal representation at lambda = 0
    for lab in (GeneratorLabel(GeneratorKind.E, 3), GeneratorLabel(GeneratorKind.F, 1)):
        assert np.allclose(
            eval_generator(P3, lab, 0.0),
            eval_generator(P3, lab, 0.0, Gauge.principal),
        )


def test_chevalley_ef_relation():
    q = cmath.exp(0.41j)
    for i in (1, 2):
        e = eval_generator(P3, GeneratorLabel(GeneratorKind.E, i))
        f = eval_generator(P3, GeneratorLabel(GeneratorKind.F, i))
        h = eval_generator(P3, GeneratorLabel(GeneratorKind.HCARTAN, i))
        lhs = e @ f - f @ e
        rhs = (h @ h - np.linalg.inv(h @ h)) / (q - 1 / q)
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_coproduct_two_site_explicit():
    # Delta(e_1) = q^{-h_1/2} (x) e_1 + e_1 (x) q^{h_1/2}, written out by hand
    p = ModelParams(n=2, mu=0.3)
    q = cmath.exp(0.3j)
    d = coproduct_rep(p, GeneratorLabel(GeneratorKind.E, 1), 2)
    hm = np.diag([q**-0.5, q**0.5])
    hp = np.diag([q**0.5, q**-0.5])
    e = basis_matrix(2, 1, 2)
    assert np.allclose(d, np.kron(hm, e) + np.kron(e, hp), atol=1e-14)
    dp = coproduct_rep(p, GeneratorLabel(GeneratorKind.E, 1), 2, "delta_prime")
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
    got = coproduct_rep(p, GeneratorLabel(GeneratorKind.F, 1), 3, "delta_prime")
    assert np.allclose(got, want, atol=1e-14)


def _kron_word_coproduct(p, label, L, variant, lam, gauge):
    # the L-fold coproduct as a sum of kron chains, one full word at a time
    def site(lab, s):
        return eval_generator(p, lab, lam if s == 0 else 0.0, gauge)

    if label.kind in (GeneratorKind.KCARTAN, GeneratorKind.HCARTAN):
        out = site(label, 0)
        for s in range(1, L):
            out = np.kron(out, site(label, s))
        return out
    hp = GeneratorLabel(GeneratorKind.HCARTAN, label.index)
    hm = GeneratorLabel(GeneratorKind.HCARTAN, label.index, inverse=True)
    total = 0
    for l in range(L):
        if variant == "delta":
            word = [hm] * l + [label] + [hp] * (L - 1 - l)
        elif l == 0:
            word = [label] + [hm] * (L - 1)
        else:
            word = [hp] + [hm] * (l - 1) + [label] + [hp] * (L - 1 - l)
        out = site(word[0], 0)
        for s in range(1, L):
            out = np.kron(out, site(word[s], s))
        total = total + out
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coproduct_rep_matches_kron_words(n):
    # every label in a shuffled order, read as one stack: entry k is label
    # k's kron-word coproduct and, bit for bit, its one-label coproduct_rep
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6)
    lam = 0.31 - 0.17j
    labels = [GeneratorLabel(kind, index, inverse) for kind in GeneratorKind
              for index in range(1, n + 1) for inverse in (False, True)]
    labels = [labels[k] for k in np.random.default_rng(n).permutation(len(labels))]
    for L in (1, 2, 3, 4):
        for variant in ("delta", "delta_prime"):
            for gauge in Gauge:
                stack = coproduct_stack(p, labels, L, variant, lam, gauge)
                assert stack.shape == (len(labels), n**L, n**L)
                for label, got in zip(labels, stack):
                    key = (label, L, variant, gauge)
                    assert np.array_equal(got, coproduct_rep(p, label, L, variant, lam, gauge)), key
                    want = _kron_word_coproduct(p, label, L, variant, lam, gauge)
                    assert rel_residual(got, want) <= 1e-15, key
    assert coproduct_stack(p, [], 2).shape == (0, n * n, n * n)
    with pytest.raises(ValueError):
        coproduct_stack(p, [GeneratorLabel(GeneratorKind.E, n + 1)], 2)


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


def test_tower_images_construct_no_operator(monkeypatch):
    # every image on (C^n)^L is a plain array: building a whole three-site
    # tower wraps nothing in an Operator
    made = []
    inner = Operator.__post_init__

    def counted(self):
        made.append(self.dims)
        inner(self)

    monkeypatch.setattr(Operator, "__post_init__", counted)
    tower = Tower(P3, 3, 0.23)
    idx = (1, 2, 3)
    for kind in GeneratorKind:
        for i in idx:
            for inverse in (False, True):
                tower.gen(kind, i, inverse)
    for i in idx:
        for j in idx:
            if i != j:
                tower.root(i, j, False)
                tower.root(i, j, True)
    upper = (TElementFamily.t, TElementFamily.t_hat_minus)
    lower = (TElementFamily.t_minus, TElementFamily.t_hat)
    labels = [TElementLabel(fam, i, j) for fam in upper for i in idx for j in idx if i <= j]
    labels += [TElementLabel(fam, i, j) for fam in lower for i in idx for j in idx if i >= j]
    labels += [TElementLabel(TElementFamily.t0_n1, 3, 1),
               TElementLabel(TElementFamily.t0hat_1n, 1, 3),
               TElementLabel(TElementFamily.t0_minus_1n, 1, 3),
               TElementLabel(TElementFamily.t0hat_minus_n1, 3, 1)]
    for lab in labels:
        assert isinstance(tower.t_image(lab), np.ndarray)
    assert made == []


def test_tower_entries_equal_one_shot_images():
    tower = Tower(P3, 2, 0.23)
    labels = [TElementLabel(TElementFamily.t, i, j) for i in (1, 2, 3)
              for j in (1, 2, 3) if i <= j]
    labels += [TElementLabel(TElementFamily.t_hat, i, j) for i in (1, 2, 3)
               for j in (1, 2, 3) if i >= j]
    labels += [TElementLabel(TElementFamily.t0_n1, 3, 1),
               TElementLabel(TElementFamily.t0hat_1n, 1, 3)]
    for lab in labels:
        # a fresh tower per label: the shared tower's reads must not depend
        # on what it read before
        one_shot = Tower(P3, 2, 0.23).t_image(lab)
        assert np.array_equal(tower.t_image(lab), one_shot), lab
        if lab.family == TElementFamily.t:
            assert tower.t(lab.i, lab.j) is tower.t_image(lab)
        if lab.family == TElementFamily.t_hat:
            assert tower.h(lab.i, lab.j) is tower.t_image(lab)


def test_tower_dressing_equals_dense_cartan_products():
    # every entry is pref * (K_a K_b) @ core, with the Cartan halves and the
    # cores read from the same tower and multiplied densely here
    p = ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6)
    n = p.n
    tower = Tower(p, 3, 0.23 - 0.11j)
    q = cmath.exp(0.41j)
    plus, minus = p.w / cmath.sqrt(q), -p.w * cmath.sqrt(q)

    def k(a, inverse):
        return tower.gen(GeneratorKind.KCARTAN, a, inverse)

    def check(fam, i, j, want):
        assert rel_residual(tower.t_image(TElementLabel(fam, i, j)), want) <= 1e-14, (fam, i, j)

    for i in range(1, n + 1):
        for fam, inverse in ((TElementFamily.t, False), (TElementFamily.t_hat, False),
                             (TElementFamily.t_minus, True), (TElementFamily.t_hat_minus, True)):
            check(fam, i, i, k(i, inverse) @ k(i, inverse))
        for j in range(i + 1, n + 1):
            check(TElementFamily.t, i, j, plus * k(i, False) @ k(j, False) @ tower.root(j, i, False))
            check(TElementFamily.t_minus, j, i, minus * k(j, True) @ k(i, True) @ tower.root(i, j, False))
            check(TElementFamily.t_hat, j, i, plus * k(j, False) @ k(i, False) @ tower.root(i, j, True))
            check(TElementFamily.t_hat_minus, i, j, minus * k(i, True) @ k(j, True) @ tower.root(j, i, True))
    e_n, f_n = tower.gen(GeneratorKind.E, n), tower.gen(GeneratorKind.F, n)
    check(TElementFamily.t0_n1, n, 1, plus * k(1, False) @ k(n, False) @ f_n)
    check(TElementFamily.t0hat_1n, 1, n, plus * k(1, False) @ k(n, False) @ e_n)
    check(TElementFamily.t0_minus_1n, 1, n, minus * k(1, True) @ k(n, True) @ e_n)
    check(TElementFamily.t0hat_minus_n1, n, 1, minus * k(1, True) @ k(n, True) @ f_n)


def _every_read(tower):
    """(name, value) of every public read of ``tower``: generator coproducts,
    root elements, and the t, t-hat, minus and affine-corner entries."""
    n, T, G = tower.params.n, TElementFamily, GeneratorKind
    idx = range(1, n + 1)
    reads = [(("gen", kind, i, inverse), tower.gen(kind, i, inverse))
             for kind in G for i in idx
             for inverse in ((False, True) if kind in (G.KCARTAN, G.HCARTAN) else (False,))]
    reads += [(("root", i, j, hat), tower.root(i, j, hat))
              for i in idx for j in idx if i != j for hat in (False, True)]
    labels = [TElementLabel(fam, i, j) for fam in (T.t, T.t_hat_minus)
              for i in idx for j in idx if i <= j]
    labels += [TElementLabel(fam, i, j) for fam in (T.t_minus, T.t_hat)
               for i in idx for j in idx if i >= j]
    labels += [TElementLabel(T.t0_n1, n, 1), TElementLabel(T.t0hat_1n, 1, n),
               TElementLabel(T.t0_minus_1n, 1, n), TElementLabel(T.t0hat_minus_n1, n, 1)]
    reads += [(lab, tower.t_image(lab)) for lab in labels]
    reads += [(("t", i, j), tower.t(i, j)) for i in idx for j in idx if i <= j]
    reads += [(("h", i, j), tower.h(i, j)) for i in idx for j in idx if i >= j]
    return reads


@pytest.mark.parametrize("n,L", [(3, 3), (3, 4), (2, 7), (2, 8), (3, 5), (4, 4)])
def test_tower_storage_agrees_with_a_dense_tower(n, L, monkeypatch):
    # sizes on both sides of CSR_ABOVE, chain-reach's three among them: every
    # public read is a dense read-only array, the same one on every read, and
    # equals the read of a tower forced dense; so does a product sum over
    # mixed t, t-hat and corner keys
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=L)
    tower = Tower(p, L, 0.23 - 0.11j)
    assert tower.sparse == (n**L > quantum_algebra.CSR_ABOVE)
    monkeypatch.setattr(quantum_algebra, "CSR_ABOVE", math.inf)
    dense = Tower(p, L, 0.23 - 0.11j)
    assert not dense.sparse
    got = _every_read(tower)
    for (key, a), (_, b), (_, again) in zip(got, _every_read(dense), _every_read(tower)):
        assert type(a) is np.ndarray and not a.flags.writeable, key
        assert again is a, key
        assert a.shape == (n**L, n**L), key
        assert rel_residual(a, b) <= 1e-14, key
    T = TElementFamily
    terms = [(0.7 - 0.2j, TElementLabel(T.t, 1, n), TElementLabel(T.t_hat, n, 1)),
             (-1j, TElementLabel(T.t, n, n), TElementLabel(T.t0hat_1n, 1, n)),
             (1.3, TElementLabel(T.t0_n1, n, 1), TElementLabel(T.t_hat, n - 1, 1))]
    got, want = tower.product_sum(terms), dense.product_sum(terms)
    assert type(got) is np.ndarray and got.dtype == np.complex128
    assert got.flags.c_contiguous and got.shape == (n**L, n**L)
    assert rel_residual(got, want) <= 1e-14


def _generator_labels(n):
    """e_i and f_i for i = 1..n (the affine pair included) and both half
    Cartans, each with its inverse."""
    G = GeneratorKind
    labels = [GeneratorLabel(kind, i) for kind in (G.E, G.F) for i in range(1, n + 1)]
    labels += [GeneratorLabel(kind, i, inverse) for kind in (G.KCARTAN, G.HCARTAN)
               for i in range(1, n + 1) for inverse in (False, True)]
    return labels


@pytest.mark.parametrize("n,L", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_csr_generator_images_equal_coproduct_rep(n, L):
    # a sparse tower writes its e/f words from index arithmetic and its
    # Cartans from the kron of the site diagonals, as entry lists: each
    # (row, col) once and row-major, one entry per nonzero of coproduct_rep's
    # dense band writes, with the affine e_n, f_n at a first-site lambda.
    # Neither side sums anything, so the values agree bit for bit. The two
    # share their words, so the kron chains of whole words are the oracle
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=L)
    lam = 0.23 - 0.11j
    tower = Tower(p, L, lam)
    assert tower.sparse
    for label in _generator_labels(n):
        rows, cols, vals = tower._stored(label)
        keys = rows * n**L + cols
        assert np.all(np.diff(keys) > 0), label
        want = coproduct_rep(p, label, L, "delta", lam)
        assert keys.size == np.count_nonzero(want), label
        assert np.array_equal(densify(n**L, (rows, cols, vals)), want), label
        oracle = _kron_word_coproduct(p, label, L, "delta", lam, Gauge.homogeneous)
        assert rel_residual(densify(n**L, (rows, cols, vals)), oracle) <= 1e-15, label


def test_csr_generator_images_build_no_dense_array():
    # at (4, 5) one dense image is a 1024-sided complex array of 16.8 MB;
    # the 4n generator images of a sparse tower together stay below it
    p = ModelParams(n=4, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=5)
    tower = Tower(p, 5, 0.23 - 0.11j)
    G = GeneratorKind
    labels = [GeneratorLabel(kind, i, inverse) for i in range(1, 5)
              for kind, inverse in ((G.E, False), (G.F, False),
                                    (G.KCARTAN, False), (G.KCARTAN, True))]
    tracemalloc.start()
    try:
        for label in labels:
            tower._stored(label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tower.sparse and len(labels) == 16
    assert peak < 1024**2 * 16, peak


def test_t_elements_at_pi0():
    w = 2j * math.sin(0.41)
    tower = Tower(P3)
    t13 = tower.t_image(TElementLabel(TElementFamily.t, 1, 3))
    assert np.allclose(t13, w * basis_matrix(3, 3, 1), atol=1e-14)
    that31 = tower.t_image(TElementLabel(TElementFamily.t_hat, 3, 1))
    assert np.allclose(that31, w * basis_matrix(3, 1, 3), atol=1e-14)
    q = cmath.exp(0.41j)
    t22 = tower.t_image(TElementLabel(TElementFamily.t, 2, 2))
    assert np.allclose(t22, np.diag([1, q, 1]), atol=1e-14)
    t22m = tower.t_image(TElementLabel(TElementFamily.t_minus, 2, 2))
    assert np.allclose(t22m, np.diag([1, 1 / q, 1]), atol=1e-14)
    # affine corner at spectral lambda
    lam = 0.4 + 0.1j
    t0 = Tower(P3, 1, lam).t_image(TElementLabel(TElementFamily.t0_n1, 3, 1))
    assert np.allclose(t0, w * cmath.exp(2 * lam) * basis_matrix(3, 1, 3), atol=1e-13)


def test_t_element_index_validation():
    tower = Tower(P3)
    with pytest.raises(ValueError):
        tower.t_image(TElementLabel(TElementFamily.t, 3, 1))
    with pytest.raises(ValueError):
        tower.t_image(TElementLabel(TElementFamily.t_hat, 1, 3))
    with pytest.raises(ValueError):
        tower.t_image(TElementLabel(TElementFamily.t0_n1, 1, 3))


def test_factorized_coproduct_matches_homomorphism():
    # hand-built sum for Delta(t_13) at n=3: k runs over 1..3
    lhs = Tower(P3, 2).t_image(TElementLabel(TElementFamily.t, 1, 3))
    acc = np.zeros((9, 9), dtype=complex)
    one = Tower(P3)
    for k in (1, 2, 3):
        acc += np.kron(one.t(k, 3), one.t(1, k))
    assert rel_residual(lhs, acc) < 1e-13
    # and the module's own sum helper agrees
    assert rel_residual(
        lhs, t_coproduct_sum(Tower(P3), Tower(P3), TElementLabel(TElementFamily.t, 1, 3))
    ) < 1e-13


def test_affine_coproduct_sum():
    lam = 0.27
    lab = TElementLabel(TElementFamily.t0hat_1n, 1, 3)
    direct = Tower(P3, 2, lam).t_image(lab)
    via_sum = t_coproduct_sum(Tower(P3, 1, lam), Tower(P3), lab)
    assert rel_residual(direct, via_sum) < 1e-13


def test_lax_is_twice_r():
    for n in (2, 3, 4):
        p = ModelParams(n=n, mu=0.37, m=1.1, zeta=0.8)
        for lam in (0.3, -0.5 + 0.25j):
            for gauge in (Gauge.homogeneous, Gauge.principal):
                assert rel_residual(LaxFamily(p).lax(lam, gauge),
                                    2 * build_r(p, lam, gauge)) < 1e-13


def test_lax_structure_at_zero():
    # L(0) = L+ - L-; off-diagonal entries are the w-scaled matrix units and
    # the diagonal collapses to 2 sinh(i mu) identity-like blocks
    p = ModelParams(n=2, mu=0.3)
    l0 = LaxFamily(p).lax(0.0).mat
    w = 2j * math.sin(0.3)
    q = cmath.exp(0.3j)
    # aux (1,2) block carries t_12 -> w e_21; aux (2,1) carries -t-minus_21 -> +w e_12
    assert np.allclose(l0[0:2, 2:4], w * basis_matrix(2, 2, 1), atol=1e-14)
    assert np.allclose(l0[2:4, 0:2], w * basis_matrix(2, 1, 2), atol=1e-14)
    assert np.allclose(l0[0:2, 0:2], np.diag([q - 1 / q, 0]), atol=1e-14)
    assert np.allclose(l0[2:4, 2:4], np.diag([0, q - 1 / q]), atol=1e-14)


@pytest.mark.parametrize("gauge", list(Gauge))
def test_lax_from_one_shared_tower_equals_a_fresh_build(gauge):
    # the shared tower's images are read once, at the first lambda; an image
    # that depended on lambda would show at the later ones
    for n in (2, 3, 4):
        p = ModelParams(n=n, mu=0.37 + 0.02j, m=1.1, zeta=0.8)
        shared = LaxFamily(p)
        for lam in (0.3 - 0.1j, -0.5 + 0.25j, 0.8j):
            fresh = LaxFamily(p)
            assert np.array_equal(shared.lax(lam, gauge).mat, fresh.lax(lam, gauge).mat)
            assert np.array_equal(shared.lax_hat(lam, gauge).mat,
                                  fresh.lax_hat(lam, gauge).mat)


def test_lax_hat_inverse_and_degenerate():
    lam = 0.31 - 0.22j
    laxes = LaxFamily(P3)
    hat = laxes.lax_hat(lam)
    prod = hat @ laxes.lax(-lam)
    assert rel_residual(prod.mat, np.eye(9)) < 1e-13
    # L(0) for this parameter set is 2 sinh(i mu) P, perfectly regular;
    # a genuinely singular point sits where sinh(lam + i mu) vanishes on the
    # diagonal subspace: lam = -i mu kills the symmetric sector
    with pytest.raises(DegenerateParameters):
        laxes.lax_hat(0.41j)  # L(-lam) at lam = i mu is singular


def test_block_closed_chevalley_blocks():
    lam = 0.23 + 0.19j
    # non-affine raising: diagonal blocks dressed at slots i, i+1
    got = block_closed_rep(Tower(P3, 2), "chevalley_e", lam, index=1)
    want = coproduct_rep(P3, GeneratorLabel(GeneratorKind.E, 1), 3,
                         "delta_prime", lam)
    assert rel_residual(got, want) < 1e-13
    # affine: corner block carries e^{-2 lambda}
    got = block_closed_rep(Tower(P3, 2), "chevalley_e", lam, index=3)
    want = coproduct_rep(P3, GeneratorLabel(GeneratorKind.E, 3), 3,
                         "delta_prime", lam)
    assert rel_residual(got, want) < 1e-13
    n = 3
    dq = 9
    corner = got[(n - 1) * dq:, :dq]
    hinv = coproduct_rep(P3, GeneratorLabel(GeneratorKind.HCARTAN, 3, True), 2)
    assert np.allclose(corner, cmath.exp(-2 * lam) * hinv, atol=1e-13)


def test_block_closed_cartan_and_errors():
    lam = 0.4
    got = block_closed_rep(Tower(P3), "cartan_eps", lam, index=2)
    half = coproduct_rep(P3, GeneratorLabel(GeneratorKind.KCARTAN, 2), 2,
                         "delta_prime", lam)
    assert rel_residual(got, half @ half) < 1e-13
    with pytest.raises(ValueError):
        block_closed_rep(Tower(P3), "chevalley_e", lam)  # missing index
    with pytest.raises(ValueError):
        block_closed_rep(Tower(P3), (1, 1), lam)  # a charge position, not a generator form
    with pytest.raises(ValueError):
        block_closed_rep(Tower(P3), "nonsense", lam)


def test_intertwining_over_labels_is_the_worst_label():
    # the stacked residual of a label list is the worst of its one-label
    # residuals, each with the same bits, in either order of the primed side
    lam = 0.33 - 0.12j
    labels = [GeneratorLabel(kind, i) for kind in GeneratorKind for i in (1, 2, 3)]
    r = build_r(P3, lam, Gauge.principal)
    worst = {}
    for primed_left in (True, False):
        worst[primed_left] = intertwine_residual(P3, labels, r, lam, Gauge.principal, primed_left)
        assert worst[primed_left] == max(
            intertwine_residual(P3, [lab], r, lam, Gauge.principal, primed_left)
            for lab in labels)
    assert worst[True] < 1e-13 < 1e-3 < worst[False]  # R intertwines Delta with Delta'
    with pytest.raises(ValueError):
        intertwine_residual(P3, [], r, lam, Gauge.principal)


def test_plan_caches_do_not_grow_with_the_ops(tmp_path):
    # the coproduct writer's index plans are keyed on (n, L) alone and the
    # embedding plans on shapes alone: the first of a hundred default verify
    # ops makes all they need, the other 99 none
    from artifact import tensor_core
    from artifact.cli import main

    caches = (quantum_algebra._word_plan, tensor_core._plan)
    out = str(tmp_path / "report.json")
    assert main(["verify", "--suite", "all", "--seed", "0", "--out", out]) == 0
    sizes = [cache.cache_info().currsize for cache in caches]
    assert min(sizes) > 0
    for seed in range(1, 100):
        assert main(["verify", "--suite", "all", "--seed", str(seed), "--out", out]) == 0
    assert [cache.cache_info().currsize for cache in caches] == sizes


def test_intertwining_cross_gauge_fails():
    lam = 0.33 - 0.12j
    lab = GeneratorLabel(GeneratorKind.E, 3)
    ok = intertwine_residual(P3, [lab], build_r(P3, lam, Gauge.principal), lam, Gauge.principal)
    assert ok < 1e-13
    mismatched = intertwine_residual(
        P3, [lab], build_r(P3, lam, Gauge.homogeneous), lam, Gauge.principal
    )
    assert mismatched > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_suite(n):
    p = ModelParams(n=n, mu=0.41, m=0.9 + 0.2j, zeta=0.6, sites=2)
    rep = verify_algebra_suite(p, samples=3, tol=1e-10, seed=7)
    bad = [c.id for c in rep.failing()]
    assert rep.passed, f"failing: {bad}"

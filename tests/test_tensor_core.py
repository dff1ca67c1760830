import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from artifact.tensor_core import (
    Operator,
    apply_right,
    aux_blocks,
    basis_matrix,
    coalesce,
    comm_residual,
    commutator,
    densify,
    embed_at,
    embed_entries,
    identity_op,
    kron,
    partial_trace_first,
    partial_transpose,
    permutation_swap,
    product_terms,
    prop_check,
    site_step,
    site_step_derivative,
    sym_residual,
    weight_preserving,
    worst_of,
)


def op(mat, dims):
    return Operator(np.asarray(mat, dtype=complex), dims)


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)), (2,))
    with pytest.raises(ValueError):
        Operator(np.zeros((4, 4)), (2, 3))
    with pytest.raises(ValueError):
        Operator(np.zeros((4, 4)), ())


def test_operator_keeps_a_complex_array_and_converts_the_rest():
    mat = np.eye(4, dtype=np.complex128)
    kept = Operator(mat, (2, 2))
    assert kept.mat is mat and kept.dims == (2, 2)
    converted = Operator(np.eye(4), [np.int64(2), 2.0])
    assert converted.mat.dtype == np.complex128 and np.array_equal(converted.mat, mat)
    assert converted.dims == (2, 2) and all(type(d) is int for d in converted.dims)
    with pytest.raises(ValueError):
        Operator(mat, (4, 0))


def test_kron_identity_and_diag():
    i2 = identity_op([2])
    assert_allclose(kron(i2, i2).mat, np.eye(4))
    d = op(np.diag([1.0, 2.0]), (2,))
    assert_allclose(kron(d, i2).mat, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_kron_matrix_units():
    # e12 (x) e21 has its single 1 at row |12>, column |21>; with the first
    # factor slow these are indices 1 and 2.
    a = op(basis_matrix(2, 1, 2), (2,))
    b = op(basis_matrix(2, 2, 1), (2,))
    k = kron(a, b).mat
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 1.0
    assert_allclose(k, expected)


def test_kron_associative():
    rng = np.random.default_rng(11)
    a = op(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), (2,))
    b = op(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), (3,))
    c = op(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), (2,))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert_allclose(left.mat, right.mat)
    assert left.dims == (2, 3, 2)


def test_embed_single_site():
    x = op(basis_matrix(2, 1, 1), (2,))
    assert_allclose(embed_at(x, [1], [2]).mat, x.mat)
    # identity on slot 1, e11 on slot 2 of C^2 (x) C^2
    assert_allclose(embed_at(x, [2], [2, 2]).mat, np.diag([1.0, 0.0, 1.0, 0.0]))


def test_embed_adjacent_pair_matches_kron():
    rng = np.random.default_rng(5)
    u = op(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), (2, 2))
    i2 = np.eye(2)
    assert_allclose(embed_at(u, [1, 2], [2, 2, 2]).mat, np.kron(u.mat, i2))
    assert_allclose(embed_at(u, [2, 3], [2, 2, 2]).mat, np.kron(i2, u.mat))


def test_embed_nonadjacent_and_permuted():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ab = op(np.kron(a, b), (2, 2))
    # [1,3] embedding equals a (x) I (x) b
    direct = np.kron(np.kron(a, np.eye(2)), b)
    assert_allclose(embed_at(ab, [1, 3], [2, 2, 2]).mat, direct)
    # permuted slots: factor 1 of ab on slot 3, factor 2 on slot 1
    swapped = np.kron(np.kron(b, np.eye(2)), a)
    assert_allclose(embed_at(ab, [3, 1], [2, 2, 2]).mat, swapped)


def test_embed_disjoint_commute():
    rng = np.random.default_rng(3)
    x = op(rng.normal(size=(3, 3)), (3,))
    y = op(rng.normal(size=(3, 3)), (3,))
    space = [3, 3, 3]
    cx = embed_at(x, [1], space)
    cy = embed_at(y, [3], space)
    assert np.linalg.norm(commutator(cx, cy).mat) < 1e-13


def test_embed_errors():
    x = op(np.eye(2), (2,))
    with pytest.raises(ValueError):
        embed_at(x, [3], [2, 2])
    with pytest.raises(ValueError):
        embed_at(x, [1], [3, 2])
    u = op(np.eye(4), (2, 2))
    with pytest.raises(ValueError):
        embed_at(u, [1, 1], [2, 2])
    with pytest.raises(ValueError):  # more slots than factors
        embed_at(x, [1, 2], [2, 2])


@st.composite
def _local_operator_on_space(draw):
    """(mat, op, slots, space): a random dense matrix on 2-4 factors of
    dimension 1-3, and a random operator on an ordered list of 1-2 of its
    slots, permuted and non-adjacent ones included."""
    space = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    order = draw(st.permutations(range(1, len(space) + 1)))
    slots = order[: draw(st.integers(1, 2))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = math.prod(space)
    dims = [space[s - 1] for s in slots]
    side = math.prod(dims)
    mat = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    local = rng.uniform(-1, 1, (side, side)) + 1j * rng.uniform(-1, 1, (side, side))
    return mat, op(local, dims), slots, space


@settings(max_examples=200, deadline=None)
@given(_local_operator_on_space())
def test_apply_right_equals_product_with_embedding(case):
    mat, local, slots, space = case
    before = mat.copy()
    got = apply_right(mat, local, slots, space)
    d = math.prod(space)
    assert got.shape == (d, d)
    assert got.flags.c_contiguous
    assert_allclose(got, mat @ embed_at(local, slots, space).mat, rtol=0, atol=1e-13)
    assert np.array_equal(mat, before)


def _sandwich_case(d0, rest, e, seed):
    """(y, a, v, w, space): a random y on a first factor of dimension d0
    followed by the factors ``rest`` (none: y on the first factor alone), a on
    the first factor, and v, w on (first factor, a new last factor of e)."""
    rng = np.random.default_rng(seed)

    def rand(side):
        return rng.uniform(-1, 1, (side, side)) + 1j * rng.uniform(-1, 1, (side, side))

    y = rand(d0 * math.prod(rest))
    return (y, op(rand(d0), (d0,)), op(rand(d0 * e), (d0, e)), op(rand(d0 * e), (d0, e)),
            (d0, *rest, e))


@st.composite
def _site_sandwich(draw):
    """``_sandwich_case`` with d0 and e of 1-3 and 0-2 more factors of 1-3."""
    return _sandwich_case(draw(st.integers(1, 3)), draw(st.lists(st.integers(1, 3), max_size=2)),
                          draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


def _embedded_sandwich(y, v, w, space):
    """v_{0k} (y (x) 1_k) w_{0k} as a product of embed_at embeddings."""
    last = len(space)
    big = embed_at(op(y, space[:-1]), list(range(1, last)), space)
    return embed_at(v, [1, last], space) @ big @ embed_at(w, [1, last], space)


@settings(max_examples=200, deadline=None)
@given(_site_sandwich())
def test_grow_site_equals_product_with_embeddings(case):
    y, _, v, w, space = case
    before = y.copy()
    got = site_step(y, v, w)
    d = math.prod(space)
    assert got.shape == (d, d)
    assert got.flags.c_contiguous
    assert_allclose(got, _embedded_sandwich(y, v, w, space).mat, rtol=0, atol=1e-12)
    assert np.array_equal(y, before)


@settings(max_examples=200, deadline=None)
@given(_site_sandwich())
def test_grow_site_derivative_is_the_three_term_product_rule(case):
    # any matrices of the right sides stand in for y', v' and w'
    y, _, v, w, _ = case
    dy, dv, dw = y @ y, op(v.mat.T, v.dims), op(w.mat.conj(), w.dims)
    before = y.copy(), dy.copy()
    derivative = site_step_derivative(y, dy, (v, dv), (w, dw))
    want = site_step(y, dv, w) + site_step(dy, v, w) + site_step(y, v, dw)
    assert derivative.flags.c_contiguous
    assert_allclose(derivative, want, rtol=0, atol=1e-12)
    assert np.array_equal(y, before[0]) and np.array_equal(dy, before[1])


@settings(max_examples=200, deadline=None)
@given(_site_sandwich())
def test_close_site_equals_traced_product_with_embeddings(case):
    y, a, v, w, space = case
    want = partial_trace_first(embed_at(a, [1], space) @ _embedded_sandwich(y, v, w, space))
    got = site_step(y, v, w, a)
    assert got.shape == want.mat.shape
    assert_allclose(got, want.mat, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(_site_sandwich())
@example(_sandwich_case(2, [3], 3, 0))
@example(_sandwich_case(3, [], 2, 1))
def test_close_site_derivative_is_one_contraction_of_the_three_terms(case):
    # the closing step of the transfer derivative: one sum over (y, y')
    # against (D', D) equals the three closed terms of the product rule
    y, a, v, w, _ = case
    dy, dv, dw = y @ y, op(v.mat.T, v.dims), op(w.mat.conj(), w.dims)
    before = y.copy(), dy.copy()
    got = site_step_derivative(y, dy, (v, dv), (w, dw), a)
    want = site_step(y, dv, w, a) + site_step(dy, v, w, a) + site_step(y, v, dw, a)
    assert got.flags.c_contiguous
    assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(y, before[0]) and np.array_equal(dy, before[1])


def test_site_primitives_refuse_mismatched_legs():
    y = np.eye(6, dtype=complex)
    v = identity_op((2, 3))
    with pytest.raises(ValueError):
        site_step(y, v, identity_op((3, 2)))
    with pytest.raises(ValueError):
        site_step(np.eye(5, dtype=complex), v, v)
    with pytest.raises(ValueError):
        site_step(y, v, v, identity_op((3,)))
    with pytest.raises(ValueError):  # y' on other legs than y
        site_step_derivative(y, np.eye(12, dtype=complex), (v, v), (v, v))
    with pytest.raises(ValueError):
        site_step_derivative(y, y, (v, v), (v, identity_op((3, 2))))
    with pytest.raises(ValueError):
        site_step_derivative(y, np.eye(12, dtype=complex), (v, v), (v, v), identity_op((2,)))
    with pytest.raises(ValueError):
        site_step_derivative(y, y, (v, v), (v, v), identity_op((3,)))


def _kron_embedding(local, slots, space):
    """``local`` on ``slots`` of ``space`` by an independent construction:
    the kron of ``local`` with the identity on the other slots, its tensor
    legs then transposed from (slots, other slots) to the natural order."""
    k = len(space)
    rest = [s for s in range(1, k + 1) if s not in slots]
    order = list(slots) + rest
    big = np.kron(local.mat, np.eye(math.prod(space[s - 1] for s in rest)))
    dims = [space[s - 1] for s in order]
    inverse = [order.index(s) for s in range(1, k + 1)]
    d = math.prod(space)
    return big.reshape(dims + dims).transpose(inverse + [k + p for p in inverse]).reshape(d, d)


@settings(max_examples=200, deadline=None)
@given(_local_operator_on_space())
def test_embed_at_equals_the_kron_construction(case):
    _, local, slots, space = case
    got = embed_at(local, slots, space)
    assert got.dims == tuple(space)
    assert np.array_equal(got.mat, _kron_embedding(local, slots, space))


def test_embed_at_writes_a_dense_operator_without_a_temporary_of_the_output_size():
    # a dense 128-sided operator on 7 of 8 qubit slots, non-adjacent and
    # permuted: the result is 1 MB, and listing its entries first took 3.5x
    rng = np.random.default_rng(7)
    local = op(rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128)), (2,) * 7)
    slots, space = [8, 1, 3, 5, 2, 7, 4], (2,) * 8
    tracemalloc.start()
    try:
        got = embed_at(local, slots, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.mat, _kron_embedding(local, slots, space))
    assert peak <= 1.2 * got.mat.nbytes


@settings(max_examples=200, deadline=None)
@given(_local_operator_on_space())
def test_embed_entries_list_the_nonzeros_of_the_embedding(case):
    _, local, slots, space = case
    # zero about half the local entries, so that only the nonzeros are listed
    sparse = op(np.where(np.abs(local.mat.real) < 0.5, 0, local.mat), local.dims)
    rows, cols, vals = embed_entries(sparse, slots, space)
    dense = _kron_embedding(sparse, slots, space)
    assert np.unique(rows * dense.shape[0] + cols).size == rows.size
    assert rows.size == np.count_nonzero(dense)
    scattered = np.zeros_like(dense)
    scattered[rows, cols] = vals
    assert np.array_equal(scattered, dense)


def test_embed_entries_errors():
    with pytest.raises(ValueError):
        embed_entries(op(np.eye(2), (2,)), [3], [2, 2])
    with pytest.raises(ValueError):
        embed_entries(op(np.eye(4), (2, 2)), [1, 1], [2, 2])
    with pytest.raises(ValueError):  # more slots than factors
        embed_entries(op(np.eye(2), (2,)), [1, 2], [2, 2])


def _operand(d, entries):
    """The (row, col, re, im) tuples ``entries`` of a d x d matrix as a
    coalesced entry list and as the dense array they sum to."""
    rows, cols, re, im = (np.array([e[k] for e in entries], dtype=np.int64) for k in range(4))
    vals = re + 1j * im
    dense = np.zeros((d, d), dtype=np.complex128)
    np.add.at(dense, (rows, cols), vals)
    return coalesce([(rows, cols, vals)], d), dense


@st.composite
def _operands(draw):
    """A side d and two d x d operands. Values have small integer parts, so
    every product and sum below is exact; (row, col) pairs repeat, rows stay
    empty, values can be zero and an operand can have no entries at all."""
    d = draw(st.integers(1, 6))
    index, part = st.integers(0, d - 1), st.integers(-2, 2)
    return d, *(_operand(d, draw(st.lists(st.tuples(index, index, part, part),
                                          max_size=3 * d)))
                for _ in range(2))


@settings(max_examples=80, deadline=None)
@given(_operands())
@example((3, _operand(3, [(0, 1, 1, 0), (0, 1, 0, 2), (2, 0, -1, 1), (0, 1, 2, 0)]),
          _operand(3, [])))
@example((3, _operand(3, [(2, 2, 1, 1), (2, 0, 0, 1)]),
          _operand(3, [(0, 1, 2, 0), (2, 2, 1, -1), (2, 2, 1, 0), (2, 0, 1, 0)])))
def test_entry_product_and_sum_equal_dense(case):
    # entry-list arithmetic against dense @ and +: coalesced lists are
    # row-major with each (row, col) once, and a product's terms, coalesced
    # or summed with other lists, give what dense arithmetic gives, exactly
    d, (a, dense_a), (b, dense_b) = case
    terms = product_terms(a, b, d)
    product = coalesce([terms], d)
    total = coalesce([(*terms[:2], 2j * terms[2]), a, b], d)
    for entries, want in ((a, dense_a), (b, dense_b), (product, dense_a @ dense_b),
                          (total, 2j * (dense_a @ dense_b) + dense_a + dense_b)):
        assert np.all(np.diff(entries[0] * d + entries[1]) > 0)
        assert np.array_equal(densify(d, entries), want)


def test_coalesce_sums_a_repeated_entry_in_the_order_given():
    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit, so the
    # sum of the (row, col) that every part holds shows the order of the parts
    def part(rows, cols, vals):
        return np.array(rows), np.array(cols), np.array(vals, dtype=complex)

    parts = [part([1], [0], [0.1 - 0.1j]), part([1, 0], [0, 1], [0.2 - 0.2j, 2.0]),
             part([1], [0], [0.3 - 0.3j])]
    rows, cols, vals = coalesce(parts, 2)
    assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]
    assert vals.tolist() == [2.0, (0.1 + 0.2 + 0.3) * (1 - 1j)]
    assert coalesce(parts[::-1], 2)[2][1] == (0.3 + 0.2 + 0.1) * (1 - 1j)
    assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1


def test_apply_right_errors():
    x = op(np.eye(2), (2,))
    with pytest.raises(ValueError):
        apply_right(np.eye(4), x, [3], [2, 2])
    with pytest.raises(ValueError):
        apply_right(np.eye(6), x, [1], [3, 2])
    with pytest.raises(ValueError):  # more slots than factors
        apply_right(np.eye(4), x, [1, 2], [2, 2])


def test_permutation_swap_basis_action():
    p = permutation_swap(2)
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert_allclose(p.mat @ np.kron(v, w), np.kron(w, v))
    expected = np.eye(4)[:, [0, 2, 1, 3]]
    assert_allclose(p.mat, expected)
    assert_allclose((p @ p).mat, np.eye(4))


def test_permutation_swap_on_operators():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = permutation_swap(3).mat
    assert_allclose(p @ np.kron(a, b) @ p, np.kron(b, a), atol=1e-13)


def test_partial_trace_first():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = op(np.kron(np.eye(4), x), (4, 3))
    assert_allclose(partial_trace_first(a).mat, 4 * x)
    d = op(np.kron(np.diag([2.0, 5.0]), np.eye(2)), (2, 2))
    assert_allclose(partial_trace_first(d).mat, 7 * np.eye(2))
    assert_allclose(partial_trace_first(permutation_swap(2)).mat, np.eye(2))
    # trace(A) * B for a generic product
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ab = op(np.kron(x, b), (3, 2))
    assert_allclose(partial_trace_first(ab).mat, np.trace(x) * b)
    with pytest.raises(ValueError):
        partial_trace_first(op(np.eye(3), (3,)))


def test_partial_transpose():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ab = op(np.kron(a, b), (2, 3))
    assert_allclose(partial_transpose(ab, 1).mat, np.kron(a.T, b))
    assert_allclose(partial_transpose(ab, 2).mat, np.kron(a, b.T))
    # involution and t1 ∘ t2 = total transpose
    r = op(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), (2, 3))
    assert_allclose(partial_transpose(partial_transpose(r, 1), 1).mat, r.mat)
    t12 = partial_transpose(partial_transpose(r, 1), 2)
    assert_allclose(t12.mat, r.mat.T)
    with pytest.raises(ValueError):
        partial_transpose(r, 3)


def test_commutator():
    e12 = op(basis_matrix(2, 1, 2), (2,))
    e21 = op(basis_matrix(2, 2, 1), (2,))
    assert_allclose(commutator(e12, e21).mat, np.diag([1.0, -1.0]))
    a = op(np.arange(4.0).reshape(2, 2), (2,))
    assert np.linalg.norm(commutator(a, a).mat) == 0.0
    assert np.linalg.norm(commutator(identity_op([2]), a).mat) == 0.0


def test_prop_check():
    rng = np.random.default_rng(19)
    b = op(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), (4,))
    a = (2.0 - 0.5j) * b
    res = prop_check(a, b)
    assert abs(res.scalar - (2.0 - 0.5j)) < 1e-14
    assert res.residual < 1e-14
    # perturbation orthogonal to b shows up as the relative residual
    e = op(rng.normal(size=(4, 4)), (4,))
    proj = np.vdot(b.mat, e.mat) / np.vdot(b.mat, b.mat)
    e_orth = e.mat - proj * b.mat
    noisy = Operator(b.mat + 1e-3 * e_orth, b.dims)
    res2 = prop_check(noisy, b)
    expected = 1e-3 * np.linalg.norm(e_orth) / np.linalg.norm(noisy.mat)
    assert abs(res2.residual - expected) < 1e-12
    with pytest.raises(ValueError):
        prop_check(b, Operator(np.zeros((4, 4)), (4,)))


def test_prop_check_takes_arrays_like_operators():
    rng = np.random.default_rng(23)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (2.0 - 0.5j) * b + 1e-3 * rng.normal(size=(4, 4))
    wrapped = prop_check(op(a, (2, 2)), op(b, (2, 2)))
    assert prop_check(a, b) == wrapped
    assert prop_check(a, op(b, (4,))) == wrapped
    zero = np.zeros((4, 4), dtype=np.complex128)
    for ref in (zero, op(zero, (4,))):
        with pytest.raises(ValueError, match="numerically zero"):
            prop_check(b, ref)
    with pytest.raises(ValueError, match="dimension mismatch"):
        prop_check(b, np.eye(2))


def test_aux_blocks_is_a_view_of_the_slices():
    rng = np.random.default_rng(3)
    n, d = 3, 4
    m = rng.normal(size=(n * d, n * d)) + 1j * rng.normal(size=(n * d, n * d))
    blocks = aux_blocks(m, n)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(blocks[i, :, j, :],
                                  m[i * d:(i + 1) * d, j * d:(j + 1) * d])
    assert np.shares_memory(blocks, m)


def test_sym_residual_is_symmetric():
    rng = np.random.default_rng(4)
    a = op(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), (2, 2))
    b = 3.0 * a.mat + 0.1
    assert sym_residual(a, b) == sym_residual(b, a)
    assert sym_residual(a, b) == pytest.approx(
        np.linalg.norm(a.mat - b) / np.linalg.norm(b))


def test_residuals_are_zero_not_nan_on_zero_operands():
    zero = np.zeros((3, 3), dtype=complex)
    assert sym_residual(zero, zero) == 0.0
    assert comm_residual(zero, zero) == 0.0
    assert comm_residual(op(zero, (3,)), identity_op([3])) == 0.0


def test_worst_of_keeps_nan_and_refuses_empty():
    assert worst_of([0.0, 2e-16, np.float64(1e-15)]) == 1e-15
    assert type(worst_of([np.float64(3.0)])) is float
    for order in ([float("nan"), 1.0], [1.0, float("nan")], [0.0, float("nan")]):
        assert np.isnan(worst_of(order))
    assert np.isnan(worst_of(r for r in (1e-16, float("nan"), 1e-14)))
    with pytest.raises(ValueError):
        worst_of([])


_entry = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), *(st.lists(_entry, min_size=n * n, max_size=n * n) for _ in range(3)))))
def test_weight_preserving_equals_the_entry_by_entry_fill(case):
    n, diag, same, swap = case
    expected = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        expected[(i - 1) * (n + 1), (i - 1) * (n + 1)] = diag[i - 1]
        for j in range(1, n + 1):
            if i != j:
                row = (i - 1) * n + j - 1
                expected[row, row] = same[row]
                expected[row, (j - 1) * n + i - 1] = swap[row]
    built = weight_preserving(n, lambda i: diag[i - 1], lambda i, j: same[(i - 1) * n + j - 1],
                              lambda i, j: swap[(i - 1) * n + j - 1])
    assert built.dims == (n, n)
    assert np.array_equal(built.mat, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weight_preserving_equals_the_matrix_unit_sum(n):
    rng = np.random.default_rng(n)

    def coeffs():
        c = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        return lambda i, j=None: c[i, i if j is None else j]

    diag, same, swap = coeffs(), coeffs(), coeffs()
    expected = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        expected += diag(i) * np.kron(basis_matrix(n, i, i), basis_matrix(n, i, i))
        for j in range(1, n + 1):
            if i != j:
                expected += same(i, j) * np.kron(basis_matrix(n, i, i), basis_matrix(n, j, j))
                expected += swap(i, j) * np.kron(basis_matrix(n, i, j), basis_matrix(n, j, i))
    built = weight_preserving(n, diag, same, swap)
    assert built.dims == (n, n)
    assert np.array_equal(built.mat, expected)

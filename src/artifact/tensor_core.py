"""Dense complex operator algebra on tensor-product spaces.

Everything downstream (R-matrices, K-matrices, monodromies, charges) is a
square complex matrix living on an ordered tensor product of local spaces.
The ``Operator`` wrapper keeps the factor dimensions next to the matrix so
that embeddings, partial traces and partial transposes never need the caller
to re-supply them. That is the rule for using it: ``Operator`` is for objects
whose factor structure this module must see (local operators that are
embedded, kron'd or traced) and for chain-level results; algebra images on
(C^n)^L (evaluation images, coproducts, tower entries, one-site charges) are
plain ``np.ndarray``. The residual helpers and ``prop_check`` take either.

The package's one sparse form is the entry list, a (rows, cols, vals) triple
of a d x d matrix with each (row, col) once, and only this module sums,
multiplies or densifies one. ``embed_entries`` lists an embedding's nonzeros
that way, ``coalesce`` sums entry lists into one that is also row-major,
``product_terms`` expands a product of two row-major lists,
``diagonal_entries`` lists a diagonal and ``densify`` writes a list into a
dense array. ``quantum_algebra.Tower`` stores its larger images as entry
lists, and ``spin_chain`` builds the Hamiltonian as one.

Conventions: the first tensor factor is the slow (most significant) index,
i.e. ``kron(A, B)`` puts A on the first factor. Basis states of C^d1 (x) C^d2
are enumerated as |11>, |12>, ..., |1 d2>, |21>, ... in row-major order. The
first factor of a chain operator is the auxiliary space; ``aux_blocks`` views
its (n, n) grid of blocks.

``embed_at`` writes a local operator out as a dense matrix on the whole
space, through one strided view of a zero array; ``apply_right`` multiplies
a dense matrix by such an embedding without forming it, at d^2 times the
local operator's side per factor instead of d^3; the left-to-right chain
products are built from it. ``site_step`` builds a chain from the inside
out, as v_{0k} (Y (x) 1_k) w_{0k} = sum_{a'b'} Y_{a'b'} (x) C^{a'b'} with
Y_{a'b'} the (a', b') block of Y on the auxiliary factor 0 and C^{a'b'} a
matrix of side d0 e: one GEMM a step. Given a closing operator it traces
factor 0 out on the C's, so no matrix on the auxiliary space and every site
at once is formed, and ``site_step_derivative`` applies the product rule to
the C's. ``weight_preserving`` fills the two-site pattern that R and the
bulk Hecke generator share, on two fixed strided index patterns.

Residuals are Frobenius-norm ratios in three conventions: ``rel_residual``
(distance from a reference), ``sym_residual`` (two equal-standing sides) and
``comm_residual`` (a commutator over the product of the factors' norms). Each
divides by max(scale, RESIDUAL_FLOOR), so exact zeros give 0, not NaN. Checks
whose sides cancel to (near) zero keep a bespoke scale built from the
uncancelled words (Hecke braid and mixed relations, Serre and [e, f], the
weighted-sum exchange relations), [M (x) M, R] and [Rcheck, coproduct] keep
their own commutator scales; these and the scalar relative errors take the
same floor. ``worst_of`` combines several residuals into one check.
``rtt_residual`` is the RTT (Yang-Baxter) exchange, written once for R, the
Lax operators and the monodromy.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Operator",
    "ProportionalityResult",
    "kron",
    "embed_at",
    "embed_entries",
    "coalesce",
    "product_terms",
    "diagonal_entries",
    "densify",
    "apply_right",
    "site_step",
    "site_step_derivative",
    "permutation_swap",
    "partial_trace_first",
    "partial_transpose",
    "commutator",
    "prop_check",
    "basis_matrix",
    "identity_op",
    "frob",
    "rel_residual",
    "sym_residual",
    "comm_residual",
    "worst_of",
    "aux_blocks",
    "weight_preserving",
    "rtt_residual",
    "RESIDUAL_FLOOR",
]

RESIDUAL_FLOOR = 1e-300


@dataclass(frozen=True)
class Operator:
    """A square complex matrix together with its tensor-factor dimensions."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        # a complex128 ndarray and a tuple of ints, the common case, are kept
        # as they are; anything else is converted
        mat, dims = self.mat, self.dims
        if type(mat) is not np.ndarray or mat.dtype != np.complex128:
            mat = np.asarray(mat, dtype=np.complex128)
            object.__setattr__(self, "mat", mat)
        if type(dims) is not tuple or any(type(d) is not int for d in dims):
            dims = tuple(int(d) for d in dims)
            object.__setattr__(self, "dims", dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        if len(dims) == 0 or min(dims) < 1:
            raise ValueError(f"bad factor dimensions {dims}")
        if math.prod(dims) != mat.shape[0]:
            raise ValueError(
                f"factor dimensions {dims} do not multiply to side {mat.shape[0]}"
            )

    # Arithmetic is deliberately thin: just enough to write checks the way
    # they appear on paper. Mixed-dims operands must at least agree in size.
    def __matmul__(self, other: "Operator") -> "Operator":
        self._require_same_side(other)
        return Operator(self.mat @ other.mat, self.dims)

    def __add__(self, other: "Operator") -> "Operator":
        self._require_same_side(other)
        return Operator(self.mat + other.mat, self.dims)

    def __sub__(self, other: "Operator") -> "Operator":
        self._require_same_side(other)
        return Operator(self.mat - other.mat, self.dims)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.mat * scalar, self.dims)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.mat, self.dims)

    def transpose(self) -> "Operator":
        return Operator(self.mat.T, self.dims)

    def inv(self) -> "Operator":
        return Operator(np.linalg.inv(self.mat), self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def _require_same_side(self, other: "Operator") -> None:
        if self.mat.shape != other.mat.shape:
            raise ValueError(
                f"dimension mismatch: {self.mat.shape} vs {other.mat.shape}"
            )


@dataclass(frozen=True)
class ProportionalityResult:
    """Best-fit scalar c with A ≈ c B, and the relative Frobenius defect."""

    scalar: complex
    residual: float


def frob(a: Operator | np.ndarray) -> float:
    m = a.mat if isinstance(a, Operator) else a
    return float(np.linalg.norm(m))


def _as_mat(a: Operator | np.ndarray) -> np.ndarray:
    return a.mat if isinstance(a, Operator) else np.asarray(a)


def rel_residual(a: Operator | np.ndarray, b: Operator | np.ndarray) -> float:
    """|| A - B ||_F / max(||B||_F, floor)."""
    ma, mb = _as_mat(a), _as_mat(b)
    return float(np.linalg.norm(ma - mb) / max(np.linalg.norm(mb), RESIDUAL_FLOOR))


def sym_residual(a: Operator | np.ndarray, b: Operator | np.ndarray) -> float:
    """|| A - B ||_F / max(||A||_F, ||B||_F, floor); symmetric in A and B."""
    ma, mb = _as_mat(a), _as_mat(b)
    scale = max(np.linalg.norm(ma), np.linalg.norm(mb), RESIDUAL_FLOOR)
    return float(np.linalg.norm(ma - mb) / scale)


def comm_residual(a: Operator | np.ndarray, b: Operator | np.ndarray) -> float:
    """|| AB - BA ||_F / max(||A||_F ||B||_F, floor)."""
    ma, mb = _as_mat(a), _as_mat(b)
    scale = max(np.linalg.norm(ma) * np.linalg.norm(mb), RESIDUAL_FLOOR)
    return float(np.linalg.norm(ma @ mb - mb @ ma) / scale)


def worst_of(residuals) -> float:
    """Largest of the residuals, or NaN if any of them is NaN.

    A running ``max`` started at 0.0 would drop a NaN (``max(0.0, nan)`` is
    0.0) and let a residual that could not be computed pass as exact. An
    empty input raises: a check with nothing to compare must not pass.
    """
    values = [float(r) for r in residuals]
    if not values:
        raise ValueError("worst_of needs at least one residual")
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def aux_blocks(m: np.ndarray, n: int) -> np.ndarray:
    """``m`` on C^n (x) C^d as an (n, d, n, d) array: block (i, j) of the
    first (auxiliary) factor is ``[i, :, j, :]``, 0-based. A view when ``m``
    is C-contiguous."""
    d = m.shape[0] // n
    return m.reshape(n, d, n, d)


def basis_matrix(n: int, i: int, j: int) -> np.ndarray:
    """Matrix unit with a single 1 at row i, column j (1-based)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"matrix unit indices ({i},{j}) out of range for n={n}")
    e = np.zeros((n, n), dtype=np.complex128)
    e[i - 1, j - 1] = 1.0
    return e


def weight_preserving(n: int, diag, same, swap) -> Operator:
    """sum_i diag(i) e_ii (x) e_ii + sum_{i != j} [same(i, j) e_ii (x) e_jj
    + swap(i, j) e_ij (x) e_ji] on C^n (x) C^n (indices 1-based).

    The three entry classes lie on two fixed index patterns of the (n, n, n,
    n) view: (i, j, i, j), the diagonal, holds same(i, j) and, at i = j,
    diag(i); (i, j, j, i) holds swap(i, j). Each pattern is written in one
    assignment through a strided view, the swap one first, so that the
    diagonal wins where the two meet at i = j."""
    m = np.zeros((n * n, n * n), dtype=np.complex128)
    ks = range(1, n + 1)
    np.einsum("ijji->ij", m.reshape(n, n, n, n))[...] = [
        [0.0 if i == j else swap(i, j) for j in ks] for i in ks]
    m.reshape(-1)[:: n * n + 1] = [diag(i) if i == j else same(i, j) for i in ks for j in ks]
    return Operator(m, (n, n))


def identity_op(dims) -> Operator:
    dims = tuple(int(d) for d in dims)
    return Operator(np.eye(math.prod(dims), dtype=np.complex128), dims)


def kron(a: Operator, b: Operator) -> Operator:
    return Operator(np.kron(a.mat, b.mat), a.dims + b.dims)


def _checked_slots(op: Operator, slots, space) -> tuple[list[int], tuple[int, ...]]:
    """``slots`` and ``space`` as ints, after checking that ``op`` fits them."""
    space = tuple(int(d) for d in space)
    slots = [int(s) for s in slots]
    k = len(space)
    if len(slots) != len(op.dims):
        raise ValueError("slot count must match operator factor count")
    if len(set(slots)) != len(slots):
        raise ValueError(f"duplicate slots in {slots}")
    for pos, s in enumerate(slots):
        if not (1 <= s <= k):
            raise ValueError(f"slot {s} out of range 1..{k}")
        if space[s - 1] != op.dims[pos]:
            raise ValueError(
                f"slot {s} has dimension {space[s-1]} but operator factor "
                f"{pos+1} has dimension {op.dims[pos]}"
            )
    return slots, space


def embed_at(op: Operator, slots, space) -> Operator:
    """Embed ``op`` so it acts on the named slots (1-based) of ``space``.

    ``slots`` is an ordered list matching op.dims factor by factor; the
    remaining slots carry the identity. Non-adjacent and permuted slot lists
    are allowed, e.g. embed_at(R, [1, 3], [n, n, n]) puts the first factor of
    R on slot 1 and the second on slot 3. The result is ``np.zeros`` with
    ``op`` written in once, through one strided view: the (row legs, column
    legs) view of the matrix with each identity slot's row and column leg
    taken as one diagonal leg, so no temporary is larger than ``op``.
    """
    slots, space = _checked_slots(op, slots, space)
    side = math.prod(space)
    out = np.zeros((side, side), dtype=np.complex128)
    # a letter per leg; the row and column legs of an identity slot share one,
    # so the view runs along their diagonal
    row = string.ascii_lowercase[:len(space)]
    col = "".join(c.upper() if s in slots else c for s, c in enumerate(row, 1))
    pad = "".join(c for s, c in enumerate(row, 1) if s not in slots)
    legs = "".join(row[s - 1] for s in slots) + "".join(col[s - 1] for s in slots) + pad
    view = np.einsum(f"{row}{col}->{legs}", out.reshape(space + space))
    view[...] = op.mat.reshape(op.dims + op.dims + (1,) * len(pad))
    return Operator(out, space)


def embed_entries(op: Operator, slots, space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of ``op`` on the named slots (1-based) of ``space``, with
    the identity on the rest, as index arrays ``(rows, cols, vals)``; the
    slots are as for ``embed_at``.

    Each nonzero of ``op`` is repeated once per basis state of the identity
    slots, so there are nnz(op) * (d / prod(op.dims)) entries and no two share
    a (row, col).
    """
    slots, space = _checked_slots(op, slots, space)
    k = len(space)
    stride = [math.prod(space[s:]) for s in range(1, k + 1)]  # slot s steps by stride[s - 1]
    rest = np.zeros(1, dtype=np.intp)
    for s in range(1, k + 1):
        if s not in slots:
            rest = (rest[:, None] + stride[s - 1] * np.arange(space[s - 1])).ravel()
    loc_rows, loc_cols = np.nonzero(op.mat)
    offset_rows = np.zeros(loc_rows.size, dtype=np.intp)
    offset_cols = np.zeros(loc_cols.size, dtype=np.intp)
    for digit_rows, digit_cols, s in zip(np.unravel_index(loc_rows, op.dims),
                                         np.unravel_index(loc_cols, op.dims), slots):
        offset_rows += stride[s - 1] * digit_rows
        offset_cols += stride[s - 1] * digit_cols
    rows = (offset_rows[:, None] + rest).ravel()
    cols = (offset_cols[:, None] + rest).ravel()
    vals = np.repeat(op.mat[loc_rows, loc_cols], rest.size)
    return rows, cols, vals


def coalesce(parts, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry list of the sum of the (rows, cols, vals) ``parts`` of a
    dim x dim matrix: each (row, col) once, sorted row-major, the values of a
    repeated (row, col) summed in the order given, part by part, from zero."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    keys, inverse = np.unique(rows * dim + cols, return_inverse=True)
    summed = (np.bincount(inverse, vals.real, keys.size)
              + 1j * np.bincount(inverse, vals.imag, keys.size))
    return *np.divmod(keys, dim), summed


def product_terms(a: tuple, b: tuple, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms a_rk b_kc of A @ B for the row-major entry lists ``a`` and
    ``b``, not coalesced: each entry (r, k) of A against the entries of B's
    row k, in A's order and then B's, so the terms of one (r, c) come in
    ascending k."""
    a_rows, a_cols, a_vals = a
    b_rows, b_cols, b_vals = b
    offsets = np.searchsorted(b_rows, np.arange(dim + 1))  # B's row k: offsets[k:k+2]
    start = offsets[a_cols]
    counts = offsets[a_cols + 1] - start
    ends = np.cumsum(counts)
    at = np.arange(ends[-1] if ends.size else 0) + np.repeat(start - ends + counts, counts)
    return np.repeat(a_rows, counts), b_cols[at], np.repeat(a_vals, counts) * b_vals[at]


def diagonal_entries(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``diag`` on the diagonal, as a row-major entry list."""
    index = np.arange(diag.size)
    return index, index, diag


def densify(dim: int, entries: tuple) -> np.ndarray:
    """The entry list ``entries`` as a dim x dim array, in one write into
    ``np.zeros``: its fresh pages are mapped on first touch, so a page that
    no entry falls on is never mapped."""
    rows, cols, vals = entries
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[rows, cols] = vals
    return out


def apply_right(mat: np.ndarray, op: Operator, slots, space) -> np.ndarray:
    """``mat @ embed_at(op, slots, space).mat`` without forming the embedding.

    The column index of ``mat`` is split into the legs of ``space`` and the
    legs at ``slots`` are contracted with the row legs of ``op`` in one
    ``tensordot``: d^2 * prod(op.dims) work instead of d^3. Returns a new
    C-contiguous (d, d) array; ``mat`` is left as it was.
    """
    slots, space = _checked_slots(op, slots, space)
    d = math.prod(space)
    k = len(space)
    tens = np.tensordot(
        mat.reshape((d,) + space),
        op.mat.reshape(op.dims + op.dims),
        axes=(slots, list(range(len(slots)))),
    )
    # tens holds the row index, the untouched legs, then op's column legs
    order = [s for s in range(1, k + 1) if s not in slots] + slots
    axes = [0] + [1 + order.index(s) for s in range(1, k + 1)]
    return tens.transpose(axes).reshape(d, d)


def _coefficients(y: np.ndarray, v: Operator, w: Operator, a: Operator | None = None):
    """C[a', b', a, s, b, t] = sum_u v[a, s, a', u] w[b', u, b, t] for ``y`` on
    a first factor d0 and a rest and ``v``, ``w`` on (first factor, new site
    e); given ``a`` on the first factor, D = tr_0[a_0 C] as legs (a', b', 1, s,
    1, t) instead."""
    if len(v.dims) != 2 or v.dims != w.dims:
        raise ValueError(f"need two-factor operators of equal dims, got {v.dims} and {w.dims}")
    d0, e = v.dims
    if y.ndim != 2 or y.shape[0] != y.shape[1] or y.shape[0] % d0:
        raise ValueError(f"matrix of shape {y.shape} does not act on a first factor of {d0}")
    c = np.einsum("asAu,Bubt->ABasbt", v.mat.reshape(d0, e, d0, e), w.mat.reshape(d0, e, d0, e))
    if a is None:
        return c
    if a.dims != (d0,):
        raise ValueError(f"closing operator dims {a.dims} do not match the first factor {d0}")
    return np.einsum("ABasbt,ba->ABst", c, a.mat).reshape(d0, d0, 1, e, 1, e)


def _block_sum(terms) -> np.ndarray:
    """sum_{a'b'} y_{a'b'} (x) c[a', b'] over the (y, c) pairs of ``terms`` in
    the layout (a, x, s | b, y, t), c of legs (a', b', a, s, b, t): per pair a
    GEMM of c as (a'b', a s b t) against y as (a'b', x y), then one transpose.
    The products are added, not stacked: at the closing step y is as large as
    the result, and a stacked copy of two would be the largest temporary."""
    d0, _, lead, e = terms[0][1].shape[:4]
    r = terms[0][0].shape[0] // d0
    parts = (c.reshape(d0 * d0, -1).T
             @ y.reshape(d0, r, d0, r).transpose(0, 2, 1, 3).reshape(d0 * d0, r * r)
             for y, c in terms)
    out = next(parts)
    for part in parts:
        out += part
    return out.reshape(lead, e, lead, e, r, r).transpose(0, 4, 1, 2, 5, 3).reshape(lead * r * e, -1)


def site_step(y: np.ndarray, v: Operator, w: Operator, a: Operator | None = None) -> np.ndarray:
    """``v_{0k} (y (x) 1_k) w_{0k}`` with k a new last slot, or with ``a``
    given, ``tr_0[a_0 v_{0k} (y (x) 1_k) w_{0k}]``.

    ``y`` acts on a first (auxiliary) factor 0 followed by any rest; ``v`` and
    ``w`` act on (0, k), ``a`` on factor 0 alone. As sum_{a'b'} y_{a'b'} (x)
    C^{a'b'} it is one GEMM of d0^4 e^2 r^2 (d0, e, r the sides of 0, k and
    the rest) and one transpose; the result acts on (0, rest, k). With ``a``
    the trace is taken on the coefficients, D^{a'b'} = tr_0[a_0 C^{a'b'}], so
    the GEMM is d0^2 e^2 r^2 and the result acts on (rest, k)."""
    return _block_sum([(y, _coefficients(y, v, w, a))])


def site_step_derivative(y: np.ndarray, dy: np.ndarray, v: tuple, w: tuple,
                         a: Operator | None = None) -> np.ndarray:
    """The product-rule derivative of ``site_step`` with the operator pairs
    v = (v, v') and w = (w, w'): (v' y + v y') w + v y w', traced against
    ``a`` when given, as sum y_{a'b'} (x) C' + y'_{a'b'} (x) C with
    C' = C(v', w) + C(v, w')."""
    (v, dv), (w, dw) = v, w
    if dy.shape != y.shape:
        raise ValueError(f"y' of shape {dy.shape} does not match y of shape {y.shape}")
    dc = _coefficients(y, dv, w, a) + _coefficients(y, v, dw, a)
    return _block_sum([(y, dc), (dy, _coefficients(y, v, w, a))])


def permutation_swap(d: int) -> Operator:
    """P with P (v (x) w) = w (x) v on C^d (x) C^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    p = np.eye(d * d, dtype=np.complex128)
    p = p.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return Operator(p, (d, d))


def partial_trace_first(a: Operator) -> Operator:
    if len(a.dims) < 2:
        raise ValueError("need at least two tensor factors to trace one out")
    d0 = a.dims[0]
    rest = math.prod(a.dims[1:])
    t = a.mat.reshape(d0, rest, d0, rest)
    return Operator(np.einsum("arbs,ab->rs", t, np.eye(d0)), a.dims[1:])


def partial_transpose(a: Operator, slot: int) -> Operator:
    k = len(a.dims)
    if not (1 <= slot <= k):
        raise ValueError(f"slot {slot} out of range 1..{k}")
    dims = list(a.dims)
    tens = a.mat.reshape(dims + dims)
    axes = list(range(2 * k))
    axes[slot - 1], axes[k + slot - 1] = axes[k + slot - 1], axes[slot - 1]
    side = math.prod(dims)
    return Operator(tens.transpose(axes).reshape(side, side), a.dims)


def commutator(a: Operator, b: Operator) -> Operator:
    a._require_same_side(b)
    return Operator(a.mat @ b.mat - b.mat @ a.mat, a.dims)


def rtt_residual(r: Operator, xa: Operator, xb: Operator) -> float:
    """sym_residual of R_ab X_a X_b = X_b X_a R_ab.

    ``r`` acts on the auxiliary pair (a, b); ``xa`` and ``xb`` act on one
    auxiliary space followed by the same quantum spaces, and are placed on
    a and on b respectively.
    """
    space = r.dims + xa.dims[1:]
    quantum = list(range(3, len(space) + 1))
    rab = embed_at(r, [1, 2], space)
    ta = embed_at(xa, [1] + quantum, space)
    tb = embed_at(xb, [2] + quantum, space)
    return sym_residual(rab @ ta @ tb, tb @ ta @ rab)


def prop_check(a: Operator | np.ndarray, b: Operator | np.ndarray) -> ProportionalityResult:
    """Best-fit A ≈ c B in Frobenius inner product; c = <B,A>/<B,B>."""
    ma, mb = _as_mat(a), _as_mat(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    bb = np.vdot(mb, mb)
    if abs(bb) < RESIDUAL_FLOOR:
        raise ValueError("reference operator is numerically zero")
    c = complex(np.vdot(mb, ma) / bb)
    return ProportionalityResult(scalar=c, residual=rel_residual(c * mb, ma))

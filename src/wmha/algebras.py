"""Finite-dimensional algebras given by structure constants.

An algebra given by its structure constants holds its nonzero products
sparsely per basis pair.  A tensor product multiplies through its
factors, (e_i (x) e_k)(e_j (x) e_l) = e_i e_j (x) e_k e_l, one leg at a
time, and stores no product: every product of either kind goes through
one leg action, `Algebra._legs`.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .linalg import DimensionMismatch, Matrix
from .report import PASS, CheckResult, _first_failures, check
from .scalars import ONE, ZERO, Scalar, _on_legs


# the canonical maps are dim^2 x dim^2 and the checks walk every basis
# triple and quadruple: a larger dim could not finish
MAX_DIM = 32


class ParentMismatch(Exception):
    pass


SparseVec = Dict[int, Scalar]


def vec_to_sparse(vec) -> SparseVec:
    return {i: v for i, v in enumerate(vec) if v}


def sparse_to_vec(s: SparseVec, n: int) -> list:
    out = [ZERO] * n
    for i, v in s.items():
        out[i] = v
    return out


def unless_at_unit(at_unit: Callable[[], bool], walk: Iterator) -> Iterator:
    """The failures that walk yields, or none when at_unit() is True.
    at_unit tests literally an identity at the checked unit that implies,
    by associativity, every identity the walk tests; each caller's
    docstring gives the argument.  When it is False, as it is without a
    checked unit, the walk runs unchanged, failures and order included.
    Four callers read otherwise, also only with a checked unit: the
    weak-Hopf counit walk, `validate_star` and the star suite, whose
    at_unit compares the walk's values as matrix identities, and the G1/G2
    solve, whose walk yields the basis triples of its system and whose
    at_unit tells that the unit triples span the same rows."""
    if not at_unit():
        yield from walk


class Algebra:
    """Associative algebra with basis e_0..e_{n-1} and products
    e_i e_j = sum_k m[i][j][k] e_k."""

    def __init__(self, dim: int, basis_labels: List[str],
                 table: Optional[Dict[Tuple[int, int], SparseVec]] = None,
                 factors: Optional[Tuple["Algebra", "Algebra"]] = None):
        """table holds the nonzero products of an algebra given by its
        structure constants.  A tensor product of factors has no table and
        keeps no columns: its products are its factors', leg by leg."""
        self.dim = dim
        self.basis_labels = basis_labels
        self._table: Dict[Tuple[int, int], SparseVec] = {} if table is None else table
        self._factors = factors
        self._cols: Dict[tuple, list] = {}
        self._unit: Optional[SparseVec] = None
        # content_key(), fixed here: no product of an algebra ever changes
        self._key = ("tensor", factors[0]._key, factors[1]._key) if factors else \
            Matrix.from_sparse_cols(dim, [self._table.get((i, j), {}) for i in range(dim) for j in range(dim)])

    @staticmethod
    def from_structure(dim: int, basis_labels: Optional[List[str]], entries) -> "Algebra":
        """entries: iterable of (i, j, k, Scalar)."""
        table: Dict[Tuple[int, int], SparseVec] = {}
        for i, j, k, v in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch(f"structure index ({i},{j},{k}) out of range")
            if v:
                table.setdefault((i, j), {})[k] = v
        return Algebra(dim, basis_labels or [f"e{i}" for i in range(dim)], table)

    @staticmethod
    def tensor(a: "Algebra", b: "Algebra") -> "Algebra":
        """Tensor product with the row-major index (i, j) -> i*dim(b)+j."""
        return Algebra(a.dim * b.dim, [f"{la}(x){lb}" for la in a.basis_labels for lb in b.basis_labels],
                       factors=(a, b))

    def checked_unit(self) -> Optional[SparseVec]:
        """The unit, once `validate_algebra` has seen associativity pass,
        else None: the walks that read their identities off their values
        at the unit need both.  A tensor product has the product of its
        factors' checked units, and `opposite` copies the checked unit."""
        if self._factors is None:
            return self._unit
        a, b = self._factors
        ua, ub = a.checked_unit(), b.checked_unit()
        if ua is None or ub is None:
            return None
        return {i * b.dim + j: v * w for i, v in ua.items() for j, w in ub.items()}

    def mul_basis(self, i: int, j: int) -> SparseVec:
        """e_i e_j: a table entry, or on a tensor product computed from the
        factors when asked."""
        if self._factors is None:
            return self._table.get((i, j), {})
        return self.mul_by_basis({i: ONE}, j)

    def _legs(self, x, j: int, right: bool, s: int = 1) -> SparseVec:
        """x e_j (right) or e_j x, with x given as its (index, value) pairs,
        on the legs of stride s of a larger tensor vector (`_on_legs`).  An
        algebra with a table applies its cached columns; a tensor product
        A (x) B applies A's action at stride s·dim B, then B's at stride s."""
        if self._factors is None:
            return _on_legs(self._right_cols(j) if right else self._left_cols(j), self.dim, x, s)
        a, b = self._factors
        j1, j2 = divmod(j, b.dim)
        return b._legs(a._legs(x, j1, right, s * b.dim).items(), j2, right, s)

    def _left_cols(self, a: int) -> list:
        """The sparse columns of x -> e_a x, for _on_legs; cached."""
        got = self._cols.get(("L", a))
        if got is None:
            got = self._cols["L", a] = [self.mul_basis(a, j).items() for j in range(self.dim)]
        return got

    def _right_cols(self, a: int) -> list:
        """The sparse columns of x -> x e_a, for _on_legs; cached."""
        got = self._cols.get(("R", a))
        if got is None:
            got = self._cols["R", a] = [self.mul_basis(j, a).items() for j in range(self.dim)]
        return got

    def _product_cols(self) -> list:
        """The sparse columns of the product map e_i (x) e_j -> e_i e_j."""
        got = self._cols.get("m")
        if got is None:
            got = self._cols["m"] = [self.mul_basis(i, j).items()
                                     for i in range(self.dim) for j in range(self.dim)]
        return got

    def structure_entries(self):
        """All nonzero (i, j, k, value) triples, row-major in (i, j); a
        tensor product computes each product as it yields it."""
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in self.mul_basis(i, j).items():
                    yield i, j, k, v

    def mul_sparse(self, x: SparseVec, y: SparseVec) -> SparseVec:
        """x y = sum_j y_j (x e_j)."""
        return _on_legs([self.mul_by_basis(x, j).items() for j in y], self.dim, enumerate(y.values()))

    def mul_by_basis(self, x: SparseVec, j: int) -> SparseVec:
        """x e_j"""
        return self._legs(x.items(), j, True)

    def basis_times(self, i: int, y: SparseVec) -> SparseVec:
        """e_i y"""
        return self._legs(y.items(), i, False)

    def content_key(self):
        """The multiplication table as a hashable value, built once: equal
        keys mean equal products.  It is the n x n^2 Matrix whose column
        i*n + j is e_i e_j, so its hash is fixed at construction; a tensor
        product, which has no table, is keyed by its factors' keys."""
        return self._key

    def opposite(self) -> "Algebra":
        table = {}
        for i in range(self.dim):
            for j in range(self.dim):
                p = self.mul_basis(j, i)
                if p:
                    table[(i, j)] = dict(p)
        out = Algebra(self.dim, list(self.basis_labels), table)
        out._unit = self.checked_unit()
        return out

    def __repr__(self):
        return f"Algebra(dim={self.dim})"


class Multiplier:
    """A pair (left action, right action) on an algebra: the concrete
    form of an element of the multiplier algebra M(A), to which it
    belongs when `law_failures` yields nothing.  The engine holds every
    multiplier it builds in this form: E on the tensor square, each
    S(e_a) on A, and F1..F4 on the twisted squares A (x) A^op and
    A^op (x) A."""

    __slots__ = ("parent", "left", "right")

    def __init__(self, parent: Algebra, left: Matrix, right: Matrix):
        self.parent = parent
        self.left = left
        self.right = right

    @staticmethod
    def unit(parent: Algebra) -> "Multiplier":
        ident = Matrix.identity(parent.dim)
        return Multiplier(parent, ident, ident)

    @staticmethod
    def of_element(parent: Algebra, x: SparseVec) -> "Multiplier":
        """x embedded in M(A): left action y -> xy, right action y -> yx."""
        n = parent.dim
        return Multiplier(parent,
                          Matrix.from_sparse_cols(n, [parent.mul_by_basis(x, j) for j in range(n)]),
                          Matrix.from_sparse_cols(n, [parent.basis_times(i, x) for i in range(n)]))

    def law_failures(self) -> Iterator[Tuple[str, int, int]]:
        """The violated module laws in walk order, as (law, i, j): at each
        basis pair (i, j) the left law left(e_i e_j) = left(e_i) e_j, then
        the right law right(e_i e_j) = e_i right(e_j), then the link law
        e_i left(e_j) = right(e_i) e_j.

        With a checked unit u the walk is read off x = left(u): every law
        holds exactly when left = L_x and right = R_x (y -> xy, y -> yx).
        If they are, each law is an instance of associativity.  If the
        laws hold, left(y) = left(uy) = left(u)y by the left law, and
        right(y) = right(y)u = y left(u) by the link law at (y, u).  So
        2·dim products stand for 3·dim^2 law tests, and on any mismatch
        the walk runs."""
        a = self.parent

        def at_unit() -> bool:
            u = a.checked_unit()
            return u is not None and self == Multiplier.of_element(a, self.left.apply_sparse(u))
        return unless_at_unit(at_unit, self._law_walk())

    def _law_walk(self) -> Iterator[Tuple[str, int, int]]:
        a = self.parent
        lcols = [dict(self.left.col_sparse(j)) for j in range(a.dim)]
        rcols = [dict(self.right.col_sparse(j)) for j in range(a.dim)]
        for i in range(a.dim):
            li = lcols[i]
            ri = rcols[i]
            for j in range(a.dim):
                prod = a.mul_basis(i, j)
                if self.left.apply_sparse(prod) != a.mul_by_basis(li, j):
                    yield "left", i, j
                if self.right.apply_sparse(prod) != a.basis_times(i, rcols[j]):
                    yield "right", i, j
                if a.basis_times(i, lcols[j]) != a.mul_by_basis(ri, j):
                    yield "link", i, j

    def compatibility_failure(self) -> Optional[str]:
        """The first violated module law, by name, or None."""
        for law, i, j in self.law_failures():
            return f"{law} law fails at ({i},{j})"
        return None

    def __mul__(self, other: "Multiplier") -> "Multiplier":
        if other.parent is not self.parent:
            raise ParentMismatch("multipliers over different algebras")
        return Multiplier(self.parent, self.left * other.left, other.right * self.right)

    def __eq__(self, other):
        return isinstance(other, Multiplier) and self.left == other.left \
            and self.right == other.right

    def coords(self) -> SparseVec:
        """Flat coordinates (left columns then right columns), for spans,
        as a sparse vector."""
        out: SparseVec = {}
        for m, base in ((self.left, 0), (self.right, self.left.rows * self.left.cols)):
            for j, col in enumerate(m._sparse_cols()):
                for i, v in col:
                    out[base + j * m.rows + i] = v
        return out

    def __repr__(self):
        return f"Multiplier(dim={self.parent.dim})"


def as_elements(a: Algebra, ms: List[Multiplier], store) -> List[Optional[SparseVec]]:
    """The element x of A with left = L_x and right = R_x for each multiplier
    of a in ms, or None where there is none.  The system x e_j = left(e_j),
    e_j x = right(e_j) is one for all of ms: its echelon is read through store
    (`coproducts.RunCache`), and each multiplier is one back-substitution."""
    n = a.dim
    # constraint 2(j·n + k) is row k of x -> x e_j, 2(j·n + k) + 1 of x -> e_j x
    system = Matrix.from_sparse_cols(n, [row for right, left in _product_rows(a)
                                         for k in range(n) for row in (right[k], left[k])]
                                     ).transpose()
    ech = store.echelon(system)
    if ech.rank < n:
        return [None] * len(ms)
    return [ech.solve_sparse({2 * (j * n + k) + side: v
                              for side, act in enumerate((m.left, m.right))
                              for j in range(n) for k, v in act.col_sparse(j)})
            for m in ms]


def validate_algebra(a: Algebra, store) -> Tuple[List[CheckResult], Optional[SparseVec]]:
    """The associativity, non-degeneracy and idempotency (A^2 = A) results
    of a, and its unit or None; every span is eliminated through store, the
    run's `coproducts.RunCache`.

    The unit is solved first: it is the embedded unit multiplier, as local
    units for the whole basis amount to a unit, and the solve checks
    u e_j = e_j = e_j u literally.  A unit settles the other two checks by
    bilinearity alone: x A = 0 gives x = x u = sum_j u_j (x e_j) = 0 (A x = 0
    likewise), and e_j = e_j u lies in A^2.  So their spans are eliminated
    only when there is no unit; a unit is never ambiguous, since y e_j = 0
    for every j gives y = y u = 0."""
    n, labels = a.dim, a.basis_labels

    def associativity_failures():
        for i, j in product(range(n), repeat=2):
            ij = a.mul_basis(i, j)
            for k in range(n):
                if a.mul_by_basis(ij, k) != a.basis_times(i, a.mul_basis(j, k)):
                    yield f"associativity fails at basis triple {(labels[i], labels[j], labels[k])}"

    def degeneracy_failures():
        # x with x*A = 0: kernel of the stacked right-multiplication operators
        # (rows of x -> x e_j over j), then x with A*x = 0 likewise
        prows = _product_rows(a)
        for side, what in ((0, "x*A = 0"), (1, "A*x = 0")):
            if store.span(n, (r for rows in prows for r in rows[side])).dim < n:
                yield f"nonzero x with {what}"

    assoc = _first_failures(associativity_failures(), {"algebra-associative": "structure tensor is associative"})[0]
    unit = as_elements(a, [Multiplier.unit(a)], store)[0]
    nondeg = _first_failures(() if unit is not None else degeneracy_failures(),
                             {"algebra-nondegenerate": "product is non-degenerate"})[0]
    idem = check("algebra-idempotent", unit is not None or store.span(
        n, (a.mul_basis(i, j) for i, j in product(range(n), repeat=2))).dim == n,
        "products span the algebra", "products do not span the algebra")
    a._unit = unit if assoc.status == PASS else None
    return [assoc, nondeg, idem], unit


def _product_rows(a: Algebra) -> list:
    """Per basis index j, the rows of the maps x -> x e_j and x -> e_j x:
    row k of each is the sparse vector i -> the e_k coefficient of e_i e_j
    (of e_j e_i)."""
    n = a.dim
    out = [([{} for _ in range(n)], [{} for _ in range(n)]) for _ in range(n)]
    for i, j, k, v in a.structure_entries():
        out[j][0][k][i] = v
        out[i][1][k][j] = v
    return out


def flip_map(dim: int) -> Matrix:
    """The flip sigma(e_i (x) e_j) = e_j (x) e_i on a dim^2 space."""
    return Matrix.permutation([j * dim + i for i in range(dim) for j in range(dim)])


def is_isomorphism(source: Algebra, s: Matrix, s_inv: Matrix, target: Algebra) -> bool:
    """Whether s is an algebra isomorphism from source onto target with
    inverse s_inv: s s_inv = s_inv s = 1 and s(e_i e_j) = s(e_i) s(e_j)
    in target's table on every basis pair.  Literal equalities, tested
    cheapest first, so nothing about s is assumed."""
    n = source.dim
    ident = Matrix.identity(n)
    if s * s_inv != ident or s_inv * s != ident:
        return False
    cols = [dict(s.col_sparse(i)) for i in range(n)]
    return all(s.apply_sparse(source.mul_basis(i, j)) == target.mul_sparse(cols[i], cols[j])
               for i, j in product(range(n), repeat=2))


def star_on(j: Matrix, vec: SparseVec) -> SparseVec:
    """x* = J conj(x) for a sparse vector x, with j the star matrix J on the
    algebra or J (x) J on its tensor square."""
    return j.apply_sparse({k: v.conj() for k, v in vec.items()})


def validate_star(j: Matrix, a: Algebra) -> CheckResult:
    """The star-structure result of x* = J conj(x), J the star matrix j, on
    a: it fails at the first pair that breaks anti-multiplicativity, else
    at involutivity.

    Read as two matrix identities on a's n x n^2 structure matrix M (its
    content key), column p n + q the product e_p e_q: the two sides at
    (p, q) are column p n + q of J conj(M) and of M s (J (x) J), s the flip,
    as e_q* e_p* = M(J e_q (x) J e_p); involutivity is conj(J) J = I.  They
    compare the walk's values, so the walk runs on a mismatch.  Like every
    reading, this one is off without a checked unit."""
    n = a.dim
    if j.rows != n or j.cols != n:
        raise DimensionMismatch("star matrix must be square of the algebra dimension")

    def failures():
        stars = [star_on(j, {p: ONE}) for p in range(n)]
        for p, q in product(range(n), repeat=2):
            if star_on(j, a.mul_basis(p, q)) != a.mul_sparse(stars[q], stars[p]):
                yield f"(e{p} e{q})* != e{q}* e{p}*"
        if j.conj() * j != Matrix.identity(n):
            yield "star fails involutivity"

    def at_unit() -> bool:
        m = a.content_key()
        return a.checked_unit() is not None and j * m.conj() == m * flip_map(n) * j.kron(j) \
            and j.conj() * j == Matrix.identity(n)
    return _first_failures(unless_at_unit(at_unit, failures()),
                           {"star-structure": "star is involutive and anti-multiplicative"})[0]

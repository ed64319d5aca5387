"""Finite-dimensional algebras given by structure constants.

Products are held sparsely per basis pair; tensor squares fill their
tables lazily, which keeps the triple-tensor-product computations in
the verification suites affordable.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .linalg import DimensionMismatch, Echelon, Matrix
from .report import PASS, CheckResult, _first_failures
from .scalars import ONE, ZERO, Scalar, _accumulate, _settle


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


def _on_legs(cols: list, rows: int, x, s: int = 1) -> SparseVec:
    """Apply an operator to one block of adjacent legs of a sparse tensor
    vector, given as its (index, value) pairs x.  The operator is the list
    cols of its sparse columns, one iterable of (row, value) pairs per
    input index, with `rows` output indices.

    Tensor vectors use the row-major index of Algebra.tensor: the index of
    e_i (x) e_j (x) e_k in A (x) B (x) C is (i·dim B + j)·dim C + k.  Write
    an index as (hi·m_in + mid)·s + lo with m_in = len(cols), where mid
    indexes the acted-on block and s is the product of the dimensions of
    the legs after it; the operator sends it to the sum of
    cols[mid][row]·((hi·rows + row)·s + lo).  So on A (x) A, s = dim A
    acts on the first leg and s = 1 on the second."""
    m_in = len(cols)
    acc: dict = {}
    if s == 1:                  # the last legs: lo is always 0
        for idx, coeff in x:
            hi, mid = divmod(idx, m_in)
            _accumulate(acc, cols[mid], coeff, None, hi * rows)
    else:
        for idx, coeff in x:
            hm, lo = divmod(idx, s)
            hi, mid = divmod(hm, m_in)
            _accumulate(acc, cols[mid], coeff, None, hi * rows * s + lo, s)
    return _settle(acc)


def unless_at_unit(at_unit: Callable[[], bool], walk: Iterator) -> Iterator:
    """The failures that walk yields, or none when at_unit() is True.
    at_unit tests literally an identity at the checked unit that implies,
    by associativity, every identity the walk tests; each caller's
    docstring gives the argument.  When it is False, as it is without a
    checked unit, the walk runs unchanged, failures and order included."""
    if not at_unit():
        yield from walk


class Algebra:
    """Associative algebra with basis e_0..e_{n-1} and products
    e_i e_j = sum_k m[i][j][k] e_k."""

    def __init__(self, dim: int, basis_labels: List[str]):
        self.dim = dim
        self.basis_labels = basis_labels
        self._table: Dict[Tuple[int, int], SparseVec] = {}
        self._factors: Optional[Tuple["Algebra", "Algebra"]] = None
        self._cols: Dict[tuple, list] = {}
        self._unit: Optional[SparseVec] = None

    @staticmethod
    def from_structure(dim: int, basis_labels: Optional[List[str]], entries) -> "Algebra":
        """entries: iterable of (i, j, k, Scalar)."""
        a = Algebra(dim, basis_labels or [f"e{i}" for i in range(dim)])
        for i, j, k, v in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch(f"structure index ({i},{j},{k}) out of range")
            if v:
                a._table.setdefault((i, j), {})[k] = v
        return a

    @staticmethod
    def tensor(a: "Algebra", b: "Algebra") -> "Algebra":
        """Tensor product with the row-major index (i, j) -> i*dim(b)+j."""
        t = Algebra(a.dim * b.dim,
                    [f"{la}(x){lb}" for la in a.basis_labels for lb in b.basis_labels])
        t._factors = (a, b)
        return t

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
        got = self._table.get((i, j))
        if got is not None:
            return got
        if self._factors is None:
            return {}
        a, b = self._factors
        db = b.dim
        i1, i2 = divmod(i, db)
        j1, j2 = divmod(j, db)
        out: SparseVec = {}
        p = a.mul_basis(i1, j1)
        if p:
            q = b.mul_basis(i2, j2)
            for k1, v1 in p.items():
                for k2, v2 in q.items():
                    w = v1 * v2
                    if w:
                        out[k1 * db + k2] = w
        self._table[(i, j)] = out
        return out

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
        """All nonzero (i, j, k, value) triples (forces lazy table)."""
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in self.mul_basis(i, j).items():
                    yield i, j, k, v

    def mul_sparse(self, x: SparseVec, y: SparseVec) -> SparseVec:
        acc: dict = {}
        mul_basis = self.mul_basis
        for i, xi in x.items():
            for j, yj in y.items():
                _accumulate(acc, mul_basis(i, j).items(), xi, yj)
        return _settle(acc)

    def mul_by_basis(self, x: SparseVec, j: int) -> SparseVec:
        """x e_j"""
        acc: dict = {}
        for i, xi in x.items():
            _accumulate(acc, self.mul_basis(i, j).items(), xi)
        return _settle(acc)

    def basis_times(self, i: int, y: SparseVec) -> SparseVec:
        """e_i y"""
        acc: dict = {}
        for j, yj in y.items():
            _accumulate(acc, self.mul_basis(i, j).items(), yj)
        return _settle(acc)

    def content_key(self) -> tuple:
        """The multiplication table as a hashable value: equal keys mean
        equal products.  A tensor product is keyed by its factors' keys."""
        if self._factors is not None:
            a, b = self._factors
            return ("tensor", a.content_key(), b.content_key())
        return (self.dim, tuple(sorted((ij, tuple(sorted(p.items())))
                                       for ij, p in self._table.items() if p)))

    def opposite(self) -> "Algebra":
        out = Algebra(self.dim, list(self.basis_labels))
        out._table = {}
        for i in range(self.dim):
            for j in range(self.dim):
                p = self.mul_basis(j, i)
                if p:
                    out._table[(i, j)] = dict(p)
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


class AlgebraDiagnostics:
    def __init__(self, associativity: CheckResult,
                 nondegenerate: bool, degeneracy_witness: Optional[str],
                 idempotent: bool, unit: Optional[SparseVec]):
        self.associativity = associativity
        self.associative = associativity.status == PASS
        self.nondegenerate = nondegenerate
        self.degeneracy_witness = degeneracy_witness
        self.idempotent = idempotent
        self.unit = unit


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
                              for j in range(n) for k, v in act.col_sparse(j)}, system)
            for m in ms]


def validate_algebra(a: Algebra, store) -> AlgebraDiagnostics:
    """Associativity, non-degeneracy, idempotency (A^2 = A), unit search;
    store is the run's `coproducts.RunCache`."""
    labels = a.basis_labels

    def associativity_failures():
        for i, j in product(range(a.dim), repeat=2):
            ij = a.mul_basis(i, j)
            for k in range(a.dim):
                if a.mul_by_basis(ij, k) != a.basis_times(i, a.mul_basis(j, k)):
                    yield f"associativity fails at basis triple {(labels[i], labels[j], labels[k])}"
    assoc = _first_failures(associativity_failures(), {
        "algebra-associative": "structure tensor is associative"})[0]

    # x with x*A = 0: kernel of the stacked right-multiplication operators
    # (rows of x -> x e_j over j), then x with A*x = 0 likewise
    prows = _product_rows(a)
    nondeg = True
    deg_witness = None
    if store.span(a.dim, (r for right, _ in prows for r in right)).dim < a.dim:
        nondeg = False
        deg_witness = "nonzero x with x*A = 0"
    elif store.span(a.dim, (r for _, left in prows for r in left)).dim < a.dim:
        nondeg = False
        deg_witness = "nonzero x with A*x = 0"

    span = Echelon(Matrix.zero(0, a.dim))
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.mul_basis(i, j)
            if prod:
                span.insert(prod)
        if span.rank == a.dim:
            break
    idem = span.rank == a.dim

    # the unit is the embedded unit multiplier: local units for the whole
    # basis amount to a unit, and a unit u is never ambiguous, since
    # y e_j = 0 for every j gives y = y u = 0
    unit = as_elements(a, [Multiplier.unit(a)], store)[0]
    a._unit = unit if assoc.status == PASS else None
    return AlgebraDiagnostics(assoc, nondeg, deg_witness, idem, unit)


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


class StarStructure:
    """Conjugate-linear involution: (sum c_i e_i)* = sum conj(c_i) J e_i."""

    def __init__(self, parent: Algebra, star_matrix: Matrix):
        self.parent = parent
        self.star_matrix = star_matrix


def star_on(j: Matrix, vec: SparseVec) -> SparseVec:
    """x* = J conj(x) for a sparse vector x, with j the star matrix J on the
    algebra or J (x) J on its tensor square."""
    return j.apply_sparse({k: v.conj() for k, v in vec.items()})


def validate_star(s: StarStructure, a: Algebra) -> CheckResult:
    """The star-structure result of s on a: it fails at the first pair
    that breaks anti-multiplicativity, else at involutivity."""
    if s.star_matrix.rows != a.dim or s.star_matrix.cols != a.dim:
        raise DimensionMismatch("star matrix must be square of the algebra dimension")
    j = s.star_matrix
    stars = [star_on(j, {p: ONE}) for p in range(a.dim)]

    def failures():
        for p, q in product(range(a.dim), repeat=2):
            if star_on(j, a.mul_basis(p, q)) != a.mul_sparse(stars[q], stars[p]):
                yield f"(e{p} e{q})* != e{q}* e{p}*"
        if j.conj() * j != Matrix.identity(a.dim):
            yield "star fails involutivity"
    return _first_failures(failures(), {"star-structure": "star is involutive and anti-multiplicative"})[0]

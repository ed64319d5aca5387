"""Exact linear algebra over Q(i): one incremental reduced-echelon
engine (Echelon), canonical subspaces as its sorted view, ranks,
kernels, solvers, and generalized inverses of linear maps with
prescribed range and kernel projections.

Matrices and echelon rows are held densely; every sum of products
(products, applications, row reductions, back-substitution) is one
accumulation in the `scalars` kernel, reduced once per output entry.
Everything is exact.  Pivoting rules are fixed (first nonzero entry in
scan order) so repeated runs produce identical witnesses.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .scalars import (ONE, ZERO, Scalar, _accumulate, _dot, _settle,
                      _sub_mul)


class DimensionMismatch(Exception):
    pass


class Infeasible(Exception):
    """A linear constraint system has no solution."""


class BadProjections(Exception):
    """The projection pair handed to generalized_inverse is unusable;
    the message names the violated condition."""


class InvariantViolation(Exception):
    """An identity that exact elimination guarantees came out false: a
    fault in the engine, never a property of the input."""


class Matrix:
    """Dense matrix of Scalars.  Treated as immutable once built."""

    __slots__ = ("rows", "cols", "data", "_colcache")

    def __init__(self, rows: int, cols: int, data):
        self.rows = rows
        self.cols = cols
        self.data = data  # list of row lists
        self._colcache = None

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix.zero(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        rows = [list(r) for r in rows]
        return Matrix(len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "Matrix":
        if not cols:
            return Matrix.zero(rows or 0, 0)
        n = len(cols[0])
        m = Matrix.zero(n, len(cols))
        for j, c in enumerate(cols):
            for i, v in enumerate(c):
                m.data[i][j] = v
        return m

    @staticmethod
    def permutation(perm: Sequence[int]) -> "Matrix":
        """Matrix sending basis vector j to basis vector perm[j]."""
        n = len(perm)
        m = Matrix.zero(n, n)
        for j, i in enumerate(perm):
            m.data[i][j] = ONE
        return m

    def col(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def col_sparse(self, j: int) -> list:
        """The nonzero (row, value) pairs of column j."""
        cols = self._colcache
        if cols is None:
            cols = self._sparse_cols()
        return cols[j]

    def _sparse_cols(self) -> list:
        """col_sparse(j) for every column j, built in one pass and cached."""
        cols = self._colcache
        if cols is None:
            cols = self._colcache = [_nonzeros(col) for col in zip(*self.data)] \
                if self.rows else [[] for _ in range(self.cols)]
        return cols

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def conj(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      [[v.conj() for v in row] for row in self.data])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.data == other.data

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def __add__(self, other):
        self._check_shape(other)
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_shape(other)
        return Matrix(self.rows, self.cols,
                      [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def scale(self, s: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, [[s * v for v in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # column j of the product is Σ_k other[k][j]·(column k of self),
        # over the nonzeros of both, held in their column caches; the
        # product's own column cache comes out on the way
        out = Matrix.zero(self.rows, other.cols)
        odata = out.data
        acols = self._sparse_cols()
        ocols = out._colcache = []
        for j, bcol in enumerate(other._sparse_cols()):
            acc: dict = {}
            for k, b in bcol:
                _accumulate(acc, acols[k], b)
            col = sorted(_settle(acc).items()) if acc else []
            for i, v in col:
                odata[i][j] = v
            ocols.append(col)
        return out

    def apply(self, vec: Sequence[Scalar]) -> list:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        return _dense(self.apply_sparse(dict(_nonzeros(vec))), self.rows)

    def apply_sparse(self, vec: dict) -> dict:
        acc: dict = {}
        cols = self._sparse_cols()
        for j, x in vec.items():
            _accumulate(acc, cols[j], x)
        return _settle(acc)

    def is_zero(self) -> bool:
        return all(v is ZERO or not v for row in self.data for v in row)

    def kron(self, other: "Matrix") -> "Matrix":
        """Tensor (Kronecker) product, row-major index convention."""
        out = Matrix.zero(self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if not a:
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        b = other.data[k][l]
                        if b:
                            out.data[i * other.rows + k][j * other.cols + l] = a * b
        return out

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _nonzeros(row: Sequence[Scalar]) -> list:
    """The (index, value) pairs of the nonzero entries of a dense row."""
    return [(j, v) for j, v in enumerate(row) if v is not ZERO and v]


def _dense(sparse: dict, n: int) -> list:
    out = [ZERO] * n
    for i, v in sparse.items():
        out[i] = v
    return out


def _combination(terms, rows: int, cols: int) -> Matrix:
    """Σ c·M over the (c, M) pairs of terms, one kernel sum per entry."""
    acc: dict = {}
    for c, m in terms:
        _accumulate(acc, ((i * cols + j, v) for i, row in enumerate(m.data)
                          for j, v in _nonzeros(row)), c)
    out = Matrix.zero(rows, cols)
    for k, v in _settle(acc).items():
        out.data[k // cols][k % cols] = v
    return out


class Echelon:
    """Incremental reduced row echelon form: the one elimination loop of
    the package.

    Rows are inserted in order.  A row's pivot is its first nonzero entry
    in the column order (identity by default); the row is scaled to a unit
    pivot and its pivot column cleared from every other row, so the
    reduced rows depend only on the span and the column order.  A
    `solvable` factorisation also records each reduced row as a
    combination of the input rows, which `solve` needs; solutions put free
    variables to zero, which makes preimage choices canonical.

    Because every reduced row is zero in the other pivot columns, an
    incoming row's pivot-column entries are the coefficients of its whole
    reduction, which is therefore one kernel sum.
    """

    def __init__(self, matrix: Matrix, col_order: Optional[Sequence[int]] = None,
                 solvable: bool = False):
        self.ncols = matrix.cols
        self.col_order = list(col_order) if col_order is not None else list(range(matrix.cols))
        self.pivot_cols: list = []
        self.rrows: list = []  # reduced rows: unit pivot, zeros in the other pivot columns
        self._rnz: list = []   # the nonzero (column, value) pairs of each reduced row
        # per reduced row, the input rows it combines (index -> coefficient)
        self.ops: Optional[list] = [] if solvable else None
        self._nrows_in = 0
        for row in matrix.data:
            self.insert(row)

    def _reduce(self, vec: Sequence[Scalar], op: Optional[dict]):
        """vec − Σ_p vec[pc_p]·rrow_p, which is zero in every pivot column,
        as a new dense row, and op − Σ_p vec[pc_p]·ops_p when op is given."""
        hits = [(p, -vec[pc]) for p, pc in enumerate(self.pivot_cols)
                if vec[pc] is not ZERO and vec[pc]]
        if not hits:
            return list(vec), op
        acc: dict = {}
        _accumulate(acc, _nonzeros(vec))
        for p, c in hits:
            _accumulate(acc, self._rnz[p], c)
        if op is not None:
            oacc: dict = {}
            _accumulate(oacc, op.items())
            for p, c in hits:
                _accumulate(oacc, self.ops[p].items(), c)
            op = _settle(oacc)
        return _dense(_settle(acc), self.ncols), op

    def insert(self, vec: Sequence[Scalar]) -> bool:
        """Add a row; True when the rank grew."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"row length {len(vec)} vs {self.ncols} columns")
        op = None
        if self.ops is not None:
            op = {self._nrows_in: ONE}
            self._nrows_in += 1
        row, op = self._reduce(vec, op)
        piv = next((j for j in self.col_order if row[j] is not ZERO and row[j]), None)
        if piv is None:
            return False
        nz = _nonzeros(row)
        inv = row[piv]
        if inv != ONE:
            nz = [(j, v / inv) for j, v in nz]
            row = _dense(dict(nz), self.ncols)
            if op is not None:
                op = {k: v / inv for k, v in op.items()}
        for p, rrow in enumerate(self.rrows):
            c = rrow[piv]
            if c is not ZERO and c:
                for j, v in nz:
                    rrow[j] = _sub_mul(rrow[j], c, v)
                self._rnz[p] = _nonzeros(rrow)
                if op is not None:
                    self.ops[p] = _sub_scaled(self.ops[p], op, c)
        self.pivot_cols.append(piv)
        self.rrows.append(row)
        self._rnz.append(nz)
        if op is not None:
            self.ops.append(op)
        return True

    def contains(self, vec: Sequence[Scalar]) -> bool:
        """True when vec lies in the span of the inserted rows."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        return not any(self._reduce(vec, None)[0])

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def solve(self, rhs: Sequence[Scalar], matrix: Matrix) -> Optional[list]:
        """One solution of matrix @ x = rhs with free variables zero, or
        None when infeasible.  `matrix` must be the factored matrix."""
        sparse = {i: v for i, v in enumerate(rhs) if v is not ZERO and v}
        sol = self.solve_sparse(sparse, matrix)
        if sol is None:
            return None
        out = [ZERO] * self.ncols
        for i, v in sol.items():
            out[i] = v
        return out

    def solve_sparse(self, rhs: dict, matrix: Matrix) -> Optional[dict]:
        """Sparse variant of solve: rhs and the result are index->Scalar
        maps; None when infeasible."""
        if self.ops is None:
            raise TypeError("solving needs an Echelon built with solvable=True")
        x: dict = {}
        for p, op in enumerate(self.ops):
            pairs = [(v, rhs[k]) for k, v in op.items() if k in rhs]
            if pairs:
                s = _dot(pairs)
                if s:
                    x[self.pivot_cols[p]] = s
        # feasibility: matrix @ x must reproduce rhs exactly
        if matrix.apply_sparse(x) != rhs:
            return None
        return x

    def nullspace(self) -> list:
        """Basis of the kernel, one vector per free column."""
        pivset = set(self.pivot_cols)
        basis = []
        for j in range(self.ncols):
            if j in pivset:
                continue
            v = [ZERO] * self.ncols
            v[j] = ONE
            for p, pc in enumerate(self.pivot_cols):
                c = self.rrows[p][j]
                if c:
                    v[pc] = ZERO - c
            basis.append(v)
        return basis


def _sub_scaled(target: dict, src: dict, c: Scalar) -> dict:
    """target − c·src on sparse vectors, without the entries that cancel."""
    acc: dict = {}
    _accumulate(acc, target.items())
    _accumulate(acc, src.items(), -c)
    return _settle(acc)


class Subspace:
    """Subspace of Q(i)^n: the canonical view of an Echelon in the
    identity column order, its reduced rows sorted by pivot, so equal
    subspaces have identical representations.  The echelon must not grow
    after the view is taken."""

    __slots__ = ("ambient_dim", "basis", "_pivots", "_ech")

    def __init__(self, ech: Echelon):
        order = sorted(range(ech.rank), key=ech.pivot_cols.__getitem__)
        self.ambient_dim = ech.ncols
        self.basis = [ech.rrows[p] for p in order]   # list of vectors (lists of Scalar)
        self._pivots = [ech.pivot_cols[p] for p in order]  # strictly increasing
        self._ech = ech

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        ech = Echelon(Matrix.zero(0, ambient_dim))
        for v in vectors:
            ech.insert(v)
        return Subspace(ech)

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(Echelon(Matrix.identity(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return self._ech.contains(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("comparing subspaces of different ambients")
        return self._pivots == other._pivots and self.basis == other.basis

    def __hash__(self):
        raise TypeError("Subspace is not hashable")

    def leq(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("comparing subspaces of different ambients")
        return all(other.contains(b) for b in self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def column_space(m: Matrix) -> Subspace:
    return Subspace.from_vectors(m.rows, [m.col(j) for j in range(m.cols)])


def rank_image_kernel(t: Matrix):
    """Rank, column space and null space of t (exact)."""
    return _rank_image_kernel(t)[:3]


def _rank_image_kernel(t: Matrix):
    """rank_image_kernel(t), and the Echelon of t whose null space it took."""
    image = Subspace(Echelon(t.transpose()))  # row space of t^T = column space of t
    ech = Echelon(t)
    kernel = Subspace.from_vectors(t.cols, ech.nullspace())
    rank = image.dim
    if rank != ech.rank or rank + kernel.dim != t.cols:
        raise InvariantViolation(
            f"rank-nullity fails: rank {rank} (row rank {ech.rank}), "
            f"nullity {kernel.dim}, {t.cols} columns")
    return rank, image, kernel, ech


def solve_linear(constraints, unknown_dim: int):
    """Solve a list of (row, rhs Scalar) constraints exactly.

    Returns (particular solution, solution Subspace).  Raises Infeasible
    when the constraints contradict each other.
    """
    rows = []
    rhs = []
    for row, b in constraints:
        if len(row) != unknown_dim:
            raise DimensionMismatch(f"constraint row length {len(row)} vs {unknown_dim}")
        rows.append(list(row))
        rhs.append(b)
    if not rows:
        return [ZERO] * unknown_dim, Subspace.full(unknown_dim)
    a = Matrix.from_rows(rows)
    ech = Echelon(a, solvable=True)
    sol = ech.solve(rhs, a)
    if sol is None:
        raise Infeasible("constraint system has no solution")
    return sol, Subspace.from_vectors(unknown_dim, ech.nullspace())


def invert(m: Matrix) -> Optional[Matrix]:
    """The inverse of m, or None when m is not invertible."""
    if m.rows != m.cols:
        return None
    ech = Echelon(m, solvable=True)
    if ech.rank < m.rows:
        return None
    # full rank: reduced row p is the unit row of its pivot column, so the
    # recorded combination of m's rows is that row of the inverse
    out = Matrix.zero(m.rows, m.rows)
    for pc, op in zip(ech.pivot_cols, ech.ops):
        for k, v in op.items():
            out.data[pc][k] = v
    return out


def generalized_inverse(t: Matrix, e: Matrix, f: Matrix) -> Matrix:
    """The unique r with t r = e and r t = f, where e is an idempotent
    projecting onto Ran(t) and 1 - f an idempotent projecting onto Ker(t).

    Also satisfies t r t = t, r t r = r and r (1 - e) = 0.
    """
    n = t.rows
    if t.cols != n or e.rows != n or e.cols != n or f.rows != n or f.cols != n:
        raise DimensionMismatch("generalized_inverse needs square matrices of one size")
    if e * e != e:
        raise BadProjections("e is not idempotent")
    if f * f != f:
        raise BadProjections("f is not idempotent")
    _, image_t, kernel_t, ech_t = _rank_image_kernel(t)
    if column_space(e) != image_t:
        raise BadProjections("image(e) differs from image(t)")
    one_minus_f = Matrix.identity(n) - f
    if column_space(one_minus_f) != kernel_t:
        raise BadProjections("image(1-f) differs from kernel(t)")
    # r is f on vectors t·xi and 0 on Ran(1-e), where the xi are the unit
    # vectors on the pivot columns of t: they span a complement of Ker t
    xis = []
    for pc in sorted(ech_t.pivot_cols):
        x = [ZERO] * n
        x[pc] = ONE
        xis.append(x)
    basis_cols = [t.apply(x) for x in xis]
    values = [f.apply(x) for x in xis]
    comp = Matrix.identity(n) - e
    # extend the t-image columns by independent columns of 1-e to a full basis
    span = Echelon(Matrix.zero(0, n))
    for c in basis_cols:
        span.insert(c)
    for j in range(n):
        c = comp.col(j)
        if span.insert(c):
            basis_cols.append(c)
            values.append([ZERO] * n)
    if len(basis_cols) != n:
        raise BadProjections("Ran(t) and Ran(1-e) do not span the space")
    binv = invert(Matrix.from_cols(basis_cols))
    if binv is None:
        raise InvariantViolation("the extended basis of Ran(t) + Ran(1-e) is singular")
    r = Matrix.from_cols(values) * binv
    if t * r != e:
        raise BadProjections("constructed r fails t r = e")
    if r * t != f:
        raise BadProjections("constructed r fails r t = f")
    return r

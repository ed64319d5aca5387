"""Exact linear algebra over Q(i): one incremental reduced-echelon
engine (Echelon), canonical subspaces as its sorted view, ranks,
kernels, solvers, and generalized inverses of linear maps with
prescribed range and kernel projections.

Everything is dense and exact.  Pivoting rules are fixed (first nonzero
entry in scan order) so repeated runs produce identical witnesses.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .scalars import ONE, ZERO, Scalar


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
        if self._colcache is None:
            self._colcache = [None] * self.cols
        cached = self._colcache[j]
        if cached is None:
            cached = [(i, row[j]) for i, row in enumerate(self.data)
                      if row[j] is not ZERO and row[j]]
            self._colcache[j] = cached
        return cached

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
        out = Matrix.zero(self.rows, other.cols)
        odata = out.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = odata[i]
            for k in range(self.cols):
                a = arow[k]
                if a is ZERO or not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b is not ZERO and b:
                        orow[j] = orow[j] + a * b
        return out

    def apply(self, vec: Sequence[Scalar]) -> list:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        out = [ZERO] * self.rows
        for j, x in enumerate(vec):
            if x is ZERO or not x:
                continue
            for i, v in self.col_sparse(j):
                out[i] = out[i] + v * x
        return out

    def apply_sparse(self, vec: dict) -> dict:
        out: dict = {}
        for j, x in vec.items():
            if not x:
                continue
            for i, v in self.col_sparse(j):
                s = out.get(i, ZERO) + v * x
                if s:
                    out[i] = s
                elif i in out:
                    del out[i]
        return out

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
    """

    def __init__(self, matrix: Matrix, col_order: Optional[Sequence[int]] = None,
                 solvable: bool = False):
        self.ncols = matrix.cols
        self.col_order = list(col_order) if col_order is not None else list(range(matrix.cols))
        self.pivot_cols: list = []
        self.rrows: list = []  # reduced rows: unit pivot, zeros in the other pivot columns
        # per reduced row, the input rows it combines (index -> coefficient)
        self.ops: Optional[list] = [] if solvable else None
        self._nrows_in = 0
        for row in matrix.data:
            self.insert(row)

    def _reduce(self, row: list, op: Optional[dict]) -> None:
        """Clear the pivot columns of row in place; op, when given, takes
        the same row operations."""
        for p, (pc, rrow) in enumerate(zip(self.pivot_cols, self.rrows)):
            c = row[pc]
            if c:
                for j, v in enumerate(rrow):
                    if v:
                        row[j] = row[j] - c * v
                if op is not None:
                    _sub_scaled(op, self.ops[p], c)

    def insert(self, vec: Sequence[Scalar]) -> bool:
        """Add a row; True when the rank grew."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"row length {len(vec)} vs {self.ncols} columns")
        row = list(vec)
        op = None
        if self.ops is not None:
            op = {self._nrows_in: ONE}
            self._nrows_in += 1
        self._reduce(row, op)
        piv = next((j for j in self.col_order if row[j]), None)
        if piv is None:
            return False
        inv = row[piv]
        if inv != ONE:
            row = [v / inv if v else v for v in row]
            if op is not None:
                op = {k: v / inv for k, v in op.items()}
        for p, rrow in enumerate(self.rrows):
            c = rrow[piv]
            if c:
                for j, v in enumerate(row):
                    if v:
                        rrow[j] = rrow[j] - c * v
                if op is not None:
                    _sub_scaled(self.ops[p], op, c)
        self.pivot_cols.append(piv)
        self.rrows.append(row)
        if op is not None:
            self.ops.append(op)
        return True

    def contains(self, vec: Sequence[Scalar]) -> bool:
        """True when vec lies in the span of the inserted rows."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        row = list(vec)
        self._reduce(row, None)
        return not any(row)

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
            s = ZERO
            for k, v in op.items():
                r = rhs.get(k)
                if r is not None:
                    s = s + v * r
            if s:
                x[self.pivot_cols[p]] = s
        # feasibility: matrix @ x must reproduce rhs exactly
        chk: dict = {}
        for j, xv in x.items():
            for i, v in matrix.col_sparse(j):
                t = chk.get(i, ZERO) + v * xv
                if t:
                    chk[i] = t
                elif i in chk:
                    del chk[i]
        if chk != rhs:
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


def _sub_scaled(target: dict, src: dict, c: Scalar) -> None:
    """target -= c * src on sparse vectors, dropping entries that cancel."""
    for k, v in src.items():
        s = target.get(k, ZERO) - c * v
        if s:
            target[k] = s
        elif k in target:
            del target[k]


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

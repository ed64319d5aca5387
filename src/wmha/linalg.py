"""Exact linear algebra over Q(i): one incremental reduced-echelon
engine (Echelon), canonical subspaces as its sorted view, ranks,
kernels, solvers, and generalized inverses of linear maps with
prescribed range and kernel projections.

Only nonzeros are stored.  A Matrix is its list of columns, each the
row-sorted (row, value) pairs of its nonzero entries; echelon rows and
subspace bases are dicts from column to nonzero value.  Vectors go in
as such dicts only: `Echelon.insert` and `contains`,
`Subspace.from_vectors`, `solve_linear` and `solve_sparse` take nothing
else; `solve_sparse` returns one, and `col_sparse` a column's pairs.  A
solvable Echelon holds the matrix it factors, so a solve is handed the
right-hand side alone; a span Echelon holds its reduced rows only.
Dense lists exist only at the boundaries: `from_rows` scans its input
once for its nonzeros, and `dense_rows`, `Subspace.basis` and
`solve_linear`'s particular solution hand out fresh dense copies.  Every
sum of products (products, applications, row reductions,
back-substitution) is one accumulation in the `scalars` kernel, reduced
once per output entry, save where `scalars._on_legs` skips the kernel
(an empty column, a lone column with coefficient 1); and a product
column B[:, j] = e_k is column k of A itself, shared: no column is
ever written.
Everything is exact.  Pivoting rules are fixed (the nonzero entry first
in the column order) so repeated runs produce identical witnesses.
A Matrix and a Subspace are hashable, each with its hash fixed at
construction, and equal by content: they are their own run-store keys.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .scalars import ONE, ZERO, Scalar, _accumulate, _dot, _is_one, _on_legs, _settle


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


_MINUS_ONE = -ONE


class Matrix:
    """Sparse matrix of Scalars: its shape and its columns, column j the
    list of (row, value) pairs of its nonzero entries in row order (Gustavson's
    column-oriented storage).  Immutable once built, so columns are shared
    between matrices freely; every operation reads the columns only.
    Hashable: the hash, of the shape and the column lengths, is fixed at
    construction, and equality is by content."""

    __slots__ = ("rows", "cols", "_columns", "_hash")

    def __init__(self, rows: int, cols: int, columns: list):
        self.rows = rows
        self.cols = cols
        self._columns = columns
        self._hash = hash((rows, cols, *map(len, columns)))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[] for _ in range(cols)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [[(i, ONE)] for i in range(n)])

    @staticmethod
    def permutation(perm: Sequence[int]) -> "Matrix":
        """Matrix sending basis vector j to basis vector perm[j]."""
        return Matrix(len(perm), len(perm), [[(i, ONE)] for i in perm])

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        """From dense rows, all of one length."""
        rows = list(rows)
        ncols = len(rows[0]) if rows else 0
        columns: list = [[] for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionMismatch(f"row {i} has length {len(row)}, row 0 has {ncols}")
            for j, v in _nonzeros(row):
                columns[j].append((i, v))
        return Matrix(len(rows), ncols, columns)

    @staticmethod
    def from_sparse_cols(rows: int, cols: Sequence[dict]) -> "Matrix":
        """From sparse columns, each a dict row -> value without zeros."""
        return Matrix(rows, len(cols), [sorted(c.items()) for c in cols])

    @staticmethod
    def from_entries(rows: int, cols: int, entries: dict) -> "Matrix":
        """From a dict (row, col) -> value of entries; zeros are dropped."""
        columns: list = [[] for _ in range(cols)]
        for (i, j), v in sorted(entries.items()):
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            if v:
                columns[j].append((i, v))
        return Matrix(rows, cols, columns)

    def col_sparse(self, j: int) -> list:
        """The nonzero (row, value) pairs of column j, in row order."""
        return self._columns[j]

    def _sparse_cols(self) -> list:
        """col_sparse(j) for every column j."""
        return self._columns

    def _sparse_rows(self) -> list:
        """Every row as a fresh dict column -> value of its nonzeros, in
        column order."""
        rows: list = [{} for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, v in col:
                rows[i][j] = v
        return rows

    def dense_rows(self) -> list:
        """The rows as fresh dense lists."""
        return [_dense(r.items(), self.cols) for r in self._sparse_rows()]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, [list(r.items()) for r in self._sparse_rows()])

    def conj(self) -> "Matrix":
        """The entrywise conjugate: the matrix itself, which is immutable,
        when no entry has an imaginary part."""
        if not any(v._b for col in self._columns for _, v in col):
            return self
        return Matrix(self.rows, self.cols,
                      [[(i, v.conj()) for i, v in col] for col in self._columns])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._hash == other._hash and (self.rows, self.cols) == (other.rows, other.cols) \
            and self._columns == other._columns

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return self._plus(other, ONE)

    def __sub__(self, other):
        return self._plus(other, _MINUS_ONE)

    def _plus(self, other: "Matrix", c: Scalar) -> "Matrix":
        """self + c·other, column by column."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = []
        for ca, cb in zip(self._columns, other._columns):
            if not cb or not ca and c is ONE:
                out.append(ca or cb)
            else:
                out.append(sorted(_on_legs((ca, cb), self.rows, ((0, ONE), (1, c))).items()))
        return Matrix(self.rows, self.cols, out)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # column j of the product is Σ_k other[k][j]·(column k of self), and
        # column k itself, shared, when column j of other is e_k
        acols = self._columns
        out = []
        for bcol in other._columns:
            if len(bcol) == 1 and _is_one(bcol[0][1]):
                out.append(acols[bcol[0][0]])
            else:
                out.append(sorted(_on_legs(acols, self.rows, bcol).items()) if bcol else [])
        return Matrix(self.rows, other.cols, out)

    def apply_sparse(self, vec: dict) -> dict:
        return _on_legs(self._columns, self.rows, vec.items())

    def kron(self, other: "Matrix") -> "Matrix":
        """Tensor (Kronecker) product, row-major index convention."""
        r = other.rows
        return Matrix(self.rows * r, self.cols * other.cols,
                      [[(i * r + k, a * b) for i, a in ca for k, b in cb]
                       for ca in self._columns for cb in other._columns])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _nonzeros(row: Sequence[Scalar]) -> list:
    """The (index, value) pairs of the nonzero entries of a dense row."""
    return [(j, v) for j, v in enumerate(row) if v is not ZERO and v]


def _dense(pairs, n: int) -> list:
    """The dense vector of length n with the given (index, value) pairs."""
    out = [ZERO] * n
    for i, v in pairs:
        out[i] = v
    return out


def _combination(terms, rows: int, cols: int) -> Matrix:
    """Σ c·M over the (c, M) pairs of terms, one kernel sum per column."""
    terms = list(terms)
    coeffs = [(t, c) for t, (c, _) in enumerate(terms)]
    return Matrix(rows, cols, [sorted(_on_legs([m._columns[j] for _, m in terms], rows, coeffs).items())
                               for j in range(cols)])


class Echelon:
    """Incremental reduced row echelon form: the one elimination loop of
    the package.

    Rows are inserted in order as dicts column -> nonzero value, and
    reduced rows are held as dicts.  A row's pivot is its nonzero column
    first in the column order (a permutation of the columns, identity by
    default); the row is scaled to a unit pivot and its pivot column
    cleared from every other row, so the reduced rows depend only on the
    span and the column order.  A `solvable` factorisation also keeps the
    matrix it factors and records each reduced row as a combination of
    its rows: `solve_sparse(rhs)` back-substitutes with free variables
    zero, which makes preimage choices canonical, and checks the solution
    against that matrix, refusing once a row was inserted after it.  A
    span echelon, not solvable, keeps neither.

    Because every reduced row is zero in the other pivot columns, an
    incoming row's pivot-column entries are the coefficients of its whole
    reduction, which is therefore one kernel sum.
    """

    def __init__(self, matrix: Matrix, col_order: Optional[Sequence[int]] = None,
                 solvable: bool = False):
        self.ncols = matrix.cols
        self.matrix = matrix if solvable else None
        # position of each column in the order; None for the identity order
        self._pos = None if col_order is None else {j: p for p, j in enumerate(col_order)}
        self.pivot_cols: list = []
        self._pivot_of: dict = {}  # pivot column -> index of its reduced row
        self.rrows: list = []      # reduced rows: unit pivot, zeros in the other pivot columns
        # per reduced row, the input rows it combines (index -> coefficient)
        self.ops: Optional[list] = [] if solvable else None
        self._nrows_in = 0
        for row in matrix._sparse_rows():
            self.insert(row)

    def _reduce(self, vec: dict, op: Optional[dict]):
        """vec − Σ_p vec[pc_p]·rrow_p, which is zero in every pivot column,
        and op − Σ_p vec[pc_p]·ops_p when op is given."""
        pivot_of = self._pivot_of
        hits = [(pivot_of[j], -v) for j, v in vec.items() if j in pivot_of]
        if not hits:
            return vec, op
        acc: dict = {}
        _accumulate(acc, vec.items())
        for p, c in hits:
            _accumulate(acc, self.rrows[p].items(), c)
        if op is not None:
            oacc: dict = {}
            _accumulate(oacc, op.items())
            for p, c in hits:
                _accumulate(oacc, self.ops[p].items(), c)
            op = _settle(oacc)
        return _settle(acc), op

    def insert(self, vec: dict) -> bool:
        """Add a row; True when the rank grew."""
        op = None
        if self.ops is not None:
            op = {self._nrows_in: ONE}
            self._nrows_in += 1
        row, op = self._reduce(vec, op)
        if not row:
            return False
        piv = min(row) if self._pos is None else min(row, key=self._pos.__getitem__)
        inv = row[piv]
        if inv != ONE:
            row = {j: v / inv for j, v in row.items()}
            if op is not None:
                op = {k: v / inv for k, v in op.items()}
        elif row is vec:
            row = dict(row)     # never hold the caller's dict
        for p, rrow in enumerate(self.rrows):
            c = rrow.get(piv)
            if c is not None:
                self.rrows[p] = _sub_scaled(rrow, row, c)
                if op is not None:
                    self.ops[p] = _sub_scaled(self.ops[p], op, c)
        self._pivot_of[piv] = len(self.pivot_cols)
        self.pivot_cols.append(piv)
        self.rrows.append(row)
        if op is not None:
            self.ops.append(op)
        return True

    def contains(self, vec: dict) -> bool:
        """True when vec lies in the span of the inserted rows."""
        return not self._reduce(vec, None)[0]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def solve_sparse(self, rhs: dict) -> Optional[dict]:
        """One solution of matrix @ x = rhs with free variables zero, or
        None when infeasible, for the factored matrix; rhs and the result
        are index->Scalar maps."""
        if self.matrix is None or self._nrows_in != self.matrix.rows:
            raise TypeError("solving needs a solvable Echelon that no insert has grown")
        x: dict = {}
        for p, op in enumerate(self.ops):
            pairs = [(v, rhs[k]) for k, v in op.items() if k in rhs]
            if pairs:
                s = _dot(pairs)
                if s:
                    x[self.pivot_cols[p]] = s
        # feasibility: matrix @ x must reproduce rhs exactly
        if self.matrix.apply_sparse(x) != rhs:
            return None
        return x

    def nullspace(self) -> list:
        """Basis of the kernel as sparse vectors, one per free column."""
        pivot_of = self._pivot_of
        free: dict = {j: {j: ONE} for j in range(self.ncols) if j not in pivot_of}
        for pc, rrow in zip(self.pivot_cols, self.rrows):
            for j, c in rrow.items():
                if j != pc:
                    free[j][pc] = -c
        return list(free.values())


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
    after the view is taken.  Hashable: the hash, of the ambient dimension
    and the pivots, is fixed at construction, and equality is by content."""

    __slots__ = ("ambient_dim", "rows", "_pivots", "_ech", "_hash")

    def __init__(self, ech: Echelon):
        order = sorted(range(ech.rank), key=ech.pivot_cols.__getitem__)
        self.ambient_dim = ech.ncols
        self.rows = [ech.rrows[p] for p in order]   # sparse basis vectors (dicts)
        self._pivots = tuple(ech.pivot_cols[p] for p in order)  # strictly increasing
        self._ech = ech
        self._hash = hash((self.ambient_dim, self._pivots))

    @property
    def basis(self) -> list:
        """The basis vectors as fresh dense lists."""
        return [_dense(r.items(), self.ambient_dim) for r in self.rows]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable) -> "Subspace":
        """The span of vectors, each a dict index -> nonzero value."""
        ech = Echelon(Matrix.zero(0, ambient_dim))
        for v in vectors:
            ech.insert(v)
        return Subspace(ech)

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(Echelon(Matrix.identity(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec: dict) -> bool:
        return self._ech.contains(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("comparing subspaces of different ambients")
        return self._hash == other._hash and self._pivots == other._pivots \
            and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def leq(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("comparing subspaces of different ambients")
        return all(other.contains(r) for r in self.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def column_space(m: Matrix) -> Subspace:
    return Subspace.from_vectors(m.rows, map(dict, m._sparse_cols()))


def solve_linear(constraints, unknown_dim: int, store):
    """Solve a list of (row, rhs Scalar) constraints exactly; a row is a
    dict index -> nonzero value over unknown_dim unknowns.  The system's
    echelon and kernel are read through store (`coproducts.RunCache`).

    Returns (particular solution as a dense list, solution Subspace).
    Raises Infeasible when the constraints contradict each other.
    """
    rows = []
    rhs = {}
    for i, (row, b) in enumerate(constraints):
        rows.append(row)
        if b:
            rhs[i] = b
    if not rows:
        return [ZERO] * unknown_dim, Subspace.full(unknown_dim)
    a = Matrix.from_sparse_cols(unknown_dim, rows).transpose()
    sol = store.echelon(a).solve_sparse(rhs)
    if sol is None:
        raise Infeasible("constraint system has no solution")
    return _dense(sol.items(), unknown_dim), store.kernel(a)


def invert(m: Matrix, store) -> Optional[Matrix]:
    """The inverse of m, or None when m is not invertible; the echelon of
    m is read through store (`coproducts.RunCache`)."""
    if m.rows != m.cols:
        return None
    ech = store.echelon(m)
    if ech.rank < m.rows:
        return None
    # full rank: reduced row p is the unit row of its pivot column, so the
    # recorded combination of m's rows is that row of the inverse
    return Matrix.from_entries(m.rows, m.rows, {(pc, k): v for pc, op in zip(ech.pivot_cols, ech.ops)
                                                for k, v in op.items()})


def generalized_inverse(t: Matrix, e: Matrix, f: Matrix, store) -> Matrix:
    """The unique r with t r = e and r t = f, where e is an idempotent
    projecting onto Ran(t) and 1 - f an idempotent projecting onto Ker(t).

    Also satisfies t r t = t, r t r = r and r (1 - e) = 0.  Ran t, Ker t,
    Ran e, 1 - f, its range and the solvable echelon of t are read through
    store (`coproducts.RunCache`: `column_space`, `kernel`, `complement`,
    `echelon`), so each is built once per run.
    """
    n = t.rows
    if t.cols != n or e.rows != n or e.cols != n or f.rows != n or f.cols != n:
        raise DimensionMismatch("generalized_inverse needs square matrices of one size")
    if e * e != e:
        raise BadProjections("e is not idempotent")
    if f * f != f:
        raise BadProjections("f is not idempotent")
    if store.column_space(e) != store.column_space(t):
        raise BadProjections("image(e) differs from image(t)")
    if store.column_space(store.complement(f)) != store.kernel(t):
        raise BadProjections("image(1-f) differs from kernel(t)")
    # r y = f z for any z with t z = e y.  Such a z exists, as e y lies in
    # Ran e = Ran t, and f z does not depend on the choice: two choices
    # differ by an element of Ker t = Ran(1 - f), which the idempotent f
    # kills.  Then t r = e, as t f = t, and r t = f, as e t = t
    ech = store.echelon(t)
    zs = []
    for j in range(n):
        z = ech.solve_sparse(dict(e.col_sparse(j)))
        if z is None:
            raise InvariantViolation(f"column {j} of e lies outside Ran(t) = Ran(e)")
        zs.append(z)
    r = f * Matrix.from_sparse_cols(n, zs)
    if t * r != e:
        raise BadProjections("constructed r fails t r = e")
    if r * t != f:
        raise BadProjections("constructed r fails r t = f")
    return r

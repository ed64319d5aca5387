"""The Q(i) accumulation kernel of `wmha.scalars` against term-by-term
`Scalar` arithmetic, and the sparse, kernel-based `Echelon` against a copy
of the dense elimination it replaced, which did every row operation with
`Scalar`s; and the kernel and key-hashing traffic of a sparse run."""

import sys
from fractions import Fraction
from math import gcd
from typing import Optional

from hypothesis import given, settings, strategies as st

import wmha.scalars
from wmha.cli import main
from wmha.linalg import Echelon, Matrix
from wmha.scalars import ONE, ZERO, Scalar, _accumulate, _dot, _settle, _sum_products

# rationals with denominators up to 60; real, Gaussian and Gaussian-integer
# scalars, zero and the units included so every fast path is taken
parts = st.fractions(min_value=-40, max_value=40, max_denominator=60)
reals = st.builds(lambda a: Scalar(a), parts)
gaussians = st.builds(Scalar, parts, parts)
gaussian_ints = st.builds(Scalar, st.integers(-9, 9), st.integers(-9, 9))
units = st.sampled_from([ONE, -ONE, Scalar(0, 1), Scalar(0, -1)])
scalars = st.one_of(reals, gaussians, gaussian_ints, units, st.just(ZERO))
coefficients = st.one_of(st.none(), scalars)
keys = st.integers(0, 6)
items = st.lists(st.tuples(keys, scalars), max_size=8)

kernel_settings = settings(deadline=None, max_examples=100)


def assert_canonical(x):
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert d == 1


def assert_settled(got: dict, ref: dict):
    """got equals the reference sums, holds no zero and only canonical values."""
    assert got == {k: v for k, v in ref.items() if v}
    for v in got.values():
        assert v
        assert_canonical(v)


def ref_accumulate(ref: dict, terms, c=None, c2=None, base=0, stride=1):
    for k, v in terms:
        term = v
        if c is not None:
            term = c * term
        if c2 is not None:
            term = c2 * term
        key = base + stride * k
        ref[key] = ref.get(key, ZERO) + term


# ---- entry points against term-by-term Scalar sums -----------------------------


@kernel_settings
@given(st.lists(st.tuples(items, coefficients, coefficients,
                          st.integers(0, 9), st.integers(1, 4)), max_size=5))
def test_accumulate_and_settle_match_scalar_sums(calls):
    acc, ref = {}, {}
    for terms, c, c2, base, stride in calls:
        _accumulate(acc, terms, c, c2, base=base, stride=stride)
        ref_accumulate(ref, terms, c, c2, base, stride)
    assert_settled(_settle(acc), ref)


@kernel_settings
@given(items, coefficients, st.lists(st.booleans(), min_size=8, max_size=8))
def test_cancelled_sums_drop_their_key(terms, c, cancel):
    # subtracting a chosen subset of the terms: every key whose sum is now
    # zero must be gone, and subtracting them all leaves nothing
    acc, ref = {}, {}
    _accumulate(acc, terms, c)
    ref_accumulate(ref, terms, c)
    undo = [t for t, flag in zip(terms, cancel) if flag]
    minus = -(c if c is not None else ONE)
    _accumulate(acc, undo, minus)
    ref_accumulate(ref, undo, minus)
    assert_settled(_settle(acc), ref)
    everything = {}
    _accumulate(everything, terms, c)
    _accumulate(everything, terms, minus)
    assert _settle(everything) == {}


@kernel_settings
@given(st.lists(st.tuples(keys, scalars, scalars), max_size=10))
def test_sum_products_matches_scalar_sums(triples):
    ref = {}
    for k, x, y in triples:
        ref[k] = ref.get(k, ZERO) + x * y
    assert_settled(_sum_products(iter(triples)), ref)


@kernel_settings
@given(st.lists(st.tuples(scalars, scalars), max_size=10))
def test_dot_matches_scalar_sum(pairs):
    ref = ZERO
    for x, y in pairs:
        ref = ref + x * y
    got = _dot(pairs)
    assert got == ref
    assert_canonical(got)


# ---- Echelon against the elimination it replaced --------------------------------


class ScalarEchelon:
    """The Scalar-by-Scalar elimination: each pivot row is subtracted in
    turn, back-elimination updates every entry with a product and a
    difference, and the op records follow the same row operations."""

    def __init__(self, matrix: Matrix, col_order=None, solvable=False):
        self.ncols = matrix.cols
        self.col_order = list(col_order) if col_order is not None else list(range(matrix.cols))
        self.pivot_cols: list = []
        self.rrows: list = []
        self.ops: Optional[list] = [] if solvable else None
        self._nrows_in = 0
        for row in matrix.dense_rows():
            self.insert(row)

    def _reduce(self, row, op):
        for p, (pc, rrow) in enumerate(zip(self.pivot_cols, self.rrows)):
            c = row[pc]
            if c:
                for j, v in enumerate(rrow):
                    if v:
                        row[j] = row[j] - c * v
                if op is not None:
                    _scalar_sub_scaled(op, self.ops[p], c)

    def insert(self, vec) -> bool:
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
                    _scalar_sub_scaled(self.ops[p], op, c)
        self.pivot_cols.append(piv)
        self.rrows.append(row)
        if op is not None:
            self.ops.append(op)
        return True

    def contains(self, vec) -> bool:
        row = list(vec)
        self._reduce(row, None)
        return not any(row)

    def nullspace(self) -> list:
        """Per free column j: 1 at j and minus column j of each reduced row
        at that row's pivot."""
        out = []
        for j in range(self.ncols):
            if j not in self.pivot_cols:
                v = [ZERO] * self.ncols
                v[j] = ONE
                for pc, rrow in zip(self.pivot_cols, self.rrows):
                    if rrow[j]:
                        v[pc] = -rrow[j]
                out.append(v)
        return out

    def solve(self, rhs, rows) -> Optional[list]:
        """x with free variables zero and x[pivot] = Σ op[k]·rhs[k], or None
        when rows·x differs from rhs."""
        x = [ZERO] * self.ncols
        for pc, op in zip(self.pivot_cols, self.ops):
            for k, v in op.items():
                x[pc] = x[pc] + v * rhs[k]
        image = [ZERO] * len(rows)
        for i, row in enumerate(rows):
            for a, b in zip(row, x):
                image[i] = image[i] + a * b
        return x if image == list(rhs) else None


def _dense_vec(vec: dict, n: int) -> list:
    out = [ZERO] * n
    for k, v in vec.items():
        out[k] = v
    return out


def _scalar_sub_scaled(target: dict, src: dict, c) -> None:
    for k, v in src.items():
        s = target.get(k, ZERO) - c * v
        if s:
            target[k] = s
        elif k in target:
            del target[k]


# sparse-ish entries, so pivots are skipped, hit and cancelled
entries = st.one_of(st.just(ZERO), st.just(ZERO), scalars)


@st.composite
def eliminations(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # a dependent row: a combination of two earlier ones
        a, b = draw(scalars), draw(scalars)
        data.append([a * x + b * y for x, y in zip(data[0], data[1])])
    order = draw(st.one_of(st.none(), st.permutations(range(cols))))
    matrix = Matrix.from_rows(data) if data else Matrix.zero(0, cols)
    # one right-hand side drawn freely, one in the column space
    x = [draw(entries) for _ in range(cols)]
    rhs = [[draw(entries) for _ in data],
           [sum((a * b for a, b in zip(row, x)), ZERO) for row in data]]
    return matrix, order, draw(st.booleans()), rhs


@settings(deadline=None, max_examples=150)
@given(eliminations())
def test_echelon_matches_the_scalar_elimination(case):
    matrix, order, solvable, rhs = case
    n = matrix.cols
    got = Echelon(matrix, col_order=order, solvable=solvable)
    ref = ScalarEchelon(matrix, col_order=order, solvable=solvable)
    assert got.pivot_cols == ref.pivot_cols
    assert [_dense_vec(row, n) for row in got.rrows] == ref.rrows
    assert got.ops == ref.ops
    for row in got.rrows:
        assert all(row.values())
        for v in row.values():
            assert_canonical(v)
    assert [_dense_vec(v, n) for v in got.nullspace()] == ref.nullspace()
    dense = matrix.dense_rows()
    for vec in dense:
        assert got.contains({j: v for j, v in enumerate(vec) if v})
    # the unit vectors, some outside the span unless the rank is full
    for j in range(n):
        assert got.contains({j: ONE}) == ref.contains(_dense_vec({j: ONE}, n))
    assert got.rank == n or not all(got.contains({j: ONE}) for j in range(n))
    if solvable:
        for b in rhs:
            sol = got.solve_sparse({i: v for i, v in enumerate(b) if v})
            assert (None if sol is None else _dense_vec(sol, n)) == ref.solve(b, dense)


def test_echelon_examples_with_fractions():
    half = Scalar(Fraction(1, 2))
    m = Matrix.from_rows([[half, ONE, ZERO], [ONE, half, Scalar(0, 1)], [ZERO, ONE, ONE]])
    got = Echelon(m, col_order=[2, 0, 1], solvable=True)
    ref = ScalarEchelon(m, col_order=[2, 0, 1], solvable=True)
    assert (got.pivot_cols, [_dense_vec(r, 3) for r in got.rrows], got.ops) == \
        (ref.pivot_cols, ref.rrows, ref.ops)


# `_accumulate` calls of one `verify --preset pair:2 --model convolution
# --path both` run, where every T map is a partial permutation; 4,810 when
# every empty or lone unit column still went through the kernel, 1,055
# before the R-map strips and the source/target legs were read at the unit,
# 777 while 1 - G1 and 1 - G2 were built three times a run, 697 while each
# basis product of a sum went through the kernel on its own, a lone unit
# product included (`Algebra` now sums a product with the leg action), 480
# while G1 and G2 were eliminated from the rows of all n^3 basis triples,
# not from the n^2 unit triples, 418 while the gate eliminated the
# non-degeneracy and A^2 spans of a unital algebra and `RunCache.element`
# applied each multiplier to the unit on every call
KERNEL_CALLS = 376


def test_kernel_traffic_of_a_sparse_run(monkeypatch, capsys):
    calls = []

    def counted(acc, items, *args, **kwargs):
        items = list(items)
        calls.append(len(items))
        real(acc, items, *args, **kwargs)

    real = wmha.scalars._accumulate
    patched = [name for name, module in sorted(sys.modules.items())
               if name.startswith("wmha.") and getattr(module, "_accumulate", None) is real]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "_accumulate", counted)
    assert "wmha.scalars" in patched
    assert main(["verify", "--preset", "pair:2", "--model", "convolution", "--path", "both"]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert calls and 0 not in calls, "a kernel call carries an empty group"
    assert len(calls) <= KERNEL_CALLS


# `Echelon.insert` calls of the same run, a row each, the rows of every
# solvable echelon's matrix included: 380 while G1 and G2 were eliminated
# from the rows of all n^3 basis triples, which span what the rows of the
# n^2 unit triples span (`coproducts._solve_leg_system`), 348 while the
# gate eliminated the two non-degeneracy spans and the A^2 span, 48 rows,
# which a unit settles (`algebras.validate_algebra`).  The count repeats
# under PYTHONHASHSEED 0, 1 and 7
ECHELON_ROWS = 300


def test_echelon_rows_of_a_sparse_run(monkeypatch, capsys):
    rows = []
    real = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, vec: rows.append(len(vec)) or real(self, vec))
    assert main(["verify", "--preset", "pair:2", "--model", "convolution", "--path", "both"]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert len(rows) == ECHELON_ROWS


# `Scalar.__hash__` calls of the same run: 3,162 while every run-store
# lookup hashed its whole key down to each Scalar; a Matrix, a Subspace and
# an algebra's content key now hash once, when they are built, from data
# that holds no Scalar.  The count repeats under PYTHONHASHSEED 0, 1 and 7
HASH_CALLS = 0


def test_key_hashing_of_a_sparse_run(monkeypatch, capsys):
    calls = []
    real = Scalar.__hash__

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(Scalar, "__hash__", counted)
    assert hash(ONE) == real(ONE) and calls == [1]
    calls.clear()
    assert main(["verify", "--preset", "pair:2", "--model", "convolution", "--path", "both"]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert len(calls) <= HASH_CALLS

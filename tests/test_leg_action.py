"""The leg-action primitive `wmha.scalars._on_legs` against a dense
reference: an operator M on one window of adjacent legs of A^(x)k acts as
I (x) M (x) I, built with Matrix.kron and applied to the dense vector; and
against the kernel's own sum, whose key order and kept Scalars it must
reproduce.  The sparse products of `Algebra` against a dense reference
built from the structure constants: a tensor product's from its factors'
tables, so it does not check the products against themselves."""

from hypothesis import given, settings, strategies as st

from wmha.algebras import Algebra
from wmha.coproducts import _counit_cols
from wmha.linalg import Matrix
from wmha.scalars import ONE, ZERO, Scalar, _accumulate, _on_legs, _settle

parts = st.fractions(min_value=-9, max_value=9, max_denominator=6)
units = st.sampled_from([ONE, -ONE, Scalar(0, 1), Scalar(1)])
scalars = st.one_of(st.builds(lambda a: Scalar(a), parts), st.builds(Scalar, parts, parts),
                    st.sampled_from([ONE, -ONE, Scalar(0, 1)]), st.just(ZERO))


def sparse_vectors(size: int):
    return st.dictionaries(st.integers(0, size - 1), scalars, max_size=min(size, 12)) \
        .map(lambda d: {k: v for k, v in d.items() if v})


def matrices(rows: int, cols: int):
    """Sparse-ish rows x cols matrices: up to 16 nonzero entries."""
    return st.dictionaries(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                           scalars, max_size=16).map(
        lambda entries: Matrix.from_entries(rows, cols, entries))


def cols_matrix(cols: list, rows: int) -> Matrix:
    return Matrix.from_sparse_cols(rows, [dict(col) for col in cols])


def random_algebra(draw, n: int) -> Algebra:
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                      st.integers(0, n - 1), scalars), max_size=2 * n * n))
    return Algebra.from_structure(n, None, entries)


@st.composite
def cases(draw):
    """(n, k, first leg, window length, operator columns, output size, x)."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(2, 3))
    i = draw(st.integers(0, k - 1))
    length = draw(st.integers(1, k - i))
    m_in = n ** length
    kind = draw(st.sampled_from(["matrix", "monomial", "counit", "product", "left", "right"]))
    if kind == "counit" or (kind in ("left", "right") and length == 1):
        if kind == "counit":
            length, m_in = 1, n
            cols, rows = _counit_cols(draw(st.lists(scalars, min_size=n, max_size=n))), 1
        else:
            alg = random_algebra(draw, n)
            a = draw(st.integers(0, n - 1))
            cols, rows = (alg._left_cols(a) if kind == "left" else alg._right_cols(a)), n
    elif kind == "product" and length == 2:
        cols, rows = random_algebra(draw, n)._product_cols(), n
    elif kind == "monomial":
        # a partial permutation with unit entries: every column empty or e_r
        rows = draw(st.sampled_from([1, n, m_in]))
        cols = [[(r, draw(units))] if r >= 0 else [] for r in
                draw(st.lists(st.integers(-1, rows - 1), min_size=m_in, max_size=m_in))]
    else:
        rows = draw(st.sampled_from([1, n, m_in]))
        cols = draw(matrices(rows, m_in))._sparse_cols()
    x = draw(sparse_vectors(n ** k))
    shape = draw(st.sampled_from(["list", "items", "lone list", "lone items"]))
    if shape.startswith("lone"):
        x = {draw(st.integers(0, n ** k - 1)): draw(st.sampled_from([ONE, ONE, Scalar(2)]))}
    pairs = list(x.items()) if shape.endswith("list") else x.items()
    return n, k, i, length, cols, rows, x, pairs


def ref_on_legs(cols, rows, x, s):
    """The leg action summed by the kernel itself, one `_accumulate` call
    per term: its entries, their order and the input Scalars it keeps as
    given are what `_on_legs` must reproduce."""
    acc: dict = {}
    for idx, coeff in x:
        hm, lo = divmod(idx, s)
        hi, mid = divmod(hm, len(cols))
        _accumulate(acc, cols[mid], coeff, None, hi * rows * s + lo, s)
    return _settle(acc)


def assert_kernel_sum(got: dict, want: dict, cols):
    assert list(got.items()) == list(want.items())
    given = {id(v) for col in cols for _, v in col}
    assert all(got[key] is v for key, v in want.items() if id(v) in given)


@settings(deadline=None, max_examples=100)
@given(cases())
def test_on_legs_equals_dense_kron_reference(case):
    n, k, i, length, cols, rows, x, pairs = case
    s = n ** (k - i - length)
    got = _on_legs(cols, rows, pairs, s)
    op = Matrix.identity(n ** i).kron(cols_matrix(cols, rows)).kron(Matrix.identity(s))
    want = op.apply_sparse(x)
    assert got == want
    assert all(v for v in got.values())
    assert_kernel_sum(got, ref_on_legs(cols, rows, pairs, s), cols)


def test_on_legs_example_legs_of_a_square():
    # e_1 (x) e_0 in A (x) A, dim 2, with M = [[0, 1], [1, 0]] on either leg
    swap = Matrix.from_rows([[ZERO, ONE], [ONE, ZERO]])._sparse_cols()
    x = [(1 * 2 + 0, ONE)]
    assert _on_legs(swap, 2, x, 2) == {0 * 2 + 0: ONE}
    assert _on_legs(swap, 2, x) == {1 * 2 + 1: ONE}


@st.composite
def products(draw):
    """(algebra, x, y, j) for the three sparse products of Algebra; the
    algebra is a random table, a tensor product of two, or A (x) A^op, the
    shape of the twisted squares that F1..F4 live on."""
    n = draw(st.integers(1, 3))
    alg = random_algebra(draw, n)
    kind = draw(st.sampled_from(["table", "tensor", "twisted"]))
    if kind == "tensor":
        alg = Algebra.tensor(alg, random_algebra(draw, 2))
    elif kind == "twisted":
        alg = Algebra.tensor(alg, alg.opposite())
    vec = st.one_of(sparse_vectors(alg.dim), st.builds(lambda i, v: {i: v}, st.integers(0, alg.dim - 1),
                                                       st.sampled_from([ONE, Scalar(2)])))
    return alg, draw(vec), draw(vec), draw(st.integers(0, alg.dim - 1))


def table_product(alg, i, l):
    """e_i e_l read from the structure constants: the table entry, or on a
    tensor product the Kronecker product of the factors' entries."""
    if alg._factors is None:
        return alg.mul_basis(i, l)
    a, b = alg._factors
    (i1, i2), (l1, l2) = divmod(i, b.dim), divmod(l, b.dim)
    return {k1 * b.dim + k2: v1 * v2 for k1, v1 in a.mul_basis(i1, l1).items()
            for k2, v2 in b.mul_basis(i2, l2).items()}


def ref_legs(alg, x, j, right):
    """x e_j (right) or e_j x as the kernel sums it: one `ref_on_legs`
    pass per leg with the factor's basis products, and every column read."""
    if alg._factors is None:
        steps = [(alg, j, 1)]
    else:
        a, b = alg._factors
        steps = [(a, j // b.dim, b.dim), (b, j % b.dim, 1)]
    seen = []
    for f, jf, s in steps:
        cols = [(f.mul_basis(k, jf) if right else f.mul_basis(jf, k)).items() for k in range(f.dim)]
        x = ref_on_legs(cols, f.dim, x.items(), s)
        seen += cols
    return x, seen


@settings(deadline=None, max_examples=100)
@given(products())
def test_products_equal_dense_reference(case):
    alg, x, y, j = case
    n = alg.dim

    def dense_product(u, v):
        out = [ZERO] * n
        for i, ui in u.items():
            for l, vl in v.items():
                for key, w in table_product(alg, i, l).items():
                    out[key] = out[key] + ui * vl * w
        return {key: w for key, w in enumerate(out) if w}

    assert all(alg.mul_basis(i, l) == table_product(alg, i, l) for i in range(n) for l in range(n))
    for got, u, v in ((alg.mul_sparse(x, y), x, y), (alg.mul_by_basis(x, j), x, {j: ONE}),
                      (alg.basis_times(j, y), {j: ONE}, y)):
        assert got == dense_product(u, v)
        assert all(w for w in got.values())
    # the kernel's order: one sum per leg, over the factor's nonzero
    # basis products in turn
    assert_kernel_sum(alg.mul_by_basis(x, j), *ref_legs(alg, x, j, True))
    assert_kernel_sum(alg.basis_times(j, y), *ref_legs(alg, y, j, False))

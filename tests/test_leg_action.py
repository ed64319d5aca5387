"""The leg-action primitive `wmha.algebras._on_legs` against a dense
reference: an operator M on one window of adjacent legs of A^(x)k acts as
I (x) M (x) I, built with Matrix.kron and applied to the dense vector."""

from hypothesis import given, settings, strategies as st

from wmha.algebras import Algebra, _on_legs
from wmha.coproducts import _counit_cols
from wmha.linalg import Matrix
from wmha.scalars import ONE, ZERO, Scalar

parts = st.fractions(min_value=-9, max_value=9, max_denominator=6)
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
    kind = draw(st.sampled_from(["matrix", "counit", "product", "left", "right"]))
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
    else:
        rows = draw(st.sampled_from([1, n, m_in]))
        cols = draw(matrices(rows, m_in))._sparse_cols()
    x = draw(sparse_vectors(n ** k))
    return n, k, i, length, cols, rows, x


@settings(deadline=None, max_examples=100)
@given(cases())
def test_on_legs_equals_dense_kron_reference(case):
    n, k, i, length, cols, rows, x = case
    s = n ** (k - i - length)
    got = _on_legs(cols, rows, x.items(), s)
    op = Matrix.identity(n ** i).kron(cols_matrix(cols, rows)).kron(Matrix.identity(s))
    want = op.apply_sparse(x)
    assert got == want
    assert all(v for v in got.values())


def test_on_legs_example_legs_of_a_square():
    # e_1 (x) e_0 in A (x) A, dim 2, with M = [[0, 1], [1, 0]] on either leg
    swap = Matrix.from_rows([[ZERO, ONE], [ONE, ZERO]])._sparse_cols()
    x = [(1 * 2 + 0, ONE)]
    assert _on_legs(swap, 2, x, 2) == {0 * 2 + 0: ONE}
    assert _on_legs(swap, 2, x) == {1 * 2 + 1: ONE}

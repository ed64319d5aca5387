import random

import pytest
from hypothesis import given, settings, strategies as st

from wmha.algebras import vec_to_sparse
from wmha.coproducts import RunCache
from wmha.linalg import (BadProjections, DimensionMismatch, Echelon, Infeasible, Matrix,
                         Subspace, column_space, generalized_inverse, invert, solve_linear)
from wmha.scalars import ONE, ZERO, Scalar, rational

from conftest import (random_matrix, random_projection_pair, random_scalar,
                      rank_image_kernel, solve_geninv_by_constraints)


def M(rows):
    return Matrix.from_rows([[Scalar.parse(v) for v in r] for r in rows])


def test_rank_image_kernel_identity():
    r, img, ker = rank_image_kernel(Matrix.identity(2))
    assert r == 2 and img == Subspace.full(2) and ker.dim == 0


def test_rank_image_kernel_nilpotent():
    r, img, ker = rank_image_kernel(M([[0, 1], [0, 0]]))
    e1 = Subspace.from_vectors(2, [{0: ONE}])
    assert r == 1 and img == e1 and ker == e1


def test_rank_image_kernel_zero():
    r, img, ker = rank_image_kernel(Matrix.zero(3, 3))
    assert r == 0 and img.dim == 0 and ker == Subspace.full(3)


def test_solve_linear_unique():
    sol, space = solve_linear([({0: ONE}, rational(1))], 1, RunCache())
    assert sol == [ONE] and space.dim == 0


def test_solve_linear_empty_constraints():
    sol, space = solve_linear([], 2, RunCache())
    assert sol == [ZERO, ZERO] and space == Subspace.full(2)


def test_solve_linear_infeasible():
    with pytest.raises(Infeasible):
        solve_linear([({0: ONE}, rational(1)), ({0: ONE}, rational(2))], 1, RunCache())


def test_subspace_scaling_invariance():
    two_e1 = Subspace.from_vectors(2, [{0: rational(2)}])
    e1 = Subspace.from_vectors(2, [{0: ONE}])
    assert e1 == two_e1


def test_subspace_containment():
    e1 = Subspace.from_vectors(2, [{0: ONE}])
    assert e1.leq(Subspace.full(2))
    assert not Subspace.full(2).leq(e1)


def test_subspace_distinct_lines():
    plus = Subspace.from_vectors(2, [{0: ONE, 1: ONE}])
    minus = Subspace.from_vectors(2, [{0: ONE, 1: rational(-1)}])
    assert plus != minus


def test_generalized_inverse_identity():
    i2 = Matrix.identity(2)
    assert generalized_inverse(i2, i2, i2, RunCache()) == i2


def test_generalized_inverse_worked_example():
    t = M([[0, 1], [0, 0]])
    e = M([[1, 0], [0, 0]])
    f = M([[0, 0], [0, 1]])
    assert generalized_inverse(t, e, f, RunCache()) == M([[0, 0], [1, 0]])


def test_generalized_inverse_of_invertible_map():
    t = M([[1, 2], [1, 3]])
    i2 = Matrix.identity(2)
    assert generalized_inverse(t, i2, i2, RunCache()) == invert(t, RunCache())


def test_generalized_inverse_rejects_bad_projections():
    t = M([[0, 1], [0, 0]])
    with pytest.raises(BadProjections):
        generalized_inverse(t, M([[1, 1], [0, 1]]), Matrix.identity(2), RunCache())
    with pytest.raises(BadProjections):
        generalized_inverse(t, Matrix.identity(2), Matrix.identity(2), RunCache())


def geninv_taskcase(rng, dim):
    t = random_matrix(rng, dim, dim)
    e, f = random_projection_pair(rng, t)
    r = generalized_inverse(t, e, f, RunCache())
    assert t * r == e
    assert r * t == f
    assert t * r * t == t
    assert r * t * r == r
    assert (r * (Matrix.identity(dim) - e)).is_zero()
    return t, e, f, r


def test_generalized_inverse_random_smoke(rng):
    for _ in range(12):
        dim = rng.randint(2, 5)
        t, e, f, r = geninv_taskcase(rng, dim)
        assert solve_geninv_by_constraints(t, e, f) == r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_rank_nullity_random(seed, dim):
    rng = random.Random(seed)
    t = random_matrix(rng, dim, dim)
    rank, image, kernel = rank_image_kernel(t)
    assert rank + kernel.dim == dim
    assert image.dim == rank
    for b in kernel.rows:
        assert t.apply_sparse(b) == {}
    assert column_space(t) == image


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(2, 4))
def test_echelon_solve_matches_apply(seed, rows, cols):
    rng = random.Random(seed)
    a = random_matrix(rng, rows, cols)
    x = vec_to_sparse([Scalar.parse(rng.randint(-3, 3)) for _ in range(cols)])
    b = a.apply_sparse(x)
    ech = Echelon(a, solvable=True)
    got = ech.solve_sparse(b, a)
    assert got is not None
    assert a.apply_sparse(got) == b


def _combination(rng, vectors, dim):
    out = [ZERO] * dim
    for v in vectors:
        c = random_scalar(rng)
        for j, y in v.items():
            out[j] += c * y
    return vec_to_sparse(out)


def _random_vectors(rng, count, dim):
    return [vec_to_sparse(row)
            for row in random_matrix(rng, count, dim, density=0.5).dense_rows()]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 5))
def test_subspace_basis_is_canonical(seed, count, dim):
    rng = random.Random(seed)
    vectors = _random_vectors(rng, count, dim)
    base = Subspace.from_vectors(dim, vectors)
    permuted = list(vectors)
    rng.shuffle(permuted)
    rescaled = []
    for v in vectors:
        c = ZERO
        while not c:
            c = random_scalar(rng)
        rescaled.append({j: c * x for j, x in v.items()})
    padded = list(vectors)
    for _ in range(rng.randint(1, 3)):
        padded.insert(rng.randint(0, len(padded)), _combination(rng, vectors, dim))
    for variant in (permuted, rescaled, padded):
        got = Subspace.from_vectors(dim, variant)
        assert got.basis == base.basis and got == base


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 5))
def test_echelon_insert_grows_exactly_outside_the_span(seed, count, dim):
    rng = random.Random(seed)
    order = list(range(dim))
    rng.shuffle(order)
    ech = Echelon(Matrix.zero(0, dim), col_order=order, solvable=rng.random() < 0.5)
    seen = []
    for _ in range(count):
        if seen and rng.random() < 0.4:
            v = _combination(rng, seen, dim)
        else:
            v = _random_vectors(rng, 1, dim)[0]
        was_inside = ech.contains(v)
        rank = ech.rank
        assert ech.insert(v) is (not was_inside)
        assert ech.rank == rank + (not was_inside)
        assert ech.contains(v)
        seen.append(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_invert_is_an_inverse(seed, dim):
    rng = random.Random(seed)
    m = random_matrix(rng, dim, dim, density=0.7)
    inv = invert(m, RunCache())
    if inv is None:
        assert rank_image_kernel(m)[0] < dim
    else:
        assert inv * m == Matrix.identity(dim)
        assert m * inv == Matrix.identity(dim)


def test_matrix_constructors_refuse_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[ONE, ONE], [ONE]])               # ragged rows
    with pytest.raises(DimensionMismatch):
        Matrix.from_entries(2, 2, {(2, 0): ONE})
    assert Matrix.from_sparse_cols(3, []) == Matrix.zero(3, 0)


# ---- sparse Matrix against a dense list-of-rows reference -----------------

entries = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ONE),
                    st.builds(rational, st.integers(-3, 3), st.integers(1, 3)),
                    st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2)))


def dense(draw, rows, cols):
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


def ref_mul(a, b, inner):
    return [[sum((row[k] * b[k][j] for k in range(inner)), ZERO) for j in range(len(b[0]))]
            for row in a]


def ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def assert_canonical_columns(m):
    """Each column row-sorted, without zeros, inside the shape."""
    assert len(m._sparse_cols()) == m.cols
    for col in m._sparse_cols():
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i < m.rows for i in rows)
        assert all(v for _, v in col)


@st.composite
def matrix_cases(draw):
    r, k, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return dense(draw, r, k), dense(draw, r, k), dense(draw, k, c), dense(draw, 2, 3)


@settings(max_examples=120, deadline=None)
@given(matrix_cases())
def test_sparse_matrix_matches_dense_reference(case):
    a, a2, b, small = case
    r, k, c = len(a), len(a[0]), len(b[0])
    m = Matrix.from_rows(a)
    # the three constructors agree and round-trip
    cols = [[row[j] for row in a] for j in range(k)]
    assert Matrix.from_sparse_cols(r, [vec_to_sparse(c) for c in cols]) == m
    assert Matrix.from_entries(r, k, {(i, j): v for i, row in enumerate(a)
                                      for j, v in enumerate(row)}) == m
    assert m.dense_rows() == a and \
        [dict(m.col_sparse(j)) for j in range(k)] == [vec_to_sparse(c) for c in cols]
    assert (m == Matrix.from_rows(a2)) == (a == a2)
    results = {
        "mul": (m * Matrix.from_rows(b), ref_mul(a, b, k)),
        "add": (m + Matrix.from_rows(a2), [[x + y for x, y in zip(p, q)] for p, q in zip(a, a2)]),
        "sub": (m - Matrix.from_rows(a2), [[x - y for x, y in zip(p, q)] for p, q in zip(a, a2)]),
        "kron": (m.kron(Matrix.from_rows(small)), ref_kron(a, small)),
        "transpose": (m.transpose(), cols),
        "conj": (m.conj(), [[x.conj() for x in row] for row in a]),
    }
    for name, (got, want) in results.items():
        assert got.dense_rows() == want, name
        assert (got.rows, got.cols) == (len(want), len(want[0])), name
        assert_canonical_columns(got)
        assert got.is_zero() == (not any(any(row) for row in want)), name
    x = [row[0] for row in b]
    assert m.apply_sparse(vec_to_sparse(x)) == \
        vec_to_sparse([sum((p * q for p, q in zip(row, x)), ZERO) for row in a])

import random

import pytest
from hypothesis import given, settings, strategies as st

from wmha.algebras import Algebra, vec_to_sparse
from wmha.coproducts import RunCache
from wmha.linalg import (BadProjections, DimensionMismatch, Echelon, Infeasible, InvariantViolation,
                         Matrix, Subspace, column_space, generalized_inverse, invert, solve_linear)
from wmha.scalars import ONE, ZERO, Scalar, _accumulate, _settle, rational

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
    with pytest.raises(BadProjections, match="e is not idempotent"):
        generalized_inverse(t, M([[1, 1], [0, 1]]), Matrix.identity(2), RunCache())
    with pytest.raises(BadProjections, match=r"image\(e\) differs from image\(t\)"):
        generalized_inverse(t, Matrix.identity(2), Matrix.identity(2), RunCache())
    # Ran e = Ran t = Ker t, but 1 - f = 0
    with pytest.raises(BadProjections, match=r"image\(1-f\) differs from kernel\(t\)"):
        generalized_inverse(t, M([[1, 0], [0, 0]]), Matrix.identity(2), RunCache())


def test_generalized_inverse_lost_preimage_is_an_invariant_violation(monkeypatch):
    # no input reaches this branch: Ran e = Ran t is checked first, so each
    # column of e has a preimage under t.  A solve that loses every
    # preimage stands in for a faulty elimination
    monkeypatch.setattr(Echelon, "solve_sparse", lambda self, rhs: None)
    i2 = Matrix.identity(2)
    with pytest.raises(InvariantViolation, match=r"column 0 of e lies outside Ran\(t\) = Ran\(e\)"):
        generalized_inverse(i2, i2, i2, RunCache())


def geninv_taskcase(rng, dim):
    t = random_matrix(rng, dim, dim)
    e, f = random_projection_pair(rng, t)
    r = generalized_inverse(t, e, f, RunCache())
    assert t * r == e
    assert r * t == f
    assert t * r * t == t
    assert r * t * r == r
    assert r * (Matrix.identity(dim) - e) == Matrix.zero(dim, dim)
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
    got = ech.solve_sparse(b)
    assert got is not None
    assert a.apply_sparse(got) == b


def test_only_a_solvable_echelon_keeps_its_matrix():
    # a solvable echelon checks each solution against the matrix it
    # factors; a span echelon keeps nothing beyond its rows, as keeping
    # every span's seed matrix cost 3-4 % of the sparse workload's time
    m = Matrix.from_rows([[ONE, ONE], [ZERO, ONE], [ONE, rational(2)]])
    ech = Echelon(m, solvable=True)
    assert ech.matrix is m
    assert ech.solve_sparse({0: ONE, 2: ONE}) == {0: ONE}
    assert ech.solve_sparse({0: ONE}) is None
    assert Echelon(m).matrix is None
    assert RunCache().column_space(m)._ech.matrix is None
    assert Subspace.from_vectors(2, [{0: ONE}])._ech.matrix is None
    for grown in (Echelon(m), ech):
        grown.insert({1: ONE})
        with pytest.raises(TypeError):
            grown.solve_sparse({0: ONE})


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


units = st.sampled_from([ONE, -ONE, Scalar(0, 1), Scalar(1)])


def dense(draw, rows, cols):
    """A dense rows x cols list of rows: random entries, or a partial
    permutation (each column empty or one unit entry; a monomial matrix
    when every column holds one), the shape of every groupoid T map."""
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    out = [[ZERO] * cols for _ in range(rows)]
    for j in range(cols):
        i = draw(st.integers(-1, rows - 1))     # -1: an empty column
        if i >= 0:
            out[i][j] = draw(units)
    return out


def ref_combination(cols, pairs) -> dict:
    """Σ c·cols[j] over the (j, c) pairs, summed by the kernel itself: the
    entries, their order and, for one column with coefficient 1, their
    Scalar objects are what every sum of columns must reproduce."""
    acc: dict = {}
    for j, c in pairs:
        _accumulate(acc, cols[j], c)
    return _settle(acc)


def assert_same_sum(got, cols, pairs):
    """got holds ref_combination's entries, in its key order for a dict
    and in row order for a Matrix column, and the very input Scalars
    wherever the kernel keeps one as it was given."""
    want = ref_combination(cols, pairs)
    if isinstance(got, list):
        want, got = dict(sorted(want.items())), dict(got)
    assert list(got.items()) == list(want.items())
    given = {id(v) for j, _ in pairs for _, v in cols[j]}
    assert all(got[k] is v for k, v in want.items() if id(v) in given)


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
        assert (got == Matrix.zero(got.rows, got.cols)) == (not any(any(row) for row in want)), name
    # each product column against the kernel's own sum, order and objects
    # included; a column e_k of the right factor shares column k of the left
    bm = Matrix.from_rows(b)
    prod = m * bm
    for j, bcol in enumerate(bm._sparse_cols()):
        assert_same_sum(prod.col_sparse(j), m._sparse_cols(), bcol)
        if len(bcol) == 1 and bcol[0][1] == ONE:
            assert prod.col_sparse(j) is m.col_sparse(bcol[0][0])
    x = [row[0] for row in b]
    # the whole vector, each one-entry vector of it, and each unit vector
    for vec in [vec_to_sparse(x)] + [{j: v} for j, v in enumerate(x) if v] + [{j: ONE} for j in range(k)]:
        got = m.apply_sparse(vec)
        assert got == vec_to_sparse([sum((row[j] * v for j, v in vec.items()), ZERO) for row in a])
        assert_same_sum(got, m._sparse_cols(), list(vec.items()))


# ---- hashing: fixed at construction, equality by content -----------------


def _pair(draw, rows, cols):
    """Two dense rows x cols lists: the second a copy of the first, the copy
    with one entry drawn anew, or drawn on its own."""
    a = dense(draw, rows, cols)
    how = draw(st.sampled_from(["copy", "one entry", "own"]))
    if how == "own":
        return a, dense(draw, rows, cols)
    b = [list(row) for row in a]
    if how == "one entry":
        b[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(entries)
    return a, b


@st.composite
def key_pairs(draw):
    """Two matrices of dim <= 4 with one number of rows, and two structure
    tables of dim <= 2, each a d x d^2 list whose column i*d + j is e_i e_j."""
    d = draw(st.integers(1, 2))
    return _pair(draw, draw(st.integers(1, 4)), draw(st.integers(1, 4))), _pair(draw, d, d * d)


def _algebra(table):
    d = len(table)
    return Algebra.from_structure(d, None, [(i, j, k, table[k][i * d + j])
                                            for i in range(d) for j in range(d) for k in range(d)])


@settings(max_examples=150, deadline=None)
@given(key_pairs())
def test_equal_keys_hash_alike(case):
    # a run-store key hashes once, when it is built, from data that equal
    # content shares: objects built apart must agree on equality and hash
    (a, b), (s, t) = case
    ma, mb = Matrix.from_rows(a), Matrix.from_rows(b)
    ra, rb = column_space(ma), column_space(mb)
    x, y = _algebra(s), _algebra(t)
    assert (ma == mb) == (a == b)
    assert (ra == rb) == (ra.leq(rb) and rb.leq(ra))
    assert (x.content_key() == y.content_key()) == (s == t)
    for p, q in ((ma, mb), (ra, rb), (x.content_key(), y.content_key()),
                 (Algebra.tensor(x, x).content_key(), Algebra.tensor(y, y).content_key())):
        if p == q:
            assert hash(p) == hash(q)

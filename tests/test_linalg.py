import random

import pytest
from hypothesis import given, settings, strategies as st

from wmha.linalg import (BadProjections, Echelon, Infeasible, Matrix, Subspace,
                         column_space, generalized_inverse, invert,
                         rank_image_kernel, solve_linear)
from wmha.scalars import ONE, ZERO, Scalar, rational

from conftest import (random_matrix, random_projection_pair, random_scalar,
                      solve_geninv_by_constraints)


def M(rows):
    return Matrix.from_rows([[Scalar.parse(v) for v in r] for r in rows])


def test_rank_image_kernel_identity():
    r, img, ker = rank_image_kernel(Matrix.identity(2))
    assert r == 2 and img == Subspace.full(2) and ker.dim == 0


def test_rank_image_kernel_nilpotent():
    r, img, ker = rank_image_kernel(M([[0, 1], [0, 0]]))
    e1 = Subspace.from_vectors(2, [[ONE, ZERO]])
    assert r == 1 and img == e1 and ker == e1


def test_rank_image_kernel_zero():
    r, img, ker = rank_image_kernel(Matrix.zero(3, 3))
    assert r == 0 and img.dim == 0 and ker == Subspace.full(3)


def test_solve_linear_unique():
    sol, space = solve_linear([([ONE], rational(1))], 1)
    assert sol == [ONE] and space.dim == 0


def test_solve_linear_empty_constraints():
    sol, space = solve_linear([], 2)
    assert sol == [ZERO, ZERO] and space == Subspace.full(2)


def test_solve_linear_infeasible():
    with pytest.raises(Infeasible):
        solve_linear([([ONE], rational(1)), ([ONE], rational(2))], 1)


def test_subspace_scaling_invariance():
    two_e1 = Subspace.from_vectors(2, [[rational(2), ZERO]])
    e1 = Subspace.from_vectors(2, [[ONE, ZERO]])
    assert e1 == two_e1


def test_subspace_containment():
    e1 = Subspace.from_vectors(2, [[ONE, ZERO]])
    assert e1.leq(Subspace.full(2))
    assert not Subspace.full(2).leq(e1)


def test_subspace_distinct_lines():
    plus = Subspace.from_vectors(2, [[ONE, ONE]])
    minus = Subspace.from_vectors(2, [[ONE, rational(-1)]])
    assert plus != minus


def test_generalized_inverse_identity():
    i2 = Matrix.identity(2)
    assert generalized_inverse(i2, i2, i2) == i2


def test_generalized_inverse_worked_example():
    t = M([[0, 1], [0, 0]])
    e = M([[1, 0], [0, 0]])
    f = M([[0, 0], [0, 1]])
    assert generalized_inverse(t, e, f) == M([[0, 0], [1, 0]])


def test_generalized_inverse_of_invertible_map():
    t = M([[1, 2], [1, 3]])
    i2 = Matrix.identity(2)
    assert generalized_inverse(t, i2, i2) == invert(t)


def test_generalized_inverse_rejects_bad_projections():
    t = M([[0, 1], [0, 0]])
    with pytest.raises(BadProjections):
        generalized_inverse(t, M([[1, 1], [0, 1]]), Matrix.identity(2))
    with pytest.raises(BadProjections):
        generalized_inverse(t, Matrix.identity(2), Matrix.identity(2))


def geninv_taskcase(rng, dim):
    t = random_matrix(rng, dim, dim)
    e, f = random_projection_pair(rng, t)
    r = generalized_inverse(t, e, f)
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
    for b in kernel.basis:
        assert all(v == ZERO for v in t.apply(b))
    assert column_space(t) == image


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(2, 4))
def test_echelon_solve_matches_apply(seed, rows, cols):
    rng = random.Random(seed)
    a = random_matrix(rng, rows, cols)
    x = [Scalar.parse(rng.randint(-3, 3)) for _ in range(cols)]
    b = a.apply(x)
    got = Echelon(a, solvable=True).solve(b, a)
    assert got is not None
    assert a.apply(got) == b


def _combination(rng, vectors, dim):
    out = [ZERO] * dim
    for v in vectors:
        c = random_scalar(rng)
        out = [x + c * y for x, y in zip(out, v)]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 5))
def test_subspace_basis_is_canonical(seed, count, dim):
    rng = random.Random(seed)
    vectors = random_matrix(rng, count, dim, density=0.5).data
    base = Subspace.from_vectors(dim, vectors)
    permuted = list(vectors)
    rng.shuffle(permuted)
    rescaled = []
    for v in vectors:
        c = ZERO
        while not c:
            c = random_scalar(rng)
        rescaled.append([c * x for x in v])
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
            v = random_matrix(rng, 1, dim, density=0.5).data[0]
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
    inv = invert(m)
    if inv is None:
        assert rank_image_kernel(m)[0] < dim
    else:
        assert inv * m == Matrix.identity(dim)
        assert m * inv == Matrix.identity(dim)

import random

import pytest

from wmha.linalg import Echelon, Matrix, rank_image_kernel, invert
from wmha.scalars import ONE, ZERO, Scalar, rational


def random_scalar(rng, allow_imaginary=True):
    num = rng.randint(-3, 3)
    den = rng.choice([1, 1, 1, 2, 3])
    re = rational(num, den)
    if allow_imaginary and rng.random() < 0.2:
        return Scalar(re.re, rational(rng.randint(-2, 2)).re)
    return re


def random_matrix(rng, rows, cols, density=0.6, allow_imaginary=True):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[i, j] = random_scalar(rng, allow_imaginary)
    return Matrix.from_entries(rows, cols, entries)


def random_projection_pair(rng, t: Matrix):
    """(e, f) with e projecting onto Ran(t) along a random complement and
    1 - f projecting onto Ker(t) along a random complement."""
    n = t.rows
    _, image, kernel = rank_image_kernel(t)

    def random_vector():
        return {i: v for i in range(n) if (v := random_scalar(rng))}

    def projection_onto(subspace_basis, along_random):
        span = Echelon(Matrix.zero(0, n))
        cols = list(subspace_basis)
        for b in cols:
            span.insert(b)
        extra = []
        guard = 0
        while span.rank < n:
            guard += 1
            assert guard < 500, "complement search stalled"
            v = random_vector()
            if span.insert(v):
                extra.append(v)
        basis = Matrix.from_sparse_cols(n, cols + extra)
        binv = invert(basis)
        sel = Matrix.from_entries(n, n, {(i, i): ONE for i in range(len(cols))})
        return basis * sel * binv

    e = projection_onto(image.rows, rng)
    # f projects onto a random complement of Ker(t) along Ker(t)
    span = Echelon(Matrix.zero(0, n))
    for b in kernel.rows:
        span.insert(b)
    comp = []
    guard = 0
    while span.rank < n:
        guard += 1
        assert guard < 500
        v = random_vector()
        if span.insert(v):
            comp.append(v)
    basis = Matrix.from_sparse_cols(n, comp + kernel.rows)
    binv = invert(basis)
    sel = Matrix.from_entries(n, n, {(i, i): ONE for i in range(len(comp))})
    f = basis * sel * binv
    return e, f


def solve_geninv_by_constraints(t, e, f):
    """Independent second path to the generalized inverse: solve the
    entries of r from r t = f and r (1 - e) = 0; asserts uniqueness."""
    from wmha.linalg import solve_linear

    n = t.rows
    comp = (Matrix.identity(n) - e).dense_rows()
    t, f = t.dense_rows(), f.dense_rows()
    constraints = []
    for i in range(n):
        for j in range(n):
            constraints.append(({i * n + k: t[k][j] for k in range(n) if t[k][j]}, f[i][j]))
            constraints.append(({i * n + k: comp[k][j] for k in range(n) if comp[k][j]}, ZERO))
    sol, space = solve_linear(constraints, n * n)
    assert space.dim == 0, "generalized inverse must be unique"
    return Matrix.from_rows([[sol[i * n + j] for j in range(n)] for i in range(n)])


def conjugated_input(name, complex_entries, p=None):
    """The convolution model of preset name conjugated by a dense change of
    basis P (random from a fixed seed unless given), with Gaussian entries
    when complex_entries: (StructureInput, P, P (x) P, model)."""
    from wmha.algebras import Algebra
    from wmha.groupoids import convolution_algebra, preset
    from wmha.pipeline import StructureInput

    m = convolution_algebra(preset(name))
    n = m.algebra.dim
    rng = random.Random(3)
    while p is None or invert(p) is None:
        def entry():
            re = rational(rng.randint(-2, 2), rng.choice([1, 2])).re
            im = rational(rng.randint(-1, 1)).re \
                if complex_entries and rng.random() < 0.4 else rational(0).re
            return Scalar(re, im)
        p = Matrix.from_rows([[entry() for _ in range(n)] for _ in range(n)])
    pinv = invert(p)
    entries = []
    for i in range(n):
        for j in range(n):
            prod = m.algebra.mul_sparse(dict(p.col_sparse(i)), dict(p.col_sparse(j)))
            entries.extend((i, j, k, v) for k, v in sorted(pinv.apply_sparse(prod).items()))
    conj = Algebra.from_structure(n, None, entries)
    if complex_entries:
        assert any(v.im for _, _, _, v in conj.structure_entries()), \
            "conjugation should produce genuinely complex structure constants"
    q = p.kron(p)
    qinv = invert(q)
    inp = StructureInput(conj, qinv * m.t1 * q, qinv * m.t2 * q,
                         qinv * m.t3 * q, qinv * m.t4 * q)
    return inp, p, q, m


@pytest.fixture
def rng():
    return random.Random(20240817)

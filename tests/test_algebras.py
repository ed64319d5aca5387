import pytest

from wmha.algebras import (Algebra, Multiplier, ParentMismatch,
                           StarStructure, flip_map,
                           multiplier_algebra, validate_algebra, validate_star)
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.linalg import Matrix
from wmha.scalars import ONE, rational


def cyclic_group_algebra(n):
    return Algebra.from_structure(
        n, [f"g{k}" for k in range(n)],
        [(i, j, (i + j) % n, ONE) for i in range(n) for j in range(n)])


def test_function_algebra_diagnostics():
    model = function_algebra(preset("pair:2"))
    diag = validate_algebra(model.algebra)
    assert diag.associative and diag.nondegenerate and diag.idempotent
    assert diag.unit == {i: ONE for i in range(4)}


def test_group_algebra_diagnostics():
    diag = validate_algebra(cyclic_group_algebra(2))
    assert diag.ok
    assert diag.unit == {0: ONE}


def test_degenerate_square_zero():
    a = Algebra.from_structure(1, ["x"], [])  # x*x = 0
    diag = validate_algebra(a)
    assert not diag.nondegenerate and not diag.idempotent
    assert diag.unit is None


def test_basis_products_match_groupoid():
    g = preset("pair:2")
    conv = convolution_algebra(g).algebra
    idx = g.index()
    # lambda_p lambda_q = lambda_pq when composable, else 0
    for p in g.morphisms:
        for q in g.morphisms:
            prod = conv.mul_basis(idx[p], idx[q])
            if g.composable(p, q):
                assert prod == {idx[g.compose[(p, q)]]: ONE}
            else:
                assert prod == {}
    fun = function_algebra(g).algebra
    for p in g.morphisms:
        for q in g.morphisms:
            expect = {idx[p]: ONE} if p == q else {}
            assert fun.mul_basis(idx[p], idx[q]) == expect


def test_multiply_zero_and_parent_check():
    a = cyclic_group_algebra(3)
    x = {1: ONE}
    assert a.mul_sparse(x, {}) == {}
    with pytest.raises(ParentMismatch):
        Multiplier.embed(a, x) * Multiplier.embed(cyclic_group_algebra(3), {0: ONE})


def test_mult_operators_consistent():
    a = cyclic_group_algebra(4)
    x = {0: rational(2), 1: ONE, 3: rational(-1)}
    y = {3: ONE}
    assert a.mult_operator_left(x).apply_sparse(y) == a.mul_sparse(x, y)
    assert a.mult_operator_right(x).apply_sparse(y) == a.mul_sparse(y, x)


def test_multiplier_algebra_unital_cases():
    for alg in (cyclic_group_algebra(2), function_algebra(preset("pair:2")).algebra):
        basis = multiplier_algebra(alg)
        assert len(basis) == alg.dim
        for m in basis:
            assert m.is_valid()
        unit = Multiplier.unit(alg)
        assert unit.is_valid()
        # the embedded copy sits inside the span and is an ideal
        emb = Multiplier.embed(alg, {0: ONE})
        assert emb.is_valid()
        assert (unit * emb) == emb


def test_multiplier_algebra_closure_and_ideal():
    from wmha.linalg import Echelon

    a = convolution_algebra(preset("pair:2")).algebra
    basis = multiplier_algebra(a)
    span = Echelon(Matrix.zero(0, 2 * a.dim * a.dim))
    for m in basis:
        span.insert(m.coords())
    embedded = [Multiplier.embed(a, {i: ONE}) for i in range(a.dim)]
    emb_span = Echelon(Matrix.zero(0, 2 * a.dim * a.dim))
    for m in embedded:
        assert span.contains(m.coords())
        emb_span.insert(m.coords())
    for m1 in basis:
        for m2 in basis:
            assert span.contains((m1 * m2).coords())
        # the embedded copy is a two-sided ideal
        for m2 in embedded:
            assert emb_span.contains((m1 * m2).coords())
            assert emb_span.contains((m2 * m1).coords())
    unit = Multiplier.unit(a)
    assert span.contains(unit.coords())


def test_multiplier_embedding_roundtrip():
    a = cyclic_group_algebra(3)
    x = {0: ONE, 1: rational(2), 2: rational(-1, 2)}
    m = Multiplier.embed(a, x)
    assert m.as_element() == x


def test_tensor_index_round_trip():
    for na in (1, 2, 3, 5):
        for nb in (1, 2, 4):
            t = Algebra.tensor(cyclic_group_algebra(na), cyclic_group_algebra(nb))
            assert t.dim == na * nb
            for i in range(na):
                for j in range(nb):
                    assert t.unflatten(t.flatten(i, j)) == (i, j)
            for idx in range(na * nb):
                assert t.flatten(*t.unflatten(idx)) == idx


def test_tensor_products_are_legwise():
    a = cyclic_group_algebra(2)
    t = Algebra.tensor(a, a)
    for i1 in range(2):
        for j1 in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    got = t.mul_basis(t.flatten(i1, j1), t.flatten(i2, j2))
                    assert got == {t.flatten((i1 + i2) % 2, (j1 + j2) % 2): ONE}


def test_tensor_of_nondegenerate_is_nondegenerate():
    a = convolution_algebra(preset("pair:2")).algebra
    t = Algebra.tensor(a, a)
    assert validate_algebra(t).nondegenerate


def test_opposite_abelian_fixed_and_involutive():
    fun = function_algebra(preset("pair:2")).algebra
    op = fun.opposite()
    for i in range(fun.dim):
        for j in range(fun.dim):
            assert op.mul_basis(i, j) == fun.mul_basis(i, j)
    conv = convolution_algebra(preset("pair:2")).algebra
    opop = conv.opposite().opposite()
    for i in range(conv.dim):
        for j in range(conv.dim):
            assert opop.mul_basis(i, j) == conv.mul_basis(i, j)
    # matrix units reverse: the opposite differs somewhere
    op1 = conv.opposite()
    assert any(op1.mul_basis(i, j) != conv.mul_basis(i, j)
               for i in range(conv.dim) for j in range(conv.dim))


def test_flip_map_involution():
    s = flip_map(3)
    assert s * s == Matrix.identity(9)


def test_unit_detection():
    g = preset("bundle:cyclic:2:3")
    conv = convolution_algebra(g)
    unit = Multiplier.unit(conv.algebra).as_element()
    assert unit is not None and unit == conv.oracle_unit
    a = Algebra.from_structure(1, ["x"], [])
    assert Multiplier.unit(a).as_element() is None
    # the zero-dimensional algebra is unital, with the empty sum as its unit
    assert validate_algebra(Algebra(0, [])).unit == {}


def test_star_structures_of_models():
    fun = function_algebra(preset("pair:2"))
    assert validate_star(StarStructure(fun.algebra, fun.star_matrix), fun.algebra).ok
    conv = convolution_algebra(preset("pair:2"))
    assert validate_star(StarStructure(conv.algebra, conv.star_matrix), conv.algebra).ok


def test_star_rejects_non_involutive_permutation():
    a = cyclic_group_algebra(3)
    perm = Matrix.permutation([1, 2, 0])  # order three, not an involution
    diag = validate_star(StarStructure(a, perm), a)
    assert not diag.involutive

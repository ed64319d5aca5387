import pytest

from wmha.algebras import (Algebra, Multiplier, ParentMismatch, as_elements, flip_map,
                           validate_algebra, validate_star)
from wmha.cli import main
from wmha.coproducts import RunCache
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.linalg import Matrix
from wmha.scalars import ONE, rational


def _statuses(a):
    """(associative, non-degenerate, idempotent) passes of a, and its unit."""
    checks, unit = validate_algebra(a, RunCache())
    return tuple(r.status == "pass" for r in checks), unit


def cyclic_group_algebra(n):
    return Algebra.from_structure(
        n, [f"g{k}" for k in range(n)],
        [(i, j, (i + j) % n, ONE) for i in range(n) for j in range(n)])


def test_function_algebra_diagnostics():
    model = function_algebra(preset("pair:2"))
    assert _statuses(model.algebra) == ((True, True, True), {i: ONE for i in range(4)})


def test_group_algebra_diagnostics():
    assert _statuses(cyclic_group_algebra(2)) == ((True, True, True), {0: ONE})


def test_degenerate_square_zero():
    a = Algebra.from_structure(1, ["x"], [])  # x*x = 0
    checks, unit = validate_algebra(a, RunCache())
    assert [(r.check_id, r.status, r.detail) for r in checks] == [
        ("algebra-associative", "pass", "structure tensor is associative"),
        ("algebra-nondegenerate", "fail", "nonzero x with x*A = 0"),
        ("algebra-idempotent", "fail", "products do not span the algebra")]
    assert unit is None


# E11, E12, E13, E23 and E33: an ideal of the upper triangular 3 x 3
# matrices, so associative, and without a unit (E12 u = E12 needs u22 = 1)
NON_UNITAL = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]


@pytest.mark.parametrize("unital", [False, True])
def test_spans_decide_non_degeneracy_and_idempotency_only_without_a_unit(unital, monkeypatch):
    # a unit u settles both: x A = 0 gives x = x u = 0, and e_j = e_j u lies
    # in A^2.  Without one, the two non-degeneracy spans and the A^2 span
    # are eliminated, and this algebra passes them with the same details
    spans = []
    store = RunCache()
    monkeypatch.setattr(store, "span", lambda n, vectors: spans.append(n) or RunCache.span(store, n, vectors))
    if unital:
        a = convolution_algebra(preset("pair:2")).algebra
    else:
        idx = {ij: k for k, ij in enumerate(NON_UNITAL)}
        a = Algebra.from_structure(5, [f"E{i + 1}{j + 1}" for i, j in NON_UNITAL],
                                   [(idx[p], idx[q], idx[p[0], q[1]], ONE)
                                    for p in NON_UNITAL for q in NON_UNITAL if p[1] == q[0]])
    checks, unit = validate_algebra(a, store)
    assert [(r.check_id, r.status, r.detail) for r in checks] == [
        ("algebra-associative", "pass", "structure tensor is associative"),
        ("algebra-nondegenerate", "pass", "product is non-degenerate"),
        ("algebra-idempotent", "pass", "products span the algebra")]
    assert (unit is not None, a.checked_unit() == unit, len(spans)) == \
        ((True, True, 0) if unital else (False, True, 3))


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
    b = cyclic_group_algebra(3)
    with pytest.raises(ParentMismatch):
        Multiplier.of_element(a, x) * Multiplier.of_element(b, {0: ONE})


def test_mult_operators_consistent():
    a = cyclic_group_algebra(4)
    x = {0: rational(2), 1: ONE, 3: rational(-1)}
    y = {3: ONE}
    assert Multiplier.of_element(a, x).left.apply_sparse(y) == a.mul_sparse(x, y)
    assert Multiplier.of_element(a, x).right.apply_sparse(y) == a.mul_sparse(y, x)


def test_multiplier_algebra_unital_cases():
    # in a unital algebra the unit and the embedded elements lie in M(A):
    # they satisfy the three module laws
    for alg in (cyclic_group_algebra(2), function_algebra(preset("pair:2")).algebra):
        unit = Multiplier.unit(alg)
        assert unit.compatibility_failure() is None
        x = {0: ONE}
        emb = Multiplier.of_element(alg, x)
        assert emb.compatibility_failure() is None
        assert (unit * emb) == emb


def test_multiplier_reports_its_first_violated_law():
    # (L_x, R_y) with x != y on a commutative algebra: both one-sided laws
    # hold, the link law e_i x e_j = e_i y e_j does not
    a = cyclic_group_algebra(3)
    m = Multiplier(a, Multiplier.of_element(a, {1: ONE}).left,
                   Multiplier.of_element(a, {2: ONE}).right)
    assert m.compatibility_failure() == "link law fails at (0,0)"
    assert RunCache().multiplier_failure(m) == "link law fails at (0,0)"
    # swapping the two idempotents of C^2 breaks the left and the right law
    # at (0,0): the left law is tested first
    c2 = Algebra.from_structure(2, ["p", "q"], [(0, 0, 0, ONE), (1, 1, 1, ONE)])
    swap = Matrix.permutation([1, 0])
    m = Multiplier(c2, swap, swap)
    assert m.compatibility_failure() == "left law fails at (0,0)"
    assert RunCache().multiplier_failure(m) == "left law fails at (0,0)"
    # the walk yields every violation, pair by pair, left, right, link
    assert list(m.law_failures()) == [
        ("left", 0, 0), ("right", 0, 0), ("left", 0, 1), ("right", 0, 1), ("link", 0, 1),
        ("left", 1, 0), ("right", 1, 0), ("link", 1, 0), ("left", 1, 1), ("right", 1, 1)]


def test_multiplier_embedding_roundtrip():
    a = cyclic_group_algebra(3)
    x = {0: ONE, 1: rational(2), 2: rational(-1, 2)}
    assert as_elements(a, [Multiplier.of_element(a, x)], RunCache()) == [x]


def test_tensor_products_are_legwise():
    a = cyclic_group_algebra(2)
    t = Algebra.tensor(a, a)
    for i1 in range(2):
        for j1 in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    got = t.mul_basis(i1 * 2 + j1, i2 * 2 + j2)
                    assert got == {(i1 + i2) % 2 * 2 + (j1 + j2) % 2: ONE}


@pytest.mark.parametrize("name, at_unit", [("pair:4", True), ("pair:2", False)])
def test_tensor_products_store_nothing(monkeypatch, capsys, name, at_unit):
    # every tensor product of a run multiplies through its factors, whether
    # the walks are read at the unit or run in full: none keeps a product
    # table or operator columns
    built = []
    real = Algebra.tensor

    def recorded(a, b):
        built.append(real(a, b))
        return built[-1]

    monkeypatch.setattr(Algebra, "tensor", staticmethod(recorded))
    if not at_unit:
        monkeypatch.setattr(Algebra, "checked_unit", lambda self: None)
    assert main(["verify", "--preset", name, "--model", "function", "--path", "both"]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert built
    assert [(len(t._table), len(t._cols)) for t in built] == [(0, 0)] * len(built)


def test_tensor_of_nondegenerate_is_nondegenerate():
    a = convolution_algebra(preset("pair:2")).algebra
    t = Algebra.tensor(a, a)
    assert _statuses(t)[0][1]


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
    unit, = as_elements(conv.algebra, [Multiplier.unit(conv.algebra)], RunCache())
    assert unit is not None and unit == conv.oracle_unit
    a = Algebra.from_structure(1, ["x"], [])
    assert as_elements(a, [Multiplier.unit(a)], RunCache()) == [None]
    # the zero-dimensional algebra is unital, with the empty sum as its unit
    assert validate_algebra(Algebra(0, []), RunCache())[1] == {}


def test_star_structures_of_models():
    fun = function_algebra(preset("pair:2"))
    got = validate_star(fun.star_matrix, fun.algebra)
    assert (got.check_id, got.status) == ("star-structure", "pass")
    conv = convolution_algebra(preset("pair:2"))
    assert validate_star(conv.star_matrix, conv.algebra).status == "pass"


def test_star_rejects_non_involutive_permutation():
    perm = Matrix.permutation([1, 2, 0])  # order three, not an involution
    # on C^3 the cyclic shift is an automorphism: only involutivity fails
    c3 = Algebra.from_structure(3, None, [(i, i, i, ONE) for i in range(3)])
    # on the group algebra of Z/3 it is not anti-multiplicative either, and
    # that witness is the one reported
    a = cyclic_group_algebra(3)
    # first walked, then, with a checked unit, read as two matrix identities,
    # each of which sends the check to its walk when it fails
    for checked in (False, True):
        if checked:
            for alg in (c3, a):
                validate_algebra(alg, RunCache())
        got = validate_star(perm, c3)
        assert (got.status, got.detail) == ("fail", "star fails involutivity")
        got = validate_star(perm, a)
        assert (got.status, got.detail) == ("fail", "(e0 e0)* != e0* e0*")


def test_checked_unit_is_set_by_a_passed_associativity_check():
    a = cyclic_group_algebra(3)
    assert a.checked_unit() is None
    validate_algebra(a, RunCache())
    assert a.checked_unit() == {0: ONE}


def test_checked_unit_is_none_without_associativity_or_a_unit():
    # 1, x, y with xx = y, xy = x: (xx)y = 0 but x(xy) = y, and 1 is a unit
    table = [(0, k, k, ONE) for k in range(3)] + [(k, 0, k, ONE) for k in (1, 2)] + \
        [(1, 1, 2, ONE), (1, 2, 1, ONE)]
    broken = Algebra.from_structure(3, ["1", "x", "y"], table)
    (associative, _, _), unit = _statuses(broken)
    assert not associative and unit == {0: ONE}
    assert broken.checked_unit() is None
    # associative, but e0 is a unit on the left only
    one_sided = Algebra.from_structure(2, None, [(0, 0, 0, ONE), (0, 1, 1, ONE)])
    (associative, _, _), unit = _statuses(one_sided)
    assert associative and unit is None
    assert one_sided.checked_unit() is None


def test_checked_unit_of_tensor_products_and_opposites():
    a, b = cyclic_group_algebra(2), function_algebra(preset("pair:1")).algebra
    ab = Algebra.tensor(a, b)
    op = a.opposite()
    assert ab.checked_unit() is None and op.checked_unit() is None
    validate_algebra(a, RunCache())
    assert ab.checked_unit() is None and op.checked_unit() is None
    validate_algebra(b, RunCache())
    # e0 (x) e0 in the row-major index of the tensor product
    assert ab.checked_unit() == {0: ONE}
    assert a.opposite().checked_unit() == a.checked_unit() == {0: ONE}
    conv = convolution_algebra(preset("pair:2")).algebra
    validate_algebra(conv, RunCache())
    unit = conv.checked_unit()
    assert Algebra.tensor(conv, conv.opposite()).checked_unit() == \
        {i * 4 + j: v * w for i, v in unit.items() for j, w in unit.items()}

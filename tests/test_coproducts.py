import random
import re

import pytest

from conftest import FINITE_INPUTS, conjugated_input, rank_image_kernel
from wmha import coproducts
from wmha.algebras import Multiplier, flip_map
from wmha.cli import main
from wmha.antipodes import build_generalized_inverses
from wmha.coproducts import (CoproductData, NoCounit, NoSolution, NoSuchIdempotent, RunCache,
                             NonUniqueCounit, ProjectionMaps, apply_on_legs13, check_E_conditions,
                             check_fullness, check_kernels, compute_E,
                             compute_E_from_flips, extend_delta, solve_G_maps,
                             solve_counit, validate_E, validate_G_maps,
                             validate_coproduct)
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.linalg import Echelon, Matrix, column_space, invert
from wmha.scalars import ONE, ZERO


def make(name, kind):
    g = preset(name)
    m = function_algebra(g) if kind == "function" else convolution_algebra(g)
    return m, CoproductData(m.algebra, m.t1, m.t2, m.t3, m.t4)


def all_pass(results):
    bad = [(r.check_id, r.detail) for r in results if r.status != "pass"]
    assert not bad, bad


def delta13(c, a, b, x):
    """coproduct_13(a) (1 (x) b (x) x) for sparse vectors a, b, x: the
    coproduct legs in slots 1 and 3, b passive in slot 2."""
    n = c.n
    abx = {(i * n + j) * n + k: u * v * w
           for i, u in a.items() for j, v in b.items() for k, w in x.items()}
    return apply_on_legs13(c.t1, abx, n)


def test_validate_coproduct_on_models():
    for name, kind in (("pair:2", "function"), ("pair:2", "convolution"),
                       ("group:cyclic:3", "convolution")):
        _, c = make(name, kind)
        all_pass(validate_coproduct(c))


def test_mutated_t1_fails_with_named_check():
    m, _ = make("pair:2", "function")
    data = m.t1.dense_rows()
    data[0][5] = data[0][5] + ONE
    t1 = Matrix.from_rows(data)
    c = CoproductData(m.algebra, t1, m.t2)
    results = validate_coproduct(c)
    failing = [r for r in results if r.status == "fail"]
    assert failing, "a corrupted canonical map must be detected"
    assert all(r.detail for r in failing)


def test_fullness_on_models_and_zero_coproduct():
    _, c = make("pair:2", "convolution")
    v, w, full = check_fullness(c)
    assert full and v.dim == 4 and w.dim == 4
    m, _ = make("pair:2", "function")
    zero = CoproductData(m.algebra, Matrix.zero(16, 16), Matrix.zero(16, 16))
    v, w, full = check_fullness(zero)
    assert not full and v.dim == 0 and w.dim == 0


def test_counit_values():
    m, c = make("group:cyclic:2", "convolution")
    assert solve_counit(c) == [ONE, ONE]
    m, c = make("pair:2", "function")
    eps = solve_counit(c)
    assert eps == m.oracle_counit  # indicator of the two unit morphisms
    assert sum(1 for v in eps if v) == 2
    m, c = make("pair:3", "convolution")
    assert solve_counit(c) == [ONE] * 9


def test_counit_failures_are_classified():
    m, _ = make("pair:2", "function")
    zero = CoproductData(m.algebra, Matrix.zero(16, 16), Matrix.zero(16, 16))
    with pytest.raises((NoCounit, NonUniqueCounit)):
        solve_counit(zero)


def test_E_on_function_model():
    m, c = make("pair:2", "function")
    e = compute_E(c)
    assert e.left == m.oracle_e_left and e.right == m.oracle_e_right
    assert column_space(e.left).dim == 8 and column_space(e.right).dim == 8
    all_pass(validate_E(c, e))
    all_pass(check_E_conditions(c, e))


def test_E_on_convolution_model():
    m, c = make("pair:2", "convolution")
    e = compute_E(c)
    assert e.left == m.oracle_e_left
    assert column_space(e.left).dim == 8
    # E = sum of lambda_e (x) lambda_e over the two units
    unit_pairs = [i * 4 + i for i, lbl in enumerate(m.groupoid.morphisms)
                  if lbl in m.groupoid.units]
    for k in unit_pairs:
        assert e.left.col_sparse(k) == [(k, ONE)]


def test_E_is_identity_for_hopf_case():
    _, c = make("group:cyclic:4", "convolution")
    e = compute_E(c)
    assert e.left == Matrix.identity(16) and e.right == Matrix.identity(16)


def test_infeasible_E_column_is_named_by_its_tensor_square_label():
    # random sparse +-1 maps on the tensor square of group:cyclic:2: an
    # infeasible column of E is a tensor-square index, so it must be named
    # "(a (x) b)" and must never index the two single labels out of range
    m = function_algebra(preset("group:cyclic:2"))

    def random_map(rng):
        return Matrix.from_rows([[rng.choice([ONE, -ONE]) if rng.random() < 0.3 else ZERO
                                  for _ in range(4)] for _ in range(4)])

    infeasible = {}
    for seed in range(40):
        rng = random.Random(seed)
        c = CoproductData(m.algebra, random_map(rng), random_map(rng))
        try:
            compute_E(c)
        except NoSuchIdempotent as exc:
            if "infeasible" in str(exc):
                infeasible[seed] = str(exc)
    assert infeasible
    for text in infeasible.values():
        assert re.search(r"column \(g\^[01] \(x\) g\^[01]\) infeasible$", text), text
    # column 2 = g^1 (x) g^0, past the two single labels
    assert infeasible[20] == ("no multiplier action with E(A (x) A) = Ran(T1): "
                              "column (g^1 (x) g^0) infeasible")


def test_E_from_flips_agrees():
    m, c = make("pair:2", "convolution")
    e = compute_E(c)
    e2 = compute_E_from_flips(c)
    assert e2 is not None and e2.left == e.left and e2.right == e.right


def test_extend_delta_of_unit_is_E():
    m, c = make("pair:2", "function")
    e = compute_E(c)
    ext = extend_delta(c, e, Multiplier.unit(m.algebra))
    assert ext.left == e.left and ext.right == e.right


def test_extend_delta_of_embedded_element_matches_coproduct():
    m, c = make("pair:2", "convolution")
    e = compute_E(c)
    for a in range(4):
        x = {a: ONE}
        emb = Multiplier.of_element(m.algebra, x)
        ext = extend_delta(c, e, emb)
        for x in range(16):
            xs = {x: ONE}
            assert dict(ext.left.col_sparse(x)) == c.delta_left(a, xs)
            assert dict(ext.right.col_sparse(x)) == c.delta_right(a, xs)


def test_extend_delta_pointwise_indicators():
    # the extension acts pointwise on the function model: f goes to
    # (p, q) -> f(pq); checked for the one-point indicator of a unit and
    # for the indicator of its whole target fiber
    g = preset("pair:2")
    m = function_algebra(g)
    c = CoproductData(m.algebra, m.t1, m.t2)
    e = compute_E(c)
    idx = g.index()
    unit = g.units[0]
    n = 4

    point = {idx[unit]: ONE}
    fiber = {idx[p]: ONE for p in g.morphisms if g.target[p] == unit}
    for vec, member in ((point, lambda p, q: g.compose[(p, q)] == unit),
                        (fiber, lambda p, q: g.target[p] == unit)):
        emb = Multiplier.of_element(m.algebra, vec)
        ext = extend_delta(c, e, emb)
        for p in g.morphisms:
            for q in g.morphisms:
                k = idx[p] * n + idx[q]
                col = dict(ext.left.col_sparse(k))
                expect = {k: ONE} if (g.composable(p, q) and member(p, q)) else {}
                assert col == expect


def test_delta13_action_examples():
    m, c = make("pair:2", "function")
    a = {1: ONE}
    b = {2: ONE}
    assert delta13(c, a, {}, a) == {}
    got = delta13(c, a, b, {0: ONE})
    # single-entry placement: legs 1 and 3 from T1, passive leg 2
    n = 4
    t1col = dict(c.t1.col_sparse(1 * n + 0))
    expect = {}
    for row, v in t1col.items():
        u, w = divmod(row, n)
        expect[(u * n + 2) * n + w] = v
    assert got == expect


def test_delta13_pointwise_formula_on_functions():
    # the triple placement of f evaluates as (p, q, v) -> f(pv) g(q) h(v)
    g = preset("pair:2")
    m = function_algebra(g)
    c = CoproductData(m.algebra, m.t1, m.t2)
    idx = g.index()
    n = 4
    for f_m in g.morphisms:
        got = delta13(c, {idx[f_m]: ONE}, {idx["(0,1)"]: ONE}, {idx["(1,0)"]: ONE})
        expect = {}
        for p in g.morphisms:
            for v in g.morphisms:
                if g.composable(p, v) and g.compose[(p, v)] == f_m \
                        and v == "(1,0)":
                    expect[(idx[p] * n + idx["(0,1)"]) * n + idx[v]] = ONE
        assert got == expect


def test_hopf_case_delta13_is_plain_coproduct():
    m, c = make("group:cyclic:3", "convolution")
    got = delta13(c, {1: ONE}, {0: ONE}, {2: ONE})
    n = 3
    expect = {}
    for row, v in c.t1.col_sparse(1 * n + 2):
        u, w = divmod(row, n)
        expect[(u * n + 0) * n + w] = v
    assert got == expect


def test_G_maps_match_oracles_and_validate():
    for name, kind in (("pair:2", "function"), ("pair:2", "convolution")):
        m, c = make(name, kind)
        eps = solve_counit(c)
        e = compute_E(c)
        gm = solve_G_maps(c, e)
        assert gm.g1 == m.oracle_g1 and gm.g2 == m.oracle_g2
        all_pass(validate_G_maps(c, e, eps, gm))
        all_pass(check_kernels(c, gm))


def test_G_idempotency_fails_on_a_doubled_G1():
    # 2 G1 passes the module laws, which are linear, and is not idempotent
    _, c = make("pair:2", "convolution")
    eps = solve_counit(c)
    e = compute_E(c)
    gm = solve_G_maps(c, e)
    got = {r.check_id: (r.status, r.detail)
           for r in validate_G_maps(c, e, eps, ProjectionMaps(gm.g1 + gm.g1, gm.g2))}
    assert got["projections-idempotent"] == ("fail", "G idempotency or kernel containment fails")


def test_a_solved_E_that_is_not_idempotent_raises(monkeypatch):
    # no input reaches this branch: each solved action is the unique
    # solution in its range, so it fixes that range pointwise and E.E = E.
    # A doubled left action stands in for a faulty solve
    _, c = make("pair:2", "convolution")
    solve = coproducts._solve_action
    monkeypatch.setattr(coproducts, "_e_at_unit", lambda c: None)
    monkeypatch.setattr(coproducts, "_solve_action", lambda c, fix_basis, test_basis, left_side: (
        lambda m: m + m if left_side else m)(solve(c, fix_basis, test_basis, left_side)))
    with pytest.raises(NoSuchIdempotent, match="solved canonical element is not idempotent"):
        compute_E(c)


def test_rank_nullity_violation_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # an elimination that loses a kernel vector breaks RunCache.kernel's
    # rank-nullity self-check: a fault in the engine, never a verdict
    nullspace = Echelon.nullspace
    monkeypatch.setattr(Echelon, "nullspace", lambda self: nullspace(self)[1:])
    report_path = tmp_path / "report.json"
    code = main(["verify", "--preset", "pair:2", "--model", "convolution", "--path", "both",
                 "--report", str(report_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert not report_path.exists()
    assert "verdict" not in captured.out
    assert "internal error: InvariantViolation: rank-nullity fails" in captured.err


def test_hopf_case_G_is_identity():
    _, c = make("group:cyclic:3", "convolution")
    eps = solve_counit(c)
    e = compute_E(c)
    gm = solve_G_maps(c, e)
    assert gm.g1 == Matrix.identity(9) and gm.g2 == Matrix.identity(9)


def test_kernel_dimensions_pair2():
    m, c = make("pair:2", "function")
    rank, _, ker = rank_image_kernel(c.t1)
    assert rank == 8 and ker.dim == 8


def test_larger_idempotent_breaks_kernel_equality():
    # with G replaced by the identity the containment survives but the
    # kernel equality fails
    m, c = make("pair:2", "function")
    gm = ProjectionMaps(Matrix.identity(16), Matrix.identity(16))
    results = check_kernels(c, gm)
    assert results[0].status == "fail"
    assert "containment" not in results[0].detail


def test_extend_delta_rejects_wrong_idempotent():
    from wmha.coproducts import IllDefinedExtension

    m, c = make("pair:2", "function")
    # the identity is an idempotent multiplier, but its image leaves
    # Ran(T1), so the extension recipe must refuse it
    fake = Multiplier.unit(c.aa)
    with pytest.raises(IllDefinedExtension):
        extend_delta(c, fake, Multiplier.unit(m.algebra))


def test_extension_failures_name_the_tensor_square_column():
    from wmha.coproducts import IllDefinedExtension, _lbl2

    m, c = make("pair:2", "function")
    e = compute_E(c)
    unit = Multiplier.unit(c.aa)

    def first_outside(ran):
        return next(x for x in range(c.nn)
                    if not ran.contains({x: ONE}))

    for fake, want in (
            (unit,
             f"E.{_lbl2(c, first_outside(c.ran_t1()))} is outside Ran(T1)"),
            (Multiplier(c.aa, e.left, unit.right),
             f"{_lbl2(c, first_outside(c.ran_t2()))}.E is outside Ran(T2)")):
        with pytest.raises(IllDefinedExtension) as exc:
            extend_delta(c, fake, Multiplier.unit(m.algebra))
        assert str(exc.value) == want


def test_G_cross_check_mode():
    m, c = make("pair:2", "convolution")
    eps = solve_counit(c)
    e = compute_E(c)
    gm = solve_G_maps(c, e)
    assert gm.g1 == m.oracle_g1

    def crosscheck(counit):
        return next(r.status for r in validate_G_maps(c, e, counit, gm)
                    if r.check_id == "projections-crosscheck")

    assert crosscheck(eps) == "pass"
    # a wrong counit makes the two construction paths disagree
    assert crosscheck([ONE, ZERO, ZERO, ONE]) == "fail"


def test_ambiguous_G_without_fullness():
    m, _ = make("pair:2", "function")
    zero = CoproductData(m.algebra, Matrix.zero(16, 16), Matrix.zero(16, 16))
    e = Multiplier(zero.aa, Matrix.zero(16, 16), Matrix.zero(16, 16))
    with pytest.raises(NoSolution):
        solve_G_maps(zero, e)


def _keep(n, kept):
    """The projection of the n-dim algebra onto the span of the kept basis vectors."""
    return Matrix.from_sparse_cols(n, [{i: ONE} if i in kept else {} for i in range(n)])


@pytest.mark.parametrize("case, error, detail", [
    ("T1 zero", NoSolution,
     "defining system for G1 underdetermined (rank 0 of 16); fullness must fail"),
    ("T1 leg 1 half", NoSolution,
     "defining system for G1 underdetermined (rank 8 of 16); fullness must fail"),
    ("T2 leg 2 quarter", NoSolution,
     "defining system for G2 underdetermined (rank 4 of 16); fullness must fail"),
    ("T2 zero", NoSolution,
     "defining system for G2 underdetermined (rank 0 of 16); fullness must fail"),
    ("E.left flip", NoSolution, "defining system for G1 inconsistent"),
    ("E.right flip", NoSolution, "defining system for G2 inconsistent"),
    ("pair:2 E.left flipped", NoSolution, "defining system for G1 inconsistent"),
    ("pair:2 E.right flipped", NoSolution, "defining system for G2 inconsistent"),
])
def test_G_solve_failures_name_the_map(case, error, detail):
    # each reachable failure of the G1 and G2 solves, its text recorded
    # before G2 was taken from the mirror presentation; G1 is solved first
    m, c = make("pair:2", "function")
    n, nn = c.n, c.nn
    one, zero, sigma, ident = Matrix.identity(nn), Matrix.zero(nn, nn), flip_map(n), Matrix.identity(n)
    if case.startswith("pair:2"):
        e = compute_E(c)
        left, right = (sigma * e.left * sigma, e.right) if "left" in case else \
            (e.left, sigma * e.right * sigma)
        t1, t2 = m.t1, m.t2
    else:
        t1, t2, left, right = {
            "T1 zero": (zero, one, zero, zero),
            "T1 leg 1 half": (_keep(n, {0, 2}).kron(ident), one, one, one),
            "T2 leg 2 quarter": (one, ident.kron(_keep(n, {1})), one, one),
            "T2 zero": (one, zero, one, zero),
            "E.left flip": (one, one, sigma, one),
            "E.right flip": (one, one, one, sigma)}[case]
    d = CoproductData(m.algebra, t1, t2)
    with pytest.raises(error) as exc:
        solve_G_maps(d, Multiplier(d.aa, left, right))
    assert str(exc.value) == detail


# pair:2 with 1 added to row 0, column j of E's right action: the
# idempotent-valid detail for every j where absorption fails, recorded
# before x.coproduct(a) was taken from the mirror presentation; every
# other j passes
RIGHT_ABSORPTION = {
    "function": {
        0: "coproduct((0,0)).E != coproduct((0,0)) at ((0,0) (x) (0,0))",
        1: "coproduct((0,1)).E != coproduct((0,1)) at ((0,0) (x) (0,1))",
        6: "coproduct((0,0)).E != coproduct((0,0)) at ((0,1) (x) (1,0))",
        7: "coproduct((0,1)).E != coproduct((0,1)) at ((0,1) (x) (1,1))",
        8: "coproduct((1,0)).E != coproduct((1,0)) at ((1,0) (x) (0,0))",
        9: "coproduct((1,1)).E != coproduct((1,1)) at ((1,0) (x) (0,1))",
        14: "coproduct((1,0)).E != coproduct((1,0)) at ((1,1) (x) (1,0))",
        15: "coproduct((1,1)).E != coproduct((1,1)) at ((1,1) (x) (1,1))"},
    "convolution": {
        0: "coproduct(L[(0,0)]).E != coproduct(L[(0,0)]) at (L[(0,0)] (x) L[(0,0)])",
        2: "coproduct(L[(0,0)]).E != coproduct(L[(0,0)]) at (L[(0,0)] (x) L[(1,0)])",
        5: "coproduct(L[(0,1)]).E != coproduct(L[(0,1)]) at (L[(0,0)] (x) L[(0,0)])",
        7: "coproduct(L[(0,1)]).E != coproduct(L[(0,1)]) at (L[(0,0)] (x) L[(1,0)])",
        8: "coproduct(L[(0,0)]).E != coproduct(L[(0,0)]) at (L[(1,0)] (x) L[(0,0)])",
        10: "coproduct(L[(0,0)]).E != coproduct(L[(0,0)]) at (L[(1,0)] (x) L[(1,0)])",
        13: "coproduct(L[(0,1)]).E != coproduct(L[(0,1)]) at (L[(1,0)] (x) L[(0,0)])",
        15: "coproduct(L[(0,1)]).E != coproduct(L[(0,1)]) at (L[(1,0)] (x) L[(1,0)])"},
}


@pytest.mark.parametrize("kind", ["function", "convolution"])
def test_right_absorption_failures_name_the_first_pair(kind):
    m, c = make("pair:2", kind)
    e = compute_E(c)
    for j in range(c.nn):
        rows = e.right.dense_rows()
        rows[0][j] += ONE
        got, = validate_E(c, Multiplier(c.aa, e.left, Matrix.from_rows(rows)))
        assert (got.status, got.detail) == (
            ("fail", RIGHT_ABSORPTION[kind][j]) if j in RIGHT_ABSORPTION[kind]
            else ("pass", "E idempotent with action ranks 8/16 and 8/16")), j


def _module_law_reference(c, laws, triples):
    """The first failing module law by dense operators: m must commute with
    L_x (x) 1 on leg 1 and with 1 (x) R_x on leg 2 at column a (x) b."""
    n = c.n
    ident = Matrix.identity(n)
    for a, b, x in triples:
        for mm, leg, what in laws:
            ex = Multiplier.of_element(c.parent, {x: ONE})
            op = ex.left.kron(ident) if leg == 1 else ident.kron(ex.right)
            if (mm * op).col_sparse(a * n + b) != (op * mm).col_sparse(a * n + b):
                at = (x, a, b) if leg == 1 else (a, b, x)
                return f"{what} at ({', '.join(c.parent.basis_labels[i] for i in at)})"
    return None


def test_module_law_failures_follow_the_walk_order():
    m, c = make("pair:2", "convolution")
    eps = solve_counit(c)
    e = compute_E(c)
    gm = solve_G_maps(c, e)
    n = c.n
    x_inner = [(a, b, x) for a in range(n) for b in range(n) for x in range(n)]
    x_outer = [(a, b, x) for x in range(n) for a in range(n) for b in range(n)]
    rng = random.Random(11)
    orders_differ = False
    for _ in range(6):
        data = gm.g1.dense_rows()
        for _ in range(3):
            data[rng.randrange(c.nn)][rng.randrange(c.nn)] += ONE
        g1 = Matrix.from_rows(data)
        got = {r.check_id: r.detail
               for r in validate_G_maps(c, e, eps, ProjectionMaps(g1, gm.g2))}
        factor = _module_law_reference(c, [(g1, 1, "G1 has no left-leg multiplier")], x_outer) or \
            _module_law_reference(c, [(gm.g2, 2, "G2 has no right-leg multiplier")], x_inner)
        assert got["projections-factor"] == \
            (f"{factor} (informational in the non-regular case)" if factor else "")
        module = _module_law_reference(c, [(g1, 2, "G1 module law fails"),
                                           (gm.g2, 1, "G2 module law fails")], x_inner)
        assert got["projections-idempotent"] == \
            (module or "G idempotency or kernel containment fails")
        orders_differ |= factor != _module_law_reference(
            c, [(g1, 1, "G1 has no left-leg multiplier")], x_inner)
    assert orders_differ


def _delta_right_reference(c, a, x):
    """x . coproduct(e_a) read off T2 directly: T2(x1 (x) e_a) = sum p (x) q
    gives p (x) x2 q."""
    acc = {}
    n = c.n
    for idx, coeff in x.items():
        x1, x2 = divmod(idx, n)
        for row, v in c.t2.col_sparse(x1 * n + a):
            p, q = divmod(row, n)
            for k, w in c.parent.mul_basis(x2, q).items():
                acc[p * n + k] = acc.get(p * n + k, ZERO) + coeff * v * w
    return {k: v for k, v in acc.items() if v}


@pytest.mark.parametrize("name, kind", FINITE_INPUTS)
def test_mirror_presentation_gives_the_right_handed_results(name, kind):
    # (A^op, sigma T2 sigma, sigma T1 sigma) solves, entry for entry, to the
    # flipped right-handed E, G, R, the same counit and the flipped
    # x.coproduct(a); G, whose G2 is taken from the mirror, also matches
    # the model's oracle
    if kind.endswith(" P"):
        inp, _, q, model = conjugated_input(name, complex_entries=kind == "Gaussian P")
        c = CoproductData(inp.algebra, inp.t1, inp.t2)
        oracle_g = (invert(q, RunCache()) * model.oracle_g1 * q, invert(q, RunCache()) * model.oracle_g2 * q)
    else:
        model, c = make(name, kind)
        oracle_g = (model.oracle_g1, model.oracle_g2)
    m = c.mirror()
    n, nn, sigma = c.n, c.nn, flip_map(c.n)
    e, em = compute_E(c), compute_E(m)
    assert (em.left, em.right) == (sigma * e.right * sigma, sigma * e.left * sigma)
    g, gm = solve_G_maps(c, e), solve_G_maps(m, em)
    assert (g.g1, g.g2) == oracle_g
    assert (gm.g1, gm.g2) == (sigma * g.g2 * sigma, sigma * g.g1 * sigma)
    r1, r2, _ = build_generalized_inverses(c, e, g)
    rm1, rm2, _ = build_generalized_inverses(m, em, gm)
    assert (rm1, rm2) == (sigma * r2 * sigma, sigma * r1 * sigma)
    assert solve_counit(m) == solve_counit(c)
    flip = [i % n * n + i // n for i in range(nn)]
    for a in range(n):
        for x in range(nn):
            got = m.delta_left(a, {flip[x]: ONE})
            assert {flip[i]: v for i, v in got.items()} == _delta_right_reference(c, a, {x: ONE})


def _solve_G1_recorded(monkeypatch, t1, left):
    """The NoSolution text of solve_G_maps on pair:2's function algebra with
    T1 = t1, T2 = 1 and E = (left, 1), and the pivot columns of the G1
    elimination in the order its rows arrived."""
    m, _ = make("pair:2", "function")
    made = []

    class Recorded(Echelon):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(coproducts, "Echelon", Recorded)
    d = CoproductData(m.algebra, t1, Matrix.identity(16))
    with pytest.raises(NoSolution) as exc:
        solve_G_maps(d, Multiplier(d.aa, left, Matrix.identity(16)))
    return str(exc.value), made[0].pivot_cols


def test_G_solve_finds_an_inconsistent_row_before_full_rank(monkeypatch):
    # with T1 = 1 and E.left the flip, row (x | y) of 1 (x) e_0 (x) e_1 at
    # leg-3 index 0 has x = 0 and y != 0: a pivot in the y half (column
    # >= 16) arrives while the x half still has rank 1, and every later
    # row still raises the x rank to 16
    detail, pivots = _solve_G1_recorded(monkeypatch, Matrix.identity(16), flip_map(2 * 2))
    assert detail == "defining system for G1 inconsistent"
    first_y = next(i for i, p in enumerate(pivots) if p >= 16)
    assert sum(p < 16 for p in pivots[:first_y]) < 16
    assert sum(p < 16 for p in pivots) == 16


def test_G_solve_reports_underdetermined_before_inconsistent(monkeypatch):
    # T1 = P (x) 1 for the projection P onto e_0, e_2: x rank 8 of 16, and
    # the flip in E.left still makes rows inconsistent
    n = 4
    detail, pivots = _solve_G1_recorded(monkeypatch, _keep(n, {0, 2}).kron(Matrix.identity(n)),
                                        flip_map(n))
    assert detail == "defining system for G1 underdetermined (rank 8 of 16); fullness must fail"
    assert sum(p < 16 for p in pivots) == 8 and any(p >= 16 for p in pivots)

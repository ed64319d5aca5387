import pytest

from wmha.algebras import StarStructure, validate_algebra
from wmha.antipodes import (AntipodesDisagree, appendix_suite,
                            build_generalized_inverses, compute_antipode,
                            check_antipode_identities, compute_source_target,
                            derive_flip_maps, regular_suite, star_suite,
                            verify_via_antipode, weak_hopf_suite)
from wmha.coproducts import CoproductData, compute_E, solve_G_maps, solve_counit
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.linalg import Matrix, invert
from wmha.scalars import ONE, ZERO, rational


def build_all(name, kind):
    g = preset(name)
    m = function_algebra(g) if kind == "function" else convolution_algebra(g)
    c = CoproductData(m.algebra, m.t1, m.t2, m.t3, m.t4)
    eps = solve_counit(c)
    e = compute_E(c)
    gm = solve_G_maps(c, e)
    r1, r2, checks = build_generalized_inverses(c, e, gm)
    w, ck = compute_antipode(c, r1, r2, eps)
    return m, c, eps, e, gm, w, checks + ck


def all_pass(results):
    bad = [(r.check_id, r.status, r.detail) for r in results if r.status != "pass"]
    assert not bad, bad


def test_hopf_case_inverses_are_actual_inverses():
    m, c, eps, e, gm, w, checks = build_all("group:cyclic:3", "convolution")
    all_pass(checks)
    assert w.r1 == invert(c.t1) and w.r2 == invert(c.t2)


def test_antipode_matches_inversion_oracles():
    for name, kind in (("pair:2", "function"), ("pair:2", "convolution"),
                       ("bundle:cyclic:2:3", "convolution")):
        m, c, eps, e, gm, w, checks = build_all(name, kind)
        all_pass(checks)
        assert w.s_matrix == m.oracle_s
        # inversion is involutive
        assert w.s_matrix * w.s_matrix == Matrix.identity(c.n)
        assert w.s_matrix_inv == w.s_matrix


def test_cyclic2_antipode_is_identity():
    m, c, eps, e, gm, w, _ = build_all("group:cyclic:2", "convolution")
    assert w.s_matrix == Matrix.identity(2)


def test_identity_suite_and_source_target():
    for name, kind in (("pair:2", "function"), ("pair:2", "convolution")):
        m, c, eps, e, gm, w, _ = build_all(name, kind)
        st, checks = compute_source_target(c, e, gm, w, eps)
        all_pass(checks)
        all_pass(check_antipode_identities(c, e, gm, w, eps))
        # number of units bounds the source/target image dimensions
        units = len(m.groupoid.units)
        assert st.image_s.dim == units and st.image_t.dim == units


def test_source_target_values_function_model():
    # source map sends the one-point indicator of a unit to the indicator
    # of its source fiber, and kills non-units
    g = preset("pair:2")
    m, c, eps, e, gm, w, _ = build_all("pair:2", "function")
    st, _ = compute_source_target(c, e, gm, w, eps)
    idx = g.index()
    n = 4
    for p in g.morphisms:
        val = st.eps_s[idx[p]]
        if g.source[p] == g.target[p] == p:
            expect = Matrix.from_entries(n, n, {(idx[q], idx[q]): ONE for q in g.morphisms
                                                if g.source[q] == p})
            assert val.left == expect
        else:
            assert val.left.is_zero()


def test_source_target_values_convolution_model():
    g = preset("pair:2")
    m, c, eps, e, gm, w, _ = build_all("pair:2", "convolution")
    st, _ = compute_source_target(c, e, gm, w, eps)
    idx = g.index()
    for p in g.morphisms:
        # eps_s(lambda_p) = lambda_{s(p)}, eps_t(lambda_p) = lambda_{t(p)}
        sl = st.eps_s[idx[p]].as_element()
        tl = st.eps_t[idx[p]].as_element()
        assert sl == {idx[g.source[p]]: ONE}
        assert tl is not None and tl.get(idx[g.target[p]]) == ONE


def test_hopf_case_source_target_collapse_to_counit():
    m, c, eps, e, gm, w, _ = build_all("group:cyclic:3", "convolution")
    st, checks = compute_source_target(c, e, gm, w, eps)
    all_pass(checks)
    for a in range(3):
        assert st.eps_s[a].left == Matrix.from_entries(3, 3, {(i, i): eps[a] for i in range(3)})


def test_regular_suite_and_flip_maps():
    m, c, eps, e, gm, w, _ = build_all("pair:2", "convolution")
    checks, t3, t4 = regular_suite(c, e, gm, w)
    all_pass(checks)
    assert w.not_regular is None
    d3, d4 = derive_flip_maps(w)
    assert d3 == m.t3 and d4 == m.t4


def test_weak_hopf_identity_spot_check():
    # counit weak multiplicativity at concrete matrix units of the
    # convolution model
    g = preset("pair:2")
    m, c, eps, e, gm, w, _ = build_all("pair:2", "convolution")
    st, _ = compute_source_target(c, e, gm, w, eps)
    unit = validate_algebra(m.algebra).unit
    all_pass(weak_hopf_suite(c, e, st, eps, unit))
    assert e.left != Matrix.identity(c.nn)   # weak Hopf, not Hopf
    idx = g.index()
    a, b, cc = idx["(0,1)"], idx["(1,0)"], idx["(0,1)"]
    abc = m.algebra.mul_sparse(m.algebra.mul_sparse({a: ONE}, {b: ONE}), {cc: ONE})
    lhs = sum((v for i, v in abc.items() if eps[i]), ZERO)
    assert lhs == ONE  # eps(abc) with the diagonal coproduct: both sides one


def test_weak_hopf_flags_hopf_for_groups():
    m, c, eps, e, gm, w, _ = build_all("group:cyclic:4", "convolution")
    st, _ = compute_source_target(c, e, gm, w, eps)
    unit = validate_algebra(m.algebra).unit
    all_pass(weak_hopf_suite(c, e, st, eps, unit))
    assert e.left == Matrix.identity(c.nn)   # weak Hopf with E = 1: Hopf


def test_star_suite_and_twisted_star_failure():
    m, c, eps, e, gm, w, _ = build_all("pair:2", "convolution")
    checks, t3, t4 = regular_suite(c, e, gm, w)
    star = StarStructure(m.algebra, m.star_matrix)
    all_pass(star_suite(c, e, w, star, t3, t4))
    # a star twisted by a non-inversion involution breaks the suite
    perm = Matrix.permutation([1, 0, 3, 2])  # swaps within rows, not inversion
    twisted = StarStructure(m.algebra, perm)
    results = star_suite(c, e, w, twisted, t3, t4)
    assert any(r.status == "fail" for r in results)


def test_appendix_suite_on_models():
    for name, kind in (("pair:2", "function"), ("pair:3", "convolution"),
                       ("group:cyclic:2", "convolution")):
        m, c, eps, e, gm, w, _ = build_all(name, kind)
        st, _ = compute_source_target(c, e, gm, w, eps)
        all_pass(appendix_suite(c, e, w, st))


def test_generalized_inverses_match_pointwise_formulas():
    # closed forms from groupoid combinatorics alone:
    # function model:    R1(d_a (x) d_b) = [ab defined] d_ab   (x) d_b
    #                    R2(d_a (x) d_b) = [ab defined] d_a    (x) d_ab
    # convolution model: R1(l_a (x) l_b) = [t(a)=t(b)] l_a     (x) l_{a^-1 b}
    #                    R2(l_a (x) l_b) = [s(a)=s(b)] l_{a b^-1} (x) l_b
    for name in ("pair:2", "pair:3", "bundle:cyclic:2:3"):
        g0 = preset(name)
        idx = g0.index()
        n = len(g0.morphisms)

        m, c, eps, e, gm, w, _ = build_all(name, "function")
        r1_entries, r2_entries = {}, {}
        for a in g0.morphisms:
            for b in g0.morphisms:
                col = idx[a] * n + idx[b]
                if g0.composable(a, b):
                    ab = g0.compose[(a, b)]
                    r1_entries[idx[ab] * n + idx[b], col] = ONE
                    r2_entries[idx[a] * n + idx[ab], col] = ONE
        r1_expect = Matrix.from_entries(n * n, n * n, r1_entries)
        r2_expect = Matrix.from_entries(n * n, n * n, r2_entries)
        assert w.r1 == r1_expect and w.r2 == r2_expect

        m, c, eps, e, gm, w, _ = build_all(name, "convolution")
        r1_entries, r2_entries = {}, {}
        for a in g0.morphisms:
            for b in g0.morphisms:
                col = idx[a] * n + idx[b]
                if g0.target[a] == g0.target[b]:
                    ainv_b = g0.compose[(g0.inverse[a], b)]
                    r1_entries[idx[a] * n + idx[ainv_b], col] = ONE
                if g0.source[a] == g0.source[b]:
                    a_binv = g0.compose[(a, g0.inverse[b])]
                    r2_entries[idx[a_binv] * n + idx[b], col] = ONE
        r1_expect = Matrix.from_entries(n * n, n * n, r1_entries)
        r2_expect = Matrix.from_entries(n * n, n * n, r2_entries)
        assert w.r1 == r1_expect and w.r2 == r2_expect


def test_source_target_pointwise_on_larger_groupoid():
    # function model on pair:3: eps_s(d_a) multiplies by [s(q) = a],
    # eps_t(d_a) by [t(q) = a]; both vanish unless a is a unit
    g0 = preset("pair:3")
    idx = g0.index()
    n = len(g0.morphisms)
    m, c, eps, e, gm, w, _ = build_all("pair:3", "function")
    st, _ = compute_source_target(c, e, gm, w, eps)
    units = set(g0.units)
    for a in g0.morphisms:
        s_entries, t_entries = {}, {}
        if a in units:
            for q in g0.morphisms:
                if g0.source[q] == a:
                    s_entries[idx[q], idx[q]] = ONE
                if g0.target[q] == a:
                    t_entries[idx[q], idx[q]] = ONE
        expect_s = Matrix.from_entries(n, n, s_entries)
        expect_t = Matrix.from_entries(n, n, t_entries)
        assert st.eps_s[idx[a]].left == expect_s
        assert st.eps_t[idx[a]].left == expect_t


def test_antipode_path_accepts_oracles():
    m = function_algebra(preset("pair:2"))
    c = CoproductData(m.algebra, m.t1, m.t2)
    checks, w, e = verify_via_antipode(c, m.oracle_s, m.oracle_e_left, m.oracle_e_right)
    all_pass(checks)
    assert w is not None and w.s_matrix == m.oracle_s


def test_antipode_path_rejects_identity_antipode():
    # replacing S by the identity on the pair-groupoid function algebra
    # breaks the counit-style identities (p p p != p for non-units)
    m = function_algebra(preset("pair:2"))
    c = CoproductData(m.algebra, m.t1, m.t2)
    checks, w, e = verify_via_antipode(c, Matrix.identity(4),
                                       m.oracle_e_left, m.oracle_e_right)
    statuses = {r.check_id: r.status for r in checks}
    assert statuses.get("thm29-identities") == "fail" or \
        statuses.get("thm29-r-ranges") == "fail"


def test_antipode_disagreement_is_detected():
    # feeding mismatched projection maps corrupts the one-sided antipodes
    m, c, eps, e, gm, w, _ = build_all("pair:2", "function")
    from wmha.coproducts import ProjectionMaps
    bad = ProjectionMaps(Matrix.identity(16), gm.g2)
    try:
        r1, r2, _ = build_generalized_inverses(c, e, bad)
    except Exception:
        return  # rejected even earlier, as a bad projection pair
    with pytest.raises(AntipodesDisagree):
        compute_antipode(c, r1, r2, eps)


def _bump(r, col, row):
    """r with one more e_row in its column col."""
    return r + Matrix.from_entries(r.rows, r.cols, {(row, col): ONE})


def _doubled(r, cols):
    """r with the columns cols doubled."""
    return r * Matrix.from_entries(r.cols, r.cols, {(j, j): rational(2 if j in cols else 1)
                                                    for j in range(r.cols)})


# (a, b) -> the column of R1 at e_a (x) e_b and of R2 at e_b (x) e_a, the
# column that gives S1(e_a) e_b and e_b S2(e_a); row 0 is e_0 (x) e_0
@pytest.mark.parametrize("doctor, details", [
    (lambda r1, r2: (_bump(r1, 1 * 4 + 2, 0), r2),
     ("S1(L[(0,1)]) is not a left multiplier at (L[(1,0)],L[(0,1)])",
      "b(S1(a)c) != (bS2(a))c at (a,b,c)=(L[(0,1)],L[(0,0)],L[(1,0)])")),
    (lambda r1, r2: (r1, _bump(r2, 2 * 4 + 1, 0)),
     ("S2(L[(0,1)]) is not a right multiplier at (L[(0,0)],L[(1,0)])",
      "b(S1(a)c) != (bS2(a))c at (a,b,c)=(L[(0,1)],L[(1,0)],L[(0,0)])")),
    # a right-law failure of S(e_1) comes before a left-law one of S(e_2)
    (lambda r1, r2: (_bump(r1, 2 * 4 + 2, 0), _bump(r2, 2 * 4 + 1, 0)),
     ("S2(L[(0,1)]) is not a right multiplier at (L[(0,0)],L[(1,0)])",
      "b(S1(a)c) != (bS2(a))c at (a,b,c)=(L[(0,1)],L[(1,0)],L[(0,0)])")),
    # and, for one S(e_1), before a left-law failure at a later pair
    (lambda r1, r2: (_bump(r1, 1 * 4 + 2, 0), _bump(r2, 2 * 4 + 1, 0)),
     ("S2(L[(0,1)]) is not a right multiplier at (L[(0,0)],L[(1,0)])",
      "b(S1(a)c) != (bS2(a))c at (a,b,c)=(L[(0,1)],L[(0,0)],L[(1,0)])")),
    # S1(e_1) = 2 S2(e_1): both one-sided multipliers, but not one map
    (lambda r1, r2: (_doubled(r1, {1 * 4 + b for b in range(4)}), r2),
     (None, "b(S1(a)c) != (bS2(a))c at (a,b,c)=(L[(0,1)],L[(0,1)],L[(0,0)])")),
])
def test_antipode_law_failures_name_the_first_pair(doctor, details):
    # doctored R maps of the 2x2 matrix algebra (pair:2 convolution): the
    # first failure of the left and right laws over (a, i, j), then the
    # first failure of the link law b(S1(a)c) = (bS2(a))c
    m, c, eps, e, gm, w, _ = build_all("pair:2", "convolution")
    with pytest.raises(AntipodesDisagree) as exc:
        compute_antipode(c, *doctor(w.r1, w.r2), eps)
    defined, agree = exc.value.checks
    law_detail, agree_detail = details
    assert (defined.check_id, agree.check_id) == ("antipode-defined", "antipodes-agree")
    assert defined.status == ("pass" if law_detail is None else "fail")
    if law_detail is not None:
        assert defined.detail == law_detail
    assert (agree.status, agree.detail) == ("fail", agree_detail)

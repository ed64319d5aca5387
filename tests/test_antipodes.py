import pytest

from conftest import FINITE_INPUTS, conjugated_input
from test_unit_walks import record_full_walks
from wmha import antipodes
from wmha.algebras import (Algebra, Multiplier, as_elements, flip_map,
                           is_isomorphism, validate_algebra)
from wmha.antipodes import (AntipodeWitness, AntipodesDisagree, appendix_suite,
                            build_generalized_inverses, compute_antipode,
                            check_antipode_identities, compute_source_target,
                            derive_flip_maps, regular_suite, star_suite,
                            verify_via_antipode, weak_hopf_suite)
from wmha.coproducts import (CoproductData, NoSuchIdempotent, RunCache, compute_E,
                             solve_G_maps, solve_counit)
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
    assert w.r1 == invert(c.t1, RunCache()) and w.r2 == invert(c.t2, RunCache())


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
        all_pass(check_antipode_identities(c, e, gm, w, st))
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
            assert val.left == Matrix.zero(n, n)


def test_source_target_values_convolution_model():
    g = preset("pair:2")
    m, c, eps, e, gm, w, _ = build_all("pair:2", "convolution")
    st, _ = compute_source_target(c, e, gm, w, eps)
    idx = g.index()
    for p in g.morphisms:
        # eps_s(lambda_p) = lambda_{s(p)}, eps_t(lambda_p) = lambda_{t(p)}
        sl, tl = as_elements(c.parent, [st.eps_s[idx[p]], st.eps_t[idx[p]]], c.cache)
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
    unit = validate_algebra(m.algebra, RunCache())[1]
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
    unit = validate_algebra(m.algebra, RunCache())[1]
    all_pass(weak_hopf_suite(c, e, st, eps, unit))
    assert e.left == Matrix.identity(c.nn)   # weak Hopf with E = 1: Hopf


def test_star_suite_and_twisted_star_failure():
    m, c, eps, e, gm, w, _ = build_all("pair:2", "convolution")
    checks, t3, t4 = regular_suite(c, e, gm, w)
    all_pass(star_suite(c, e, w, m.star_matrix, t3, t4))
    # a star twisted by a non-inversion involution breaks the suite
    perm = Matrix.permutation([1, 0, 3, 2])  # swaps within rows, not inversion
    results = star_suite(c, e, w, perm, t3, t4)
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


def _witnesses(name, kind):
    """(c, counit, E, G, antipode witness) of a finite preset model, or of
    a dense conjugation ("rational P", "Gaussian P") of its convolution
    model."""
    if kind.endswith(" P"):
        inp = conjugated_input(name, complex_entries=kind == "Gaussian P")[0]
        c = CoproductData(inp.algebra, inp.t1, inp.t2)
        eps, e = solve_counit(c), compute_E(c)
        gm = solve_G_maps(c, e)
        r1, r2, _ = build_generalized_inverses(c, e, gm)
        w, _ = compute_antipode(c, r1, r2, eps)
    else:
        _, c, eps, e, gm, w, _ = build_all(name, kind)
    return c, eps, e, gm, w


@pytest.mark.parametrize("name, kind", FINITE_INPUTS)
def test_source_target_columns_are_the_contractions(name, kind):
    # column b of eps_s(a).left is (eps (x) id)G1(a (x) b), of eps_s(a).right
    # m R2(b (x) a), of eps_t(a).left m R1(a (x) b) and of eps_t(a).right
    # (id (x) eps)G2(b (x) a), each summed here term by term
    c, eps, e, gm, w = _witnesses(name, kind)
    st, _ = compute_source_target(c, e, gm, w, eps)
    n = c.n

    def total(terms):
        out = {}
        for k, v in terms:
            out[k] = out.get(k, ZERO) + v
        return {k: v for k, v in out.items() if v}

    def counit_off(m, col, leg):
        return total((j if leg == 1 else i, v * eps[i if leg == 1 else j])
                     for row, v in m.col_sparse(col) for i, j in [divmod(row, n)])

    def multiplied(m, col):
        return total((k, v * u) for row, v in m.col_sparse(col)
                     for k, u in c.parent.mul_basis(*divmod(row, n)).items())

    for a in range(n):
        for b in range(n):
            assert dict(st.eps_s[a].left.col_sparse(b)) == counit_off(gm.g1, a * n + b, 1)
            assert dict(st.eps_s[a].right.col_sparse(b)) == multiplied(w.r2, b * n + a)
            assert dict(st.eps_t[a].left.col_sparse(b)) == multiplied(w.r1, a * n + b)
            assert dict(st.eps_t[a].right.col_sparse(b)) == counit_off(gm.g2, b * n + a, 2)


@pytest.mark.parametrize("name, kind", [("pair:2", "function"), ("pair:2", "convolution"),
                                        ("bundle:cyclic:2:2", "function"),
                                        ("pair:2", "rational P")])
def test_shared_strip_echelons_give_the_fresh_results(name, kind):
    # the regular suite's sandwich tables and the antipode path's R
    # recovery share the (right, leg 2) strip echelon of one run's store;
    # in either order they give what each gives on a coproduct of its own
    c, _, e, _, w = _witnesses(name, kind)
    n = c.n

    def fresh():
        return CoproductData(c.parent, c.t1, c.t2)

    def r_maps(d):
        _, got, _ = verify_via_antipode(d, w.s_matrix, e.left, e.right)
        return got.r1, got.r2

    tables, rs = antipodes._sandwich_tables(fresh(), e), r_maps(fresh())
    assert tables is not None and rs == (w.r1, w.r2)
    for first_tables in (True, False):
        shared = fresh()
        if first_tables:
            assert antipodes._sandwich_tables(shared, e) == tables
        assert r_maps(shared) == rs
        assert antipodes._sandwich_tables(shared, e) == tables
        assert sorted(key[2:] for key in vars(shared.cache)['_store'] if key[0] == "strips") == \
            [(False, 1), (False, n), (True, n)]


def test_zero_antipode_values_fail_antipode_spans():
    # S(e_a) = 0 for every a: A S(A) and S(A) A are zero
    c, eps, e, gm, w = _witnesses("pair:2", "convolution")
    st, _ = compute_source_target(c, e, gm, w, eps)
    zero = Multiplier(c.parent, Matrix.zero(c.n, c.n), Matrix.zero(c.n, c.n))
    doctored = AntipodeWitness(w.r1, w.r2, [zero] * c.n, w.s_matrix, w.s_matrix_inv)
    got = {r.check_id: (r.status, r.detail)
           for r in check_antipode_identities(c, e, gm, doctored, st)}
    assert got["antipode-spans"] == ("fail", "spans have dims 0 and 0 of 4")


def test_antipode_values_outside_the_algebra_are_not_regular(monkeypatch):
    # A: the span of E11, E12, E13, E23 and E33, an ideal of the upper
    # triangular 3 x 3 matrices that is non-degenerate and idempotent with
    # no unit.  E22 multiplies it from both sides, a multiplier of A that is
    # not an element.  With eps the E11 coefficient, R1(e_a (x) e_b) =
    # E11 (x) E22 e_b and R2(e_b (x) e_a) = e_b E22 (x) E11 contract to
    # S(e_a) = E22 for every a: S passes its laws and misses A.  No input
    # that passes the gate reaches this through the pipeline (CHANGES.md)
    basis = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)]
    index = {ij: k for k, ij in enumerate(basis)}
    alg = Algebra.from_structure(5, None, [(index[i, j], index[k, l], index[i, l], ONE)
                                           for i, j in basis for k, l in basis if j == k])
    checks, unit = validate_algebra(alg, RunCache())
    all_pass(checks)
    assert unit is None
    left, right = {index[2, 3]: {index[2, 3]: ONE}}, {index[1, 2]: {index[1, 2]: ONE}}
    r1 = Matrix.from_sparse_cols(25, [{k: v for k, v in left.get(b, {}).items()}
                                      for a in range(5) for b in range(5)])
    r2 = Matrix.from_sparse_cols(25, [{k * 5: v for k, v in right.get(b, {}).items()}
                                      for b in range(5) for a in range(5)])
    c = CoproductData(alg, Matrix.zero(25, 25), Matrix.zero(25, 25))
    w, checks = compute_antipode(c, r1, r2, [ONE, ZERO, ZERO, ZERO, ZERO])
    all_pass(checks)
    assert w.s_matrix is None
    assert w.not_regular == "antipode does not map the algebra into itself"
    # the S(e_a) are no elements, so anti-multiplicativity is walked: it
    # fails where e_a e_b = 0, as S(e_b)S(e_a) = E22
    sites = record_full_walks(monkeypatch)
    assert next(antipodes._antimultiplicative_failures(c, w)) == "S(e0 e3) != S(e3)S(e0)"
    assert sites == ["_antimultiplicative_failures"]


def test_r_recovery_fails_thm29_r_ranges():
    # no gated input reaches these: a T2 that is not a left-module map,
    # and a zero product, which strips nothing
    c, _, e, _, w = _witnesses("pair:2", "convolution")
    bumped = c.t2 + Matrix.from_entries(16, 16, {(1, 0): ONE})
    zero = Algebra.from_structure(4, None, [])
    for d, detail in ((CoproductData(c.parent, c.t1, bumped),
                       "R1(L[(0,0)] (x) L[(0,0)]) does not land in the tensor square"),
                      (CoproductData(zero, Matrix.zero(16, 16), Matrix.zero(16, 16)),
                       "product is too degenerate to recover the R maps")):
        checks, got, e29 = verify_via_antipode(d, w.s_matrix, e.left, e.right)
        assert [(r.check_id, r.status, r.detail) for r in checks] == \
            [("thm29-r-ranges", "fail", detail)]
        assert got is None and e29 is None


TRANSPORTED = ("regular-f-formulas", "regular-cop-idempotent")


def _count_law_walks_and_solves(monkeypatch):
    """Lists that receive the parent of every multiplier-law walk and the
    presentation of every canonical-idempotent solve made from now on."""
    import wmha.coproducts

    walks, solves = [], []
    walk, solve = Multiplier.compatibility_failure, wmha.coproducts._solve_E
    monkeypatch.setattr(Multiplier, "compatibility_failure",
                        lambda m: walks.append(m.parent) or walk(m))
    monkeypatch.setattr(wmha.coproducts, "_solve_E", lambda c: solves.append(c) or solve(c))
    return walks, solves


def _transported_in_full(c, e, w, t3, t4):
    """regular-f-formulas and regular-cop-idempotent as (status, detail),
    computed without transport: the idempotency and the law walks of
    F1..F4 themselves, and the flipped-coproduct idempotent solved
    directly on (sigma T4 sigma, sigma T3 sigma) with a fresh cache."""
    fs = antipodes._f_multipliers(c, w, e)
    f_ok = all(f * f == f for f in fs) and not any(f.compatibility_failure() for f in fs)
    sigma = flip_map(c.n)
    try:
        e_cop = compute_E(CoproductData(c.parent, sigma * t4 * sigma, sigma * t3 * sigma))
        cop = ("pass", "flipped-coproduct presentation has canonical idempotent sigma E") \
            if (e_cop.left, e_cop.right) == (sigma * e.left * sigma, sigma * e.right * sigma) \
            else ("fail", "flipped-coproduct idempotent differs from sigma E")
    except NoSuchIdempotent as exc:
        cop = ("fail", f"flipped-coproduct idempotent: {exc}")
    return {"regular-f-formulas":
            ("pass", "F1..F4 from E are idempotent multipliers of the twisted squares") if f_ok
            else ("fail", "an F idempotent fails multiplier laws"),
            "regular-cop-idempotent": cop}


@pytest.mark.parametrize("name, kind", FINITE_INPUTS)
def test_regular_suite_transport_matches_the_full_computation(name, kind, monkeypatch):
    # S is an anti-isomorphism and the flip ranges hold on every regular
    # input, so both results are read off E: no law walk and no E solve
    # runs inside the suite, and the results are those of the full walks
    c, _, e, gm, w = _witnesses(name, kind)
    assert is_isomorphism(c.parent, w.s_matrix, w.s_matrix_inv, c.parent.opposite())
    walks, solves = _count_law_walks_and_solves(monkeypatch)
    checks, t3, t4 = regular_suite(c, e, gm, w)
    assert (walks, solves) == ([], [])
    monkeypatch.undo()
    got = {r.check_id: (r.status, r.detail) for r in checks}
    assert {cid: got[cid] for cid in TRANSPORTED} == _transported_in_full(c, e, w, t3, t4)
    assert {status for status, _ in got.values()} == {"pass"}


@pytest.mark.parametrize("kind, doctored_s, f_formulas", [
    # S = 1 on the matrix algebra: S(ab) = ab, not ba
    ("convolution", lambda w, n: Matrix.identity(n),
     ("fail", "an F idempotent fails multiplier laws")),
    # 2S on the diagonal algebra: 2S(e_a e_a) = 2S(e_a), not 4S(e_a)S(e_a);
    # conjugating by 2S is conjugating by S, so F1..F4 are unchanged
    ("function", lambda w, n: w.s_matrix * Matrix.from_entries(
        n, n, {(i, i): rational(2) for i in range(n)}),
     ("pass", "F1..F4 from E are idempotent multipliers of the twisted squares")),
])
def test_regular_suite_walks_f_on_an_s_that_is_not_antimultiplicative(
        kind, doctored_s, f_formulas, monkeypatch):
    # a bijective S that breaks S(ab) = S(b)S(a) is no isomorphism onto A^op,
    # so F1..F4 are walked themselves; the results are those recorded
    # before the transport, and those of the full computation
    c, _, e, gm, w = _witnesses("pair:2", kind)
    s = doctored_s(w, c.n)
    doctored = AntipodeWitness(w.r1, w.r2, w.s, s, invert(s, RunCache()))
    assert not is_isomorphism(c.parent, s, invert(s, RunCache()), c.parent.opposite())
    walks, _ = _count_law_walks_and_solves(monkeypatch)
    checks, t3, t4 = regular_suite(c, e, gm, doctored)
    assert walks and all(parent is not e.parent for parent in walks)
    monkeypatch.undo()
    got = {r.check_id: (r.status, r.detail) for r in checks}
    expected = _transported_in_full(c, e, doctored, t3, t4)
    assert {cid: got[cid] for cid in TRANSPORTED} == expected
    assert expected == {
        "regular-f-formulas": f_formulas,
        "regular-cop-idempotent": ("pass", "flipped-coproduct presentation has canonical "
                                           "idempotent sigma E")}


def _scaled(m, k):
    return m * Matrix.from_entries(m.cols, m.cols, {(j, j): rational(k) for j in range(m.cols)})


@pytest.mark.parametrize("kind, doctor", [
    # 2E passes every module law but is not idempotent
    ("convolution", lambda e: Multiplier(e.parent, _scaled(e.left, 2), _scaled(e.right, 2))),
    # (E.left, 1) is idempotent but fails the link law
    ("function", lambda e: Multiplier(e.parent, e.left, Matrix.identity(e.right.rows))),
])
def test_regular_suite_transport_fails_f_formulas_on_a_doctored_e(kind, doctor, monkeypatch):
    # the transported result reads both halves off E itself: only E's own
    # laws are walked, and the verdict is the one the F1..F4 walks give
    c, _, e, gm, w = _witnesses("pair:2", kind)
    bad = doctor(e)
    walks, _ = _count_law_walks_and_solves(monkeypatch)
    checks, t3, t4 = regular_suite(c, bad, gm, w)
    assert all(parent is bad.parent for parent in walks)
    monkeypatch.undo()
    got = {r.check_id: (r.status, r.detail) for r in checks}
    assert got["regular-f-formulas"] == ("fail", "an F idempotent fails multiplier laws") == \
        _transported_in_full(c, bad, w, t3, t4)["regular-f-formulas"]


def test_f_multipliers_are_built_once_per_run(monkeypatch):
    # the regular suite, the star suite and the witness output read the
    # same F1..F4 from the run cache, built once through its store
    import wmha.fileio
    from wmha.coproducts import RunCache
    from wmha.pipeline import verify_groupoid_model

    got, builds = [], []
    build = antipodes._f_multipliers
    for module in (antipodes, wmha.fileio):
        monkeypatch.setattr(module, "_f_multipliers", lambda c, w, e: got.append(build(c, w, e)) or got[-1])
    once = RunCache.once
    monkeypatch.setattr(RunCache, "once",
                        lambda self, key, make: once(self, key, lambda: builds.append(key[0]) or make()))
    _, ctx = verify_groupoid_model(preset("pair:2"), "convolution")
    wmha.fileio.witnesses_to_json(ctx)
    assert len(got) == 3 and all(fs is got[0] for fs in got)
    assert builds.count("F") == 1

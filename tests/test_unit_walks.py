"""The walks read at the unit.

On a unital algebra each module-law, gate, cross-check and derived-suite
walk first tests an identity at the checked unit that implies the whole
walk, E is read off T1(1 (x) 1) when it provably solves E's systems, and
the sandwich tables are read off E when E is an embedded element.  These
tests check that the reading changes nothing: on random unital
presentations with doctored maps and values every reduced walk yields
the failures of the full walk, certificates are the same bytes with the
reading off, honest inputs walk nothing in full, and doctored witnesses
still reach every full walk.
"""

import ast
import contextlib
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import test_walk_failures
import wmha.algebras
import wmha.antipodes
import wmha.coproducts
from conftest import FINITE_INPUTS, conjugated_input
from wmha.algebras import Algebra, Multiplier, is_isomorphism, validate_algebra
from wmha.antipodes import (AntipodeWitness, SourceTargetWitness, _absorption_failures,
                            _anticoproduct_failures, _f_relation_failures,
                            _r_commutation_failures, _sandwich_tables, _source_target_values,
                            _st_commute_failures, _st_coproduct_failures,
                            check_antipode_identities, compute_source_target)
from wmha.coproducts import (CoproductData, IllDefinedExtension, NoSuchIdempotent, RunCache,
                             ProjectionMaps, check_E_conditions, compute_E, extend_delta,
                             _coassociativity_failures, _e_at_unit, _g_crosscheck_failures, _kron,
                             _homomorphism_failures, _mixed_law_failures,
                             _module_law_failures, _regular_maps_failures)
from wmha.fileio import witnesses_to_json
from wmha.groupoids import build_model, preset
from wmha.linalg import Matrix, Subspace, generalized_inverse, invert
from wmha.pipeline import verify_groupoid_model, verify_lazy_model, verify_structure
from wmha.report import PASS
from wmha.scalars import rational

READERS = (wmha.algebras, wmha.coproducts, wmha.antipodes)


@contextlib.contextmanager
def full_walks():
    """Every walk at full cost and E solved: no algebra has a checked unit."""
    with mock.patch.object(Algebra, "checked_unit", lambda self: None):
        yield


def _reading_sites():
    """The functions that read a walk at the unit, by name."""
    sites = set()
    for module in READERS:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "unless_at_unit"
                    for node in ast.walk(fn)):
                sites.add(fn.name)
    return sites


def record_full_walks(monkeypatch):
    """A list that receives, from now on, the name of each function whose
    walk runs in full, "_solve_action" for each solve of an E action and
    "_sandwich_tables" for each sandwich recovered by stripping."""
    sites = []
    run = wmha.algebras.unless_at_unit

    def recording(at_unit, walk):
        site = sys._getframe(1).f_code.co_name

        def checked():
            ok = at_unit()
            if not ok:
                sites.append(site)
            return ok
        return run(checked, walk)
    for module in READERS:
        monkeypatch.setattr(module, "unless_at_unit", recording)
    solve = wmha.coproducts._solve_action
    monkeypatch.setattr(wmha.coproducts, "_solve_action",
                        lambda *args, **kw: sites.append("_solve_action") or solve(*args, **kw))
    strip = wmha.antipodes._strip_solve

    def recording_strip(*args):
        if sys._getframe(1).f_code.co_name == "_sandwich_tables":
            sites.append("_sandwich_tables")
        return strip(*args)
    monkeypatch.setattr(wmha.antipodes, "_strip_solve", recording_strip)
    return sites


# ---- random unital presentations, doctored


def _module_form(c, u, x, leg):
    """The part of the map x on the tensor square that passes the module
    law on leg: a (x) b -> (e_a (x) 1) x(u (x) b) on leg 1,
    x(a (x) u)(1 (x) e_b) on leg 2, for the unit u."""
    n, mul = c.n, c.aa.mul_sparse
    cols = []
    for a in range(n):
        for b in range(n):
            if leg == 1:
                cols.append(mul({a * n + k: w for k, w in u.items()},
                                x.apply_sparse({i * n + b: v for i, v in u.items()})))
            else:
                cols.append(mul(x.apply_sparse({a * n + i: v for i, v in u.items()}),
                                {k * n + b: w for k, w in u.items()}))
    return Matrix.from_sparse_cols(c.nn, cols)


def _doctor(c, u, m, how, x):
    """m changed by how: nothing, plus x, plus x's module form on a leg
    (the law holds on, its values at the unit move), or plus x less that
    form (the law fails on, its values at the unit stay)."""
    if how == "none":
        return m
    if how == "plus":
        return m + x
    kind, leg = how.split("-")
    form = _module_form(c, u, x, int(leg))
    return m + form if kind == "module" else m + x - form


MAPS = ("t1", "t2", "t3", "t4", "g1", "g2", "r1", "r2", "e_left", "e_right")
# the module laws the engine walks, on the legs where the honest maps pass them
MODULE_LAWS = (("t1", 2), ("t2", 1), ("g1", 1), ("g1", 2), ("g2", 1), ("g2", 2), ("r1", 2), ("r2", 1))
HOW = ("none", "plus", "module-1", "module-2", "vanish-1", "vanish-2")
# the multipliers of A the suites read: S(e_a), eps_s(e_a), eps_t(e_a)
VALUES = ("s", "eps_s", "eps_t")
VALUE_HOW = ("plus", "element", "vanish")


@st.composite
def presentations(draw):
    """A convolution model conjugated by P, a permutation times a random
    unipotent upper triangular integer matrix (so P^-1 is integral too),
    an element, a list of doctorings (map, how, sparse x), a list of
    value doctorings (values, index, side, how, sparse x), a sparse
    change of the S matrix and a sparse z for E := e0(1 + z)e0."""
    name = draw(st.sampled_from(["pair:1", "group:cyclic:2", "group:cyclic:3",
                                 "bundle:cyclic:1:2", "union:pair:1+group:cyclic:2", "pair:2"]))
    n = len(preset(name).morphisms)
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    p = Matrix.permutation(draw(st.permutations(range(n)))) * Matrix.from_rows(
        [[rational(1 if i == j else upper[i * n + j] if i < j else 0) for j in range(n)]
         for i in range(n)])
    nn = n * n
    scalars = st.sampled_from([rational(k) for k in (-2, -1, 1, 3)])
    entries = st.tuples(st.integers(0, nn - 1), st.integers(0, nn - 1), scalars)
    doctorings = draw(st.lists(st.tuples(st.sampled_from(MAPS), st.sampled_from(HOW),
                                         st.lists(entries, min_size=1, max_size=3)), min_size=1, max_size=3))
    small = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), scalars),
                     min_size=1, max_size=2)
    values = draw(st.lists(st.tuples(st.sampled_from(VALUES), st.integers(0, n - 1),
                                     st.sampled_from(["left", "right"]), st.sampled_from(VALUE_HOW),
                                     small), max_size=2))
    s_change = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), scalars),
                             max_size=1))
    e_shift = dict(draw(st.lists(st.tuples(st.integers(0, nn - 1), scalars), max_size=2)))
    elem = draw(st.lists(st.sampled_from([rational(k) for k in range(-2, 3)]), min_size=n, max_size=n))
    return name, p, doctorings, values, s_change, e_shift, {i: v for i, v in enumerate(elem) if v}


def _doctor_value(m, side, how, x):
    """The multiplier m of A changed by how: x added to one action, the
    embedded element x(1) added to both (still a multiplier), or x less
    the multiplication by x(1) added to one action (its value at 1 stays)."""
    alg = m.parent
    shift = Multiplier.of_element(alg, x.apply_sparse(alg.checked_unit()))
    if how == "element":
        return Multiplier(alg, m.left + shift.left, m.right + shift.right)
    if how == "vanish":
        x = x - (shift.left if side == "left" else shift.right)
    return Multiplier(alg, m.left + x, m.right) if side == "left" else \
        Multiplier(alg, m.left, m.right + x)


def _sandwiched(e, z):
    """e0(1 + z)e0 embedded, for e0 = E(1 (x) 1): with E's columns those of
    this element stay in Ran T1 and Ran T2, so the readings' premises hold
    while their identities at the unit may fail."""
    aa = e.parent
    uu, e0 = aa.checked_unit(), e.left.apply_sparse(aa.checked_unit())
    one_z = {k: uu.get(k, rational(0)) + z.get(k, rational(0)) for k in set(uu) | set(z)}
    return Multiplier.of_element(aa, aa.mul_sparse(aa.mul_sparse(e0, one_z), e0))


def _solved(c):
    """E of c's presentation as its actions, or the message of its failure."""
    try:
        got = compute_E(CoproductData(c.parent, c.t1, c.t2))
        return got.left, got.right
    except NoSuchIdempotent as exc:
        return str(exc)


def _raised(run):
    """run(), or the message of the IllDefinedExtension it raises."""
    try:
        return run()
    except IllDefinedExtension as exc:
        return str(exc)


def _walks(alg, maps, counit, x, w, eps):
    """Every walk read at the unit, as its failure list (E as its actions
    or the message of its failure), on fresh run caches, with the
    antipode witness w and the source/target values eps."""
    c = CoproductData(alg, maps["t1"], maps["t2"], maps["t3"], maps["t4"])
    e = Multiplier(c.aa, maps["e_left"], maps["e_right"])
    g = ProjectionMaps(maps["g1"], maps["g2"])
    elem = Multiplier.of_element(alg, x)
    bumped = Multiplier(alg, elem.left + Matrix.from_entries(alg.dim, alg.dim, {(0, alg.dim - 1): rational(1)}),
                        elem.right)
    images = [Subspace.from_vectors(2 * alg.dim ** 2, [m.coords() for m in eps[k]])
              for k in ("eps_s", "eps_t")]
    st_w = SourceTargetWitness(eps["eps_s"], eps["eps_t"], *images)
    anti = is_isomorphism(alg, w.s_matrix, w.s_matrix_inv, alg.opposite())
    return {"laws": [list(m.law_failures()) for m in (e, elem, bumped)],
            "module": [list(_module_law_failures(c, [(maps[k], leg, k)]))
                       for k, leg in MODULE_LAWS],
            "mixed": list(_mixed_law_failures(c)),
            "homomorphism": list(_homomorphism_failures(c)),
            "coassociative": list(_coassociativity_failures(c)),
            "regular-maps": list(_regular_maps_failures(c)),
            "crosscheck": list(_g_crosscheck_failures(c, e, counit, g)),
            "r-commutation": list(_r_commutation_failures(c, maps["r1"], maps["r2"])),
            "E": _solved(c),
            "e-conditions": _raised(lambda: [(r.check_id, r.status, r.detail)
                                             for r in check_E_conditions(c, e)]),
            "st-coproduct": _raised(lambda: list(_st_coproduct_failures(c, e, eps["eps_s"], eps["eps_t"]))),
            "st-commute": list(_st_commute_failures(c, eps["eps_s"], eps["eps_t"], *images)),
            "anticoproduct": _raised(lambda: list(_anticoproduct_failures(c, e, w))),
            "absorption": list(_absorption_failures(c, e, w, st_w)),
            "sandwich": _sandwich_tables(c, e),
            "f-relations": list(_f_relation_failures(c, e, w, anti))}


@settings(deadline=None, max_examples=100)
@given(presentations())
def test_each_walk_read_at_the_unit_yields_the_full_walks_failures(case):
    name, p, doctorings, values, s_change, e_shift, x = case
    inp, p, q, model = conjugated_input(name, False, p)
    alg = inp.algebra
    u = validate_algebra(alg, RunCache()).unit
    assert alg.checked_unit() == u is not None
    qinv, pinv = invert(q, RunCache()), invert(p, RunCache())
    maps = {"t1": inp.t1, "t2": inp.t2, "t3": inp.t3, "t4": inp.t4,
            "e_left": qinv * model.oracle_e_left * q, "e_right": qinv * model.oracle_e_right * q,
            "g1": qinv * model.oracle_g1 * q, "g2": qinv * model.oracle_g2 * q}
    store = RunCache()
    maps["r1"] = generalized_inverse(maps["t1"], maps["e_left"], maps["g1"], store)
    maps["r2"] = generalized_inverse(maps["t2"], maps["e_right"], maps["g2"], store)
    counit = [sum((v * model.oracle_counit[k] for k, v in p.col_sparse(i)), rational(0))
              for i in range(alg.dim)]
    c = CoproductData(alg, inp.t1, inp.t2)
    if e_shift:
        moved = _sandwiched(Multiplier(c.aa, maps["e_left"], maps["e_right"]), e_shift)
        maps["e_left"], maps["e_right"] = moved.left, moved.right
    for key, how, entries in doctorings:
        xm = Matrix.from_entries(c.nn, c.nn, {(r, col): v for r, col, v in entries})
        maps[key] = _doctor(c, u, maps[key], how, xm)
    # S as the conjugated oracle, its values doctored and its matrix changed
    n = alg.dim
    s_matrix = pinv * model.oracle_s * p
    s_values = [Multiplier.of_element(alg, dict(s_matrix.col_sparse(a))) for a in range(n)]
    doctored = []
    for which, a, side, how, entries in values:
        xm = Matrix.from_entries(n, n, {(r, col): v for r, col, v in entries})
        if which == "s":
            s_values[a] = _doctor_value(s_values[a], side, how, xm)
        else:
            doctored.append((which, a, side, how, xm))
    s_inv = invert(s_matrix, RunCache())
    for r, col, v in s_change:
        s_matrix = s_matrix + Matrix.from_entries(n, n, {(r, col): v})
        s_inv = invert(s_matrix, RunCache()) or s_inv
    w = AntipodeWitness(maps["r1"], maps["r2"], s_values, s_matrix, s_inv)
    eps = dict(zip(("eps_s", "eps_t"), _source_target_values(
        c, ProjectionMaps(maps["g1"], maps["g2"]), w, counit)))
    for which, a, side, how, xm in doctored:
        eps[which][a] = _doctor_value(eps[which][a], side, how, xm)
    at_unit = _walks(alg, maps, counit, x, w, eps)
    with full_walks():
        assert _walks(alg, maps, counit, x, w, eps) == at_unit


def test_ill_defined_extensions_raise_through_the_suites():
    # the idempotents that extend_delta refuses (tests/test_coproducts.py)
    # fail the premises of the readings at the unit, so the suites that
    # extend the coproduct raise its message and never pass
    _, ctx = test_walk_failures._run("function")
    c = ctx.coproduct
    unit = Multiplier.unit(c.aa)
    for fake in (unit, Multiplier(c.aa, ctx.e.left, unit.right)):
        with pytest.raises(IllDefinedExtension) as exc:
            extend_delta(c, fake, Multiplier.unit(c.parent))
        for suite in (lambda: compute_source_target(c, fake, ctx.g, ctx.antipode, ctx.counit),
                      lambda: check_antipode_identities(c, fake, ctx.g, ctx.antipode,
                                                        ctx.source_target)):
            with pytest.raises(IllDefinedExtension) as got:
                suite()
            assert str(got.value) == str(exc.value)


# ---- certificates and the full walks they reach


def certificate(name, kind):
    """The certificate of `wmha verify --path both` on a finite input of
    FINITE_INPUTS, witnesses included, without the input digest."""
    if kind.endswith(" P"):
        report, ctx = verify_structure(conjugated_input(name, kind == "Gaussian P")[0], path="both")
    else:
        report, ctx = verify_groupoid_model(preset(name), kind, path="both")
    report.witnesses = witnesses_to_json(ctx)
    return report.to_json()


@pytest.mark.parametrize("name, kind", FINITE_INPUTS)
def test_honest_inputs_walk_nothing_in_full_and_certify_the_same_bytes(name, kind, monkeypatch):
    sites = record_full_walks(monkeypatch)
    got = certificate(name, kind)
    assert sites == []
    monkeypatch.undo()
    with full_walks():
        assert certificate(name, kind) == got


def _with_r1_shift(ctx):
    """The antipode witness with R1(e_0 (x) e_b) moved by e_0 (x) e_2 e_b:
    R1 keeps its module identity on leg 2."""
    w, c = ctx.antipode, ctx.coproduct
    shift = Matrix.from_sparse_cols(c.nn, [_kron({0: rational(1)}, c.parent.mul_basis(2, col), c.n)
                                           if col < c.n else {} for col in range(c.nn)])
    return AntipodeWitness(w.r1 + shift, w.r2, w.s, w.s_matrix, w.s_matrix_inv)


def _zero_values(ctx):
    return [Multiplier.of_element(ctx.algebra, {}) for _ in range(ctx.coproduct.n)]


def _legs_agree(ctx):
    # d1 = d2 fails while E12 E23 = E23 E12 = d1 and domination hold
    c, e = ctx.coproduct, _sandwiched(ctx.e, {14: rational(-1), 6: rational(-1)})
    return lambda: [(r.check_id, r.status, r.detail) for r in check_E_conditions(c, e)]


def _st_coproduct_right(ctx):
    # T1(y (x) 1)e0 = e0(y (x) 1) = e0 T2(1 (x) y), but (y (x) 1)e0 differs
    c, e = ctx.coproduct, _sandwiched(ctx.e, {0: rational(-1), 5: rational(-1), 2: rational(1)})
    eps_t = [Multiplier.of_element(ctx.algebra, {1: rational(1), 3: rational(-1)})] + _zero_values(ctx)[1:]
    return lambda: list(_st_coproduct_failures(c, e, _zero_values(ctx), eps_t))


def _st_commute(ctx):
    # target values in the span of 1 and the square-zero e_(0,1): both
    # images stay subalgebras and only their commutation fails
    c, st = ctx.coproduct, ctx.source_target
    u, nilpotent = c.parent.checked_unit(), {1: rational(1)}
    eps_t = [Multiplier.of_element(c.parent, y) for y in (u, nilpotent, u, nilpotent)]
    image_t = Subspace.from_vectors(2 * c.n ** 2, [m.coords() for m in eps_t])
    return lambda: list(_st_commute_failures(c, st.eps_s, eps_t, st.image_s, image_t))


def _anticoproduct_right(ctx):
    # D(s_a)e0 = e0 sigma(X), but sigma(X)e0 differs
    c, w = ctx.coproduct, _with_r1_shift(ctx)
    return lambda: list(_anticoproduct_failures(c, ctx.e, w))


# inputs that keep the premises of a reading and break one clause of its
# identity at the unit alone, so the reading must test that clause
ONE_CLAUSE = {"e-legs-agree": ("function", _legs_agree),
              "st-coproduct-right": ("convolution", _st_coproduct_right),
              "st-commute": ("convolution", _st_commute),
              "anticoproduct-right": ("convolution", _anticoproduct_right)}


@pytest.mark.parametrize("case", sorted(ONE_CLAUSE))
def test_one_broken_clause_fails_the_reading_as_the_full_walk(case):
    kind, build = ONE_CLAUSE[case]
    walk = build(test_walk_failures._run(kind)[1])
    got = walk()
    assert got
    with full_walks():
        assert walk() == got


def test_five_windows_verify_without_a_full_walk(monkeypatch):
    # `wmha verify --preset pair:inf --model function --windows 5`, windows
    # up to dimension 25: every walk of every window is read at the unit
    sites = record_full_walks(monkeypatch)
    report = verify_lazy_model(preset("pair:inf"), "function", k_max=5)
    assert report.verdict == PASS
    assert sites == []


# per function that reads its walk at the unit, and for the E solve, a
# doctored case of tests/test_walk_failures.py that fails the identity
# at the unit, so the full walk (the solve) runs
REACHED_BY = {
    "law_failures": "antipode-r1",
    "_module_law_failures": "coproduct-t1",
    "_mixed_law_failures": "coproduct-t1",
    "_homomorphism_failures": "coproduct-t1",
    "_coassociativity_failures": "coproduct-t1",
    "_regular_maps_failures": "coproduct-t3",
    "_g_crosscheck_failures": "g-maps-g1",
    "_r_commutation_failures": "geninv-e",
    "_solve_action": "regular-t3-no-idempotent",
    "check_E_conditions": "e-conditions-commute",
    "_st_coproduct_failures": "source-target-g1",
    "_st_commute_failures": "source-target-g1-commute",
    "_anticoproduct_failures": "identities-s-left",
    "_absorption_failures": "appendix-eps-t",
    "_f_relation_failures": "regular-s",
    "_sandwich_tables": "regular-e-left",
}


def test_every_reading_has_a_doctored_case():
    assert set(REACHED_BY) == _reading_sites() | {"_solve_action", "_sandwich_tables"}


@pytest.mark.parametrize("site, case", sorted(REACHED_BY.items()))
def test_doctored_witnesses_reach_the_full_walk(site, case, monkeypatch):
    sites = record_full_walks(monkeypatch)
    got = test_walk_failures.outcome(case, monkeypatch)
    assert site in sites
    assert got == test_walk_failures._recorded()[case]


def _with_column(c, t, in_range):
    """t plus a basis vector outside its range, put in a zero column of t
    at an index where 1 (x) 1 is zero: the range grows, t(1 (x) 1) stays."""
    uu = c.aa.checked_unit()
    j = next(j for j in range(c.nn) if not t.col_sparse(j) and j not in uu)
    k = next(k for k in range(c.nn) if not in_range({k: rational(1)}))
    return t + Matrix.from_entries(c.nn, c.nn, {(k, j): rational(1)})


def _through_unit(c, t):
    """t after the projection onto the span of 1 (x) 1: its range is the
    span of t(1 (x) 1)."""
    uu = c.aa.checked_unit()
    i = min(uu)
    return t * Matrix.from_sparse_cols(c.nn, [{r: v / uu[i] for r, v in uu.items()} if j == i else {}
                                              for j in range(c.nn)])


@pytest.mark.parametrize("doctor", [
    # e fixes Ran T1 (Ran T2) fails: the grown range holds T1(1 (x) 1) e_k - e_k
    lambda c: CoproductData(c.parent, _with_column(c, c.t1, c.ran_t1().contains), c.t2),
    lambda c: CoproductData(c.parent, c.t1, _with_column(c, c.t2, c.ran_t2().contains)),
    # e A (A e) inside Ran T1 (Ran T2) fails: the range is the span of e
    lambda c: CoproductData(c.parent, _through_unit(c, c.t1), c.t2),
    lambda c: CoproductData(c.parent, c.t1, _through_unit(c, c.t2)),
])
def test_e_is_read_at_the_unit_only_when_each_condition_holds(doctor):
    # on each input one condition of `_e_at_unit` fails and the others
    # hold, and the embedded T1(1 (x) 1) is not the solution: E is solved
    model = build_model(preset("pair:2"), "convolution")
    validate_algebra(model.algebra, RunCache())
    c = doctor(CoproductData(model.algebra, model.t1, model.t2))
    e = c.t1.apply_sparse(c.aa.checked_unit())
    candidate = Multiplier.of_element(c.aa, e)
    assert e == c.t2.apply_sparse(c.aa.checked_unit()) and candidate * candidate == candidate
    with full_walks():
        full = _solved(c)
    assert full != (candidate.left, candidate.right)
    assert _e_at_unit(c) is None
    assert _solved(c) == full

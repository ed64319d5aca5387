"""The walks read at the unit.

On a unital algebra each module-law, gate and cross-check walk first
tests an identity at the checked unit that implies the whole walk, and
E is read off T1(1 (x) 1) when it provably solves E's systems.  These
tests check that the reading changes nothing: on random unital
presentations with doctored maps every reduced walk yields the failures
of the full walk, certificates are the same bytes with the reading off,
honest inputs walk nothing in full, and doctored witnesses still reach
every full walk.
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
from wmha.algebras import Algebra, Multiplier, validate_algebra
from wmha.antipodes import _r_commutation_failures
from wmha.coproducts import (CoproductData, NoSuchIdempotent, ProjectionMaps, compute_E,
                             _coassociativity_failures, _e_at_unit, _g_crosscheck_failures,
                             _homomorphism_failures, _mixed_law_failures,
                             _module_law_failures, _regular_maps_failures)
from wmha.fileio import witnesses_to_json
from wmha.groupoids import build_model, preset
from wmha.linalg import Matrix, generalized_inverse, invert
from wmha.pipeline import verify_groupoid_model, verify_structure
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
    walk runs in full, and "_solve_action" for each solve of an E action."""
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


@st.composite
def presentations(draw):
    """A convolution model conjugated by P, a permutation times a random
    unipotent upper triangular integer matrix (so P^-1 is integral too),
    an element, and a list of doctorings (map, how, sparse x)."""
    name = draw(st.sampled_from(["pair:1", "group:cyclic:2", "group:cyclic:3",
                                 "bundle:cyclic:1:2", "union:pair:1+group:cyclic:2", "pair:2"]))
    n = len(preset(name).morphisms)
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    p = Matrix.permutation(draw(st.permutations(range(n)))) * Matrix.from_rows(
        [[rational(1 if i == j else upper[i * n + j] if i < j else 0) for j in range(n)]
         for i in range(n)])
    nn = n * n
    entries = st.tuples(st.integers(0, nn - 1), st.integers(0, nn - 1),
                        st.sampled_from([rational(k) for k in (-2, -1, 1, 3)]))
    doctorings = draw(st.lists(st.tuples(st.sampled_from(MAPS), st.sampled_from(HOW),
                                         st.lists(entries, min_size=1, max_size=3)), min_size=1, max_size=3))
    elem = draw(st.lists(st.sampled_from([rational(k) for k in range(-2, 3)]), min_size=n, max_size=n))
    return name, p, doctorings, {i: v for i, v in enumerate(elem) if v}


def _solved(c):
    """E of c's presentation as its actions, or the message of its failure."""
    try:
        got = compute_E(CoproductData(c.parent, c.t1, c.t2))
        return got.left, got.right
    except NoSuchIdempotent as exc:
        return str(exc)


def _walks(alg, maps, counit, x):
    """Every walk read at the unit, as its failure list (E as its actions
    or the message of its failure), on fresh run caches."""
    c = CoproductData(alg, maps["t1"], maps["t2"], maps["t3"], maps["t4"])
    e = Multiplier(c.aa, maps["e_left"], maps["e_right"])
    g = ProjectionMaps(maps["g1"], maps["g2"])
    elem = Multiplier.of_element(alg, x)
    bumped = Multiplier(alg, elem.left + Matrix.from_entries(alg.dim, alg.dim, {(0, alg.dim - 1): rational(1)}),
                        elem.right)
    return {"laws": [list(m.law_failures()) for m in (e, elem, bumped)],
            "module": [list(_module_law_failures(c, [(maps[k], leg, k)]))
                       for k, leg in MODULE_LAWS],
            "mixed": list(_mixed_law_failures(c)),
            "homomorphism": list(_homomorphism_failures(c)),
            "coassociative": list(_coassociativity_failures(c)),
            "regular-maps": list(_regular_maps_failures(c)),
            "crosscheck": list(_g_crosscheck_failures(c, e, counit, g)),
            "r-commutation": list(_r_commutation_failures(c, maps["r1"], maps["r2"])),
            "E": _solved(c)}


@settings(deadline=None, max_examples=100)
@given(presentations())
def test_each_walk_read_at_the_unit_yields_the_full_walks_failures(case):
    name, p, doctorings, x = case
    inp, p, q, model = conjugated_input(name, False, p)
    alg = inp.algebra
    u = validate_algebra(alg).unit
    assert alg.checked_unit() == u is not None
    qinv = invert(q)
    maps = {"t1": inp.t1, "t2": inp.t2, "t3": inp.t3, "t4": inp.t4,
            "e_left": qinv * model.oracle_e_left * q, "e_right": qinv * model.oracle_e_right * q,
            "g1": qinv * model.oracle_g1 * q, "g2": qinv * model.oracle_g2 * q}
    maps["r1"] = generalized_inverse(maps["t1"], maps["e_left"], maps["g1"])
    maps["r2"] = generalized_inverse(maps["t2"], maps["e_right"], maps["g2"])
    counit = [sum((v * model.oracle_counit[k] for k, v in p.col_sparse(i)), rational(0))
              for i in range(alg.dim)]
    c = CoproductData(alg, inp.t1, inp.t2)
    for key, how, entries in doctorings:
        xm = Matrix.from_entries(c.nn, c.nn, {(r, col): v for r, col, v in entries})
        maps[key] = _doctor(c, u, maps[key], how, xm)
    at_unit = _walks(alg, maps, counit, x)
    with full_walks():
        assert _walks(alg, maps, counit, x) == at_unit


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
}


def test_every_reading_has_a_doctored_case():
    assert set(REACHED_BY) == _reading_sites() | {"_solve_action"}


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
    validate_algebra(model.algebra)
    c = doctor(CoproductData(model.algebra, model.t1, model.t2))
    e = c.t1.apply_sparse(c.aa.checked_unit())
    candidate = Multiplier.of_element(c.aa, e)
    assert e == c.t2.apply_sparse(c.aa.checked_unit()) and candidate * candidate == candidate
    with full_walks():
        full = _solved(c)
    assert full != (candidate.left, candidate.right)
    assert _e_at_unit(c) is None
    assert _solved(c) == full

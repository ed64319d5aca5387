"""Every result of each check suite on real witnesses with one input
doctored: the fail branch of every walk over the basis, and for a walk
that feeds several checks the first failure of each.

The witnesses are those of a passing run on pair:2 (the 2x2 matrix
algebra as the convolution model, the diagonal algebra as the function
model).  Each case changes one object, an entry of S, E, G1/G2, R1/R2,
eps_s/eps_t, F, T1..T4, the counit or the star, calls the suite that
reads it and records every result as (id, status, detail), or the
exception the suite raised.  The table in walk_failures.json was
recorded before the walks were rewritten as generators; run this file
as a script to print the table of the code as it is.
"""

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import wmha.groupoids
import wmha.pipeline
from wmha.algebras import Algebra, Multiplier, StarStructure
from wmha.antipodes import (AntipodeWitness, AntipodesDisagree, SourceTargetWitness,
                            appendix_suite, build_generalized_inverses,
                            check_antipode_identities, compute_antipode,
                            compute_source_target, regular_suite, star_suite,
                            verify_via_antipode, weak_hopf_suite)
from wmha.coproducts import (CoproductData, IllDefinedExtension, ProjectionMaps,
                             check_E_conditions, validate_coproduct, validate_E,
                             validate_G_maps)
from wmha.groupoids import build_model, preset
from wmha.linalg import BadProjections, Matrix
from wmha.pipeline import (StructureInput, verify_groupoid_model, verify_lazy_model,
                           verify_structure)
from wmha.scalars import ONE, rational

TABLE = Path(__file__).with_name("walk_failures.json")


@lru_cache(maxsize=None)
def _run(kind):
    model = build_model(preset("pair:2"), kind)
    _, ctx = verify_groupoid_model(preset("pair:2"), kind)
    return model, ctx


def _bump(m, row, col, by=ONE):
    """m with by added to its entry (row, col)."""
    return m + Matrix.from_entries(m.rows, m.cols, {(row, col): by})


def _mult(m, left=None, right=None):
    """A fresh multiplier with the given actions, the others m's."""
    return Multiplier(m.parent, m.left if left is None else left,
                      m.right if right is None else right)


def _with_s(w, a, left=None, right=None):
    """The antipode witness w with S(e_a) given new actions."""
    s = list(w.s)
    s[a] = _mult(s[a], left, right)
    return AntipodeWitness(w.r1, w.r2, s, w.s_matrix, w.s_matrix_inv)


def _with_r(w, r1=None, r2=None):
    return AntipodeWitness(w.r1 if r1 is None else r1, w.r2 if r2 is None else r2,
                           w.s, w.s_matrix, w.s_matrix_inv)


def _with_s_matrix(w, s_matrix=None, s_matrix_inv=None):
    return AntipodeWitness(w.r1, w.r2, w.s, w.s_matrix if s_matrix is None else s_matrix,
                           w.s_matrix_inv if s_matrix_inv is None else s_matrix_inv)


def _with_st(st, kind, a, left=None, right=None):
    """The source/target witness st with eps_s(e_a) ("s") or eps_t(e_a)
    ("t") given new actions."""
    eps_s, eps_t = list(st.eps_s), list(st.eps_t)
    values = eps_s if kind == "s" else eps_t
    values[a] = _mult(values[a], left, right)
    return SourceTargetWitness(eps_s, eps_t, st.image_s, st.image_t)


def _with_c(c, **maps):
    """A fresh CoproductData on c's algebra, with some of T1..T4 replaced."""
    t = {"t1": c.t1, "t2": c.t2, "t3": c.t3, "t4": c.t4}
    t.update(maps)
    return CoproductData(c.parent, t["t1"], t["t2"], t["t3"], t["t4"])


def _projection(e, i, j):
    """e plus column j of e times row i of 1 - e: an idempotent with the
    range of e that is not e."""
    row = (Matrix.identity(e.rows) - e).transpose().col_sparse(i)
    return e + Matrix.from_entries(e.rows, e.cols, {(r, c): u * v for r, u in e.col_sparse(j)
                                                    for c, v in row})


def _counit(counit, i, by=ONE):
    out = list(counit)
    out[i] = out[i] + by
    return out


def _g(g, g1=None, g2=None):
    return ProjectionMaps(g.g1 if g1 is None else g1, g.g2 if g2 is None else g2)


# ---- the cases: name -> (model kind, suite on the doctored witnesses)


def _gen_inv(ctx, **kw):
    return build_generalized_inverses(ctx.coproduct, ctx.e, _g(ctx.g, **kw))[2]


def _gen_inv_c(ctx, **maps):
    return build_generalized_inverses(_with_c(ctx.coproduct, **maps), ctx.e, ctx.g)[2]


def _antipode(ctx, r1=None, r2=None):
    w = ctx.antipode
    return compute_antipode(ctx.coproduct, w.r1 if r1 is None else r1,
                            w.r2 if r2 is None else r2, ctx.counit)[1]


def _identities(ctx, w=None, g=None, counit=None):
    return check_antipode_identities(ctx.coproduct, ctx.e, g or ctx.g, w or ctx.antipode,
                                     counit or ctx.counit)


def _source_target(ctx, w=None, g=None, counit=None, e=None):
    return compute_source_target(ctx.coproduct, e or ctx.e, g or ctx.g, w or ctx.antipode,
                                 counit or ctx.counit)[1]


def _thm29(ctx, s=None, e_left=None, e_right=None):
    w = ctx.antipode
    return verify_via_antipode(ctx.coproduct, w.s_matrix if s is None else s,
                               ctx.e.left if e_left is None else e_left,
                               ctx.e.right if e_right is None else e_right)[0]


def _regular(ctx, c=None, e=None, g=None, w=None):
    return regular_suite(c or ctx.coproduct, e or ctx.e, g or ctx.g, w or ctx.antipode)[0]


def _weak_hopf(ctx, st=None, counit=None, e=None, regular=True):
    return weak_hopf_suite(ctx.coproduct, e or ctx.e, st or ctx.source_target,
                           counit or ctx.counit, ctx.unit, regular=regular)


def _star(ctx, model, w=None, e=None, star=None, t3=None, t4=None):
    star = star or StarStructure(ctx.algebra, model.star_matrix)
    return star_suite(ctx.coproduct, e or ctx.e, w or ctx.antipode, star,
                      ctx.t3 if t3 is None else t3, ctx.t4 if t4 is None else t4)


def _appendix(ctx, w=None, st=None, e=None):
    return appendix_suite(ctx.coproduct, e or ctx.e, w or ctx.antipode,
                          st or ctx.source_target)


def _e(ctx, left=None, right=None):
    return _mult(ctx.e, left, right)


def _lazy_doctored(monkeypatch, doctor):
    """verify_lazy_model on pair:inf up to window 2, function model, with
    the witnesses of window 2 doctored."""
    run = verify_groupoid_model

    def doctored(g, kind, path="def114", with_pairing=True):
        report, ctx = run(g, kind, path=path, with_pairing=with_pairing)
        if len(g.morphisms) == 4:
            doctor(ctx)
        return report, ctx

    monkeypatch.setattr(wmha.pipeline, "verify_groupoid_model", doctored)
    report = verify_lazy_model(preset("pair:inf"), "function", k_max=2, seed=0)
    return [r for r in report.checks
            if r.check_id in ("window-consistency", "sampled-local-units")]


def _pairing_doctored(monkeypatch, doctor):
    """The duality pairing of pair:2 with its function model doctored."""
    build = wmha.groupoids.function_algebra

    def doctored(g):
        m = build(g)
        doctor(m)
        return m

    monkeypatch.setattr(wmha.groupoids, "function_algebra", doctored)
    report, _ = verify_groupoid_model(preset("pair:2"), "convolution")
    return [r for r in report.checks if r.check_id == "duality-pairing"]


def _structure(model, **changes):
    """verify_structure on the model's presentation with some inputs
    replaced: the algebra checks, star-structure and the star suite."""
    inp = StructureInput(model.algebra, model.t1, model.t2, model.t3, model.t4,
                         star=StarStructure(model.algebra, model.star_matrix))
    for k, v in changes.items():
        setattr(inp, k, v)
    report, _ = verify_structure(inp, path="def114")
    return [r for r in report.checks if r.check_id in (
        "algebra-associative", "algebra-nondegenerate", "algebra-idempotent",
        "star-structure", "star-compatible")]


def _broken_associativity(model):
    entries = [(i, j, k, v + ONE if (i, j, k) == (1, 2, 0) else v)
               for i, j, k, v in model.algebra.structure_entries()]
    return Algebra.from_structure(model.algebra.dim, model.algebra.basis_labels, entries)


def _fun_t1(m, row, col):
    m.t1 = _bump(m.t1, row, col)


def _fun_product(m):
    entries = [(i, j, k, v + ONE if (i, j, k) == (0, 0, 0) else v)
               for i, j, k, v in m.algebra.structure_entries()]
    m.algebra = Algebra.from_structure(m.algebra.dim, m.algebra.basis_labels, entries)


CASES = {
    # build_generalized_inverses: generalized-inverses, r-commutation
    "geninv-g1": ("convolution", lambda ctx: _gen_inv(ctx, g1=_bump(ctx.g.g1, 0, 5))),
    "geninv-g2": ("convolution", lambda ctx: _gen_inv(ctx, g2=_bump(ctx.g.g2, 3, 5))),
    "geninv-e": ("convolution", lambda ctx: build_generalized_inverses(
        ctx.coproduct, _e(ctx, left=_projection(ctx.e.left, 2, 0)), ctx.g)[2]),
    "geninv-e-fun": ("function", lambda ctx: build_generalized_inverses(
        ctx.coproduct, _e(ctx, left=_projection(ctx.e.left, 2, 0)), ctx.g)[2]),
    "geninv-t2": ("function", lambda ctx: _gen_inv_c(ctx, t2=_bump(ctx.coproduct.t2, 1, 0))),
    "geninv-t1": ("function", lambda ctx: _gen_inv_c(ctx, t1=_bump(ctx.coproduct.t1, 2, 0))),
    # compute_antipode: antipode-defined and antipodes-agree from one walk
    "antipode-r1": ("convolution", lambda ctx: _antipode(ctx, r1=_bump(ctx.antipode.r1, 0, 6))),
    "antipode-r2": ("convolution", lambda ctx: _antipode(ctx, r2=_bump(ctx.antipode.r2, 0, 9))),
    "antipode-r1-late": ("convolution", lambda ctx: _antipode(ctx, r1=_bump(ctx.antipode.r1, 5, 15))),
    "antipode-r1-scaled": ("convolution", lambda ctx: _antipode(
        ctx, r1=ctx.antipode.r1 * Matrix.from_entries(16, 16, {(j, j): rational(2 if 4 <= j < 8 else 1)
                                                               for j in range(16)}))),
    # check_antipode_identities
    "identities-g1": ("convolution", lambda ctx: _identities(ctx, g=_g(ctx.g, g1=_bump(ctx.g.g1, 0, 1)))),
    "identities-g2": ("convolution", lambda ctx: _identities(ctx, g=_g(ctx.g, g2=_bump(ctx.g.g2, 0, 1)))),
    "identities-r1": ("convolution", lambda ctx: _identities(ctx, w=_with_r(ctx.antipode, r1=_bump(ctx.antipode.r1, 0, 6)))),
    "identities-r2": ("convolution", lambda ctx: _identities(ctx, w=_with_r(ctx.antipode, r2=_bump(ctx.antipode.r2, 0, 9)))),
    "identities-s-left": ("convolution", lambda ctx: _identities(
        ctx, w=_with_s(ctx.antipode, 1, left=_bump(ctx.antipode.s[1].left, 0, 2)))),
    "identities-s-right": ("function", lambda ctx: _identities(
        ctx, w=_with_s(ctx.antipode, 2, right=_bump(ctx.antipode.s[2].right, 3, 3)))),
    "identities-counit": ("convolution", lambda ctx: _identities(ctx, counit=_counit(ctx.counit, 1))),
    # compute_source_target
    "source-target-g1": ("convolution", lambda ctx: _source_target(ctx, g=_g(ctx.g, g1=_bump(ctx.g.g1, 0, 1)))),
    "source-target-g2": ("function", lambda ctx: _source_target(ctx, g=_g(ctx.g, g2=_bump(ctx.g.g2, 0, 1)))),
    "source-target-r1": ("function", lambda ctx: _source_target(ctx, w=_with_r(ctx.antipode, r1=_bump(ctx.antipode.r1, 5, 5)))),
    "source-target-r2": ("function", lambda ctx: _source_target(ctx, w=_with_r(ctx.antipode, r2=_bump(ctx.antipode.r2, 10, 10)))),
    "source-target-counit": ("function", lambda ctx: _source_target(ctx, counit=_counit(ctx.counit, 1))),
    "source-target-g1-products": ("function", lambda ctx: _source_target(ctx, g=_g(ctx.g, g1=_bump(ctx.g.g1, 0, 0)))),
    "source-target-g2-products": ("function", lambda ctx: _source_target(ctx, g=_g(ctx.g, g2=_bump(ctx.g.g2, 0, 0)))),
    "source-target-g1-commute": ("convolution", lambda ctx: _source_target(ctx, g=_g(ctx.g, g1=_bump(ctx.g.g1, 0, 2)))),
    "source-target-g2-ideal": ("convolution", lambda ctx: _source_target(ctx, g=_g(ctx.g, g2=_bump(ctx.g.g2, 0, 8)))),
    "source-target-r1-ideal": ("convolution", lambda ctx: _source_target(ctx, w=_with_r(ctx.antipode, r1=_bump(ctx.antipode.r1, 0, 1)))),
    "source-target-e": ("function", lambda ctx: _source_target(ctx, e=_e(ctx, left=_bump(ctx.e.left, 1, 1)))),
    # verify_via_antipode
    "thm29-s": ("convolution", lambda ctx: _thm29(ctx, s=_bump(ctx.antipode.s_matrix, 0, 0))),
    "thm29-s-diagonal": ("function", lambda ctx: _thm29(ctx, s=_bump(ctx.antipode.s_matrix, 1, 1))),
    "thm29-s-scaled": ("function", lambda ctx: _thm29(ctx, s=ctx.antipode.s_matrix * Matrix.from_entries(
        4, 4, {(j, j): rational(2) for j in range(4)}))),
    "thm29-e-not-idempotent": ("function", lambda ctx: _thm29(ctx, e_left=_bump(ctx.e.left, 0, 1))),
    "thm29-e-identity": ("function", lambda ctx: _thm29(ctx, e_left=Matrix.identity(16),
                                                        e_right=Matrix.identity(16))),
    "thm29-e-not-multiplier": ("function", lambda ctx: _thm29(
        ctx, e_right=Matrix.from_entries(16, 16, {(5, 5): ONE}))),
    "thm29-e-smaller": ("function", lambda ctx: _thm29(
        ctx, e_left=_bump(ctx.e.left, 0, 0, -ONE), e_right=_bump(ctx.e.right, 0, 0, -ONE))),
    "thm29-e-conditions": ("convolution", lambda ctx: _thm29(
        ctx, e_left=Matrix.identity(16), e_right=Matrix.identity(16))),
    # regular_suite
    "regular-e-left": ("convolution", lambda ctx: _regular(ctx, e=_e(ctx, left=_bump(ctx.e.left, 0, 5)))),
    "regular-e-right": ("function", lambda ctx: _regular(ctx, e=_e(ctx, right=_bump(ctx.e.right, 1, 1)))),
    "regular-e-left-fun": ("function", lambda ctx: _regular(ctx, e=_e(ctx, left=_bump(ctx.e.left, 1, 1)))),
    "regular-t3": ("convolution", lambda ctx: _regular(ctx, c=_with_c(ctx.coproduct, t3=_bump(ctx.coproduct.t3, 0, 0)))),
    "regular-t4": ("function", lambda ctx: _regular(ctx, c=_with_c(ctx.coproduct, t4=ctx.coproduct.t3))),
    "regular-t3-no-idempotent": ("convolution", lambda ctx: _regular(
        ctx, c=_with_c(ctx.coproduct, t3=_bump(ctx.coproduct.t3, 1, 0)))),
    "regular-t3-not-multiplier": ("function", lambda ctx: _regular(
        ctx, c=_with_c(ctx.coproduct, t3=_bump(ctx.coproduct.t3, 2, 0)))),
    "regular-s": ("convolution", lambda ctx: _regular(ctx, w=_with_s_matrix(
        ctx.antipode, s_matrix_inv=_bump(ctx.antipode.s_matrix_inv, 1, 2)))),
    # weak_hopf_suite: weak-hopf-counit and weak-hopf-counit-op from one walk
    "weak-hopf-counit": ("convolution", lambda ctx: _weak_hopf(ctx, counit=_counit(ctx.counit, 1))),
    "weak-hopf-counit-fun": ("function", lambda ctx: _weak_hopf(ctx, counit=_counit(ctx.counit, 1))),
    "weak-hopf-counit-nonregular": ("convolution", lambda ctx: _weak_hopf(
        ctx, counit=_counit(ctx.counit, 1), regular=False)),
    "weak-hopf-counit-0": ("function", lambda ctx: _weak_hopf(ctx, counit=_counit(ctx.counit, 0))),
    "weak-hopf-eps-t": ("convolution", lambda ctx: _weak_hopf(ctx, st=_with_st(
        ctx.source_target, "t", 2, left=_bump(ctx.source_target.eps_t[2].left, 0, 0)))),
    "weak-hopf-eps-s": ("convolution", lambda ctx: _weak_hopf(ctx, st=_with_st(
        ctx.source_target, "s", 2, left=_bump(ctx.source_target.eps_s[2].left, 0, 0)))),
    # star_suite
    "star-t3": ("convolution", lambda ctx, m: _star(ctx, m, t3=_bump(ctx.t3, 0, 5))),
    "star-t4": ("convolution", lambda ctx, m: _star(ctx, m, t4=_bump(ctx.t4, 0, 5))),
    "star-s": ("convolution", lambda ctx, m: _star(ctx, m, w=_with_s_matrix(
        ctx.antipode, s_matrix=_bump(ctx.antipode.s_matrix, 0, 1)))),
    "star-e": ("convolution", lambda ctx, m: _star(ctx, m, e=_e(ctx, right=_bump(ctx.e.right, 0, 5)))),
    "star-f": ("convolution", lambda ctx, m: _star(ctx, m, w=_with_s_matrix(
        ctx.antipode, s_matrix_inv=_bump(ctx.antipode.s_matrix_inv, 0, 1)))),
    "star-j": ("function", lambda ctx, m: _star(ctx, m, star=StarStructure(
        ctx.algebra, Matrix.permutation([1, 0, 2, 3])))),
    # appendix_suite
    "appendix-s-left": ("convolution", lambda ctx: _appendix(
        ctx, w=_with_s(ctx.antipode, 1, left=_bump(ctx.antipode.s[1].left, 0, 2)))),
    "appendix-s-right": ("convolution", lambda ctx: _appendix(
        ctx, w=_with_s(ctx.antipode, 1, right=_bump(ctx.antipode.s[1].right, 0, 2)))),
    "appendix-eps-t": ("function", lambda ctx: _appendix(ctx, st=_with_st(
        ctx.source_target, "t", 1, left=_bump(ctx.source_target.eps_t[1].left, 1, 1)))),
    "appendix-eps-s": ("function", lambda ctx: _appendix(ctx, st=_with_st(
        ctx.source_target, "s", 1, left=_bump(ctx.source_target.eps_s[1].left, 1, 1)))),
    "appendix-eps-s-right": ("function", lambda ctx: _appendix(ctx, st=_with_st(
        ctx.source_target, "s", 0, right=_bump(ctx.source_target.eps_s[0].right, 1, 1)))),
    "appendix-eps-t-right": ("function", lambda ctx: _appendix(ctx, st=_with_st(
        ctx.source_target, "t", 0, right=_bump(ctx.source_target.eps_t[0].right, 2, 2)))),
    # validate_coproduct
    "coproduct-t1": ("convolution", lambda ctx: validate_coproduct(_with_c(ctx.coproduct, t1=_bump(ctx.coproduct.t1, 0, 5)))),
    "coproduct-t2": ("convolution", lambda ctx: validate_coproduct(_with_c(ctx.coproduct, t2=_bump(ctx.coproduct.t2, 0, 5)))),
    "coproduct-t1-fun": ("function", lambda ctx: validate_coproduct(_with_c(ctx.coproduct, t1=_bump(ctx.coproduct.t1, 1, 0)))),
    "coproduct-t2-fun": ("function", lambda ctx: validate_coproduct(_with_c(ctx.coproduct, t2=_bump(ctx.coproduct.t2, 2, 0)))),
    "coproduct-t3": ("convolution", lambda ctx: validate_coproduct(_with_c(ctx.coproduct, t3=_bump(ctx.coproduct.t3, 0, 5)))),
    "coproduct-t4": ("convolution", lambda ctx: validate_coproduct(_with_c(ctx.coproduct, t4=_bump(ctx.coproduct.t4, 0, 5)))),
    # validate_E
    "e-valid-left": ("convolution", lambda ctx: validate_E(ctx.coproduct, _e(ctx, left=_bump(ctx.e.left, 0, 5)))),
    "e-valid-right": ("function", lambda ctx: validate_E(ctx.coproduct, _e(ctx, right=_bump(ctx.e.right, 1, 1)))),
    "e-valid-identity": ("function", lambda ctx: validate_E(ctx.coproduct, _e(
        ctx, left=Matrix.identity(16), right=Matrix.identity(16)))),
    # check_E_conditions: e-legs-commute, e-coassociativity (two legs agree,
    # then dominated) and e-product-formula from one walk
    "e-conditions-left": ("convolution", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=ctx.e.left * _bump(Matrix.identity(16), 5, 0)))),
    "e-conditions-commute": ("convolution", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=ctx.e.left * _bump(Matrix.identity(16), 0, 1)))),
    "e-conditions-commute-fun": ("function", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=_projection(ctx.e.left, 2, 0)))),
    # domination fails at an earlier triple than the two legs differ at:
    # the difference of the legs is reported
    "e-conditions-agree-first": ("convolution", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=_projection(ctx.e.left, 2, 11)))),
    "e-conditions-agree-first-fun": ("function", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=ctx.e.left * _bump(Matrix.identity(16), 0, 0)))),
    "e-conditions-scaled": ("convolution", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=ctx.e.left * Matrix.from_entries(16, 16, {(j, j): rational(2) for j in range(16)})))),
    "e-conditions-scaled-fun": ("function", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=ctx.e.left * Matrix.from_entries(16, 16, {(j, j): rational(2) for j in range(16)})))),
    "e-conditions-identity": ("function", lambda ctx: check_E_conditions(
        ctx.coproduct, _e(ctx, left=Matrix.identity(16)))),
    # validate_G_maps
    "g-maps-g1": ("convolution", lambda ctx: validate_G_maps(ctx.coproduct, ctx.e, ctx.counit,
                                                             _g(ctx.g, g1=_bump(ctx.g.g1, 0, 5)))),
    "g-maps-g2": ("convolution", lambda ctx: validate_G_maps(ctx.coproduct, ctx.e, ctx.counit,
                                                             _g(ctx.g, g2=_bump(ctx.g.g2, 0, 5)))),
    "g-maps-g1-fun": ("function", lambda ctx: validate_G_maps(ctx.coproduct, ctx.e, ctx.counit,
                                                              _g(ctx.g, g1=_bump(ctx.g.g1, 1, 1)))),
    "g-maps-counit": ("convolution", lambda ctx: validate_G_maps(ctx.coproduct, ctx.e,
                                                                 _counit(ctx.counit, 1), ctx.g)),
    "g-maps-counit-fun": ("function", lambda ctx: validate_G_maps(ctx.coproduct, ctx.e,
                                                                  _counit(ctx.counit, 0), ctx.g)),
}

# cases that need pytest's monkeypatch or rebuild the presentation
PATCHED = {
    "lazy-counit": lambda mp: _lazy_doctored(mp, lambda ctx: setattr(
        ctx, "counit", _counit(ctx.counit, 0))),
    "lazy-antipode": lambda mp: _lazy_doctored(mp, lambda ctx: setattr(
        ctx, "antipode", _with_s_matrix(ctx.antipode, s_matrix=_bump(ctx.antipode.s_matrix, 0, 1)))),
    "lazy-antipode-support": lambda mp: _lazy_doctored(mp, lambda ctx: setattr(
        ctx, "antipode", _with_s_matrix(ctx.antipode, s_matrix=_bump(ctx.antipode.s_matrix, 3, 0)))),
    "lazy-e-right": lambda mp: _lazy_doctored(mp, lambda ctx: setattr(
        ctx, "e", _e(ctx, right=_bump(ctx.e.right, 0, 0)))),
    "lazy-g2": lambda mp: _lazy_doctored(mp, lambda ctx: setattr(
        ctx, "g", _g(ctx.g, g2=_bump(ctx.g.g2, 0, 0)))),
    "lazy-g1-support": lambda mp: _lazy_doctored(mp, lambda ctx: setattr(
        ctx, "g", _g(ctx.g, g1=_bump(ctx.g.g1, 15, 0)))),
    "lazy-no-antipode": lambda mp: _lazy_doctored(mp, lambda ctx: setattr(ctx, "antipode", None)),
    "lazy-local-unit": lambda mp: (mp.setattr(wmha.pipeline, "local_unit_for",
                                              lambda g, kind, s: {0: ONE}),
                                   verify_lazy_model(preset("pair:inf"), "function",
                                                     k_max=2, seed=0).checks)[1][-1:],
    "pairing-product": lambda mp: _pairing_doctored(mp, _fun_product),
    "pairing-coproduct": lambda mp: _pairing_doctored(mp, lambda m: _fun_t1(m, 0, 0)),
    "structure-associativity": lambda mp: _structure(
        _run("convolution")[0], algebra=_broken_associativity(_run("convolution")[0])),
    "structure-star-product": lambda mp: _structure(_run("convolution")[0], star=StarStructure(
        _run("convolution")[0].algebra, Matrix.permutation([1, 0, 2, 3]))),
    "structure-star-involution": lambda mp: _structure(_run("function")[0], star=StarStructure(
        _run("function")[0].algebra, Matrix.from_entries(4, 4, {(i, i): rational(2) for i in range(4)}))),
    "structure-star-compatible": lambda mp: _structure(_run("function")[0], star=StarStructure(
        _run("function")[0].algebra, Matrix.permutation([3, 1, 2, 0]))),
}

RAISED = (AntipodesDisagree, BadProjections, IllDefinedExtension)


def outcome(name, monkeypatch=None):
    """The recorded form of one case: [[id, status, detail], ...], or
    ["raised", exception name, message, [[id, status, detail], ...]]."""
    try:
        if name in PATCHED:
            results = PATCHED[name](monkeypatch)
        else:
            kind, suite = CASES[name]
            model, ctx = _run(kind)
            results = suite(ctx, model) if suite.__code__.co_argcount == 2 else suite(ctx)
    except RAISED as exc:
        checks = getattr(exc, "checks", [])
        return ["raised", type(exc).__name__, str(exc),
                [[r.check_id, r.status, r.detail] for r in checks]]
    return [[r.check_id, r.status, r.detail] for r in results]


def _recorded():
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted({**CASES, **PATCHED}))
def test_walk_results_are_pinned(name, monkeypatch):
    assert outcome(name, monkeypatch) == _recorded()[name]


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted({**CASES, **PATCHED})


if __name__ == "__main__":
    # print the table of the code as it is, in the layout of walk_failures.json
    class _Patch:
        def __init__(self):
            self.undo = []

        def setattr(self, owner, name, value):
            self.undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    table = {}
    for case in sorted({**CASES, **PATCHED}):
        patch = _Patch()
        try:
            table[case] = outcome(case, patch)
        finally:
            for owner, attr, value in reversed(patch.undo):
                setattr(owner, attr, value)
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

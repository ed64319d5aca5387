"""Pipeline orchestration: run the ordered check sequence on an input
structure, collect witnesses, and assemble the report.

Two verification paths exist: the axiom path (ranges, kernels and the
constructed antipode) and the antipode path (a candidate antipode and
idempotent checked through the alternative characterization).  Both can
run and must then agree on E and S.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from . import antipodes as ant
from . import coproducts as cop
from .algebras import Algebra, validate_algebra, validate_star
from .coproducts import CoproductData, RunCache
from .groupoids import (FiniteGroupoid, GroupoidModel, LazyGroupoid,
                        build_model, check_duality_pairing, local_unit_for,
                        refuse_oversize, validate_groupoid)
from .linalg import BadProjections, Matrix
from .report import (FAIL, PASS, SKIP, CheckResult, VerificationReport,
                     _first_failures, check, checks_in, failed, passed, skipped)
from .scalars import ONE, _dot, rational


class RunContext:
    """Everything the pipeline computed, for witness output and tests: the
    CoproductData, unit (SparseVec), counit (list), E (Multiplier), G maps
    (ProjectionMaps), AntipodeWitness, SourceTargetWitness, T3, T4 and the
    antipode path's witness and E; what the run did not reach stays None."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.coproduct = self.unit = self.counit = self.e = self.g = None
        self.antipode = self.source_target = self.t3 = self.t4 = None
        self.thm29_antipode = self.thm29_e = None


class StructureInput:
    def __init__(self, algebra: Algebra, t1: Matrix, t2: Matrix,
                 t3: Optional[Matrix] = None, t4: Optional[Matrix] = None,
                 star: Optional[Matrix] = None, counit: Optional[list] = None,
                 antipode: Optional[Matrix] = None,
                 e_pair: Optional[Tuple[Matrix, Matrix]] = None):
        self.algebra = algebra
        self.t1 = t1
        self.t2 = t2
        self.t3 = t3
        self.t4 = t4
        self.star = star            # the star matrix J: x* = J conj(x)
        self.counit = counit
        self.antipode = antipode
        self.e_pair = e_pair


def verify_structure(inp: StructureInput, path: str = "def114",
                     oracle: Optional[GroupoidModel] = None) -> Tuple[VerificationReport, RunContext]:
    """Run the checks on inp with a fresh RunCache: the presentation core,
    then the checks that read more of the input than the presentation."""
    axiom = path in ("def114", "both")
    core, ctx, stop = _verify_presentation(inp.algebra, inp.t1, inp.t2, inp.t3, inp.t4,
                                           axiom, RunCache())
    # core stays the presentation's alone: the round trip may read it
    report = VerificationReport(checks=list(core.checks))

    if inp.star is not None:
        star = report.add(validate_star(inp.star, inp.algebra))
    c = ctx.coproduct
    if c is None:
        report.classification = _classification(ctx, report)
        return report, ctx

    if ctx.counit is not None and inp.counit is not None:
        report.add(check("counit-matches-input", inp.counit == ctx.counit,
                         "supplied counit equals the solved one",
                         "supplied counit differs from the solved one"))
    if axiom:
        # a non-regular antipode stops the path after the star checks
        if inp.star is not None and stop in (None, "regular"):
            if star.status == PASS:
                report.extend(ant.star_suite(c, ctx.e, ctx.antipode, inp.star,
                                             ctx.t3, ctx.t4))
            else:
                report.add(skipped("star-compatible", "star-structure"))
        if stop is None:
            _op_round_trip(report, core, ctx)
        else:
            report.skip_unreported([cid for cid in checks_in("axiom")
                                    if cid != "star-compatible" or inp.star is not None],
                                   stop)
    if path in ("thm29", "both"):
        _run_antipode_path(report, ctx, c, inp, oracle)
    if path == "both":
        _path_equivalence(report, ctx)

    if oracle is not None:
        _oracle_comparison(report, ctx, oracle)

    report.classification = _classification(ctx, report)
    return report, ctx


def _verify_presentation(algebra: Algebra, t1: Matrix, t2: Matrix, t3: Optional[Matrix],
                         t4: Optional[Matrix], axiom: bool, cache: RunCache
                         ) -> Tuple[VerificationReport, RunContext, Optional[str]]:
    """The gate, counit, E and (if axiom) Def. 1.14 checks of the
    presentation (A, T1..T4).  They read nothing else, so equal
    presentations give equal results.  Returns the checks, the context
    (its coproduct None if the gate stopped the run) and the label of
    the check that stopped the run ("regular": not regular) or None."""
    report = VerificationReport()
    ctx = RunContext(algebra=algebra)
    blocker: Optional[str] = None

    def block_on(result: CheckResult) -> CheckResult:
        nonlocal blocker
        report.add(result)
        if result.status == FAIL and blocker is None:
            blocker = result.check_id
        return result

    checks, ctx.unit = validate_algebra(algebra, cache)
    for r in checks:
        block_on(r)

    # a failed algebra or coproduct check stops the run at the gate
    if not blocker:
        c = CoproductData(algebra, t1, t2, t3, t4, cache=cache)
        for r in cop.validate_coproduct(c):
            block_on(r)
    if blocker:
        report.skip_unreported(checks_in("gate"), blocker)
        return report, ctx, blocker
    ctx.coproduct = c

    v, wspace, full = cop.check_fullness(c)
    block_on(check("coproduct-full", full,
                   "both legs of the coproduct span the algebra",
                   f"leg spans have dimensions {v.dim} and {wspace.dim} of {c.n}"))

    try:
        ctx.counit = cop.solve_counit(c)
        report.add(passed("counit-exists", "counit solved and unique"))
    except cop.NonUniqueCounit as exc:
        note = " (expected: coproduct is not full)" if not full else ""
        block_on(failed("counit-exists", f"{exc}{note}"))
    except cop.NoCounit as exc:
        block_on(failed("counit-exists", str(exc)))

    try:
        ctx.e = cop.compute_E(c)
        report.add(passed(
            "idempotent-exists",
            f"canonical idempotent solved; action ranks {c.ran_t1().dim}/{c.nn} "
            f"and {c.ran_t2().dim}/{c.nn}"))
    except cop.NoSuchIdempotent as exc:
        block_on(failed("idempotent-exists", str(exc)))

    flips = c.t3 is not None and c.t4 is not None
    if ctx.e is None:
        report.skip_unreported([cid for cid in checks_in("idempotent")
                                if flips or cid != "idempotent-from-flips"], "idempotent-exists")
    else:
        for r in cop.validate_E(c, ctx.e):
            block_on(r)
        if flips:
            try:
                e2 = cop.compute_E_from_flips(c)
                report.add(check(
                    "idempotent-from-flips",
                    e2 is not None and e2.left == ctx.e.left and e2.right == ctx.e.right,
                    "idempotent recomputed from the flipped-side maps agrees",
                    "flipped-side maps prescribe a different idempotent"))
            except cop.NoSuchIdempotent as exc:
                report.add(failed("idempotent-from-flips", str(exc)))
        try:
            for r in cop.check_E_conditions(c, ctx.e):
                block_on(r)
        except cop.IllDefinedExtension as exc:
            block_on(failed("e-coassociativity", str(exc)))

    stop = _run_axiom_path(report, ctx, c, blocker) if axiom else None
    return report, ctx, stop


def _run_axiom_path(report, ctx, c, blocker) -> Optional[str]:
    """Run the Def. 1.14 path as far as its prerequisites hold.  Returns the
    label of the check that stopped it ("regular" for a non-regular
    antipode, whose Section 4 and appendix checks do not apply), or None
    when every check ran."""
    if blocker:
        return blocker

    try:
        ctx.g = cop.solve_G_maps(c, ctx.e)
        report.add(passed("projections-solve",
                          "projection maps solved from their defining equalities"))
    except cop.NoSolution as exc:
        report.add(failed("projections-solve", str(exc)))
        return "projections-solve"
    report.extend(cop.validate_G_maps(c, ctx.e, ctx.counit, ctx.g))
    report.extend(cop.check_kernels(c, ctx.g))
    if report.status_of("kernels-match") == FAIL or \
       report.status_of("projections-idempotent") == FAIL:
        return "kernels-match"

    try:
        r1, r2, checks = ant.build_generalized_inverses(c, ctx.e, ctx.g)
        report.extend(checks)
    except BadProjections as exc:
        report.add(failed("generalized-inverses", str(exc)))
        return "generalized-inverses"

    try:
        ctx.antipode, checks = ant.compute_antipode(c, r1, r2, ctx.counit)
        report.extend(checks)
    except ant.AntipodesDisagree as exc:
        report.extend(exc.checks)
        return "antipodes-agree"
    w = ctx.antipode

    ctx.source_target, checks = ant.compute_source_target(c, ctx.e, ctx.g, w, ctx.counit)
    report.extend(checks)
    report.extend(ant.check_antipode_identities(c, ctx.e, ctx.g, w, ctx.source_target))

    checks, ctx.t3, ctx.t4 = ant.regular_suite(c, ctx.e, ctx.g, w)
    report.extend(checks)
    regular = not w.not_regular

    # local units: existence reported always, demanded under regularity
    if ctx.unit is not None:
        report.add(passed("local-units", "unit element found (finite-dimensional case)"))
    elif regular:
        report.add(failed("local-units",
                          "regular structure on a finite-dimensional algebra must have a unit"))
    else:
        report.add(passed("local-units",
                          "no unit; local units are not implied without regularity"))

    report.extend(ant.weak_hopf_suite(c, ctx.e, ctx.source_target,
                                      ctx.counit, ctx.unit, regular=regular))
    report.extend(ant.appendix_suite(c, ctx.e, w, ctx.source_target))
    return None if regular else "regular"


def _op_round_trip(report, core, ctx):
    """Verify the opposite presentation (A^op, T3, T4, T1, T2): its
    antipode must invert S, and its canonical idempotent must be E with
    the two actions swapped.  Its core report, E actions and antipode
    matrix are transported from core and ctx when `_transported_core`
    finds the presentation to be their image; otherwise the core runs
    on it."""
    c, w = ctx.coproduct, ctx.antipode
    op = c.parent.opposite()
    maps = (ctx.t3, ctx.t4, c.t1, c.t2)
    got = _transported_core(core, ctx, op, maps)
    if got is None:
        op_report, op_ctx, _ = _verify_presentation(op, *maps, True, c.cache)
        e_op = None if op_ctx.e is None else (op_ctx.e.left, op_ctx.e.right)
        s_op = None if op_ctx.antipode is None else op_ctx.antipode.s_matrix
    else:
        op_report, e_op, s_op = got
    ok = op_report.verdict == PASS
    detail = ""
    if not ok:
        first = op_report.first_failure()
        detail = f"opposite presentation fails at {first.check_id}: {first.detail}"
    report.add(check("appendix-op-roundtrip", ok,
                     "opposite presentation verifies as a weak multiplier Hopf algebra",
                     detail))
    inv_ok = ok and s_op is not None and s_op == w.s_matrix_inv \
        and e_op == (ctx.e.right, ctx.e.left)
    report.add(check("regular-op-antipode", inv_ok,
                     "antipode of the opposite presentation is the inverse antipode",
                     "opposite-presentation antipode or idempotent mismatch"))


def _transported_core(core, ctx, op, maps):
    """(report, (E.left, E.right), S matrix) of the presentation core on
    (op, *maps), read off the main run's core and ctx when that
    presentation is their image under Phi = s (x) s, with
    `coproducts.transport` testing the isomorphism literally; else None.
    Only called on a regular run (stop None).

    s = 1, the presentation is the input itself (a commutative algebra,
    T3 = T1 and T4 = T2; `opposite` keeps the labels): the core would
    compute exactly core and ctx, failures and their details included.

    s = S, transported only when core passed and the input carried T3
    and T4, so the core on (op, *maps) runs the same check list
    (`coproduct-regular-maps` and `idempotent-from-flips` included).
    Then E_op = Phi E Phi^-1 and S_op = S S S^-1, and the comparisons of
    `regular-op-antipode` test S^2 = 1 and (S (x) S)E = E, which is
    (S (x) S)E = sigma E here: Phi carrying T1 to T3 makes the coproduct
    cocommutative.  The verdict is transported because a pass of every
    core check is a property of the presentation that an algebra
    isomorphism carrying all four maps preserves:
    - equalities and containments of subspaces, ranks and dimensions,
      and the existence of solutions (unit, counit, E, G1/G2, R1/R2,
      the sandwich products), each unique when the check passes, so
      the core on the image finds the image of each witness;
    - the walks over basis pairs, triples and quadruples: each identity
      walked is multilinear in the walked elements, so holding on a
      basis is holding everywhere.  Which failure a walk reports depends
      on the basis; that it finds none does not.  The exception is
      `source-target-inclusions`, which tests e_a x in e_a A for basis
      vectors only; with a unit every value x of eps_s or eps_t is an
      element of A, so it holds for every a;
    - the choices.  `extend_delta` (in `antipode-anticoproduct` and
      `source-target-coproduct`) compares the values from the preimages
      of two pivot orders, and `_extended_leg_columns` (in
      `e-coassociativity`) those of two psi preimages and two mu
      decompositions.  local-units passed on a regular run, so A has a
      unit, coproduct(a) = T1(a (x) 1) is multiplicative by
      `coproduct-homomorphism`, and each value is choice-free:
      extend_delta's left value T1((m (x) 1)z) for T1 z = E x is
      coproduct(m) E x, m being the element m.left(1) by the left law
      (its right value likewise by the T2 half and the right law); the
      extended leg at E(e_i (x) e_j) (x) e_k is
      (coproduct (x) id)(E) (E(e_i (x) e_j) (x) e_k), which reads the
      psi preimage only through its image and the mu decomposition only
      through e_k.  So any two choices agree, those of the image's
      pivot orders too."""
    c, w = ctx.coproduct, ctx.antipode
    if c.t3 is None or c.t4 is None:
        return None
    ident = Matrix.identity(c.n)
    if cop.transport(c, ident, ident, op, maps) is not None:
        return core, (ctx.e.left, ctx.e.right), w.s_matrix
    if core.verdict != PASS:
        return None
    s, s_inv = w.s_matrix, w.s_matrix_inv
    got = cop.transport(c, s, s_inv, op, maps)
    if got is None:
        return None
    phi, phi_inv = got
    return core, (phi * ctx.e.left * phi_inv, phi * ctx.e.right * phi_inv), s * s * s_inv


def _run_antipode_path(report, ctx, c, inp, oracle):
    s_mat = inp.antipode
    e_pair = inp.e_pair
    if s_mat is None and oracle is not None:
        s_mat = oracle.oracle_s
    if e_pair is None and oracle is not None:
        e_pair = (oracle.oracle_e_left, oracle.oracle_e_right)
    if s_mat is None and ctx.antipode is not None:
        s_mat = ctx.antipode.s_matrix
    if e_pair is None and ctx.e is not None:
        e_pair = (ctx.e.left, ctx.e.right)
    if s_mat is None or e_pair is None or ctx.counit is None:
        why = "counit-exists" if ctx.counit is None else "no candidate antipode available"
        report.extend(CheckResult(cid, SKIP, why) for cid in checks_in("thm29"))
        return
    checks, w29, e29 = ant.verify_via_antipode(c, s_mat, e_pair[0], e_pair[1])
    for r in checks:
        report.add(r)
    ctx.thm29_antipode = w29
    ctx.thm29_e = e29


def _path_equivalence(report, ctx):
    if ctx.antipode is None or ctx.thm29_antipode is None or \
            ctx.e is None or ctx.thm29_e is None:
        report.add(skipped("path-equivalence", "one of the two paths did not finish"))
        return
    same_s = ctx.antipode.s_matrix is not None and \
        ctx.antipode.s_matrix == ctx.thm29_antipode.s_matrix
    same_e = ctx.e.left == ctx.thm29_e.left and ctx.e.right == ctx.thm29_e.right
    report.add(check("path-equivalence", same_s and same_e,
                     "axiom path and antipode path agree on E and S exactly",
                     "paths disagree on E or S"))


def _oracle_comparison(report, ctx, oracle: GroupoidModel):
    probs = []
    if ctx.e is not None:
        if ctx.e.left != oracle.oracle_e_left or ctx.e.right != oracle.oracle_e_right:
            probs.append("E")
    if ctx.g is not None:
        if ctx.g.g1 != oracle.oracle_g1 or ctx.g.g2 != oracle.oracle_g2:
            probs.append("G1/G2")
    if ctx.counit is not None and ctx.counit != oracle.oracle_counit:
        probs.append("counit")
    w = ctx.antipode or ctx.thm29_antipode
    if w is not None and w.s_matrix != oracle.oracle_s:
        probs.append("S")
    if ctx.unit != oracle.oracle_unit:
        probs.append("unit")
    report.add(check("oracle-witnesses", not probs,
                     "computed witnesses equal the model oracles exactly",
                     f"oracle mismatch: {', '.join(probs)}"))


def _classification(ctx, report) -> Dict[str, object]:
    """The classification of one structure run.  When the axiom path built
    the antipode, its checks decide.  Otherwise the antipode path's
    witness classifies by the finite-dimensional equivalence (unital and
    regular implies the unital axioms) without re-deriving the counit
    identities."""
    verdict_pass = report.verdict == PASS
    unital = ctx.unit is not None
    w, e = ctx.antipode, ctx.e
    if w is None:
        w, e = ctx.thm29_antipode, ctx.thm29_e
    regular = w is not None and not w.not_regular
    cls = {"wmha": verdict_pass, "regular": regular, "star": None, "unital": unital}
    if ctx.antipode is not None:
        weak_hopf = all(report.status_of(cid) == PASS for cid in (
            "weak-hopf-counit", "weak-hopf-counit-op", "weak-hopf-antipode-formulas"))
        star = report.status_of("star-compatible")
        if star is not None:
            cls["star"] = star == PASS
        if not regular:
            cls["reasons"] = {"regular": w.not_regular}
    else:
        weak_hopf = verdict_pass and regular and unital
    cls["weak_hopf"] = weak_hopf
    # a Hopf algebra needs eps(1) = 1; E = 1 (x) 1 implies it unless 1 = 0
    cls["hopf"] = weak_hopf and e is not None and \
        e.left == Matrix.identity(ctx.algebra.dim ** 2) and \
        _dot((v, ctx.counit[i]) for i, v in ctx.unit.items()) == ONE
    return cls


# ---------------------------------------------------------------- groupoids


def verify_groupoid_model(g: FiniteGroupoid, kind: str, path: str = "def114",
                          with_pairing: bool = True) -> Tuple[VerificationReport, RunContext]:
    """Check the groupoid axioms of g, the one place they are checked, then
    verify its kind model; a failed `groupoid-axioms` stops the run."""
    violations = validate_groupoid(g)
    if violations:
        # the model builders assume the axioms; report and stop
        report = VerificationReport()
        report.add(check("groupoid-axioms", False, "",
                         "; ".join(violations[:3])))
        return report, RunContext(algebra=Algebra(0, []))
    model = build_model(g, kind)
    inp = StructureInput(model.algebra, model.t1, model.t2, model.t3, model.t4,
                         star=model.star_matrix)
    report, ctx = verify_structure(inp, path=path, oracle=model)
    report.checks.insert(0, check(
        "groupoid-axioms", True, f"{len(g.morphisms)} morphisms, "
        f"{len(g.units)} units"))
    if with_pairing:
        report.add(check_duality_pairing(model, kind))
    return report, ctx


def verify_lazy_model(lazy: LazyGroupoid, kind: str, k_max: int,
                      seed: int = 0) -> VerificationReport:
    """Exhaustive verification of nested finite windows, plus the
    infinite-model certificates: witness restriction across windows,
    non-unitality of the full algebra, and sampled local units."""
    # windows are nested, so the first one above MAX_DIM dooms the last;
    # building them from window 1 up stops before any larger one is built
    windows = []
    for k in range(1, k_max + 1):
        windows.append(lazy.window(k))
        refuse_oversize(f"{lazy.name} window {k}", len(windows[-1].morphisms))
    report = VerificationReport(seed=seed)
    contexts: Dict[int, RunContext] = {}
    unit_sizes: List[int] = []
    for k, g in enumerate(windows, 1):
        sub_report, ctx = verify_groupoid_model(g, kind, path="def114",
                                                with_pairing=(k == k_max))
        for r in sub_report.checks:
            report.add(CheckResult(r.check_id, r.status, f"window {k}: {r.detail}"))
        if sub_report.status_of("groupoid-axioms") == FAIL:
            continue    # no model: nothing to compare or sample
        contexts[k] = ctx
        unit_sizes.append(len(g.units))
    if k_max >= 2:
        report.extend(_first_failures(_window_failures(windows, contexts), {
            "window-consistency": "witnesses of each window restrict from the next window"}))
    else:
        report.add(passed("window-consistency", "vacuous with fewer than two windows"))

    growing = all(a < b for a, b in zip(unit_sizes, unit_sizes[1:]))
    report.add(check(
        "global-nonunital",
        growing or k_max < 2,
        "unit candidate is the all-units sum, whose support grows without bound",
        "unit supports do not grow across windows"))

    if k_max >= 1 and k_max not in contexts:
        report.add(skipped("sampled-local-units", "groupoid-axioms"))
        return report

    def local_unit_failures():
        rng = random.Random(seed)
        g = windows[-1]
        mul = contexts[k_max].algebra.mul_sparse
        for _ in range(5):
            size = rng.randint(1, min(4, len(g.morphisms)))
            members = sorted(rng.sample(range(len(g.morphisms)), size))
            lu = local_unit_for(g, kind, members)
            probe = {i: rational(rng.randint(1, 5)) for i in members}
            for x in [{i: ONE} for i in members] + [probe]:
                if mul(lu, x) != x or mul(x, lu) != x:
                    yield f"exhibited local unit fails on sample {members}"
    report.extend(_first_failures(local_unit_failures() if k_max >= 1 else (), {
        "sampled-local-units": "sampled finite sets admit the exhibited unit-set indicators"}))
    return report


def _window_failures(windows, contexts):
    """The witnesses of each window that do not restrict from the next."""
    for k in range(1, len(windows)):
        small, big = contexts.get(k), contexts.get(k + 1)
        if small is None or big is None or small.e is None or big.e is None \
                or small.g is None or big.g is None \
                or small.antipode is None or big.antipode is None \
                or small.antipode.s_matrix is None or big.antipode.s_matrix is None:
            yield f"windows {k} and {k + 1} lack comparable witnesses"
            continue
        gs, gb = windows[k - 1], windows[k]
        idx_b = gb.index()
        try:
            embed = [idx_b[m] for m in gs.morphisms]
        except KeyError as exc:
            yield f"window {k} morphism {exc} missing from window {k + 1}"
            continue
        ns, nb = len(gs.morphisms), len(gb.morphisms)
        # counit restricts
        for i, ib in enumerate(embed):
            if small.counit[i] != big.counit[ib]:
                yield f"counit of window {k + 1} does not restrict to window {k}"
        # antipode restricts (columns supported inside the window)
        for i, ib in enumerate(embed):
            col_b = dict(big.antipode.s_matrix.col_sparse(ib))
            if any(rb not in embed for rb in col_b):
                yield f"antipode of window {k + 1} leaves window {k}"
            elif {embed[rs]: v for rs, v in small.antipode.s_matrix.col_sparse(i)} != col_b:
                yield f"antipode restriction mismatch between windows {k} and {k + 1}"
        # E and G actions restrict on embedded tensor pairs
        pair_embed = {i1 * ns + i2: e1 * nb + e2
                      for i1, e1 in enumerate(embed) for i2, e2 in enumerate(embed)}
        embedded_rows = set(pair_embed.values())
        for name, ms, mb in (("E-left", small.e.left, big.e.left),
                             ("E-right", small.e.right, big.e.right),
                             ("G1", small.g.g1, big.g.g1),
                             ("G2", small.g.g2, big.g.g2)):
            for cs, cb in pair_embed.items():
                colb = dict(mb.col_sparse(cb))
                mapped = {pair_embed[rs]: v for rs, v in ms.col_sparse(cs)}
                if any(rb not in embedded_rows for rb in colb):
                    yield f"{name} of window {k + 1} leaves window {k}"
                elif mapped != colb:
                    yield f"{name} restriction mismatch between windows {k} and {k + 1}"

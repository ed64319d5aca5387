import copy
import json

import pytest

from conftest import conjugated_input
from wmha.antipodes import AntipodesDisagree
from wmha.coproducts import NoSolution, NoSuchIdempotent, RunCache
from wmha.fileio import model_to_document, parse_document
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.pipeline import (StructureInput, verify_groupoid_model,
                           verify_lazy_model, verify_structure)
from wmha.linalg import BadProjections, Matrix
from wmha.report import FAIL, PASS, SKIP, failed, passed
from wmha.scalars import ONE


def convolution_model():
    return convolution_algebra(preset("pair:2"))


def test_all_finite_presets_pass_both_paths():
    for name, kind in (("pair:2", "function"), ("pair:2", "convolution"),
                       ("group:cyclic:2", "convolution"),
                       ("bundle:cyclic:2:3", "function")):
        report, ctx = verify_groupoid_model(preset(name), kind, path="both")
        assert report.verdict == PASS, (name, kind, report.first_failure())
        assert report.status_of("oracle-witnesses") == PASS
        assert report.status_of("path-equivalence") == PASS
        assert report.status_of("duality-pairing") == PASS
        assert report.classification["wmha"] and report.classification["regular"]


def test_skip_semantics_on_broken_associativity():
    # corrupt one structure constant so associativity fails: downstream
    # checks must be skipped, not failed
    m = convolution_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=False)
    doc["algebra"]["structure"][0][3] = "2"
    parsed = parse_document(doc)
    report, ctx = verify_structure(parsed.structure, path="def114")
    assert report.verdict == FAIL
    statuses = {r.check_id: r.status for r in report.checks}
    assert statuses["algebra-associative"] == FAIL or statuses["algebra-nondegenerate"] == FAIL
    assert statuses["counit-exists"] == SKIP
    assert statuses["idempotent-exists"] == SKIP


def test_first_failure_is_named_for_bad_t1():
    m = function_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=False)
    doc["coproduct"]["T1"][0][2] = "5/3"
    parsed = parse_document(doc)
    report, ctx = verify_structure(parsed.structure, path="def114")
    assert report.verdict == FAIL
    first = report.first_failure()
    assert first is not None and first.check_id.startswith("coproduct")


def _round_trip_run(name, kind, variant):
    """One verification of a preset model: as the CLI runs it, without
    T3/T4, without T4, with one entry of T3 changed, or conjugated by a
    dense rational P."""
    from wmha.linalg import Matrix
    from wmha.scalars import ONE, rational

    if variant == "preset":
        return verify_groupoid_model(preset(name), kind)[0]
    if variant == "dense":
        p = Matrix.from_rows([[rational(1), rational(-1, 2)],
                              [rational(-2), rational(-1, 2)]])
        return _conjugated_run(name, complex_entries=False, p=p)[0]
    m = (convolution_algebra if kind == "convolution" else function_algebra)(preset(name))
    t3, t4 = m.t3, m.t4
    if variant == "T3 changed":
        rows = m.t3.dense_rows()
        rows[0][0] += ONE
        t3 = Matrix.from_rows(rows)
    else:
        t3, t4 = (None, None) if variant == "no T3/T4" else (t3, None)
    return verify_structure(StructureInput(m.algebra, m.t1, m.t2, t3, t4))[0]


@pytest.mark.parametrize("name, kind, variant, cores, round_trip", [
    # commutative, with T3 = T1 and T4 = T2: A^op is the input itself
    ("pair:2", "function", "preset", 1, PASS),
    ("group:cyclic:3", "convolution", "preset", 1, PASS),
    ("bundle:cyclic:1:2", "convolution", "dense", 1, PASS),
    # non-commutative tables whose opposite presentation is the image of
    # the input under S (x) S: the round trip is transported
    ("pair:2", "convolution", "preset", 1, PASS),
    ("pair:3", "convolution", "preset", 1, PASS),
    # maps absent on one side only
    ("pair:2", "function", "no T3/T4", 2, PASS),
    ("pair:2", "function", "no T4", 2, PASS),
    # a changed T3 fails coproduct-regular-maps at the gate
    ("pair:2", "function", "T3 changed", 1, None),
])
def test_op_round_trip_reuses_equal_presentation(name, kind, variant, cores,
                                                 round_trip, monkeypatch):
    # the presentation core validates its algebra once per run of it
    import wmha.pipeline

    calls = []
    validate = wmha.pipeline.validate_algebra
    monkeypatch.setattr(wmha.pipeline, "validate_algebra",
                        lambda a, store: calls.append(a) or validate(a, store))
    report = _round_trip_run(name, kind, variant)
    assert len(calls) == cores
    assert report.status_of("appendix-op-roundtrip") == round_trip
    assert report.status_of("regular-op-antipode") == round_trip
    assert report.verdict == (FAIL if round_trip is None else PASS)


def _main_core(name):
    """The presentation core of the convolution model of preset name, as
    verify_structure runs it: (core report, context)."""
    from wmha.coproducts import RunCache
    from wmha.pipeline import _verify_presentation

    m = convolution_algebra(preset(name))
    core, ctx, stop = _verify_presentation(m.algebra, m.t1, m.t2, m.t3, m.t4, True, RunCache())
    assert stop is None and core.verdict == PASS
    return core, ctx


def _bumped(m):
    """m with 1 added to its entry (0, 0)."""
    from wmha.linalg import Matrix
    from wmha.scalars import ONE

    rows = m.dense_rows()
    rows[0][0] += ONE
    return Matrix.from_rows(rows)


def _count_cores(monkeypatch):
    """The list that every later run of the presentation core appends its
    result to."""
    import wmha.pipeline

    runs = []
    verify = wmha.pipeline._verify_presentation
    monkeypatch.setattr(wmha.pipeline, "_verify_presentation",
                        lambda *args: runs.append(verify(*args)) or runs[-1])
    return runs


@pytest.mark.parametrize("name, complex_entries", [
    ("pair:2", None), ("pair:3", None), ("union:pair:2+group:cyclic:2", None),
    # the dense conjugations by a rational and a Gaussian change of basis
    ("pair:2", False), ("group:cyclic:3", True),
], ids=["pair:2", "pair:3", "union:pair:2+group:cyclic:2", "pair:2-rational-conjugation",
        "group:cyclic:3-gaussian-conjugation"])
def test_op_round_trip_transport_matches_full_core(name, complex_entries, monkeypatch):
    import wmha.pipeline
    from wmha.fileio import witnesses_to_json

    def certificate():
        if complex_entries is None:
            report, ctx = verify_groupoid_model(preset(name), "convolution")
        else:
            report, ctx = verify_structure(conjugated_input(name, complex_entries)[0])
        report.witnesses = witnesses_to_json(ctx)
        return report.to_json()

    runs = _count_cores(monkeypatch)
    transport = wmha.pipeline._transported_core
    monkeypatch.setattr(wmha.pipeline, "_transported_core", lambda *args: None)
    full = certificate()
    assert len(runs) == 2
    op_ctx = runs[1][1]

    transported = []
    monkeypatch.setattr(wmha.pipeline, "_transported_core",
                        lambda *args: transported.append(transport(*args)) or transported[-1])
    assert certificate() == full
    assert len(runs) == 3 and transported[0] is not None
    _, e_op, s_op = transported[0]
    assert e_op == (op_ctx.e.left, op_ctx.e.right)
    assert s_op == op_ctx.antipode.s_matrix


@pytest.mark.parametrize("case", ["S not invertible", "S = 1 on a non-commutative table",
                                  "T3 changed", "non-stopping failure"])
def test_op_round_trip_refuses_transport(case, monkeypatch):
    from wmha.antipodes import AntipodeWitness
    from wmha.linalg import Matrix
    from wmha.pipeline import _op_round_trip, _transported_core
    from wmha.report import VerificationReport, failed

    core, ctx = _main_core("pair:2")
    w = ctx.antipode
    n = w.s_matrix.rows
    if case == "S not invertible":
        cols = [dict(w.s_matrix.col_sparse(j)) for j in range(n)]
        singular = Matrix.from_sparse_cols(n, [cols[1]] + cols[1:])
        ctx.antipode = AntipodeWitness(w.r1, w.r2, w.s, singular, w.s_matrix_inv)
    elif case == "S = 1 on a non-commutative table":
        ident = Matrix.identity(n)
        ctx.antipode = AntipodeWitness(w.r1, w.r2, w.s, ident, ident)
    elif case == "T3 changed":
        ctx.t3 = _bumped(ctx.t3)
    else:
        core = VerificationReport(checks=core.checks + [failed("projections-factor", "doctored")])
    c = ctx.coproduct
    op = c.parent.opposite()
    assert _transported_core(core, ctx, op, (ctx.t3, ctx.t4, c.t1, c.t2)) is None
    runs = _count_cores(monkeypatch)
    _op_round_trip(VerificationReport(), core, ctx)
    assert len(runs) == 1


MISMATCH = "opposite-presentation antipode or idempotent mismatch"


@pytest.mark.parametrize("name", ["pair:2", "pair:3"])
@pytest.mark.parametrize("doctored, cores, failures", [
    # the transport leaves E alone: E_op = Phi E Phi^-1 is compared with
    # the doctored (E.right, E.left)
    ("E.right", 0, {"regular-op-antipode": MISMATCH}),
    # the transport tests S S^-1 = 1 and refuses; the core's S_op is the
    # true inverse
    ("S^-1", 1, {"regular-op-antipode": MISMATCH}),
    # the opposite presentation itself fails, so it has no antipode to compare
    ("T3", 1, {"appendix-op-roundtrip": "opposite presentation fails at coproduct-module-laws: "
                                        "T1 right-module law fails at "
                                        "(L[(0,0)], L[(0,0)], L[(1,0)])",
               "regular-op-antipode": MISMATCH}),
], ids=["E.right", "S^-1", "T3"])
def test_op_round_trip_fails_on_a_doctored_witness(name, doctored, cores, failures, monkeypatch):
    from wmha.algebras import Multiplier
    from wmha.pipeline import _op_round_trip
    from wmha.report import VerificationReport

    core, ctx = _main_core(name)
    if doctored == "E.right":
        ctx.e = Multiplier(ctx.e.parent, ctx.e.left, _bumped(ctx.e.right))
    elif doctored == "S^-1":
        ctx.antipode.s_matrix_inv = _bumped(ctx.antipode.s_matrix_inv)
    else:
        ctx.t3 = _bumped(ctx.t3)
    runs = _count_cores(monkeypatch)
    report = VerificationReport()
    _op_round_trip(report, core, ctx)
    assert len(runs) == cores
    assert {r.check_id: r.detail for r in report.checks if r.status == FAIL} == failures


def test_thm29_path_uses_input_candidates():
    m = convolution_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=True)
    parsed = parse_document(doc)
    report, ctx = verify_structure(parsed.structure, path="thm29")
    assert report.verdict == PASS
    assert report.status_of("thm29-identities") == PASS
    assert report.status_of("counit-matches-input") == PASS
    # the axiom-path checks were not run at all on this path
    assert report.status_of("projections-solve") is None


def test_lazy_windows_pass_and_certify():
    report = verify_lazy_model(preset("pair:inf"), "function", k_max=3, seed=11)
    assert report.verdict == PASS
    for cid in ("window-consistency", "global-nonunital", "sampled-local-units"):
        assert report.status_of(cid) == PASS
    assert report.seed == 11


def test_lazy_windows_are_built_once(monkeypatch, capsys):
    import wmha.groupoids
    import wmha.pipeline
    from wmha.cli import main

    built, models, validated = [], [], []
    pair = wmha.groupoids.pair_groupoid
    monkeypatch.setattr(wmha.groupoids, "pair_groupoid",
                        lambda n: built.append(n) or pair(n))
    build_model = wmha.pipeline.build_model
    monkeypatch.setattr(wmha.pipeline, "build_model",
                        lambda g, kind: models.append(len(g.morphisms)) or build_model(g, kind))
    validate = wmha.pipeline.validate_groupoid
    monkeypatch.setattr(wmha.pipeline, "validate_groupoid",
                        lambda g: validated.append(len(g.morphisms)) or validate(g))
    assert main(["verify", "--preset", "pair:inf", "--model", "function",
                 "--windows", "3"]) == 0
    # the run builds windows 1 to 3, and checks each one's axioms once
    assert built == [1, 2, 3]
    assert validated == [1, 4, 9]
    # one model per window: the sampled local units read the last window's
    assert models == [1, 4, 9]


def test_lazy_zero_windows_pass_vacuously():
    report = verify_lazy_model(preset("pair:inf"), "function", k_max=0, seed=1)
    assert report.verdict == PASS


def _detail(report, check_id):
    return next(r.detail for r in report.checks if r.check_id == check_id)


def test_oracle_unit_mismatch_is_reported():
    # the function model of pair:2 against the convolution model's unit
    import copy

    fun = function_algebra(preset("pair:2"))
    oracle = copy.copy(fun)
    oracle.oracle_unit = convolution_model().oracle_unit
    inp = StructureInput(fun.algebra, fun.t1, fun.t2, fun.t3, fun.t4)
    report, ctx = verify_structure(inp, path="def114", oracle=oracle)
    assert report.status_of("oracle-witnesses") == FAIL
    assert _detail(report, "oracle-witnesses") == "oracle mismatch: unit"


def _doctored_oracle(value):
    """An oracle witness changed at its first entry."""
    if isinstance(value, Matrix):
        return value + Matrix.from_entries(value.rows, value.cols, {(0, 0): ONE})
    return [value[0] + ONE] + value[1:]


@pytest.mark.parametrize("names, detail", [
    (["oracle_e_left"], "E"), (["oracle_e_right"], "E"), (["oracle_g1"], "G1/G2"),
    (["oracle_g2"], "G1/G2"), (["oracle_counit"], "counit"), (["oracle_s"], "S"),
    (["oracle_e_right", "oracle_g2", "oracle_counit", "oracle_s"], "E, G1/G2, counit, S"),
])
def test_oracle_witness_mismatches_are_reported(names, detail):
    # the function model of pair:2 against its own oracles, each named one
    # changed at its first entry: every mismatch is named, in this order
    fun = function_algebra(preset("pair:2"))
    oracle = copy.copy(fun)
    for name in names:
        setattr(oracle, name, _doctored_oracle(getattr(fun, name)))
    report, _ = verify_structure(StructureInput(fun.algebra, fun.t1, fun.t2, fun.t3, fun.t4),
                                 path="def114", oracle=oracle)
    assert report.status_of("oracle-witnesses") == FAIL
    assert _detail(report, "oracle-witnesses") == f"oracle mismatch: {detail}"


def test_sampled_local_unit_failure_is_reported(monkeypatch):
    # an empty member list touches no unit: its "local unit" is zero
    import wmha.pipeline
    from wmha.groupoids import local_unit_for

    monkeypatch.setattr(wmha.pipeline, "local_unit_for",
                        lambda g, kind, s: local_unit_for(g, kind, []))
    report = verify_lazy_model(preset("pair:inf"), "function", k_max=2, seed=0)
    assert report.status_of("sampled-local-units") == FAIL
    assert _detail(report, "sampled-local-units") == \
        "exhibited local unit fails on sample [0, 1, 2, 3]"


def test_invalid_last_window_skips_sampled_local_units():
    from wmha.groupoids import FiniteGroupoid, LazyGroupoid, pair_groupoid

    def window(k):
        g = pair_groupoid(k)
        if k < 2:
            return g
        # every morphism its own inverse: not a groupoid from k = 2 on
        return FiniteGroupoid(g.morphisms, g.source, g.target, g.compose,
                              {m: m for m in g.morphisms})

    for kind in ("function", "convolution"):
        report = verify_lazy_model(LazyGroupoid("broken", window), kind, k_max=2, seed=0)
        assert report.status_of("groupoid-axioms") == FAIL
        assert report.status_of("sampled-local-units") == SKIP
        assert _detail(report, "sampled-local-units") == \
            "prerequisite failed: groupoid-axioms"


@pytest.mark.parametrize("kind, detail", [
    # the shift is an automorphism of the pointwise product: only
    # involutivity fails
    ("function", "star fails involutivity"),
    # on the group algebra anti-multiplicativity fails too, and its
    # witness wins
    ("convolution", "(e0 e0)* != e0* e0*"),
])
def test_star_failure_detail(kind, detail):
    from wmha.groupoids import build_model
    from wmha.linalg import Matrix

    m = build_model(preset("group:cyclic:3"), kind)
    inp = StructureInput(m.algebra, m.t1, m.t2, m.t3, m.t4, star=Matrix.permutation([1, 2, 0]))
    report, _ = verify_structure(inp, path="def114")
    assert report.status_of("star-structure") == FAIL
    assert _detail(report, "star-structure") == detail
    assert report.status_of("star-compatible") == SKIP
    assert _detail(report, "star-compatible") == "prerequisite failed: star-structure"


def test_classification_shape():
    report, ctx = verify_groupoid_model(preset("group:cyclic:3"), "convolution",
                                        path="both")
    cls = report.classification
    assert cls["hopf"] and cls["weak_hopf"] and cls["unital"] and cls["star"]


def test_swapped_flip_maps_fail_late_consistency():
    m = convolution_model()
    inp = StructureInput(m.algebra, m.t1, m.t2, m.t4, m.t3)  # T3/T4 swapped
    report, ctx = verify_structure(inp, path="def114")
    assert report.verdict == FAIL
    assert report.status_of("coproduct-regular-maps") == FAIL


def test_wrong_idempotent_candidate_fails_antipode_path():
    from wmha.linalg import Matrix

    m = convolution_model()
    ident = Matrix.identity(16)
    inp = StructureInput(m.algebra, m.t1, m.t2, antipode=m.oracle_s,
                         e_pair=(ident, ident))
    report, ctx = verify_structure(inp, path="thm29")
    assert report.verdict == FAIL
    assert report.status_of("thm29-e-ranges") == FAIL


def test_supplied_counit_mismatch_is_reported():
    from wmha.scalars import ONE, ZERO

    m = convolution_model()
    inp = StructureInput(m.algebra, m.t1, m.t2,
                         counit=[ONE, ONE, ONE, ZERO])
    report, ctx = verify_structure(inp, path="def114")
    assert report.status_of("counit-matches-input") == FAIL


def test_window_inconsistency_is_detected():
    from wmha.groupoids import LazyGroupoid, cyclic_bundle, pair_groupoid

    # windows that are valid groupoids but not nested
    broken = LazyGroupoid("broken", lambda k: pair_groupoid(k) if k != 2
                          else cyclic_bundle(2, 2))
    report = verify_lazy_model(broken, "convolution", k_max=3, seed=0)
    assert report.status_of("window-consistency") == FAIL


def test_report_json_is_deterministic():
    r1, _ = verify_groupoid_model(preset("pair:2"), "function", path="both")
    r2, _ = verify_groupoid_model(preset("pair:2"), "function", path="both")
    assert r1.to_json() == r2.to_json()


def test_conjugated_presentation_verifies_with_dense_constants():
    # change basis by an invertible rational matrix: the conjugated
    # presentation has dense structure constants but must verify, with
    # every witness the conjugate of the original one
    report, ctx, p, q, m = _conjugated_run("pair:2", complex_entries=False)
    from wmha.linalg import invert
    assert report.verdict == PASS, report.first_failure()
    assert ctx.antipode.s_matrix == invert(p, RunCache()) * m.oracle_s * p
    assert ctx.e.left == invert(q, RunCache()) * m.oracle_e_left * q


def test_complex_conjugated_presentation_verifies():
    # a change of basis with imaginary parts drives Gaussian-rational
    # arithmetic through every solver
    report, ctx, p, q, m = _conjugated_run("group:cyclic:3", complex_entries=True)
    from wmha.linalg import invert
    assert report.verdict == PASS, report.first_failure()
    assert ctx.antipode.s_matrix == invert(p, RunCache()) * m.oracle_s * p


def _conjugated_run(name, complex_entries, p=None):
    inp, p, q, m = conjugated_input(name, complex_entries, p)
    report, ctx = verify_structure(inp, path="def114")
    return report, ctx, p, q, m


def _raising(exc):
    def step(*args, **kwargs):
        raise exc
    return step


def _kernels_failing(real):
    def step(c, g):
        return [failed("kernels-match", "ker T1 differs from Ran(1 - G1)")
                if r.check_id == "kernels-match" else r for r in real(c, g)]
    return step


def _without_unit(real):
    def step(algebra, store):
        return real(algebra, store)[0], None
    return step


# the failures of the def114 path that no honest input reaches, keyed by
# the failing check: the step raises its declared refutation or returns a
# failing result.  Each row: module, step, the patched step built from the
# real one, and every failure the run reports.
STOPS = {
    "idempotent-exists": (
        "wmha.coproducts", "compute_E",
        lambda real: _raising(NoSuchIdempotent("no multiplier action with E(A (x) A) = Ran(T1)")),
        {"idempotent-exists": "no multiplier action with E(A (x) A) = Ran(T1)"}),
    "projections-solve": (
        "wmha.coproducts", "solve_G_maps",
        lambda real: _raising(NoSolution("defining system for G1 inconsistent")),
        {"projections-solve": "defining system for G1 inconsistent"}),
    "kernels-match": (
        "wmha.coproducts", "check_kernels", _kernels_failing,
        {"kernels-match": "ker T1 differs from Ran(1 - G1)"}),
    "generalized-inverses": (
        "wmha.antipodes", "build_generalized_inverses",
        lambda real: _raising(BadProjections("e is not idempotent")),
        {"generalized-inverses": "e is not idempotent"}),
    "antipodes-agree": (
        "wmha.antipodes", "compute_antipode",
        lambda real: _raising(AntipodesDisagree("S1(e_0) != S2(e_0)", [
            passed("antipode-defined", "counit contractions of R1/R2 give one-sided multipliers"),
            failed("antipodes-agree", "S1(e_0) != S2(e_0)")])),
        {"antipodes-agree": "S1(e_0) != S2(e_0)"}),
    # a regular run reaches every check: the opposite presentation fails
    # local-units too, and the oracle holds the unit
    "local-units": (
        "wmha.pipeline", "validate_algebra", _without_unit,
        {"local-units": "regular structure on a finite-dimensional algebra must have a unit",
         "appendix-op-roundtrip": "opposite presentation fails at local-units: regular "
                                  "structure on a finite-dimensional algebra must have a unit",
         "regular-op-antipode": "opposite-presentation antipode or idempotent mismatch",
         "oracle-witnesses": "oracle mismatch: unit"}),
}


@pytest.mark.parametrize("label", list(STOPS))
def test_def114_stop_reports_its_failure(label, monkeypatch, tmp_path, capsys):
    import importlib

    from wmha.cli import main
    from wmha.report import checks_in

    module, name, patched, failures = STOPS[label]
    passing, _ = verify_groupoid_model(preset("pair:2"), "convolution")
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, name, patched(getattr(mod, name)))
    report_path = tmp_path / "report.json"
    assert main(["verify", "--preset", "pair:2", "--model", "convolution",
                 "--report", str(report_path)]) == 1
    assert "verdict: fail (first failing check: " in capsys.readouterr().out
    blob = json.loads(report_path.read_text())
    assert blob["verdict"] == FAIL
    assert {c["id"]: c["detail"] for c in blob["checks"] if c["status"] == FAIL} == failures
    # the stopped run reports every check a passing run reports
    assert {r.check_id for r in passing.checks} <= {c["id"] for c in blob["checks"]}
    if label == "idempotent-exists":
        assert {c["id"]: c["detail"] for c in blob["checks"] if c["id"] in checks_in("idempotent")} \
            == dict.fromkeys(checks_in("idempotent"), "prerequisite failed: idempotent-exists")
    # the axiom checks up to the stop ran; every later one is skipped, naming it
    axiom = checks_in("axiom")
    skips = {c["id"]: c["detail"] for c in blob["checks"]
             if c["id"] in axiom and c["status"] == SKIP}
    if label == "local-units":
        # no stop: only the unital weak-Hopf identities are skipped
        assert skips == {cid: "not applicable: algebra has no unit" for cid in axiom
                         if cid.startswith("weak-hopf-")}
        return
    reached = axiom[:axiom.index(label) + 1] if label in axiom else []
    assert skips == {cid: f"prerequisite failed: {label}" for cid in axiom
                     if cid not in reached}


def test_flipped_side_idempotent_fails_idempotent_from_flips(monkeypatch):
    # a doctored T3 fails coproduct-regular-maps at the gate first, so the
    # recomputation from T3/T4 is injected: it returns sigma E sigma,
    # which differs from E on the function model of pair:2; the opposite
    # presentation recomputes it too
    import wmha.coproducts
    from wmha.algebras import Multiplier, flip_map

    real = wmha.coproducts.compute_E_from_flips

    def flipped(c):
        e, sigma = real(c), flip_map(c.n)
        return Multiplier(e.parent, sigma * e.left * sigma, sigma * e.right * sigma)

    monkeypatch.setattr(wmha.coproducts, "compute_E_from_flips", flipped)
    report, _ = verify_groupoid_model(preset("pair:2"), "function")
    assert {r.check_id: r.detail for r in report.checks if r.status == FAIL} == {
        "idempotent-from-flips": "flipped-side maps prescribe a different idempotent",
        "appendix-op-roundtrip": "opposite presentation fails at idempotent-from-flips: "
                                 "flipped-side maps prescribe a different idempotent",
        "regular-op-antipode": "opposite-presentation antipode or idempotent mismatch"}


@pytest.mark.parametrize("kind", ["function", "convolution"])
def test_disagreeing_paths_fail_path_equivalence(kind, monkeypatch):
    # a passing antipode path pins E and S, so its witness is injected:
    # the path's S is replaced by the identity, which pair:2's S is not
    import wmha.antipodes
    from wmha.antipodes import AntipodeWitness
    from wmha.linalg import Matrix

    real = wmha.antipodes.verify_via_antipode

    def identity_s(c, s_mat, e_left, e_right):
        checks, w, e = real(c, s_mat, e_left, e_right)
        ident = Matrix.identity(c.n)
        return checks, AntipodeWitness(w.r1, w.r2, w.s, ident, ident), e

    monkeypatch.setattr(wmha.antipodes, "verify_via_antipode", identity_s)
    report, _ = verify_groupoid_model(preset("pair:2"), kind, path="both")
    assert {r.check_id: r.detail for r in report.checks if r.status == FAIL} == {
        "path-equivalence": "paths disagree on E or S"}


def test_local_units_not_demanded_without_regularity(monkeypatch):
    # S not invertible: the run stops at regular, and with no unit
    # local-units passes with its reason
    import wmha.antipodes
    import wmha.pipeline

    monkeypatch.setattr(wmha.pipeline, "validate_algebra",
                        _without_unit(wmha.pipeline.validate_algebra))
    monkeypatch.setattr(wmha.antipodes, "invert", lambda m, store: None)
    report, _ = verify_groupoid_model(preset("pair:2"), "convolution")
    assert _detail(report, "regular") == "not regular: antipode matrix is not invertible"
    assert report.status_of("local-units") == PASS
    assert _detail(report, "local-units") == \
        "no unit; local units are not implied without regularity"
    assert _detail(report, "appendix-e-flip") == "prerequisite failed: regular"


# (dim, structure entries [i, j, k, re, im]) of algebras that fail the gate
@pytest.mark.parametrize("dim, structure, failures", [
    # the zero product: e0 annihilates, and A^2 = 0
    (1, [], {"algebra-nondegenerate": "nonzero x with x*A = 0",
             "algebra-idempotent": "products do not span the algebra"}),
    # nilpotent, e0 e0 = e1: e1 annihilates, and A^2 = span(e1)
    (2, [[0, 0, 1, "1", "0"]],
     {"algebra-nondegenerate": "nonzero x with x*A = 0",
      "algebra-idempotent": "products do not span the algebra"}),
    # e0 e0 = e0, e0 e1 = e1: A^2 = A, but e1 annihilates from the left
    (2, [[0, 0, 0, "1", "0"], [0, 1, 1, "1", "0"]],
     {"algebra-nondegenerate": "nonzero x with x*A = 0"}),
])
def test_degenerate_algebra_fails_at_the_gate(dim, structure, failures, tmp_path):
    from wmha.cli import main
    from wmha.report import checks_in

    doc = {"algebra": {"dim": dim, "structure": structure},
           "coproduct": {"T1": [], "T2": []}}
    doc_path, report_path = tmp_path / "doc.json", tmp_path / "report.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(doc_path), "--report", str(report_path)]) == 1
    checks = json.loads(report_path.read_text())["checks"]
    assert {c["id"]: c["detail"] for c in checks if c["status"] == FAIL} == failures
    blocker = "algebra-nondegenerate"
    assert {c["id"]: c["detail"] for c in checks if c["status"] == SKIP} == \
        {cid: f"prerequisite failed: {blocker}" for cid in checks_in("gate")}


def test_constant_windows_fail_global_nonunital():
    # every window is one copy of Z/2: the unit support never grows
    from wmha.groupoids import LazyGroupoid, cyclic_bundle

    constant = LazyGroupoid("constant", lambda k: cyclic_bundle(2, 1))
    for kind in ("function", "convolution"):
        report = verify_lazy_model(constant, kind, k_max=2, seed=0)
        assert {r.check_id: r.detail for r in report.checks if r.status == FAIL} == \
            {"global-nonunital": "unit supports do not grow across windows"}


@pytest.fixture(scope="module")
def three_windows():
    """Windows 1..3 of pair:inf and the contexts of their function models."""
    lazy = preset("pair:inf")
    windows = [lazy.window(k) for k in (1, 2, 3)]
    return windows, {k: verify_groupoid_model(g, "function", with_pairing=False)[1]
                     for k, g in enumerate(windows, 1)}


def _witnesses_changed(ctx, change, counit=None):
    """A copy of ctx with change applied to its antipode matrix, E actions
    and G maps, and with counit in place of its counit when given."""
    from wmha.algebras import Multiplier
    from wmha.antipodes import AntipodeWitness
    from wmha.coproducts import ProjectionMaps

    w, out = ctx.antipode, copy.copy(ctx)
    out.antipode = AntipodeWitness(w.r1, w.r2, w.s, change(w.s_matrix), w.s_matrix_inv)
    out.e = Multiplier(ctx.e.parent, change(ctx.e.left), change(ctx.e.right))
    out.g = ProjectionMaps(change(ctx.g.g1), change(ctx.g.g2))
    out.counit = ctx.counit if counit is None else counit
    return out


def _leaving(m):
    """m with a 1 added in row 1 of column 0: column 0 is window 1's only
    morphism (or pair) embedded in window 2, and row 1 is outside it."""
    from wmha.linalg import Matrix
    from wmha.scalars import ONE

    return m + Matrix.from_entries(m.rows, m.cols, {(1, 0): ONE})


def _counit_bumped(ctx):
    """A copy of ctx whose counit has its first entry doubled."""
    return _witnesses_changed(ctx, lambda m: m, [ctx.counit[0] + ctx.counit[0], *ctx.counit[1:]])


def _window_1_doubled(windows, contexts):
    contexts[1] = _witnesses_changed(_counit_bumped(contexts[1]), lambda m: m + m)


def _window_2_leaving(windows, contexts):
    contexts[2] = _witnesses_changed(contexts[2], _leaving)


def _window_1_without_antipode(windows, contexts):
    contexts[1] = copy.copy(contexts[1])
    contexts[1].antipode = None
    contexts[3] = _counit_bumped(contexts[3])


def _window_1_outside(windows, contexts):
    windows[0] = type(windows[0])(["(0,0)", "(0,2)"], {}, {}, {}, {})
    contexts[3] = _counit_bumped(contexts[3])


# each doctoring of the windows (list) and their contexts (dict), in
# place, and every failure the whole walk yields: after the failures of
# one pair of windows the walk goes on to the next pair
WINDOW_FAILURES = {
    "window 1 doubled": (_window_1_doubled, [
        "counit of window 2 does not restrict to window 1",
        "antipode restriction mismatch between windows 1 and 2",
        "E-left restriction mismatch between windows 1 and 2",
        "E-right restriction mismatch between windows 1 and 2",
        "G1 restriction mismatch between windows 1 and 2",
        "G2 restriction mismatch between windows 1 and 2"]),
    "window 2 leaves window 1": (_window_2_leaving, [
        "antipode of window 2 leaves window 1",
        "E-left of window 2 leaves window 1",
        "E-right of window 2 leaves window 1",
        "G1 of window 2 leaves window 1",
        "G2 of window 2 leaves window 1",
        "antipode restriction mismatch between windows 2 and 3",
        "E-left restriction mismatch between windows 2 and 3",
        "E-right restriction mismatch between windows 2 and 3",
        "G1 restriction mismatch between windows 2 and 3",
        "G2 restriction mismatch between windows 2 and 3"]),
    "window 1 without an antipode": (_window_1_without_antipode, [
        "windows 1 and 2 lack comparable witnesses",
        "counit of window 3 does not restrict to window 2"]),
    "window 1 outside window 2": (_window_1_outside, [
        "window 1 morphism '(0,2)' missing from window 2",
        "counit of window 3 does not restrict to window 2"]),
}


@pytest.mark.parametrize("case", WINDOW_FAILURES)
def test_window_failures_walk_every_branch(three_windows, case):
    # the check reports only the walk's first failure, so the walk is read
    # whole here: every branch, and the pairs of windows after a failure
    from wmha.pipeline import _window_failures

    doctor, expected = WINDOW_FAILURES[case]
    windows, contexts = list(three_windows[0]), dict(three_windows[1])
    doctor(windows, contexts)
    assert list(_window_failures(windows, contexts)) == expected
    assert list(_window_failures(*three_windows)) == []

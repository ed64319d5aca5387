"""Acceptance suite: one test per exit criterion, each printing its own
pass/fail line.  Everything is exact; there are no tolerances anywhere.
"""

import json
import random
import time

import pytest

from conftest import (random_matrix, random_projection_pair,
                      solve_geninv_by_constraints)
from wmha.cli import main
from wmha.fileio import model_to_document
from wmha.groupoids import build_model, preset
from wmha.linalg import Matrix, column_space, generalized_inverse
from wmha.pipeline import verify_groupoid_model, verify_lazy_model
from wmha.report import PASS

FINITE_PRESETS = ["pair:2", "pair:3", "group:cyclic:2", "group:cyclic:3",
                  "group:cyclic:4", "bundle:cyclic:2:3"]
MODELS = ["function", "convolution"]


_CAPTURE = {}


@pytest.fixture(autouse=True)
def _uncapture(capfd):
    _CAPTURE["capfd"] = capfd
    yield
    _CAPTURE.pop("capfd", None)


def announce(num, ok, text):
    marker = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{marker}] {text}"
    capfd = _CAPTURE.get("capfd")
    if capfd is not None:
        with capfd.disabled():
            print(line, flush=True)
    else:
        print(line)
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def certified_runs():
    runs = {}
    for name in FINITE_PRESETS:
        g = preset(name)
        for kind in MODELS:
            t0 = time.time()
            report, ctx = verify_groupoid_model(g, kind, path="both")
            runs[(name, kind)] = (report, ctx, time.time() - t0)
    return runs


def test_criterion_01_oracle_reproduction(certified_runs):
    ok = True
    for (name, kind), (report, ctx, _) in certified_runs.items():
        ok = ok and report.verdict == PASS
        ok = ok and report.status_of("oracle-witnesses") == PASS
        model = build_model(preset(name), kind)
        ok = ok and ctx.e.left == model.oracle_e_left
        ok = ok and ctx.e.right == model.oracle_e_right
        ok = ok and ctx.g.g1 == model.oracle_g1 and ctx.g.g2 == model.oracle_g2
        ok = ok and ctx.counit == model.oracle_counit
        ok = ok and ctx.antipode.s_matrix == model.oracle_s
    # concrete rank counts from composability enumeration
    ok = ok and column_space(certified_runs[("pair:2", "function")][1].e.left).dim == 8
    ok = ok and column_space(certified_runs[("pair:3", "function")][1].e.left).dim == 27
    pair3_time = certified_runs[("pair:3", "function")][2] + \
        certified_runs[("pair:3", "convolution")][2]
    ok = ok and pair3_time < 30.0
    announce(1, ok, "oracle witnesses reproduced exactly on all finite presets; "
                    f"E-action ranks 8/16 and 27/81; pair:3 in {pair3_time:.1f}s")


def test_criterion_02_path_equivalence(certified_runs):
    ok = all(report.status_of("path-equivalence") == PASS
             and report.status_of("thm29-identities") == PASS
             for report, _, _ in certified_runs.values())
    announce(2, ok, "axiom path and antipode path agree on E and S for every example")


def test_criterion_03_antipode_identity_suite(certified_runs):
    wanted = ("antipode-counit-identities", "antipode-antimultiplicative",
              "antipode-spans", "antipode-anticoproduct", "antipode-remark-equalities",
              "source-target-defined", "source-target-legs", "source-target-coproduct",
              "source-target-commute", "source-target-inclusions")
    ok = all(report.status_of(cid) == PASS
             for report, _, _ in certified_runs.values() for cid in wanted)
    announce(3, ok, "antipode and source/target identity suites exact on every example")


def test_criterion_04_regularity_suite(certified_runs):
    wanted = ("regular", "regular-flip-ranges", "regular-ss-flip",
              "regular-f-factorization", "regular-f-formulas", "regular-f-relations",
              "regular-cop-idempotent", "regular-op-antipode")
    ok = True
    for report, ctx, _ in certified_runs.values():
        ok = ok and report.classification.get("regular") is True
        ok = ok and ctx.antipode.s_matrix_inv is not None
        for cid in wanted:
            ok = ok and report.status_of(cid) == PASS
    announce(4, ok, "bijective antipode and the full flip/F-idempotent suite exact")


def test_criterion_05_star_suite(certified_runs):
    ok = all(report.status_of("star-structure") == PASS
             and report.status_of("star-compatible") == PASS
             for report, _, _ in certified_runs.values())
    announce(5, ok, "canonical stars: E self-adjoint, S twisted-involutive, F1*=F3, F2*=F4")


def test_criterion_06_weak_hopf_equivalence(certified_runs, tmp_path):
    ok = True
    for (name, kind), (report, ctx, _) in certified_runs.items():
        cls = report.classification
        if cls["unital"] and cls["regular"]:
            ok = ok and report.status_of("weak-hopf-counit") == PASS
            ok = ok and report.status_of("weak-hopf-counit-op") == PASS
            ok = ok and cls["weak_hopf"] is True
    doc = model_to_document(build_model(preset("pair:2"), "convolution"),
                            with_witnesses=True)
    path = tmp_path / "weak_hopf.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["verify", str(path), "--path", "thm29",
                 "--report", str(report_path)])
    blob = json.loads(report_path.read_text())
    ids = {c["id"] for c in blob["checks"]}
    ok = ok and code == 0
    ok = ok and "weak-hopf-counit" not in ids and "weak-hopf-counit-op" not in ids
    ok = ok and blob["classification"]["unital"] is True
    ok = ok and blob["classification"]["weak_hopf"] is True
    announce(6, ok, "unital regular instances satisfy both weak-multiplicativity "
                    "identities; the unital presentation passes the antipode path "
                    "without them among its checked inputs")


def test_criterion_07_appendix_suite(certified_runs):
    wanted = ("appendix-inverse-unit", "appendix-source-target-swap",
              "appendix-e-absorption", "appendix-e-flip", "appendix-op-roundtrip")
    ok = all(report.status_of(cid) == PASS
             for report, _, _ in certified_runs.values() for cid in wanted)
    announce(7, ok, "flipped-E identity suite and opposite-presentation round trip exact")


def test_criterion_08_generalized_inverse_unit_suite():
    rng = random.Random(987123)
    trials = 0
    ok = True
    while trials < 200:
        dim = rng.randint(2, 6)
        t = random_matrix(rng, dim, dim)
        e, f = random_projection_pair(rng, t)
        r = generalized_inverse(t, e, f)
        ident = Matrix.identity(dim)
        ok = ok and t * r == e and r * t == f
        ok = ok and t * r * t == t and r * t * r == r
        ok = ok and (r * (ident - e)).is_zero()
        ok = ok and solve_geninv_by_constraints(t, e, f) == r
        trials += 1
        if not ok:
            break
    announce(8, ok, f"{trials} random (t, e, f) triples in dims 2..6: all four "
                    "identities exact, uniqueness confirmed by the dual path")


def test_criterion_09_mutation_sensitivity(tmp_path):
    rng = random.Random(424242)
    failures_named = 0
    total = 0
    for kind in MODELS:
        doc_base = model_to_document(build_model(preset("pair:2"), kind),
                                     with_witnesses=True)
        base_blob = json.dumps(doc_base, sort_keys=True)
        for slot in ("structure", "T1", "E", "S"):
            for _ in range(3 if slot in ("structure", "T1") else 2):
                doc = json.loads(base_blob)
                if slot == "structure":
                    entries = doc["algebra"]["structure"]
                    ent = entries[rng.randrange(len(entries))]
                    ent[3] = str(int(ent[3]) + rng.randint(1, 2))
                elif slot == "T1":
                    entries = doc["coproduct"]["T1"]
                    ent = entries[rng.randrange(len(entries))]
                    ent[2] = str(int(ent[2]) + 1)
                elif slot == "E":
                    entries = doc["E"]["left"]
                    ent = entries[rng.randrange(len(entries))]
                    ent[2] = str(int(ent[2]) + 3)
                else:
                    rowcol = rng.randrange(4)
                    cell = doc["antipode"][rowcol][rowcol]
                    cell["re"] = str(int(cell["re"]) + 1)
                total += 1
                path = tmp_path / f"mut_{kind}_{slot}_{total}.json"
                path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
                report_path = tmp_path / f"mut_{total}.report.json"
                code = main(["verify", str(path), "--path", "both",
                             "--report", str(report_path)])
                blob = json.loads(report_path.read_text())
                named = [c["id"] for c in blob["checks"] if c["status"] == "fail"]
                if code == 1 and named:
                    failures_named += 1
    ok = total == 20 and failures_named == 20
    announce(9, ok, f"all {total} single-entry mutations detected with a named "
                    "failing check and exit code 1")


def test_criterion_10_infinite_model_suite():
    ok = True
    for name, kind in (("pair:inf", "function"), ("bundle:cyclic:2:inf", "convolution")):
        report = verify_lazy_model(preset(name), kind, k_max=4, seed=5)
        ok = ok and report.verdict == PASS
        for cid in ("window-consistency", "global-nonunital", "sampled-local-units"):
            ok = ok and report.status_of(cid) == PASS
    announce(10, ok, "windows 1..4 of both lazy presets pass; witnesses restrict "
                     "consistently; non-unitality certified; local units exhibited")


def test_criterion_11_determinism(tmp_path):
    blobs = []
    for i in range(2):
        report_path = tmp_path / f"det_{i}.json"
        code = main(["verify", "--preset", "pair:inf", "--model", "function",
                     "--windows", "2", "--seed", "123",
                     "--report", str(report_path)])
        assert code == 0
        blobs.append(report_path.read_bytes())
    ok = blobs[0] == blobs[1]
    for i in range(2):
        report_path = tmp_path / f"det_f_{i}.json"
        assert main(["verify", "--preset", "pair:2", "--model", "convolution",
                     "--path", "both", "--report", str(report_path)]) == 0
        blobs.append(report_path.read_bytes())
    ok = ok and blobs[2] == blobs[3]
    announce(11, ok, "repeated runs with a fixed seed produce byte-identical reports")

import json

import pytest

from wmha import antipodes
from wmha.cli import main
from wmha.fileio import model_to_document
from wmha.groupoids import (PRESET_FORMS, build_model, convolution_algebra,
                            function_algebra, preset)


def write_doc(tmp_path, doc, name="input.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(p)


def test_verify_preset_exit_zero(capsys):
    assert main(["verify", "--preset", "pair:2", "--model", "function",
                 "--path", "both"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_verify_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--preset", "group:cyclic:2", "--model", "convolution",
                 "--report", str(report_path)])
    assert code == 0
    blob = json.loads(report_path.read_text())
    assert blob["verdict"] == "pass"
    assert blob["tool_version"].startswith("wmha")
    anchors = {c["id"]: c["anchor"] for c in blob["checks"]}
    assert anchors["kernels-match"] == "def-1.14-iii"


def test_verify_file_round_trip_report_identical(tmp_path):
    # serializing a preset and verifying the file gives the identical
    # report apart from the input digest
    m = function_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=False)
    path = write_doc(tmp_path, doc)
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", path, "--report", str(r1)]) == 0
    assert main(["verify", path, "--report", str(r2)]) == 0
    assert r1.read_text() == r2.read_text()
    preset_report = tmp_path / "c.json"
    assert main(["verify", "--preset", "pair:2", "--model", "function",
                 "--report", str(preset_report)]) == 0
    a = json.loads(r1.read_text())
    b = json.loads(preset_report.read_text())
    a.pop("input_digest"), b.pop("input_digest")
    # the file run has no groupoid oracle, so oracle-level checks differ;
    # everything both runs share must agree
    ids_a = {c["id"]: c for c in a.pop("checks")}
    ids_b = {c["id"]: c for c in b.pop("checks")}
    for cid in set(ids_a) & set(ids_b):
        assert ids_a[cid]["status"] == ids_b[cid]["status"], cid
    assert a["witnesses"] == b["witnesses"]
    a["classification"].pop("star")   # the file carried no star section
    b["classification"].pop("star")
    assert a["classification"] == b["classification"]


def test_exit_one_on_mutated_input(tmp_path, capsys):
    m = convolution_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=False)
    doc["coproduct"]["T2"][0][2] = "9"
    code = main(["verify", write_doc(tmp_path, doc)])
    assert code == 1
    out = capsys.readouterr().out
    assert "first failing check" in out


def test_exit_two_on_garbage(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(p)]) == 2
    assert main(["verify", write_doc(tmp_path, {"algebra": {"dim": 2}})]) == 2
    assert main(["verify", "--preset", "nope:1", "--model", "function"]) == 2
    assert main(["verify"]) == 2


@pytest.mark.parametrize("name, member", [("union:", "number 1 of 1"),
                                          ("union:pair:1+", "number 2 of 2")])
def test_empty_preset_member_is_named(name, member, capsys):
    # both once printed "input error: " with nothing after it
    assert main(["verify", "--preset", name, "--model", "function"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: preset {name!r} has an empty union member, {member}; "
                            f"the presets are {PRESET_FORMS}\n")
    assert "pair:N" in PRESET_FORMS


@pytest.mark.parametrize("blob", [
    b"\xff\xfe{}",                          # not UTF-8
    b"[" * 200_000,                          # deeper than the recursion limit
    b'{"model": ' + b"1" * 5000 + b"}",      # past int's digit limit
], ids=["not-utf8", "too-deep", "long-integer"])
def test_undecodable_documents_exit_two(blob, tmp_path, capsys):
    # each once escaped json.load as an engine fault: exit 3 and a traceback
    p = tmp_path / "bad.json"
    p.write_bytes(blob)
    assert main(["verify", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot read {p}: ")
    assert captured.err.count("\n") == 1


def test_shape_error_on_bad_dimensions(tmp_path):
    m = convolution_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=False)
    doc["coproduct"]["T1"][0][0] = 99
    assert main(["verify", write_doc(tmp_path, doc)]) == 2


def test_repeated_entries_exit_two(tmp_path, capsys):
    # a T1 entry listed again as 0 once read as a failing T1 (exit 1), a
    # repeated structure entry as its first nonzero value
    m = convolution_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=False)
    r, c, _, _ = doc["coproduct"]["T1"][0]
    doc["coproduct"]["T1"].append([r, c, "0", "0"])
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"input error: T1: entry ({r},{c}) is listed twice\n"
    doc = model_to_document(m, with_witnesses=False)
    i, j, k, _, _ = doc["algebra"]["structure"][0]
    doc["algebra"]["structure"].append([i, j, k, "2", "0"])
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        f"input error: structure: index ({i},{j},{k}) is listed twice\n"


def test_repeated_groupoid_entries_exit_two(tmp_path, capsys):
    # a repeated morphism once passed the groupoid axioms and failed
    # coproduct-full (exit 1); a compose pair listed again with another
    # result once kept the later entry and passed (exit 0)
    trivial = {"morphisms": ["e"], "source": {"e": "e"}, "target": {"e": "e"},
               "compose": [["e", "e", "e"]], "inverse": {"e": "e"}}
    doc = {"groupoid": {**trivial, "morphisms": ["e", "e"]}, "model": "function"}
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "input error: groupoid: morphism 'e' is listed twice\n"
    cyclic = {"morphisms": ["e", "g"], "source": {"e": "e", "g": "e"},
              "target": {"e": "e", "g": "e"}, "inverse": {"e": "e", "g": "g"},
              "compose": [["e", "e", "g"], ["e", "e", "e"], ["e", "g", "g"],
                          ["g", "e", "g"], ["g", "g", "e"]]}
    doc = {"groupoid": cyclic, "model": "function"}
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        "input error: groupoid: compose pair ('e', 'e') is listed twice\n"


def test_repeated_json_keys_exit_two(tmp_path, capsys):
    # json.load keeps the last of repeated keys, so both documents once
    # verified with exit 0: the inverse of g read as g, the model as the
    # second one
    cyclic = {"morphisms": ["e", "g"], "source": {"e": "e", "g": "e"},
              "target": {"e": "e", "g": "e"}, "inverse": {"e": "e", "g": "g"},
              "compose": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"],
                          ["g", "g", "e"]]}
    text = json.dumps({"groupoid": cyclic, "model": "function"})
    for doc, key in ((text.replace('"inverse": {', '"inverse": {"g": "e", '), "g"),
                     (text.replace('"model": "function"', '"model": "convolution", "model": "function"'),
                      "model")):
        p = tmp_path / "repeated.json"
        p.write_text(doc, encoding="utf-8")
        assert main(["verify", str(p)]) == 2
        assert capsys.readouterr().err == f"input error: {key!r} is a repeated key of a JSON object\n"
    p.write_text(text, encoding="utf-8")
    assert main(["verify", str(p)]) == 0


@pytest.mark.parametrize("kind", ["function", "convolution"])
def test_star_on_a_non_bijective_antipode_without_flip_maps_exits_one(tmp_path, monkeypatch, kind):
    # with S forced non-invertible and no T3/T4 supplied, the star check
    # once re-derived T3/T4 from S, got none and crashed (exit 3)
    doc = model_to_document(build_model(preset("pair:2"), kind))
    del doc["coproduct"]["T3"], doc["coproduct"]["T4"]
    monkeypatch.setattr(antipodes, "invert", lambda m, store: None)
    report = tmp_path / "report.json"
    assert main(["verify", write_doc(tmp_path, doc), "--path", "both",
                 "--report", str(report)]) == 1
    failures = {c["id"]: c["detail"] for c in json.loads(report.read_text())["checks"]
                if c["status"] == "fail"}
    assert failures == {"star-compatible": "star input with an antipode that is not bijective"}


def test_bad_rational_literals_exit_two(tmp_path):
    m = convolution_algebra(preset("pair:2"))
    for bad in ("1/0", "a/b", ""):
        doc = model_to_document(m, with_witnesses=False)
        doc["algebra"]["structure"][0][3] = bad
        assert main(["verify", write_doc(tmp_path, doc)]) == 2
    # JSON booleans are not scalars, wherever a scalar is read
    doc = model_to_document(function_algebra(preset("pair:1")), with_witnesses=True)
    for key, value in (("counit", [True]), ("antipode", [[True]]),
                       ("star", {"matrix": [[True]]})):
        assert main(["verify", write_doc(tmp_path, {**doc, key: value})]) == 2


def test_float_scalar_parts_exit_two(tmp_path, capsys):
    # the float would round to 1 and verify as pair:1, exit 0
    doc = model_to_document(function_algebra(preset("pair:1")), with_witnesses=False)
    doc["algebra"]["structure"][0][3] = "@"
    p = tmp_path / "float.json"
    p.write_text(json.dumps(doc).replace('"@"', "1.00000000000000000001"), encoding="utf-8")
    assert main(["verify", str(p)]) == 2
    assert capsys.readouterr().err.startswith("input error: bad scalar at structure")


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("windows", ["0", "-3"])
def test_lazy_windows_below_one_exit_two(command, windows, capsys):
    # no window would be verified, so a pass would certify nothing
    assert main([command, "--preset", "pair:inf", "--model", "function",
                 "--windows", windows]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --windows must be at least 1, got {windows}\n"


# each is refused before its groupoid is validated or its model built;
# pair:1000000 alone would otherwise build 10^18 composites
@pytest.mark.parametrize("argv, what, morphisms", [
    (["--preset", "pair:7"], "pair:7", 49),
    (["--preset", "pair:1000000"], "pair:1000000", 10 ** 12),
    (["--preset", "group:cyclic:33"], "group:cyclic:33", 33),
    (["--preset", "bundle:cyclic:3:11"], "bundle:cyclic:3:11", 33),
    (["--preset", "union:pair:4+pair:5"], "union:pair:4+pair:5", 41),
    (["--preset", "bundle:cyclic:100000:inf"], "bundle:cyclic:100000:inf window 1", 100000),
    (["--preset", "pair:inf", "--windows", "6"], "pair:inf window 6", 36),
    (["--preset", "pair:inf", "--windows", "1000000"], "pair:inf window 6", 36),
    (["--preset", "bundle:cyclic:2:inf", "--windows", "17"], "bundle:cyclic:2:inf window 17", 34),
])
@pytest.mark.parametrize("command", ["verify", "classify"])
def test_oversize_groupoids_exit_two(command, argv, what, morphisms, capsys):
    assert main([command, *argv, "--model", "convolution"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: {what} has {morphisms} morphisms, "
                            "above the supported maximum 32\n")


def test_oversize_groupoid_document_exits_two(tmp_path, capsys):
    # 33 units: a valid groupoid, one morphism above the maximum
    units = [f"u{i}" for i in range(33)]
    doc = {"groupoid": {"morphisms": units, "source": {u: u for u in units},
                        "target": {u: u for u in units},
                        "compose": [[u, u, u] for u in units],
                        "inverse": {u: u for u in units}},
           "model": "function"}
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == ("input error: groupoid has 33 morphisms, "
                                       "above the supported maximum 32\n")


@pytest.mark.parametrize("name", ["pair:inf", "bundle:cyclic:1:inf"])
def test_witnesses_refuses_lazy_input(name, capsys):
    # a lazy run certifies windows and has no one witness set to print
    assert main(["witnesses", "--preset", name, "--model", "function",
                 "--windows", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: witnesses needs a finite input")
    assert "wmha verify --windows K" in captured.err


def test_witnesses_output(capsys):
    assert main(["witnesses", "--preset", "pair:2", "--model", "function"]) == 0
    blob = json.loads(capsys.readouterr().out)
    # S is the permutation (i,j) -> (j,i)
    assert set(blob) >= {"E", "G1", "G2", "R1", "R2", "S", "F1", "F2", "F3", "F4"}
    s_entries = {(r, c) for r, c, re, im in blob["S"]}
    assert s_entries == {(0, 0), (2, 1), (1, 2), (3, 3)}
    assert blob["eps_s_image"] and len(blob["eps_s_image"]) == 2


def test_witnesses_refuses_failing_input(tmp_path, capsys):
    m = convolution_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=False)
    doc["coproduct"]["T1"][0][2] = "4"
    assert main(["witnesses", write_doc(tmp_path, doc)]) == 1


def test_reports_identical_across_processes(tmp_path):
    # different interpreter hash seeds must not leak into the report, and
    # the engine's invariants must not depend on asserts (python -O)
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wmha

    # the child must import the same wmha the parent tests, installed or not
    package_root = str(Path(wmha.__file__).resolve().parent.parent)
    python_path = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    for k, args in enumerate((
            ["--preset", "bundle:cyclic:2:inf", "--model", "convolution",
             "--windows", "2", "--seed", "77"],
            # a non-commutative table: the opposite-presentation round trip
            # is transported along S
            ["--preset", "pair:2", "--model", "convolution", "--path", "both"])):
        outs = []
        for seed, flags in (("1", []), ("2", []), ("1", ["-O"])):
            report_path = tmp_path / f"proc_{k}_{seed}{''.join(flags)}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=python_path)
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "wmha.cli", "verify", *args,
                 "--report", str(report_path)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(report_path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[2] == outs[0]


def test_classify_lines(capsys):
    assert main(["classify", "--preset", "pair:3", "--model", "convolution"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "wmha ✓, regular ✓, star ✓, weak_hopf ✓, hopf ✗"
    assert main(["classify", "--preset", "group:cyclic:3", "--model", "convolution"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("hopf ✓")


def test_classify_zero_algebra_is_not_hopf(tmp_path, capsys):
    # 1 = 0 in the zero algebra, so eps(1) = 1 fails although E = 1 (x) 1
    doc = {"algebra": {"dim": 0, "structure": []}, "coproduct": {"T1": [], "T2": []}}
    assert main(["classify", write_doc(tmp_path, doc)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "wmha ✓, regular ✓, star -, weak_hopf ✓, hopf ✗"


def test_classify_lazy(capsys):
    assert main(["classify", "--preset", "pair:inf", "--model", "function",
                 "--windows", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert "per window" in out and "non-unital" in out


def test_explicit_groupoid_json_input(tmp_path):
    # the pair groupoid on two objects: (i,j) runs from object j to object i
    groupoid = {
        "morphisms": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
        "source": {"(0,0)": "(0,0)", "(0,1)": "(1,1)", "(1,0)": "(0,0)", "(1,1)": "(1,1)"},
        "target": {"(0,0)": "(0,0)", "(0,1)": "(0,0)", "(1,0)": "(1,1)", "(1,1)": "(1,1)"},
        "compose": [["(0,0)", "(0,0)", "(0,0)"], ["(0,0)", "(0,1)", "(0,1)"],
                    ["(0,1)", "(1,0)", "(0,0)"], ["(0,1)", "(1,1)", "(0,1)"],
                    ["(1,0)", "(0,0)", "(1,0)"], ["(1,0)", "(0,1)", "(1,1)"],
                    ["(1,1)", "(1,0)", "(1,0)"], ["(1,1)", "(1,1)", "(1,1)"]],
        "inverse": {"(0,0)": "(0,0)", "(0,1)": "(1,0)", "(1,0)": "(0,1)", "(1,1)": "(1,1)"},
    }
    doc = {"groupoid": groupoid, "model": "convolution"}
    path = write_doc(tmp_path, doc)
    report_path = tmp_path / "g.json"
    assert main(["verify", path, "--path", "both", "--report", str(report_path)]) == 0
    blob = json.loads(report_path.read_text())
    statuses = {c["id"]: c["status"] for c in blob["checks"]}
    assert statuses["groupoid-axioms"] == "pass"
    assert statuses["oracle-witnesses"] == "pass"
    assert statuses["duality-pairing"] == "pass"
    # a broken inverse in the file is caught by the groupoid axioms
    doc["groupoid"]["inverse"]["(0,1)"] = "(0,1)"
    assert main(["verify", write_doc(tmp_path, doc, "bad_g.json")]) == 1


def test_weak_hopf_presentation_via_antipode_path(tmp_path, capsys):
    # a standard unital presentation (unit, coproduct, counit, antipode,
    # idempotent) passes through the antipode path
    m = convolution_algebra(preset("pair:2"))
    doc = model_to_document(m, with_witnesses=True)
    path = write_doc(tmp_path, doc)
    report_path = tmp_path / "r.json"
    assert main(["verify", path, "--path", "thm29", "--report", str(report_path)]) == 0
    blob = json.loads(report_path.read_text())
    assert blob["classification"]["unital"] is True
    ids = {c["id"] for c in blob["checks"]}
    assert "thm29-identities" in ids and "projections-solve" not in ids


# one callee per site that turns a declared mathematical exception into a
# failed check; an engine fault raised there must not read as a verdict
ENGINE_FAULT_SITES = [
    ("wmha.coproducts", "compute_E_from_flips"),     # idempotent-from-flips
    ("wmha.antipodes", "generalized_inverse"),       # generalized-inverses
    ("wmha.antipodes", "verify_via_antipode"),       # antipode path
    # e-coassociativity; thm29-e-conditions calls it too, later in the run
    ("wmha.coproducts", "check_E_conditions"),
    ("wmha.antipodes", "compute_E"),                 # regular-cop-idempotent
]


@pytest.mark.parametrize("module, name", ENGINE_FAULT_SITES,
                         ids=[name for _, name in ENGINE_FAULT_SITES])
def test_engine_fault_exits_three_without_verdict(module, name, monkeypatch,
                                                  tmp_path, capsys):
    import importlib

    from wmha.linalg import InvariantViolation

    calls = []

    def broken(*args, **kwargs):
        calls.append(name)
        raise InvariantViolation(f"injected fault in {name}")

    monkeypatch.setattr(importlib.import_module(module), name, broken)
    report_path = tmp_path / "report.json"
    code = main(["verify", "--preset", "pair:2", "--model", "convolution",
                 "--path", "both", "--report", str(report_path)])
    captured = capsys.readouterr()
    assert calls, f"{name} was not reached"
    assert code == 3
    assert not report_path.exists()
    assert "fail" not in captured.out and "verdict" not in captured.out
    assert f"internal error: InvariantViolation: injected fault in {name}" in captured.err
    assert "Traceback" in captured.err


def test_input_file_with_preset_exits_two(tmp_path, capsys):
    # the document fails at coproduct-full; the preset it came with passes
    doc = model_to_document(function_algebra(preset("pair:2")), with_witnesses=False)
    doc["coproduct"] = {"T1": [], "T2": []}
    path = write_doc(tmp_path, doc)
    assert main(["verify", path]) == 1
    assert "verdict: fail (first failing check: coproduct-full)" in capsys.readouterr().out
    for command in ("verify", "witnesses", "classify"):
        assert main([command, path, "--preset", "pair:1", "--model", "function"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: give an input file or --preset NAME "
                                "--model M, not both\n")


@pytest.mark.parametrize("path", ["thm29", "both"])
@pytest.mark.parametrize("command", ["verify", "classify"])
def test_lazy_input_off_the_def114_path_exits_two(command, path, capsys):
    # each window runs def114 only: no thm29-* check would be reported
    assert main([command, "--preset", "pair:inf", "--model", "function",
                 "--windows", "1", "--path", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: --path {path} needs a finite input; the windows "
                            "of an infinite groupoid are verified on the def114 path\n")


def test_exponent_and_decimal_literals_exit_two(tmp_path, capsys):
    # "1e999999" is a million-digit integer: parsed, it ran past a minute
    import time

    doc = model_to_document(convolution_algebra(preset("group:cyclic:1")), with_witnesses=False)
    for bad in ("1e999999", "1E3", "1e3", "0.5", "1.5", "1_000", "1/-2", "1/0", "½"):
        doc["algebra"]["structure"][0][3] = bad
        start = time.perf_counter()
        assert main(["verify", write_doc(tmp_path, doc)]) == 2, bad
        assert time.perf_counter() - start < 1, bad
        assert capsys.readouterr().err.startswith("input error: bad scalar at structure")
    # the forms str(Fraction) writes stay valid
    for good in ("-1/2", "3"):
        doc["algebra"]["structure"][0][3] = good
        assert main(["verify", write_doc(tmp_path, doc)]) != 2, good


# the options each command reads, per input kind; witnesses takes no lazy
# input at all
READ = {
    ("verify", "structure"): {"path", "report"},
    ("verify", "finite"): {"model", "path", "report"},
    ("verify", "lazy"): {"model", "path", "report", "seed", "windows"},
    ("witnesses", "structure"): {"path"},
    ("witnesses", "finite"): {"model", "path"},
    ("witnesses", "lazy"): set(),
    ("classify", "structure"): set(),
    ("classify", "finite"): {"model"},
    ("classify", "lazy"): {"model", "seed", "windows"},
}
KIND_TEXT = {"structure": "a structure document", "finite": "a finite groupoid",
             "lazy": "an infinite groupoid"}
OPTION_VALUES = {"model": "convolution", "path": "def114", "report": None,
                 "seed": "5", "windows": "1"}


def _policy_input(tmp_path, kind):
    if kind == "structure":
        doc = model_to_document(function_algebra(preset("pair:1")), with_witnesses=False)
    else:
        name = "pair:1" if kind == "finite" else "bundle:cyclic:1:inf"
        doc = {"groupoid": {"preset": name}, "model": "function"}
    return write_doc(tmp_path, doc)


def _policy_argv(tmp_path, command, kind, option):
    value = OPTION_VALUES[option] or str(tmp_path / "report.json")
    return [command, _policy_input(tmp_path, kind), f"--{option}", value]


@pytest.mark.parametrize("command, kind, option", [
    (command, kind, option) for (command, kind), reads in READ.items()
    for option in OPTION_VALUES if option not in reads])
def test_option_not_read_exits_two(command, kind, option, tmp_path, capsys):
    # at the parent, --model on a structure document, --windows/--seed on
    # a finite input, a given --path with classify and --report with
    # witnesses or classify were ignored (exit 0, no report written)
    assert main(_policy_argv(tmp_path, command, kind, option)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not (tmp_path / "report.json").exists()
    if command == "witnesses" and kind == "lazy":
        assert captured.err.startswith("input error: witnesses needs a finite input")
    else:
        assert captured.err == (f"input error: wmha {command} does not read --{option} "
                                f"on {KIND_TEXT[kind]}\n")


@pytest.mark.parametrize("command, kind, option", [
    (command, kind, option) for (command, kind), reads in READ.items()
    for option in sorted(reads)])
def test_option_read_is_accepted(command, kind, option, tmp_path, capsys):
    assert main(_policy_argv(tmp_path, command, kind, option)) == 0
    assert (tmp_path / "report.json").exists() == (option == "report")


def test_every_option_is_in_the_policy_table():
    # an option added to the reader but not to READS would be refused
    # everywhere; one left out of this guard could be read nowhere
    from wmha.cli import OPTIONS, READS, _read_argv

    assert {(command, kind): set(reads) for command, rows in READS.items()
            for kind, reads in rows.items()} == \
        {key: reads for key, reads in READ.items() if key != ("witnesses", "lazy")}
    assert set(OPTIONS) == set(OPTION_VALUES) | {"preset"}
    for command in ("verify", "witnesses", "classify"):
        args = _read_argv([command])
        assert args.command == command
        # an absent option reads None, so a given one can be told apart
        assert all(getattr(args, name) is None for name in OPTIONS)


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["verify", "--preset", "pair:1", "--model", "function", "--bogus", "1"],
    ["verify", "--pre", "pair:1", "--model", "function", "--rep", "report.json"],
    ["verify", "--preset", "pair:1", "--mod", "function"],
    ["verify", "--preset", "pair:1", "--model"],
    ["verify", "--preset", "pair:1", "--model", "bogus"],
    ["verify", "--preset", "pair:1", "--model", "function", "--path", "bogus"],
    ["verify", "--preset", "pair:inf", "--model", "function", "--windows", "x"],
    ["verify", "--preset", "pair:inf", "--model", "function", "--seed", "1.5"],
    ["verify", "a.json", "b.json", "--report", "report.json"],
    # argparse kept the last --preset: group:cyclic:2 verified, exit 0
    ["verify", "--preset", "pair:1", "--preset", "group:cyclic:2", "--model", "function",
     "--report", "report.json"],
    ["verify", "--preset=pair:1", "--model", "function", "--model=convolution"],
    ["verify", "--preset", "pair:1", "--model", "function", "--report="],
    ["verify", "--preset", "pair:1", "--model", "function", "-r", "x"],
    # a report in a missing directory was an engine fault: exit 3, a traceback
    ["verify", "--preset", "pair:1", "--model", "function", "--report", "no/report.json"],
], ids=["no-command", "unknown-command", "unknown-option", "prefix-preset",
        "prefix-model", "model-no-value", "model-bogus", "path-bogus", "windows-x",
        "seed-1.5", "two-inputs", "repeated-preset", "repeated-model", "empty-value",
        "short-option", "report-unwritable"])
def test_malformed_argv_exits_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)      # where a report.json would be written
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", ["verify", "witnesses", "classify"])
def test_help_prints_the_usage(command, flag, capsys):
    assert main([command, flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for usage in ("wmha verify ", "wmha witnesses ", "wmha classify ", "Exit codes"):
        assert usage in captured.out


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["wmha", "classify", "--preset", "pair:1",
                                     "--model=function"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("wmha ✓")

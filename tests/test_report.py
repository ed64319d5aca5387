"""The certificate writer.

`report.json_text` and `VerificationReport.to_json` write the bytes of
json.dumps(value, indent=2, sort_keys=True), ASCII-escaped, and a
newline, for the types a report holds, and refuse any other type with
TypeError, which the CLI reports as an internal error, never as a
verdict.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

import wmha.cli
from wmha.cli import main
from wmha.fileio import witnesses_to_json
from wmha.groupoids import preset
from wmha.pipeline import verify_groupoid_model, verify_lazy_model
from wmha.report import (REGISTRY_ANCHORS, REPORT_SCHEMA, TOOL_VERSION, VerificationReport,
                         failed, json_text, passed, skipped)


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _reference(report):
    """The certificate of schema 1 as json.dumps writes it."""
    out = {"schema": REPORT_SCHEMA, "tool_version": TOOL_VERSION,
           "input_digest": report.input_digest,
           "checks": [{"id": c.check_id, "anchor": REGISTRY_ANCHORS[c.check_id],
                       "status": c.status, "detail": c.detail, "witness_refs": []}
                      for c in report.sorted_checks()],
           "witnesses": report.witnesses, "classification": report.classification,
           "verdict": report.verdict}
    if report.seed is not None:
        out["seed"] = report.seed
    return _dumps(out) + "\n"


# text with quotes, backslashes, control characters, non-ASCII and
# astral characters, and any text at all
TEXT = st.text(st.sampled_from('a"\\/\n\t\r\b\f\x00\x1f\x7f\x80é€\u2028\U0001f600')) | st.text()
LEAVES = st.none() | st.booleans() | st.integers() | TEXT
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner) | st.dictionaries(TEXT, inner),
                      max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(VALUES)
@example({})
@example([])
@example([[], {}, [[]], {"": {}}])
@example([True, 1, False, 0, None, "1"])
@example({"b": [1, "x", [2, "y"]], "a": [[0, 1, "1/2", "0"], [1, 0, "-3", "2"]], "": None})
def test_json_text_is_json_dumps(value):
    assert json_text(value) == _dumps(value) + "\n"


def test_a_report_without_checks():
    report = VerificationReport()
    assert report.to_json() == _reference(report)
    report.input_digest = "é\n\"digest\""
    report.classification = {"wmha": True, "star": None, "reasons": {"regular": "S(e0) = 0"}}
    assert report.to_json() == _reference(report)


def test_a_report_with_escaped_details():
    report = VerificationReport(seed=0, checks=[
        failed("coproduct-full", "legs span 3/4 \u2260 \"all\"\n"), passed("counit-exists"),
        skipped("idempotent-exists", "counit-exists"), passed("algebra-associative", "\\ok\t")])
    report.witnesses = {"counit": [{"re": "1/2", "im": "0"}], "E": {"left": [], "right": [[0, 0, "1", "0"]]}}
    assert report.to_json() == _reference(report)


def test_a_lazy_report_carries_its_seed():
    report = verify_lazy_model(preset("pair:inf"), "convolution", k_max=2, seed=3)
    report.input_digest = "lazy"
    assert report.seed == 3 and '"seed": 3' in report.to_json()
    assert report.to_json() == _reference(report)


def test_witnesses_prints_the_bytes_of_json_dumps(capsys):
    assert main(["witnesses", "--preset", "pair:2", "--model", "convolution"]) == 0
    _, ctx = verify_groupoid_model(preset("pair:2"), "convolution")
    assert capsys.readouterr().out == _dumps(witnesses_to_json(ctx)) + "\n"


@pytest.mark.parametrize("value", [0.5, [1, 2.0], {"a": {"b": [1.5]}}, {1: "a"}, (1, 2)])
def test_any_other_type_is_refused(value):
    with pytest.raises(TypeError):
        json_text(value)
    report = VerificationReport()
    report.witnesses = {"w": value}
    with pytest.raises(TypeError):
        report.to_json()


@pytest.mark.parametrize("command", ["verify", "witnesses"])
def test_a_float_in_the_witnesses_is_an_internal_error(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(wmha.cli, "witnesses_to_json", lambda ctx: {"counit": [0.5]})
    report_path = tmp_path / "report.json"
    argv = [command, "--preset", "pair:2", "--model", "convolution"]
    code = main(argv + (["--report", str(report_path)] if command == "verify" else []))
    captured = capsys.readouterr()
    assert code == 3
    assert not report_path.exists()
    assert "fail" not in captured.out and "verdict" not in captured.out
    assert "internal error: TypeError" in captured.err

"""Malformed input documents exit 2 with a one-line message, never 3 with
a traceback: named cases, and a fuzzer that mutates valid documents."""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from wmha.cli import main
from wmha.fileio import (ShapeError, algebra_from_json, model_to_document,
                         sparse_matrix_from_json)
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.scalars import ONE, ZERO


def run_cli(doc, *args):
    """main(["verify", FILE, *args]) in-process on doc written as JSON;
    returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path, *args])
    return code, out.getvalue(), err.getvalue()


def small_structure():
    return model_to_document(convolution_algebra(preset("pair:1")), with_witnesses=False)


def _with(path, value):
    doc = small_structure()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _unlabelled(dim):
    # without basis_labels nothing else refuses a bad dim
    doc = _with(("algebra", "dim"), dim)
    del doc["algebra"]["basis_labels"]
    return doc


# the one-morphism groupoid pair:1 as an explicit document
PAIR1 = {"morphisms": ["(0,0)"], "source": {"(0,0)": "(0,0)"}, "target": {"(0,0)": "(0,0)"},
         "compose": [["(0,0)", "(0,0)", "(0,0)"]], "inverse": {"(0,0)": "(0,0)"}}


MALFORMED = {
    "dim-overflow": '{"algebra": {"dim": 1e400}}',
    "dim-float": _unlabelled(2.5),
    "dim-bool": _unlabelled(True),
    "dim-negative": _unlabelled(-1),
    "dim-over-maximum": _unlabelled(33),
    "structure-int": _with(("algebra", "structure"), 5),
    "structure-entry-int": _with(("algebra", "structure"), [5]),
    "structure-index-float": _with(("algebra", "structure"), [[0, 0.0, 0, "1", "0"]]),
    "structure-index-range": _with(("algebra", "structure"), [[0, 0, 7, "1", "0"]]),
    "structure-entry-repeated": _with(("algebra", "structure"),
                                      [[0, 0, 0, "1", "0"], [0, 0, 0, "0", "0"]]),
    "labels-int": _with(("algebra", "basis_labels"), 3),
    "t2-int": _with(("coproduct", "T2"), 5),
    "matrix-index-float": _with(("coproduct", "T1"), [[0.5, 0, "1", "0"]]),
    "matrix-entry-dict": _with(("coproduct", "T1"), [{"r": 0, "c": 0, "re": "1", "im": "0"}]),
    "matrix-entry-repeated": _with(("coproduct", "T1"), [[0, 0, "1", "0"], [0, 0, "0", "0"]]),
    "counit-int": _with(("counit",), 1),
    # a float part would be read through its shortest repr, not exactly
    "t1-float": _with(("coproduct", "T1"), [[0, 0, 0.5, "0"]]),
    "structure-float": _with(("algebra", "structure"), [[0, 0, 0, 1.0, "0"]]),
    "counit-float-part": _with(("counit",), [{"re": 0.5}]),
    "star-string": _with(("star",), "J"),
    "groupoid-source-list": {"groupoid": dict(PAIR1, source=[]),
                             "model": "function"},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_exits_two(name):
    code, out, err = run_cli(MALFORMED[name])
    assert code == 2, err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert out == ""


def test_repeated_entries_are_refused_by_index():
    # read last-wins (a matrix) or first-nonzero-wins (the structure), a
    # repeated entry would turn into a mathematical verdict
    with pytest.raises(ShapeError, match=r"^T1: entry \(0,1\) is listed twice$"):
        sparse_matrix_from_json([[0, 1, "1", "0"], [0, 1, "0", "0"]], 2, 2, "T1")
    with pytest.raises(ShapeError, match=r"^structure: index \(1,0,1\) is listed twice$"):
        algebra_from_json({"dim": 2, "structure": [[1, 0, 1, "0", "0"], [1, 0, 1, "2", "0"]]})
    m = sparse_matrix_from_json([[0, 1, "1", "0"], [1, 1, "0", "0"]], 2, 2, "T1")
    assert m.dense_rows() == [[ZERO, ONE], [ZERO, ZERO]]


def test_composition_of_undeclared_morphisms_fails_the_axioms():
    doc = {"groupoid": {"morphisms": [], "source": {}, "target": {}, "inverse": {},
                        "compose": [["u", "u", "u"]]},
           "model": "convolution"}
    code, out, err = run_cli(doc)
    assert code == 1 and err == ""
    assert "fail groupoid-axioms: compose(u,u) defined on a non-morphism" in out


# ---- fuzzer ---------------------------------------------------------------

SEEDS = [
    small_structure(),
    model_to_document(function_algebra(preset("group:cyclic:2")), with_witnesses=True),
    {"groupoid": PAIR1, "model": "convolution"},
    {"groupoid": {"preset": "pair:1"}, "model": "function"},
]

# values of every JSON type, plus the numbers an index must refuse
REPLACEMENTS = [None, True, False, 0, -1, 1.5, 2.0, 10 ** 30, float("inf"), "",
                "x", "1/0", [], [0], {}, {"re": "1"}]


def _nodes(doc, path=()):
    """Every (path, value) in doc, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _nodes(doc[k], path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        path, value = draw(st.sampled_from(nodes))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["drop", "swap", "number"]))
        if action == "drop":
            del parent[path[-1]]
        elif action == "swap":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        elif isinstance(value, int) and not isinstance(value, bool):
            # where an index goes: a float, a huge or a negative number
            parent[path[-1]] = draw(st.sampled_from(
                [value + 0.5, float(value), value + 10 ** 20, -value - 1]))
    return doc


@settings(max_examples=80, deadline=None)
@given(mutated_documents())
def test_mutated_documents_never_crash(doc):
    code, _, err = run_cli(doc)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err

"""JSON input documents and witness serialization.

An input document is either an explicit structure,
    {"algebra": ..., "coproduct": ..., "counit"?, "star"?, "antipode"?, "E"?}
or a groupoid model,
    {"groupoid": {...} | {"preset": "..."}, "model": "function"|"convolution"}.

Rationals are strings "p/q" or "p"; scalars are {"re": ..., "im": ...}
or a plain rational string; matrices are sparse entry lists
[row, col, re, im]; structure tensors are sparse [i, j, k, re, im].
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .algebras import MAX_DIM, Algebra, StarStructure, sparse_to_vec
from .antipodes import _f_multipliers
from .groupoids import (FiniteGroupoid, GroupoidModel, LazyGroupoid, preset,
                        refuse_oversize)
from .linalg import Matrix
from .pipeline import StructureInput
from .report import digest_of
from .scalars import Scalar


class ParseError(Exception):
    pass


class ShapeError(Exception):
    pass


class VerificationFailed(Exception):
    pass


def _scalar(value, where: str) -> Scalar:
    try:
        return Scalar.parse(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar at {where}: {value!r}") from exc


def _scalar_pair(re, im, where: str) -> Scalar:
    return _scalar({"re": re, "im": im}, where)


def _int(value, where: str) -> int:
    """A JSON integer; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: {value!r} is not an integer")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def sparse_matrix_from_json(entries, rows: int, cols: int, where: str) -> Matrix:
    values = {}
    for ent in _list(entries, where):
        if not isinstance(ent, list) or len(ent) != 4:
            raise ParseError(f"{where}: entries must be [row, col, re, im]")
        r, c, re, im = ent
        r, c = _int(r, where), _int(c, where)
        if not (0 <= r < rows and 0 <= c < cols):
            raise ShapeError(f"{where}: entry ({r},{c}) outside {rows}x{cols}")
        if (r, c) in values:
            raise ShapeError(f"{where}: entry ({r},{c}) is listed twice")
        values[r, c] = _scalar_pair(re, im, where)
    return Matrix.from_entries(rows, cols, values)


def matrix_to_sparse_json(m: Matrix) -> list:
    """The nonzero entries [row, col, re, im] in row-major order."""
    return [[i, j, *v.to_strings()] for i, row in enumerate(m._sparse_rows())
            for j, v in row.items()]


def dense_matrix_from_json(rows, dim: int, where: str) -> Matrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError(f"{where}: dense matrix must be a list of rows")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ShapeError(f"{where}: dense matrix must be {dim}x{dim}")
    return Matrix.from_rows(
        [[_scalar(v, where) for v in row] for row in rows])


def dense_matrix_to_json(m: Matrix) -> list:
    return [[v.to_json() for v in row] for row in m.dense_rows()]


def vector_from_json(values, dim: int, where: str) -> list:
    if len(_list(values, where)) != dim:
        raise ShapeError(f"{where}: vector length {len(values)} differs from {dim}")
    return [_scalar(v, where) for v in values]


def vector_to_json(vec) -> list:
    return [v.to_json() for v in vec]


def algebra_from_json(doc: dict) -> Algebra:
    dim = doc.get("dim") if isinstance(doc, dict) else None
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise ParseError("algebra needs a non-negative integer \"dim\"")
    if dim > MAX_DIM:
        raise ShapeError(f"dim {dim} exceeds the supported maximum {MAX_DIM}")
    labels = doc.get("basis_labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError("basis_labels must be a list of strings")
        if len(labels) != dim:
            raise ShapeError("basis_labels length differs from dim")
    entries = {}
    for ent in _list(doc.get("structure", []), "structure"):
        if not isinstance(ent, list) or len(ent) != 5:
            raise ParseError("structure entries must be [i, j, k, re, im]")
        i, j, k = (_int(x, "structure") for x in ent[:3])
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ShapeError(f"structure: index ({i},{j},{k}) outside dim {dim}")
        if (i, j, k) in entries:
            raise ShapeError(f"structure: index ({i},{j},{k}) is listed twice")
        entries[i, j, k] = _scalar_pair(ent[3], ent[4], "structure")
    return Algebra.from_structure(dim, labels, [(*ijk, v) for ijk, v in entries.items()])


class InputDocument:
    def __init__(self, kind: str, structure: Optional[StructureInput] = None,
                 groupoid: Optional[Union[FiniteGroupoid, LazyGroupoid]] = None,
                 model: Optional[str] = None, digest: str = ""):
        self.kind = kind                # "structure" | "groupoid"
        self.structure = structure
        self.groupoid = groupoid
        self.model = model
        self.digest = digest


def parse_document(doc: dict) -> InputDocument:
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    digest = digest_of(doc)
    has_algebra = "algebra" in doc
    has_groupoid = "groupoid" in doc
    if has_algebra == has_groupoid:
        raise ParseError("document must contain exactly one of \"algebra\" or \"groupoid\"")

    if has_groupoid:
        model = doc.get("model")
        if model not in ("function", "convolution"):
            raise ParseError("groupoid documents need \"model\": \"function\" or \"convolution\"")
        gsec = doc["groupoid"]
        if isinstance(gsec, dict) and "preset" in gsec:
            g = preset(str(gsec["preset"]))
        else:
            g = groupoid_from_json(gsec)
        return InputDocument("groupoid", groupoid=g, model=model, digest=digest)

    alg = algebra_from_json(doc["algebra"])
    n = alg.dim
    nn = n * n
    cop = doc.get("coproduct")
    if not isinstance(cop, dict) or "T1" not in cop or "T2" not in cop:
        raise ParseError("algebra documents need \"coproduct\" with \"T1\" and \"T2\"")
    t1 = sparse_matrix_from_json(cop["T1"], nn, nn, "T1")
    t2 = sparse_matrix_from_json(cop["T2"], nn, nn, "T2")
    t3 = sparse_matrix_from_json(cop["T3"], nn, nn, "T3") if "T3" in cop else None
    t4 = sparse_matrix_from_json(cop["T4"], nn, nn, "T4") if "T4" in cop else None
    counit = vector_from_json(doc["counit"], n, "counit") if "counit" in doc else None
    star = None
    if "star" in doc:
        ssec = doc["star"]
        rows = ssec.get("matrix") if isinstance(ssec, dict) else ssec
        star = StarStructure(alg, dense_matrix_from_json(rows, n, "star"))
    antipode = dense_matrix_from_json(doc["antipode"], n, "antipode") \
        if "antipode" in doc else None
    e_pair = None
    if "E" in doc:
        esec = doc["E"]
        if not isinstance(esec, dict) or "left" not in esec or "right" not in esec:
            raise ParseError("\"E\" must carry \"left\" and \"right\" action matrices")
        e_pair = (sparse_matrix_from_json(esec["left"], nn, nn, "E.left"),
                  sparse_matrix_from_json(esec["right"], nn, nn, "E.right"))
    structure = StructureInput(alg, t1, t2, t3, t4, star, counit, antipode, e_pair)
    return InputDocument("structure", structure=structure, digest=digest)


def groupoid_from_json(doc: dict) -> FiniteGroupoid:
    try:
        morphisms = [str(m) for m in doc["morphisms"]]
        source = {str(k): str(v) for k, v in doc["source"].items()}
        target = {str(k): str(v) for k, v in doc["target"].items()}
        compose_entries = [((str(p), str(q)), str(r)) for p, q, r in doc["compose"]]
        inverse = {str(k): str(v) for k, v in doc["inverse"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"malformed groupoid section: {exc}") from exc
    refuse_oversize("groupoid", len(morphisms))
    if len(set(morphisms)) < len(morphisms):
        twice = next(m for k, m in enumerate(morphisms) if m in morphisms[:k])
        raise ShapeError(f"groupoid: morphism {twice!r} is listed twice")
    compose = {}
    for pq, r in compose_entries:
        if pq in compose:
            raise ShapeError(f"groupoid: compose pair ({pq[0]!r}, {pq[1]!r}) is listed twice")
        compose[pq] = r
    return FiniteGroupoid(morphisms, source, target, compose, inverse)


def model_to_document(model: GroupoidModel, with_witnesses: bool = True) -> dict:
    """Serialize a groupoid model as an explicit structure document; used
    for round-trip tests and for building antipode-path input files."""
    alg = model.algebra
    doc = {
        "algebra": {
            "dim": alg.dim,
            "basis_labels": list(alg.basis_labels),
            "structure": [[i, j, k, *v.to_strings()]
                          for i, j, k, v in alg.structure_entries()],
        },
        "coproduct": {
            "T1": matrix_to_sparse_json(model.t1),
            "T2": matrix_to_sparse_json(model.t2),
            "T3": matrix_to_sparse_json(model.t3),
            "T4": matrix_to_sparse_json(model.t4),
        },
    }
    if with_witnesses:
        doc["counit"] = vector_to_json(model.oracle_counit)
        doc["star"] = {"matrix": dense_matrix_to_json(model.star_matrix)}
        doc["antipode"] = dense_matrix_to_json(model.oracle_s)
        doc["E"] = {"left": matrix_to_sparse_json(model.oracle_e_left),
                    "right": matrix_to_sparse_json(model.oracle_e_right)}
    return doc


def witnesses_to_json(ctx) -> dict:
    """Witness section of a report: exact, sparse, deterministic."""
    out = {}
    if ctx.counit is not None:
        out["counit"] = vector_to_json(ctx.counit)
    if ctx.e is not None:
        out["E"] = {"left": matrix_to_sparse_json(ctx.e.left),
                    "right": matrix_to_sparse_json(ctx.e.right)}
    if ctx.g is not None:
        out["G1"] = matrix_to_sparse_json(ctx.g.g1)
        out["G2"] = matrix_to_sparse_json(ctx.g.g2)
    w = ctx.antipode or ctx.thm29_antipode
    if w is not None:
        out["R1"] = matrix_to_sparse_json(w.r1)
        out["R2"] = matrix_to_sparse_json(w.r2)
        if w.s_matrix is not None:
            out["S"] = matrix_to_sparse_json(w.s_matrix)
        else:
            out["S_left"] = [matrix_to_sparse_json(m.left) for m in w.s]
            out["S_right"] = [matrix_to_sparse_json(m.right) for m in w.s]
        if w.s_matrix_inv is not None and ctx.e is not None:
            f1, f2, f3, f4 = _f_multipliers(ctx.algebra, w, ctx.e)
            for k, f in enumerate((f1.right, f2.left, f3.left, f4.right), 1):
                out[f"F{k}"] = matrix_to_sparse_json(f)
    st = ctx.source_target
    if st is not None:
        out["eps_s_image"] = [vector_to_json(b) for b in st.image_s.basis]
        out["eps_t_image"] = [vector_to_json(b) for b in st.image_t.basis]
        out["eps_s"] = [matrix_to_sparse_json(m.left) for m in st.eps_s]
        out["eps_t"] = [matrix_to_sparse_json(m.left) for m in st.eps_t]
    if ctx.unit is not None:
        out["unit"] = vector_to_json(sparse_to_vec(ctx.unit, ctx.algebra.dim))
    return out


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when a key repeats (json.load keeps the last)."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"{key!r} is a repeated key of a JSON object")
        out[key] = value
    return out


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc

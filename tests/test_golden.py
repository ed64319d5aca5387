"""Golden certificates: the sha256 of the `--report` bytes and of stdout of
`wmha verify` for every finite preset, model and path, and for two windows
of the lazy `pair:inf` preset in both models.  A change to the scalar or
linear-algebra layers must leave every one of these bytes unchanged.

Documents built here from fixed seeds add the inputs that stress the
exact arithmetic and the failure paths: two presets conjugated by a dense
change of basis P (one rational, one Gaussian), and the twenty
single-entry mutations of acceptance criterion 9, twelve mutations of
the mirrored maps T2, T3 and T4 and two wrong candidate idempotents E,
whose failing reports pin the first failure and every detail message.
Zero canonical maps on pair:2 (every path) and pair:2 with its antipode
forced non-bijective pin the checks that a blocked or non-regular run
reports as skipped, and the classification's reasons.

Re-record only in a change whose purpose is to alter certificates:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import random
import re
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from wmha import antipodes
from wmha.algebras import flip_map
from wmha.cli import main
from wmha.fileio import dense_matrix_to_json, matrix_to_sparse_json, model_to_document
from wmha.groupoids import build_model, preset
from wmha.report import checks_in

PRESETS = ("pair:1", "pair:2", "group:cyclic:2", "group:cyclic:3",
           "bundle:cyclic:2:2", "union:pair:1+group:cyclic:2")
MODELS = ("function", "convolution")
PATHS = ("def114", "thm29", "both")

JOBS = [("verify", "--preset", p, "--model", m, "--path", x)
        for p in PRESETS for m in MODELS for x in PATHS]
JOBS += [("verify", "--preset", "pair:inf", "--model", m, "--windows", "2")
         for m in MODELS]
# run with the antipode forced non-bijective (see nonregular_fingerprint)
NONREGULAR_JOBS = [("verify", "--preset", "pair:2", "--model", m, "--path", x)
                   for m in MODELS for x in ("def114", "both")]

# job (argv joined by spaces) -> (sha256 of the report, sha256 of stdout)
GOLDEN = {
    "verify --preset pair:1 --model function --path def114":
        ("69ac98e35e29c893e17bc8cc087dad273927ef33793675051252177440bb86da",
         "f96e9d55a2e0e0eda7d03aa5151eb166ff96f8cd5e0c741a6aaa3b8ad4d3ba37"),
    "verify --preset pair:1 --model function --path thm29":
        ("34a033c6dd3efc78e0b27473d00cbe637dcd3e6f2492ba9cca59a752b372be12",
         "f0a6285dc54dae1fa05e24cbbafbd140eef6cae7789e265a467958eb2da7e14c"),
    "verify --preset pair:1 --model function --path both":
        ("002bdb5eb007bbc5fde4439cb4ec45eb8d1109c56ed7086a850eac9f23317361",
         "b098044cd8965213c827395cb12f8a6920e61e15dc6ee9b705eb7eb0844cf81d"),
    "verify --preset pair:1 --model convolution --path def114":
        ("4b7f1aa666ef80572cbae003f727ed5dc0be26da0aee08051cb6b43d7038a4f0",
         "f96e9d55a2e0e0eda7d03aa5151eb166ff96f8cd5e0c741a6aaa3b8ad4d3ba37"),
    "verify --preset pair:1 --model convolution --path thm29":
        ("275dd983e738277be2a7291583ae6c004d5d2777f74c62641e486f453ba2ebc0",
         "f0a6285dc54dae1fa05e24cbbafbd140eef6cae7789e265a467958eb2da7e14c"),
    "verify --preset pair:1 --model convolution --path both":
        ("d4a710db7481a0f49c31c25847220fe68bc70ef8158aacadb414a2b4ba99c6c0",
         "b098044cd8965213c827395cb12f8a6920e61e15dc6ee9b705eb7eb0844cf81d"),
    "verify --preset pair:2 --model function --path def114":
        ("b1071b8e86bfc5b21b5c9ed676303c466707e81a058e8a00a2311be546a2ccdc",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset pair:2 --model function --path thm29":
        ("01547e282caefe0c91dd7ddab54b054ead676a56268aa5046eb48bb0cbf38e79",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset pair:2 --model function --path both":
        ("24c3d8d3d9c58c906c077fdab5db4a5f8efba5f4b604d21ea3340cf42ea47873",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset pair:2 --model convolution --path def114":
        ("7dc9eb6a16a4d94e700f8664a7848476091b8c584f7cbc2ccfaba888deb2b953",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset pair:2 --model convolution --path thm29":
        ("1e614a0f101e45e0ec81623b6bb0828f1e71080078ab4a65f27f6fe6f60d8fab",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset pair:2 --model convolution --path both":
        ("966591df7987d2a681f12fd7cd6cfac42ad67a9e0ae7104b3eb24254d78d5e52",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset group:cyclic:2 --model function --path def114":
        ("ee15a6993c15b900c09e5389110d0502c1dc8736fb0b4c2ec88afcf6f4861665",
         "006688cc38551b241dab45be9eb00ef415f5b4488d1d64c0566285296495d2c6"),
    "verify --preset group:cyclic:2 --model function --path thm29":
        ("63e375c5127a9ca2f16d9105d2d1fe6e94e8eb5335eede7e061fd01f5140c752",
         "c788931c7f49b5fad980fc3f0a7cf9970d8d99329dd9fa5183f2816d27adf7cd"),
    "verify --preset group:cyclic:2 --model function --path both":
        ("9cb25b05b6df7d9d214fe9839c9c6a510cb2783b52a7e2673304ee63fe21341a",
         "9e29314dedf024c1510243f0044e17c7ef54a9747009ae094cf0054d056a73c0"),
    "verify --preset group:cyclic:2 --model convolution --path def114":
        ("682ee0bca4e5eefe077515bf0868ffc55879dd75db6023163ac9499da8e673ac",
         "006688cc38551b241dab45be9eb00ef415f5b4488d1d64c0566285296495d2c6"),
    "verify --preset group:cyclic:2 --model convolution --path thm29":
        ("0da48bebcea5c07f7fb371a47237e24d7ef245530336185568124660f567bf97",
         "c788931c7f49b5fad980fc3f0a7cf9970d8d99329dd9fa5183f2816d27adf7cd"),
    "verify --preset group:cyclic:2 --model convolution --path both":
        ("3d9f1cbf830f15aaab0dc8f2ac628892ff60ad835a479ddd1a6dd410996fe38c",
         "9e29314dedf024c1510243f0044e17c7ef54a9747009ae094cf0054d056a73c0"),
    "verify --preset group:cyclic:3 --model function --path def114":
        ("723af0e68e3e0afe47267a8b68f002695d8e7bce4518b3864d086b5fedb09082",
         "176d37fe978a833f48358df2d94a6f10c9ceb531eea6dd3213ff210ec222e29c"),
    "verify --preset group:cyclic:3 --model function --path thm29":
        ("92845dcc158009a9430abb7f386f7d696d74b84b4b62f70ad7d2cae51e2aa94d",
         "f3a078f8a5f745bd63e596a52d84882d12b8ab5fa03409f8ccc17776c227bc28"),
    "verify --preset group:cyclic:3 --model function --path both":
        ("b8c6643f92caa2890fcd2c9dd14d505abdf7b47652465f42b9ae372f3df1795e",
         "ac92cb302901665d03eed696047b011cfcc1ad8bde5f1e06c899deb0a9902a9d"),
    "verify --preset group:cyclic:3 --model convolution --path def114":
        ("d8d4f61f8c5547160089530ba3fb7fa9e7c13e1ae0d46802bd4b0cc5d4b6b7ea",
         "176d37fe978a833f48358df2d94a6f10c9ceb531eea6dd3213ff210ec222e29c"),
    "verify --preset group:cyclic:3 --model convolution --path thm29":
        ("90dddd55950d2f3bac41bec56c4a1578dd70fe882c20ee35a8cf231e55e7787b",
         "f3a078f8a5f745bd63e596a52d84882d12b8ab5fa03409f8ccc17776c227bc28"),
    "verify --preset group:cyclic:3 --model convolution --path both":
        ("cc72ac4ee0fff4a17c082a8eef2fb9833b1f687285b90ce820aa4ca9dd44ea6d",
         "ac92cb302901665d03eed696047b011cfcc1ad8bde5f1e06c899deb0a9902a9d"),
    "verify --preset bundle:cyclic:2:2 --model function --path def114":
        ("0d35deb1938e030cba885ffb8499a7b2fb827edd14aea8f301d3e2dea2465629",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset bundle:cyclic:2:2 --model function --path thm29":
        ("8a1b69e04bb98cf5df55d856837dea88c9632d06cd5ec14bd79d309574b69d0e",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset bundle:cyclic:2:2 --model function --path both":
        ("5022cc1ca3154aeda25f19b57c3f1284f5637e6c08492792cf6e774e4ccb4d82",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset bundle:cyclic:2:2 --model convolution --path def114":
        ("ab426d51f7fa49f97e44680c1f079bc7991e362e7032de53189a3bb9624edec9",
         "55b1a767a89d4f5f628a1437b2c2b33bf5f36efa836d57b599bc5db1a1893bf6"),
    "verify --preset bundle:cyclic:2:2 --model convolution --path thm29":
        ("7cfdd32a6468cba459b6ebc6377bd6f3ddfb19128b0809774bbeb357e6aac0a2",
         "622944adcd763e2999a6fdcd37956ac5b9e3b4969c0a2bb347faf68c525634cc"),
    "verify --preset bundle:cyclic:2:2 --model convolution --path both":
        ("bc4f049fc68720193a65799c402ae7186762ffe9c015d3979f23eeab1e1e3145",
         "8aeb16f2aa33df150a5bfd4dbb5a9d9513c46d06300b8098888b7faad2c04731"),
    "verify --preset union:pair:1+group:cyclic:2 --model function --path def114":
        ("fa19e6989dcfd4df11556b749e9111b0aa2e1c31fd588301e2fdb1e2690ef98a",
         "099680a377e41da39cbd36db4be9bb1739f0a5852ee295f6278304905d437d3a"),
    "verify --preset union:pair:1+group:cyclic:2 --model function --path thm29":
        ("b705e6917d59401626b8cae4853062b6f1b849b53c5c0b9373120393c226a622",
         "e1e4e04e59cabaef17fdd01d0ca3890f2d4de42cac133cdc3e1deff96a2a3868"),
    "verify --preset union:pair:1+group:cyclic:2 --model function --path both":
        ("096b970d4464c296a401545579d24342e4ec672c99bab1137d93ff617078ce7a",
         "4547a2a8aa8ce88ac7cda80e069d787a100556d45e3a6553512d533ade90dc8c"),
    "verify --preset union:pair:1+group:cyclic:2 --model convolution --path def114":
        ("95e7bbc77bf669f7c8e49c7b671162dfeb4db6c540bd14616c6055b3fdaf0a6c",
         "099680a377e41da39cbd36db4be9bb1739f0a5852ee295f6278304905d437d3a"),
    "verify --preset union:pair:1+group:cyclic:2 --model convolution --path thm29":
        ("ffa537a45326f15127cefac7580ba7b25b762485473bf6432fecf368e2019eb4",
         "e1e4e04e59cabaef17fdd01d0ca3890f2d4de42cac133cdc3e1deff96a2a3868"),
    "verify --preset union:pair:1+group:cyclic:2 --model convolution --path both":
        ("733de260d62afa1a5cd155e5fe40f173def383c8bc282f98abd1903511d22116",
         "4547a2a8aa8ce88ac7cda80e069d787a100556d45e3a6553512d533ade90dc8c"),
    "verify --preset pair:inf --model function --windows 2":
        ("41ee11014ab914c574561d7b0b46ccb53619ca83d9c024f064bdd5192e12ce9e",
         "6592939fb0269ef728b842c3eb9555953bc1dd5cc49574c73cc618faedc186f6"),
    "verify --preset pair:inf --model convolution --windows 2":
        ("477a7af9e16330b14ad7df693b9f798b7513542f43a383b63137df60fd665e1e",
         "6592939fb0269ef728b842c3eb9555953bc1dd5cc49574c73cc618faedc186f6"),
}


# ---- documents built from fixed seeds -------------------------------------

_Z = (Fraction(0), Fraction(0))


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _neg(x):
    return (-x[0], -x[1])


def _matmul(a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            s = _Z
            for k, x in enumerate(row):
                s = _gadd(s, _gmul(x, b[k][j]))
            new.append(s)
        out.append(new)
    return out


def _kron(a, b):
    return [[_gmul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def _inverse2(p):
    (a, b), (c, d) = p
    det = _gadd(_gmul(a, d), _neg(_gmul(b, c)))
    norm = det[0] ** 2 + det[1] ** 2
    if not norm:
        return None
    inv = (det[0] / norm, -det[1] / norm)
    return [[_gmul(inv, d), _gmul(inv, _neg(b))], [_gmul(inv, _neg(c)), _gmul(inv, a)]]


def _basis_change(seed, gaussian):
    """An invertible 2x2 P by the recipe of the conjugated-presentation
    tests: real parts k/1 or k/2 with |k| <= 2, imaginary parts in -1..1."""
    rng = random.Random(seed)
    while True:
        p = [[(Fraction(rng.randint(-2, 2), rng.choice([1, 2])),
               Fraction(rng.randint(-1, 1)) if gaussian and rng.random() < 0.4
               else Fraction(0))
              for _ in range(2)] for _ in range(2)]
        pinv = _inverse2(p)
        if pinv is not None:
            return p, pinv


def _sparse(m):
    return [[r, c, str(v[0]), str(v[1])]
            for r, row in enumerate(m) for c, v in enumerate(row) if v != _Z]


def conjugated_document(preset_name, seed, gaussian):
    """The convolution model of a dimension-2 preset in the basis given by
    the columns of a seeded P: dense structure constants and canonical
    maps Q^-1 T Q with Q = P (x) P, computed here with Fractions."""
    doc = model_to_document(build_model(preset(preset_name), "convolution"),
                            with_witnesses=False)
    n = doc["algebra"]["dim"]
    nn = n * n
    p, pinv = _basis_change(seed, gaussian)
    table = {}
    for i, j, k, re, im in doc["algebra"]["structure"]:
        table.setdefault((i, j), []).append((k, (Fraction(re), Fraction(im))))
    entries = []
    for i in range(n):
        for j in range(n):
            prod = [[_Z] for _ in range(n)]   # p.col(i) p.col(j), old basis
            for a in range(n):
                for b in range(n):
                    coeff = _gmul(p[a][i], p[b][j])
                    for k, v in table.get((a, b), ()):
                        prod[k][0] = _gadd(prod[k][0], _gmul(coeff, v))
            entries += [[i, j, k, re, im]
                        for k, _, re, im in _sparse(_matmul(pinv, prod))]
    q, qinv = _kron(p, p), _kron(pinv, pinv)
    cop = {}
    for name, sparse in doc["coproduct"].items():
        t = [[_Z] * nn for _ in range(nn)]
        for r, c, re, im in sparse:
            t[r][c] = (Fraction(re), Fraction(im))
        cop[name] = _sparse(_matmul(_matmul(qinv, t), q))
    return {"algebra": {"dim": n, "structure": entries}, "coproduct": cop}


def mutation_documents():
    """The twenty single-entry mutations of acceptance criterion 9 (seed
    424242), in its order; every one must fail."""
    rng = random.Random(424242)
    total = 0
    for kind in ("function", "convolution"):
        base = json.dumps(model_to_document(build_model(preset("pair:2"), kind),
                                            with_witnesses=True), sort_keys=True)
        for slot in ("structure", "T1", "E", "S"):
            for _ in range(3 if slot in ("structure", "T1") else 2):
                doc = json.loads(base)
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
                yield f"mutation {total} pair:2 {kind} {slot}", doc


def mirrored_mutation_documents():
    """Single-entry mutations of the mirrored maps T2, T3 and T4 of pair:2
    (seed 5), two per map and model; every one must fail, and together
    they reach the right-handed and flipped-side failure messages."""
    rng = random.Random(5)
    total = 0
    for kind in ("function", "convolution"):
        base = json.dumps(model_to_document(build_model(preset("pair:2"), kind),
                                            with_witnesses=True), sort_keys=True)
        for slot in ("T2", "T3", "T4"):
            for _ in range(2):
                doc = json.loads(base)
                entries = doc["coproduct"][slot]
                ent = entries[rng.randrange(len(entries))]
                ent[2] = str(int(ent[2]) + 1)
                total += 1
                yield f"mirrored {total} pair:2 {kind} {slot}", doc


def wrong_e_documents():
    """pair:2 structure documents with the oracle antipode and a wrong
    candidate E: the two actions swapped (convolution) or conjugated by the
    flip σ (function); each must fail the E checks."""
    for candidate, kind in (("swap", "convolution"), ("flip", "function")):
        model = build_model(preset("pair:2"), kind)
        doc = model_to_document(model, with_witnesses=False)
        sigma = flip_map(model.algebra.dim)
        left, right = {"swap": (model.oracle_e_right, model.oracle_e_left),
                       "flip": (sigma * model.oracle_e_left * sigma,
                                sigma * model.oracle_e_right * sigma)}[candidate]
        doc["antipode"] = dense_matrix_to_json(model.oracle_s)
        doc["E"] = {"left": matrix_to_sparse_json(left),
                    "right": matrix_to_sparse_json(right)}
        yield f"wrong E {candidate} pair:2 {kind}", doc


def zero_coproduct_documents():
    """pair:2 documents with zero canonical maps T1..T4: the coproduct is
    not full and no counit exists, so every axiom-path check and every
    antipode-path check is reported skipped.  The function-model documents
    carry every witness, the star among them, so star-compatible is skipped
    too; the convolution-model ones carry none."""
    for kind in MODELS:
        doc = model_to_document(build_model(preset("pair:2"), kind),
                                with_witnesses=kind == "function")
        doc["coproduct"] = {name: [] for name in doc["coproduct"]}
        for path_arg in PATHS:
            yield f"zero coproduct pair:2 {kind} {path_arg}", (path_arg, doc)


# job name -> (path argument, document)
DOCS = {
    "bundle:cyclic:1:2 dense rational P": (
        "def114", conjugated_document("bundle:cyclic:1:2", 4, gaussian=False)),
    "group:cyclic:2 Gaussian P": (
        "def114", conjugated_document("group:cyclic:2", 0, gaussian=True)),
}
DOCS.update((name, ("both", doc)) for name, doc in mutation_documents())
DOCS.update((name, ("both", doc)) for name, doc in mirrored_mutation_documents())
DOCS.update((name, ("both", doc)) for name, doc in wrong_e_documents())
DOCS.update(zero_coproduct_documents())

# job name -> (exit code, sha256 of the report, sha256 of stdout)
GOLDEN_DOCS = {
    "bundle:cyclic:1:2 dense rational P":
        (0, "fd904482916fa80e4eb85dbeb32321bfdbdfd9ee1033aeb5e6d888aecb58fb31",
            "9de9483d9574d3cc74d9007a9f0ec4e100e0480a35b99c978a54b04cb2841736"),
    "group:cyclic:2 Gaussian P":
        (0, "9234f44a042eeae4e15908777de591c8b26205fbdb1663c141fd6ebfe52bbda2",
            "f40b83b6604abc74eec28a2c056d8eff9c9837e524a64ccdf6b3cbd5f5a5e502"),
    "mutation 1 pair:2 function structure":
        (1, "3ec5322574aa5b1d40f8443d14faa9c1636ac77f80cb24d47a9d1b1ec1745413",
            "94ec15b04c0af6c21314e2297c5a3928e7997a20fe10718767c3f02a82874c8c"),
    "mutation 2 pair:2 function structure":
        (1, "f22aaa2e68b28935630f426bc56047c86189d8c60ae3d0722ccd27f5297136a0",
            "14e9719856929a6c31096ce1f2463d8449a5dc18f2533ae64e337a65168d90e4"),
    "mutation 3 pair:2 function structure":
        (1, "f22aaa2e68b28935630f426bc56047c86189d8c60ae3d0722ccd27f5297136a0",
            "14e9719856929a6c31096ce1f2463d8449a5dc18f2533ae64e337a65168d90e4"),
    "mutation 4 pair:2 function T1":
        (1, "73d523d29de48be05026978c8ad56b6c607bd97d85ffc17d929daddd46f04c2e",
            "dc9f4fb8b1c3fc1494afd26669ef1c77d21d80ce2209facc635cec4de8da0beb"),
    "mutation 5 pair:2 function T1":
        (1, "239d75f404bef7498ba7633f053e58eec49150e0f9584168231aaf78932a6c87",
            "46b78dafe409aa9b7f491159793b86283bdb230dada08c40e0cda26604fa509d"),
    "mutation 6 pair:2 function T1":
        (1, "e1aff1f8730aac1f1e1d1356a55516fcb16c535ab36f2a56ccc13f19a0f990f7",
            "40b342b6b26531dc37b5d72d041c80bf2d25f98a3e81ed6968efa17933d42a6c"),
    "mutation 7 pair:2 function E":
        (1, "53c01ff70ad4001e4e2fc8aa82bf750221f200d3542d3d9d45ec46d646b97c22",
            "bfc54c539af08847509a6b8e713524706175923fc953094391459a5c5f63265f"),
    "mutation 8 pair:2 function E":
        (1, "a7c15a2a284f1c7a05e4a8a76b4e5916e4e585ce2077546e7f7c34be761802b0",
            "bfc54c539af08847509a6b8e713524706175923fc953094391459a5c5f63265f"),
    "mutation 9 pair:2 function S":
        (1, "551495f7bfd219a02fa5243f4b363bec293538e85c9b9f97cacfcea1932cc34d",
            "388cd36c4bc26dd7a64008d50bfdd7a0518bd8f2df32b11e57570b411f2bfdc3"),
    "mutation 10 pair:2 function S":
        (1, "551495f7bfd219a02fa5243f4b363bec293538e85c9b9f97cacfcea1932cc34d",
            "388cd36c4bc26dd7a64008d50bfdd7a0518bd8f2df32b11e57570b411f2bfdc3"),
    "mutation 11 pair:2 convolution structure":
        (1, "72faec21bdcc21ade8836ade5b862b2ea3fc291d466f4968697c9f65478c4ee4",
            "2041e4daa4eb6ccf275cad9ecbde9833bc5a48af5756d42321e8a6400f638c9c"),
    "mutation 12 pair:2 convolution structure":
        (1, "84d9514dc2b703fefbbd57d2422581fab68a73772595929a6ab19fdbf6e41972",
            "f32d81cfb0d8393d54c659e52a1484dd16abbea2b724eaf37d8b0bb898f8dab1"),
    "mutation 13 pair:2 convolution structure":
        (1, "62c56d89c58efeeeffea5e29442ac3a407739bcd1b175852437a0153ae086582",
            "4c12da9890d589e97d9c34bf0f6e862ff36e7a40a4c54893943c5135e95d3ece"),
    "mutation 14 pair:2 convolution T1":
        (1, "8c32caca2313129e8f4411637a873fac19c593f21789c33e1cd626b01992a3f1",
            "ce2e758adcb8fdbd27525cc5b052accd3d550ce20af3aeaecd7f035c1821a789"),
    "mutation 15 pair:2 convolution T1":
        (1, "52b4f930549630ce9e91896198514967690f1cfe2e5fb0524dc18b78ced7a4a7",
            "ec9ef900a1d4dc2a814c161a061c33b5d268fd6c3919750e6aa81042f7c2bde0"),
    "mutation 16 pair:2 convolution T1":
        (1, "0f4e838d1ef21638912f1e2fd8b10653ea3b45c1f00acd0e2046db8d7d3a5034",
            "83bcca5b95d664a7165193d0c9b7f0e120c5025cb5f2b5ad6dc238472846ff6d"),
    "mutation 17 pair:2 convolution E":
        (1, "3b4b676caa8db7c6055d41c558774384fa962df8abd46f83c829538eead45708",
            "bfc54c539af08847509a6b8e713524706175923fc953094391459a5c5f63265f"),
    "mutation 18 pair:2 convolution E":
        (1, "fbd50d89817c70d27db7af2f6072c280a3472114ccdf8e6e697787f7ff39ab9b",
            "bfc54c539af08847509a6b8e713524706175923fc953094391459a5c5f63265f"),
    "mutation 19 pair:2 convolution S":
        (1, "ca71d4e999c0e3d40b1360354fc5b4e5854880c55e6814a268f0cae1db9f1887",
            "43d9e5039d98f89329f25b54228f240134b2fa7bab6f02df90ed33bd0622a20d"),
    "mutation 20 pair:2 convolution S":
        (1, "e113043999ed96fd2f65639774fa256504ef1f2b036c80f620ab16257dfe806d",
            "b9d17691beb05aedd36b9550f93de81969339a3b5567671b5635f6a4ad82780e"),
    "mirrored 1 pair:2 function T2":
        (1, "b273dfea7677a53e76516305f4f4c438f7b95a5e86cceb909eae7ca4dcb5466f",
            "3bf024d993947b197e37b652541d908bb526b11858db03dc6b1deb496fab02de"),
    "mirrored 2 pair:2 function T2":
        (1, "bdb59b3aa85bb51f306e25ea4c2fe2107905e82213314a961466ec25a7e8ada5",
            "6237ae12c3e715fa7325dafec54432f35e0157745d2ce6a92d3a6dcdffcf3971"),
    "mirrored 3 pair:2 function T3":
        (1, "a52a1f43265b1818612ba9d0f5d5fa4b7d55e64117a9ad6663a087e80cd1d12f",
            "312e4eeb082a4fed0ec59dec18f7b00c667e2b776afa1f6cdb4b276dc0f21206"),
    "mirrored 4 pair:2 function T3":
        (1, "1c9ac8f9d524507a291dcc18d3111378f0bfcfcc1a406fd5acae88fc9470ec1d",
            "74f23139eddd7c305c05077b22ef579849a3ad57a03134272d8ccc716c101b06"),
    "mirrored 5 pair:2 function T4":
        (1, "05e0db3ae06fe39d0cc3766dd7b1bab3ccfc106f89bb4529fe2614dfcfb608f0",
            "2c4dafcf600bd91412abfedc06705f9d0e0a7ac101bb9f04d8f20d76153f3a6c"),
    "mirrored 6 pair:2 function T4":
        (1, "7f0dddc94e060aa54d356e689d2e8909d9a91299e7b51153ce577eab824aa263",
            "d9e78b1a8a2141fa02f4a8c7839abee5737e0c1de3b83a87a9cc3c3521cafcd5"),
    "mirrored 7 pair:2 convolution T2":
        (1, "241fbb21d586a653813df9560f8e911049d03488e645b05ac7b3d996691c31a5",
            "ded7926e9a9c4aac7ff8cee14b68427273a3098427ba40016c98b0e387fc838d"),
    "mirrored 8 pair:2 convolution T2":
        (1, "3f8212fce287b42b7d2557f89564ba0b384ad05d58b98e0fed696b089aa650d6",
            "cdf41df38904a540db7362e6757af53d9248a985452f978897c0a4fba8dcae54"),
    "mirrored 9 pair:2 convolution T3":
        (1, "a8024f4a4d8469daf5781f6ed91f17748970a690427ed905e270c6298bae350d",
            "163f20637d21540f886afc98201bd8ccd04a092ec8e943c40f277d95526397a0"),
    "mirrored 10 pair:2 convolution T3":
        (1, "911d20e5ca8a0ab417feb47bd1f135761fe8d13c02230691836cb5a4531625c7",
            "9890a1ac9f5899fb738c16e186ec35e79c39a2fabfb2c810b523ab7890eb650b"),
    "mirrored 11 pair:2 convolution T4":
        (1, "cc68cf96e66510d4d131c09ec88b89dc74f991b8b4dbe132f9da29c0f7773592",
            "5706faa67cc70b2d436c125d63aa78ce7d97017e6c9ea76da5f41221d4b334e5"),
    "mirrored 12 pair:2 convolution T4":
        (1, "e0e18cf3243f610ceb53aeae7e9b6fd12c1371a37ccb2667b53e63ef12a69c95",
            "ebdf8bb267bef732fd7413d7d8381e6158d4776562357a2834e2af1e6a6032d8"),
    "wrong E swap pair:2 convolution":
        (1, "18bf0cdbe06264a51dd5641470363561da431be182c70d9722cfc9b762ee4dcf",
            "513c287171cc191f44baea2f0254efc06de4f42f0ecb012d23fc0a7e288fadf6"),
    "wrong E flip pair:2 function":
        (1, "1637de97ae6649d22b992126eda0440129cda8b3eef7bfba9d3fd83ed356c8c2",
            "d96dd6019d97e1a0e1a8964dfef5dde74a3b702eda2e54f24e303e55c448af45"),
    "zero coproduct pair:2 function def114":
        (1, "2b0a978eed41c8c975eea2fb70b3b66ced7b07ae4d8027e3366cf3d51a8cf245",
            "fdd5aa2eb9e0d7f078fad411ccebce4348e1d2d7e2acbc3686ce29c1d925f3af"),
    "zero coproduct pair:2 function thm29":
        (1, "2077e918983e5e0d6a3ed5a2dd3e51744be66e969ea22cf466b76c56e1a98168",
            "e205d58e591a5f539388998a306285ad29d43096ceab4d15e166c6fcbe18de52"),
    "zero coproduct pair:2 function both":
        (1, "e0d06cc47a057d242b77ca8f390588886c3b4a6eef9108565add05c18c285245",
            "d6c803bd56a5cad402adb22bd2755245099ff88801f1939cc1df9c2306cca7e5"),
    "zero coproduct pair:2 convolution def114":
        (1, "21d7d139febf5e312cb56e09b5ae22dbcfe65e26830f61a56977d5aa5c5ecab1",
            "e30db5d6bc5389010d6383be38581fa2c15d9fbb8c5f2a83490fac33a0761c4b"),
    "zero coproduct pair:2 convolution thm29":
        (1, "650cdd02313c7599df4b39a8ebf96c4989115211b27b41f140f82fd02a853bed",
            "250e3d549d1eb8d1593c4ebe7aec68550365f61c2493d38b7785fdc67eafd033"),
    "zero coproduct pair:2 convolution both":
        (1, "92a18a1091660acf9dc7ef660350116cf43abb77eec1567f5b0137b0ad966160",
            "c03ee002de674dca9062c87d2b9887354e825e7406962a9c6f95668986606474"),
}

# job (argv joined by spaces) -> (exit code, sha256 of the report, sha256 of stdout)
GOLDEN_NONREGULAR = {
    "verify --preset pair:2 --model function --path def114":
        (0, "23e1984594d555a2fda6f4466eb436c91c884580a490538b8ebc45dfffbd2622",
            "1747bf217370f154dc2b34ae80f861156d456741a8c714ea870e163ac0f56aaa"),
    "verify --preset pair:2 --model function --path both":
        (0, "e5a5c79453ad681473a73c68bfb93bbbd34f6849fb81815476992309c7b4eeeb",
            "a82dca429126abe9bcc055e929fb7b0759a30453cab590fd0dff3c783099581d"),
    "verify --preset pair:2 --model convolution --path def114":
        (0, "0a99d1e46afc977fa0b9fa02f5834675df0c554b8c8cb29fd7bb4417405027a2",
            "1747bf217370f154dc2b34ae80f861156d456741a8c714ea870e163ac0f56aaa"),
    "verify --preset pair:2 --model convolution --path both":
        (0, "6e61af32f9a824b2f431fbb6ece23f0c35742b6160e924ad85beaf652cb05bb1",
            "a82dca429126abe9bcc055e929fb7b0759a30453cab590fd0dff3c783099581d"),
}


def fingerprint(argv, workdir: Path):
    report = workdir / "report.json"
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--report", str(report)])
    return (code,
            hashlib.sha256(report.read_bytes()).hexdigest(),
            hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())


def doc_fingerprint(name, workdir: Path):
    path_arg, doc = DOCS[name]
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return fingerprint(["verify", str(path), "--path", path_arg], workdir)


def nonregular_fingerprint(argv, workdir: Path):
    """fingerprint with every antipode inversion refused, so the run finds
    the antipode not bijective and skips the regular-case checks."""
    saved = antipodes.invert
    antipodes.invert = lambda m, store: None
    try:
        return fingerprint(argv, workdir)
    finally:
        antipodes.invert = saved


def structure_runs(blob):
    """The checks of each structure run in a report: the whole report, or
    one run per window of a lazy model (details "window k: ...")."""
    if not any(c["id"] == "window-consistency" for c in blob["checks"]):
        return [blob["checks"]]
    runs = {}
    for c in blob["checks"]:
        window = re.match(r"window (\d+): ", c["detail"])
        if window:
            runs.setdefault(window.group(1), []).append(c)
    return list(runs.values())


def assert_report_shape(report_path: Path):
    """Every structure run reports each "gate" check once, and either none
    of the "axiom" checks or each of them once, star-compatible exactly
    when a star was supplied."""
    for checks in structure_runs(json.loads(report_path.read_text())):
        count = Counter(c["id"] for c in checks)
        assert {cid: count[cid] for cid in checks_in("gate")} == \
            dict.fromkeys(checks_in("gate"), 1)
        axiom = Counter({cid: count[cid] for cid in checks_in("axiom") if count[cid]})
        want = Counter(cid for cid in checks_in("axiom")
                       if cid != "star-compatible" or count["star-structure"])
        assert axiom in (Counter(), want), axiom


@pytest.mark.parametrize("argv", JOBS, ids=[" ".join(j[2:]) for j in JOBS])
def test_certificate_bytes_unchanged(argv, tmp_path):
    code, report_sha, stdout_sha = fingerprint(argv, tmp_path)
    assert code == 0
    assert (report_sha, stdout_sha) == GOLDEN[" ".join(argv)]
    assert_report_shape(tmp_path / "report.json")


@pytest.mark.parametrize("name", list(DOCS))
def test_document_certificate_bytes_unchanged(name, tmp_path):
    assert doc_fingerprint(name, tmp_path) == GOLDEN_DOCS[name]
    assert_report_shape(tmp_path / "report.json")


@pytest.mark.parametrize("argv", NONREGULAR_JOBS,
                         ids=[" ".join(j[2:]) for j in NONREGULAR_JOBS])
def test_nonregular_certificate_bytes_unchanged(argv, tmp_path):
    assert nonregular_fingerprint(argv, tmp_path) == GOLDEN_NONREGULAR[" ".join(argv)]
    assert_report_shape(tmp_path / "report.json")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for argv in JOBS:
            code, report_sha, stdout_sha = fingerprint(argv, Path(tmp))
            if code != 0:
                sys.exit(f"{' '.join(argv)} exited {code}")
            print(f'    "{" ".join(argv)}":\n        ("{report_sha}",\n'
                  f'         "{stdout_sha}"),')
        print()
        for name in DOCS:
            code, report_sha, stdout_sha = doc_fingerprint(name, Path(tmp))
            print(f'    "{name}":\n        ({code}, "{report_sha}",\n'
                  f'            "{stdout_sha}"),')
        print()
        for argv in NONREGULAR_JOBS:
            code, report_sha, stdout_sha = nonregular_fingerprint(argv, Path(tmp))
            print(f'    "{" ".join(argv)}":\n        ({code}, "{report_sha}",\n'
                  f'            "{stdout_sha}"),')

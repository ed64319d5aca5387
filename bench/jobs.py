"""Workload job lists, generated from a seed.

A job is one `wmha` CLI call: an argv list and, for explicit structure
inputs, the JSON document it reads.  Dense inputs are groupoid models
conjugated by a fixed random invertible change of basis P whose columns
the seed rescales by units; the conjugation and the oracles P^-1 S0 P and Q^-1 E0.left Q (Q = P (x) P)
are computed here with the benchmark's own exact arithmetic over Q(i),
so the oracle check does not lean on the engine's linear algebra.

Only `wmha.groupoids` and `wmha.fileio.model_to_document` are used, to
turn a preset into the JSON document of its model.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("sparse", "dense-weak", "small-batch")

SPARSE_JOBS = (("pair:2", "convolution"),)
SMALL_PRESETS = ("pair:1", "pair:2", "group:cyclic:2", "group:cyclic:3",
                 "bundle:cyclic:2:2", "union:pair:1+group:cyclic:2")
PATHS = ("def114", "thm29", "both")
DENSE_WEAK_PRESET = "bundle:cyclic:1:2"   # two units, so E != 1 (x) 1
DENSE_WEAK_DRAW = "dense-weak:4"          # P = [[1, -1/2], [-2, -1/2]]
GAUSSIAN_PRESETS = ("group:cyclic:2", "bundle:cyclic:1:2")
LAZY_JOBS = (("pair:inf", "function", 2), ("bundle:cyclic:2:inf", "convolution", 2))
REAL_UNITS = ((1, 0), (-1, 0))
GAUSSIAN_UNITS = REAL_UNITS + ((0, 1), (0, -1))


class Job:
    """One CLI call; `doc` is written to a file whose path replaces the
    DOC placeholder in argv.  `oracle` holds the expected S and E.left.
    `name` is the job's place in its workload's pass, the same at every
    seed; `key` tells its inputs apart."""

    def __init__(self, name, argv, doc=None, oracle=None):
        self.name = name
        self.argv = list(argv)
        self.doc = doc
        self.oracle = oracle

    @property
    def key(self) -> str:
        blob = json.dumps({"argv": self.argv, "doc": self.doc}, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---- exact Q(i) arithmetic: a scalar is a (re, im) pair of Fractions --------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def _parse(value):
    if isinstance(value, dict):
        return (Fraction(value.get("re", "0")), Fraction(value.get("im", "0")))
    return (Fraction(value), Fraction(0))


def matmul(a, b):
    cols = len(b[0])
    out = []
    for row in a:
        nz = [(k, v) for k, v in enumerate(row) if v != ZERO]
        out_row = []
        for j in range(cols):
            s = ZERO
            for k, v in nz:
                w = b[k][j]
                if w != ZERO:
                    s = _add(s, _mul(v, w))
            out_row.append(s)
        out.append(out_row)
    return out


def kron(a, b):
    return [[_mul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def invert(m):
    """Gauss-Jordan inverse, or None when m is singular."""
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != ZERO), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [_div(v, inv) for v in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c != ZERO:
                aug[r] = [_add(v, _mul((-c[0], -c[1]), w))
                          for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def sparse_to_dense(entries, rows, cols):
    m = [[ZERO] * cols for _ in range(rows)]
    for r, c, re, im in entries:
        m[r][c] = (Fraction(re), Fraction(im))
    return m


def dense_to_sparse(m):
    return [[i, j, str(v[0]), str(v[1])]
            for i, row in enumerate(m) for j, v in enumerate(row) if v != ZERO]


def sparse_as_dict(entries) -> dict:
    """Sparse [row, col, re, im] entries as {(row, col): (re, im)}, zeros dropped."""
    out = {}
    for r, c, re, im in entries:
        v = (Fraction(re), Fraction(im))
        if v != ZERO:
            out[(r, c)] = v
    return out


def random_basis_change(rng: random.Random, n: int, complex_entries: bool):
    """The entry recipe of the engine's conjugated-presentation tests."""
    while True:
        p = []
        for _ in range(n):
            row = []
            for _ in range(n):
                re = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                im = Fraction(rng.randint(-1, 1)) \
                    if complex_entries and rng.random() < 0.4 else Fraction(0)
                row.append((re, im))
            p.append(row)
        pinv = invert(p)
        if pinv is not None:
            return p, pinv


def conjugated_document(model_doc: dict, p, pinv):
    """Structure document of the model in the basis given by the columns
    of p, with T1..T4 only, and the oracles S and E.left in that basis."""
    n = model_doc["algebra"]["dim"]
    nn = n * n
    struct = {}
    for i, j, k, re, im in model_doc["algebra"]["structure"]:
        struct.setdefault((i, j), []).append((k, (Fraction(re), Fraction(im))))
    entries = []
    for i in range(n):
        for j in range(n):
            prod = [ZERO] * n          # p.col(i) * p.col(j) in the old basis
            for a in range(n):
                if p[a][i] == ZERO:
                    continue
                for b in range(n):
                    if p[b][j] == ZERO:
                        continue
                    coeff = _mul(p[a][i], p[b][j])
                    for k, v in struct.get((a, b), ()):
                        prod[k] = _add(prod[k], _mul(coeff, v))
            for k in range(n):
                s = ZERO
                for c in range(n):
                    if prod[c] != ZERO and pinv[k][c] != ZERO:
                        s = _add(s, _mul(pinv[k][c], prod[c]))
                if s != ZERO:
                    entries.append([i, j, k, str(s[0]), str(s[1])])
    q = kron(p, p)
    qinv = kron(pinv, pinv)
    cop = {}
    for name in ("T1", "T2", "T3", "T4"):
        t = sparse_to_dense(model_doc["coproduct"][name], nn, nn)
        cop[name] = dense_to_sparse(matmul(matmul(qinv, t), q))
    doc = {"algebra": {"dim": n, "structure": entries}, "coproduct": cop}
    s0 = [[_parse(v) for v in row] for row in model_doc["antipode"]]
    e0 = sparse_to_dense(model_doc["E"]["left"], nn, nn)
    oracle = {"S": dense_to_sparse(matmul(matmul(pinv, s0), p)),
              "E.left": dense_to_sparse(matmul(matmul(qinv, e0), q))}
    return doc, oracle


def _model_document(preset_name: str, model: str) -> dict:
    from wmha.fileio import model_to_document
    from wmha.groupoids import build_model, preset
    return model_to_document(build_model(preset(preset_name), model),
                             with_witnesses=True)


def _dense_job(name, base, p, pinv):
    doc, oracle = conjugated_document(base, p, pinv)
    return Job(name, ["verify", "DOC", "--path", "def114"], doc, oracle)


def rescaled_basis_change(p, pinv, units):
    """p D and D^-1 pinv for the diagonal D of `units`, each one of
    +-1, +-i: every basis vector of p times a unit.  Entry sizes and pivot
    order stay those of p, so the cost of a job does not move with them."""
    p_d = [[_mul(v, u) for v, u in zip(row, units)] for row in p]
    d_pinv = [[_mul((u[0], -u[1]), v) for v in row] for row, u in zip(pinv, units)]
    return p_d, d_pinv


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


class DenseBase:
    """A model document and a fixed change of basis P drawn by the engine
    tests' recipe; the seed varies only the units that rescale P's
    columns.  Fresh random P of one recipe cost up to five times as much
    as each other (0.18 to 1.2 s for `bundle:cyclic:1:2`, 9 to 27 s for
    dimension 3), so letting the seed draw P would make the run-to-run
    spread a property of the draw."""

    def __init__(self, name, preset_name, draw, complex_entries):
        self.name = name
        self.doc = _model_document(preset_name, "convolution")
        self.dim = self.doc["algebra"]["dim"]
        self.p, self.pinv = random_basis_change(random.Random(draw), self.dim,
                                                complex_entries)
        self.units = GAUSSIAN_UNITS if complex_entries else REAL_UNITS

    def job(self, units) -> Job:
        return _dense_job(self.name, self.doc,
                          *rescaled_basis_change(self.p, self.pinv, units))

    def seeded_job(self, rng: random.Random) -> Job:
        return self.job([rng.choice(self.units) for _ in range(self.dim)])

    def every_job(self) -> list:
        return [self.job(u) for u in itertools.product(self.units, repeat=self.dim)]


def sparse_jobs() -> list:
    return [Job(f"{name}/{model}/both",
                ["verify", "--preset", name, "--model", model, "--path", "both"])
            for name, model in SPARSE_JOBS]


def dense_weak_bases() -> list:
    return [DenseBase(f"{DENSE_WEAK_PRESET}/real", DENSE_WEAK_PRESET, DENSE_WEAK_DRAW,
                      False)]


def gaussian_bases() -> list:
    return [DenseBase(f"{name}/gaussian", name, f"gaussian:{name}", True)
            for name in GAUSSIAN_PRESETS]


def small_fixed_jobs() -> list:
    """The small-batch jobs whose inputs do not depend on the seed."""
    jobs = []
    k = 0
    for name in SMALL_PRESETS:
        for model in ("function", "convolution"):
            path = PATHS[k % len(PATHS)]
            k += 1
            jobs.append(Job(f"{name}/{model}/{path}",
                            ["verify", "--preset", name, "--model", model,
                             "--path", path]))
            jobs.append(Job(f"{name}/{model}/doc-thm29",
                            ["verify", "DOC", "--path", "thm29"],
                            _model_document(name, model)))
    for name, model, windows in LAZY_JOBS:
        jobs.append(Job(f"{name}/{model}/windows-{windows}",
                        ["verify", "--preset", name, "--model", model,
                         "--windows", str(windows)]))
    return jobs


def job_source(workload: str, seed: int):
    """A function from a pass number to the list of jobs in that pass.
    Every pass holds the same job names; the seed sets their order and
    the units that rescale each dense P, anew for every pass."""
    if workload == "sparse":
        fixed, bases = sparse_jobs(), []
    elif workload == "dense-weak":
        fixed, bases = [], dense_weak_bases()
    elif workload == "small-batch":
        fixed, bases = small_fixed_jobs(), gaussian_bases()
    else:
        raise ValueError(f"unknown workload {workload!r}")

    def one_pass(i: int) -> list:
        rng = _rng(seed, workload, i)
        batch = fixed + [b.seeded_job(rng) for b in bases]
        rng.shuffle(batch)
        return batch
    return one_pass


def every_job(workload: str) -> list:
    """Every job any seed can put in a pass of `workload`."""
    if workload == "sparse":
        return sparse_jobs()
    if workload == "dense-weak":
        return [j for b in dense_weak_bases() for j in b.every_job()]
    if workload == "small-batch":
        return small_fixed_jobs() + [j for b in gaussian_bases() for j in b.every_job()]
    raise ValueError(f"unknown workload {workload!r}")

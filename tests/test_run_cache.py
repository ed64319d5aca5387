"""Scope of the per-run cache: within one verification the multiplier-law
kernel, the E solve and each column space run once per distinct input,
nothing is carried from one verification to the next, and no key part
changes after its hash is fixed."""

import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from conftest import FINITE_INPUTS, conjugated_input
from test_unit_walks import certificate, record_full_walks
from test_walk_failures import CASES as WALK_CASES, _run as _walk_run

from wmha import antipodes, coproducts
from wmha.algebras import Algebra, Multiplier, flip_map
from wmha.coproducts import CoproductData, IllDefinedExtension, RunCache
from wmha.linalg import Echelon, Infeasible, Matrix, Subspace, column_space
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.pipeline import StructureInput, verify_groupoid_model, verify_structure
from wmha.report import PASS


def _table(algebra):
    return tuple(algebra.structure_entries())


def _dense(m):
    return tuple(map(tuple, m.dense_rows()))


def _dense_basis(space):
    return tuple(map(tuple, space.basis))


@pytest.fixture
def work(monkeypatch):
    """Content of every law-kernel run and E solve, and the number of
    requests that reached the cache."""
    log = {"laws": [], "solves": [], "law_requests": 0, "e_requests": 0}

    kernel = Multiplier.compatibility_failure

    def counted_kernel(self):
        log["laws"].append((_table(self.parent), _dense(self.left), _dense(self.right)))
        return kernel(self)

    solve = coproducts._solve_E

    def counted_solve(c):
        log["solves"].append((_table(c.aa), _dense_basis(c.ran_t1()),
                              _dense_basis(c.ran_t2())))
        return solve(c)

    request = RunCache.multiplier_failure

    def counted_request(self, m):
        log["law_requests"] += 1
        return request(self, m)

    compute_E = coproducts.compute_E

    def counted_compute_E(c):
        log["e_requests"] += 1
        return compute_E(c)

    monkeypatch.setattr(Multiplier, "compatibility_failure", counted_kernel)
    monkeypatch.setattr(coproducts, "_solve_E", counted_solve)
    monkeypatch.setattr(RunCache, "multiplier_failure", counted_request)
    monkeypatch.setattr(coproducts, "compute_E", counted_compute_E)
    monkeypatch.setattr(antipodes, "compute_E", counted_compute_E)
    return log


@pytest.mark.parametrize("kind", ["convolution", "function"])
def test_work_runs_once_per_key_and_doubles_across_runs(kind, work):
    report, _ = verify_groupoid_model(preset("pair:2"), kind, path="both")
    assert report.verdict == PASS
    laws, solves = list(work["laws"]), list(work["solves"])
    # once per distinct key ...
    assert len(set(laws)) == len(laws)
    assert len(set(solves)) == len(solves)
    # ... while the run asked more often than that
    assert work["law_requests"] > len(laws) > 0
    assert work["e_requests"] > len(solves) > 0

    first = report.to_json()
    report, _ = verify_groupoid_model(preset("pair:2"), kind, path="both")
    assert report.to_json() == first
    # a second run recomputes everything: no state crossed the runs
    assert work["laws"] == laws + laws
    assert work["solves"] == solves + solves


@pytest.mark.parametrize("name, kind, candidate, check_id, detail", [
    ("pair:2", "convolution", "swap", "thm29-e-conditions",
     "candidate E is not a multiplier: left law fails at (0,1)"),
    ("pair:2", "function", "flip", "thm29-e-conditions",
     "extended leg action: component escapes the coproduct range"),
])
def test_failing_E_checks_keep_their_detail(name, kind, candidate, check_id, detail):
    # a wrong candidate idempotent next to the computed one: the run shares
    # laws and E solves between both paths, and the failure reads as before
    m = (convolution_algebra if kind == "convolution" else function_algebra)(preset(name))
    sigma = flip_map(m.algebra.dim)
    e_pair = {"swap": (m.oracle_e_right, m.oracle_e_left),
              "flip": (sigma * m.oracle_e_left * sigma,
                       sigma * m.oracle_e_right * sigma)}[candidate]
    inp = StructureInput(m.algebra, m.t1, m.t2, m.t3, m.t4,
                         antipode=m.oracle_s, e_pair=e_pair)
    report, _ = verify_structure(inp, path="both")
    fails = [(r.check_id, r.detail) for r in report.checks if r.status == "fail"]
    assert fails == [("thm29-e-ranges", "T R differs from the candidate idempotent action"),
                     (check_id, detail)]


@pytest.mark.parametrize("kind", ["convolution", "function"])
def test_leg_conditions_are_read_at_the_unit_on_both_paths(kind, monkeypatch):
    # the axiom path and the antipode path check the leg conditions of the
    # same E; no run memo keeps the result, as each check is read at
    # 1 (x) 1 (x) 1 and builds no extended leg
    sites, runs = record_full_walks(monkeypatch), []
    leg_conditions = coproducts.check_E_conditions

    def counted(c, e):
        runs.append((_table(c.parent), _dense(c.t1), _dense(e.left), _dense(e.right)))
        return leg_conditions(c, e)

    for module in (coproducts, antipodes):
        monkeypatch.setattr(module, "check_E_conditions", counted)
    report, _ = verify_groupoid_model(preset("pair:2"), kind, path="both")
    assert report.verdict == PASS
    assert report.status_of("thm29-e-conditions") == PASS
    assert len(runs) > len(set(runs)) > 0
    assert "check_E_conditions" not in sites


def test_once_builds_once_per_content_key():
    cache, built = RunCache(), []
    # equal matrices that are distinct objects give equal keys, however built
    for m in (Matrix.identity(3), Matrix.identity(3), Matrix.from_rows(Matrix.identity(3).dense_rows())):
        assert cache.once(("ran", m), lambda: built.append(m) or None) is None
    assert len(built) == 1
    # a hash shared by different content keeps two entries
    cycle = Matrix.permutation((1, 2, 0))
    assert hash(cycle) == hash(Matrix.identity(3)) and cycle != Matrix.identity(3)
    assert cache.once(("ran", cycle), lambda: "cycle") == "cycle"
    assert cache.once(("ran", Matrix.identity(3)), lambda: "rebuilt") is None
    # equal subspaces built apart share an entry
    full = [column_space(m) for m in (Matrix.identity(3), cycle)]
    assert [cache.once(("E", space), lambda: len(built)) for space in full] == [1, 1]
    assert cache.once(("E", column_space(Matrix.zero(3, 2))), lambda: "zero") == "zero"
    # a stored False is a hit, not a miss
    assert cache.once(("law",), lambda: False) is False
    assert cache.once(("law",), lambda: True) is False
    assert cache.once(("law", 2), lambda: True) is True
    assert [type(v) for v in vars(cache).values()] == [dict]
    assert len(vars(RunCache())) == 1


def test_a_raising_build_stores_nothing():
    cache, calls = RunCache(), []

    def build():
        calls.append(1)
        raise IllDefinedExtension("extended leg action: component escapes the coproduct range")

    for _ in range(2):
        with pytest.raises(IllDefinedExtension):
            cache.once(("legs",), build)
    assert len(calls) == 2
    assert cache.once(("legs",), lambda: "built") == "built"


@pytest.mark.parametrize("name, distinct", [("pair:2", 18), ("bundle:cyclic:1:2", 8)])
def test_each_column_space_is_eliminated_once_per_run(name, distinct, monkeypatch):
    # Ran T1, Ran T2, Ran E, Ran T3/T4, Ran(1 - G), the spans of null space
    # bases (Ker T1, Ker T2, the counit system) and every span a check
    # compares (leg spans, A S(A), the source/target images, and with a
    # unit the spans in A of the source/target values and of the slices of
    # E(1 (x) 1), which stand for the legs in 2n^2 coordinates and the
    # principal ideals) of the main, mirror, flipped and opposite
    # presentations, by content.  pair:2 made 21 while the gate compared
    # the non-degeneracy and A^2 spans of a unital algebra, which its unit
    # settles; on bundle:cyclic:1:2 (dim 2) those spans were one matrix,
    # the one the antipode identities compare for A S(A), so its count stays
    counts = Counter()
    eliminate = coproducts.column_space

    def counted(m):
        counts[m] += 1
        return eliminate(m)

    monkeypatch.setattr(coproducts, "column_space", counted)
    report, _ = verify_groupoid_model(preset(name), "convolution", path="both")
    assert report.verdict == PASS
    assert sum(counts.values()) == len(counts) == distinct


def _key_parts(key):
    """The matrices and subspaces in a key, nested tuples included."""
    for part in key:
        if isinstance(part, tuple):
            yield from _key_parts(part)
        elif isinstance(part, (Matrix, Subspace)):
            yield part


def _content(part):
    """part's hash recomputed from its current content, and that content."""
    if isinstance(part, Matrix):
        return hash(Matrix(part.rows, part.cols, part._sparse_cols())), \
            tuple(map(tuple, part._sparse_cols()))
    return hash(Subspace(part._ech)), tuple(tuple(sorted(r.items())) for r in part.rows)


@pytest.mark.parametrize("name, kind", FINITE_INPUTS)
def test_no_key_changes_after_its_hash_is_fixed(name, kind, monkeypatch):
    # a matrix or subspace hashes once, when it is built: a column written,
    # or an echelon grown, after it entered a key would silently break
    # lookups.  Every key part of the run is read again at its end
    first = {}
    once = RunCache.once

    def recorded(self, key, build):
        for part in _key_parts(key):
            if id(part) not in first:
                first[id(part)] = (part, hash(part), _content(part))
        return once(self, key, build)

    monkeypatch.setattr(RunCache, "once", recorded)
    certificate(name, kind)
    assert {type(part) for part, _, _ in first.values()} == {Matrix, Subspace}
    for part, fixed, content in first.values():
        now = _content(part)
        assert now == content and now[0] == fixed


def _record_builds(monkeypatch):
    """Every key requested from a RunCache, in order, and the keys whose
    build ran."""
    log = {"requests": [], "builds": []}
    once = RunCache.once

    def counted(self, key, build):
        log["requests"].append(key)

        def logged():
            log["builds"].append(key)
            return build()
        return once(self, key, logged)

    monkeypatch.setattr(RunCache, "once", counted)
    return log


@pytest.mark.parametrize("kind", ["convolution", "function"])
def test_witness_derived_maps_are_built_once(kind, monkeypatch):
    # the source/target values serve the source/target checks, the antipode
    # identities and the later suites: one build per run.  With a unit
    # neither the antipode path's R recovery nor the regular suite's
    # sandwich tables build a strip echelon
    values, log = [], _record_builds(monkeypatch)
    source_target = antipodes.compute_source_target

    def counted_values(c, *args):
        values.append(c)
        return source_target(c, *args)

    monkeypatch.setattr(antipodes, "compute_source_target", counted_values)
    report, ctx = verify_groupoid_model(preset("pair:2"), kind, path="both")
    assert report.verdict == PASS and report.status_of("star-compatible") == PASS
    assert values == [ctx.coproduct]
    assert ctx.unit is not None
    assert [key for key in log["requests"] if key[0] == "strips"] == []


def test_coproduct_data_holds_no_memo_of_its_own():
    # what a run derives from the maps by elimination lives in the store;
    # the mirror alone stays on the object, as delta_right reads it on
    # every call
    report, ctx = verify_groupoid_model(preset("pair:2"), "convolution", path="both")
    assert report.verdict == PASS
    c = ctx.coproduct
    assert c._mirror is not None
    for d in (c, c.mirror()):
        assert set(vars(d)) == {"parent", "t1", "t2", "t3", "t4", "aa", "n", "nn", "cache",
                                "_mirror"}


# the callers that once repeated eliminations made elsewhere in the run,
# named in the failure message
SHARING = {"generalized_inverse": ("generalized_inverse",),
           "check_kernels": ("check_kernels",),
           "S flattening": ("compute_antipode", "as_elements", "as_element")}


def _record_eliminations(monkeypatch):
    """(caller, whether equal content was eliminated before) for every
    Echelon built from rows and every Subspace.from_vectors, keyed by
    content: matrix, pivot order and solvability, or the vectors."""
    seen, log = set(), []
    init, from_vectors = Echelon.__init__, Subspace.from_vectors

    def callers():
        frame, names = sys._getframe(2), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        return [site for site, chain in SHARING.items()
                if chain[0] in names and (len(chain) == 1 or names & set(chain[1:]))] \
            or ["elsewhere"]

    def record(key):
        log.append((callers(), key in seen))
        seen.add(key)

    def counted_init(self, matrix, col_order=None, solvable=False):
        if matrix.rows:
            record(("echelon", matrix,
                    None if col_order is None else tuple(col_order), solvable))
        init(self, matrix, col_order, solvable)

    def counted_from_vectors(ambient_dim, vectors):
        vectors = [dict(v) for v in vectors]
        record(("span", ambient_dim, tuple(tuple(sorted(v.items())) for v in vectors)))
        return from_vectors(ambient_dim, vectors)

    monkeypatch.setattr(Echelon, "__init__", counted_init)
    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(counted_from_vectors))
    return log


@pytest.mark.parametrize("dense", [False, True], ids=["pair:2", "dense bundle:cyclic:1:2"])
def test_shared_eliminations_are_not_repeated(dense, monkeypatch):
    # every elimination goes through the store, so a run eliminates each
    # distinct system once: the generalized inverses, the kernel check and
    # the flattening of S read Ran T, Ker T, the solvable echelon of T,
    # Ran E, Ran(1 - G) and the product-table system of the unit search
    # from it
    if dense:
        inp = conjugated_input("bundle:cyclic:1:2", False)[0]
    log = _record_eliminations(monkeypatch)
    if dense:
        report, _ = verify_structure(inp, path="both")
    else:
        report, _ = verify_groupoid_model(preset("pair:2"), "convolution", path="both")
    assert report.verdict == PASS
    assert log
    assert not Counter(site for sites, repeat in log if repeat for site in sites)


def _results(checks):
    return [(r.check_id, r.status, r.detail) for r in checks]


def test_full_leg_walk_builds_each_solver_once(monkeypatch):
    # a doctored E that fails the leg conditions at the unit takes the full
    # walk of check_E_conditions, which solves through psi and mu at every
    # column: psi, its two solvers and the mu decomposition are each built
    # once, for a fresh run's store
    model, ctx = _walk_run("convolution")
    case = WALK_CASES["e-conditions-left"][1]
    expected = case(ctx)
    c = ctx.coproduct
    fresh = SimpleNamespace(coproduct=CoproductData(c.parent, c.t1, c.t2), e=ctx.e)
    log = _record_builds(monkeypatch)
    assert _results(case(fresh)) == _results(expected)
    kinds = ("psi", "mu")
    builds = Counter(key for key in log["builds"] if key[0] in kinds)
    requests = Counter(key for key in log["requests"] if key[0] in kinds)
    assert set(builds.values()) == {1}
    assert sorted(len(key) for key in builds) == [2, 3, 4, 4]   # mu, psi, its two solvers
    assert all(requests[key] > 1 for key in builds)


def test_mu_decomposition_refuses_a_non_idempotent_algebra():
    # x x = 0: e_x is no sum of products
    a = Algebra.from_structure(1, ["x"], [])
    c = CoproductData(a, Matrix.zero(1, 1), Matrix.zero(1, 1))
    with pytest.raises(Infeasible, match="algebra is not idempotent"):
        c.mu_decomposition(0)

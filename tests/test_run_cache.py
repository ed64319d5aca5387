"""Scope of the per-run cache: within one verification the multiplier-law
kernel, the E solve and each column space run once per distinct input,
and nothing is carried from one verification to the next."""

from collections import Counter

import pytest
from test_unit_walks import record_full_walks

from wmha import antipodes, coproducts
from wmha.algebras import Multiplier, flip_map
from wmha.coproducts import IllDefinedExtension, RunCache, _matrix_key
from wmha.linalg import Matrix
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
    # equal matrices that are distinct objects give equal keys
    for m in (Matrix.identity(3), Matrix.identity(3), Matrix.identity(3)):
        assert cache.once(("ran", _matrix_key(m)), lambda: built.append(m) or None) is None
    assert len(built) == 1
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


@pytest.mark.parametrize("name, distinct", [("pair:2", 7), ("bundle:cyclic:1:2", 2)])
def test_each_column_space_is_eliminated_once_per_run(name, distinct, monkeypatch):
    # Ran T1, Ran T2, Ran E, Ran T3/T4 and Ran(1 - G) of the main, mirror,
    # flipped and opposite presentations, by content
    counts = Counter()
    eliminate = coproducts.column_space

    def counted(m):
        counts[_matrix_key(m)] += 1
        return eliminate(m)

    monkeypatch.setattr(coproducts, "column_space", counted)
    report, _ = verify_groupoid_model(preset(name), "convolution", path="both")
    assert report.verdict == PASS
    assert sum(counts.values()) == len(counts) == distinct


@pytest.mark.parametrize("kind", ["convolution", "function"])
def test_witness_derived_maps_are_built_once(kind, monkeypatch):
    # the source/target values serve the source/target checks, the antipode
    # identities and the later suites: one build per run.  The strip
    # echelons serve the antipode path's R recovery: one build per
    # coproduct, side and leg, two in all (with a unit the regular suite
    # reads its sandwich tables off E without them)
    values, strips = [], []
    source_target, strip = antipodes.compute_source_target, coproducts.CoproductData._strip_echelon

    def counted_values(c, *args):
        values.append(c)
        return source_target(c, *args)

    def counted_strip(c, left, s):
        # (coproduct, side, leg, whether this request builds the echelon)
        strips.append((c, left, s, (left, s) not in c._strips))
        return strip(c, left, s)

    monkeypatch.setattr(antipodes, "compute_source_target", counted_values)
    monkeypatch.setattr(coproducts.CoproductData, "_strip_echelon", counted_strip)
    report, ctx = verify_groupoid_model(preset("pair:2"), kind, path="both")
    assert report.verdict == PASS and report.status_of("star-compatible") == PASS
    assert values == [ctx.coproduct]
    builds = [(c, left, s) for c, left, s, build in strips if build]
    assert {c for c, _, _, _ in strips} == {ctx.coproduct}
    assert len(builds) == len(set(builds)) == 2 < len(strips)
    assert sorted(ctx.coproduct._strips) == [(False, 1), (True, 4)]

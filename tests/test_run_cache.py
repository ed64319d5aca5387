"""Scope of the per-run cache: within one verification the multiplier-law
kernel and the E solve run once per distinct input, and nothing is
carried from one verification to the next."""

import pytest

from wmha import antipodes, coproducts
from wmha.algebras import Multiplier, flip_map
from wmha.coproducts import RunCache
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
def test_leg_conditions_run_once_per_algebra_and_E(kind, monkeypatch):
    # the axiom path and the antipode path check the leg conditions of the
    # same E; the second request must read the first one's result
    runs, requests = [], []
    leg_conditions = coproducts.check_E_conditions

    def counted(c, e):
        runs.append((_table(c.parent), _dense(c.t1), _dense(e.left), _dense(e.right)))
        return leg_conditions(c, e)

    request = RunCache.e_conditions

    def counted_request(self, c, e):
        requests.append(1)
        return request(self, c, e)

    monkeypatch.setattr(coproducts, "check_E_conditions", counted)
    monkeypatch.setattr(RunCache, "e_conditions", counted_request)
    report, _ = verify_groupoid_model(preset("pair:2"), kind, path="both")
    assert report.verdict == PASS
    assert report.status_of("thm29-e-conditions") == PASS
    assert len(set(runs)) == len(runs) > 0
    assert len(requests) > len(runs)


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

"""Verification reports: a fixed registry of named checks, each tied to
one anchor (the statement label it certifies), with pass/fail/skip
status and a one-line detail.

Reports are deterministic: same input and seed give byte-identical
JSON.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

TOOL_VERSION = "wmha 0.1.0"
REPORT_SCHEMA = 1

# (check id, anchor, one-line description, group).  Anchors are the
# statement labels of the underlying theory; every id maps to exactly one
# anchor.  The group names the checks that a run reports as skipped, with
# the label of the check that stopped it, when it stops before them:
#   "gate"  - the coproduct, counit and idempotent checks that every
#             structure run reports; a failed algebra or coproduct check
#             skips those not yet reached.
#   "axiom" - the Def. 1.14 path from the projection maps through the
#             antipode, source/target, regularity, star, weak-Hopf and
#             appendix checks; a failed prerequisite skips those not
#             reached, and so does a non-regular antipode ("regular"), as
#             Section 4 and the appendix hold only in the regular case.
#             star-compatible is part of it only when a star is supplied.
#   "thm29" - the Thm. 2.9 antipode-path checks, skipped together when no
#             counit or candidate antipode is available.
REGISTRY = [
    ("groupoid-axioms", "conv-0", "groupoid source/target/compose/inverse axioms", None),
    ("algebra-associative", "def-0-assoc", "structure tensor is associative", None),
    ("algebra-nondegenerate", "def-0-nondeg", "product is non-degenerate as a bilinear form", None),
    ("algebra-idempotent", "def-0-idem", "products span the whole algebra (A^2 = A)", None),
    ("star-structure", "def-1.1-star", "star is involutive and anti-multiplicative", None),
    ("coproduct-module-laws", "not-1.2", "canonical maps respect one-sided multiplication", "gate"),
    ("coproduct-mixed-law", "not-1.2-mixed", "T1/T2 agree on two-sided products", "gate"),
    ("coproduct-homomorphism", "def-1.1-i", "the coproduct reconstructed from T1/T2 is multiplicative", "gate"),
    ("coproduct-coassociative", "def-1.1-ii", "coassociativity as a commutation of canonical maps", "gate"),
    ("coproduct-regular-maps", "def-1.1-reg", "supplied flipped-side maps are consistent with T1/T2", None),
    ("coproduct-full", "def-1.4", "legs of the coproduct span the algebra", "gate"),
    ("counit-exists", "def-1.3", "counit solves both defining identities, uniquely", "gate"),
    ("counit-matches-input", "def-1.3-input", "supplied counit equals the solved one", None),
    ("idempotent-exists", "asm-1.5", "canonical idempotent with the prescribed range actions", "gate"),
    ("idempotent-valid", "prop-1.6", "canonical idempotent is an idempotent multiplier fixing the coproduct", None),
    ("idempotent-from-flips", "prop-4.2-e", "idempotent recomputed from flipped-side maps agrees", None),
    ("e-coassociativity", "prop-1.9", "extended coproduct legs of E agree and are dominated", None),
    ("e-legs-commute", "asm-1.10-comm", "E (x) 1 and 1 (x) E commute", None),
    ("e-product-formula", "asm-1.10", "coproduct of E equals the product of its two leg liftings", None),
    ("projections-solve", "prop-1.11", "projection maps G1/G2 solved from their defining equalities", "axiom"),
    ("projections-crosscheck", "prop-1.11-proof", "G1/G2 agree with the counit-contraction construction", "axiom"),
    ("projections-idempotent", "prop-1.13", "G1/G2 are idempotent and 1-G lands in the kernels", "axiom"),
    ("projections-factor", "rem-1.12", "G maps factor through two-sided idempotent multipliers", "axiom"),
    ("kernels-match", "def-1.14-iii", "kernels of canonical maps equal ranges of 1-G", "axiom"),
    ("generalized-inverses", "prop-2.3", "R1/R2 satisfy TR = E-action, RT = G, and module laws", "axiom"),
    ("r-commutation", "prop-2.3-comm", "generalized inverses commute with the opposite canonical map", "axiom"),
    ("antipode-defined", "prop-2.4", "one-sided antipodes extracted by counit contraction", "axiom"),
    ("antipodes-agree", "prop-2.7", "left and right antipodes give one multiplier-valued map", "axiom"),
    ("antipode-remark-equalities", "rem-2.8-ii", "contracted one-sided antipode sums agree", "axiom"),
    ("antipode-counit-identities", "prop-2.6", "both counit-style antipode identities hold", "axiom"),
    ("antipode-antimultiplicative", "prop-3.5", "S(ab) = S(b)S(a)", "axiom"),
    ("antipode-spans", "prop-3.6", "A S(A) and S(A) A span the algebra", "axiom"),
    ("antipode-anticoproduct", "prop-3.7", "coproduct of S(a) equals E-damped flipped (S x S) coproduct", "axiom"),
    ("source-target-defined", "def-3.1", "source and target maps computed as multipliers", "axiom"),
    ("source-target-legs", "lem-3.2", "images of source/target maps equal the legs of E", "axiom"),
    ("source-target-coproduct", "lem-3.3", "coproducts of source/target values absorb into E", "axiom"),
    ("source-target-commute", "lem-3.4", "source and target images are commuting subalgebras", "axiom"),
    ("source-target-inclusions", "prop-3.9", "multiplying by source/target images stays in principal ideals", "axiom"),
    ("thm29-r-ranges", "thm-2.9-i", "candidate antipode gives R maps with range in A (x) A", "thm29"),
    ("thm29-identities", "thm-2.9-eq-2.5", "candidate antipode satisfies both counit-style identities", "thm29"),
    ("thm29-e-ranges", "thm-2.9-eq-2.6", "T R equals the candidate idempotent actions", "thm29"),
    ("thm29-e-conditions", "thm-2.9-eq-2.7", "candidate idempotent satisfies the leg conditions", "thm29"),
    ("path-equivalence", "thm-2.9", "axiom path and antipode path agree on E and S", None),
    ("oracle-witnesses", "ex-1.15-1.16", "computed witnesses equal the groupoid model oracles", None),
    ("duality-pairing", "ex-1.16-dual", "the two groupoid models pair as dual structures", None),
    ("regular", "thm-4.10", "antipode maps the algebra bijectively onto itself", "axiom"),
    ("regular-flip-ranges", "prop-4.2", "flipped-side canonical maps have the E-prescribed ranges", "axiom"),
    ("regular-op-antipode", "prop-4.3", "antipode of the opposite presentation inverts S", "axiom"),
    ("regular-ss-flip", "prop-4.4", "(S x S) applied to E equals flipped E", "axiom"),
    ("regular-f-factorization", "prop-4.5", "G maps factor through F idempotents", "axiom"),
    ("regular-f-relations", "prop-4.6", "the four leg-13 relations for F1..F4", "axiom"),
    ("regular-f-formulas", "prop-4.7", "F idempotents arise from E through the antipode", "axiom"),
    ("regular-cop-idempotent", "sec-4-cop", "flipped-coproduct presentation has idempotent sigma E", "axiom"),
    ("local-units", "prop-4.9", "the algebra has (local) units", "axiom"),
    ("star-compatible", "prop-4.11", "star structure: E self-adjoint, S twisted-involutive, F1*=F3, F2*=F4", "axiom"),
    ("weak-hopf-counit", "prop-4.12-eq-4.12", "unital case satisfies the first weak-multiplicativity identity", "axiom"),
    ("weak-hopf-counit-op", "prop-4.12-eq-4.13", "unital case satisfies the second weak-multiplicativity identity", "axiom"),
    ("weak-hopf-antipode-formulas", "prop-4.12-s", "counit contractions of E reproduce source/target values", "axiom"),
    ("appendix-inverse-unit", "app-A.3", "multiplying S across E collapses to the identity", "axiom"),
    ("appendix-source-target-swap", "app-A.4", "S exchanges the source and target maps", "axiom"),
    ("appendix-e-absorption", "app-A.5", "E absorbs source values across its legs through S", "axiom"),
    ("appendix-e-flip", "app-A.8", "flipped (S x S) image of E equals E", "axiom"),
    ("appendix-op-roundtrip", "app-A.12", "opposite presentation verifies as the same structure", "axiom"),
    ("window-consistency", "ex-1.15-windows", "witnesses restrict consistently across nested windows", None),
    ("global-nonunital", "ex-1.16-unit", "full lazy algebra certified non-unital", None),
    ("sampled-local-units", "prop-4.9-sampled", "sampled finite sets admit exhibited local units", None),
]

REGISTRY_IDS = [r[0] for r in REGISTRY]
REGISTRY_ANCHORS = {r[0]: r[1] for r in REGISTRY}
_ORDER = {r[0]: i for i, r in enumerate(REGISTRY)}


def checks_in(group: str) -> List[str]:
    """The ids of one registry group, in registry order."""
    return [r[0] for r in REGISTRY if r[3] == group]

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class CheckResult:
    def __init__(self, check_id: str, status: str, detail: str = ""):
        if check_id not in REGISTRY_ANCHORS:
            raise KeyError(f"check id {check_id!r} not in registry")
        if status not in (PASS, FAIL, SKIP):
            raise ValueError(f"bad status {status!r}")
        self.check_id = check_id
        self.status = status
        self.detail = detail


def passed(check_id, detail="") -> CheckResult:
    return CheckResult(check_id, PASS, detail)


def failed(check_id, detail="") -> CheckResult:
    return CheckResult(check_id, FAIL, detail)


def skipped(check_id, prerequisite: str) -> CheckResult:
    return CheckResult(check_id, SKIP, f"prerequisite failed: {prerequisite}")


def check(check_id, ok: bool, detail_pass="", detail_fail="") -> CheckResult:
    if ok:
        return passed(check_id, detail_pass)
    return failed(check_id, detail_fail or detail_pass)


def _first_failures(walk, passes: Dict[str, str]) -> List[CheckResult]:
    """The results of the checks one walk feeds, one per check id of
    passes, in its order.  walk yields the detail of each failure it
    finds, in walk order, as a (check id, detail) pair when it feeds
    several checks.  A check fails with its first detail and otherwise
    passes with its detail in passes; the walk is stopped once every check
    has failed."""
    first: Dict[str, str] = {}
    sole = next(iter(passes)) if len(passes) == 1 else None
    for got in walk:
        check_id, detail = (sole, got) if sole else got
        first.setdefault(check_id, detail)
        if len(first) == len(passes):
            break
    return [failed(cid, first[cid]) if cid in first else passed(cid, ok)
            for cid, ok in passes.items()]


class VerificationReport:
    def __init__(self, seed: Optional[int] = None,
                 checks: Optional[List[CheckResult]] = None):
        self.input_digest = ""
        self.seed = seed
        self.checks = [] if checks is None else checks
        self.witnesses: Dict[str, object] = {}
        self.classification: Dict[str, object] = {}

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    def extend(self, results) -> None:
        for r in results:
            self.add(r)

    def skip_unreported(self, ids, prerequisite: str) -> None:
        """Record each of ids that has no result yet as skipped, naming
        prerequisite, the label of the check that stopped the run."""
        seen = {c.check_id for c in self.checks}
        self.extend(skipped(cid, prerequisite) for cid in ids if cid not in seen)

    def status_of(self, check_id: str) -> Optional[str]:
        got = [c.status for c in self.checks if c.check_id == check_id]
        if not got:
            return None
        if FAIL in got:
            return FAIL
        if SKIP in got and PASS not in got:
            return SKIP
        return PASS

    @property
    def verdict(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    def first_failure(self) -> Optional[CheckResult]:
        for c in self.sorted_checks():
            if c.status == FAIL:
                return c
        return None

    def sorted_checks(self) -> List[CheckResult]:
        return sorted(self.checks, key=lambda c: (_ORDER[c.check_id], c.detail))

    def to_json_dict(self) -> dict:
        # schema 1 keeps "witness_refs"; no check names a witness in it
        checks = [{"id": c.check_id, "anchor": REGISTRY_ANCHORS[c.check_id],
                   "status": c.status, "detail": c.detail, "witness_refs": []}
                  for c in self.sorted_checks()]
        out = {
            "schema": REPORT_SCHEMA,
            "tool_version": TOOL_VERSION,
            "input_digest": self.input_digest,
            "checks": checks,
            "witnesses": self.witnesses,
            "classification": self.classification,
            "verdict": self.verdict,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def digest_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()

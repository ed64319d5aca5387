"""Antipode construction and the property suites built on it.

From the generalized inverses R1/R2 of the canonical maps the two
one-sided antipodes are extracted by counit contraction; their agreement
certifies the antipode S: A -> M(A).  On top of S sit the source/target
maps, the regularity suite, the star suite, the weak-Hopf counit
identities and the flipped-E identity suite.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from .algebras import (Algebra, Multiplier, SparseVec, _on_legs, flip_map,
                       star_on, StarStructure)
from .coproducts import (AmbiguousE, CoproductData,
                         IllDefinedExtension, NoSuchIdempotent, NotIdempotent,
                         ProjectionMaps, apply_on_legs13, extend_delta, compute_E,
                         _commute, _counit_cols, _lbl, _lbl2, _lbl3,
                         _module_law_failures)
from .linalg import (Echelon, Matrix, Subspace, _combination, column_space,
                     generalized_inverse, invert)
from .report import FAIL, PASS, SKIP, CheckResult, _first_failures, check, failed, passed
from .scalars import ONE, ZERO, Scalar, _accumulate, _dot, _settle


class AntipodesDisagree(Exception):
    def __init__(self, message: str, checks: Optional[list] = None):
        super().__init__(message)
        self.checks = checks or []


# ---------------------------------------------------------------- R maps


def build_generalized_inverses(c: CoproductData, e: Multiplier,
                               g: ProjectionMaps) -> Tuple[Matrix, Matrix, List[CheckResult]]:
    """R1, R2 with T R = E-action and R T = G, plus their module and
    commutation laws."""
    n = c.n
    r1 = generalized_inverse(c.t1, e.left, g.g1)
    r2 = generalized_inverse(c.t2, e.right, g.g2)

    def inverse_failures():
        yield from _module_law_failures(c, [(r1, 2, "R1 module law fails"),
                                            (r2, 1, "R2 module law fails")])
        if not ((c.t1 * r1 * c.t1 == c.t1) and (r1 * c.t1 * r1 == r1) and
                (c.t2 * r2 * c.t2 == c.t2) and (r2 * c.t2 * r2 == r2)):
            yield "generalized inverse identities fail"

    def commutation_failures():
        for idx in range(n ** 3):
            if not _commute(c.t2, r1, idx, n):
                yield f"(T2 x id)(id x R1) != (id x R1)(T2 x id) at {_lbl3(c, idx)}"
            if not _commute(r2, c.t1, idx, n):
                yield f"(id x T1)(R2 x id) != (R2 x id)(id x T1) at {_lbl3(c, idx)}"
    return r1, r2, _first_failures(inverse_failures(), {
        "generalized-inverses": "T1 R1 = E-left, R1 T1 = G1 (mirrored), with module laws"}) + \
        _first_failures(commutation_failures(), {
            "r-commutation": "R maps commute with the opposite-side canonical maps"})


# ---------------------------------------------------------------- antipode


class AntipodeWitness:
    def __init__(self, r1: Matrix, r2: Matrix, s: List[Multiplier],
                 s_matrix: Optional[Matrix], s_matrix_inv: Optional[Matrix] = None):
        self.r1 = r1
        self.r2 = r2
        self.s = s                      # S(e_a), with actions S1(e_a) and S2(e_a)
        self.s_matrix = s_matrix        # present when S maps A into A
        self.s_matrix_inv = s_matrix_inv
        # name -> (input objects, value) of what is derived from this witness
        self._memo: dict = {}

    @property
    def not_regular(self) -> Optional[str]:
        """Why S is not a bijection of the algebra onto itself, the
        regularity of Thm. 4.10, or None when it is one."""
        if self.s_matrix is None:
            return "antipode does not map the algebra into itself"
        if self.s_matrix_inv is None:
            return "antipode matrix is not invertible"
        return None

    def _once(self, name, inputs: tuple, build):
        """build(), computed once per witness for the same input objects,
        so the suites and the certificate share one copy."""
        got = self._memo.get(name)
        if got is None or any(a is not b for a, b in zip(got[0], inputs)):
            got = self._memo[name] = (inputs, build())
        return got[1]


def _combine_multipliers(parent: Algebra, ms: List[Multiplier], coeffs: SparseVec) -> Multiplier:
    """Σ_k coeffs[k]·ms[k] as a multiplier."""
    n = parent.dim
    return Multiplier(parent,
                      _combination(((v, ms[k].left) for k, v in coeffs.items()), n, n),
                      _combination(((v, ms[k].right) for k, v in coeffs.items()), n, n))


def _contractions(c: CoproductData, g: ProjectionMaps, w: "AntipodeWitness",
                  counit: list) -> Tuple[list, list, list, list]:
    """Per basis vector of the tensor square: (eps (x) id) G1, (id (x) eps) G2,
    and the products m R1 and m R2; built once per witness."""
    n, nn = c.n, c.nn

    def build():
        eps, prod = _counit_cols(counit), c.parent._product_cols()
        return ([_on_legs(eps, 1, g.g1.col_sparse(j), n) for j in range(nn)],
                [_on_legs(eps, 1, g.g2.col_sparse(j)) for j in range(nn)],
                [_on_legs(prod, n, w.r1.col_sparse(j)) for j in range(nn)],
                [_on_legs(prod, n, w.r2.col_sparse(j)) for j in range(nn)])
    return w._once("contractions", (c, g, counit), build)


def compute_antipode(c: CoproductData, r1: Matrix, r2: Matrix,
                     counit: list) -> Tuple[AntipodeWitness, List[CheckResult]]:
    """S1 from R1 by (eps (x) id), S2 from R2 by (id (x) eps): the left
    and right actions of S(e_a).  Its left and right laws make S1 and S2
    one-sided multipliers, and its link law, b(S1(a)c) = (bS2(a))c, makes
    them one map; S is flattened to a matrix when every value lies in the
    embedded copy of the algebra."""
    n = c.n
    eps = _counit_cols(counit)
    s = [Multiplier(c.parent,
                    Matrix.from_sparse_cols(n, [_on_legs(eps, 1, r1.col_sparse(a * n + b), n)
                                                for b in range(n)]),
                    Matrix.from_sparse_cols(n, [_on_legs(eps, 1, r2.col_sparse(b * n + a))
                                                for b in range(n)])) for a in range(n)]

    # the one-sided laws feed antipode-defined and the link law
    # antipodes-agree, over (a, i, j) in order
    what = {"left": "S1({}) is not a left multiplier at ({},{})",
            "right": "S2({}) is not a right multiplier at ({},{})",
            "link": "b(S1(a)c) != (bS2(a))c at (a,b,c)=({},{},{})"}
    out = _first_failures(
        (("antipodes-agree" if law == "link" else "antipode-defined",
          what[law].format(_lbl(c, a), _lbl(c, i), _lbl(c, j)))
         for a, m in enumerate(s) for law, i, j in m.law_failures()),
        {"antipode-defined": "counit contractions of R1/R2 give one-sided multipliers",
         "antipodes-agree": "S1 = S2 as a multiplier-valued map"})
    if out[1].status == FAIL:
        raise AntipodesDisagree(out[1].detail, out)

    # flatten to a matrix when each S(e_a) is an embedded element
    cols = []
    for m in s:
        el = m.as_element()
        if el is None:
            cols = None
            break
        cols.append(el)
    s_matrix = Matrix.from_sparse_cols(n, cols) if cols is not None else None
    s_inv = invert(s_matrix) if s_matrix is not None else None
    return AntipodeWitness(r1, r2, s, s_matrix, s_inv), out


# ------------------------------------------------- identity suite (S)


def check_antipode_identities(c: CoproductData, e: Multiplier,
                              g: ProjectionMaps, w: AntipodeWitness,
                              counit: list) -> List[CheckResult]:
    n = c.n
    alg = c.parent
    prod = alg._product_cols()
    eps_g1, g2_eps, m_r1, m_r2 = _contractions(c, g, w, counit)
    eps_g1_cols = [v.items() for v in eps_g1]
    g2_eps_cols = [v.items() for v in g2_eps]

    # both counit-style identities, in left- and right-contracted form;
    # the source/target values enter through their G-contraction form
    def identity_failures():
        for a, b in product(range(n), repeat=2):
            if _on_legs(prod, n, g.g1.col_sparse(a * n + b)) != alg.mul_basis(a, b):
                yield f"sum a1 S(a2) a3 = a fails against ({_lbl(c, a)}, {_lbl(c, b)})"
            if _on_legs(prod, n, g.g2.col_sparse(a * n + b)) != alg.mul_basis(a, b):
                yield f"c(sum a1 S(a2) a3) = ca fails against ({_lbl(c, a)}, {_lbl(c, b)})"
            # sum S(a1) a2 S(a3) = S(a)
            if _on_legs(eps_g1_cols, n, w.r1.col_sparse(a * n + b)) != \
                    dict(w.s[a].left.col_sparse(b)):
                yield f"sum S(a1) a2 S(a3) = S(a) fails left at ({_lbl(c, a)}, {_lbl(c, b)})"
            if _on_legs(g2_eps_cols, n, w.r2.col_sparse(b * n + a)) != \
                    dict(w.s[a].right.col_sparse(b)):
                yield f"sum S(a1) a2 S(a3) = S(a) fails right at ({_lbl(c, a)}, {_lbl(c, b)})"
    out = _first_failures(identity_failures(), {
        "antipode-counit-identities": "both antipode identities hold as one-sided multiplier equalities"})

    # the contracted equalities behind S1 = S2
    def remark_failures():
        for s, a, p in product(range(n), repeat=3):
            if alg.mul_by_basis(g2_eps[s * n + a], p) != alg.basis_times(s, m_r1[a * n + p]):
                yield f"first contracted equality fails at ({_lbl(c, s)},{_lbl(c, a)},{_lbl(c, p)})"
            if alg.mul_by_basis(m_r2[s * n + a], p) != alg.basis_times(s, eps_g1[a * n + p]):
                yield f"second contracted equality fails at ({_lbl(c, s)},{_lbl(c, a)},{_lbl(c, p)})"
    out += _first_failures(remark_failures(), {
        "antipode-remark-equalities": "contracted one-sided antipode sums agree (equivalent to S1 = S2)"})

    # anti-multiplicativity as multiplier equality
    out += _first_failures(
        (f"S({_lbl(c, a)} {_lbl(c, b)}) != S({_lbl(c, b)})S({_lbl(c, a)})"
         for a, b in product(range(n), repeat=2)
         if _combine_multipliers(c.parent, w.s, c.parent.mul_basis(a, b)) != w.s[b] * w.s[a]),
        {"antipode-antimultiplicative": "S(ab) = S(b)S(a) on all basis pairs"})

    # A S(A) = A and S(A) A = A, spanned by the e_a S(e_b) and the S(e_b) e_a
    pairs = [(a, b) for a in range(n) for b in range(n)]
    span_r = Subspace.from_vectors(n, (dict(w.s[b].right.col_sparse(a)) for a, b in pairs))
    span_l = Subspace.from_vectors(n, (dict(w.s[b].left.col_sparse(a)) for a, b in pairs))
    out.append(check("antipode-spans", span_r.dim == n and span_l.dim == n,
                     "A S(A) and S(A) A span the algebra",
                     f"spans have dims {span_r.dim} and {span_l.dim} of {n}"))

    # anti-coalgebra identity with E on both sides
    def anticoproduct_failures():
        for a in range(n):
            lhs = extend_delta(c, e, w.s[a])
            theta = _flipped_ss_coproduct(c, w, a)
            if lhs != e * theta or lhs != theta * e:
                yield f"coproduct(S({_lbl(c, a)})) != E-damped flipped (S x S) coproduct"
    return out + _first_failures(anticoproduct_failures(), {
        "antipode-anticoproduct": "coproduct of S(a) equals the E-two-sided flipped image"})


def _flipped_ss_coproduct(c: CoproductData, w: AntipodeWitness, a: int) -> Multiplier:
    """sigma (S x S) coproduct(e_a) as a multiplier of the tensor square."""
    n, nn = c.n, c.nn
    left: List[SparseVec] = [{} for _ in range(nn)]
    right: List[SparseVec] = [{} for _ in range(nn)]
    # the maps e_i -> S1(e_i) e_j and e_i -> e_j S2(e_i), per j
    s1 = [[x.left.col_sparse(j) for x in w.s] for j in range(n)]
    s2 = [[x.right.col_sparse(j) for x in w.s] for j in range(n)]
    for cc in range(n):
        for b in range(n):
            # (S x S)coproduct(a) acting on cc (x) b: e_i -> S1(e_i) e_cc on
            # leg 1 of R1(a (x) b), and e_j -> e_b S2(e_j) on leg 2 of
            # R2(cc (x) a); then flip input and output
            for cols, vec in ((left, _on_legs(s1[cc], n, w.r1.col_sparse(a * n + b), n)),
                              (right, _on_legs(s2[b], n, w.r2.col_sparse(cc * n + a)))):
                cols[b * n + cc] = {key % n * n + key // n: v for key, v in vec.items()}
    return Multiplier(c.aa, Matrix.from_sparse_cols(nn, left), Matrix.from_sparse_cols(nn, right))


# ------------------------------------------------- source and target maps


class SourceTargetWitness:
    def __init__(self, eps_s: List[Multiplier], eps_t: List[Multiplier],
                 image_s: Subspace, image_t: Subspace):
        self.eps_s = eps_s
        self.eps_t = eps_t
        self.image_s = image_s
        self.image_t = image_t


def compute_source_target(c: CoproductData, e: Multiplier,
                          g: ProjectionMaps, w: AntipodeWitness,
                          counit: list) -> Tuple[SourceTargetWitness, List[CheckResult]]:
    n = c.n
    eps_g1, g2_eps, m_r1, m_r2 = _contractions(c, g, w, counit)
    eps_s = [Multiplier(c.parent, Matrix.from_sparse_cols(n, eps_g1[a * n:a * n + n]),
                        Matrix.from_sparse_cols(n, m_r2[a::n])) for a in range(n)]
    eps_t = [Multiplier(c.parent, Matrix.from_sparse_cols(n, m_r1[a * n:a * n + n]),
                        Matrix.from_sparse_cols(n, g2_eps[a::n])) for a in range(n)]

    def value_failures():
        for a in range(n):
            bad = c.cache.multiplier_failure(eps_s[a]) or c.cache.multiplier_failure(eps_t[a])
            if bad:
                yield f"source/target value at {_lbl(c, a)} is not a multiplier: {bad}"
    out = _first_failures(value_failures(), {
        "source-target-defined": "source and target values are honest multipliers"})

    image_s = Subspace.from_vectors(2 * n * n, [m.coords() for m in eps_s])
    image_t = Subspace.from_vectors(2 * n * n, [m.coords() for m in eps_t])

    legs_s, legs_t = _e_leg_multipliers(c, e)
    leg_ok = image_s == Subspace.from_vectors(2 * n * n, legs_s) and \
        image_t == Subspace.from_vectors(2 * n * n, legs_t)
    out.append(check("source-target-legs", leg_ok,
                     f"images (dims {image_s.dim}, {image_t.dim}) equal the legs of E",
                     "source/target images differ from the legs of E"))

    def coproduct_failures():
        ident = Matrix.identity(n)
        for a in range(n):
            dt = extend_delta(c, e, eps_t[a])
            m1 = Multiplier(c.aa, eps_t[a].left.kron(ident), eps_t[a].right.kron(ident))
            if dt != e * m1 or dt != m1 * e:
                yield f"coproduct(eps_t({_lbl(c, a)})) != E (eps_t (x) 1) forms"
            ds = extend_delta(c, e, eps_s[a])
            m2 = Multiplier(c.aa, ident.kron(eps_s[a].left), ident.kron(eps_s[a].right))
            if ds != e * m2 or ds != m2 * e:
                yield f"coproduct(eps_s({_lbl(c, a)})) != E (1 (x) eps_s) forms"
    out += _first_failures(coproduct_failures(), {
        "source-target-coproduct": "coproducts of source/target values absorb into E"})

    # subalgebras, commuting with each other
    def subalgebra_failures():
        for i, j in product(range(n), repeat=2):
            if not image_s.contains((eps_s[i] * eps_s[j]).coords()):
                yield f"eps_s image not closed under product at ({_lbl(c, i)},{_lbl(c, j)})"
            if not image_t.contains((eps_t[i] * eps_t[j]).coords()):
                yield f"eps_t image not closed under product at ({_lbl(c, i)},{_lbl(c, j)})"
            if eps_s[i] * eps_t[j] != eps_t[j] * eps_s[i]:
                yield f"eps_s({_lbl(c, i)}) and eps_t({_lbl(c, j)}) do not commute"
    out += _first_failures(subalgebra_failures(), {
        "source-target-commute": "source and target images are commuting subalgebras"})

    def inclusion_failures():
        for a in range(n):
            right_ideal = Subspace.from_vectors(n, [c.parent.mul_basis(a, j) for j in range(n)])
            left_ideal = Subspace.from_vectors(n, [c.parent.mul_basis(j, a) for j in range(n)])
            for m, tag in [(eps_s, "eps_s"), (eps_t, "eps_t")]:
                for x in range(n):
                    if not right_ideal.contains(dict(m[x].right.col_sparse(a))):
                        yield f"{_lbl(c, a)} {tag}(A) escapes {_lbl(c, a)} A"
                    if not left_ideal.contains(dict(m[x].left.col_sparse(a))):
                        yield f"{tag}(A) {_lbl(c, a)} escapes A {_lbl(c, a)}"
    out += _first_failures(inclusion_failures(), {
        "source-target-inclusions": "principal-ideal inclusions hold for source/target images"})
    return SourceTargetWitness(eps_s, eps_t, image_s, image_t), out


def _e_leg_multipliers(c: CoproductData, e: Multiplier):
    """Leg elements of E as multiplier coordinate vectors: functional
    slices of (c (x) 1) E (a (x) .) on the right leg (target side) and of
    (1 (x) a) E (. (x) c) on the left leg (source side).  On the leg
    multiplied (1 for the target side), E's left action at the column with
    q there and b on the other leg is multiplied by e_p from the left, and
    its right action at the column with p there by e_q from the right; the
    slice index k is the output's index on that leg."""
    n, nn = c.n, c.nn
    alg = c.parent
    legs: Dict[int, list] = {1: [], 2: []}
    for a, cc in product(range(n), repeat=2):
        for leg in (1, 2):
            p, q = (cc, a) if leg == 1 else (a, cc)
            s, other = (n, 1) if leg == 1 else (1, n)
            # per slice k, the coordinates of Multiplier.coords: entry
            # (r, b) of the left (right) action at b·n + r (nn + b·n + r)
            coords: List[SparseVec] = [{} for _ in range(n)]
            for b in range(n):
                for side, act, mult, u in ((0, e.left, alg._left_cols(p), q),
                                           (nn, e.right, alg._right_cols(q), p)):
                    for key, v in _on_legs(mult, n, act.col_sparse(u * s + b * other), s).items():
                        coords[key // s % n][side + b * n + key // other % n] = v
            legs[leg].extend(coords)
    return legs[2], legs[1]


# ------------------------------------------------- antipode-first path


def verify_via_antipode(c: CoproductData, s_mat: Matrix,
                        e_left: Matrix, e_right: Matrix) -> Tuple[List[CheckResult],
                                                                  Optional[AntipodeWitness],
                                                                  Optional[Multiplier]]:
    """The alternative characterization: from a candidate antipode matrix
    and candidate idempotent actions, rebuild R1/R2, check both counit
    identities, the E range identities and the E leg conditions."""
    out: List[CheckResult] = []
    n, nn = c.n, c.nn
    alg = c.parent
    s_cols = [dict(s_mat.col_sparse(a)) for a in range(n)]

    # R1 is stripped of (c (x) 1) products, R2 of (1 (x) d) right products
    strips = (_strip_echelon(c, alg._left_cols, n), _strip_echelon(c, alg._right_cols, 1))
    if any(ech.rank < nn for _, ech in strips):
        out.append(failed("thm29-r-ranges",
                          "product is too degenerate to recover the R maps"))
        return out, None, None

    r_cols: Dict[str, List[SparseVec]] = {"R1": [], "R2": []}
    # the maps e_v -> S(e_v) e_b and e_u -> e_a S(e_u), per b and per a
    s_times = [[alg.mul_by_basis(sv, b).items() for sv in s_cols] for b in range(n)]
    times_s = [[alg.basis_times(a, sv).items() for sv in s_cols] for a in range(n)]
    for a, b in product(range(n), repeat=2):
        # stacked over the stripped index y: S(e_v) e_b on the last leg of
        # T2(e_y (x) e_a), and e_a S(e_u) on the middle leg of T1(e_b (x) e_y)
        halves = (("R1", strips[0], c.t2, a, n, s_times[b], 1),
                  ("R2", strips[1], c.t1, b * n, 1, times_s[a], n))
        for name, (stack, ech), t, col0, step, op, s in halves:
            x = [(y * nn + row, v) for y in range(n) for row, v in t.col_sparse(col0 + y * step)]
            sol = ech.solve_sparse(_on_legs(op, n, x, s), stack)
            if sol is None:
                out.append(failed("thm29-r-ranges", f"{name}({_lbl(c, a)} (x) {_lbl(c, b)}) "
                                  "does not land in the tensor square"))
                return out, None, None
            r_cols[name].append(sol)
    out.append(passed("thm29-r-ranges", "both R maps built from the candidate antipode land in A (x) A"))
    r1, r2 = (Matrix.from_sparse_cols(nn, r_cols[name]) for name in ("R1", "R2"))

    # the two identities (as contracted one-sided equalities): with
    # (R, T, col) = (R1, T1, a (x) b) and (R2, T2, b (x) a), and S on the
    # leg of a, m R T = m and m S T R = m S at col
    prod, s_op = alg._product_cols(), s_mat._sparse_cols()

    def identity_failures():
        for a, b in product(range(n), repeat=2):
            halves = ((r1, c.t1, a * n + b, n), (r2, c.t2, b * n + a, 1))
            failing = [_on_legs(prod, n, r.apply_sparse(dict(t.col_sparse(col))).items())
                       != alg.mul_basis(col // n, col % n) for r, t, col, _ in halves]
            failing += [_on_legs(prod, n, _on_legs(s_op, n, t.apply_sparse(dict(r.col_sparse(col))).items(), s).items())
                        != _on_legs(prod, n, _on_legs(s_op, n, [(col, ONE)], s).items())
                        for r, t, col, s in halves]
            if any(failing):
                yield from (msg for bad, msg in zip(failing, (
                    f"sum a1 S(a2) a3 = a fails at ({_lbl(c, a)}, {_lbl(c, b)})",
                    f"contracted first identity fails at ({_lbl(c, b)}, {_lbl(c, a)})",
                    f"sum S(a1) a2 S(a3) = S(a) fails left at ({_lbl(c, a)}, {_lbl(c, b)})",
                    f"sum S(a1) a2 S(a3) = S(a) fails right at ({_lbl(c, a)}, {_lbl(c, b)})")) if bad)
    out += _first_failures(identity_failures(), {
        "thm29-identities": "both counit-style identities hold for the candidate antipode"})

    ranges_ok = (c.t1 * r1 == e_left) and (c.t2 * r2 == e_right)
    out.append(check("thm29-e-ranges", ranges_ok,
                     "T1 R1 and T2 R2 equal the candidate idempotent actions",
                     "T R differs from the candidate idempotent action"))

    # an idempotent multiplier is the candidate E the leg conditions test
    e_mult = Multiplier(c.aa, e_left, e_right)
    idempotent = e_mult * e_mult == e_mult
    law = idempotent and c.cache.multiplier_failure(e_mult)
    e_obj = e_mult if idempotent and not law else None

    def candidate_failures():
        if not idempotent:
            yield "candidate idempotent is not idempotent"
        elif law:
            yield f"candidate E is not a multiplier: {law}"
        else:
            try:
                yield from (r.detail for r in c.cache.e_conditions(c, e_obj) if r.status != PASS)
            except IllDefinedExtension as exc:
                yield str(exc)
    out += _first_failures(candidate_failures(), {
        "thm29-e-conditions": "candidate idempotent satisfies the leg conditions"})
    if any(r.status == FAIL for r in out):
        return out, None, e_obj

    s_inv = invert(s_mat)
    witness = AntipodeWitness(r1, r2, [Multiplier.of_element(alg, x) for x in s_cols],
                              s_mat, s_inv)
    return out, witness, e_obj


# ------------------------------------------------- regularity suite


def derive_flip_maps(w: AntipodeWitness) -> Tuple[Matrix, Matrix]:
    """T3 = (id (x) S^-1) R1 (id (x) S), T4 = (S^-1 (x) id) R2 (S (x) id),
    for an antipode that is a bijective matrix."""
    i_s, i_si, s_i, si_i = _s_conjugators(w)
    return i_si * w.r1 * i_s, si_i * w.r2 * s_i


def _s_conjugators(w: AntipodeWitness) -> Tuple[Matrix, Matrix, Matrix, Matrix]:
    """1 (x) S, 1 (x) S^-1, S (x) 1 and S^-1 (x) 1 on the tensor square, for
    a bijective antipode matrix; built once per witness."""
    def build():
        ident = Matrix.identity(w.s_matrix.rows)
        return (ident.kron(w.s_matrix), ident.kron(w.s_matrix_inv),
                w.s_matrix.kron(ident), w.s_matrix_inv.kron(ident))
    return w._once("conjugators", (), build)


def _f_multipliers(alg: Algebra, w: AntipodeWitness,
                   e: Multiplier) -> Tuple[Multiplier, Multiplier, Multiplier, Multiplier]:
    """F1..F4, E conjugated by S on one leg: F1 by 1 (x) S and F3 by
    1 (x) S^-1 as multipliers of A (x) A^op, F2 by S (x) 1 and F4 by
    S^-1 (x) 1 as multipliers of A^op (x) A.  The actions are built once
    per witness and E; the twisted squares are fresh at each call, so the
    lazy tables their law checks fill do not outlive the caller."""
    def build():
        i_s, i_si, s_i, si_i = _s_conjugators(w)
        return [(p * e.left * q, p * e.right * q)
                for p, q in ((i_s, i_si), (s_i, si_i), (i_si, i_s), (si_i, s_i))]
    op = alg.opposite()
    squares = (Algebra.tensor(alg, op), Algebra.tensor(op, alg))
    return tuple(Multiplier(squares[k % 2], left, right)
                 for k, (left, right) in enumerate(w._once("F", (e,), build)))


def regular_suite(c: CoproductData, e: Multiplier, g: ProjectionMaps,
                  w: AntipodeWitness) -> Tuple[List[CheckResult], Optional[Matrix],
                                               Optional[Matrix]]:
    """Everything in the regular case that does not need a re-entrant
    pipeline run: flip-map ranges, (S x S)E = sigma E, the F idempotents
    with their factorizations and leg-13 relations, and the
    flipped-coproduct canonical idempotent.  A non-regular antipode is a
    finding, reported by a passing "regular" check alone."""
    n, nn = c.n, c.nn
    if w.not_regular:
        return [passed("regular", "not regular: " + w.not_regular)], c.t3, c.t4
    out = [passed("regular", "antipode is a bijective matrix on the algebra")]

    t3 = c.t3
    t4 = c.t4
    d3, d4 = derive_flip_maps(w)
    if t3 is None:
        t3 = d3
    if t4 is None:
        t4 = d4
    derived_ok = (t3 == d3) and (t4 == d4)

    ran_ok = column_space(t3) == c.ran_t2() and column_space(t4) == c.ran_t1()
    out.append(check("regular-flip-ranges", ran_ok and derived_ok,
                     "flipped-side maps (supplied and derived agree) have the E ranges",
                     "flipped-side map ranges differ from the E-prescribed ones"
                     if not ran_ok else "supplied T3/T4 differ from the antipode-derived maps"))

    sigma = flip_map(n)
    ss = w.s_matrix.kron(w.s_matrix)
    ssi = w.s_matrix_inv.kron(w.s_matrix_inv)
    flip_ok = (ss * e.right * ssi == sigma * e.left * sigma) and \
        (ss * e.left * ssi == sigma * e.right * sigma)
    out.append(check("regular-ss-flip", flip_ok,
                     "(S x S)E = sigma E as multipliers",
                     "(S x S)E differs from sigma E"))
    # sigma is an involution, so the same equality is the appendix's E' = E
    out.append(check("appendix-e-flip", flip_ok,
                     "sigma (S x S) E equals E", "sigma (S x S) E differs from E"))

    fs = _f_multipliers(c.parent, w, e)

    fact_ok = (g.g1 == fs[0].right) and (g.g2 == fs[1].left)
    out.append(check("regular-f-factorization", fact_ok,
                     "G1(a (x) b) = (a (x) 1)F1(1 (x) b) and mirrored, with F from E",
                     "G maps do not factor through the antipode-built F idempotents"))

    # conjugates of E inherit idempotency; the real content is that each
    # is a multiplier of its twisted square
    f_ok = all(f * f == f for f in fs) and not any(map(c.cache.multiplier_failure, fs))
    out.append(check("regular-f-formulas", f_ok,
                     "F1..F4 from E are idempotent multipliers of the twisted squares",
                     "an F idempotent fails multiplier laws"))

    # Plain tensor-square actions of F1..F4 go through the sandwich
    # products (1 (x) q)E(p (x) 1) and (p (x) 1)E(1 (x) q); those exist in
    # the regular case and are recovered by stripping a covering factor.
    def relation_failures():
        sand = _sandwich_tables(c, e)
        if sand is None:
            yield "a sandwich product of E escapes the tensor square"
            return
        sand_a, sand_b = sand
        smat, sinv = w.s_matrix, w.s_matrix_inv
        f1_lam = _f_action(c, sand_a, sinv, smat, contract_first=False)
        f3_lam = _f_action(c, sand_a, smat, sinv, contract_first=False)
        f2_lam = _f_action(c, sand_b, sinv, smat, contract_first=True)
        f4_rho = _f_action(c, sand_a, smat, sinv, contract_first=True)

        def on12(m: Matrix, v: SparseVec) -> SparseVec:
            return _on_legs(m._sparse_cols(), nn, v.items(), n)

        def on23(m: Matrix, v: SparseVec) -> SparseVec:
            return _on_legs(m._sparse_cols(), nn, v.items())

        for idx in range(n ** 3):
            x = {idx: ONE}
            lhs1 = apply_on_legs13(e.left, on12(f1_lam, x), n)
            rhs1 = apply_on_legs13(e.left, on23(e.left, x), n)
            if lhs1 != rhs1:
                yield f"E13(F1 x 1) != E13(1 x E) at {_lbl3(c, idx)}"
            w13l = apply_on_legs13(e.left, x, n)
            if on12(f3_lam, w13l) != on23(e.left, w13l):
                yield f"(F3 x 1)E13 != (1 x E)E13 at {_lbl3(c, idx)}"
            if on23(f2_lam, w13l) != on12(e.left, w13l):
                yield f"(1 x F2)E13 != (E x 1)E13 at {_lbl3(c, idx)}"
            w13r = apply_on_legs13(e.right, x, n)
            if on23(f4_rho, w13r) != on12(e.right, w13r):
                yield f"E13(1 x F4) != E13(E x 1) at {_lbl3(c, idx)}"
    out += _first_failures(relation_failures(), {
        "regular-f-relations": "the four leg-13 relations hold for F1..F4"})

    # flipped-coproduct presentation: canonical idempotent must be sigma E
    try:
        e_cop = compute_E(CoproductData(c.parent, sigma * t4 * sigma, sigma * t3 * sigma,
                                        cache=c.cache))
        out.append(check("regular-cop-idempotent", e_cop.left == sigma * e.left * sigma
                         and e_cop.right == sigma * e.right * sigma,
                         "flipped-coproduct presentation has canonical idempotent sigma E",
                         "flipped-coproduct idempotent differs from sigma E"))
    except (NoSuchIdempotent, NotIdempotent, AmbiguousE) as exc:
        out.append(failed("regular-cop-idempotent", f"flipped-coproduct idempotent: {exc}"))
    return out, t3, t4


# ------------------------------------------------- weak Hopf suite


def weak_hopf_suite(c: CoproductData, e: Multiplier, st: SourceTargetWitness,
                    counit: list, unit: Optional[SparseVec],
                    regular: bool = True) -> List[CheckResult]:
    n = c.n
    if unit is None:
        return [CheckResult(cid, SKIP, "not applicable: algebra has no unit") for cid in
                ("weak-hopf-counit", "weak-hopf-counit-op", "weak-hopf-antipode-formulas")]

    alg = c.parent
    eps = _counit_cols(counit)

    def eps_of(vec: SparseVec) -> Scalar:
        return _on_legs(eps, 1, vec.items()).get(0, ZERO)

    # coproduct of each basis element as an honest tensor (unital case)
    delta = [c.t1.apply_sparse({b * n + j: uj for j, uj in unit.items()})
             for b in range(n)]

    # the first form feeds weak-hopf-counit, the second weak-hopf-counit-op
    def counit_failures():
        for a, b, cc in product(range(n), repeat=3):
            lhs = eps_of(c.parent.mul_sparse(c.parent.mul_basis(a, b), {cc: ONE}))
            rhs1 = _dot((v * eps_of(c.parent.mul_basis(a, key % n)),
                         eps_of(c.parent.mul_basis(key // n, cc)))
                        for key, v in delta[b].items())
            rhs2 = _dot((v * eps_of(c.parent.mul_basis(a, key // n)),
                         eps_of(c.parent.mul_basis(key % n, cc)))
                        for key, v in delta[b].items())
            if lhs != rhs1:
                yield "weak-hopf-counit", f"first weak-multiplicativity identity fails at ({_lbl(c, a)},{_lbl(c, b)},{_lbl(c, cc)})"
            if lhs != rhs2:
                yield "weak-hopf-counit-op", f"second weak-multiplicativity identity fails at ({_lbl(c, a)},{_lbl(c, b)},{_lbl(c, cc)})"
    out = _first_failures(counit_failures(), {
        "weak-hopf-counit": "counit is weakly multiplicative (first form)",
        "weak-hopf-counit-op": "counit is weakly multiplicative (second form)"})
    if out[1].status == FAIL and not regular:
        # only an axiom under regularity; recorded, not failed
        out[1] = CheckResult("weak-hopf-counit-op", SKIP, f"recorded without regularity: {out[1].detail}")

    e_elem = e.left.apply_sparse({i * n + j: ui * uj for i, ui in unit.items()
                                  for j, uj in unit.items()}).items()
    def formula_failures():
        for a in range(n):
            # eps contracted off the leg that e_a multiplies: E(a x 1) on leg 1,
            # (1 x a)E on leg 2
            for s, mult, value, what in (
                    (n, alg._right_cols(a), st.eps_t[a], f"(eps x id)(E({_lbl(c, a)} x 1)) != eps_t({_lbl(c, a)})"),
                    (1, alg._left_cols(a), st.eps_s[a], f"(id x eps)((1 x {_lbl(c, a)})E) != eps_s({_lbl(c, a)})")):
                if _on_legs(eps, 1, _on_legs(mult, n, e_elem, s).items(), s) != \
                        value.left.apply_sparse(unit):
                    yield what
    return out + _first_failures(formula_failures(), {
        "weak-hopf-antipode-formulas": "counit contractions of E reproduce source/target values"})


# ------------------------------------------------- star suite


def star_suite(c: CoproductData, e: Multiplier, w: AntipodeWitness,
               star: StarStructure, t3: Optional[Matrix],
               t4: Optional[Matrix]) -> List[CheckResult]:
    n, nn = c.n, c.nn
    jmat = star.star_matrix
    jj = jmat.kron(jmat)

    # regular_suite supplies T3/T4 whenever S is bijective
    if t3 is None or t4 is None:
        return [failed("star-compatible", "star input with an antipode that does not map A to A"
                       if w.s_matrix is None else "star input with an antipode that is not bijective")]

    def failures():
        # coproduct is a star-homomorphism: T3(a* (x) b*) = T1(a (x) b)*
        for a in range(n):
            sa = jmat.col_sparse(a)     # e_a* = J e_a
            for b in range(n):
                arg = {i * n + j: vi * vj for i, vi in sa for j, vj in jmat.col_sparse(b)}
                if t3.apply_sparse(arg) != star_on(jj, dict(c.t1.col_sparse(a * n + b))):
                    yield f"T3(a* (x) b*) != T1(a (x) b)* at ({_lbl(c, a)},{_lbl(c, b)})"
                if t4.apply_sparse(arg) != star_on(jj, dict(c.t2.col_sparse(a * n + b))):
                    yield f"T4(a* (x) b*) != T2(a (x) b)* at ({_lbl(c, a)},{_lbl(c, b)})"

        # S(S(a)*)* = a
        if w.s_matrix is None:
            yield "star structure present but the antipode is not a matrix"
            return
        for a in range(n):
            v = star_on(jmat, dict(w.s_matrix.col_sparse(a)))
            if star_on(jmat, w.s_matrix.apply_sparse(v)) != {a: ONE}:
                yield f"S(S({_lbl(c, a)})*)* != {_lbl(c, a)}"

        # E* = E
        for x in range(nn):
            if star_on(jj, e.right.apply_sparse(star_on(jj, {x: ONE}))) != dict(e.left.col_sparse(x)):
                yield f"E* != E at {_lbl2(c, x)}"

        # F1* = F3 and F2* = F4
        if w.s_matrix_inv is None:
            return
        f1, f2, f3, f4 = _f_multipliers(c.parent, w, e)
        for x in range(nn):
            sx = star_on(jj, {x: ONE})
            # F* = F' as E* = E: the right action of F against the left one
            # of F', and the left against the right
            for fa, fb, what in ((f1, f3, "F1* != F3"), (f2, f4, "F2* != F4")):
                if any(star_on(jj, p.apply_sparse(sx)) != dict(q.col_sparse(x))
                       for p, q in ((fa.right, fb.left), (fa.left, fb.right))):
                    yield f"{what} at {_lbl2(c, x)}"
    return _first_failures(failures(), {"star-compatible": "coproduct is a star-homomorphism; "
                                        "E* = E; S twisted-involutive; F1* = F3, F2* = F4"})


# ------------------------------------------------- appendix suite


def appendix_suite(c: CoproductData, e: Multiplier, w: AntipodeWitness,
                   st: SourceTargetWitness) -> List[CheckResult]:
    """The identity suite for the flipped-E treatment: the collapsed
    multiplication of S across E, the source/target exchange under S and
    the absorption of source/target values across the legs of E.  E' = E
    is reported by regular_suite, with the equality it shares."""
    n = c.n

    # the maps m(S x id) and m(id x S) on the tensor square, for E's left
    # and right actions
    m_s1 = [w.s[i].left.col_sparse(j) for i in range(n) for j in range(n)]
    m_s2 = [w.s[j].right.col_sparse(i) for i in range(n) for j in range(n)]

    def collapse_failures():
        for a, b in product(range(n), repeat=2):
            if _on_legs(m_s1, n, e.left.col_sparse(a * n + b)) != dict(w.s[a].left.col_sparse(b)):
                yield f"m(S x id)E does not collapse at ({_lbl(c, a)}, {_lbl(c, b)})"
            if _on_legs(m_s2, n, e.right.col_sparse(a * n + b)) != dict(w.s[b].right.col_sparse(a)):
                yield f"m(id x S)E does not collapse at ({_lbl(c, a)}, {_lbl(c, b)})"
    out = _first_failures(collapse_failures(), {
        "appendix-inverse-unit": "multiplying S across the legs of E collapses to S itself"})

    if w.not_regular:
        return out

    def s_of_mult(m: Multiplier) -> Multiplier:
        return Multiplier(c.parent,
                          w.s_matrix * m.right * w.s_matrix_inv,
                          w.s_matrix * m.left * w.s_matrix_inv)

    def swap_failures():
        for a in range(n):
            sa = dict(w.s_matrix.col_sparse(a))
            if s_of_mult(st.eps_t[a]) != _combine_multipliers(c.parent, st.eps_s, sa):
                yield f"S(eps_t({_lbl(c, a)})) != eps_s(S({_lbl(c, a)}))"
            if s_of_mult(st.eps_s[a]) != _combine_multipliers(c.parent, st.eps_t, sa):
                yield f"S(eps_s({_lbl(c, a)})) != eps_t(S({_lbl(c, a)}))"
    out += _first_failures(swap_failures(), {
        "appendix-source-target-swap": "S exchanges the source and target maps"})

    def absorption_failures():
        ident = Matrix.identity(n)
        for msrc in st.eps_s:
            y = Multiplier(c.aa, msrc.left.kron(ident), msrc.right.kron(ident))
            sy = s_of_mult(msrc)
            if e * y != e * Multiplier(c.aa, ident.kron(sy.left), ident.kron(sy.right)):
                yield "E(y (x) 1) != E(1 (x) S(y)) on the source image"
        for mtar in st.eps_t:
            x1 = Multiplier(c.aa, ident.kron(mtar.left), ident.kron(mtar.right))
            sx = s_of_mult(mtar)
            if x1 * e != Multiplier(c.aa, sx.left.kron(ident), sx.right.kron(ident)) * e:
                yield "(1 (x) x)E != (S(x) (x) 1)E on the target image"
    return out + _first_failures(absorption_failures(), {
        "appendix-e-absorption": "E absorbs source/target values across its legs through S"})


# ------------------------------------------------- sandwich actions of E


def _strip_echelon(c: CoproductData, mult_cols, s: int) -> Tuple[Matrix, Echelon]:
    """The maps x -> (multiplication by e_y on one leg)(x) stacked over y,
    and their solvable echelon; stripping through them is injective for a
    non-degenerate product.  mult_cols(y) gives the multiplication's
    columns (Algebra._left_cols or _right_cols), s the leg's stride."""
    n, nn = c.n, c.nn
    stack = Matrix.from_sparse_cols(n * nn, [
        {y * nn + key: v for y in range(n)
         for key, v in _on_legs(mult_cols(y), n, [(col, ONE)], s).items()}
        for col in range(nn)])
    return stack, Echelon(stack, solvable=True)


def _sandwich_tables(c: CoproductData, e: Multiplier):
    """sand_a[p][q] = (1 (x) e_q) E (e_p (x) 1) and
    sand_b[p][q] = (e_p (x) 1) E (1 (x) e_q), as sparse vectors; None when
    a sandwich escapes the tensor square.  Each is recovered from its
    products with e_y on the other side of the leg that e_p (e_q) covers:
    (1 (x) e_q) E(e_p (x) e_y) stripped of x -> x (1 (x) e_y), and
    (e_p (x) 1) E(e_y (x) e_q) stripped of x -> x (e_y (x) 1)."""
    n, nn = c.n, c.nn
    alg = c.parent
    tables = []
    for s in (1, n):
        stack, ech = _strip_echelon(c, alg._right_cols, s)
        if ech.rank < nn:
            return None
        table: List[List[SparseVec]] = [[{} for _ in range(n)] for _ in range(n)]
        for p, q in product(range(n), repeat=2):
            mult, cols = (alg._left_cols(q), [p * n + y for y in range(n)]) if s == 1 else \
                (alg._left_cols(p), [y * n + q for y in range(n)])
            x = [(y * nn + row, v) for y, col in enumerate(cols) for row, v in e.left.col_sparse(col)]
            sol = ech.solve_sparse(_on_legs(mult, n, x, s), stack)
            if sol is None:
                return None
            table[p][q] = sol
        tables.append(table)
    return tables


def _f_action(c: CoproductData, table, contract: Matrix, post: Matrix,
              contract_first: bool) -> Matrix:
    """Assemble a plain action matrix of an F idempotent on the tensor
    square from a sandwich table, a contraction through S (or its
    inverse) on one input leg and a post-composition on one output leg."""
    n, nn = c.n, c.nn
    cols = []
    for i in range(n):
        for j in range(n):
            acc: dict = {}
            if contract_first:
                for k, v in contract.col_sparse(i):
                    _accumulate(acc, table[k][j].items(), v)
            else:
                for k, v in contract.col_sparse(j):
                    _accumulate(acc, table[i][k].items(), v)
            # the post-composition on the first (contract_first) or second leg
            cols.append(_on_legs(post._sparse_cols(), n, _settle(acc).items(),
                                 n if contract_first else 1))
    return Matrix.from_sparse_cols(nn, cols)

"""Antipode construction and the property suites built on it.

From the generalized inverses R1/R2 of the canonical maps the two
one-sided antipodes are extracted by counit contraction; their agreement
certifies the antipode S: A -> M(A).  On top of S sit the source/target
maps, the regularity suite, the star suite, the weak-Hopf counit
identities and the flipped-E identity suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebras import (Algebra, Element, Multiplier, SparseVec, flip_map,
                       sparse_to_vec, vec_to_sparse, StarStructure)
from .coproducts import (AmbiguousE, CanonicalIdempotent, CoproductData,
                         IllDefinedExtension, NoSuchIdempotent, NotIdempotent,
                         ProjectionMaps, apply_on_legs12, apply_on_legs13,
                         apply_on_legs23, extend_delta, compute_E,
                         _lbl, _lbl2, _lbl3, _mult_leg1, _mult_leg1_right,
                         _mult_leg2, _mult_leg2_right)
from .linalg import (Echelon, Matrix, Subspace, _combination, column_space,
                     generalized_inverse, invert)
from .report import CheckResult, check, failed, passed, skipped
from .scalars import ONE, ZERO, Scalar, _accumulate, _dot, _settle, _sum_products


class AntipodesDisagree(Exception):
    def __init__(self, message: str, checks: Optional[list] = None):
        super().__init__(message)
        self.checks = checks or []


# ---------------------------------------------------------------- R maps


def build_generalized_inverses(c: CoproductData, e: CanonicalIdempotent,
                               g: ProjectionMaps) -> Tuple[Matrix, Matrix, List[CheckResult]]:
    """R1, R2 with T R = E-action and R T = G, plus their module and
    commutation laws."""
    out: List[CheckResult] = []
    r1 = generalized_inverse(c.t1, e.left, g.g1)
    r2 = generalized_inverse(c.t2, e.right, g.g2)

    bad = _r_module_witness(c, r1, r2)
    lemma = (c.t1 * r1 * c.t1 == c.t1) and (r1 * c.t1 * r1 == r1) and \
        (c.t2 * r2 * c.t2 == c.t2) and (r2 * c.t2 * r2 == r2)
    out.append(check("generalized-inverses", bad is None and lemma,
                     "T1 R1 = E-left, R1 T1 = G1 (mirrored), with module laws",
                     bad or "generalized inverse identities fail"))

    comm_bad = None
    n = c.n
    for idx in range(n ** 3):
        x = {idx: ONE}
        lhs = apply_on_legs23(r1, apply_on_legs12(c.t2, x, n), n)
        rhs = apply_on_legs12(c.t2, apply_on_legs23(r1, x, n), n)
        if lhs != rhs:
            comm_bad = f"(T2 x id)(id x R1) != (id x R1)(T2 x id) at {_lbl3(c, idx)}"
            break
        lhs = apply_on_legs12(r2, apply_on_legs23(c.t1, x, n), n)
        rhs = apply_on_legs23(c.t1, apply_on_legs12(r2, x, n), n)
        if lhs != rhs:
            comm_bad = f"(id x T1)(R2 x id) != (R2 x id)(id x T1) at {_lbl3(c, idx)}"
            break
    out.append(check("r-commutation", comm_bad is None,
                     "R maps commute with the opposite-side canonical maps",
                     comm_bad or ""))
    return r1, r2, out


def _r_module_witness(c: CoproductData, r1: Matrix, r2: Matrix) -> Optional[str]:
    n = c.n
    for a in range(n):
        for b in range(n):
            col1 = dict(r1.col_sparse(a * n + b))
            col2 = dict(r2.col_sparse(a * n + b))
            for x in range(n):
                lhs = r1.apply_sparse({a * n + k: v
                                       for k, v in c.parent.mul_basis(b, x).items()})
                if lhs != _mult_leg2_right(c, col1, x):
                    return f"R1 module law fails at ({_lbl(c, a)}, {_lbl(c, b)}, {_lbl(c, x)})"
                lhs2 = r2.apply_sparse({k * n + b: v
                                        for k, v in c.parent.mul_basis(x, a).items()})
                if lhs2 != _mult_leg1(c, x, col2):
                    return f"R2 module law fails at ({_lbl(c, x)}, {_lbl(c, a)}, {_lbl(c, b)})"
    return None


# ---------------------------------------------------------------- antipode


@dataclass
class AntipodeWitness:
    r1: Matrix
    r2: Matrix
    s_left: List[Matrix]       # S1(e_a) as left-multiplier matrices
    s_right: List[Matrix]      # S2(e_a) as right-multiplier matrices
    s_matrix: Optional[Matrix]  # present when S maps A into A
    s_matrix_inv: Optional[Matrix] = None

    def s_mult(self, parent: Algebra, coeffs) -> Multiplier:
        """S applied to an element, as a multiplier (linear extension)."""
        return _combine_multipliers(parent, self.s_left, self.s_right,
                                    vec_to_sparse(coeffs))


def _combine_multipliers(parent: Algebra, lefts: List[Matrix], rights: List[Matrix],
                         coeffs: SparseVec) -> Multiplier:
    """Σ_k coeffs[k]·(lefts[k], rights[k]) as a multiplier."""
    n = parent.dim
    return Multiplier(parent,
                      _combination(((v, lefts[k]) for k, v in coeffs.items()), n, n),
                      _combination(((v, rights[k]) for k, v in coeffs.items()), n, n))


def _multiply_legs(c: CoproductData, x) -> SparseVec:
    """The product map m(p (x) q) = pq applied to the (index, value)
    pairs of a tensor-square vector."""
    n = c.n
    acc: dict = {}
    for row, v in x:
        _accumulate(acc, c.parent.mul_basis(row // n, row % n).items(), v)
    return _settle(acc)

    @property
    def regular(self) -> bool:
        return self.s_matrix_inv is not None


def compute_antipode(c: CoproductData, e: CanonicalIdempotent, r1: Matrix,
                     r2: Matrix, counit: list) -> Tuple[AntipodeWitness, List[CheckResult]]:
    """S1 from R1 by (eps (x) id), S2 from R2 by (id (x) eps); certify
    they give one multiplier-valued map, then flatten to a matrix when
    every value lies in the embedded copy of the algebra."""
    n = c.n
    out: List[CheckResult] = []
    s_left = []
    s_right = []
    for a in range(n):
        left = Matrix.zero(n, n)
        right = Matrix.zero(n, n)
        for b in range(n):
            for j, v in _sum_products((row % n, counit[row // n], v)
                                      for row, v in r1.col_sparse(a * n + b)).items():
                left.data[j][b] = v
            for i, v in _sum_products((row // n, counit[row % n], v)
                                      for row, v in r2.col_sparse(b * n + a)).items():
                right.data[i][b] = v
        s_left.append(left)
        s_right.append(right)

    # left/right multiplier laws for each S value
    law_bad = None
    for a in range(n):
        for i in range(n):
            li = dict(s_left[a].col_sparse(i))
            for j in range(n):
                prod = c.parent.mul_basis(i, j)
                if s_left[a].apply_sparse(prod) != c.parent.mul_sparse(li, {j: ONE}):
                    law_bad = f"S1({_lbl(c, a)}) is not a left multiplier at ({_lbl(c, i)},{_lbl(c, j)})"
                    break
                if s_right[a].apply_sparse(prod) != \
                        c.parent.mul_sparse({i: ONE}, dict(s_right[a].col_sparse(j))):
                    law_bad = f"S2({_lbl(c, a)}) is not a right multiplier at ({_lbl(c, i)},{_lbl(c, j)})"
                    break
            if law_bad:
                break
        if law_bad:
            break
    out.append(check("antipode-defined", law_bad is None,
                     "counit contractions of R1/R2 give one-sided multipliers",
                     law_bad or ""))

    agree_bad = None
    for a in range(n):
        for b in range(n):
            eb = {b: ONE}
            for cc in range(n):
                lhs = c.parent.mul_sparse(eb, dict(s_left[a].col_sparse(cc)))
                rhs = c.parent.mul_sparse(dict(s_right[a].col_sparse(b)), {cc: ONE})
                if lhs != rhs:
                    agree_bad = f"b(S1(a)c) != (bS2(a))c at (a,b,c)=({_lbl(c, a)},{_lbl(c, b)},{_lbl(c, cc)})"
                    break
            if agree_bad:
                break
        if agree_bad:
            break
    if agree_bad is not None:
        out.append(failed("antipodes-agree", agree_bad))
        raise AntipodesDisagree(agree_bad, out)
    out.append(passed("antipodes-agree", "S1 = S2 as a multiplier-valued map"))

    # flatten to a matrix when each S(e_a) is an embedded element
    cols = []
    for a in range(n):
        el = Multiplier(c.parent, s_left[a], s_right[a]).as_element()
        if el is None:
            cols = None
            break
        cols.append(el.coeffs)
    s_matrix = Matrix.from_cols(cols) if cols is not None else None
    s_inv = invert(s_matrix) if s_matrix is not None else None
    return AntipodeWitness(r1, r2, s_left, s_right, s_matrix, s_inv), out


# ------------------------------------------------- identity suite (S)


def check_antipode_identities(c: CoproductData, e: CanonicalIdempotent,
                              g: ProjectionMaps, w: AntipodeWitness,
                              counit: list) -> List[CheckResult]:
    out: List[CheckResult] = []
    n = c.n

    def mulv(x: SparseVec, y: SparseVec) -> SparseVec:
        return c.parent.mul_sparse(x, y)

    # both counit-style identities, in left- and right-contracted form;
    # the source/target values enter through their G-contraction form
    bad = None
    for a in range(n):
        for b in range(n):
            if _multiply_legs(c, g.g1.col_sparse(a * n + b)) != c.parent.mul_basis(a, b):
                bad = f"sum a1 S(a2) a3 = a fails against ({_lbl(c, a)}, {_lbl(c, b)})"
                break
            if _multiply_legs(c, g.g2.col_sparse(a * n + b)) != c.parent.mul_basis(a, b):
                bad = f"c(sum a1 S(a2) a3) = ca fails against ({_lbl(c, a)}, {_lbl(c, b)})"
                break
            # sum S(a1) a2 S(a3) = S(a)
            acc: dict = {}
            for row, v in w.r1.col_sparse(a * n + b):
                _accumulate(acc, _epsi_g1(c, g, counit, row // n, row % n).items(), v)
            if _settle(acc) != dict(w.s_left[a].col_sparse(b)):
                bad = f"sum S(a1) a2 S(a3) = S(a) fails left at ({_lbl(c, a)}, {_lbl(c, b)})"
                break
            acc = {}
            for row, v in w.r2.col_sparse(b * n + a):
                _accumulate(acc, _ieps_g2(c, g, counit, row // n, row % n).items(), v)
            if _settle(acc) != dict(w.s_right[a].col_sparse(b)):
                bad = f"sum S(a1) a2 S(a3) = S(a) fails right at ({_lbl(c, a)}, {_lbl(c, b)})"
                break
        if bad:
            break
    out.append(check("antipode-counit-identities", bad is None,
                     "both antipode identities hold as one-sided multiplier equalities",
                     bad or ""))

    # the contracted equalities behind S1 = S2
    rem_bad = None
    for s in range(n):
        for a in range(n):
            for p in range(n):
                lhs1 = mulv(_ieps_g2(c, g, counit, s, a), {p: ONE})
                rhs1 = mulv({s: ONE}, _multiply_legs(c, w.r1.col_sparse(a * n + p)))
                if lhs1 != rhs1:
                    rem_bad = f"first contracted equality fails at ({_lbl(c, s)},{_lbl(c, a)},{_lbl(c, p)})"
                    break
                lhs2 = mulv(_multiply_legs(c, w.r2.col_sparse(s * n + a)), {p: ONE})
                rhs2 = mulv({s: ONE}, _epsi_g1(c, g, counit, a, p))
                if lhs2 != rhs2:
                    rem_bad = f"second contracted equality fails at ({_lbl(c, s)},{_lbl(c, a)},{_lbl(c, p)})"
                    break
            if rem_bad:
                break
        if rem_bad:
            break
    out.append(check("antipode-remark-equalities", rem_bad is None,
                     "contracted one-sided antipode sums agree (equivalent to S1 = S2)",
                     rem_bad or ""))

    # anti-multiplicativity as multiplier equality
    anti_bad = None
    for a in range(n):
        for b in range(n):
            sab = _combine_multipliers(c.parent, w.s_left, w.s_right, c.parent.mul_basis(a, b))
            if sab.left != w.s_left[b] * w.s_left[a] or sab.right != w.s_right[a] * w.s_right[b]:
                anti_bad = f"S({_lbl(c, a)} {_lbl(c, b)}) != S({_lbl(c, b)})S({_lbl(c, a)})"
                break
        if anti_bad:
            break
    out.append(check("antipode-antimultiplicative", anti_bad is None,
                     "S(ab) = S(b)S(a) on all basis pairs", anti_bad or ""))

    # A S(A) = A and S(A) A = A, spanned by the e_a S(e_b) and the S(e_b) e_a
    pairs = [(a, b) for a in range(n) for b in range(n)]
    span_r = Subspace.from_vectors(n, (w.s_right[b].col(a) for a, b in pairs))
    span_l = Subspace.from_vectors(n, (w.s_left[b].col(a) for a, b in pairs))
    out.append(check("antipode-spans", span_r.dim == n and span_l.dim == n,
                     "A S(A) and S(A) A span the algebra",
                     f"spans have dims {span_r.dim} and {span_l.dim} of {n}"))

    # anti-coalgebra identity with E on both sides
    anti_cop_bad = None
    for a in range(n):
        sa = w.s_mult(c.parent, [ONE if i == a else ZERO for i in range(n)])
        lhs = extend_delta(c, e, sa)
        theta = _flipped_ss_coproduct(c, w, a)
        e_mult = e.multiplier
        if lhs != e_mult * theta or lhs != theta * e_mult:
            anti_cop_bad = f"coproduct(S({_lbl(c, a)})) != E-damped flipped (S x S) coproduct"
            break
    out.append(check("antipode-anticoproduct", anti_cop_bad is None,
                     "coproduct of S(a) equals the E-two-sided flipped image",
                     anti_cop_bad or ""))
    return out


def _ieps_g2(c: CoproductData, g: ProjectionMaps, counit, s: int, a: int) -> SparseVec:
    """(id (x) eps)(G2(e_s (x) e_a))"""
    n = c.n
    return _sum_products((row // n, v, counit[row % n])
                         for row, v in g.g2.col_sparse(s * n + a))


def _epsi_g1(c: CoproductData, g: ProjectionMaps, counit, a: int, p: int) -> SparseVec:
    """(eps (x) id)(G1(e_a (x) e_p))"""
    n = c.n
    return _sum_products((row % n, v, counit[row // n])
                         for row, v in g.g1.col_sparse(a * n + p))


def _flipped_ss_coproduct(c: CoproductData, w: AntipodeWitness, a: int) -> Multiplier:
    """sigma (S x S) coproduct(e_a) as a multiplier of the tensor square."""
    n, nn = c.n, c.nn
    left = Matrix.zero(nn, nn)
    right = Matrix.zero(nn, nn)
    for cc in range(n):
        for b in range(n):
            # left action on (cc (x) b): sum S(a1) cc (x) S(a2) b, then flip input/output
            acc: dict = {}
            for row, v in w.r1.col_sparse(a * n + b):
                i, j = divmod(row, n)
                _accumulate(acc, w.s_left[i].col_sparse(cc), v, base=j, stride=n)
            acc = _settle(acc)
            # acc = (S x S)coproduct(a) . (cc (x) b); flip to get sigma-conjugation
            col = b * n + cc  # input flipped
            for key, v in acc.items():
                k1, k2 = divmod(key, n)
                left.data[k2 * n + k1][col] = v
            acc2: dict = {}
            for row, v in w.r2.col_sparse(cc * n + a):
                u_, v_ = divmod(row, n)
                _accumulate(acc2, w.s_right[v_].col_sparse(b), v, base=u_ * n)
            acc2 = _settle(acc2)
            col = b * n + cc
            for key, v in acc2.items():
                k1, k2 = divmod(key, n)
                right.data[k2 * n + k1][col] = v
    return Multiplier(c.aa, left, right)


# ------------------------------------------------- source and target maps


@dataclass
class SourceTargetWitness:
    eps_s: List[Multiplier]
    eps_t: List[Multiplier]
    image_s: Subspace
    image_t: Subspace


def compute_source_target(c: CoproductData, e: CanonicalIdempotent,
                          g: ProjectionMaps, w: AntipodeWitness,
                          counit: list) -> Tuple[SourceTargetWitness, List[CheckResult]]:
    out: List[CheckResult] = []
    n = c.n
    eps_s: List[Multiplier] = []
    eps_t: List[Multiplier] = []
    for a in range(n):
        sl = Matrix.zero(n, n)
        sr = Matrix.zero(n, n)
        tl = Matrix.zero(n, n)
        tr = Matrix.zero(n, n)
        for b in range(n):
            for k, v in _epsi_g1(c, g, counit, a, b).items():
                sl.data[k][b] = v
            for k, v in _multiply_legs(c, w.r2.col_sparse(b * n + a)).items():
                sr.data[k][b] = v
            for k, v in _multiply_legs(c, w.r1.col_sparse(a * n + b)).items():
                tl.data[k][b] = v
            for k, v in _ieps_g2(c, g, counit, b, a).items():
                tr.data[k][b] = v
        eps_s.append(Multiplier(c.parent, sl, sr))
        eps_t.append(Multiplier(c.parent, tl, tr))

    valid_bad = None
    for a in range(n):
        bad = c.cache.multiplier_failures(eps_s[a], max_witnesses=1) or \
            c.cache.multiplier_failures(eps_t[a], max_witnesses=1)
        if bad:
            valid_bad = f"source/target value at {_lbl(c, a)} is not a multiplier: {bad[0]}"
            break
    out.append(check("source-target-defined", valid_bad is None,
                     "source and target values are honest multipliers",
                     valid_bad or ""))

    image_s = Subspace.from_vectors(2 * n * n, [m.coords() for m in eps_s])
    image_t = Subspace.from_vectors(2 * n * n, [m.coords() for m in eps_t])

    legs_s, legs_t = _e_leg_multipliers(c, e)
    leg_ok = image_s == Subspace.from_vectors(2 * n * n, legs_s) and \
        image_t == Subspace.from_vectors(2 * n * n, legs_t)
    out.append(check("source-target-legs", leg_ok,
                     f"images (dims {image_s.dim}, {image_t.dim}) equal the legs of E",
                     "source/target images differ from the legs of E"))

    cop_bad = None
    ident = Matrix.identity(n)
    for a in range(n):
        dt = extend_delta(c, e, eps_t[a])
        m1 = Multiplier(c.aa, eps_t[a].left.kron(ident), eps_t[a].right.kron(ident))
        if dt != e.multiplier * m1 or dt != m1 * e.multiplier:
            cop_bad = f"coproduct(eps_t({_lbl(c, a)})) != E (eps_t (x) 1) forms"
            break
        ds = extend_delta(c, e, eps_s[a])
        m2 = Multiplier(c.aa, ident.kron(eps_s[a].left), ident.kron(eps_s[a].right))
        if ds != e.multiplier * m2 or ds != m2 * e.multiplier:
            cop_bad = f"coproduct(eps_s({_lbl(c, a)})) != E (1 (x) eps_s) forms"
            break
    out.append(check("source-target-coproduct", cop_bad is None,
                     "coproducts of source/target values absorb into E", cop_bad or ""))

    # subalgebras, commuting with each other
    alg_bad = None
    for i in range(n):
        for j in range(n):
            if not image_s.contains((eps_s[i] * eps_s[j]).coords()):
                alg_bad = f"eps_s image not closed under product at ({_lbl(c, i)},{_lbl(c, j)})"
                break
            if not image_t.contains((eps_t[i] * eps_t[j]).coords()):
                alg_bad = f"eps_t image not closed under product at ({_lbl(c, i)},{_lbl(c, j)})"
                break
            if eps_s[i] * eps_t[j] != eps_t[j] * eps_s[i]:
                alg_bad = f"eps_s({_lbl(c, i)}) and eps_t({_lbl(c, j)}) do not commute"
                break
        if alg_bad:
            break
    out.append(check("source-target-commute", alg_bad is None,
                     "source and target images are commuting subalgebras",
                     alg_bad or ""))

    incl_bad = None
    for a in range(n):
        right_ideal = Subspace.from_vectors(
            n, [sparse_to_vec(c.parent.mul_basis(a, j), n) for j in range(n)])
        left_ideal = Subspace.from_vectors(
            n, [sparse_to_vec(c.parent.mul_basis(j, a), n) for j in range(n)])
        for m, tag in [(eps_s, "eps_s"), (eps_t, "eps_t")]:
            for x in range(n):
                if not right_ideal.contains(m[x].right.col(a)):
                    incl_bad = f"{_lbl(c, a)} {tag}(A) escapes {_lbl(c, a)} A"
                    break
                if not left_ideal.contains(m[x].left.col(a)):
                    incl_bad = f"{tag}(A) {_lbl(c, a)} escapes A {_lbl(c, a)}"
                    break
            if incl_bad:
                break
        if incl_bad:
            break
    out.append(check("source-target-inclusions", incl_bad is None,
                     "principal-ideal inclusions hold for source/target images",
                     incl_bad or ""))
    return SourceTargetWitness(eps_s, eps_t, image_s, image_t), out


def _e_leg_multipliers(c: CoproductData, e: CanonicalIdempotent):
    """Leg elements of E as multiplier coordinate vectors: functional
    slices of (c (x) 1) E (a (x) .) on the right leg (target side) and of
    (1 (x) a) E (. (x) c) on the left leg (source side)."""
    n = c.n
    legs_s = []
    legs_t = []
    for a in range(n):
        for cc in range(n):
            # target side
            mats_l = [Matrix.zero(n, n) for _ in range(n)]
            mats_r = [Matrix.zero(n, n) for _ in range(n)]
            for b in range(n):
                vecl = _mult_leg1(c, cc, dict(e.left.col_sparse(a * n + b)))
                for key, v in vecl.items():
                    k, j = divmod(key, n)
                    mats_l[k].data[j][b] = v
                vecr = _mult_leg1_right(c, dict(e.right.col_sparse(cc * n + b)), a)
                for key, v in vecr.items():
                    k, j = divmod(key, n)
                    mats_r[k].data[j][b] = v
            for k in range(n):
                legs_t.append(Multiplier(c.parent, mats_l[k], mats_r[k]).coords())
            # source side
            mats_l2 = [Matrix.zero(n, n) for _ in range(n)]
            mats_r2 = [Matrix.zero(n, n) for _ in range(n)]
            for b in range(n):
                vecl = _mult_leg2(c, a, dict(e.left.col_sparse(b * n + cc)))
                for key, v in vecl.items():
                    j, k = divmod(key, n)
                    mats_l2[k].data[j][b] = v
                vecr = _mult_leg2_right(c, dict(e.right.col_sparse(b * n + a)), cc)
                for key, v in vecr.items():
                    j, k = divmod(key, n)
                    mats_r2[k].data[j][b] = v
            for k in range(n):
                legs_s.append(Multiplier(c.parent, mats_l2[k], mats_r2[k]).coords())
    return legs_s, legs_t


# ------------------------------------------------- antipode-first path


def verify_via_antipode(c: CoproductData, s_mat: Matrix,
                        e_left: Matrix, e_right: Matrix) -> Tuple[List[CheckResult],
                                                                  Optional[AntipodeWitness],
                                                                  Optional[CanonicalIdempotent]]:
    """The alternative characterization: from a candidate antipode matrix
    and candidate idempotent actions, rebuild R1/R2, check both counit
    identities, the E range identities and the E leg conditions."""
    out: List[CheckResult] = []
    n, nn = c.n, c.nn
    s_cols = [vec_to_sparse(s_mat.col(a)) for a in range(n)]

    # strip (c (x) 1) products to recover R1; (1 (x) d) right products for R2
    stack1 = Matrix.zero(n * nn, nn)
    for cc in range(n):
        for col in range(nn):
            for key, v in _mult_leg1(c, cc, {col: ONE}).items():
                stack1.data[cc * nn + key][col] = v
    ech1 = Echelon(stack1, solvable=True)
    stack2, ech2 = _strip_echelon(c, leg=2)
    if ech1.rank < nn or ech2.rank < nn:
        out.append(failed("thm29-r-ranges",
                          "product is too degenerate to recover the R maps"))
        return out, None, None

    r1 = Matrix.zero(nn, nn)
    r2 = Matrix.zero(nn, nn)
    range_bad = None
    mul_basis = c.parent.mul_basis
    for a in range(n):
        for b in range(n):
            acc: dict = {}
            for cc in range(n):
                for row, v in c.t2.col_sparse(cc * n + a):
                    u, vv = divmod(row, n)
                    for k, sv in s_cols[vv].items():
                        _accumulate(acc, mul_basis(k, b).items(), v, sv, base=cc * nn + u * n)
            sol = ech1.solve_sparse(_settle(acc), stack1)
            if sol is None:
                range_bad = f"R1({_lbl(c, a)} (x) {_lbl(c, b)}) does not land in the tensor square"
                break
            for i, v in sol.items():
                r1.data[i][a * n + b] = v
            acc = {}
            for dd in range(n):
                for row, v in c.t1.col_sparse(b * n + dd):
                    u, vv = divmod(row, n)
                    for k, sv in s_cols[u].items():
                        _accumulate(acc, mul_basis(a, k).items(), v, sv, base=dd * nn + vv,
                                    stride=n)
            sol = ech2.solve_sparse(_settle(acc), stack2)
            if sol is None:
                range_bad = f"R2({_lbl(c, a)} (x) {_lbl(c, b)}) does not land in the tensor square"
                break
            for i, v in sol.items():
                r2.data[i][a * n + b] = v
        if range_bad:
            break
    out.append(check("thm29-r-ranges", range_bad is None,
                     "both R maps built from the candidate antipode land in A (x) A",
                     range_bad or ""))
    if range_bad:
        return out, None, None

    # the two identities (as contracted one-sided equalities)
    id_bad = None
    for a in range(n):
        sa = s_cols[a]
        for b in range(n):
            t1ab = r1.apply_sparse(dict(c.t1.col_sparse(a * n + b)))
            if _multiply_legs(c, t1ab.items()) != c.parent.mul_basis(a, b):
                id_bad = f"sum a1 S(a2) a3 = a fails at ({_lbl(c, a)}, {_lbl(c, b)})"
                break
            t2ba = r2.apply_sparse(dict(c.t2.col_sparse(b * n + a)))
            if _multiply_legs(c, t2ba.items()) != c.parent.mul_basis(b, a):
                id_bad = f"contracted first identity fails at ({_lbl(c, b)}, {_lbl(c, a)})"
                break
            acc = {}
            for row, v in r1.col_sparse(a * n + b):
                for row2, v2 in c.t1.col_sparse(row):
                    for k, sv in s_cols[row2 // n].items():
                        _accumulate(acc, mul_basis(k, row2 % n).items(), v * v2, sv)
            if _settle(acc) != c.parent.mul_sparse(sa, {b: ONE}):
                id_bad = f"sum S(a1) a2 S(a3) = S(a) fails left at ({_lbl(c, a)}, {_lbl(c, b)})"
                break
            acc = {}
            for row, v in r2.col_sparse(b * n + a):
                for row2, v2 in c.t2.col_sparse(row):
                    for k, sv in s_cols[row2 % n].items():
                        _accumulate(acc, mul_basis(row2 // n, k).items(), v * v2, sv)
            if _settle(acc) != c.parent.mul_sparse({b: ONE}, sa):
                id_bad = f"sum S(a1) a2 S(a3) = S(a) fails right at ({_lbl(c, a)}, {_lbl(c, b)})"
                break
        if id_bad:
            break
    out.append(check("thm29-identities", id_bad is None,
                     "both counit-style identities hold for the candidate antipode",
                     id_bad or ""))

    ranges_ok = (c.t1 * r1 == e_left) and (c.t2 * r2 == e_right)
    out.append(check("thm29-e-ranges", ranges_ok,
                     "T1 R1 and T2 R2 equal the candidate idempotent actions",
                     "T R differs from the candidate idempotent action"))

    e_mult = Multiplier(c.aa, e_left, e_right)
    cand_bad = None
    if e_left * e_left != e_left or e_right * e_right != e_right:
        cand_bad = "candidate idempotent is not idempotent"
    else:
        fails = c.cache.multiplier_failures(e_mult, max_witnesses=1)
        if fails:
            cand_bad = f"candidate E is not a multiplier: {fails[0]}"
    e_obj = None
    if cand_bad is None:
        e_obj = CanonicalIdempotent(e_mult, column_space(e_left).dim,
                                    column_space(e_right).dim)
        try:
            for r in c.cache.e_conditions(c, e_obj):
                if r.status != "pass":
                    cand_bad = r.detail
                    break
        except IllDefinedExtension as exc:
            cand_bad = str(exc)
    out.append(check("thm29-e-conditions", cand_bad is None,
                     "candidate idempotent satisfies the leg conditions",
                     cand_bad or ""))
    if any(r.status == "fail" for r in out):
        return out, None, e_obj

    s_inv = invert(s_mat)
    witness = AntipodeWitness(r1, r2,
                              [c.parent.mult_operator_left(Element(c.parent, s_mat.col(a)))
                               for a in range(n)],
                              [c.parent.mult_operator_right(Element(c.parent, s_mat.col(a)))
                               for a in range(n)],
                              s_mat, s_inv)
    return out, witness, e_obj


# ------------------------------------------------- regularity suite


@dataclass
class Classification:
    regular: bool = False
    star_compatible: Optional[bool] = None
    weak_hopf: bool = False
    hopf: bool = False
    unital: bool = False
    reasons: Dict[str, str] = None

    def as_dict(self) -> dict:
        out = {
            "wmha": None,  # filled by the pipeline
            "regular": self.regular,
            "star": self.star_compatible,
            "weak_hopf": self.weak_hopf,
            "hopf": self.hopf,
            "unital": self.unital,
        }
        if self.reasons:
            out["reasons"] = self.reasons
        return out


def derive_flip_maps(c: CoproductData, w: AntipodeWitness) -> Tuple[Optional[Matrix], Optional[Matrix]]:
    """T3 = (id (x) S^-1) R1 (id (x) S), T4 = (S^-1 (x) id) R2 (S (x) id),
    available once the antipode is a bijective matrix."""
    if w.s_matrix is None or w.s_matrix_inv is None:
        return None, None
    n = c.n
    ident = Matrix.identity(n)
    i_s = ident.kron(w.s_matrix)
    i_si = ident.kron(w.s_matrix_inv)
    s_i = w.s_matrix.kron(ident)
    si_i = w.s_matrix_inv.kron(ident)
    return i_si * w.r1 * i_s, si_i * w.r2 * s_i


def regular_suite(c: CoproductData, e: CanonicalIdempotent, g: ProjectionMaps,
                  w: AntipodeWitness) -> Tuple[List[CheckResult], Classification,
                                               Optional[Matrix], Optional[Matrix]]:
    """Everything in the regular case that does not need a re-entrant
    pipeline run: flip-map ranges, (S x S)E = sigma E, the F idempotents
    with their factorizations and leg-13 relations, and the
    flipped-coproduct canonical idempotent."""
    out: List[CheckResult] = []
    cls = Classification(reasons={})
    n, nn = c.n, c.nn

    regular = w.s_matrix is not None and w.s_matrix_inv is not None
    cls.regular = regular
    if w.s_matrix is None:
        cls.reasons["regular"] = "antipode does not map the algebra into itself"
    elif w.s_matrix_inv is None:
        cls.reasons["regular"] = "antipode matrix is not invertible"
    out.append(check("regular", regular,
                     "antipode is a bijective matrix on the algebra",
                     cls.reasons.get("regular", "")))
    if not regular:
        # a non-regular finding is reported, not failed; the dependent
        # identities are recorded as skipped
        out[-1] = passed("regular", "not regular: "
                         + cls.reasons.get("regular", "antipode not bijective"))
        for cid in ("regular-flip-ranges", "regular-ss-flip",
                    "regular-f-factorization", "regular-f-formulas",
                    "regular-f-relations", "regular-cop-idempotent"):
            out.append(skipped(cid, "regular"))
        return out, cls, c.t3, c.t4

    t3 = c.t3
    t4 = c.t4
    d3, d4 = derive_flip_maps(c, w)
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

    ident = Matrix.identity(n)
    sigma = flip_map(n)
    ss = w.s_matrix.kron(w.s_matrix)
    ssi = w.s_matrix_inv.kron(w.s_matrix_inv)
    lam_ss_e = ss * e.right * ssi
    rho_ss_e = ss * e.left * ssi
    flip_ok = (lam_ss_e == sigma * e.left * sigma) and (rho_ss_e == sigma * e.right * sigma)
    out.append(check("regular-ss-flip", flip_ok,
                     "(S x S)E = sigma E as multipliers",
                     "(S x S)E differs from sigma E"))

    i_s = ident.kron(w.s_matrix)
    i_si = ident.kron(w.s_matrix_inv)
    s_i = w.s_matrix.kron(ident)
    si_i = w.s_matrix_inv.kron(ident)
    f1 = (i_s * e.right * i_si, i_s * e.left * i_si)      # (rho, lambda) in twisted square
    f2 = (s_i * e.left * si_i, s_i * e.right * si_i)      # (lambda, rho)
    f3 = (i_si * e.left * i_s, i_si * e.right * i_s)
    f4 = (si_i * e.right * s_i, si_i * e.left * s_i)

    fact_ok = (g.g1 == f1[0]) and (g.g2 == f2[0])
    out.append(check("regular-f-factorization", fact_ok,
                     "G1(a (x) b) = (a (x) 1)F1(1 (x) b) and mirrored, with F from E",
                     "G maps do not factor through the antipode-built F idempotents"))

    f_ok = all(m * m == m for pair in (f1, f2, f3, f4) for m in pair)
    # conjugates of the E actions inherit idempotency; the real content is
    # that each pair is a multiplier of the half-opposite tensor square
    cop_alg_1 = Algebra.tensor(c.parent, c.parent.opposite())
    cop_alg_2 = Algebra.tensor(c.parent.opposite(), c.parent)
    laws = c.cache.multiplier_failures
    f_ok = f_ok and not laws(Multiplier(cop_alg_1, f1[1], f1[0]), 1)
    f_ok = f_ok and not laws(Multiplier(cop_alg_2, f2[0], f2[1]), 1)
    f_ok = f_ok and not laws(Multiplier(cop_alg_1, f3[0], f3[1]), 1)
    f_ok = f_ok and not laws(Multiplier(cop_alg_2, f4[1], f4[0]), 1)
    out.append(check("regular-f-formulas", f_ok,
                     "F1..F4 from E are idempotent multipliers of the twisted squares",
                     "an F idempotent fails multiplier laws"))

    # Plain tensor-square actions of F1..F4 go through the sandwich
    # products (1 (x) q)E(p (x) 1) and (p (x) 1)E(1 (x) q); those exist in
    # the regular case and are recovered by stripping a covering factor.
    rel_bad = None
    sand = _sandwich_tables(c, e)
    if sand is None:
        rel_bad = "a sandwich product of E escapes the tensor square"
    else:
        sand_a, sand_b = sand
        smat, sinv = w.s_matrix, w.s_matrix_inv
        f1_lam = _f_action(c, sand_a, sinv, smat, contract_first=False)
        f3_lam = _f_action(c, sand_a, smat, sinv, contract_first=False)
        f2_lam = _f_action(c, sand_b, sinv, smat, contract_first=True)
        f4_rho = _f_action(c, sand_a, smat, sinv, contract_first=True)
        for idx in range(n ** 3):
            x = {idx: ONE}
            lhs1 = apply_on_legs13(e.left, apply_on_legs12(f1_lam, x, n), n)
            rhs1 = apply_on_legs13(e.left, apply_on_legs23(e.left, x, n), n)
            if lhs1 != rhs1:
                rel_bad = f"E13(F1 x 1) != E13(1 x E) at {_lbl3(c, idx)}"
                break
            w13l = apply_on_legs13(e.left, x, n)
            if apply_on_legs12(f3_lam, w13l, n) != apply_on_legs23(e.left, w13l, n):
                rel_bad = f"(F3 x 1)E13 != (1 x E)E13 at {_lbl3(c, idx)}"
                break
            if apply_on_legs23(f2_lam, w13l, n) != apply_on_legs12(e.left, w13l, n):
                rel_bad = f"(1 x F2)E13 != (E x 1)E13 at {_lbl3(c, idx)}"
                break
            w13r = apply_on_legs13(e.right, x, n)
            if apply_on_legs23(f4_rho, w13r, n) != apply_on_legs12(e.right, w13r, n):
                rel_bad = f"E13(1 x F4) != E13(E x 1) at {_lbl3(c, idx)}"
                break
    out.append(check("regular-f-relations", rel_bad is None,
                     "the four leg-13 relations hold for F1..F4", rel_bad or ""))

    # flipped-coproduct presentation: canonical idempotent must be sigma E
    cop_bad = None
    try:
        cop = CoproductData(c.parent, sigma * t4 * sigma, sigma * t3 * sigma,
                            cache=c.cache)
        e_cop = compute_E(cop)
        if e_cop.left != sigma * e.left * sigma or e_cop.right != sigma * e.right * sigma:
            cop_bad = "flipped-coproduct idempotent differs from sigma E"
    except (NoSuchIdempotent, NotIdempotent, AmbiguousE) as exc:
        cop_bad = f"flipped-coproduct idempotent: {exc}"
    out.append(check("regular-cop-idempotent", cop_bad is None,
                     "flipped-coproduct presentation has canonical idempotent sigma E",
                     cop_bad or ""))
    return out, cls, t3, t4


# ------------------------------------------------- weak Hopf suite


def weak_hopf_suite(c: CoproductData, e: CanonicalIdempotent,
                    w: AntipodeWitness, st: SourceTargetWitness,
                    counit: list, unit: Optional[Element],
                    regular: bool = True) -> Tuple[List[CheckResult], dict]:
    out: List[CheckResult] = []
    flags = {"unital": unit is not None, "weak_hopf": False, "hopf": False}
    n = c.n
    if unit is None:
        out.append(CheckResult("weak-hopf-counit", "skip",
                               "not applicable: algebra has no unit"))
        out.append(CheckResult("weak-hopf-counit-op", "skip",
                               "not applicable: algebra has no unit"))
        out.append(CheckResult("weak-hopf-antipode-formulas", "skip",
                               "not applicable: algebra has no unit"))
        return out, flags

    def eps_of(vec: SparseVec) -> Scalar:
        return _dot((counit[k], v) for k, v in vec.items())

    # coproduct of each basis element as an honest tensor (unital case)
    unit_sp = vec_to_sparse(unit.coeffs)
    delta = [c.t1.apply_sparse({b * n + j: uj for j, uj in unit_sp.items()})
             for b in range(n)]

    bad1 = None
    bad2 = None
    for a in range(n):
        for b in range(n):
            for cc in range(n):
                lhs = eps_of(c.parent.mul_sparse(c.parent.mul_basis(a, b), {cc: ONE}))
                rhs1 = _dot((v * eps_of(c.parent.mul_basis(a, key % n)),
                             eps_of(c.parent.mul_basis(key // n, cc)))
                            for key, v in delta[b].items())
                rhs2 = _dot((v * eps_of(c.parent.mul_basis(a, key // n)),
                             eps_of(c.parent.mul_basis(key % n, cc)))
                            for key, v in delta[b].items())
                if lhs != rhs1 and bad1 is None:
                    bad1 = f"first weak-multiplicativity identity fails at ({_lbl(c, a)},{_lbl(c, b)},{_lbl(c, cc)})"
                if lhs != rhs2 and bad2 is None:
                    bad2 = f"second weak-multiplicativity identity fails at ({_lbl(c, a)},{_lbl(c, b)},{_lbl(c, cc)})"
            if bad1 and bad2:
                break
        if bad1 and bad2:
            break
    out.append(check("weak-hopf-counit", bad1 is None,
                     "counit is weakly multiplicative (first form)", bad1 or ""))
    if bad2 is not None and not regular:
        # only an axiom under regularity; recorded, not failed
        out.append(CheckResult("weak-hopf-counit-op", "skip",
                               f"recorded without regularity: {bad2}"))
    else:
        out.append(check("weak-hopf-counit-op", bad2 is None,
                         "counit is weakly multiplicative (second form)", bad2 or ""))

    acc: dict = {}
    for i, ui in unit_sp.items():
        for j, uj in unit_sp.items():
            _accumulate(acc, e.left.col_sparse(i * n + j), ui, uj)
    e_elem = _settle(acc)
    sbad = None
    for a in range(n):
        lhs = _sum_products((key % n, v, counit[key // n])
                            for key, v in _mult_leg1_right(c, e_elem, a).items())
        if lhs != st.eps_t[a].left.apply_sparse(unit_sp):
            sbad = f"(eps x id)(E({_lbl(c, a)} x 1)) != eps_t({_lbl(c, a)})"
            break
        rhs = _sum_products((key // n, v, counit[key % n])
                            for key, v in _mult_leg2(c, a, e_elem).items())
        if rhs != st.eps_s[a].left.apply_sparse(unit_sp):
            sbad = f"(id x eps)((1 x {_lbl(c, a)})E) != eps_s({_lbl(c, a)})"
            break
    out.append(check("weak-hopf-antipode-formulas", sbad is None,
                     "counit contractions of E reproduce source/target values",
                     sbad or ""))

    flags["weak_hopf"] = bad1 is None and bad2 is None and sbad is None
    flags["hopf"] = flags["weak_hopf"] and e.left == Matrix.identity(c.nn)
    return out, flags


# ------------------------------------------------- star suite


def star_suite(c: CoproductData, e: CanonicalIdempotent, w: AntipodeWitness,
               star: StarStructure, t3: Optional[Matrix],
               t4: Optional[Matrix]) -> List[CheckResult]:
    out: List[CheckResult] = []
    n, nn = c.n, c.nn
    jj = star.star_matrix.kron(star.star_matrix)

    def star_vec(vec: list) -> list:
        return jj.apply([v.conj() for v in vec])

    bad = None
    if t3 is None or t4 is None:
        if w.s_matrix is None:
            out.append(failed("star-compatible",
                              "star input with an antipode that does not map A to A"))
            return out
        t3, t4 = derive_flip_maps(c, w)

    # coproduct is a star-homomorphism: T3(a* (x) b*) = T1(a (x) b)*
    for a in range(n):
        sa = star.apply_vec([ONE if i == a else ZERO for i in range(n)])
        for b in range(n):
            sb = star.apply_vec([ONE if i == b else ZERO for i in range(n)])
            arg = [ZERO] * nn
            for i, vi in enumerate(sa):
                if vi:
                    for j, vj in enumerate(sb):
                        if vj:
                            arg[i * n + j] = vi * vj
            if t3.apply(arg) != star_vec(c.t1.col(a * n + b)):
                bad = f"T3(a* (x) b*) != T1(a (x) b)* at ({_lbl(c, a)},{_lbl(c, b)})"
                break
            if t4.apply(arg) != star_vec(c.t2.col(a * n + b)):
                bad = f"T4(a* (x) b*) != T2(a (x) b)* at ({_lbl(c, a)},{_lbl(c, b)})"
                break
        if bad:
            break

    # S(S(a)*)* = a
    if bad is None:
        if w.s_matrix is None:
            bad = "star structure present but the antipode is not a matrix"
        else:
            for a in range(n):
                v = star.apply_vec(w.s_matrix.col(a))
                v = star.apply_vec(w.s_matrix.apply(v))
                if vec_to_sparse(v) != {a: ONE}:
                    bad = f"S(S({_lbl(c, a)})*)* != {_lbl(c, a)}"
                    break

    # E* = E
    if bad is None:
        for x in range(nn):
            basis = [ZERO] * nn
            basis[x] = ONE
            if star_vec(e.right.apply(star_vec(basis))) != e.left.col(x):
                bad = f"E* != E at {_lbl2(c, x)}"
                break

    # F1* = F3 and F2* = F4
    if bad is None and w.s_matrix is not None and w.s_matrix_inv is not None:
        ident = Matrix.identity(n)
        i_s = ident.kron(w.s_matrix)
        i_si = ident.kron(w.s_matrix_inv)
        s_i = w.s_matrix.kron(ident)
        si_i = w.s_matrix_inv.kron(ident)
        phi1 = i_s * e.right * i_si      # rho action of F1
        lam1 = i_s * e.left * i_si       # lambda action of F1
        phi3l = i_si * e.left * i_s
        phi3r = i_si * e.right * i_s
        phi2l = s_i * e.left * si_i
        phi2r = s_i * e.right * si_i
        phi4r = si_i * e.right * s_i
        phi4l = si_i * e.left * s_i
        for x in range(nn):
            basis = [ZERO] * nn
            basis[x] = ONE
            sx = star_vec(basis)
            if star_vec(phi1.apply(sx)) != phi3l.col(x) or \
               star_vec(lam1.apply(sx)) != phi3r.col(x):
                bad = f"F1* != F3 at {_lbl2(c, x)}"
                break
            if star_vec(phi2r.apply(sx)) != phi4l.col(x) or \
               star_vec(phi2l.apply(sx)) != phi4r.col(x):
                bad = f"F2* != F4 at {_lbl2(c, x)}"
                break
    out.append(check("star-compatible", bad is None,
                     "coproduct is a star-homomorphism; E* = E; S twisted-involutive; F1* = F3, F2* = F4",
                     bad or ""))
    return out


# ------------------------------------------------- appendix suite


def appendix_suite(c: CoproductData, e: CanonicalIdempotent, w: AntipodeWitness,
                   st: SourceTargetWitness) -> List[CheckResult]:
    """The identity suite for the flipped-E treatment: the collapsed
    multiplication of S across E, the source/target exchange under S, the
    absorption of source/target values across the legs of E, and E' = E."""
    out: List[CheckResult] = []
    n, nn = c.n, c.nn

    bad = None
    for a in range(n):
        for b in range(n):
            acc: dict = {}
            for row, v in e.left.col_sparse(a * n + b):
                _accumulate(acc, w.s_left[row // n].col_sparse(row % n), v)
            if _settle(acc) != dict(w.s_left[a].col_sparse(b)):
                bad = f"m(S x id)E does not collapse at ({_lbl(c, a)}, {_lbl(c, b)})"
                break
            acc = {}
            for row, v in e.right.col_sparse(a * n + b):
                _accumulate(acc, w.s_right[row % n].col_sparse(row // n), v)
            if _settle(acc) != dict(w.s_right[b].col_sparse(a)):
                bad = f"m(id x S)E does not collapse at ({_lbl(c, a)}, {_lbl(c, b)})"
                break
        if bad:
            break
    out.append(check("appendix-inverse-unit", bad is None,
                     "multiplying S across the legs of E collapses to S itself",
                     bad or ""))

    if w.s_matrix is None or w.s_matrix_inv is None:
        out.append(skipped("appendix-source-target-swap", "regular"))
        out.append(skipped("appendix-e-absorption", "regular"))
        out.append(skipped("appendix-e-flip", "regular"))
        return out

    def s_of_mult(m: Multiplier) -> Multiplier:
        return Multiplier(c.parent,
                          w.s_matrix * m.right * w.s_matrix_inv,
                          w.s_matrix * m.left * w.s_matrix_inv)

    def lin_mult(ms: List[Multiplier], coeffs) -> Multiplier:
        return _combine_multipliers(c.parent, [m.left for m in ms], [m.right for m in ms],
                                    vec_to_sparse(coeffs))

    swap_bad = None
    for a in range(n):
        sa = w.s_matrix.col(a)
        if s_of_mult(st.eps_t[a]) != lin_mult(st.eps_s, sa):
            swap_bad = f"S(eps_t({_lbl(c, a)})) != eps_s(S({_lbl(c, a)}))"
            break
        if s_of_mult(st.eps_s[a]) != lin_mult(st.eps_t, sa):
            swap_bad = f"S(eps_s({_lbl(c, a)})) != eps_t(S({_lbl(c, a)}))"
            break
    out.append(check("appendix-source-target-swap", swap_bad is None,
                     "S exchanges the source and target maps", swap_bad or ""))

    ident = Matrix.identity(n)
    absorb_bad = None
    for msrc in st.eps_s:
        y = Multiplier(c.aa, msrc.left.kron(ident), msrc.right.kron(ident))
        sy = s_of_mult(msrc)
        y2 = Multiplier(c.aa, ident.kron(sy.left), ident.kron(sy.right))
        if e.multiplier * y != e.multiplier * y2:
            absorb_bad = "E(y (x) 1) != E(1 (x) S(y)) on the source image"
            break
    if absorb_bad is None:
        for mtar in st.eps_t:
            x1 = Multiplier(c.aa, ident.kron(mtar.left), ident.kron(mtar.right))
            sx = s_of_mult(mtar)
            x2 = Multiplier(c.aa, sx.left.kron(ident), sx.right.kron(ident))
            if x1 * e.multiplier != x2 * e.multiplier:
                absorb_bad = "(1 (x) x)E != (S(x) (x) 1)E on the target image"
                break
    out.append(check("appendix-e-absorption", absorb_bad is None,
                     "E absorbs source/target values across its legs through S",
                     absorb_bad or ""))

    sigma = flip_map(n)
    ss = w.s_matrix.kron(w.s_matrix)
    ssi = w.s_matrix_inv.kron(w.s_matrix_inv)
    eflip_ok = (sigma * (ss * e.right * ssi) * sigma == e.left) and \
        (sigma * (ss * e.left * ssi) * sigma == e.right)
    out.append(check("appendix-e-flip", eflip_ok,
                     "sigma (S x S) E equals E", "sigma (S x S) E differs from E"))
    return out


# ------------------------------------------------- sandwich actions of E


def _strip_echelon(c: CoproductData, leg: int) -> Tuple[Matrix, Echelon]:
    """Stacked right-multiplications x -> x (1 (x) e_y) (leg 2) or
    x -> x (e_y (x) 1) (leg 1); stripping through them is injective for a
    non-degenerate product."""
    n, nn = c.n, c.nn
    stack = Matrix.zero(n * nn, nn)
    for y in range(n):
        for col in range(nn):
            vals = _mult_leg2_right(c, {col: ONE}, y) if leg == 2 \
                else _mult_leg1_right(c, {col: ONE}, y)
            for key, v in vals.items():
                stack.data[y * nn + key][col] = v
    return stack, Echelon(stack, solvable=True)


def _sandwich_tables(c: CoproductData, e: CanonicalIdempotent):
    """sand_a[p][q] = (1 (x) e_q) E (e_p (x) 1) and
    sand_b[p][q] = (e_p (x) 1) E (1 (x) e_q), as sparse vectors; None when
    a sandwich escapes the tensor square."""
    n, nn = c.n, c.nn
    stack2, ech2 = _strip_echelon(c, leg=2)
    stack1, ech1 = _strip_echelon(c, leg=1)
    if ech1.rank < nn or ech2.rank < nn:
        return None
    sand_a: List[List[SparseVec]] = [[{} for _ in range(n)] for _ in range(n)]
    sand_b: List[List[SparseVec]] = [[{} for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(n):
            rhs = [ZERO] * (n * nn)
            for y in range(n):
                for key, v in _mult_leg2(c, q, dict(e.left.col_sparse(p * n + y))).items():
                    rhs[y * nn + key] = v
            sol = ech2.solve(rhs, stack2)
            if sol is None:
                return None
            sand_a[p][q] = vec_to_sparse(sol)
            rhs = [ZERO] * (n * nn)
            for y in range(n):
                for key, v in _mult_leg1(c, p, dict(e.left.col_sparse(y * n + q))).items():
                    rhs[y * nn + key] = v
            sol = ech1.solve(rhs, stack1)
            if sol is None:
                return None
            sand_b[p][q] = vec_to_sparse(sol)
    return sand_a, sand_b


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
            col: dict = {}
            for key, v in _settle(acc).items():
                u1, u2 = divmod(key, n)
                if contract_first:
                    _accumulate(col, post.col_sparse(u1), v, base=u2, stride=n)
                else:
                    _accumulate(col, post.col_sparse(u2), v, base=u1 * n)
            cols.append(sparse_to_vec(_settle(col), nn))
    return Matrix.from_cols(cols, rows=nn)

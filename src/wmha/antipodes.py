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

from .algebras import (Algebra, Multiplier, SparseVec, _on_legs, as_elements, flip_map,
                       is_isomorphism, star_on, unless_at_unit, StarStructure)
from .coproducts import (CoproductData, IllDefinedExtension, NoSuchIdempotent,
                         ProjectionMaps, apply_on_legs13, check_E_conditions, extend_delta, compute_E,
                         _commute, _counit_cols, _kron, _lbl, _lbl2, _lbl3, _matrix_key,
                         _module_law_failures, _module_laws_hold, _unit_triple)
from .linalg import Echelon, Matrix, Subspace, _combination, generalized_inverse, invert
from .report import FAIL, PASS, SKIP, CheckResult, _first_failures, check, failed, passed
from .scalars import ONE, ZERO, _accumulate, _dot, _settle


class AntipodesDisagree(Exception):
    def __init__(self, message: str, checks: Optional[list] = None):
        super().__init__(message)
        self.checks = checks or []


# ---------------------------------------------------------------- R maps


def build_generalized_inverses(c: CoproductData, e: Multiplier,
                               g: ProjectionMaps) -> Tuple[Matrix, Matrix, List[CheckResult]]:
    """R1, R2 with T R = E-action and R T = G, plus their module and
    commutation laws."""
    r1 = generalized_inverse(c.t1, e.left, g.g1, c.cache)
    r2 = generalized_inverse(c.t2, e.right, g.g2, c.cache)

    def inverse_failures():
        yield from _module_law_failures(c, [(r1, 2, "R1 module law fails"),
                                            (r2, 1, "R2 module law fails")])
        if not ((c.t1 * r1 * c.t1 == c.t1) and (r1 * c.t1 * r1 == r1) and
                (c.t2 * r2 * c.t2 == c.t2) and (r2 * c.t2 * r2 == r2)):
            yield "generalized inverse identities fail"
    return r1, r2, _first_failures(inverse_failures(), {
        "generalized-inverses": "T1 R1 = E-left, R1 T1 = G1 (mirrored), with module laws"}) + \
        _first_failures(_r_commutation_failures(c, r1, r2), {
            "r-commutation": "R maps commute with the opposite-side canonical maps"})


def _r_commutation_failures(c: CoproductData, r1: Matrix, r2: Matrix):
    """(T2 x id)(id x R1) = (id x R1)(T2 x id), then
    (id x T1)(R2 x id) = (R2 x id)(id x T1), on each basis triple.

    Read at the checked unit u when T1, T2, R1 and R2 pass their module
    identities (`_module_law_failures`): then T2 and R2 on legs (1,2)
    commute with e_i (x) 1 (x) 1 from the left, T1 and R1 on legs (2,3)
    with 1 (x) 1 (x) e_k from the right, and each with the product on the
    leg it does not touch.  So both sides at e_i (x) e_j (x) e_k are
    (e_i (x) 1 (x) 1)(side at u (x) e_j (x) u)(1 (x) 1 (x) e_k), and the n
    triples u (x) e_j (x) u stand for all n^3."""
    n = c.n

    def at_unit() -> bool:
        return _module_laws_hold(c, (c.t2, 1), (r1, 2), (r2, 1), (c.t1, 2)) and all(
            _commute(c.t2, r1, x, n) and _commute(r2, c.t1, x, n)
            for x in (_unit_triple(c, j) for j in range(n)))

    def walk():
        for idx in range(n ** 3):
            x = [(idx, ONE)]
            if not _commute(c.t2, r1, x, n):
                yield f"(T2 x id)(id x R1) != (id x R1)(T2 x id) at {_lbl3(c, idx)}"
            if not _commute(r2, c.t1, x, n):
                yield f"(id x T1)(R2 x id) != (R2 x id)(id x T1) at {_lbl3(c, idx)}"
    return unless_at_unit(at_unit, walk())


# ---------------------------------------------------------------- antipode


class AntipodeWitness:
    def __init__(self, r1: Matrix, r2: Matrix, s: List[Multiplier],
                 s_matrix: Optional[Matrix], s_matrix_inv: Optional[Matrix] = None):
        self.r1 = r1
        self.r2 = r2
        self.s = s                      # S(e_a), with actions S1(e_a) and S2(e_a)
        self.s_matrix = s_matrix        # present when S maps A into A
        self.s_matrix_inv = s_matrix_inv

    @property
    def not_regular(self) -> Optional[str]:
        """Why S is not a bijection of the algebra onto itself, the
        regularity of Thm. 4.10, or None when it is one."""
        if self.s_matrix is None:
            return "antipode does not map the algebra into itself"
        if self.s_matrix_inv is None:
            return "antipode matrix is not invertible"
        return None


def _combine_multipliers(parent: Algebra, ms: List[Multiplier], coeffs: SparseVec) -> Multiplier:
    """Σ_k coeffs[k]·ms[k] as a multiplier."""
    n = parent.dim
    return Multiplier(parent,
                      _combination(((v, ms[k].left) for k, v in coeffs.items()), n, n),
                      _combination(((v, ms[k].right) for k, v in coeffs.items()), n, n))


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
    cols = as_elements(c.parent, s, c.cache)
    s_matrix = None if None in cols else Matrix.from_sparse_cols(n, cols)
    s_inv = invert(s_matrix, c.cache) if s_matrix is not None else None
    return AntipodeWitness(r1, r2, s, s_matrix, s_inv), out


# ------------------------------------------------- identity suite (S)


def check_antipode_identities(c: CoproductData, e: Multiplier,
                              g: ProjectionMaps, w: AntipodeWitness,
                              st: "SourceTargetWitness") -> List[CheckResult]:
    """The antipode identities.  The counit contractions of G1/G2 and the
    products m R1, m R2 they read are the columns of the source/target
    values st (see compute_source_target)."""
    n = c.n
    alg = c.parent
    prod = alg._product_cols()
    # (eps (x) id)G1 and (id (x) eps)G2 as operators, by tensor-square column
    eps_g1 = [col for m in st.eps_s for col in m.left._sparse_cols()]
    g2_eps = [m.right.col_sparse(x) for x in range(n) for m in st.eps_t]

    # both counit-style identities, in left- and right-contracted form;
    # the source/target values enter through their G-contraction form
    def identity_failures():
        for a, b in product(range(n), repeat=2):
            if _on_legs(prod, n, g.g1.col_sparse(a * n + b)) != alg.mul_basis(a, b):
                yield f"sum a1 S(a2) a3 = a fails against ({_lbl(c, a)}, {_lbl(c, b)})"
            if _on_legs(prod, n, g.g2.col_sparse(a * n + b)) != alg.mul_basis(a, b):
                yield f"c(sum a1 S(a2) a3) = ca fails against ({_lbl(c, a)}, {_lbl(c, b)})"
            # sum S(a1) a2 S(a3) = S(a)
            if _on_legs(eps_g1, n, w.r1.col_sparse(a * n + b)) != \
                    dict(w.s[a].left.col_sparse(b)):
                yield f"sum S(a1) a2 S(a3) = S(a) fails left at ({_lbl(c, a)}, {_lbl(c, b)})"
            if _on_legs(g2_eps, n, w.r2.col_sparse(b * n + a)) != \
                    dict(w.s[a].right.col_sparse(b)):
                yield f"sum S(a1) a2 S(a3) = S(a) fails right at ({_lbl(c, a)}, {_lbl(c, b)})"
    out = _first_failures(identity_failures(), {
        "antipode-counit-identities": "both antipode identities hold as one-sided multiplier equalities"})

    # the contracted equalities behind S1 = S2: (e_s m) e_p = e_s (m e_p)
    # for m = eps_t(a), then for m = eps_s(a)
    def remark_failures():
        for s, a, p in product(range(n), repeat=3):
            for m, which in ((st.eps_t[a], "first"), (st.eps_s[a], "second")):
                if alg.mul_by_basis(dict(m.right.col_sparse(s)), p) != \
                        alg.basis_times(s, dict(m.left.col_sparse(p))):
                    yield f"{which} contracted equality fails at ({_lbl(c, s)},{_lbl(c, a)},{_lbl(c, p)})"
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
    span_r = c.cache.span(n, (dict(w.s[b].right.col_sparse(a)) for a, b in pairs))
    span_l = c.cache.span(n, (dict(w.s[b].left.col_sparse(a)) for a, b in pairs))
    out.append(check("antipode-spans", span_r.dim == n and span_l.dim == n,
                     "A S(A) and S(A) A span the algebra",
                     f"spans have dims {span_r.dim} and {span_l.dim} of {n}"))

    # anti-coalgebra identity with E on both sides
    return out + _first_failures(_anticoproduct_failures(c, e, w), {
        "antipode-anticoproduct": "coproduct of S(a) equals the E-two-sided flipped image"})


def _extension_at_unit(c: CoproductData, e: Multiplier, x: SparseVec) -> Tuple[SparseVec, SparseVec]:
    """D(x)e0 and e0 D'(x): the values at 1 (x) 1 of the actions of
    extend_delta(c, e, x) under `RunCache.unit_premises`."""
    u, n = c.parent.checked_unit(), c.n
    return (e.right.apply_sparse(c.t1.apply_sparse(_kron(x, u, n))),
            e.left.apply_sparse(c.t2.apply_sparse(_kron(u, x, n))))


def _anticoproduct_failures(c: CoproductData, e: Multiplier, w: AntipodeWitness):
    """extend_delta(S(e_a)) = E theta = theta E for theta = sigma (S x S)
    coproduct(e_a) (`_flipped_ss_coproduct`), over a.  Read at the unit
    under `RunCache.unit_premises`, when each S(e_i) passes its law walk
    (S(e_i) = s_i) and R1 and R2 pass their module identities: then
    extend_delta(S(e_a)) is (L_{D(s_a)e0}, R_{e0 D'(s_a)}), and with
    X = sum r_ij s_i (x) e_j over R1(e_a (x) 1) and Y = sum r_ij e_i (x) s_j
    over R2(1 (x) e_a), theta's left action at e_b (x) e_c is
    sigma(X(e_c (x) e_b)) = sigma(X)(e_b (x) e_c) and its right action
    (e_b (x) e_c)sigma(Y).  So theta = (L_{sigma X}, R_{sigma Y}), and the
    multiplier equalities are D(s_a)e0 = e0 sigma(X) = sigma(X)e0 and
    e0 D'(s_a) = e0 sigma(Y) = sigma(Y)e0: left (right) multiplications
    agree exactly when their values at 1 (x) 1 do."""
    n = c.n

    def at_unit() -> bool:
        if c.cache.unit_premises(c, e) is None or \
                not _module_laws_hold(c, (w.r1, 2), (w.r2, 1)):
            return False
        s = [c.cache.element(m) for m in w.s]
        if None in s:
            return False
        u, cols = c.parent.checked_unit(), [x.items() for x in s]
        for a in range(n):
            x = _on_legs(cols, n, w.r1.apply_sparse(_kron({a: ONE}, u, n)).items(), n)
            y = _on_legs(cols, n, w.r2.apply_sparse(_kron(u, {a: ONE}, n)).items())
            left, right = _extension_at_unit(c, e, s[a])
            for value, z in ((left, x), (right, y)):
                z = {k % n * n + k // n: v for k, v in z.items()}
                if not value == e.left.apply_sparse(z) == e.right.apply_sparse(z):
                    return False
        return True

    def walk():
        for a in range(n):
            lhs = extend_delta(c, e, w.s[a])
            theta = _flipped_ss_coproduct(c, w, a)
            if lhs != e * theta or lhs != theta * e:
                yield f"coproduct(S({_lbl(c, a)})) != E-damped flipped (S x S) coproduct"
    return unless_at_unit(at_unit, walk())


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
    """The source and target values eps_s(e_a), eps_t(e_a), read off the
    columns of the tensor square: eps_s(a) acts on e_b from the left as
    (eps (x) id)G1(a (x) b) and from the right as m R2(b (x) a), eps_t(a)
    as m R1(a (x) b) and (id (x) eps)G2(b (x) a)."""
    n = c.n
    eps_s, eps_t = _source_target_values(c, g, w, counit)

    def value_failures():
        for a in range(n):
            bad = c.cache.multiplier_failure(eps_s[a]) or c.cache.multiplier_failure(eps_t[a])
            if bad:
                yield f"source/target value at {_lbl(c, a)} is not a multiplier: {bad}"
    out = _first_failures(value_failures(), {
        "source-target-defined": "source and target values are honest multipliers"})

    image_s = c.cache.span(2 * n * n, [m.coords() for m in eps_s])
    image_t = c.cache.span(2 * n * n, [m.coords() for m in eps_t])

    legs_s, legs_t = _e_leg_multipliers(c, e)
    leg_ok = image_s == c.cache.span(2 * n * n, legs_s) and \
        image_t == c.cache.span(2 * n * n, legs_t)
    out.append(check("source-target-legs", leg_ok,
                     f"images (dims {image_s.dim}, {image_t.dim}) equal the legs of E",
                     "source/target images differ from the legs of E"))

    out += _first_failures(_st_coproduct_failures(c, e, eps_s, eps_t), {
        "source-target-coproduct": "coproducts of source/target values absorb into E"})
    out += _first_failures(_st_commute_failures(c, eps_s, eps_t, image_s, image_t), {
        "source-target-commute": "source and target images are commuting subalgebras"})

    def inclusion_failures():
        for a in range(n):
            right_ideal = c.cache.span(n, [c.parent.mul_basis(a, j) for j in range(n)])
            left_ideal = c.cache.span(n, [c.parent.mul_basis(j, a) for j in range(n)])
            for m, tag in [(eps_s, "eps_s"), (eps_t, "eps_t")]:
                for x in range(n):
                    if not right_ideal.contains(dict(m[x].right.col_sparse(a))):
                        yield f"{_lbl(c, a)} {tag}(A) escapes {_lbl(c, a)} A"
                    if not left_ideal.contains(dict(m[x].left.col_sparse(a))):
                        yield f"{tag}(A) {_lbl(c, a)} escapes A {_lbl(c, a)}"
    out += _first_failures(inclusion_failures(), {
        "source-target-inclusions": "principal-ideal inclusions hold for source/target images"})
    return SourceTargetWitness(eps_s, eps_t, image_s, image_t), out


def _source_target_values(c: CoproductData, g: ProjectionMaps, w: AntipodeWitness,
                          counit: list) -> Tuple[List[Multiplier], List[Multiplier]]:
    """eps_s(e_a) and eps_t(e_a) for every a (see compute_source_target)."""
    n, nn = c.n, c.nn
    eps, prod = _counit_cols(counit), c.parent._product_cols()
    eps_g1, m_r1, m_r2, g2_eps = (
        [_on_legs(op, rows, m.col_sparse(j), s) for j in range(nn)]
        for op, rows, m, s in ((eps, 1, g.g1, n), (prod, n, w.r1, 1),
                               (prod, n, w.r2, 1), (eps, 1, g.g2, 1)))
    eps_s, eps_t = ([Multiplier(c.parent, Matrix.from_sparse_cols(n, left[a * n:a * n + n]),
                                Matrix.from_sparse_cols(n, right[a::n])) for a in range(n)]
                    for left, right in ((eps_g1, m_r2), (m_r1, g2_eps)))
    return eps_s, eps_t


def _st_coproduct_failures(c: CoproductData, e: Multiplier, eps_s: List[Multiplier],
                           eps_t: List[Multiplier]):
    """extend_delta(m) = E M = M E for M = eps_t(a) (x) 1 and then for
    M = 1 (x) eps_s(a), over a.  Read at the unit under
    `RunCache.unit_premises`, when each value m passes its law walk
    (m = y): then extend_delta(m) is (L_{D(y)e0}, R_{e0 D'(y)}), E M is
    (L_{e0 y'}, R_{e0 y'}) and M E is (L_{y'e0}, R_{y'e0}) for
    y' = y (x) 1 or 1 (x) y, and left (right) multiplications agree
    exactly when their values at 1 (x) 1 do: the walk holds exactly when
    D(y)e0 = e0 y' = y'e0 = e0 D'(y) for every value."""
    n = c.n
    ident = Matrix.identity(n)

    def at_unit() -> bool:
        if c.cache.unit_premises(c, e) is None:
            return False
        u = c.parent.checked_unit()
        for m, first in (x for a in range(n) for x in ((eps_t[a], True), (eps_s[a], False))):
            y = c.cache.element(m)
            if y is None:
                return False
            left, right = _extension_at_unit(c, e, y)
            y1 = _kron(y, u, n) if first else _kron(u, y, n)
            if not left == e.left.apply_sparse(y1) == e.right.apply_sparse(y1) == right:
                return False
        return True

    def walk():
        for a in range(n):
            dt = extend_delta(c, e, eps_t[a])
            m1 = Multiplier(c.aa, eps_t[a].left.kron(ident), eps_t[a].right.kron(ident))
            if dt != e * m1 or dt != m1 * e:
                yield f"coproduct(eps_t({_lbl(c, a)})) != E (eps_t (x) 1) forms"
            ds = extend_delta(c, e, eps_s[a])
            m2 = Multiplier(c.aa, ident.kron(eps_s[a].left), ident.kron(eps_s[a].right))
            if ds != e * m2 or ds != m2 * e:
                yield f"coproduct(eps_s({_lbl(c, a)})) != E (1 (x) eps_s) forms"
    return unless_at_unit(at_unit, walk())


def _st_commute_failures(c: CoproductData, eps_s: List[Multiplier], eps_t: List[Multiplier],
                         image_s: Subspace, image_t: Subspace):
    """The source and target images are subalgebras that commute with
    each other, over basis pairs.  Read at the unit when every value
    passes its law walk (eps_s(e_a) = x_a, eps_t(e_a) = y_a): products of
    embedded elements are the embedded products, and x -> coords of x
    embedded is linear and injective with a unit, so the walk holds
    exactly when x_i x_j lies in the span of the x_a, y_i y_j in that of
    the y_a, and x_i y_j = y_j x_i."""
    n = c.n

    def at_unit() -> bool:
        xs, ys = ([c.cache.element(m) for m in values] for values in (eps_s, eps_t))
        if None in xs or None in ys:
            return False
        span_x, span_y = c.cache.span(n, xs), c.cache.span(n, ys)
        return all(span_x.contains(eps_s[i].left.apply_sparse(xs[j]))
                   and span_y.contains(eps_t[i].left.apply_sparse(ys[j]))
                   and eps_s[i].left.apply_sparse(ys[j]) == eps_t[j].left.apply_sparse(xs[i])
                   for i, j in product(range(n), repeat=2))

    def walk():
        for i, j in product(range(n), repeat=2):
            if not image_s.contains((eps_s[i] * eps_s[j]).coords()):
                yield f"eps_s image not closed under product at ({_lbl(c, i)},{_lbl(c, j)})"
            if not image_t.contains((eps_t[i] * eps_t[j]).coords()):
                yield f"eps_t image not closed under product at ({_lbl(c, i)},{_lbl(c, j)})"
            if eps_s[i] * eps_t[j] != eps_t[j] * eps_s[i]:
                yield f"eps_s({_lbl(c, i)}) and eps_t({_lbl(c, j)}) do not commute"
    return unless_at_unit(at_unit, walk())


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
    strips = (c._strip_echelon(True, n), c._strip_echelon(False, 1))
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
        halves = (("R1", strips[0], c.t2, [y * n + a for y in range(n)], s_times[b], 1),
                  ("R2", strips[1], c.t1, [b * n + y for y in range(n)], times_s[a], n))
        for name, strip, t, cols, op, s in halves:
            sol = _strip_solve(c, strip, t, cols, op, s)
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
                yield from (r.detail for r in check_E_conditions(c, e_obj) if r.status != PASS)
            except IllDefinedExtension as exc:
                yield str(exc)
    out += _first_failures(candidate_failures(), {
        "thm29-e-conditions": "candidate idempotent satisfies the leg conditions"})
    if any(r.status == FAIL for r in out):
        return out, None, e_obj

    s_inv = invert(s_mat, c.cache)
    witness = AntipodeWitness(r1, r2, [Multiplier.of_element(alg, x) for x in s_cols],
                              s_mat, s_inv)
    return out, witness, e_obj


# ------------------------------------------------- regularity suite


def derive_flip_maps(w: AntipodeWitness) -> Tuple[Matrix, Matrix]:
    """T3 = (id (x) S^-1) R1 (id (x) S), T4 = (S^-1 (x) id) R2 (S (x) id),
    for an antipode that is a bijective matrix."""
    ident, s, s_inv = Matrix.identity(w.s_matrix.rows), w.s_matrix, w.s_matrix_inv
    return ident.kron(s_inv) * w.r1 * ident.kron(s), s_inv.kron(ident) * w.r2 * s.kron(ident)


def _f_multipliers(c: CoproductData, w: AntipodeWitness,
                   e: Multiplier) -> Tuple[Multiplier, Multiplier, Multiplier, Multiplier]:
    """F1..F4, E conjugated by S on one leg: F1 by 1 (x) S and F3 by
    1 (x) S^-1 as multipliers of A (x) A^op, F2 by S (x) 1 and F4 by
    S^-1 (x) 1 as multipliers of A^op (x) A, for a bijective antipode
    matrix.  Built once per run for each (algebra, S, S^-1, E), in c's
    run cache: the regular suite, the star suite and the witness output
    read the same four."""
    alg, s, s_inv = c.parent, w.s_matrix, w.s_matrix_inv

    def build():
        ident = Matrix.identity(alg.dim)
        i_s, i_si, s_i, si_i = ident.kron(s), ident.kron(s_inv), s.kron(ident), s_inv.kron(ident)
        op = alg.opposite()
        squares = (Algebra.tensor(alg, op), Algebra.tensor(op, alg))
        return tuple(Multiplier(squares[k % 2], p * e.left * q, p * e.right * q)
                     for k, (p, q) in enumerate(((i_s, i_si), (s_i, si_i), (i_si, i_s), (si_i, s_i))))
    return c.cache.once(("F", alg.content_key(), _matrix_key(s), _matrix_key(s_inv),
                         _matrix_key(e.left), _matrix_key(e.right)), build)


def regular_suite(c: CoproductData, e: Multiplier, g: ProjectionMaps,
                  w: AntipodeWitness) -> Tuple[List[CheckResult], Optional[Matrix],
                                               Optional[Matrix]]:
    """Everything in the regular case that does not need a re-entrant
    pipeline run: flip-map ranges, (S x S)E = sigma E, the F idempotents
    with their factorizations and leg-13 relations, and the
    flipped-coproduct canonical idempotent.  A non-regular antipode is a
    finding, reported by a passing "regular" check alone.

    Two results are read off E when a literal test shows that the
    object they concern is the image of E under an algebra isomorphism;
    otherwise they are computed in full, failure details included.

    regular-f-formulas: F_k is Phi E Phi^-1 for Phi = 1 (x) S, S (x) 1,
    1 (x) S^-1 or S^-1 (x) 1 (`_f_multipliers`).  When `is_isomorphism`
    shows S to be an algebra isomorphism A -> A^op with inverse S^-1
    (so S^-1 is one as well), each Phi is an algebra isomorphism from
    e's square A (x) A onto F_k's twisted square.  Then
    - F_k F_k = F_k exactly when E E = E: both actions are conjugated
      by the same invertible Phi, so products and equalities carry over;
    - F_k passes every module law exactly when E does: a law at Phi x,
      Phi y is Phi applied to E's law at x, y, and each law is bilinear,
      so holding on a basis is holding everywhere.
    So the check reads E's idempotency and E's first law failure, which
    the run cache holds from E's solve.  It reports no failure detail,
    so the verdict is all that is transported.

    regular-cop-idempotent: sigma is an automorphism of A (x) A.  When
    Ran T3 = Ran T2 and Ran T4 = Ran T1 (regular-flip-ranges' range
    half), the flipped-coproduct presentation has Ran(sigma T4 sigma) =
    sigma Ran T1 and Ran(sigma T3 sigma) = sigma Ran T2, so sigma maps
    the defining system of its idempotent onto E's: it is solvable and
    determined exactly when E's is, its solution is sigma E sigma, and
    that is an idempotent multiplier exactly when E is one.  So the
    flipped idempotent is sigma compute_E(c) sigma, read from the run
    cache.  When compute_E(c) raises, the direct solve runs, so its
    failure detail is its own."""
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

    ran_ok = c.cache.column_space(t3) == c.ran_t2() and c.cache.column_space(t4) == c.ran_t1()
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

    fs = _f_multipliers(c, w, e)

    fact_ok = (g.g1 == fs[0].right) and (g.g2 == fs[1].left)
    out.append(check("regular-f-factorization", fact_ok,
                     "G1(a (x) b) = (a (x) 1)F1(1 (x) b) and mirrored, with F from E",
                     "G maps do not factor through the antipode-built F idempotents"))

    anti = is_isomorphism(c.parent, w.s_matrix, w.s_matrix_inv, c.parent.opposite())
    if anti:
        f_ok = e * e == e and not c.cache.multiplier_failure(e)
    else:
        f_ok = all(f * f == f for f in fs) and not any(map(c.cache.multiplier_failure, fs))
    out.append(check("regular-f-formulas", f_ok,
                     "F1..F4 from E are idempotent multipliers of the twisted squares",
                     "an F idempotent fails multiplier laws"))

    out += _first_failures(_f_relation_failures(c, e, w, anti), {
        "regular-f-relations": "the four leg-13 relations hold for F1..F4"})

    # flipped-coproduct presentation: canonical idempotent must be sigma E
    def flipped_idempotent() -> Multiplier:
        if ran_ok:
            try:
                got = compute_E(c)
                return Multiplier(got.parent, sigma * got.left * sigma, sigma * got.right * sigma)
            except NoSuchIdempotent:
                pass            # the direct solve reports its own failure
        return compute_E(CoproductData(c.parent, sigma * t4 * sigma, sigma * t3 * sigma,
                                       cache=c.cache))
    try:
        e_cop = flipped_idempotent()
        out.append(check("regular-cop-idempotent", e_cop.left == sigma * e.left * sigma
                         and e_cop.right == sigma * e.right * sigma,
                         "flipped-coproduct presentation has canonical idempotent sigma E",
                         "flipped-coproduct idempotent differs from sigma E"))
    except NoSuchIdempotent as exc:
        out.append(failed("regular-cop-idempotent", f"flipped-coproduct idempotent: {exc}"))
    return out, t3, t4


def _f_relation_failures(c: CoproductData, e: Multiplier, w: AntipodeWitness, anti: bool):
    """The four leg-13 relations of F1..F4 on every basis triple.  The
    plain tensor-square actions of F1..F4 go through the sandwich
    products (1 (x) q)E(p (x) 1) and (p (x) 1)E(1 (x) q) (`_sandwich_tables`).

    Read at 1 (x) 1 (x) 1 when E passes its law walk (E = e0) and anti:
    S is an algebra isomorphism A -> A^op with inverse S^-1.  Then the
    action of F1 at e_i (x) e_j is (1 (x) S)((1 (x) S^-1 e_j)e0(e_i (x) 1)),
    which is ((1 (x) S)e0)(e_i (x) e_j); likewise F3 and F2 act as left and
    F4 as right multiplications by their values at 1 (x) 1, and E13 is
    multiplication by e0 on legs 1 and 3.  So every side the walk
    compares is a left (relation 4: right) multiplication by an element,
    and the walk holds exactly when the relations hold at 1 (x) 1 (x) 1."""
    n, nn = c.n, c.nn
    sand = _sandwich_tables(c, e)
    if sand is None:
        return iter(("a sandwich product of E escapes the tensor square",))
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

    def relations(x: SparseVec):
        # whether each relation holds at the triple-tensor vector x
        yield apply_on_legs13(e.left, on12(f1_lam, x), n) == \
            apply_on_legs13(e.left, on23(e.left, x), n)
        w13l = apply_on_legs13(e.left, x, n)
        yield on12(f3_lam, w13l) == on23(e.left, w13l)
        yield on23(f2_lam, w13l) == on12(e.left, w13l)
        w13r = apply_on_legs13(e.right, x, n)
        yield on23(f4_rho, w13r) == on12(e.right, w13r)

    def at_unit() -> bool:
        return anti and c.cache.element(e) is not None and \
            all(relations(_kron(c.aa.checked_unit(), c.parent.checked_unit(), n)))

    def walk():
        whats = ("E13(F1 x 1) != E13(1 x E)", "(F3 x 1)E13 != (1 x E)E13",
                 "(1 x F2)E13 != (E x 1)E13", "E13(1 x F4) != E13(E x 1)")
        for idx in range(n ** 3):
            for ok, what in zip(relations({idx: ONE}), whats):
                if not ok:
                    yield f"{what} at {_lbl3(c, idx)}"
    return unless_at_unit(at_unit, walk())


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

    # eps(e_i e_j), read by every sum below: eps is linear, so
    # eps((e_a e_b) e_c) is the sum of the e_k coefficients of e_a e_b
    # times eps(e_k e_c)
    eps_mul = [[_on_legs(eps, 1, alg.mul_basis(i, j).items()).get(0, ZERO) for j in range(n)]
               for i in range(n)]

    # coproduct of each basis element as an honest tensor (unital case)
    delta = [c.t1.apply_sparse(_kron({b: ONE}, unit, n)) for b in range(n)]

    # the first form feeds weak-hopf-counit, the second weak-hopf-counit-op
    def counit_failures():
        for a, b, cc in product(range(n), repeat=3):
            lhs = _dot((v, eps_mul[k][cc]) for k, v in alg.mul_basis(a, b).items())
            rhs1 = _dot((v * eps_mul[a][key % n], eps_mul[key // n][cc])
                        for key, v in delta[b].items())
            rhs2 = _dot((v * eps_mul[a][key // n], eps_mul[key % n][cc])
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

    e_elem = e.left.apply_sparse(_kron(unit, unit, n)).items()
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
        f1, f2, f3, f4 = _f_multipliers(c, w, e)
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

    def swap_failures():
        for a in range(n):
            sa = dict(w.s_matrix.col_sparse(a))
            if _s_image(w, st.eps_t[a]) != _combine_multipliers(c.parent, st.eps_s, sa):
                yield f"S(eps_t({_lbl(c, a)})) != eps_s(S({_lbl(c, a)}))"
            if _s_image(w, st.eps_s[a]) != _combine_multipliers(c.parent, st.eps_t, sa):
                yield f"S(eps_s({_lbl(c, a)})) != eps_t(S({_lbl(c, a)}))"
    out += _first_failures(swap_failures(), {
        "appendix-source-target-swap": "S exchanges the source and target maps"})

    return out + _first_failures(_absorption_failures(c, e, w, st), {
        "appendix-e-absorption": "E absorbs source/target values across its legs through S"})


def _s_image(w: AntipodeWitness, m: Multiplier) -> Multiplier:
    """S(m) for a multiplier m of A, through the S matrix: S m.right S^-1
    and S m.left S^-1, the actions exchanged as S reverses products."""
    return Multiplier(m.parent, w.s_matrix * m.right * w.s_matrix_inv,
                      w.s_matrix * m.left * w.s_matrix_inv)


def _absorption_failures(c: CoproductData, e: Multiplier, w: AntipodeWitness,
                         st: SourceTargetWitness):
    """E(y (x) 1) = E(1 (x) S(y)) for y = eps_s(e_a), then
    (1 (x) x)E = (S(x) (x) 1)E for x = eps_t(e_a), as multipliers.  Read at
    the unit when E, each value and each S-image `_s_image` pass
    their law walks (E = e0, y, S(y) = y'): both sides of the first are
    embedded elements e0(y (x) 1) and e0(1 (x) y'), and of the second
    (1 (x) x)e0 and (x' (x) 1)e0, equal exactly when their values at
    1 (x) 1 are."""
    n = c.n
    ident = Matrix.identity(n)

    def at_unit() -> bool:
        if c.cache.element(e) is None:
            return False
        u = c.parent.checked_unit()
        for values, act, first in ((st.eps_s, e.left, True), (st.eps_t, e.right, False)):
            for m in values:
                y, sy = c.cache.element(m), c.cache.element(_s_image(w, m))
                if y is None or sy is None:
                    return False
                y, sy = (_kron(y, u, n), _kron(u, sy, n)) if first else (_kron(u, y, n), _kron(sy, u, n))
                if act.apply_sparse(y) != act.apply_sparse(sy):
                    return False
        return True

    def walk():
        for msrc in st.eps_s:
            y = Multiplier(c.aa, msrc.left.kron(ident), msrc.right.kron(ident))
            sy = _s_image(w, msrc)
            if e * y != e * Multiplier(c.aa, ident.kron(sy.left), ident.kron(sy.right)):
                yield "E(y (x) 1) != E(1 (x) S(y)) on the source image"
        for mtar in st.eps_t:
            x1 = Multiplier(c.aa, ident.kron(mtar.left), ident.kron(mtar.right))
            sx = _s_image(w, mtar)
            if x1 * e != Multiplier(c.aa, sx.left.kron(ident), sx.right.kron(ident)) * e:
                yield "(1 (x) x)E != (S(x) (x) 1)E on the target image"
    return unless_at_unit(at_unit, walk())


# ------------------------------------------------- sandwich actions of E


def _strip_solve(c: CoproductData, strip: Tuple[Matrix, Echelon], m: Matrix, cols: List[int],
                 op: list, s: int) -> Optional[SparseVec]:
    """The x whose products with e_y on the leg of the strip are, for each
    y, column cols[y] of m with the operator op applied on the leg of
    stride s; None when no such x exists.  strip is a (stack, echelon)
    pair of `CoproductData._strip_echelon`."""
    stack, ech = strip
    x = [(y * c.nn + row, v) for y, col in enumerate(cols) for row, v in m.col_sparse(col)]
    return ech.solve_sparse(_on_legs(op, c.n, x, s), stack)


def _sandwich_tables(c: CoproductData, e: Multiplier):
    """sand_a[p][q] = (1 (x) e_q) E (e_p (x) 1) and
    sand_b[p][q] = (e_p (x) 1) E (1 (x) e_q), as sparse vectors; None when
    a sandwich escapes the tensor square.  Each is recovered from its
    products with e_y on the other side of the leg that e_p (e_q) covers:
    (1 (x) e_q) E(e_p (x) e_y) stripped of x -> x (1 (x) e_y), and
    (e_p (x) 1) E(e_y (x) e_q) stripped of x -> x (e_y (x) 1).  When E
    passes its law walk (E = e0) each is that product of e0, which solves
    every stripped equation; with a unit 1 = sum u_y e_y the solution is
    unique, the sum of u_y x(1 (x) e_y) being x."""
    n, nn = c.n, c.nn
    alg = c.parent
    e0 = c.cache.element(e)
    if e0 is not None:
        e0 = e0.items()
        return [[[_on_legs(alg._right_cols(p), n, _on_legs(alg._left_cols(q), n, e0).items(), n)
                  for q in range(n)] for p in range(n)],
                [[_on_legs(alg._left_cols(p), n, _on_legs(alg._right_cols(q), n, e0).items(), n)
                  for q in range(n)] for p in range(n)]]
    tables = []
    for s in (1, n):
        strip = c._strip_echelon(False, s)
        if strip[1].rank < nn:
            return None
        table: List[List[SparseVec]] = [[{} for _ in range(n)] for _ in range(n)]
        for p, q in product(range(n), repeat=2):
            mult, cols = (alg._left_cols(q), [p * n + y for y in range(n)]) if s == 1 else \
                (alg._left_cols(p), [y * n + q for y in range(n)])
            sol = _strip_solve(c, strip, e.left, cols, mult, s)
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

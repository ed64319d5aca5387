"""Finite and lazily-infinite groupoids, and the two model algebras a
groupoid carries: pointwise functions (with the product-dual coproduct)
and the convolution algebra (with the diagonal coproduct).

Every model ships oracle witnesses (canonical idempotent, projection
idempotents, counit, antipode) that the engine's computed values must
reproduce exactly.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

from .algebras import MAX_DIM, Algebra, SparseVec
from .linalg import Matrix
from .report import CheckResult, _first_failures
from .scalars import ONE, ZERO


class InputError(Exception):
    """Malformed input: a document, a preset or its parameters, or the
    options given; the command line exits 2 with its message."""


class FiniteGroupoid:
    def __init__(self, morphisms: List[str], source: Dict[str, str], target: Dict[str, str],
                 compose: Dict[Tuple[str, str], str], inverse: Dict[str, str]):
        self.morphisms = morphisms
        self.source = source
        self.target = target
        self.compose = compose
        self.inverse = inverse

    @property
    def units(self) -> List[str]:
        return [m for m in self.morphisms if self.source[m] == m and self.target[m] == m]

    def index(self) -> Dict[str, int]:
        return {m: i for i, m in enumerate(self.morphisms)}

    def composable(self, p: str, q: str) -> bool:
        return self.source[p] == self.target[q]


def validate_groupoid(g: FiniteGroupoid) -> List[str]:
    """The violated groupoid axioms, one line each; empty when g is a
    groupoid."""
    bad: List[str] = []
    mset = set(g.morphisms)
    for p in g.morphisms:
        if g.source.get(p) not in mset or g.target.get(p) not in mset:
            bad.append(f"source/target of {p} missing")
            continue
        if g.inverse.get(p) not in mset:
            bad.append(f"inverse of {p} missing")
    for p, q in g.compose:
        if p not in mset or q not in mset:
            bad.append(f"compose({p},{q}) defined on a non-morphism")
    if bad:
        return bad

    units = set(g.units)
    for p in g.morphisms:
        if g.source[p] not in units:
            bad.append(f"source({p}) = {g.source[p]} is not a unit")
        if g.target[p] not in units:
            bad.append(f"target({p}) = {g.target[p]} is not a unit")
    for p in g.morphisms:
        for q in g.morphisms:
            defined = (p, q) in g.compose
            if defined != g.composable(p, q):
                bad.append(f"compose({p},{q}) defined iff source({p})=target({q}) fails")
            if defined:
                r = g.compose[(p, q)]
                if r not in mset:
                    bad.append(f"compose({p},{q}) = {r} not a morphism")
                    continue
                if g.source[r] != g.source[q] or g.target[r] != g.target[p]:
                    bad.append(f"source/target of composite {p}*{q} wrong")
    for p in g.morphisms:
        u, v = g.source[p], g.target[p]
        if (p, u) in g.compose and g.compose[(p, u)] != p:
            bad.append(f"{p}*source({p}) != {p}")
        if (v, p) in g.compose and g.compose[(v, p)] != p:
            bad.append(f"target({p})*{p} != {p}")
        ip = g.inverse[p]
        if g.compose.get((ip, p)) != u:
            bad.append(f"inverse({p})*{p} is not the unit at source({p})")
        if g.compose.get((p, ip)) != v:
            bad.append(f"{p}*inverse({p}) is not the unit at target({p})")
        if g.inverse[ip] != p:
            bad.append(f"inverse not involutive at {p}")
    for p in g.morphisms:
        for q in g.morphisms:
            if (p, q) not in g.compose:
                continue
            pq = g.compose[(p, q)]
            for r in g.morphisms:
                if (q, r) not in g.compose:
                    continue
                qr = g.compose[(q, r)]
                if g.compose.get((pq, r)) != g.compose.get((p, qr)):
                    bad.append(f"associativity fails at ({p},{q},{r})")
    return bad


class LazyGroupoid:
    """Infinite groupoid presented through nested finite windows."""

    def __init__(self, name: str, window_fn: Callable[[int], FiniteGroupoid]):
        self.name = name
        self.window_fn = window_fn

    def window(self, k: int) -> FiniteGroupoid:
        if k < 0:
            raise InputError("window size must be >= 0")
        return self.window_fn(k)


def pair_groupoid(n: int) -> FiniteGroupoid:
    pts = list(range(n))
    morphisms = [f"({i},{j})" for i in pts for j in pts]
    source = {f"({i},{j})": f"({j},{j})" for i in pts for j in pts}
    target = {f"({i},{j})": f"({i},{i})" for i in pts for j in pts}
    compose = {}
    for i in pts:
        for j in pts:
            for k in pts:
                compose[(f"({i},{j})", f"({j},{k})")] = f"({i},{k})"
    inverse = {f"({i},{j})": f"({j},{i})" for i in pts for j in pts}
    return FiniteGroupoid(morphisms, source, target, compose, inverse)


def cyclic_group_groupoid(n: int, unit_tag: Optional[str] = None) -> FiniteGroupoid:
    suffix = f"@{unit_tag}" if unit_tag is not None else ""
    morphisms = [f"g^{a}{suffix}" for a in range(n)]
    e = f"g^0{suffix}"
    source = {m: e for m in morphisms}
    target = {m: e for m in morphisms}
    compose = {(f"g^{a}{suffix}", f"g^{b}{suffix}"): f"g^{(a + b) % n}{suffix}"
               for a in range(n) for b in range(n)}
    inverse = {f"g^{a}{suffix}": f"g^{(-a) % n}{suffix}" for a in range(n)}
    return FiniteGroupoid(morphisms, source, target, compose, inverse)


def disjoint_union(parts: List[FiniteGroupoid]) -> FiniteGroupoid:
    morphisms: List[str] = []
    source: Dict[str, str] = {}
    target: Dict[str, str] = {}
    compose: Dict[Tuple[str, str], str] = {}
    inverse: Dict[str, str] = {}
    for g in parts:
        overlap = set(g.morphisms) & set(morphisms)
        if overlap:
            raise InputError(f"morphism ids collide in union: {sorted(overlap)[:3]}")
        morphisms.extend(g.morphisms)
        source.update(g.source)
        target.update(g.target)
        compose.update(g.compose)
        inverse.update(g.inverse)
    return FiniteGroupoid(morphisms, source, target, compose, inverse)


def cyclic_bundle(n: int, copies: int) -> FiniteGroupoid:
    return disjoint_union([cyclic_group_groupoid(n, unit_tag=f"u{c}") for c in range(copies)])


def refuse_oversize(what: str, morphisms: int) -> None:
    """The model algebras have one basis element per morphism, so a
    groupoid above MAX_DIM morphisms is refused before it is built or
    validated."""
    if morphisms > MAX_DIM:
        raise InputError(f"{what} has {morphisms} morphisms, "
                         f"above the supported maximum {MAX_DIM}")


PRESET_FORMS = ("pair:N, group:cyclic:N, bundle:cyclic:N:K, union:<p>+<p>+..., "
                "pair:inf, bundle:cyclic:N:inf")


def preset(name: str):
    """Construct a named groupoid, one of PRESET_FORMS.  Its groupoid
    axioms are checked by the run (`pipeline.verify_groupoid_model`, once
    per window of a lazy one)."""
    parts = name.split(":")
    try:
        if parts[0] == "pair" and len(parts) == 2:
            if parts[1] == "inf":
                return LazyGroupoid("pair:inf", lambda k: pair_groupoid(k))
            n = int(parts[1])
            if n <= 0:
                raise InputError("pair:N needs N >= 1")
            refuse_oversize(name, n * n)
            return pair_groupoid(n)
        if parts[0] == "group" and len(parts) == 3 and parts[1] == "cyclic":
            n = int(parts[2])
            if n <= 0:
                raise InputError("group:cyclic:N needs N >= 1")
            refuse_oversize(name, n)
            return cyclic_group_groupoid(n)
        if parts[0] == "bundle" and len(parts) == 4 and parts[1] == "cyclic":
            n = int(parts[2])
            if n <= 0:
                raise InputError("bundle:cyclic:N:K needs N >= 1")
            if parts[3] == "inf":
                refuse_oversize(f"{name} window 1", n)
                return LazyGroupoid(f"bundle:cyclic:{n}:inf",
                                    lambda k: cyclic_bundle(n, k))
            copies = int(parts[3])
            if copies <= 0:
                raise InputError("bundle:cyclic:N:K needs K >= 1")
            refuse_oversize(name, n * copies)
            return cyclic_bundle(n, copies)
        if parts[0] == "union":
            names = name[len("union:"):].split("+")
            if "" in names:
                raise InputError(f"preset {name!r} has an empty union member, number "
                                 f"{names.index('') + 1} of {len(names)}; "
                                 f"the presets are {PRESET_FORMS}")
            members = [preset(p) for p in names]
            if any(isinstance(m, LazyGroupoid) for m in members):
                raise InputError("union members must be finite presets")
            refuse_oversize(name, sum(len(m.morphisms) for m in members))
            return disjoint_union(members)
        raise InputError(f"unknown preset {name!r}; the presets are {PRESET_FORMS}")
    except ValueError as exc:
        raise InputError(f"bad number in preset {name!r}") from exc


class GroupoidModel:
    """A model algebra plus coproduct data and oracle witnesses."""

    def __init__(self, groupoid: FiniteGroupoid, algebra: Algebra,
                 t1: Matrix, t2: Matrix, t3: Matrix, t4: Matrix, star_matrix: Matrix,
                 oracle_counit: list, oracle_s: Matrix,
                 oracle_e_left: Matrix, oracle_e_right: Matrix,
                 oracle_g1: Matrix, oracle_g2: Matrix, oracle_unit: Optional[SparseVec]):
        self.groupoid = groupoid
        self.algebra = algebra
        self.t1, self.t2, self.t3, self.t4 = t1, t2, t3, t4
        self.star_matrix = star_matrix
        self.oracle_counit = oracle_counit
        self.oracle_s = oracle_s
        self.oracle_e_left = oracle_e_left
        self.oracle_e_right = oracle_e_right
        self.oracle_g1 = oracle_g1
        self.oracle_g2 = oracle_g2
        self.oracle_unit = oracle_unit


def _indicator_diag(g: FiniteGroupoid, pred) -> Matrix:
    n = len(g.morphisms)
    return Matrix.from_sparse_cols(n * n, [{k: ONE} if pred(p, q) else {} for k, (p, q)
                                           in enumerate(product(g.morphisms, repeat=2))])


def function_algebra(g: FiniteGroupoid) -> GroupoidModel:
    """Pointwise functions on the groupoid; the coproduct is dual to
    composition: it sends f to (p, q) -> f(pq)."""
    idx = g.index()
    n = len(g.morphisms)
    alg = Algebra.from_structure(
        n, list(g.morphisms),
        [(i, i, i, ONE) for i in range(n)])

    t1, t2 = {}, {}
    for p in g.morphisms:
        for q in g.morphisms:
            col = idx[p] * n + idx[q]
            # T1 column at delta_p (x) delta_q: delta_{p q^-1} (x) delta_q
            if g.source[p] == g.source[q]:
                r = g.compose[(p, g.inverse[q])]
                t1[idx[r] * n + idx[q], col] = ONE
            # T2 column: delta_p (x) delta_{p^-1 q}
            if g.target[p] == g.target[q]:
                s = g.compose[(g.inverse[p], q)]
                t2[idx[p] * n + idx[s], col] = ONE
    t1, t2 = (Matrix.from_entries(n * n, n * n, t) for t in (t1, t2))
    # pointwise algebra is abelian, so the flipped-side maps coincide
    t3, t4 = t1, t2

    units = set(g.units)
    counit = [ONE if m in units else ZERO for m in g.morphisms]
    s_mat = Matrix.permutation([idx[g.inverse[m]] for m in g.morphisms])
    e_diag = _indicator_diag(g, lambda p, q: g.source[p] == g.target[q])
    g1 = _indicator_diag(g, lambda p, q: g.source[p] == g.source[q])
    g2 = _indicator_diag(g, lambda p, q: g.target[p] == g.target[q])
    unit = {i: ONE for i in range(n)}
    return GroupoidModel(g, alg, t1, t2, t3, t4,
                         Matrix.identity(n), counit, s_mat,
                         e_diag, e_diag, g1, g2, unit)


def convolution_algebra(g: FiniteGroupoid) -> GroupoidModel:
    """The groupoid algebra: basis lambda_p, product by composition (or
    zero), diagonal coproduct lambda_p -> lambda_p (x) lambda_p."""
    idx = g.index()
    n = len(g.morphisms)
    entries = []
    for (p, q), r in g.compose.items():
        entries.append((idx[p], idx[q], idx[r], ONE))
    alg = Algebra.from_structure(n, [f"L[{m}]" for m in g.morphisms], entries)

    t1, t2, t3, t4 = {}, {}, {}, {}
    for p in g.morphisms:
        for q in g.morphisms:
            col = idx[p] * n + idx[q]
            if g.composable(p, q):
                pq = g.compose[(p, q)]
                t1[idx[p] * n + idx[pq], col] = ONE   # lam_p (x) lam_p lam_q
                t2[idx[pq] * n + idx[q], col] = ONE   # lam_p lam_q (x) lam_q
            if g.composable(q, p):
                qp = g.compose[(q, p)]
                t3[idx[p] * n + idx[qp], col] = ONE   # lam_p (x) lam_q lam_p
                t4[idx[qp] * n + idx[q], col] = ONE   # lam_q lam_p (x) lam_q
    t1, t2, t3, t4 = (Matrix.from_entries(n * n, n * n, t) for t in (t1, t2, t3, t4))
    counit = [ONE] * n
    s_mat = Matrix.permutation([idx[g.inverse[m]] for m in g.morphisms])
    e_left = _indicator_diag(g, lambda p, q: g.target[p] == g.target[q])
    e_right = _indicator_diag(g, lambda p, q: g.source[p] == g.source[q])
    g_both = _indicator_diag(g, lambda p, q: g.source[p] == g.target[q])
    unit = {idx[u]: ONE for u in g.units}
    return GroupoidModel(g, alg, t1, t2, t3, t4,
                         s_mat, counit, s_mat,
                         e_left, e_right, g_both, g_both, unit)


def build_model(g: FiniteGroupoid, kind: str) -> GroupoidModel:
    if kind == "function":
        return function_algebra(g)
    if kind == "convolution":
        return convolution_algebra(g)
    raise InputError(f"unknown model kind {kind!r}")


def check_duality_pairing(g: FiniteGroupoid) -> CheckResult:
    """The duality-pairing result: with <delta_p, lam_q> = [p = q], the two
    models pair product against coproduct (both ways) and antipode against
    antipode; it fails at the first failure, in that order."""
    fun = function_algebra(g)
    conv = convolution_algebra(g)
    idx = g.index()
    n = len(g.morphisms)

    t1 = [dict(col) for col in fun.t1._sparse_cols()]

    def failures():
        # <f g, lam_p> = <f (x) g, coproduct(lam_p)>: coproduct is diagonal
        for a, b in product(g.morphisms, repeat=2):
            prod = fun.algebra.mul_basis(idx[a], idx[b])  # pointwise
            for p in g.morphisms:
                if prod.get(idx[p], ZERO) != (ONE if a == p == b else ZERO):
                    yield f"product/coproduct pairing fails at ({a},{b},{p})"

        # <coproduct(delta_r), lam_p (x) lam_q> = <delta_r, lam_p lam_q>
        for r, p, q in product(g.morphisms, repeat=3):
            # coefficient of delta_r at (p, q), read through T1 against q
            lhs = t1[idx[r] * n + idx[q]].get(idx[p] * n + idx[q], ZERO)
            if lhs != conv.algebra.mul_basis(idx[p], idx[q]).get(idx[r], ZERO):
                yield f"coproduct/product pairing fails at ({r},{p},{q})"

        # <S f, lam_p> = <f, S lam_p>
        for r, p in product(g.morphisms, repeat=2):
            if (g.inverse[r] == p) != (r == g.inverse[p]):
                yield f"antipode pairing fails at ({r},{p})"
    return _first_failures(failures(), {
        "duality-pairing": "both models pair product against coproduct and S against S"})[0]


def local_unit_for(g: FiniteGroupoid, kind: str, members: List[int]) -> SparseVec:
    """A local unit for the given basis indices of the kind model of g.

    Function model: the indicator of every morphism whose source and
    target stay among the touched units.  Convolution model: the sum of
    lambda_e over the touched units.
    """
    idx = g.index()
    touched = set()
    for i in members:
        m = g.morphisms[i]
        touched.add(g.source[m])
        touched.add(g.target[m])
    if kind == "function":
        return {idx[m]: ONE for m in g.morphisms
                if g.source[m] in touched and g.target[m] in touched}
    return {idx[u]: ONE for u in touched}

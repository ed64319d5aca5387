"""The coproduct layer.

A coproduct is supplied as the pair of canonical maps
T1(a (x) b) = coproduct(a) (1 (x) b) and T2(a (x) b) = (a (x) 1) coproduct(b)
on the tensor square; the multiplier-valued coproduct itself is
reconstructed from them.  This module validates the input maps, solves
for the counit, constructs the canonical idempotent E, extends the
coproduct to multipliers, builds the projection maps G1/G2 that control
the kernels of T1/T2, and checks the kernel axiom.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Dict, Iterator, List, Optional, Tuple

from .algebras import (Algebra, Multiplier, SparseVec, flip_map, is_isomorphism,
                       unless_at_unit)
from .linalg import (Echelon, Infeasible, InvariantViolation, Matrix, Subspace,
                     column_space, solve_linear)
from .report import CheckResult, _first_failures, check
from .scalars import ONE, ZERO, Scalar, _accumulate, _on_legs, _settle, _sum_products


class NoCounit(Exception):
    pass


class NonUniqueCounit(Exception):
    pass


class NoSuchIdempotent(Exception):
    """No canonical idempotent: an action is infeasible or underdetermined,
    or the solved element is not an idempotent multiplier."""


class IllDefinedExtension(Exception):
    pass


class NoSolution(Exception):
    """The defining system of G1 or G2 is inconsistent or underdetermined."""


def _lbl(c: "CoproductData", i: int) -> str:
    """Basis label (for groupoid models: the morphism id) for reports."""
    return c.parent.basis_labels[i]


def _lbl2(c: "CoproductData", idx: int) -> str:
    i, j = divmod(idx, c.n)
    return f"({_lbl(c, i)} (x) {_lbl(c, j)})"


def _lbl3(c: "CoproductData", idx: int) -> str:
    n = c.n
    ij, k = divmod(idx, n)
    i, j = divmod(ij, n)
    return f"({_lbl(c, i)} (x) {_lbl(c, j)} (x) {_lbl(c, k)})"


def _lbl_at(c: "CoproductData", leg: int, a: int, b: int, x: int) -> str:
    """The labels of e_a (x) e_b multiplied by e_x on one leg, in the order
    of the product: (x, a, b) on leg 1, (a, b, x) on leg 2."""
    return f"({', '.join(_lbl(c, i) for i in ((x, a, b) if leg == 1 else (a, b, x)))})"


def _leg_mult(c: "CoproductData", leg: int, x: int, inner: bool = False) -> Tuple[list, int]:
    """The columns of multiplication by e_x on one leg of the tensor square,
    with that leg's stride for _on_legs.  The product is taken from outside
    (left on leg 1, right on leg 2), or from inside with inner."""
    if (leg == 1) != inner:
        return c.parent._left_cols(x), (c.n if leg == 1 else 1)
    return c.parent._right_cols(x), (c.n if leg == 1 else 1)


def _leg_blocks(m: Matrix, leg: int, n: int) -> list:
    """The sparse columns of m, a map on the tensor square, grouped along
    one leg: block j lists k -> m(e_k (x) e_j) on leg 1 and
    k -> m(e_j (x) e_k) on leg 2, so _on_legs(block j, ...) applies m
    after an operator on that leg, in one pass."""
    cols = m._sparse_cols()
    return [cols[j::n] for j in range(n)] if leg == 1 else [cols[j * n:j * n + n] for j in range(n)]


def _counit_cols(counit: list) -> list:
    """The counit as the sparse columns of a 1 x n operator, for _on_legs."""
    return [[(0, v)] if v else [] for v in counit]


def _commute(p12: Matrix, q23: Matrix, x, n: int) -> bool:
    """Whether the operators p on legs (1,2) and q on legs (2,3) of the
    triple tensor power commute on the vector x, given as its (index,
    value) pairs."""
    pc, qc, nn = p12._sparse_cols(), q23._sparse_cols(), n * n
    return _on_legs(qc, nn, _on_legs(pc, nn, x, n).items()) == \
        _on_legs(pc, nn, _on_legs(qc, nn, x).items(), n)


def _value_at_unit(c: "CoproductData", m: Matrix, leg: int, j: int) -> SparseVec:
    """m(u (x) e_j) (u on leg 1) or m(e_j (x) u) (leg 2), for the checked
    unit u of the algebra."""
    n = c.n
    return m.apply_sparse({i * n + j if leg == 1 else j * n + i: v
                           for i, v in c.parent.checked_unit().items()})


def _unit_triple(c: "CoproductData", j: int) -> list:
    """u (x) e_j (x) u in the triple tensor power, as (index, value) pairs,
    for the checked unit u."""
    n, u = c.n, c.parent.checked_unit()
    return [((i * n + j) * n + k, v * w) for i, v in u.items() for k, w in u.items()]


def _module_laws_hold(c: "CoproductData", *laws: Tuple[Matrix, int]) -> bool:
    """Whether each (m, leg) passes its module identity at the unit
    (`_module_law_failures`); False without a checked unit."""
    return all(c.cache.module_law(c, m, leg) for m, leg in laws)


def _module_law_at_unit(c: "CoproductData", m: Matrix, leg: int) -> bool:
    """Whether m(e_a (x) e_b) = (e_a (x) 1) m(u (x) e_b) (leg 1), or
    m(e_a (x) e_b) = m(e_a (x) u)(1 (x) e_b) (leg 2), on every basis pair."""
    n = c.n
    for j in range(n):
        at_u = _value_at_unit(c, m, leg, j).items()
        for x in range(n):
            cols, s = _leg_mult(c, leg, x)
            if _on_legs(cols, n, at_u, s) != dict(m.col_sparse(x * n + j if leg == 1 else j * n + x)):
                return False
    return True


def _law_key(m: Multiplier) -> tuple:
    return ("law", m.parent.content_key(), m.left, m.right)


def _kron(x: SparseVec, y: SparseVec, n: int) -> SparseVec:
    """x (x) y in the tensor product with a second factor of dimension n."""
    return {i * n + j: v * w for i, v in x.items() for j, w in y.items()}


def _solver(m: Matrix, alt: bool) -> Echelon:
    """The solvable Echelon of m; alt reverses the column order, so free
    variables are zeroed from the other end."""
    return Echelon(m, col_order=range(m.cols - 1, -1, -1) if alt else None, solvable=True)


_MISSING = object()


class RunCache:
    """Results one verification run computes more than once, in one store
    keyed by the content of their inputs, never by object identity: every
    elimination a run keeps is an entry here.  A key is a tuple led by the
    name of what it holds: "law", "element", "module", "coproduct",
    "ranges", "ran", "echelon", "complement" and "ker" from the methods
    below, "psi", "mu" and "strips" from `CoproductData`, "E" from
    `compute_E`, "F" from `antipodes._f_multipliers` and "anti" from
    `antipodes._anti`.  The rest of a key is its inputs: Matrix and
    Subspace objects and algebra content keys, each hashed once, when it
    was built, and equal by content, and plain ints and flags.  A hit is the same computation on equal
    inputs done earlier in the run, so every check still runs and reads
    the same result.  Exceptions are not stored, and stored values are
    never written."""

    def __init__(self):
        self._store: Dict[tuple, object] = {}

    def once(self, key: tuple, build):
        """build(), computed once per key in this run; a build that raises
        stores nothing.  A stored None or False is a hit."""
        got = self._store.get(key, _MISSING)
        if got is _MISSING:
            got = self._store[key] = build()
        return got

    def column_space(self, m: Matrix) -> Subspace:
        """column_space(m), computed once per run."""
        return self.once(("ran", m), lambda: column_space(m))

    def echelon(self, m: Matrix, alt: bool = False) -> Echelon:
        """_solver(m, alt), once per run."""
        return self.once(("echelon", m, alt), lambda: _solver(m, alt))

    def complement(self, f: Matrix) -> Matrix:
        """1 - f for a square f, once per run."""
        return self.once(("complement", f), lambda: Matrix.identity(f.rows) - f)

    def span(self, n: int, vectors) -> Subspace:
        """The span of vectors in Q(i)^n, each a dict index -> nonzero
        value: the column space of the matrix they are the columns of."""
        return self.column_space(Matrix.from_sparse_cols(n, list(vectors)))

    def kernel(self, m: Matrix) -> Subspace:
        """Ker m, the span of the null space basis of `echelon(m)`, checked by
        rank-nullity against `column_space(m)`."""
        def build() -> Subspace:
            ech = self.echelon(m)
            kernel = self.span(m.cols, ech.nullspace())
            rank = self.column_space(m).dim
            if rank != ech.rank or rank + kernel.dim != m.cols:
                raise InvariantViolation(
                    f"rank-nullity fails: rank {rank} (row rank {ech.rank}), "
                    f"nullity {kernel.dim}, {m.cols} columns")
            return kernel
        return self.once(("ker", m), build)

    def multiplier_failure(self, m: Multiplier) -> Optional[str]:
        """m.compatibility_failure(), computed once per run."""
        return self.once(_law_key(m), m.compatibility_failure)

    def embed(self, parent: Algebra, x: SparseVec) -> Multiplier:
        """Multiplier.of_element(parent, x), its law walk recorded as passing
        when parent has a checked unit 1: x1 = x is the walk's identity."""
        m = Multiplier.of_element(parent, x)
        if parent.checked_unit() is not None:
            self.once(_law_key(m), lambda: None)
        return m

    def element(self, m: Multiplier) -> Optional[SparseVec]:
        """x = m.left(1) when m's algebra has a checked unit 1 and m passes
        its law walk, so that m is Multiplier.of_element(x); else None.
        Once per run, under the "element" key beside the "law" one; no
        caller writes into the x it is handed."""
        u = m.parent.checked_unit()
        if u is None:
            return None
        return self.once(("element",) + _law_key(m)[1:],
                         lambda: None if self.multiplier_failure(m) else m.left.apply_sparse(u))

    def coproduct_at_unit(self, c: "CoproductData") -> bool:
        """Whether T1 and T2 pass their module identities and the
        homomorphism identity at the unit (`_homomorphism_failures`), once
        per run; False without a checked unit.  Then T1(a (x) b) = D(a)(1 (x) b)
        and T2(a (x) b) = (a (x) 1)D'(b) for the multiplicative maps
        D(x) = T1(x (x) 1) and D'(x) = T2(1 (x) x)."""
        if c.parent.checked_unit() is None:
            return False
        return self.once(("coproduct", c.parent.content_key(), c.t1, c.t2),
                         lambda: _module_laws_hold(c, (c.t1, 2), (c.t2, 1)) and _homomorphism_at_unit(c))

    def in_ranges(self, c: "CoproductData", e: Multiplier) -> bool:
        """Whether E's left columns lie in Ran T1 and its right ones in
        Ran T2, once per run."""
        return self.once(("ranges", c.t1, c.t2, e.left, e.right), lambda: all(
            ran.contains(dict(col)) for act, ran in ((e.left, c.ran_t1()), (e.right, c.ran_t2()))
            for col in act._sparse_cols()))

    def unit_premises(self, c: "CoproductData", e: Multiplier) -> Optional[SparseVec]:
        """e0 = E(1 (x) 1) when `coproduct_at_unit` and `in_ranges` hold and
        E passes its law walk (E = e0), else None: the premises of the
        readings of extend_delta and of E's extended legs.  Then T1 z = E x
        for z of either pivot order, so extend_delta neither raises nor
        depends on the pivot, and at an element m its left action is
        x -> T1((m (x) 1)z) = D(m)e0 x, its right one x -> x e0 D'(m)."""
        if not self.coproduct_at_unit(c):
            return None
        e0 = self.element(e)
        return e0 if e0 is not None and self.in_ranges(c, e) else None

    def module_law(self, c: "CoproductData", m: Matrix, leg: int) -> bool:
        """_module_law_at_unit(c, m, leg), computed once per run; False
        without a checked unit."""
        if c.parent.checked_unit() is None:
            return False
        return self.once(("module", c.parent.content_key(), m, leg),
                         lambda: _module_law_at_unit(c, m, leg))


class CoproductData:
    """Canonical maps of a coproduct on a validated algebra.  What is
    derived from them by elimination (preimage solvers, psi, the mu
    decomposition, the strip stacks) is kept in `cache`, shared by every
    CoproductData of one verification run."""

    def __init__(self, parent: Algebra, t1: Matrix, t2: Matrix,
                 t3: Optional[Matrix] = None, t4: Optional[Matrix] = None,
                 cache: Optional[RunCache] = None):
        n = parent.dim
        for name, t in (("T1", t1), ("T2", t2), ("T3", t3), ("T4", t4)):
            if t is not None and (t.rows != n * n or t.cols != n * n):
                raise ValueError(f"{name} must be {n * n}x{n * n}")
        self.parent = parent
        self.t1 = t1
        self.t2 = t2
        self.t3 = t3
        self.t4 = t4
        self.aa = Algebra.tensor(parent, parent)
        self.n = n
        self.nn = n * n
        self.cache = cache if cache is not None else RunCache()
        # its one memo: delta_right reads it on every call
        self._mirror: Optional[CoproductData] = None

    def mirror(self) -> "CoproductData":
        """(A^op, sT2s, sT1s) for the flip s: its left-handed results, flipped,
        are this one's right-handed ones.  Built once, on first use."""
        if self._mirror is None:
            s = flip_map(self.n)
            self._mirror = CoproductData(self.parent.opposite(), s * self.t2 * s, s * self.t1 * s,
                                         cache=self.cache)
        return self._mirror

    def ran_t1(self) -> Subspace:
        return self.cache.column_space(self.t1)

    def ran_t2(self) -> Subspace:
        return self.cache.column_space(self.t2)

    def t1_preimage(self, svec: Dict[int, Scalar], alt: bool = False) -> Optional[Dict[int, Scalar]]:
        """One preimage of svec under T1, free variables zero, or None."""
        return self.cache.echelon(self.t1, alt).solve_sparse(svec)

    def t2_preimage(self, svec: Dict[int, Scalar], alt: bool = False) -> Optional[Dict[int, Scalar]]:
        return self.cache.echelon(self.t2, alt).solve_sparse(svec)

    def _psi_key(self) -> tuple:
        return ("psi", self.parent.content_key(), self.t1)

    def psi(self) -> Matrix:
        """The map p (x) c (x) d -> coproduct(e_p) (e_c (x) e_d), as a
        matrix from the triple tensor power to the tensor square, once per
        run for each (algebra, T1).  Its range is the range of T1 when the
        algebra is idempotent."""
        n = self.n
        # column (p·n + c)·n + d: e_c on the right of leg 1 of T1(e_p (x) e_d)
        return self.cache.once(self._psi_key(), lambda: Matrix.from_sparse_cols(self.nn, [
            _on_legs(self.parent._right_cols(c), n, self.t1.col_sparse(p * n + d), n)
            for p in range(n) for c in range(n) for d in range(n)]))

    def _psi_solver(self, alt: bool) -> Echelon:
        """_solver(psi, alt), kept per (algebra, T1, alt) rather than by
        psi's n^3 columns."""
        return self.cache.once(self._psi_key() + (alt,), lambda: _solver(self.psi(), alt))

    def psi_preimage(self, svec: Dict[int, Scalar], alt: bool = False) -> Optional[Dict[int, Scalar]]:
        return self._psi_solver(alt).solve_sparse(svec)

    def mu_decomposition(self, k: int, alt: bool = False) -> List[Tuple[int, int, Scalar]]:
        """e_k written as a sum of products u * v: list of (u, v, coeff),
        solved once per run for each algebra.  Exists because the algebra
        is idempotent."""
        return self.cache.once(("mu", self.parent.content_key()),
                               lambda: _mu_decompositions(self.parent))[alt, k]

    def _strip_echelon(self, left: bool, s: int) -> Echelon:
        """The solvable echelon of the maps x -> (multiplication by e_y on
        one leg)(x) stacked over y, built once per run for each (algebra,
        left, s); stripping through them is injective for a non-degenerate
        product.  The product by e_y is taken from the left (left) or from
        the right, on the leg of stride s.  With a checked unit
        `antipodes._strip_solve` strips through the unit instead."""
        def build() -> Echelon:
            n, nn = self.n, self.nn
            mult_cols = self.parent._left_cols if left else self.parent._right_cols
            stack = Matrix.from_sparse_cols(n * nn, [
                {y * nn + key: v for y in range(n)
                 for key, v in _on_legs(mult_cols(y), n, [(col, ONE)], s).items()}
                for col in range(nn)])
            return self.cache.echelon(stack)
        return self.cache.once(("strips", self.parent.content_key(), left, s), build)

    # ---- reconstructed coproduct actions --------------------------------

    def delta_left(self, a: int, x: SparseVec) -> SparseVec:
        """coproduct(e_a) . x for x in the tensor square."""
        acc: dict = {}
        n = self.n
        for idx, coeff in x.items():
            x1, x2 = divmod(idx, n)
            for row, v in self.t1.col_sparse(a * n + x2):
                p, q = divmod(row, n)
                if prod := self.parent.mul_basis(p, x1):
                    _accumulate(acc, prod.items(), coeff, v, base=q, stride=n)
        return _settle(acc) if acc else acc

    def delta_right(self, a: int, x: SparseVec) -> SparseVec:
        """x . coproduct(e_a), the flip of coproduct(e_a) . (flip of x) in the mirror."""
        n = self.n
        got = self.mirror().delta_left(a, {i % n * n + i // n: v for i, v in x.items()})
        return {i % n * n + i // n: v for i, v in got.items()}


def _mu_decompositions(a: Algebra) -> Dict[Tuple[bool, int], List[Tuple[int, int, Scalar]]]:
    """(alt, k) -> e_k as a list of (u, v, coeff) with e_k = sum coeff e_u e_v,
    from the product map's two pivot orders."""
    n = a.dim
    mu = Matrix.from_sparse_cols(n, [a.mul_basis(i, j) for i in range(n) for j in range(n)])
    decomp = {}
    for alt in (False, True):
        ech = _solver(mu, alt)
        for k in range(n):
            sol = ech.solve_sparse({k: ONE})
            if sol is None:
                raise Infeasible("algebra is not idempotent: basis vector has no product decomposition")
            decomp[alt, k] = [(idx // n, idx % n, v) for idx, v in sorted(sol.items())]
    return decomp


def transport(c: CoproductData, s: Matrix, s_inv: Matrix, target: Algebra,
              maps: Tuple[Matrix, Matrix, Matrix, Matrix]) -> Optional[Tuple[Matrix, Matrix]]:
    """Phi = s (x) s and its inverse s_inv (x) s_inv when the presentation
    (target, *maps) is the image of (A, T1, T2, T3, T4) under s: s is an
    algebra isomorphism from A onto target with inverse s_inv
    (`is_isomorphism`), and Phi T Phi^-1 is the map of maps in T's place,
    for each of T1..T4.  Otherwise None.  Every condition is a literal
    equality, tested cheapest first, so nothing about s is assumed; for
    s = 1 the maps are compared as they are, Phi T Phi^-1 being T."""
    if not is_isomorphism(c.parent, s, s_inv, target):
        return None
    one = s == Matrix.identity(c.n)
    phi, phi_inv = s.kron(s), s_inv.kron(s_inv)
    if any(t is None or (t if one else phi * t * phi_inv) != image
           for t, image in zip((c.t1, c.t2, c.t3, c.t4), maps)):
        return None
    return phi, phi_inv


# ---- validation ----------------------------------------------------------


def validate_coproduct(c: CoproductData) -> List[CheckResult]:
    """All structural laws of the canonical maps, exactly."""
    out = _first_failures(chain(_module_law_failures(c, [(c.t1, 2, "T1 right-module law fails")]),
                                _module_law_failures(c, [(c.t2, 1, "T2 left-module law fails")])),
                          {"coproduct-module-laws": "one-sided module laws hold for T1 and T2"})
    out += _first_failures(_mixed_law_failures(c), {
        "coproduct-mixed-law": "T1 and T2 compute the same two-sided products"})
    out += _first_failures(_homomorphism_failures(c), {
        "coproduct-homomorphism": "reconstructed coproduct is multiplicative against T1 and T2"})
    out += _first_failures(_coassociativity_failures(c), {
        "coproduct-coassociative": "(T2 x id)(id x T1) = (id x T1)(T2 x id) on the triple tensor power"})
    if c.t3 is not None or c.t4 is not None:
        out += _first_failures(_regular_maps_failures(c), {
            "coproduct-regular-maps": "supplied T3/T4 are the flipped-side versions of T1/T2"})
    return out


# The walks of validate_coproduct below are read at the checked unit u
# when T1 and T2 pass their module identities at the unit
# (`_module_law_failures`): T1(e_a (x) e_b) = T1(e_a (x) u)(1 (x) e_b) and
# T2(e_a (x) e_b) = (e_a (x) 1)T2(u (x) e_b).  Each docstring shows that
# the identity at u then implies the whole walk.  A walk that holds
# passes its identity at u, a linear combination of walked instances, so
# only a failing walk runs in full.


def _mixed_law_failures(c: CoproductData) -> Iterator[str]:
    """(e_a2 (x) 1)T1(e_a (x) e_b) = T2(e_a2 (x) e_a)(1 (x) e_b) over
    (a2, a, b).  At the unit: by the module identities the two sides are
    (e_a2 (x) 1)T1(e_a (x) u)(1 (x) e_b) and (e_a2 (x) 1)T2(u (x) e_a)(1 (x) e_b),
    so T1(e_a (x) u) = T2(u (x) e_a) for every a, n tests, implies all n^3."""
    n = c.n

    def at_unit() -> bool:
        return _module_laws_hold(c, (c.t1, 2), (c.t2, 1)) and \
            all(_value_at_unit(c, c.t1, 2, a) == _value_at_unit(c, c.t2, 1, a) for a in range(n))
    return unless_at_unit(at_unit, (
        f"({_lbl(c, a2)} (x) 1)T1({_lbl(c, a)} (x) {_lbl(c, b)}) != T2({_lbl(c, a2)} (x) {_lbl(c, a)})(1 (x) {_lbl(c, b)})"
        for a2, a, b in product(range(n), repeat=3)
        if _on_legs(c.parent._left_cols(a2), n, c.t1.col_sparse(a * n + b), n) !=
        _on_legs(c.parent._right_cols(b), n, c.t2.col_sparse(a2 * n + a))))


def _homomorphism_failures(c: CoproductData) -> Iterator[str]:
    """T1(xa (x) b) = coproduct(x).T1(a (x) b) over (x, a, b), then
    T2(a (x) bx) = T2(a (x) b).coproduct(x) over (b, x, a).  At the unit:
    `delta_left` multiplies its argument's first leg from the right, so
    with T1's module identity both sides at (x, a, b) are their values at
    (x, a, u) times 1 (x) e_b; `delta_right` multiplies the second leg from
    the left, so with T2's both sides at (a, b, x) are e_a (x) 1 times their
    values at (u, b, x).  So b = u and a = u, 2n^2 tests, imply all 2n^3;
    the run cache keeps the result (`RunCache.coproduct_at_unit`)."""
    n = c.n

    def walk():
        for t, leg, delta in ((c.t1, 1, c.delta_left), (c.t2, 2, c.delta_right)):
            mults = [_leg_mult(c, leg, x)[0] for x in range(n)]
            blocks = _leg_blocks(t, leg, n)
            for p, q, r in product(range(n), repeat=3):
                x, a, b = (p, q, r) if leg == 1 else (q, r, p)
                lhs = _on_legs(blocks[b], c.nn, mults[x][a]) if leg == 1 else \
                    _on_legs(blocks[a], c.nn, mults[x][b])
                if lhs != delta(x, dict(t.col_sparse(a * n + b))):
                    yield (f"T1({_lbl(c, x)}{_lbl(c, a)} (x) {_lbl(c, b)}) != coproduct({_lbl(c, x)}).T1({_lbl(c, a)} (x) {_lbl(c, b)})"
                           if leg == 1 else
                           f"T2({_lbl(c, a)} (x) {_lbl(c, b)}{_lbl(c, x)}) != T2({_lbl(c, a)} (x) {_lbl(c, b)}).coproduct({_lbl(c, x)})")
    return unless_at_unit(lambda: c.cache.coproduct_at_unit(c), walk())


def _homomorphism_at_unit(c: CoproductData) -> bool:
    """T1(e_x e_y (x) u) = coproduct(x).T1(e_y (x) u) and
    T2(u (x) e_y e_x) = T2(u (x) e_y).coproduct(x) on every basis pair."""
    n, u = c.n, c.parent.checked_unit()
    return all(
        c.t1.apply_sparse(_kron(c.parent.mul_basis(x, y), u, n)) ==
        c.delta_left(x, _value_at_unit(c, c.t1, 2, y))
        and c.t2.apply_sparse(_kron(u, c.parent.mul_basis(y, x), n)) ==
        c.delta_right(x, _value_at_unit(c, c.t2, 1, y))
        for x, y in product(range(n), repeat=2))


def _coassociativity_failures(c: CoproductData) -> Iterator[str]:
    """(T2 x id)(id x T1) = (id x T1)(T2 x id) on every basis triple.  At
    the unit: T2 x id commutes with e_i (x) 1 (x) 1 from the left by T2's
    module identity and with 1 (x) 1 (x) e_k from the right, which it does
    not touch; id x T1 likewise by T1's.  So both sides at
    e_i (x) e_j (x) e_k are (e_i (x) 1 (x) 1)(side at u (x) e_j (x) u)(1 (x) 1 (x) e_k),
    and n tests imply all n^3."""
    n = c.n

    def at_unit() -> bool:
        return _module_laws_hold(c, (c.t1, 2), (c.t2, 1)) and \
            all(_commute(c.t2, c.t1, _unit_triple(c, j), n) for j in range(n))
    return unless_at_unit(at_unit, (
        f"coassociativity fails at basis triple ({', '.join(_lbl(c, i) for i in (idx // c.nn, idx // n % n, idx % n))})"
        for idx in range(n ** 3) if not _commute(c.t2, c.t1, [(idx, ONE)], n)))


def _module_law_failures(c: CoproductData, laws, triples=None) -> Iterator[str]:
    """The failing one-sided module laws.  Walks the basis triples
    (a, b, x) in the order given (x innermost by default) and tests each
    law (m, leg, what) in turn: m commutes with multiplication by e_x from
    outside on that leg, at e_a (x) e_b, i.e.
    m((e_x (x) 1)(e_a (x) e_b)) = (e_x (x) 1) m(e_a (x) e_b) on leg 1 and
    m((e_a (x) e_b)(1 (x) e_x)) = m(e_a (x) e_b)(1 (x) e_x) on leg 2.  A
    failure reads "<what> at (x, a, b)" or "<what> at (a, b, x)".

    At the checked unit u, the module identity of a law on leg 1 is
    m(e_a (x) e_b) = (e_a (x) 1) m(u (x) e_b) for every basis pair: it is
    the law at (u, b, a), and it implies the law at every triple, as
    m(e_x e_a (x) e_b) = (e_x e_a (x) 1) m(u (x) e_b) = (e_x (x) 1) m(e_a (x) e_b)
    by associativity.  On leg 2 it is m(e_a (x) e_b) = m(e_a (x) u)(1 (x) e_b).
    So n^2 tests stand for n^3, kept per map and leg by the run cache;
    the walk runs when any law fails its identity."""
    return unless_at_unit(lambda: _module_laws_hold(c, *((m, leg) for m, leg, _ in laws)),
                          _module_law_walk(c, laws, triples))


def _module_law_walk(c: CoproductData, laws, triples) -> Iterator[str]:
    n = c.n
    mults = {leg: [_leg_mult(c, leg, x) for x in range(n)] for _, leg, _ in laws}
    laws = [(m, leg, what, _leg_blocks(m, leg, n)) for m, leg, what in laws]
    for a, b, x in triples or product(range(n), repeat=3):
        for m, leg, what, blocks in laws:
            cols, s = mults[leg][x]
            # m after the product on the leg, and the product after m
            lhs = _on_legs(blocks[b], m.rows, cols[a]) if leg == 1 else \
                _on_legs(blocks[a], m.rows, cols[b])
            if lhs != _on_legs(cols, n, m.col_sparse(a * n + b), s):
                yield f"{what} at {_lbl_at(c, leg, a, b, x)}"


def apply_on_legs13(m: Matrix, x: Dict[int, Scalar], n: int) -> Dict[int, Scalar]:
    """Apply an operator on the tensor square to legs (1,3) of a sparse
    triple-tensor vector, the one leg pair that is not adjacent."""
    # i (x) j (x) k goes to sum r1 (x) j (x) r2 over m(e_i (x) e_k) = sum r1 (x) r2
    nn = n * n
    return _sum_products(((row - row % n + idx // n % n) * n + row % n, coeff, v)
                         for idx, coeff in x.items()
                         for row, v in m.col_sparse(idx // nn * n + idx % n))


def _regular_maps_failures(c: CoproductData) -> Iterator[str]:
    """T3 against T1 on leg 2, (1 (x) e_b) T1(a (x) x) = T3(a (x) b)(1 (x) e_x),
    then T4 against T2 on leg 1, (e_x (x) 1) T4(a (x) b) = T2(x (x) b)(e_a (x) 1):
    the leg's index u of T3/T4's column multiplies from inside, and e_x
    takes its place in the column of T1/T2.

    At the checked unit, x = u: T3(a (x) b) = (1 (x) e_b)T1(a (x) u) and
    T4(a (x) b) = T2(u (x) b)(e_a (x) 1) on every basis pair, n^2 tests
    each.  With T1's (T2's) module identity, T1(a (x) x) = T1(a (x) u)(1 (x) e_x)
    (T2(x (x) b) = (e_x (x) 1)T2(u (x) b)), so multiplying the identity by
    e_x on the leg gives the law at x, by associativity."""
    n = c.n
    maps = [(t, leg, base, what) for t, leg, base, what in (
        (c.t3, 2, c.t1, "T3 inconsistent with T1"), (c.t4, 1, c.t2, "T4 inconsistent with T2"))
        if t is not None]

    def at_unit() -> bool:
        if not _module_laws_hold(c, *((base, leg) for _, leg, base, _ in maps)):
            return False
        for t, leg, base, _ in maps:
            for a, b in product(range(n), repeat=2):
                on_leg, other = (a, b) if leg == 1 else (b, a)
                cols, s = _leg_mult(c, leg, on_leg, inner=True)
                if _on_legs(cols, n, _value_at_unit(c, base, leg, other).items(), s) != \
                        dict(t.col_sparse(a * n + b)):
                    return False
        return True

    def walk():
        for t, leg, base, what in maps:
            outer = [_leg_mult(c, leg, x) for x in range(n)]
            inner = [_leg_mult(c, leg, u, inner=True) for u in range(n)]
            for a, b, x in product(range(n), repeat=3):
                j = a * n + b
                cols, s = outer[x]
                u = j // s % n
                if _on_legs(cols, n, t.col_sparse(j), s) != \
                        _on_legs(inner[u][0], n, base.col_sparse(j + (x - u) * s), s):
                    yield f"{what} at {_lbl_at(c, leg, a, b, x)}"
    return unless_at_unit(at_unit, walk())


# ---- fullness and counit --------------------------------------------------


def check_fullness(c: CoproductData) -> Tuple[Subspace, Subspace, bool]:
    """Smallest V with Ran(T1) inside V (x) A, and W with Ran(T2) inside
    A (x) W, the mirror's V; the coproduct is full when both are everything."""
    n = c.n
    v, w = (c.cache.span(n, (x for col in range(c.nn) for x in _leg_slices(d, col).values()))
            for d in (c, c.mirror()))
    return v, w, (v.dim == n and w.dim == n)


def _leg_slices(c: CoproductData, col: int) -> Dict[int, SparseVec]:
    """Column col of T1 as sparse vectors over leg 1 keyed by the index on leg 2."""
    out: Dict[int, SparseVec] = {}
    for row, v in c.t1.col_sparse(col):
        i, j = divmod(row, c.n)
        out.setdefault(j, {})[i] = v
    return out


def solve_counit(c: CoproductData) -> list:
    """The unique functional with (eps (x) id) T1 = product and
    (id (x) eps) T2 = product, the latter read off the mirror's T1."""
    n = c.n
    constraints = []
    for a in range(n):
        for b in range(n):
            prod = c.parent.mul_basis(a, b)
            for rows in (_leg_slices(c, a * n + b), _leg_slices(c.mirror(), b * n + a)):
                for k in set(rows) | set(prod):
                    constraints.append((rows.get(k, {}), prod.get(k, ZERO)))
    try:
        sol, space = solve_linear(constraints, n, c.cache)
    except Infeasible as exc:
        raise NoCounit("counit constraints are infeasible") from exc
    if space.dim:
        raise NonUniqueCounit(
            f"counit underdetermined ({space.dim} free directions); the coproduct cannot be full")
    return sol


# ---- canonical idempotent -------------------------------------------------


def compute_E(c: CoproductData) -> Multiplier:
    """The canonical idempotent: the multiplier of the tensor square
    whose left action fixes Ran(T1) pointwise with image inside it, and
    whose right action does the same for Ran(T2).

    Its columns are pinned down by non-degeneracy: E.x is the unique
    member of Ran(T1) with v.(E.x) = v.x for every v in Ran(T2).  It
    depends on nothing else, so it is solved once per run for each
    (tensor square, Ran T1, Ran T2) and bound to the caller's square.
    """
    got = c.cache.once(("E", c.aa.content_key(), c.ran_t1(), c.ran_t2()), lambda: _solve_E(c))
    return Multiplier(c.aa, got.left, got.right)


def _solve_E(c: CoproductData) -> Multiplier:
    nn = c.nn
    aa = c.aa
    b1 = c.ran_t1().rows
    b2 = c.ran_t2().rows
    if not b1 or not b2:
        # zero coproduct: E = 0 multiplier, degenerate but report-level callers
        # will already have failed fullness
        return Multiplier(aa, Matrix.zero(nn, nn), Matrix.zero(nn, nn))

    e = _e_at_unit(c)
    if e is None:
        left = _solve_action(c, fix_basis=b1, test_basis=b2, left_side=True)
        right = _solve_action(c, fix_basis=b2, test_basis=b1, left_side=False)
        e = Multiplier(aa, left, right)
    if e * e != e:
        raise NoSuchIdempotent("solved canonical element is not idempotent")
    bad = c.cache.multiplier_failure(e)
    if bad:
        raise NoSuchIdempotent(f"canonical element is not a multiplier: {bad}")
    return e


def _e_at_unit(c: CoproductData) -> Optional[Multiplier]:
    """The element e = T1(1 (x) 1) embedded in M(A (x) A), for the checked
    unit 1, when these literal tests show it to be the solution of both
    `_solve_action` systems, else None:
    - e b = b for each basis vector b of Ran T1, and v e = v for each v of
      Ran T2, read off the embedded multiplier's columns;
    - e x lies in Ran T1 and x e in Ran T2 for every basis vector x.
    So e lies in Ran T1, and in Ran T2 as 1 e.  The left system asks, per x, for w in Ran T1 with v w = v x
    for every v in Ran T2.  w = e x is one: v (e x) = (v e) x = v x.  It
    is the only one: w in Ran T1 with v w = 0 for every v in Ran T2 is
    e w = 0, as e lies in Ran T2, and w = e w.  So the system has full rank
    and each column is feasible, and as its solution is unique, it is
    e x.  The right system likewise, with the sides exchanged."""
    uu = c.aa.checked_unit()
    if uu is None:
        return None
    m = c.cache.embed(c.aa, c.t1.apply_sparse(uu))
    if any(m.left.apply_sparse(b) != b for b in c.ran_t1().rows) or \
            any(m.right.apply_sparse(v) != v for v in c.ran_t2().rows):
        return None
    return m if c.cache.in_ranges(c, m) else None


def _solve_action(c: CoproductData, fix_basis, test_basis, left_side: bool) -> Matrix:
    """Solve one action of E columnwise: w in span(fix_basis) with
    v.w = v.x (left side; w.v = x.v on the right side) for all v; both
    bases are sparse vectors."""
    nn = c.nn
    aa = c.aa
    r = len(fix_basis)
    # products of every test vector with every unknown-basis / input-basis vector
    rows = []        # (test index, output coord, constraint row)
    for ti, vs in enumerate(test_basis):
        by_coord: Dict[int, SparseVec] = {}
        for wi, ws in enumerate(fix_basis):
            prod = aa.mul_sparse(vs, ws) if left_side else aa.mul_sparse(ws, vs)
            for out_coord, v in prod.items():
                by_coord.setdefault(out_coord, {})[wi] = v
        rows.extend((ti, out_coord, by_coord[out_coord]) for out_coord in sorted(by_coord))
    # the constraint rows are the columns of the transpose
    amat = Matrix.from_sparse_cols(r, [row for _, _, row in rows]).transpose()
    ech = Echelon(amat, solvable=True)
    if ech.rank < r:
        raise NoSuchIdempotent(
            f"{'left' if left_side else 'right'} action underdetermined "
            f"({r - ech.rank} free directions)")
    # v . e_x  (or e_x . v) for every test vector and basis column
    prods = [[aa.mul_by_basis(vs, x) if left_side else aa.basis_times(x, vs) for x in range(nn)]
             for vs in test_basis]
    cols_out = []
    fix_cols = [w.items() for w in fix_basis]
    for x in range(nn):
        rhs = {i: prods[ti][x][out_coord] for i, (ti, out_coord, _) in enumerate(rows)
               if out_coord in prods[ti][x]}
        sol = ech.solve_sparse(rhs)
        if sol is None:
            side = "E(A (x) A) = Ran(T1)" if left_side else "(A (x) A)E = Ran(T2)"
            raise NoSuchIdempotent(
                f"no multiplier action with {side}: column {_lbl2(c, x)} infeasible")
        cols_out.append(_on_legs(fix_cols, nn, sol.items()))
    return Matrix.from_sparse_cols(nn, cols_out)


def validate_E(c: CoproductData, e: Multiplier) -> List[CheckResult]:
    """Post-hoc: idempotency, multiplier laws, exact range equalities, and
    absorption of the coproduct, whose walk is read at 1 (x) 1 under
    `RunCache.unit_premises`.  By T1's module identity, delta_left(a, x1 (x) x2)
    = T1(a (x) x2)(x1 (x) 1) is D(a)x for D(a) = T1(a (x) 1); by T2's,
    delta_right(a, x1 (x) x2), the flipped mirror's delta_left at x2 (x) x1,
    is (1 (x) x2)T2(x1 (x) a) = xD'(a) for D'(a) = T2(1 (x) a).  E's left and
    right laws give E.(D(a)x) = (E.D(a))x and (xD'(a)).E = x(D'(a).E), so the
    2n tests E.D(a) = D(a), D'(a).E = D'(a) (the walk at 1 (x) 1) imply its 2n^3."""
    left, right = e.left, e.right

    def at_unit() -> bool:
        return c.cache.unit_premises(c, e) is not None and all(
            act.apply_sparse(d) == d for act, t, leg in ((left, c.t1, 2), (right, c.t2, 1))
            for d in (_value_at_unit(c, t, leg, a) for a in range(c.n)))

    def absorption():
        for a, x in product(range(c.n), range(c.nn)):
            xs = {x: ONE}
            da = c.delta_left(a, xs)
            if left.apply_sparse(da) != da:
                yield f"E.coproduct({_lbl(c, a)}) != coproduct({_lbl(c, a)}) at {_lbl2(c, x)}"
            db = c.delta_right(a, xs)
            if right.apply_sparse(db) != db:
                yield f"coproduct({_lbl(c, a)}).E != coproduct({_lbl(c, a)}) at {_lbl2(c, x)}"

    def ranges():
        if not (c.cache.column_space(left) == c.ran_t1() and c.cache.column_space(right) == c.ran_t2()
                and left * c.t1 == c.t1 and right * c.t2 == c.t2):
            yield "E action ranges or fixed spaces are wrong"
    return _first_failures(chain(unless_at_unit(at_unit, absorption()), ranges()), {"idempotent-valid":
                           f"E idempotent with action ranks {c.ran_t1().dim}/{c.nn} and {c.ran_t2().dim}/{c.nn}"})


def compute_E_from_flips(c: CoproductData) -> Optional[Multiplier]:
    """Recompute E from T3/T4 (their ranges prescribe the same element)."""
    if c.t3 is None or c.t4 is None:
        return None
    flipped = CoproductData(c.parent, c.t4, c.t3, cache=c.cache)
    flipped.aa = c.aa
    return compute_E(flipped)


# ---- coproduct extension to multipliers ------------------------------------


def extend_delta(c: CoproductData, e: Multiplier, m: Multiplier) -> Multiplier:
    """The unique extension of the coproduct to the multiplier m, with
    value E at the identity.

    Left action on x: decompose E.x = T1(z), answer T1((m (x) 1) z);
    right action via T2 and (1 (x) m).  Well-definedness is asserted by
    recomputing with a second preimage from a shifted pivot choice.
    """
    n, nn = c.n, c.nn
    t1, t2 = _leg_blocks(c.t1, 1, n), _leg_blocks(c.t2, 2, n)
    ml, mr = m.left._sparse_cols(), m.right._sparse_cols()
    # the columns of T1 (m (x) 1) and of T2 (1 (x) m)
    # the solvable echelons of T1 and T2 in both pivot orders, fetched once
    sides = (("left", e.left, [c.cache.echelon(c.t1, alt) for alt in (False, True)], [],
              [_on_legs(t1[b], nn, ml[a]).items() for a in range(n) for b in range(n)]),
             ("right", e.right, [c.cache.echelon(c.t2, alt) for alt in (False, True)], [],
              [_on_legs(t2[a], nn, mr[b]).items() for a in range(n) for b in range(n)]))
    for x in range(nn):
        for side, act, (ech, ech_alt), cols, composed in sides:
            ex = dict(act.col_sparse(x))
            z = ech.solve_sparse(ex)
            if z is None:
                raise IllDefinedExtension(f"E.{_lbl2(c, x)} is outside Ran(T1)" if side == "left"
                                          else f"{_lbl2(c, x)}.E is outside Ran(T2)")
            col = _on_legs(composed, nn, z.items())
            if col != _on_legs(composed, nn, ech_alt.solve_sparse(ex).items()):
                raise IllDefinedExtension(
                    f"extension {side} action at {_lbl2(c, x)} depends on the preimage")
            cols.append(col)
    return Multiplier(c.aa, Matrix.from_sparse_cols(nn, sides[0][3]),
                      Matrix.from_sparse_cols(nn, sides[1][3]))


# ---- extended legs of E and their conditions --------------------------------


def _extended_leg_columns(c: CoproductData, e: Multiplier,
                          first_leg: bool, alt: bool) -> Iterator[SparseVec]:
    """The columns, basis triple by basis triple, of the left action of
    (coproduct (x) id)(E) (first_leg) or (id (x) coproduct)(E).

    Composed from four pieces, said here for the first leg; the second
    leg is the same with the two legs of E exchanged.  E (x) 1 sends
    e_i (x) e_j (x) e_k to E(e_i (x) e_j) (x) e_k; the psi preimage writes
    E(e_i (x) e_j) as a sum of triples p (x) c (x) d; the mu decomposition
    writes e_k as a sum of products u v; and the legs of E turn
    (k, p (x) c (x) d) into psi(f (x) c (x) d) (x) g v summed over
    E(e_p (x) e_u) = sum f (x) g.  The (k, p) and (k, triple) pieces are
    built once and shared by every column.  alt takes the preimages with
    the other pivot order.
    """
    n, nn = c.n, c.nn
    ech = c._psi_solver(alt)    # fetched once for every column
    psi_cols = c.psi()._sparse_cols()
    # strides of the leg that E's leg multiplies and of the leg psi expands
    s_plain, s_psi = (1, n) if first_leg else (n, 1)
    halves: Dict[Tuple[int, int], SparseVec] = {}
    terms: Dict[Tuple[int, int], SparseVec] = {}

    def half(k: int, p: int) -> SparseVec:
        # sum over e_k = sum cf u v of E(e_p (x) e_u)(1 (x) v)
        got = halves.get((k, p))
        if got is None:
            mu = c.mu_decomposition(k, alt=alt)
            parts = [_on_legs(c.parent._right_cols(vv), n,
                              e.left.col_sparse(p * n + uu if first_leg else uu * n + p), s_plain).items()
                     for uu, vv, _ in mu]
            got = halves[k, p] = _on_legs(parts, nn, enumerate(cf for _, _, cf in mu))
        return got

    def term(k: int, t: int) -> SparseVec:
        # psi(a (x) c (x) d) (x) b summed over a (x) b in half(k, p),
        # for t = p (x) c (x) d
        got = terms.get((k, t))
        if got is None:
            p, cd = divmod(t, nn)
            got = terms[k, t] = _on_legs(psi_cols[cd::nn], nn, half(k, p).items(), s_psi)
        return got

    for idx in range(n * nn):
        if first_leg:
            ij, k = divmod(idx, n)
        else:
            k, ij = divmod(idx, nn)
        w = e.left.col_sparse(ij)
        zvec = ech.solve_sparse(dict(w)) if w else {}
        if zvec is None:
            raise IllDefinedExtension(
                "extended leg action: component escapes the coproduct range")
        zs = sorted(zvec.items())
        yield _on_legs([term(k, t).items() for t, _ in zs], n * nn, enumerate(v for _, v in zs))


def check_E_conditions(c: CoproductData, e: Multiplier) -> List[CheckResult]:
    """The leg conditions: both extended coproduct legs of E agree, equal
    the product (E x 1)(1 x E), the two lifted idempotents commute, and
    the extended leg is dominated by both liftings.

    Read at 1 (x) 1 (x) 1 under `RunCache.unit_premises` (e0 = E(1 (x) 1),
    D(a) = T1(a (x) 1)).  Then `_extended_leg_columns` is choice-free: the
    psi preimage z of E x, in Ran T1, exists, as psi(p (x) 1 (x) d) = T1(p (x) d), and
    enters only through psi(z) = E x, as psi(p (x) c (x) d) = D(p)(c (x) d)
    and (D (x) id)(e0(e_p (x) e_k)) = (D (x) id)(e0)(D(p) (x) e_k); the mu
    decomposition (e_k = e_k 1 is one) enters only through e_k.  So the
    legs are the left multiplications by d1 = (D (x) id)(e0)(e0 (x) 1) and
    d2 = (id (x) D)(e0)(1 (x) e0), and alt neither differs nor raises.
    With E12 = e0 (x) 1 and E23 = 1 (x) e0 the walk compares left
    multiplications by E12 E23, E23 E12, d1, d2, E12 d1, E23 d1, d1 E12
    and d1 E23, equal exactly when their values at 1 (x) 1 (x) 1 are."""
    n, nn = c.n, c.nn
    nnn = n * nn
    ecols = e.left._sparse_cols()

    def e12(x: Dict[int, Scalar]) -> Dict[int, Scalar]:
        return _on_legs(ecols, nn, x.items(), n)

    def e23(x: Dict[int, Scalar]) -> Dict[int, Scalar]:
        return _on_legs(ecols, nn, x.items())

    def at_unit() -> bool:
        e0 = c.cache.unit_premises(c, e)
        if e0 is None:
            return False
        u, rcols = c.parent.checked_unit(), e.right._sparse_cols()
        de = [c.delta_left(a, e0) for a in range(n)]
        d1 = _sum_products((r * n + ab % n, v, w) for ab, v in e0.items() for r, w in de[ab // n].items())
        d2 = _sum_products((ab // n * nn + r, v, w) for ab, v in e0.items() for r, w in de[ab % n].items())
        return d1 == d2 == e12(_kron(u, e0, nn)) == e23(_kron(e0, u, n)) == e12(d1) == e23(d1) \
            == _on_legs(rcols, nn, d1.items(), n) == _on_legs(rcols, nn, d1.items())

    def failures():
        # columns of both extended legs, each equal to its shifted-pivot
        # recomputation; triple by triple, so the first failure is reported
        d1cols: List[SparseVec] = []
        d2cols: List[SparseVec] = []
        for first_leg, cols, name in ((True, d1cols, "(coproduct x id)(E)"),
                                      (False, d2cols, "(id x coproduct)(E)")):
            pairs = zip(_extended_leg_columns(c, e, first_leg, alt=False),
                        _extended_leg_columns(c, e, first_leg, alt=True))
            for idx, (col, alt_col) in enumerate(pairs):
                if col != alt_col:
                    raise IllDefinedExtension(f"{name} ill-defined at {_lbl3(c, idx)}")
                cols.append(col)
        d1items = [col.items() for col in d1cols]

        # e-coassociativity reports the first triple where the two legs
        # differ, if any, before any triple where domination fails
        for idx in range(nnn):
            if d1cols[idx] != d2cols[idx]:
                yield "e-coassociativity", f"two extended legs of E differ at {_lbl3(c, idx)}"
        for idx in range(nnn):
            x = {idx: ONE}
            e1x = e12(x)
            e2x = e23(x)
            p12 = e12(e2x)
            if p12 != e23(e1x):
                yield "e-legs-commute", f"(E x 1)(1 x E) != (1 x E)(E x 1) at {_lbl3(c, idx)}"
            d1 = d1cols[idx]
            if d1 != p12:
                yield "e-product-formula", f"(coproduct x id)(E) != (E x 1)(1 x E) at {_lbl3(c, idx)}"
            if e12(d1) != d1 or e23(d1) != d1 or \
               _on_legs(d1items, nnn, e1x.items()) != d1 or \
               _on_legs(d1items, nnn, e2x.items()) != d1:
                yield "e-coassociativity", f"extended leg of E not dominated at {_lbl3(c, idx)}"
    return _first_failures(unless_at_unit(at_unit, failures()), {
        "e-legs-commute": "the two liftings of E commute",
        "e-coassociativity": "extended legs agree and are dominated by both liftings",
        "e-product-formula": "extended leg equals (E x 1)(1 x E)"})


# ---- projection maps G1 / G2 ------------------------------------------------


class ProjectionMaps:
    def __init__(self, g1: Matrix, g2: Matrix):
        self.g1 = g1
        self.g2 = g2


def solve_G_maps(c: CoproductData, e: Multiplier) -> ProjectionMaps:
    """G1, G2 as the unique solutions of their defining leg-13 equalities;
    G2 is the flipped G1 of the mirror, whose E is the flipped (E.right, E.left).

    Uniqueness needs fullness; infeasibility or ambiguity raise.  The
    counit-contraction construction is compared by validate_G_maps.
    """
    s = flip_map(c.n)
    # the premises of the reading at the unit, from the run store: E passes
    # its law walk, T1 (for G1) and T2 (for G2, whose mirror T1 is sT2s)
    # pass their module identities on leg 2 and leg 1
    u = c.parent.checked_unit() if c.cache.element(e) is not None else None
    g1 = _solve_leg_system(c, e.left._sparse_cols(), "G1", u if c.cache.module_law(c, c.t1, 2) else None)
    g2 = _solve_leg_system(c.mirror(), (s * e.right * s)._sparse_cols(), "G2",
                           u if c.cache.module_law(c, c.t2, 1) else None)
    return ProjectionMaps(g1, s * g2 * s)


def _solve_leg_system(c: CoproductData, ecols: list, name: str, u: Optional[SparseVec]) -> Matrix:
    """G1 from coproduct_13(e_a)(1 (x) E)(1 (x) e_b (x) e_c) against
    coproduct_13(e_a)(1 (x) e_b (x) e_c), with T1 and the columns ecols of
    E's left action on legs (2,3), expanded over leg 3; failures call the map name.

    Each equation G x = y is one row (x | y) of a single elimination in
    which the x half, the lower columns, pivots first.  A row whose x half
    reduces to zero while its y half does not is an inconsistency, and at
    full x rank the reduced row of pivot p is (e_p | G e_p).

    Read at the unit triples e_a (x) e_b (x) u, n^2 of them, when the
    checked unit u is given: `solve_G_maps` gives it when T1 passes its
    leg-2 module identity, T1(p (x) x) = T1(p (x) u)(1 (x) x), and E its law
    walk, E = e0 (for G2, in the mirror, T2 its leg-1 identity and E its
    walk, flipped).  Then both sides at e_a (x) e_b (x) e_c are
    their values at e_a (x) e_b (x) u times 1 (x) 1 (x) e_c on leg 3, as
    e0(e_b (x) e_c) = e0(e_b (x) u)(1 (x) e_c): the row of leg-3 index k at
    the basis triple is the sum over j of the e_k coefficient of e_j e_c
    times the row of index j at the unit triple.  The rows at the unit
    triple are in turn combinations of basis-triple rows, as
    u = sum_c u_c e_c is a combination of basis vectors and the rows are
    linear in leg 3.  So both systems span the same rows, and the reduced rows,
    which depend only on the span and the column order, give the same G,
    rank and failure."""
    n, nn = c.n, c.nn
    units = [] if u is None else [[((a * n + b) * n + k, v) for k, v in u.items()]
                                  for a, b in product(range(n), repeat=2)]
    graph = Echelon(Matrix.zero(0, 2 * nn))
    for x in chain(units, unless_at_unit(lambda: u is not None, ([(idx, ONE)] for idx in range(n ** 3)))):
        rows: Dict[int, Dict[int, Scalar]] = {}
        for shift, v3 in ((0, apply_on_legs13(c.t1, dict(x), n)),
                          (nn, apply_on_legs13(c.t1, _on_legs(ecols, nn, x), n))):
            for i, v in v3.items():
                rows.setdefault(i % n, {})[i // n + shift] = v
        for k in sorted(rows):
            graph.insert(rows[k])
    rank = sum(pc < nn for pc in graph.pivot_cols)
    if rank < nn:
        raise NoSolution(f"defining system for {name} underdetermined "
                         f"(rank {rank} of {nn}); fullness must fail")
    if graph.rank > nn:
        raise NoSolution(f"defining system for {name} inconsistent")
    reduced = Subspace(graph).rows      # sorted by pivot: row p is (e_p | G e_p)
    if any({j: v for j, v in row.items() if j < nn} != {p: ONE} for p, row in enumerate(reduced)):
        raise InvariantViolation(f"reduced rows of the {name} system are not (e_p | G e_p)")
    return Matrix.from_sparse_cols(nn, [{j - nn: v for j, v in row.items() if j >= nn} for row in reduced])


def validate_G_maps(c: CoproductData, e: Multiplier, counit: list,
                    g: ProjectionMaps) -> List[CheckResult]:
    n = c.n

    def projection_failures():
        yield from _module_law_failures(c, [(g.g1, 2, "G1 module law fails"),
                                            (g.g2, 1, "G2 module law fails")])
        # T (1 - G) = 0, read as T G = T
        if not (g.g1 * g.g1 == g.g1 and g.g2 * g.g2 == g.g2
                and c.t1 * g.g1 == c.t1 and c.t2 * g.g2 == c.t2):
            yield "G idempotency or kernel containment fails"
    out = _first_failures(projection_failures(), {
        "projections-idempotent": "G1/G2 idempotent, module laws hold, 1-G lands in kernels"})

    out += _first_failures(_g_crosscheck_failures(c, e, counit, g), {
        "projections-crosscheck": "counit-contraction construction reproduces G1/G2"})

    # two-sided multiplier factorization: the leg-1 (resp. leg-2) module
    # law that the defining equalities do not grant automatically
    out += _first_failures(
        (f"{bad} (informational in the non-regular case)" for bad in chain(
            _module_law_failures(c, [(g.g1, 1, "G1 has no left-leg multiplier")],
                                 ((a, b, x) for x, a, b in product(range(n), repeat=3))),
            _module_law_failures(c, [(g.g2, 2, "G2 has no right-leg multiplier")]))),
        {"projections-factor": "G1/G2 factor through two-sided idempotent multipliers"})
    return out


def _g_crosscheck_failures(c: CoproductData, e: Multiplier,
                           counit: list, g: ProjectionMaps) -> Iterator[str]:
    """The proof-side construction, checked fully stripped on all basis
    quadruples: (b (x) c) G1(a (x) q) = Gamma (1 (x) q), where
    Gamma = (b (x) c) G(a) is the sum of u (x) (id (x) eps)((e_c (x) e_v) E)
    over T2(b (x) a) = sum u (x) v; and G2(q (x) a)(b (x) c) = (q (x) 1) Eta,
    where Eta is the sum of (eps (x) id)(E (e_u (x) e_b)) (x) v over
    T1(a (x) c) = sum u (x) v.

    At the checked unit 1, q = 1: (b (x) c) G1(a (x) 1) = Gamma and
    G2(1 (x) a)(b (x) c) = Eta, n^3 tests each.  When G1 and G2 pass their
    module identities, G1(a (x) q) = G1(a (x) 1)(1 (x) e_q) and
    G2(q (x) a) = (e_q (x) 1)G2(1 (x) a), so multiplying the identity by
    1 (x) e_q (e_q (x) 1) gives the quadruple's, by associativity."""
    n, nn = c.n, c.nn
    eps = _counit_cols(counit)
    sides = []
    for leg, gm, t, act in ((2, g.g1, c.t2, e.right), (1, g.g2, c.t1, e.left)):
        s = 1 if leg == 2 else n
        # the counit contracted off E on the leg: index c*n + v, or u*n + b
        con = [_on_legs(eps, 1, act.col_sparse(i), s).items() for i in range(nn)]
        parts = {(a, b, cc): _on_legs(con[cc * n:cc * n + n], n, t.col_sparse(b * n + a)) if leg == 2
                 else _on_legs(con[b::n], n, t.col_sparse(a * n + cc), n)
                 for a, b, cc in product(range(n), repeat=3)}
        sides.append((leg, gm, s, parts))

    def at_unit() -> bool:
        if not _module_laws_hold(c, (g.g1, 2), (g.g2, 1)):
            return False
        for leg, gm, _, parts in sides:
            # e_b (x) e_c multiplies from the left (leg 2) or the right, a leg at a time
            mult = c.parent._left_cols if leg == 2 else c.parent._right_cols
            at_u = [_value_at_unit(c, gm, leg, a).items() for a in range(n)]
            for a, b in product(range(n), repeat=2):
                on_b = _on_legs(mult(b), n, at_u[a], n).items()
                if any(_on_legs(mult(cc), n, on_b) != parts[a, b, cc] for cc in range(n)):
                    return False
        return True

    def walk():
        for leg, gm, s, parts in sides:
            by_q = [_leg_mult(c, leg, q)[0] for q in range(n)]
            for quad in product(range(n), repeat=4):
                b, a, cc, q = quad if leg == 2 else (quad[2], quad[1], quad[3], quad[0])
                col = a * n + q if leg == 2 else q * n + a
                # (e_b (x) e_c) G1(a (x) q), or G2(q (x) a)(e_b (x) e_c) on leg 1
                if c.aa._legs(gm.col_sparse(col), b * n + cc, leg == 1) != \
                        _on_legs(by_q[q], n, parts[a, b, cc].items(), s):
                    if leg == 2:
                        yield (f"G1 cross-check fails at "
                               f"(b={_lbl(c, b)}, c={_lbl(c, cc)}, a={_lbl(c, a)}, q={_lbl(c, q)})")
                    else:
                        yield (f"G2 cross-check fails at "
                               f"(q={_lbl(c, q)}, a={_lbl(c, a)}, b={_lbl(c, b)}, c={_lbl(c, cc)})")
    return unless_at_unit(at_unit, walk())


def check_kernels(c: CoproductData, g: ProjectionMaps) -> List[CheckResult]:
    """The kernel axiom: Ker(T1) = (1-G1)(A (x) A) and mirrored."""
    ker1, ker2 = c.cache.kernel(c.t1), c.cache.kernel(c.t2)
    img1, img2 = (c.cache.column_space(c.cache.complement(gm)) for gm in (g.g1, g.g2))
    contain = img1.leq(ker1) and img2.leq(ker2)
    return [check("kernels-match", ker1 == img1 and ker2 == img2,
                  f"Ker(T1) = Ran(1-G1) (dim {ker1.dim}) and Ker(T2) = Ran(1-G2) (dim {ker2.dim})",
                  "kernels differ from the 1-G ranges"
                  + ("" if contain else " and even containment fails"))]

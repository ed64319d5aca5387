"""The extended legs (coproduct (x) id)(E) and (id (x) coproduct)(E), built
once as composed maps, equal the per-vector recipe column by column."""

import random

import pytest

from wmha.algebras import Algebra, Multiplier, _on_legs
from wmha.coproducts import (CoproductData, IllDefinedExtension,
                             _extended_leg_columns, _lbl3, check_E_conditions, compute_E)
from wmha.groupoids import convolution_algebra, function_algebra, preset
from wmha.linalg import Matrix, invert
from wmha.scalars import ONE, ZERO, rational


def reference_leg_action(c, e, first_leg, x, alt=False):
    """The left action of an extended leg of E on one sparse triple-tensor
    vector x, by the per-vector recipe: push x through E (x) 1 (resp.
    1 (x) E), split off the plain leg, decompose the coproduct-shaped part
    through psi and the plain leg through products, apply E inside and
    reassemble."""
    n, nn = c.n, c.nn
    y = _on_legs(e.left._sparse_cols(), nn, x.items(), n if first_leg else 1)
    parts = {}
    for idx, coeff in y.items():
        if first_leg:
            ij, k = divmod(idx, n)
        else:
            k, ij = divmod(idx, nn)
        parts.setdefault(k, {})[ij] = coeff
    out = {}

    def add(key, s):
        s = out.get(key, ZERO) + s
        if s:
            out[key] = s
        elif key in out:
            del out[key]

    for k, w in sorted(parts.items()):
        zvec = c.psi_preimage(w, alt=alt)
        if zvec is None:
            raise IllDefinedExtension(
                "extended leg action: component escapes the coproduct range")
        terms = sorted(zvec.items())
        for uu, vv, cf in c.mu_decomposition(k, alt=alt):
            for idx, v in terms:
                p, cd = divmod(idx, nn)
                coeff = cf * v
                col = p * n + uu if first_leg else uu * n + p
                for fg, w2 in e.left.col_sparse(col):
                    f, g = divmod(fg, n)
                    if first_leg:
                        # psi(f (x) c (x) d) (x) (g v)
                        for t, tv in c.psi().col_sparse(f * nn + cd):
                            for q, qv in c.parent.mul_basis(g, vv).items():
                                add(t * n + q, coeff * w2 * tv * qv)
                    else:
                        # (f v) (x) psi(g (x) c (x) d)
                        for q, qv in c.parent.mul_basis(f, vv).items():
                            for t, tv in c.psi().col_sparse(g * nn + cd):
                                add(q * nn + t, coeff * w2 * qv * tv)
    return out


def conjugated(model, p):
    """The model's algebra and canonical maps in the basis given by the
    columns of p: dense structure constants for a dense p."""
    n = model.algebra.dim
    pinv = invert(p)
    entries = []
    for i in range(n):
        for j in range(n):
            prod = model.algebra.mul_sparse(dict(p.col_sparse(i)), dict(p.col_sparse(j)))
            entries.extend((i, j, k, v) for k, v in sorted(pinv.apply_sparse(prod).items()))
    q = p.kron(p)
    qinv = invert(q)
    return CoproductData(Algebra.from_structure(n, None, entries),
                         qinv * model.t1 * q, qinv * model.t2 * q)


def cases():
    yield "pair:2", CoproductData(*_maps(convolution_algebra(preset("pair:2"))))
    yield "bundle:cyclic:2:2", CoproductData(*_maps(function_algebra(preset("bundle:cyclic:2:2"))))
    half = rational(1, 2)
    p = Matrix.from_rows([[ONE, rational(2)], [rational(-1), half]])
    yield "dense dim 2", conjugated(convolution_algebra(preset("bundle:cyclic:1:2")), p)


def _maps(model):
    return model.algebra, model.t1, model.t2


@pytest.mark.parametrize("name, c", list(cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_composed_legs_equal_per_vector_recipe(name, c):
    e = compute_E(c)
    nnn = c.n ** 3
    for first_leg in (True, False):
        for alt in (False, True):
            got = list(_extended_leg_columns(c, e, first_leg, alt))
            want = [reference_leg_action(c, e, first_leg, {idx: ONE}, alt)
                    for idx in range(nnn)]
            assert got == want, (name, first_leg, alt)
            assert any(got), (name, first_leg, alt)


def _reference_failure(c, e):
    """The IllDefinedExtension message of the per-vector leg checks, or
    None when both legs are well defined."""
    try:
        for first_leg, name in ((True, "(coproduct x id)(E)"), (False, "(id x coproduct)(E)")):
            for idx in range(c.n ** 3):
                x = {idx: ONE}
                if reference_leg_action(c, e, first_leg, x) != \
                        reference_leg_action(c, e, first_leg, x, alt=True):
                    return f"{name} ill-defined at {_lbl3(c, idx)}"
    except IllDefinedExtension as exc:
        return str(exc)
    return None


def test_broken_idempotents_raise_the_per_vector_message():
    m = convolution_algebra(preset("pair:2"))
    c = CoproductData(m.algebra, m.t1, m.t2)
    e = compute_E(c)
    rng = random.Random(2)
    r = Matrix.from_rows([[rational(rng.randint(-1, 1)) for _ in range(16)]
                          for _ in range(16)])
    broken = {
        # leaves Ran(T1): no psi preimage
        "unit": (Multiplier.unit(c.aa),
                 "extended leg action: component escapes the coproduct range"),
        # stays in Ran(T1) but the legs depend on the preimage
        "mixed": (Multiplier(c.aa, e.left * r, e.right),
                  "(coproduct x id)(E) ill-defined at (L[(0,0)] (x) L[(0,0)] (x) L[(1,0)])"),
    }
    for name, (bad, message) in broken.items():
        assert _reference_failure(c, bad) == message, name
        with pytest.raises(IllDefinedExtension) as exc:
            check_E_conditions(c, bad)
        assert str(exc.value) == message, name

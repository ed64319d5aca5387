import pytest

from wmha.groupoids import (BadParameter, LazyGroupoid,
                            UnknownPreset, build_model, check_duality_pairing,
                            convolution_algebra, function_algebra,
                            local_unit_for, pair_groupoid, preset,
                            validate_groupoid)
from wmha.scalars import ONE, ZERO


def test_pair_preset_counts():
    g = preset("pair:3")
    assert len(g.morphisms) == 9
    assert len(g.units) == 3
    assert validate_groupoid(g) == []


def test_cyclic_preset_is_single_unit():
    g = preset("group:cyclic:3")
    assert len(g.morphisms) == 3 and len(g.units) == 1


def test_bundle_preset_counts():
    g = preset("bundle:cyclic:2:3")
    assert len(g.morphisms) == 6
    assert len(g.units) == 3


def test_union_preset():
    g = preset("union:group:cyclic:2+pair:2")
    assert len(g.morphisms) == 6
    assert validate_groupoid(g) == []


def test_unknown_and_bad_presets():
    with pytest.raises(UnknownPreset):
        preset("torus:2")
    with pytest.raises(BadParameter):
        preset("pair:0")
    with pytest.raises(BadParameter):
        preset("pair:x")


def test_validation_catches_broken_inverse():
    g = pair_groupoid(2)
    g.inverse["(0,1)"] = "(0,1)"
    violations = validate_groupoid(g)
    assert violations
    assert any("inverse" in v for v in violations)


def test_composability_convention():
    g = preset("pair:2")
    # (i,j) composes with (j,k); source is the right unit
    assert g.compose[("(0,1)", "(1,0)")] == "(0,0)"
    assert g.source["(0,1)"] == "(1,1)"
    assert g.target["(0,1)"] == "(0,0)"
    assert ("(0,1)", "(0,1)") not in g.compose


def test_lazy_windows_nested():
    lazy = preset("pair:inf")
    assert isinstance(lazy, LazyGroupoid)
    w2 = lazy.window(2)
    w3 = lazy.window(3)
    assert set(w2.morphisms) <= set(w3.morphisms)
    assert len(w2.morphisms) == 4 and len(w3.morphisms) == 9
    assert validate_groupoid(w3) == []
    with pytest.raises(BadParameter):
        lazy.window(-1)


def test_lazy_bundle_windows():
    lazy = preset("bundle:cyclic:2:inf")
    w = lazy.window(3)
    assert len(w.morphisms) == 6 and len(w.units) == 3


def test_model_dimensions_and_units():
    g = preset("pair:2")
    fun = function_algebra(g)
    conv = convolution_algebra(g)
    assert fun.algebra.dim == 4 and conv.algebra.dim == 4
    assert fun.oracle_unit == {i: ONE for i in range(4)}
    # unit of the convolution model: sum over the two unit morphisms
    idx = g.index()
    assert conv.oracle_unit == {idx[u]: ONE for u in g.units}


def test_counit_oracles():
    g = preset("pair:2")
    fun = function_algebra(g)
    idx = g.index()
    units = set(g.units)
    assert fun.oracle_counit == [ONE if m in units else ZERO for m in g.morphisms]
    conv = convolution_algebra(g)
    assert conv.oracle_counit == [ONE] * 4


def test_duality_pairing_on_presets():
    for name in ("pair:2", "group:cyclic:3", "bundle:cyclic:2:3"):
        got = check_duality_pairing(preset(name))
        assert (got.check_id, got.status) == ("duality-pairing", "pass"), got.detail


def test_local_units_per_model():
    g = preset("pair:3")
    idx = g.index()
    members = [idx["(0,1)"], idx["(1,2)"]]
    for kind in ("function", "convolution"):
        model = build_model(g, kind)
        lu = local_unit_for(g, kind, members)
        for i in members:
            x = {i: ONE}
            assert model.algebra.mul_sparse(lu, x) == x
            assert model.algebra.mul_sparse(x, lu) == x


def test_build_model_rejects_unknown_kind():
    with pytest.raises(BadParameter):
        build_model(preset("pair:2"), "poisson")


# the runs check groupoid axioms once, in pipeline.verify_groupoid_model;
# the presets are valid by construction, and these pin it
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_finite_presets_satisfy_the_axioms(n):
    names = [f"pair:{n}", f"group:cyclic:{n}", f"union:pair:{n}+group:cyclic:{n}"]
    names += [f"bundle:cyclic:{n}:{k}" for k in range(1, 5)]
    for name in names:
        assert validate_groupoid(preset(name)) == [], name


@pytest.mark.parametrize("name", ["pair:inf", "bundle:cyclic:2:inf"])
def test_lazy_windows_satisfy_the_axioms_and_nest(name):
    lazy = preset(name)
    windows = [lazy.window(k) for k in range(1, 5)]
    for k, g in enumerate(windows, 1):
        assert validate_groupoid(g) == [], (name, k)
    for small, big in zip(windows, windows[1:]):
        assert set(small.morphisms) < set(big.morphisms)

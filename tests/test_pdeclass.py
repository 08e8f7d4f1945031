import pytest

from crystaljet.abelian import FgAbelianGroup
from crystaljet.data import data_path
from crystaljet.pdeclass import (
    DescriptorRejected,
    HypothesisViolated,
    IntersectionInfo,
    MissingDescriptorField,
    PdeDescriptor,
    SingularPdeDescriptor,
    classify,
    classify_singular,
    component_bordism_compare,
    load_descriptor,
    singular_bordism,
    weak_bordism,
)

GOOD_FLAGS = {
    "formally_integrable": True,
    "completely_integrable": True,
    "symbol_nonzero_at_k": True,
    "symbol_nonzero_at_k_plus_1": True,
}


def desc(name="t", n=2, dim_e=7, betti=(1, 2, 1), flags=None, **kw):
    return PdeDescriptor(
        name=name, n=n, m=1, order=2, dim_e=dim_e, betti_w=list(betti),
        flags=dict(GOOD_FLAGS if flags is None else flags), **kw
    )


def corpus(name):
    return load_descriptor(str(data_path(name)))


def test_weak_bordism_values():
    ricci = corpus("ricci_flow.desc")
    assert weak_bordism(ricci, 3) == FgAbelianGroup.cyclic(2)
    ns = corpus("navier_stokes.desc")
    assert weak_bordism(ns, 3).is_trivial()
    dal = corpus("dalembert_t2.desc")
    assert weak_bordism(dal, 1) == FgAbelianGroup.z2_power(2)


def test_weak_bordism_hypothesis_gates():
    with pytest.raises(HypothesisViolated):
        weak_bordism(desc(flags={}), 1)  # integrability flags missing
    with pytest.raises(HypothesisViolated):
        weak_bordism(desc(dim_e=4), 1)  # dim E < 2n+1
    with pytest.raises(HypothesisViolated):
        weak_bordism(desc(), 2)  # p >= n


def test_singular_bordism_gate():
    d = desc()
    assert singular_bordism(d, 1) == weak_bordism(d, 1)
    flags = dict(GOOD_FLAGS)
    flags["symbol_nonzero_at_k"] = False
    assert singular_bordism(desc(flags=flags), 1) is None


def test_classify_corpus_verdicts():
    cases = {
        "ricci_flow.desc": ("ExtendedCrystal", "Z/2", 2, "p2"),
        "navier_stokes.desc": ("ExtendedZeroCrystal", "0", 0, None),
        "dalembert_t2.desc": ("ExtendedCrystal", "Z/2 x Z/2", 2, "p4m"),
        "tricomi_t2.desc": ("ExtendedCrystal", "Z/2 x Z/2", 2, "p4m"),
        "tricomi_rp2.desc": ("ExtendedCrystal", "Z/2", 2, "p2"),
        "tricomi_s2.desc": ("ExtendedZeroCrystal", "0", 0, None),
        "fourier.desc": ("ExtendedZeroCrystal", "0", 0, None),
    }
    for fname, (verdict, wb, dim, group) in cases.items():
        got = classify(corpus(fname))
        assert got.verdict == verdict, fname
        assert got.weak_bordism.render() == wb, fname
        assert got.crystal_dimension == dim, fname
        if group:
            assert got.crystal_group_name == group, fname


def test_classify_invariants():
    for fname in ("ricci_flow.desc", "navier_stokes.desc", "tricomi_rp2.desc"):
        c = classify(corpus(fname))
        if c.verdict == "ExtendedZeroCrystal":
            assert c.crystal_dimension == 0
            assert c.weak_bordism.order() == 1
        assert (c.verdict in ("ExtendedZeroCrystal", "ZeroCrystal")) == c.weak_bordism.is_trivial()
        assert c.crystal_conservation_dim == c.weak_bordism.order()


def test_navier_stokes_caveat():
    c = classify(corpus("navier_stokes.desc"))
    assert any("not a 0-crystal" in cv for cv in c.caveats)


def test_zero_crystal_assertion():
    d = desc(betti=(1, 0, 0), flags={**GOOD_FLAGS, "zero_crystal_asserted": True})
    assert classify(d).verdict == "ZeroCrystal"


def test_contractible_degenerates_to_absolute():
    from crystaljet.bordism import unoriented_bordism

    d = PdeDescriptor(
        name="c", n=6, m=1, order=2, dim_e=20,
        betti_w=[1, 0, 0, 0, 0, 0], flags=dict(GOOD_FLAGS),
    )
    for p in range(6):
        assert weak_bordism(d, p) == unoriented_bordism(p)


def test_crystal_group_beyond_published_assignments():
    d = PdeDescriptor(
        name="big", n=7, m=1, order=2, dim_e=30,
        betti_w=[1, 0, 0, 0, 0, 0, 0], flags=dict(GOOD_FLAGS),
    )
    c = classify(d)
    # Omega_6 = Z_2^3: beyond the published lookup, generic construction
    assert c.weak_bordism == FgAbelianGroup.z2_power(3)
    assert c.crystal_dimension == 3
    assert any("generic construction" in cv for cv in c.caveats)


def test_descriptor_rejection_on_flag_mismatch():
    bad = PdeDescriptor(
        name="bad", n=2, m=1, order=2, dim_e=7, betti_w=[1, 0, 0],
        flags=dict(GOOD_FLAGS), jets_check=["uxx_uyy.pde"],
    )
    with pytest.raises(DescriptorRejected):
        classify(bad)


def test_corpus_integrability_cross_checks_pass():
    # these descriptors name corpus systems; classify runs the checks
    classify(corpus("navier_stokes.desc"))
    classify(corpus("fourier.desc"))


def test_classify_singular_table4():
    s = corpus("table4_singular.desc")
    result = classify_singular(s)
    assert result.verdict == "ExtendedZeroCrystalSingular"
    assert [c.verdict for c in result.components] == ["ExtendedZeroCrystal"] * 2


def test_classify_singular_mhd():
    result = classify_singular(corpus("mhd_singular.desc"))
    assert result.verdict == "ExtendedZeroCrystalSingular"
    assert len(result.components) == 4


def test_classify_singular_single_component_consistency():
    ricci = corpus("ricci_flow.desc")
    wrapped = SingularPdeDescriptor(name="wrap", components=[ricci])
    result = classify_singular(wrapped)
    assert result.verdict == "ExtendedCrystalSingular"
    assert result.components[0].verdict == classify(ricci).verdict


def test_component_bordism_compare():
    s = corpus("table4_singular.desc")
    report = component_bordism_compare(s, 0, 1, 1)
    assert report["isomorphic"]
    assert report["component_i"] == report["intersection"] == "0"
    # same Betti data must agree structurally
    twin = SingularPdeDescriptor(
        name="twin",
        components=[desc("a"), desc("b")],
        intersections={(0, 1): IntersectionInfo(True, True, desc("ab", dim_e=6))},
    )
    assert component_bordism_compare(twin, 0, 1, 1)["isomorphic"]
    # mismatched Betti data is reported, not asserted
    odd = SingularPdeDescriptor(
        name="odd",
        components=[desc("a"), desc("b", betti=(1, 0, 1))],
        intersections={(0, 1): IntersectionInfo(True, True, desc("ab", dim_e=6))},
    )
    report = component_bordism_compare(odd, 0, 1, 1)
    assert not report["isomorphic"]
    assert "FAILED" in report["conclusion"]


def test_component_bordism_compare_hypotheses():
    # missing intersection record
    bare = SingularPdeDescriptor(name="bare", components=[desc("a"), desc("b")])
    with pytest.raises(HypothesisViolated):
        component_bordism_compare(bare, 0, 1, 1)
    # intersection too small: dim must strictly exceed 2n+1
    small = SingularPdeDescriptor(
        name="small",
        components=[desc("a"), desc("b")],
        intersections={(0, 1): IntersectionInfo(True, True, desc("ab", dim_e=5))},
    )
    with pytest.raises(HypothesisViolated):
        component_bordism_compare(small, 0, 1, 1)


def test_affine_bundle_base_reported_when_different():
    from crystaljet.pdeclass import weak_bordism_over_base

    d = PdeDescriptor(
        name="mismatched", n=2, m=1, order=2, dim_e=7,
        betti_w=[1, 2, 1], betti_m=[1, 0, 1],
        flags={**GOOD_FLAGS, "affine_fiber_bundle_over_M": True},
    )
    over_base = weak_bordism_over_base(d, 1)
    assert over_base is not None and over_base.is_trivial()
    c = classify(d)
    assert c.weak_bordism == FgAbelianGroup.z2_power(2)
    assert any("bundle-base" in cv for cv in c.caveats)


def test_load_descriptor_from_one_line_document():
    d = load_descriptor("{name: flat, n: 2, m: 1, order: 2, dim_E: 7, betti_W: [1, 2, 1]}")
    assert (d.name, d.n, d.dim_e, d.betti_w) == ("flat", 2, 7, [1, 2, 1])


FLAT = {"name": "flat", "n": 2, "m": 1, "order": 2, "dim_E": 7, "betti_W": [1, 2, 1]}


@pytest.mark.parametrize("key", ["n", "m", "order", "dim_E", "betti_W"])
def test_a_missing_descriptor_field_is_named(key):
    doc = {k: v for k, v in FLAT.items() if k != key}
    with pytest.raises(MissingDescriptorField) as info:
        load_descriptor(doc)
    assert str(info.value) == f"descriptor is missing the {key!r} field"
    component = {k: v for k, v in FLAT.items() if k != key}
    with pytest.raises(MissingDescriptorField) as info:
        load_descriptor({"singular": True, "components": [FLAT, component]})
    assert str(info.value) == f"component 1 of the singular descriptor is missing the {key!r} field"
    with pytest.raises(MissingDescriptorField) as info:
        load_descriptor({"singular": True, "components": [FLAT, FLAT],
                         "intersections": [{"pair": [0, 1], "descriptor": component}]})
    assert str(info.value) == f"the descriptor of intersection 0, 1 is missing the {key!r} field"


def test_a_singular_descriptor_without_components_is_named():
    with pytest.raises(MissingDescriptorField, match="^singular descriptor is missing the 'components' field$"):
        load_descriptor({"singular": True})


def test_load_descriptor_refuses_a_repeated_key():
    with pytest.raises(ValueError, match="^the key 'n' is repeated on line 2$"):
        load_descriptor("{name: flat, n: 2, m: 1, order: 2, dim_E: 7,\n n: 3, betti_W: [1, 2, 1]}")

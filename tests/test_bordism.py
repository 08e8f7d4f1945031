import pytest

from crystaljet.abelian import FgAbelianGroup, IntegerMatrix
from crystaljet.bordism import (
    BettiListTooShort,
    NotCrystalShapedGroup,
    UnassignedInPaper,
    Z2_RANK_BOUND,
    UnsupportedDegree,
    Z2RankBoundExceeded,
    crystal_group_of,
    nondyadic_partition_count,
    nondyadic_partitions,
    oriented_bordism,
    paper_crystal_assignment,
    relative_bordism,
    sign_flip_point_group,
    thom_monomial_count,
    unoriented_bordism,
    verify_extension_exactness,
)
from crystaljet.crystal import CrystallographicGroup, wallpaper_groups


def test_partition_count_anchors():
    assert nondyadic_partition_count(0) == 1  # empty partition: Omega_0 = Z_2
    assert nondyadic_partition_count(1) == 0  # Omega_1 = 0
    assert nondyadic_partition_count(8) == 5
    assert sorted(nondyadic_partitions(8)) == sorted(
        [(8,), (6, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)]
    )


def test_two_enumerations_agree():
    # the explicit enumeration is the oracle for the DP that counts
    for n in range(41):
        q = len(nondyadic_partitions(n))
        assert nondyadic_partition_count(n) == q == thom_monomial_count(n), n


def test_oversized_rank_is_refused_before_it_is_built():
    # q(90) = 910 427 and q(91) = 1 011 786; q(n + 2) >= q(n) from there on
    assert nondyadic_partition_count(90) == 910_427
    assert unoriented_bordism(90) == FgAbelianGroup.z2_power(910_427)
    assert thom_monomial_count(91) > Z2_RANK_BOUND
    for n in (91, 92, 100_000, 10**18):
        with pytest.raises(Z2RankBoundExceeded, match=f"n = {n}: .*{Z2_RANK_BOUND}"):
            unoriented_bordism(n)
    # relative bordism refuses a rank over the bound, however it arises
    with pytest.raises(Z2RankBoundExceeded, match="rank 2000000 "):
        relative_bordism([2_000_000, 0], 0)
    with pytest.raises(Z2RankBoundExceeded, match="n = 200"):
        relative_bordism([1] * 201, 200)
    # a zero Betti number asks for no count
    assert relative_bordism([0, 0, 1], 2) == FgAbelianGroup.z2_power(1)


def test_unoriented_values():
    assert unoriented_bordism(0) == FgAbelianGroup.cyclic(2)
    assert unoriented_bordism(1).is_trivial()
    assert unoriented_bordism(2) == FgAbelianGroup.cyclic(2)
    assert unoriented_bordism(4) == FgAbelianGroup.z2_power(2)
    for n in range(13):
        g = unoriented_bordism(n)
        assert g.free_rank == 0
        assert all(d == 2 for d in g.invariant_factors)


def test_oriented_values():
    table = ["Z^1", "0", "0", "0", "Z^1", "Z/2", "0", "0", "Z^2"]
    for n, want in enumerate(table):
        g = oriented_bordism(n)
        assert g.render() == want
        if g.free_rank:
            assert n % 4 == 0
    with pytest.raises(UnsupportedDegree):
        oriented_bordism(9)


def test_relative_bordism():
    # a point reproduces the absolute groups
    for p in range(9):
        assert relative_bordism([1] + [0] * p, p) == unoriented_bordism(p)
    assert relative_bordism([1, 2, 1], 1) == FgAbelianGroup.z2_power(2)  # torus
    assert relative_bordism([1, 1, 1], 1) == FgAbelianGroup.cyclic(2)  # RP^2
    # degree 1 always gives Z_2^{h_1}
    for h1 in range(4):
        assert relative_bordism([1, h1], 1) == FgAbelianGroup.z2_power(h1)
    with pytest.raises(BettiListTooShort):
        relative_bordism([1, 0], 2)


def test_relative_bordism_rejects_negative_input():
    with pytest.raises(ValueError, match="p = -1"):
        relative_bordism([1, 2, 1], -1)
    with pytest.raises(ValueError, match="-5"):
        relative_bordism([1, -5, 1], 1)


def test_crystal_group_of_z2():
    g, w = crystal_group_of(FgAbelianGroup.cyclic(2))
    assert isinstance(g, CrystallographicGroup)
    assert g.dimension == 1 and g.point_group.order == 2
    seq = w["split_sequence"]
    assert all(
        seq[key]
        for key in (
            "inclusion_injective",
            "projection_surjective",
            "section_is_homomorphism",
            "kernel_equals_image",
        )
    )


def test_crystal_group_of_z2_squared():
    g, w = crystal_group_of(FgAbelianGroup.z2_power(2))
    assert g.dimension == 2 and g.point_group.order == 4
    assert w["chain"][0]["verified"]  # point-group section embeds
    assert verify_extension_exactness(g)["passed"]


def test_crystal_group_of_mixed_shape():
    g, w = crystal_group_of(FgAbelianGroup(1, (2,)))
    assert w["dimension"] == 1  # max(r, s) = max(1, 1)
    # the printed containment of the direct product in the semidirect
    # product fails at group level and is reported, not silently accepted
    last = w["chain"][-1]
    assert last["verified"] is False
    with pytest.raises(NotCrystalShapedGroup):
        crystal_group_of(FgAbelianGroup.cyclic(4))


def test_crystal_group_outputs_pass_exactness():
    for b in (
        FgAbelianGroup.trivial(),
        FgAbelianGroup.cyclic(2),
        FgAbelianGroup.z2_power(2),
        FgAbelianGroup.z2_power(3),
        FgAbelianGroup(2, (2,)),
    ):
        g, w = crystal_group_of(b)
        assert verify_extension_exactness(g)["passed"], b
        if b.free_rank == 0 and not b.is_trivial():
            assert w["split_sequence"]["section_splits_projection"]


def test_exactness_on_wallpaper_groups():
    assert verify_extension_exactness(wallpaper_groups()["p4m"])["passed"]
    report = verify_extension_exactness(wallpaper_groups()["pg"])
    assert report["passed"]  # pg is a valid extension, just not split
    splits = next(c for c in report["checks"] if c["check"] == "splits")
    assert splits["ok"] is False


def test_the_sign_flip_group_of_dimension_zero_is_the_trivial_group():
    g = sign_flip_point_group(0, 0)
    assert g.elements == g.generators == [IntegerMatrix.identity(0)]


def test_corrupted_vector_system_reported():
    from fractions import Fraction

    base = wallpaper_groups()["pm"]
    pg = base.point_group
    mirror_idx = next(i for i in range(pg.order) if i != pg.identity_index)
    bad = CrystallographicGroup(pg, base.vector_system, name="pm-broken")
    bad.vector_system[mirror_idx] = (Fraction(1, 3), Fraction(1, 5))
    report = verify_extension_exactness(bad)
    assert not report["passed"]
    assert report["checks"][0]["check"] == "cocycle_condition"
    assert not report["checks"][0]["ok"]


def test_paper_assignment():
    assert paper_crystal_assignment(FgAbelianGroup.cyclic(2)) == (2, "p2")
    assert paper_crystal_assignment(FgAbelianGroup.z2_power(2)) == (2, "p4m")
    dim, name = paper_crystal_assignment(FgAbelianGroup.trivial())
    assert dim == 0
    with pytest.raises(UnassignedInPaper):
        paper_crystal_assignment(FgAbelianGroup.z2_power(3))
    with pytest.raises(NotCrystalShapedGroup):
        paper_crystal_assignment(FgAbelianGroup.cyclic(4))

import random
import time

import pytest

from crystaljet.abelian import FgAbelianGroup, IntegerMatrix, group_from_relations
from crystaljet.cohomology import (
    CochainBoundExceeded,
    DegreeTooHigh,
    GModule,
    NotSplit,
    coboundary_squared_is_zero,
    derivations,
    group_cohomology,
    group_cohomology_cyclic,
    group_homology_cyclic,
    kunneth_homology,
    splitting_classes,
)
from crystaljet.crystal import semidirect_product, wallpaper_groups
from crystaljet.groups import close_group, point_group, point_groups

Z = FgAbelianGroup.free(1)


def cyclic_matrix_group(m):
    if m == 1:
        return close_group([IntegerMatrix.identity(1)])
    shift = [[1 if i == (j + 1) % m else 0 for j in range(m)] for i in range(m)]
    return close_group([IntegerMatrix(shift)])


def test_h0_is_invariants():
    c2 = point_group("C_2")
    assert group_cohomology(c2, GModule.trivial(c2, Z), 0) == Z
    # sign action on Z: invariants are 0
    cs = point_group("C_s")
    assert group_cohomology(cs, GModule.sign(cs, Z), 0).is_trivial()


def test_h2_c2_z_trivial():
    c2 = point_group("C_2")
    assert group_cohomology(c2, GModule.trivial(c2, Z), 2) == FgAbelianGroup.cyclic(2)


def test_bar_matches_cyclic_closed_form():
    for m in (2, 3, 4, 5, 6):
        g = cyclic_matrix_group(m)
        mod = GModule.trivial(g, Z)
        for n in range(4):
            assert group_cohomology(g, mod, n) == group_cohomology_cyclic(m, n), (m, n)


def test_h1_klein_free_module_vanishes():
    klein = point_group("D_2")
    mod = GModule.trivial(klein, FgAbelianGroup.free(2))
    assert group_cohomology(klein, mod, 1).is_trivial()


def test_degree_and_size_guards():
    c2 = point_group("C_2")
    mod = GModule.trivial(c2, Z)
    with pytest.raises(DegreeTooHigh):
        group_cohomology(c2, mod, 4)
    big = point_group("O_h")
    with pytest.raises(CochainBoundExceeded):
        group_cohomology(big, GModule.trivial(big, Z), 3)
    # delta_2 would be 103 823 x 2 209: refused before anything is built
    start = time.perf_counter()
    with pytest.raises(CochainBoundExceeded, match="103823 x 2209"):
        group_cohomology(big, GModule.trivial(big, Z), 2)
    assert time.perf_counter() - start < 1


def test_h2_with_z_coefficients_is_the_abelianization():
    # H^2(G; Z) = Hom(G, Q/Z) = G^ab for finite G, and
    # G^ab = Z^G / <e_a + e_b - e_ab>
    checked = 0
    for name in point_groups():
        g = point_group(name)
        if g.order > 16:
            continue
        relations = []
        for a in range(g.order):
            for b in range(g.order):
                row = [0] * g.order
                row[a] += 1
                row[b] += 1
                row[g.cayley[a][b]] -= 1
                relations.append(row)
        g_ab = group_from_relations(g.order, IntegerMatrix(relations))
        assert group_cohomology(g, GModule.trivial(g, Z), 2) == g_ab, name
        checked += 1
    assert checked == 27


def test_coboundary_squared_zero():
    for name in ("C_2", "C_s", "D_2"):
        g = point_group(name)
        for mod in (GModule.trivial(g, Z), GModule.natural(g),
                    GModule.trivial(g, FgAbelianGroup.cyclic(4))):
            for deg in (0, 1):
                assert coboundary_squared_is_zero(g, mod, deg)


def test_homology_cyclic_closed_form():
    assert group_homology_cyclic(2, 1) == FgAbelianGroup.cyclic(2)
    assert group_homology_cyclic(2, 2).is_trivial()
    # the printed case table shows 0 at i = 0; the standard value Z is used
    assert group_homology_cyclic(2, 0) == Z


def test_kunneth():
    h = [group_homology_cyclic(2, i) for i in range(4)]
    assert kunneth_homology(h, h, 1) == FgAbelianGroup.z2_power(2)
    assert kunneth_homology(h, h, 0) == Z
    # Tor(Z_2, Z_3) contributes nothing
    h2 = [Z, FgAbelianGroup.cyclic(2)]
    h3 = [Z, FgAbelianGroup.cyclic(3)]
    assert kunneth_homology(h2, h3, 2) == kunneth_homology(h3, h2, 2)
    assert kunneth_homology(h2, h3, 2).is_trivial()


def test_kunneth_klein_abelianization():
    # H_1 of the Klein group is its abelianization Z_2^2
    h = [group_homology_cyclic(2, i) for i in range(3)]
    assert kunneth_homology(h, h, 1) == FgAbelianGroup.z2_power(2)


def test_derivations_examples():
    c2 = point_group("C_2")
    der, princ, h1 = derivations(c2, GModule.trivial(c2, FgAbelianGroup.cyclic(2)))
    assert (der, princ, h1) == (
        FgAbelianGroup.cyclic(2),
        FgAbelianGroup.trivial(),
        FgAbelianGroup.cyclic(2),
    )
    trivial_group = point_group("C_1")
    der, _, h1 = derivations(trivial_group, GModule.trivial(trivial_group, FgAbelianGroup.cyclic(2)))
    assert der.is_trivial() and h1.is_trivial()
    # order-2 mirror acting by -1 on Z_3: all three maps are derivations,
    # all three are principal
    cs = point_group("C_s")
    der, princ, h1 = derivations(cs, GModule.sign(cs, FgAbelianGroup.cyclic(3)))
    assert der == FgAbelianGroup.cyclic(3)
    assert princ == FgAbelianGroup.cyclic(3)
    assert h1.is_trivial()


def test_derivations_match_bar_h1_randomized():
    rng = random.Random(17)
    names = ["C_2", "C_s", "C_i", "C_2v", "D_2", "C_2h", "C_4", "S_4"]
    cases = 0
    while cases < 10:
        name = rng.choice(names)
        g = point_group(name)
        kind = rng.choice(["trivial", "sign", "natural_mod"])
        if kind == "trivial":
            mod = GModule.trivial(g, FgAbelianGroup.cyclic(rng.choice([2, 3, 4])))
        elif kind == "sign":
            mod = GModule.sign(g, FgAbelianGroup.cyclic(rng.choice([2, 3, 4])))
        else:
            mod = GModule.natural(g, scale_mod=rng.choice([2, 3, 4]))
        _, _, h1 = derivations(g, mod)
        assert h1 == group_cohomology(g, mod, 1), (name, kind)
        cases += 1


def test_splitting_classes_direct_product():
    # trivial point group: the zero derivation is the only class
    g = semidirect_product(2, close_group([IntegerMatrix.identity(2)]))
    classes = splitting_classes(g)
    assert len(classes) == 1
    assert all(all(x == 0 for x in v) for v in classes[0].values.values())


def test_splitting_classes_c2_trivial_action_on_z2():
    # 2D inversion acts by -1 on Z^2: Der = ker(1 + (-1)) = Z^2,
    # Princ = image of (g.h - h) = 2Z^2, so 4 classes
    inv2 = close_group([-IntegerMatrix.identity(2)])
    g = semidirect_product(2, inv2)
    classes = splitting_classes(g)
    assert len(classes) == 4
    for cls in classes:
        assert cls.is_derivation()


def test_splitting_classes_pm():
    pm = wallpaper_groups()["pm"]
    classes = splitting_classes(pm)
    assert len(classes) == 2  # |H^1| for the mirror action on Z^2
    for cls in classes:
        assert cls.is_derivation()
    # the class count equals the order of H^1 computed from the complex
    h1 = group_cohomology(pm.point_group, GModule.natural(pm.point_group), 1)
    assert len(classes) == h1.order()


def test_splitting_class_count_matches_h1_all_symmorphic_wallpaper():
    from crystaljet.crystal import is_symmorphic

    for name, g in wallpaper_groups().items():
        if not is_symmorphic(g)[0]:
            continue
        classes = splitting_classes(g)
        h1 = group_cohomology(g.point_group, GModule.natural(g.point_group), 1)
        assert len(classes) == h1.order(), name


def test_splitting_classes_require_split():
    pg = wallpaper_groups()["pg"]
    with pytest.raises(NotSplit):
        splitting_classes(pg)


def test_h2_counts_extension_classes_per_arithmetic_class():
    # H^2(G; Z^2) with the natural action classifies the extensions of the
    # plane lattice by G for a fixed arithmetic class; the wallpaper list
    # realizes every class (the rectangular D_2 class has 4, two of which
    # are the same group in swapped settings)
    wg = wallpaper_groups()
    by_class = {}
    for name, g in wg.items():
        by_class.setdefault(frozenset(g.point_group.elements), []).append(name)
    expected = {
        frozenset(["pm", "pg"]): 2,
        frozenset(["p4m", "p4g"]): 2,
        frozenset(["pmm", "pmg", "pgg"]): 4,
    }
    total_classes = 0
    for key, names in by_class.items():
        g = wg[names[0]].point_group
        h2 = group_cohomology(g, GModule.natural(g), 2)
        want = expected.get(frozenset(names), 1)
        assert h2.order() == want, names
        total_classes += h2.order()
    # 18 raw classes fuse to the 17 wallpaper groups (one swapped setting)
    assert total_classes == 18


def test_klein_integral_cohomology_two_routes():
    # route 1: bar cochain complex
    klein = point_group("D_2")
    mod = GModule.trivial(klein, Z)
    bar = [group_cohomology(klein, mod, n) for n in range(4)]
    # route 2: Kunneth homology of C_2 x C_2, then universal coefficients
    from crystaljet.abelian import direct_sum, hom_group
    from crystaljet.cohomology import group_homology_cyclic

    h_c2 = [group_homology_cyclic(2, i) for i in range(5)]
    homology = [kunneth_homology(h_c2, h_c2, s) for s in range(5)]

    def ext_to_z(g):  # Ext(A, Z) = torsion part of A
        return FgAbelianGroup(0, g.invariant_factors)

    def hom_to_z(g):  # Hom(A, Z) = Z^rank
        return FgAbelianGroup.free(g.free_rank)

    uct = [hom_to_z(homology[0])]
    for n in range(1, 4):
        uct.append(direct_sum(hom_to_z(homology[n]), ext_to_z(homology[n - 1])))
    assert bar == uct
    assert [g.render() for g in bar] == ["Z^1", "0", "Z/2 x Z/2", "Z/2"]

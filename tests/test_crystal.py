import random
from fractions import Fraction

import pytest

from crystaljet.abelian import IntegerMatrix
from crystaljet.crystal import (
    AffineElement,
    CrystallographicGroup,
    DimensionMismatch,
    ElementNotInGroup,
    InvalidCocycle,
    NotOrderTwo,
    UnknownFilter,
    UnknownWallpaperGroup,
    appendix_c_products,
    commuting_involutions_check,
    is_symmorphic,
    semidirect_product,
    spacegroup_table,
    spacegroup_table_query,
    translation_fix_check,
    wallpaper_groups,
    wallpaper_info,
    wallpaper_subgroups,
    wallpaper_table,
)
from crystaljet.groups import close_group, point_groups_2d

I2 = IntegerMatrix.identity(2)
ROT2 = -I2  # rotation by pi in the plane


def test_multiply_translations():
    g = semidirect_product(2, close_group([ROT2]), name="p2")
    e1 = g.element(I2, [Fraction(1, 1), Fraction(2, 1)])
    e2 = g.element(I2, [3, 5])
    prod = g.multiply(e1, e2)
    assert prod.point_part == I2 and prod.translation == (4, 7)


def test_multiply_symmorphic_point_parts():
    g = semidirect_product(2, close_group([ROT2]))
    a = g.element(ROT2, [0, 0])
    assert g.multiply(a, a).point_part == I2


def test_multiply_rotation_with_shift():
    # with a = rotation by pi, (a,(1,0)) * (a,(1,0)) = (1,(0,0))
    g = semidirect_product(2, close_group([ROT2]))
    e = g.element(ROT2, [1, 0])
    prod = g.multiply(e, e)
    assert prod.point_part == I2 and prod.translation == (0, 0)


def test_multiply_rejects_foreign_elements():
    g = semidirect_product(2, close_group([ROT2]))
    rot4 = IntegerMatrix([[0, -1], [1, 0]])
    with pytest.raises(ElementNotInGroup):
        g.multiply(AffineElement(rot4, (0, 0)), g.identity())
    pg = wallpaper_groups()["pg"]
    mirror = pg.point_group.elements[1 - pg.point_group.identity_index]
    with pytest.raises(ElementNotInGroup):
        # translation not congruent to the glide vector system
        pg.element(mirror, [0, 0])


def test_associativity_and_inverses_random():
    rng = random.Random(9)
    for name in ("p2", "p4m", "pg", "p4g", "p6m"):
        g = wallpaper_groups()[name]
        pg = g.point_group
        def random_element():
            i = rng.randrange(pg.order)
            shift = [rng.randint(-3, 3), rng.randint(-3, 3)]
            base = g.vector_system[i]
            return g.element(pg.elements[i], [b + s for b, s in zip(base, shift)])
        for _ in range(10):
            a, b, c = random_element(), random_element(), random_element()
            assert (a * b) * c == a * (b * c)
            inv = a.inverse()
            assert a * inv == g.identity()


def test_cocycle_holds_for_all_embedded_groups():
    rng = random.Random(30)
    for name, g in wallpaper_groups().items():
        g.check_cocycle()
        pg = g.point_group
        for _ in range(100):
            i, j = rng.randrange(pg.order), rng.randrange(pg.order)
            a = g.element(pg.elements[i], g.vector_system[i])
            b = g.element(pg.elements[j], g.vector_system[j])
            assert g.contains(a * b), name


def test_invalid_cocycle_rejected():
    mx = IntegerMatrix([[1, 0], [0, -1]])
    my = IntegerMatrix([[-1, 0], [0, 1]])
    point = close_group([mx, my])
    zero = (Fraction(0), Fraction(0))
    tau = {i: zero for i in range(point.order)}
    # shifting only one mirror breaks tau(mx*my) = tau(mx) + mx.tau(my)
    tau[point.index_of(mx)] = (Fraction(1, 3), Fraction(0))
    with pytest.raises(InvalidCocycle):
        CrystallographicGroup(2, point, tau)


def test_semidirect_product_properties():
    for label, pg2 in point_groups_2d().items():
        g = semidirect_product(2, pg2, name=label)
        ok, shift = is_symmorphic(g)
        assert ok and all(x == 0 for x in shift)
    with pytest.raises(DimensionMismatch):
        semidirect_product(3, close_group([ROT2]))


def test_symmorphic_wallpaper_split():
    expected_false = {"pg", "pmg", "pgg", "p4g"}
    for name, g in wallpaper_groups().items():
        ok, witness = is_symmorphic(g)
        assert ok == (name not in expected_false), name
        if ok:
            # exact witness check: tau(a) = s - a.s mod Z^2
            for i in range(g.point_group.order):
                a = g.point_group.elements[i]
                delta = tuple(
                    s - x for s, x in zip(witness, a.apply(witness))
                )
                diff = tuple(d - t for d, t in zip(delta, g.vector_system[i]))
                assert all(Fraction(x).denominator == 1 for x in diff)


def test_spacegroup_table_queries():
    row = spacegroup_table_query("Triclinic")[0]
    assert row.classes == (("C_i", 1), ("C_1", 1))
    assert row.bravais == ((2, "P"),)
    total = sum(r.class_total for r in spacegroup_table())
    assert total == 230
    assert [r.class_total for r in spacegroup_table()] == [2, 13, 59, 68, 25, 27, 36]
    cubic = spacegroup_table_query("Cubic")[0]
    assert cubic.class_total == 36 and cubic.bravais_total == 35  # printed mismatch
    assert spacegroup_table_query("O_h")[0].syngony == "Cubic"
    with pytest.raises(UnknownFilter):
        spacegroup_table_query("Nonagonal")


def test_wallpaper_tables():
    assert len(wallpaper_table()) == 17
    info = wallpaper_info("p4m")
    assert info["syngony"] == "Square" and info["point_group"] == "D_4"
    rows = wallpaper_subgroups("p4m")
    assert ("p4g", 2) in rows and ("pmm", 2) in rows and ("p1", 8) in rows
    assert wallpaper_subgroups("p2") == [("p1", 2)]
    assert wallpaper_subgroups("p1") == []
    assert ("p1", None) in wallpaper_subgroups("pm")  # blank index preserved
    with pytest.raises(UnknownWallpaperGroup):
        wallpaper_subgroups("p5")


def test_commuting_involutions():
    mx = IntegerMatrix([[1, 0], [0, -1]])
    my = IntegerMatrix([[-1, 0], [0, 1]])
    assert commuting_involutions_check([mx, my])
    diag = IntegerMatrix([[0, 1], [1, 0]])  # reflection across the diagonal
    assert not commuting_involutions_check([mx, diag])
    assert commuting_involutions_check([mx])
    with pytest.raises(NotOrderTwo):
        commuting_involutions_check([IntegerMatrix([[0, -1], [1, 0]])])


def test_appendix_c_rows_commute():
    products = appendix_c_products()
    assert len(products) == 8
    for product in products:
        gens = product.order_two_generators()
        if gens:
            assert commuting_involutions_check(gens), product.label


def test_translation_fix_check():
    ident3 = IntegerMatrix.identity(3)
    v = AffineElement(ident3, (3, 0, 0))
    mirror = AffineElement(IntegerMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), (0, 0, 0))
    assert translation_fix_check(mirror, v)
    inv2d = AffineElement(-IntegerMatrix.identity(2), (0, 0))
    assert not translation_fix_check(inv2d, AffineElement(I2, (1, 0)))
    assert translation_fix_check(
        AffineElement(ident3, (0, 0, 0)), AffineElement(ident3, (5, -2, 7))
    )


def test_three_dimensional_screw_group():
    # two-fold screw axis: rotation about y with a half shift along it
    rot = IntegerMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    screw = CrystallographicGroup.from_generator_system(
        [(rot, (0, Fraction(1, 2), 0))], name="screw21"
    )
    ok, witness = is_symmorphic(screw)
    assert not ok and witness is None
    from crystaljet.bordism import verify_extension_exactness
    from crystaljet.cohomology import NotSplit, splitting_classes

    assert verify_extension_exactness(screw)["passed"]
    with pytest.raises(NotSplit):
        splitting_classes(screw)
    # the same point group with zero shift is symmorphic
    plain = semidirect_product(3, close_group([rot]))
    assert is_symmorphic(plain)[0]


def test_appendix_c_generators_close_to_point_groups():
    # the point-symmetry content of every printed amalgamated product
    # closes to a genuine point group of the expected type
    from crystaljet.groups import close_group, iso_type_name

    expected = {
        "Z_2*_e*Z_2": (4, "mm2"),
        "Z_4*_Z_2*Z_4": (8, "4/m"),
        "Z_4*_Z_2*D_2": (8, "4mm"),
        "Z_6*_Z_3*D_3": (12, "6mm"),
        "D_4*_D_2*D_4": (16, "4/mmm"),
        "D_2xZ_2*_D_2*D_4": (16, "4/mmm"),
        "D_6*_D_3*D_6": (24, "6/mmm"),
        "D_3xZ_2*_D_3*D_6": (24, "6/mmm"),
    }
    for product in appendix_c_products():
        g = close_group([m for _, m in product.generators])
        assert (g.order, iso_type_name(g)) == expected[product.label]


def test_spacegroup_query_accepts_international_names():
    assert spacegroup_table_query("m-3m")[0].syngony == "Cubic"
    assert spacegroup_table_query("422")[0].syngony == "Tetragonal"
    assert spacegroup_table_query("m")[0].syngony == "Monoclinic"  # C_1h alias

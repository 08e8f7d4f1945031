import hashlib
import random
import time

import pytest

from test_abelian import dense, sparse
from test_resolution import bar_cohomology

from crystaljet import cohomology
from crystaljet.abelian import (
    FgAbelianGroup,
    IntegerMatrix,
    group_from_relations,
    kernel_basis,
    quotient_group,
)
from crystaljet.cohomology import (
    CochainBoundExceeded,
    DegreeTooHigh,
    GModule,
    NotSplit,
    _block_relations,
    _cochain_columns,
    _orbit,
    _orbit_generators,
    _preimage_lattice,
    derivations,
    free_resolution,
    group_cohomology,
    group_cohomology_cyclic,
    group_homology_cyclic,
    kunneth_homology,
    splitting_classes,
)
from crystaljet.crystal import is_symmorphic, semidirect_product, wallpaper_groups
from crystaljet.groups import close_group, point_group, point_groups, point_groups_2d

Z = FgAbelianGroup.free(1)


def coboundary_squared_is_zero(g, mod, degree):
    """delta^{n+1} o delta^n = 0 on the resolution's cochains (modulo the
    coefficient relations when the module has torsion)."""
    res = free_resolution(g, degree + 2)
    first = _cochain_columns(res, mod, degree)
    second = _cochain_columns(res, mod, degree + 1)
    rels = mod.base.invariant_factors
    r = mod.base.free_rank
    m = mod.rank
    for column in first:
        for i in range(res.ranks[degree + 2] * m):
            x = sum(c * second[j].get(i, 0) for j, c in column.items())
            coord = i % m
            modulus = rels[coord - r] if coord >= r else 0
            if (x % modulus if modulus else x) != 0:
                return False
    return True


def is_derivation(h):
    """d(ab) = d(a) + a.d(b) (modulo the coefficient relations) on all
    |G|^2 pairs: the reference check of a CrossedHom."""
    g = h.module.group
    facs = h.module.base.invariant_factors
    r = h.module.base.free_rank
    for a in range(g.order):
        for b in range(g.order):
            ab = g.cayley[a][b]
            lhs = h.values[ab]
            adb = h.module.action[a].apply(h.values[b])
            rhs = tuple(x + y for x, y in zip(h.values[a], adb))
            for i, (x, y) in enumerate(zip(lhs, rhs)):
                if i < r:
                    if x != y:
                        return False
                elif (x - y) % facs[i - r] != 0:
                    return False
    return True


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
    # the trivial group: delta_0 is 0 x rank and keeps that width
    c1 = point_group("C_1")
    for base in (Z, FgAbelianGroup.free(2), FgAbelianGroup.cyclic(4)):
        assert group_cohomology(c1, GModule.trivial(c1, base), 0) == base


def test_h2_c2_z_trivial():
    c2 = point_group("C_2")
    assert group_cohomology(c2, GModule.trivial(c2, Z), 2) == FgAbelianGroup.cyclic(2)


def test_bar_matches_cyclic_closed_form():
    for m in (2, 3, 4, 5, 6):
        g = cyclic_matrix_group(m)
        mod = GModule.trivial(g, Z)
        for n in range(4):
            assert group_cohomology(g, mod, n) == group_cohomology_cyclic(m, n), (m, n)


def test_module_action_must_be_a_homomorphism():
    # the action is checked on generators only; a wrong matrix on a
    # product of generators is still caught
    g = point_group("D_2h")
    minus = IntegerMatrix([[-1]])
    ok = {i: IntegerMatrix([[m.determinant()]]) for i, m in enumerate(g.elements)}
    assert GModule(g, Z, ok).action == ok
    generators = {g.index_of(s) for s in g.generators}
    for i in range(g.order):
        if i in generators or i == g.identity_index:
            continue
        bad = dict(ok)
        bad[i] = minus * ok[i]
        with pytest.raises(ValueError, match="not a homomorphism"):
            GModule(g, Z, bad)


def test_a_product_that_breaks_torsion_is_not_a_homomorphism():
    # both mirrors of 2mm act trivially on Z/2 x Z/4 and their product by
    # the swap, which is invertible but does not preserve torsion: the
    # refusal is the homomorphism check's, which reaches every element
    g = point_groups_2d()["2mm"]
    ident = IntegerMatrix.identity(2)
    action = {i: ident for i in range(g.order)}
    (product,) = [i for i, m in enumerate(g.elements) if m not in g.generators and m != ident]
    action[product] = IntegerMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="^action is not a homomorphism$"):
        GModule(g, FgAbelianGroup(0, (2, 4)), action)


@pytest.mark.parametrize("base, action, message", [
    (Z, IntegerMatrix.identity(2), "action matrix of wrong size"),
    (Z, IntegerMatrix([[2]]), "action matrices must be invertible over Z"),
    (FgAbelianGroup(1, (2,)), IntegerMatrix([[1, 1], [0, -1]]), "torsion maps into free part"),
    (FgAbelianGroup(0, (2, 4)), IntegerMatrix([[0, 1], [1, 0]]),
     "action does not preserve torsion"),
])
def test_module_action_refusals(base, action, message):
    # the rotation of C_2 acts by the given matrix; each of these squares
    # to the identity or fails before the homomorphism check
    g = point_group("C_2")
    ident = IntegerMatrix.identity(base.free_rank + len(base.invariant_factors))
    with pytest.raises(ValueError, match=f"^{message}$"):
        GModule(g, base, {0: ident, 1: action})


@pytest.mark.parametrize("base", [Z, FgAbelianGroup.free(3)])
def test_a_binding_of_the_wrong_size_names_the_generator_and_the_rank(base):
    g = point_groups_2d()["2"]
    rotation = IntegerMatrix([[-1, 0], [0, -1]])
    rank = base.free_rank
    with pytest.raises(ValueError, match=(
            rf"^generator \[\[-1, 0\], \[0, -1\]\] acts by a 2 x 2 matrix on a module of rank {rank}$")):
        GModule.from_generator_action(g, base, {rotation: IntegerMatrix.identity(2)})


def test_h1_klein_free_module_vanishes():
    klein = point_group("D_2")
    mod = GModule.trivial(klein, FgAbelianGroup.free(2))
    assert group_cohomology(klein, mod, 1).is_trivial()


def _signed_permutations(d):
    def perm(p):
        return IntegerMatrix([[int(p[j] == i) for j in range(d)] for i in range(d)])

    swap = perm([1, 0] + list(range(2, d)))
    cycle = perm([(i + 1) % d for i in range(d)])
    flip = IntegerMatrix.diagonal([-1] + [1] * (d - 1))
    return close_group([swap, cycle, flip])


def test_degree_and_size_guards():
    c2 = point_group("C_2")
    mod = GModule.trivial(c2, Z)
    with pytest.raises(DegreeTooHigh):
        group_cohomology(c2, mod, 4)
    # the resolution of O_h has ranks 1, 3, 6, 10: degree 2 answers
    big = point_group("O_h")
    start = time.perf_counter()
    assert group_cohomology(big, GModule.trivial(big, Z), 2).render() == "Z/2 x Z/2"
    assert time.perf_counter() - start < 5
    # the signed permutations of Z^5 (order 3840): the Z-basis of
    # ker(augmentation) is 3839 x 3840, refused before anything is built
    huge = _signed_permutations(5)
    assert huge.order == 3840
    huge_mod = GModule.trivial(huge, Z)
    for compute in (lambda: group_cohomology(huge, huge_mod, 2), lambda: derivations(huge, huge_mod)):
        start = time.perf_counter()
        with pytest.raises(CochainBoundExceeded, match="3839 x 3840 matrix exceeds the bound"):
            compute()
        assert time.perf_counter() - start < 1


def test_the_span_bound_refuses_the_shape_of_the_span_and_its_next_orbit(monkeypatch):
    # before each generator joins, the span's rank plus |G| rows are checked
    # against the ambient width: for O_h, the third generator of the first
    # step meets a span of rank 46 (94 x 48), and the sixth of the second
    # step one of rank 90 (138 x 144); one entry below either shape refuses it
    g = point_group("O_h")
    first, second = free_resolution(g, 1), free_resolution(g, 2)
    monkeypatch.setattr(cohomology, "COCHAIN_BOUND", 94 * 48)
    assert free_resolution(g, 1) == first
    monkeypatch.setattr(cohomology, "COCHAIN_BOUND", 94 * 48 - 1)
    with pytest.raises(CochainBoundExceeded, match="^94 x 48 matrix exceeds the bound of 4511 "):
        free_resolution(g, 1)
    kernel = kernel_basis([w for v in first.boundaries[0] for w in _orbit(g, v)])
    monkeypatch.setattr(cohomology, "COCHAIN_BOUND", 138 * 144)
    assert _orbit_generators(g, kernel, 144) == second.boundaries[1]
    monkeypatch.setattr(cohomology, "COCHAIN_BOUND", 138 * 144 - 1)
    with pytest.raises(CochainBoundExceeded, match="^138 x 144 matrix exceeds the bound of 19871 "):
        _orbit_generators(g, kernel, 144)


def dense_cochain_columns(res, mod, k):
    """delta^k as dense columns, accumulated entry by entry over the dense
    boundaries: the oracle of the sparse `_cochain_columns`."""
    n, m = res.group.order, mod.rank
    height = res.ranks[k + 1] * m
    columns = [[0] * height for _ in range(res.ranks[k] * m)]
    for j, image in enumerate(res.boundaries[k]):
        for idx, c in enumerate(dense(image, res.ranks[k] * n)):
            if c:
                i, h = divmod(idx, n)
                for p, arow in enumerate(mod.action[h].entries):
                    for q, a in enumerate(arow):
                        if a:
                            columns[i * m + q][j * m + p] += c * a
    return columns


ALL_GROUPS = {**point_groups(), **point_groups_2d()}


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_sparse_cochain_columns_are_the_dense_oracle(name):
    # every entry of the dense oracle, and no zero entry: in degree 0 with
    # the trivial module, s_j - 1 cancels in every entry
    g = ALL_GROUPS[name]
    res = free_resolution(g, 3)
    modules = {"trivial": GModule.trivial(g, Z), "sign": GModule.sign(g, Z),
               "natural": GModule.natural(g)}
    for kind, mod in modules.items():
        for k in range(3):
            got = _cochain_columns(res, mod, k)
            height = res.ranks[k + 1] * mod.rank
            want = [tuple(col) for col in dense_cochain_columns(res, mod, k)]
            assert [dense(col, height) for col in got] == want, (kind, k)
            assert all(all(col.values()) for col in got), (kind, k)
            if kind == "trivial" and k == 0:
                assert not any(got)


def test_module_must_be_over_the_same_group():
    c2, c4 = point_group("C_2"), point_group("C_4")
    for g, h in ((c2, c4), (c4, c2)):
        mod = GModule.natural(h)
        with pytest.raises(ValueError, match=f"over {h.name}, not over {g.name}"):
            group_cohomology(g, mod, 1)
        with pytest.raises(ValueError, match=f"over {h.name}, not over {g.name}"):
            derivations(g, mod)


def test_h2_with_z_coefficients_is_the_abelianization():
    # H^2(G; Z) = Hom(G, Q/Z) = G^ab for finite G, and
    # G^ab = Z^G / <e_a + e_b - e_ab>; b may run over the generators only,
    # since the relation for b = b's follows from those for b' and s
    checked = 0
    for name in point_groups():
        g = point_group(name)
        relations = []
        for a in range(g.order):
            for b in map(g.index_of, g.generators):
                row = [0] * g.order
                row[a] += 1
                row[b] += 1
                row[g.cayley[a][b]] -= 1
                relations.append(row)
        g_ab = group_from_relations(g.order, IntegerMatrix(relations))
        assert group_cohomology(g, GModule.trivial(g, Z), 2) == g_ab, name
        checked += 1
    assert checked == 32


def test_coboundary_squared_zero():
    # the natural actions of D_3 and C_3v are not symmetric matrices, so a
    # transposed action block breaks delta o delta = 0 there
    for name in ("C_2", "C_s", "D_2", "D_3", "C_3v"):
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
        assert h1 == bar_cohomology(g, mod, 1), (name, kind)
        cases += 1


def elementwise_derivations(g, mod):
    """(Der, Princ, H1) from the n^2 m x n m system d(ab) = d(a) + a.d(b)
    over every pair of elements, unknowns indexed as (element, coordinate):
    the reference that `derivations` replaced."""
    m, n = mod.rank, g.order
    ambient = m * n
    rows = []
    for a in range(n):
        for b in range(n):
            ab = g.cayley[a][b]
            act = mod.action[a]
            for i in range(m):
                row = [0] * ambient
                row[ab * m + i] += 1
                row[a * m + i] -= 1
                for j in range(m):
                    row[b * m + j] -= act[(i, j)]
                rows.append(row)
    columns = [sparse(col) for col in IntegerMatrix(rows).transpose().entries]
    cocycles = _preimage_lattice(columns, _block_relations(mod, n * n))
    principal = []
    for j in range(m):
        vec = [0] * ambient
        for a in range(n):
            col = mod.action[a].col(j)
            for i in range(m):
                vec[a * m + i] = col[i] - (i == j)
        principal.append(sparse(vec))
    relations = _block_relations(mod, n)
    return (
        quotient_group(relations, cocycles, ambient),
        quotient_group(relations, principal + relations, ambient),
        quotient_group(principal + relations, cocycles, ambient),
    )


def test_derivations_match_the_elementwise_system():
    checked = 0
    for name in point_groups():
        g = point_group(name)
        if g.order > 8:
            continue
        modules = {
            "Z": GModule.trivial(g, Z),
            "sign Z/3": GModule.sign(g, FgAbelianGroup.cyclic(3)),
            "Z/4": GModule.trivial(g, FgAbelianGroup.cyclic(4)),
            "natural": GModule.natural(g),
            "natural mod 2": GModule.natural(g, scale_mod=2),
            "natural mod 4": GModule.natural(g, scale_mod=4),
        }
        for kind, mod in modules.items():
            assert derivations(g, mod) == elementwise_derivations(g, mod), (name, kind)
            checked += 1
    assert checked == 120


def test_derivations_of_o_h_with_torsion_coefficients_are_fast():
    g = point_group("O_h")
    start = time.perf_counter()
    _, _, h1 = derivations(g, GModule.natural(g, scale_mod=4))
    assert time.perf_counter() - start < 5
    assert h1.render() == "Z/2 x Z/2 x Z/2"


def test_splitting_classes_direct_product():
    # trivial point group: the zero derivation is the only class
    g = semidirect_product(close_group([IntegerMatrix.identity(2)]))
    classes = splitting_classes(g)
    assert len(classes) == 1
    assert all(all(x == 0 for x in v) for v in classes[0].values.values())


def test_splitting_classes_c2_trivial_action_on_z2():
    # 2D inversion acts by -1 on Z^2: Der = ker(1 + (-1)) = Z^2,
    # Princ = image of (g.h - h) = 2Z^2, so 4 classes
    inv2 = close_group([-IntegerMatrix.identity(2)])
    g = semidirect_product(inv2)
    classes = splitting_classes(g)
    assert len(classes) == 4
    for cls in classes:
        assert is_derivation(cls)


def test_splitting_classes_pm():
    pm = wallpaper_groups()["pm"]
    classes = splitting_classes(pm)
    assert len(classes) == 2  # |H^1| for the mirror action on Z^2
    for cls in classes:
        assert len(cls.values) == pm.point_group.order
        assert is_derivation(cls)
    # the class count equals the order of H^1 computed from the complex
    h1 = group_cohomology(pm.point_group, GModule.natural(pm.point_group), 1)
    assert len(classes) == h1.order()


def test_splitting_class_count_matches_h1_all_symmorphic_wallpaper():
    counts = {}
    for name, g in wallpaper_groups().items():
        if not is_symmorphic(g)[0]:
            continue
        classes = splitting_classes(g)
        h1 = group_cohomology(g.point_group, GModule.natural(g.point_group), 1)
        assert len(classes) == h1.order(), name
        for cls in classes:
            assert len(cls.values) == g.point_group.order and is_derivation(cls), name
        counts[name] = len(classes)
    assert counts == {
        "p1": 1, "p2": 4, "pm": 2, "cm": 1, "pmm": 4, "cmm": 2, "p4": 2,
        "p4m": 2, "p3": 3, "p3m1": 3, "p31m": 1, "p6": 1, "p6m": 1,
    }


# sha256 of the exact bases that `kernel_basis` hands on: the ranks and the
# boundary images, rendered as dense tuples, of the length-3 resolution of
# each of the 32 + 10 point groups, and the sorted values of every
# splitting class of the 13 symmorphic wallpaper groups; a kernel with
# another (equally valid) basis changes both
RESOLUTIONS_SHA256 = "fec9f2010158dce2bd3e492e253b1070cd0fd21d7a6dbbeebd1ce08a938cc28c"
SPLITTING_CLASSES_SHA256 = "44bc014e3e6de80f970392abe9e2d0a81e075542aee782c5f9a7e636519e4ea4"
# the same digest over the length-4 resolutions (O_h ranks 1, 3, 6, 10, 15)
LENGTH_FOUR_RESOLUTIONS_SHA256 = "921a746d425e11e6adf2b1cd10ddc56bdf2dc7cd1545e6c72615c427c1e1897a"


def dense_boundaries(res):
    """The sparse boundary images d_{k+1}(e_j) as dense tuples over F_k."""
    n = res.group.order
    return [[dense(v, res.ranks[k] * n) for v in images] for k, images in enumerate(res.boundaries)]


def test_resolutions_and_splitting_classes_are_pinned():
    digest = hashlib.sha256()
    groups = [*point_groups().items(), *point_groups_2d().items()]
    assert len(groups) == 42
    for name, g in groups:
        res = free_resolution(g, 3)
        digest.update(repr((name, res.ranks, dense_boundaries(res))).encode())
    assert digest.hexdigest() == RESOLUTIONS_SHA256
    digest = hashlib.sha256()
    symmorphic = [(name, g) for name, g in wallpaper_groups().items() if is_symmorphic(g)[0]]
    assert len(symmorphic) == 13
    for name, g in symmorphic:
        values = [sorted(cls.values.items()) for cls in splitting_classes(g)]
        digest.update(repr((name, values)).encode())
    assert digest.hexdigest() == SPLITTING_CLASSES_SHA256


def test_length_four_resolutions_are_pinned():
    digest = hashlib.sha256()
    groups = [*point_groups().items(), *point_groups_2d().items()]
    for name, g in groups:
        res = free_resolution(g, 4)
        digest.update(repr((name, res.ranks, dense_boundaries(res))).encode())
        if name == "O_h":
            assert res.ranks == [1, 3, 6, 10, 15]
    assert digest.hexdigest() == LENGTH_FOUR_RESOLUTIONS_SHA256


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
    # route 1: group_cohomology, from the free resolution
    klein = point_group("D_2")
    mod = GModule.trivial(klein, Z)
    resolved = [group_cohomology(klein, mod, n) for n in range(4)]
    # route 2: Kunneth homology of C_2 x C_2, then universal coefficients
    from crystaljet.abelian import direct_sum
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
    assert resolved == uct
    assert [g.render() for g in resolved] == ["Z^1", "0", "Z/2 x Z/2", "Z/2"]

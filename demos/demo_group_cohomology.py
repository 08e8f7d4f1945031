"""Group cohomology from a small free ZG-resolution over Z, derivations as
splittings, and the Kunneth rule for homology of products.
"""

from crystaljet.abelian import FgAbelianGroup, IntegerMatrix
from crystaljet.cohomology import (
    GModule,
    derivations,
    group_cohomology,
    group_homology_cyclic,
    kunneth_homology,
    splitting_classes,
)
from crystaljet.crystal import wallpaper_groups
from crystaljet.groups import close_group, point_group

Z = FgAbelianGroup.free(1)

print("Cohomology of cyclic groups with trivial integer coefficients is")
print("2-periodic; a free resolution reproduces the closed form:")
for m in (2, 3, 4):
    shift = [[1 if i == (j + 1) % m else 0 for j in range(m)] for i in range(m)]
    g = close_group([IntegerMatrix(shift)])
    mod = GModule.trivial(g, Z)
    values = [group_cohomology(g, mod, n).render() for n in range(4)]
    print(f"  C_{m}: H^0..H^3 = {values}")

print("\nDerivations (crossed homomorphisms) classify splittings: for the")
print("mirror acting by -1 on Z/3 every map is a derivation and every")
print("derivation is principal, so there is a single conjugacy class:")
cs = point_group("C_s")
der, princ, h1 = derivations(cs, GModule.sign(cs, FgAbelianGroup.cyclic(3)))
print(f"  Der = {der}, Princ = {princ}, H^1 = {h1}")

print("\nSplitting classes of plane groups (lattice-conjugacy classes):")
for name in ("pm", "cm", "p2"):
    classes = splitting_classes(wallpaper_groups()[name])
    print(f"  {name}: {len(classes)} class(es); zero derivation present: "
          f"{any(all(x == 0 for v in c.values.values() for x in v) for c in classes)}")

print("\nKunneth: homology of the Klein group from two cyclic factors:")
h = [group_homology_cyclic(2, i) for i in range(4)]
for s in range(4):
    print(f"  H_{s} = {kunneth_homology(h, h, s)}")

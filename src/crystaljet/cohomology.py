"""Group cohomology of finite matrix groups with coefficients in finitely
generated modules, crossed homomorphisms, and splitting classification.

Cohomology is computed on a small free ZG-resolution of Z, built with
integer linear algebra only (Ellis, "Computing group resolutions",
J. Symb. Comp. 38, 2004): each kernel is found as a Z-lattice, and
ZG-generators are taken from its basis until their orbits span it (a
span of its rank with unit pivots is all of it).  Every lattice vector
here is sparse, {index: value} with no zero entries, as in `abelian`: the
kernels, the orbits, the span, the boundaries of the resolution, the
coboundary columns, the relations and the cocycles.  Each step keeps its
span as one pivot table, {pivot column: echelon row}, into which every
orbit vector is joined once and which is never re-echeloned; membership
is a reduction along the same pivots.
With Hom_ZG(F_k, M) = M^{r_k}, each coboundary map is built as its
r_k * rank columns (1, 3, 6, 10 for O_h) where the bar complex had
(|G| - 1)^k * rank; the columns are the coboundaries, and the kernel
routine reads them as they are.  Cocycles are an integer kernel, and the
quotient by the coboundaries is read off in a Hermite basis of the
cocycle lattice, whose relation matrix then goes through the Smith normal
form.  Torsion coefficients are handled by carrying an explicit relation
lattice next to each cochain group instead of switching to finite-field
arithmetic.  Derivations are the 1-cocycles of the same resolution,
carried to every group element along the edges of
``FiniteMatrixGroup.walk``; splitting classes are a transversal of them
modulo the principal ones.  A module's action is one dict from element
index to matrix, which each constructor builds; it is checked on the
generators only: as a homomorphism on the edges (a, s, a*s) of the same
walk, by induction on word length, and for invertibility and torsion on
their matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .abelian import (
    FgAbelianGroup,
    IntegerMatrix,
    _join,
    _reduce,
    _subtract,
    direct_sum,
    kernel_basis,
    lattice_coordinates,
    lattice_from_generators,
    quotient_group,
    tensor_product,
    tor_product,
)
from .crystal import is_symmorphic
from .groups import FiniteMatrixGroup


class DegreeTooHigh(ValueError):
    pass


class CochainBoundExceeded(ValueError):
    pass


class NotSplit(ValueError):
    pass


# a bound on the rows x cols shape of each echelon: a resolution's kernel
# echelon, a cochain matrix with its relations, or a step's orbit span as a
# generator's orbit is about to join it (the span's pivots plus |G| rows).
# The rows are sparse, so the shape bounds the entries stored from above.
# H^3 of O_h peaks at 480 x 768 (the kernel echelon of d_3); a group of
# order 3 840 is refused at the first step (3 839 x 3 840)
COCHAIN_BOUND = 10_000_000


def _check_size(rows: int, cols: int):
    """Refuse a rows x cols matrix before it is built."""
    if rows * cols > COCHAIN_BOUND:
        raise CochainBoundExceeded(
            f"{rows} x {cols} matrix exceeds the bound of {COCHAIN_BOUND} entries")


class GModule:
    """A finitely generated abelian group with a G-action by integer
    matrices acting on all coordinates (free first, then torsion);
    ``action`` maps each element index of the group to its matrix."""

    def __init__(self, group: FiniteMatrixGroup, base: FgAbelianGroup, action: dict):
        self.group = group
        self.base = base
        self.rank = base.free_rank + len(base.invariant_factors)
        self.action = dict(action)
        self._validate()

    # -- constructors ---------------------------------------------------
    @classmethod
    def trivial(cls, group, base):
        ident = IntegerMatrix.identity(base.free_rank + len(base.invariant_factors))
        return cls(group, base, {i: ident for i in range(group.order)})

    @classmethod
    def sign(cls, group, base):
        """Each element acts by its determinant (the det representation)."""
        rank = base.free_rank + len(base.invariant_factors)
        return cls(group, base, {i: IntegerMatrix.diagonal([m.determinant()] * rank)
                                 for i, m in enumerate(group.elements)})

    @classmethod
    def natural(cls, group, scale_mod: int | None = None):
        """The group acting by its own matrices on Z^d (or (Z/N)^d)."""
        d = group.dimension
        if scale_mod is None:
            base = FgAbelianGroup.free(d)
        else:
            base = FgAbelianGroup(0, (scale_mod,) * d)
        return cls(group, base, {i: group.elements[i] for i in range(group.order)})

    @classmethod
    def from_generator_action(cls, group, base, bindings):
        """Extend an action given on generator matrices to the whole group
        along ``group.walk``; a bound matrix that is not rank x rank is
        refused before the walk multiplies it, and inconsistent bindings are
        rejected by the homomorphism validation."""
        rank = base.free_rank + len(base.invariant_factors)
        for gen, act in bindings.items():
            if act.rows != rank or act.cols != rank:
                raise ValueError(f"generator {list(map(list, gen.entries))} acts by a "
                                 f"{act.rows} x {act.cols} matrix on a module of rank {rank}")
        action = {group.identity_index: IntegerMatrix.identity(rank)}
        gen_act = {group.index_of(g): a for g, a in bindings.items()}
        for a, s, b in group.walk(gen_act):
            if b not in action:
                action[b] = action[a] * gen_act[s]
        if len(action) != group.order:
            raise ValueError("bindings do not generate the whole group")
        return cls(group, base, action)

    def _validate(self):
        g = self.group
        ident = IntegerMatrix.identity(self.rank)
        if self.action[g.identity_index] != ident:
            raise ValueError("action(identity) must be the identity matrix")
        for i in range(g.order):
            a = self.action[i]
            if a.rows != self.rank or a.cols != self.rank:
                raise ValueError("action matrix of wrong size")
        # the generators suffice for the rest: for a homomorphism rho(a) rho(a^-1)
        # = rho(1) = I, and products of maps that keep the torsion relations keep them
        gen_index = [g.index_of(s) for s in g.generators]
        gen_acts = [self.action[s] for s in gen_index]
        if not all(a.is_invertible_over_z() for a in gen_acts):
            raise ValueError("action matrices must be invertible over Z")
        # rho(a s) = rho(a) rho(s) on every edge (a, s, a s) of the walk, that
        # is for every a and every generator s, gives rho(a b) = rho(a) rho(b)
        # by induction on a word for b, without the |G|^2 Cayley table
        for a, s, b in g.walk(gen_index):
            if self.action[a] * self.action[s] != self.action[b]:
                raise ValueError("action is not a homomorphism")
        # torsion must be preserved: column j with factor d_j maps into the
        # relation lattice
        r = self.base.free_rank
        facs = self.base.invariant_factors
        for a in gen_acts:
            for j, dj in enumerate(facs):
                col = a.col(r + j)
                for row_i, entry in enumerate(col):
                    if row_i < r:
                        if entry != 0:
                            raise ValueError("torsion maps into free part")
                    else:
                        di = facs[row_i - r]
                        if (dj * entry) % di != 0:
                            raise ValueError("action does not preserve torsion")


# ---------------------------------------------------------------------------
# free resolution
# ---------------------------------------------------------------------------


@dataclass
class FreeResolution:
    """F_len -> ... -> F_1 -> F_0 = ZG -> Z, exact and free over ZG.

    F_k has the ZG-basis e_0, ..., e_{r_k - 1} and the Z-basis h*e_i, at
    index i*|G| + h.  ``boundaries[k][j]`` is d_{k+1}(e_j), the sparse
    vector {index: value} of F_k that was chosen as a generator; d is
    ZG-linear, so d(h*e_j) = h*d(e_j).
    """

    group: FiniteMatrixGroup
    ranks: list  # r_0 = 1, r_1, ..., r_len
    boundaries: list


def _orbit(g: FiniteMatrixGroup, v: dict):
    """The |G| translates h*v of a sparse vector {index: value} of some F_k."""
    n = g.order
    terms = [(idx - idx % n, idx % n, x) for idx, x in v.items()]
    return [{base + row[h]: x for base, h, x in terms} for row in g.cayley]


def _orbit_generators(g: FiniteMatrixGroup, kernel, ambient: int):
    """ZG-generators of a G-stable lattice given by a Z-basis of sparse
    vectors.

    A basis vector, sparsest first, joins the generators when it is not yet
    in the Z-span of the orbits chosen so far, so the span ends up holding
    the basis: exactness at this step.  The span is one pivot table for the
    whole step, {pivot column: echelon row}: each vector of a new orbit is
    joined into it once (`abelian._join`), and membership reduces along
    the same pivots (`abelian._reduce`).  The pivot columns and values of
    an echelon basis are the Hermite diagonal of its lattice, so every
    answer is the one a fresh echelon of the span would give.

    The build stops once the span has as many pivots as the lattice basis
    has vectors, all of them 1: substitution along unit pivots then gives
    every lattice vector integer coordinates, so the span is the whole
    lattice.  That is checked after each join, with a running count of the
    pivots other than 1; the orbit vectors not yet joined lie in the
    lattice, hence in the span, so leaving them out mid-orbit changes
    nothing.  Sparse generators keep the entries of d at +-1 on the point
    groups and the ranks small (3, 6, 10, 15 for O_h).
    """
    pivots, gens, non_unit = {}, [], 0
    for v in sorted(kernel, key=lambda v: (len(v), sum(map(abs, v.values())))):
        if not _reduce(pivots, dict(v)):
            continue
        _check_size(len(pivots) + g.order, ambient)
        gens.append(v)
        for w in _orbit(g, v):
            non_unit += _join(pivots, w)
            if len(pivots) == len(kernel) and not non_unit:
                return gens
    return gens


def free_resolution(g: FiniteMatrixGroup, length: int) -> FreeResolution:
    """A free ZG-resolution of Z up to F_length (Ellis, J. Symb. Comp. 38,
    2004): each F_{k+1} is free on ZG-generators of ker d_k, chosen among
    the sparse vectors of a Z-basis of that kernel."""
    n = g.order
    e = g.identity_index
    # ker(augmentation) has the Z-basis g - 1
    _check_size(n - 1, n)
    kernel = [{a: 1, e: -1} for a in range(n) if a != e]
    ranks, boundaries = [1], []
    for k in range(length):
        gens = _orbit_generators(g, kernel, ranks[k] * n)
        ranks.append(len(gens))
        boundaries.append(gens)
        if k + 1 < length:
            rows, cols = ranks[k] * n, ranks[k + 1] * n
            _check_size(cols, rows + cols)
            kernel = kernel_basis([w for v in gens for w in _orbit(g, v)])
    return FreeResolution(g, ranks, boundaries)


def _cochain_columns(res: FreeResolution, mod: GModule, k: int):
    """delta^k : Hom(F_k, M) = M^{r_k} -> M^{r_{k+1}}, f -> f o d_{k+1}, as
    its r_k * rank sparse columns.

    Block (j, i) is the sum over h of c * rho(h), where c is the
    coefficient of h*e_i in d_{k+1}(e_j).  Entries that cancel are
    dropped: in degree 0 with the trivial module, s_j - 1 cancels in all.
    """
    n, m = res.group.order, mod.rank
    _check_size(res.ranks[k + 1] * m, res.ranks[k] * m)
    columns = [{} for _ in range(res.ranks[k] * m)]
    for j, image in enumerate(res.boundaries[k]):
        for idx, c in image.items():
            i, h = divmod(idx, n)
            for p, arow in enumerate(mod.action[h].entries):
                for q, a in enumerate(arow):
                    if a:
                        column = columns[i * m + q]
                        column[j * m + p] = column.get(j * m + p, 0) + c * a
    return [{r: x for r, x in column.items() if x} for column in columns]


def _block_relations(mod: GModule, ncopies: int):
    """Relation generators for M^ncopies inside Z^(rank*ncopies): each
    invariant factor d_j at its torsion coordinate of each copy."""
    rank, r = mod.rank, mod.base.free_rank
    return [{c * rank + r + j: d} for c in range(ncopies)
            for j, d in enumerate(mod.base.invariant_factors)]


def _preimage_lattice(columns, relations):
    """Generators of {x : sum_j x_j * columns[j] lies in the lattice spanned
    by relations}: the kernel of [columns | -relations], cut to x."""
    n = len(columns)
    negated = [{i: -x for i, x in r.items()} for r in relations]
    return [{j: x for j, x in v.items() if j < n} for v in kernel_basis([*columns, *negated])]


def _cocycles(res: FreeResolution, mod: GModule, degree: int):
    """(cocycle generators, coboundary generators, relations of
    M^{r_degree}, ambient) for the cochains Hom_ZG(F_degree, M) = M^{r_degree}
    inside Z^ambient; the cocycles contain the relations."""
    if mod.group.elements != res.group.elements:
        names = [h.name or f"a group of order {h.order}" for h in (res.group, mod.group)]
        raise ValueError(f"the module is over {names[1]}, not over {names[0]}")
    ambient = res.ranks[degree] * mod.rank
    delta_n = _cochain_columns(res, mod, degree)
    relations = _block_relations(mod, res.ranks[degree + 1])
    # the cocycles are the kernel of [delta_n | -relations]
    width = ambient + len(relations)
    _check_size(width, res.ranks[degree + 1] * mod.rank + width)
    cocycles = _preimage_lattice(delta_n, relations)
    coboundaries = _cochain_columns(res, mod, degree - 1) if degree else []
    return cocycles, coboundaries, _block_relations(mod, res.ranks[degree]), ambient


def group_cohomology(g: FiniteMatrixGroup, mod: GModule, degree: int) -> FgAbelianGroup:
    """H^degree(G; M) from a free resolution, by Hermite and Smith normal
    forms."""
    if degree > 3:
        raise DegreeTooHigh("degrees above 3 are out of contract")
    if degree < 0:
        raise ValueError("negative degree")
    cocycles, coboundaries, relations, ambient = _cocycles(
        free_resolution(g, degree + 1), mod, degree
    )
    return quotient_group(relations + coboundaries, cocycles, ambient)


# ---------------------------------------------------------------------------
# closed forms and Kunneth
# ---------------------------------------------------------------------------


def group_homology_cyclic(order: int, degree: int) -> FgAbelianGroup:
    """H_i of a finite cyclic group with integer coefficients: Z at i = 0,
    Z/order in odd degrees, 0 in positive even degrees."""
    if order < 1 or degree < 0:
        raise ValueError("order must be >= 1 and degree >= 0")
    if degree == 0:
        return FgAbelianGroup.free(1)
    if degree % 2 == 1:
        return FgAbelianGroup.cyclic(order)
    return FgAbelianGroup.trivial()


def group_cohomology_cyclic(order: int, degree: int) -> FgAbelianGroup:
    """H^i of a finite cyclic group with trivial Z coefficients: Z, 0, Z/m,
    0, Z/m, ... (the 2-periodic resolution in closed form)."""
    if degree == 0:
        return FgAbelianGroup.free(1)
    if degree % 2 == 0:
        return FgAbelianGroup.cyclic(order)
    return FgAbelianGroup.trivial()


def kunneth_homology(h_a, h_b, degree: int) -> FgAbelianGroup:
    """H_degree of a product from the two factors' homology sequences."""
    def get(seq, i):
        return seq[i] if 0 <= i < len(seq) else FgAbelianGroup.trivial()

    summands = []
    for p in range(degree + 1):
        summands.append(tensor_product(get(h_a, p), get(h_b, degree - p)))
    for p in range(degree):
        summands.append(tor_product(get(h_a, p), get(h_b, degree - 1 - p)))
    return direct_sum(*summands)


# ---------------------------------------------------------------------------
# derivations (crossed homomorphisms)
# ---------------------------------------------------------------------------


@dataclass
class CrossedHom:
    """A derivation d : G -> M, stored on every group element."""

    module: GModule
    values: dict  # element index -> tuple of ints (coordinates in Z^rank)


def _derivation(res: FreeResolution, mod: GModule, cocycle: dict) -> CrossedHom:
    """The derivation of a sparse 1-cocycle f in Hom_ZG(F_1, M) = M^{r_1},
    on every element.

    d_1(e_j) = s_j - 1, where s_j is the +1 entry (F_1's generators are
    taken from the Z-basis {a - 1} of ker(augmentation)), and the s_j
    generate G since their orbits span that kernel.  f vanishes on im d_2 =
    ker d_1, so it is g - 1 -> d(g) read through d_1: d(s_j) = f(e_j), and
    d(a*s) = d(a) + rho(a)*d(s) on the edges of ``g.walk`` reaches every
    element from d(1) = 0.
    """
    g, m = res.group, mod.rank
    steps = {next(h for h, x in v.items() if x == 1): [cocycle.get(j * m + p, 0) for p in range(m)]
             for j, v in enumerate(res.boundaries[0])}
    values = {g.identity_index: (0,) * m}
    for a, s, b in g.walk(steps):
        if b not in values:
            values[b] = tuple(x + y for x, y in zip(values[a], mod.action[a].apply(steps[s])))
    return CrossedHom(mod, values)


def derivations(g: FiniteMatrixGroup, mod: GModule):
    """(Der, Princ, H1) for derivations G -> M: Der(G, M) = Hom_ZG(I_G, M)
    is Z^1 of the free resolution, and Princ is B^1."""
    cocycles, principal, relations, ambient = _cocycles(free_resolution(g, 2), mod, 1)
    der = quotient_group(relations, cocycles, ambient)
    princ = quotient_group(relations, principal + relations, ambient)
    h1 = quotient_group(principal + relations, cocycles, ambient)
    return der, princ, h1


def splitting_classes(crystal_group) -> list[CrossedHom]:
    """One crossed-homomorphism representative per lattice-conjugacy class
    of splittings of a symmorphic crystallographic group."""
    ok, _ = is_symmorphic(crystal_group)
    if not ok:
        raise NotSplit(f"{crystal_group.name or 'group'} does not split")
    g = crystal_group.point_group
    mod = GModule.natural(g)
    res = free_resolution(g, 2)
    cocycles, principal, _, ambient = _cocycles(res, mod, 1)
    basis = lattice_from_generators(cocycles, ambient)
    # coordinates of the principal lattice in the cocycle basis, indexed by
    # the basis's pivot columns
    coords = [lattice_coordinates(basis, p) for p in principal]
    assert None not in coords, "principal derivations must be cocycles"
    # the box of the Hermite diagonal of the principal lattice L is one
    # transversal of Z^k / L; at full rank its pivots are the basis's
    herm = lattice_from_generators(coords, ambient)
    if len(herm) < len(basis):
        raise NotSplit("splitting classes are not finite (unexpected)")
    out = []
    for rep in iproduct(*(range(row[c]) for c, row in herm.items())):
        vec = {}
        for q, row in zip(rep, basis.values()):
            if q:
                _subtract(vec, -q, row)
        out.append(_derivation(res, mod, vec))
    return out

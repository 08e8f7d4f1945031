"""Group cohomology of finite matrix groups with coefficients in finitely
generated modules, crossed homomorphisms, and splitting classification.

Everything is computed from the (normalized) inhomogeneous bar cochain
complex with exact integer coboundary matrices: cocycles are an integer
kernel, and the quotient by the coboundaries is read off in a Hermite basis
of the cocycle lattice, whose relation matrix then goes through the Smith
normal form.  Tuples containing the identity are dropped, which computes the
same cohomology on much smaller matrices.  Torsion coefficients are handled by
carrying an explicit relation lattice next to each cochain group instead of
switching to finite-field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .abelian import (
    FgAbelianGroup,
    IntegerMatrix,
    direct_sum,
    kernel_basis,
    lattice_coordinates,
    lattice_from_generators,
    quotient_group,
    tensor_product,
    tor_product,
)
from .groups import FiniteMatrixGroup


class DegreeTooHigh(ValueError):
    pass


class CochainBoundExceeded(ValueError):
    pass


class ModuleTooLarge(ValueError):
    pass


class NotSplit(ValueError):
    pass


# entries of the largest dense coboundary or derivation-constraint matrix
# built: degree 2 with Z coefficients passes for every point group of order
# <= 24 (12 167 x 529), O_h (103 823 x 2 209) is refused
COCHAIN_BOUND = 10_000_000


def _check_size(rows: int, cols: int, error):
    """Refuse a rows x cols matrix before it is built."""
    if rows * cols > COCHAIN_BOUND:
        raise error(f"{rows} x {cols} matrix exceeds the bound of {COCHAIN_BOUND} entries")


class GModule:
    """A finitely generated abelian group with a G-action by integer
    matrices acting on all coordinates (free first, then torsion)."""

    def __init__(self, group: FiniteMatrixGroup, base: FgAbelianGroup, action):
        self.group = group
        self.base = base
        self.rank = base.free_rank + len(base.invariant_factors)
        if callable(action):
            action = {i: action(group.elements[i]) for i in range(group.order)}
        elif action and isinstance(next(iter(action)), IntegerMatrix):
            action = {group.index_of(m): a for m, a in action.items()}
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
        def act(m):
            d = m.determinant()
            return IntegerMatrix.diagonal([d] * rank)
        return cls(group, base, act)

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
        by following products from the identity; inconsistent bindings are
        rejected by the homomorphism validation."""
        rank = base.free_rank + len(base.invariant_factors)
        action = {group.identity_index: IntegerMatrix.identity(rank)}
        gen_act = {group.index_of(g): a for g, a in bindings.items()}
        frontier = [group.identity_index]
        while frontier:
            nxt = []
            for i in frontier:
                for gi, ag in gen_act.items():
                    k = group.cayley[i][gi]
                    candidate = action[i] * ag
                    if k not in action:
                        action[k] = candidate
                        nxt.append(k)
            frontier = nxt
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
            if not a.is_invertible_over_z():
                raise ValueError("action matrices must be invertible over Z")
        for i in range(g.order):
            for j in range(g.order):
                k = g.cayley[i][j]
                if self.action[i] * self.action[j] != self.action[k]:
                    raise ValueError("action is not a homomorphism")
        # torsion must be preserved: column j with factor d_j maps into the
        # relation lattice
        r = self.base.free_rank
        facs = self.base.invariant_factors
        for i in range(self.group.order):
            a = self.action[i]
            for j, dj in enumerate(facs):
                col = a.col(r + j)
                for row_i, entry in enumerate(col):
                    if row_i < r:
                        if dj * entry != 0 and entry != 0:
                            raise ValueError("torsion maps into free part")
                    else:
                        di = facs[row_i - r]
                        if (dj * entry) % di != 0:
                            raise ValueError("action does not preserve torsion")

    def relation_vectors(self):
        """Generators of the relation lattice of the presentation Z^rank -> M."""
        r = self.base.free_rank
        out = []
        for j, d in enumerate(self.base.invariant_factors):
            v = [0] * self.rank
            v[r + j] = d
            out.append(tuple(v))
        return out


# ---------------------------------------------------------------------------
# bar complex
# ---------------------------------------------------------------------------


def _tuples(g: FiniteMatrixGroup, n: int):
    """Nondegenerate n-tuples of group element indices (identity excluded)."""
    nonident = [i for i in range(g.order) if i != g.identity_index]
    return list(iproduct(nonident, repeat=n))


def _coboundary_matrix(mod: GModule, n: int):
    """Matrix of delta_n : C^n -> C^{n+1} on normalized cochains.

    Columns are (n-tuple, coordinate) pairs; rows likewise in degree n+1.
    """
    g = mod.group
    m = mod.rank
    cols_tuples = _tuples(g, n)
    rows_tuples = _tuples(g, n + 1)
    col_index = {t: k for k, t in enumerate(cols_tuples)}
    rows = [[0] * (m * len(cols_tuples)) for _ in range(m * len(rows_tuples))]
    e = g.identity_index
    for rk, s in enumerate(rows_tuples):
        base_row = rk * m
        # g_1 . f(g_2, ..., g_{n+1})
        tail = s[1:]
        a = mod.action[s[0]]
        cbase = col_index[tail] * m
        for i in range(m):
            for j in range(m):
                if a[(i, j)]:
                    rows[base_row + i][cbase + j] += a[(i, j)]
        # merged terms
        for k in range(n):
            merged = s[: k] + (g.cayley[s[k]][s[k + 1]],) + s[k + 2 :]
            if e in merged:
                continue
            sign = -1 if (k + 1) % 2 else 1
            cbase = col_index[merged] * m
            for i in range(m):
                rows[base_row + i][cbase + i] += sign
        # last face
        head = s[:n]
        sign = -1 if (n + 1) % 2 else 1
        cbase = col_index[head] * m
        for i in range(m):
            rows[base_row + i][cbase + i] += sign
    return IntegerMatrix(rows), len(cols_tuples), len(rows_tuples)


def _block_relations(mod: GModule, ncopies: int):
    """Relation generators for M^ncopies inside Z^(rank*ncopies)."""
    rels = []
    rank = mod.rank
    for c in range(ncopies):
        for v in mod.relation_vectors():
            w = [0] * (rank * ncopies)
            for i, x in enumerate(v):
                if x:
                    w[c * rank + i] = x
            rels.append(tuple(w))
    return rels


def _preimage_lattice(matrix: IntegerMatrix, target_relations):
    """Generators of {x : matrix*x lies in the lattice spanned by
    target_relations}."""
    if not target_relations:
        return kernel_basis(matrix)
    cols = [matrix.col(j) for j in range(matrix.cols)]
    ext = cols + [tuple(-x for x in v) for v in target_relations]
    big = IntegerMatrix(list(zip(*ext))) if ext else matrix
    gens = []
    for vec in kernel_basis(big):
        gens.append(vec[: matrix.cols])
    return gens


def group_cohomology(g: FiniteMatrixGroup, mod: GModule, degree: int) -> FgAbelianGroup:
    """H^degree(G; M) from the bar cochain complex, by Hermite and Smith
    normal forms."""
    if degree > 3:
        raise DegreeTooHigh("degrees above 3 are out of contract")
    if degree < 0:
        raise ValueError("negative degree")
    m = mod.rank
    ntup = (g.order - 1) ** degree  # normalized cochains skip the identity
    ambient = m * ntup
    _check_size(ambient * (g.order - 1), ambient, CochainBoundExceeded)
    if ambient == 0:
        return FgAbelianGroup.trivial()
    delta_n, _, _ = _coboundary_matrix(mod, degree)
    rel_next = _block_relations(mod, delta_n.rows // m if m else 0)
    cocycles = _preimage_lattice(delta_n, rel_next)
    sub = list(_block_relations(mod, ntup))
    if degree > 0:
        delta_prev, _, _ = _coboundary_matrix(mod, degree - 1)
        sub.extend(delta_prev.col(j) for j in range(delta_prev.cols))
    if not cocycles:
        return FgAbelianGroup.trivial()
    return quotient_group(sub, cocycles, ambient)


def coboundary_squared_is_zero(g: FiniteMatrixGroup, mod: GModule, degree: int) -> bool:
    """delta_{n+1} o delta_n = 0 as exact integer matrices (modulo the
    coefficient relations when the module has torsion)."""
    d1, _, _ = _coboundary_matrix(mod, degree)
    d2, _, _ = _coboundary_matrix(mod, degree + 1)
    comp = d2 * d1
    rels = mod.base.invariant_factors
    r = mod.base.free_rank
    m = mod.rank
    for i in range(comp.rows):
        for j in range(comp.cols):
            x = comp[(i, j)]
            coord = i % m
            if coord < r:
                if x != 0:
                    return False
            else:
                if x % rels[coord - r] != 0:
                    return False
    return True


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

    def value(self, element: IntegerMatrix):
        return self.values[self.module.group.index_of(element)]

    def is_derivation(self) -> bool:
        g = self.module.group
        facs = self.module.base.invariant_factors
        r = self.module.base.free_rank
        for a in range(g.order):
            for b in range(g.order):
                ab = g.cayley[a][b]
                lhs = self.values[ab]
                adb = self.module.action[a].apply(self.values[b])
                rhs = tuple(x + y for x, y in zip(self.values[a], adb))
                for i, (x, y) in enumerate(zip(lhs, rhs)):
                    if i < r:
                        if x != y:
                            return False
                    elif (x - y) % facs[i - r] != 0:
                        return False
        return True


def _derivation_lattices(mod: GModule):
    """(cocycle lattice generators, principal generators, ambient, relations)
    for derivations G -> M, unknowns indexed as (element, coordinate)."""
    g = mod.group
    m = mod.rank
    n = g.order
    ambient = m * n
    _check_size(n * n * m, ambient, ModuleTooLarge)
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
                    if act[(i, j)]:
                        row[b * m + j] -= act[(i, j)]
                rows.append(row)
    constraint = IntegerMatrix(rows) if rows else IntegerMatrix.zero(0, ambient)
    rel_rows = _block_relations_rows(mod, len(rows))
    cocycles = _preimage_lattice(constraint, rel_rows) if rows else [
        tuple(1 if k == i else 0 for k in range(ambient)) for i in range(ambient)
    ]
    principal = []
    for j in range(m):
        vec = [0] * ambient
        for a in range(n):
            col = mod.action[a].col(j)
            for i in range(m):
                vec[a * m + i] = col[i] - (1 if i == j else 0)
        principal.append(tuple(vec))
    relations = _block_relations(mod, n)
    return cocycles, principal, ambient, relations


def _block_relations_rows(mod: GModule, nrows: int):
    """Relation lattice of M^k on the constraint-row side: each scalar
    constraint lives in one copy of M, so relations are per-row torsion."""
    # constraint rows are grouped in blocks of rank m per (a, b) pair, but
    # rows with all zeros were dropped; rebuild per-row coordinates instead
    facs = mod.base.invariant_factors
    r = mod.base.free_rank
    m = mod.rank
    rels = []
    for row_i in range(nrows):
        coord = row_i % m
        if coord >= r:
            v = [0] * nrows
            v[row_i] = facs[coord - r]
            rels.append(tuple(v))
    return rels


def derivations(g: FiniteMatrixGroup, mod: GModule):
    """(Der, Princ, H1) for derivations G -> M."""
    cocycles, principal, ambient, relations = _derivation_lattices(mod)
    der = quotient_group(relations, cocycles, ambient) if cocycles else FgAbelianGroup.trivial()
    princ = quotient_group(relations, principal + relations, ambient)
    h1 = (
        quotient_group(principal + relations, cocycles, ambient)
        if cocycles
        else FgAbelianGroup.trivial()
    )
    return der, princ, h1


def splitting_classes(crystal_group) -> list[CrossedHom]:
    """One crossed-homomorphism representative per lattice-conjugacy class
    of splittings of a symmorphic crystallographic group."""
    from .crystal import is_symmorphic  # local import to avoid a cycle

    ok, _ = is_symmorphic(crystal_group)
    if not ok:
        raise NotSplit(f"{crystal_group.name or 'group'} does not split")
    g = crystal_group.point_group
    mod = GModule.natural(g)
    cocycles, principal, ambient, _ = _derivation_lattices(mod)
    if not cocycles:
        return [CrossedHom(mod, {i: (0,) * mod.rank for i in range(g.order)})]
    basis_vecs = lattice_from_generators(cocycles, ambient)
    if not basis_vecs:  # only the zero derivation exists
        return [CrossedHom(mod, {i: (0,) * mod.rank for i in range(g.order)})]
    k = len(basis_vecs)
    # coordinates of the principal lattice in the cocycle basis
    coords = []
    for p in principal:
        x = lattice_coordinates(basis_vecs, p)
        assert x is not None, "principal derivations must be cocycles"
        coords.append(x)
    # the box of the Hermite diagonal of the principal lattice L is one
    # transversal of Z^k / L
    herm = lattice_from_generators(coords, k)
    if len(herm) < k:
        raise NotSplit("splitting classes are not finite (unexpected)")
    basis = IntegerMatrix(list(zip(*basis_vecs)))
    out = []
    for rep in iproduct(*(range(row[i]) for i, row in enumerate(herm))):
        vec = basis.apply(rep)
        values = {
            a_: tuple(vec[a_ * mod.rank : (a_ + 1) * mod.rank]) for a_ in range(g.order)
        }
        out.append(CrossedHom(mod, values))
    return out

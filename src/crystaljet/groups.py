"""Finite groups of integer matrices: closure, Cayley tables, subgroup
lattices, and crystallographic naming for point groups.

The 32 three-dimensional point groups (and the ten two-dimensional ones)
are embedded as integer generator matrices in a lattice-adapted basis, so
all arithmetic stays exact.  Published subgroup tables are carried verbatim
in ``appendix_b.dat`` and validated, never silently corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .abelian import IntegerMatrix
from .data import load_lines


class NotInvertible(ValueError):
    pass


class ClosureBoundExceeded(RuntimeError):
    pass


class UnknownPointGroup(KeyError):
    pass


DEFAULT_CLOSURE_BOUND = 10_000


class FiniteMatrixGroup:
    """A finite group of integer matrices, closed under product and inverse.

    ``elements[0]`` is the identity.  The Cayley table is built lazily; all
    products are looked up by matrix hash, so the group must really be
    closed (``close_group`` guarantees it).
    """

    def __init__(self, dimension: int, generators, elements, name: str | None = None):
        self.dimension = dimension
        self.generators = list(generators)
        self.elements = list(elements)
        self.name = name
        self._index = {m: i for i, m in enumerate(self.elements)}
        self._cayley = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, m: IntegerMatrix) -> int:
        try:
            return self._index[m]
        except KeyError:
            raise KeyError("matrix is not an element of this group") from None

    def __contains__(self, m):
        return m in self._index

    @property
    def cayley(self):
        if self._cayley is None:
            idx = self._index
            self._cayley = [
                [idx[a * b] for b in self.elements] for a in self.elements
            ]
        return self._cayley

    @property
    def identity_index(self) -> int:
        return self._index[IntegerMatrix.identity(self.dimension)]

    def inverse_idx(self, i: int) -> int:
        e = self.identity_index
        row = self.cayley[i]
        return row.index(e)

    def element_order(self, i: int) -> int:
        e = self.identity_index
        n, j = 1, i
        while j != e:
            j = self.cayley[j][i]
            n += 1
        return n

    def conjugated(self, p: IntegerMatrix) -> "FiniteMatrixGroup":
        """The group p G p^-1 for unimodular p (same abstract group)."""
        pinv = p.inverse_unimodular()
        gens = [p * g * pinv for g in self.generators]
        return close_group(gens)

    def __repr__(self):
        label = self.name or "FiniteMatrixGroup"
        return f"<{label}: order {self.order}, dim {self.dimension}>"


def close_group(generators, bound: int = DEFAULT_CLOSURE_BOUND) -> FiniteMatrixGroup:
    """Close a set of invertible integer matrices under multiplication."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator (pass the identity)")
    dim = gens[0].rows
    for g in gens:
        if g.rows != g.cols or g.rows != dim:
            raise ValueError("generators must be square of equal size")
        if not g.is_invertible_over_z():
            raise NotInvertible(f"generator {g!r} has determinant != +-1")
    ident = IntegerMatrix.identity(dim)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for a in frontier:
            for g in gens:
                prod = a * g
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    new_frontier.append(prod)
                    if len(elements) > bound:
                        raise ClosureBoundExceeded(
                            f"closure exceeded {bound} elements; group may be infinite"
                        )
        frontier = new_frontier
    return FiniteMatrixGroup(dim, gens, elements)


@dataclass(frozen=True)
class SubgroupRecord:
    iso_name: str
    order: int
    index: int
    element_indices: frozenset = field(compare=False, default=frozenset())

    def triple(self):
        return (self.iso_name, self.order, self.index)


def _closure_indices(g: FiniteMatrixGroup, seed) -> frozenset:
    cay = g.cayley
    have = set(seed)
    have.add(g.identity_index)
    frontier = list(have)
    members = list(have)
    while frontier:
        nxt = []
        for a in frontier:
            row = cay[a]
            for b in members:
                for c in (row[b], cay[b][a]):
                    if c not in have:
                        have.add(c)
                        nxt.append(c)
        members = list(have)
        frontier = nxt
    return frozenset(have)


def enumerate_subgroups(g: FiniteMatrixGroup) -> list[SubgroupRecord]:
    """Every subgroup of g, one record per subgroup, descending order.

    Seeded from cyclic subgroups and closed under pairwise joins; since
    every subgroup is generated by its cyclic subgroups this finds them all.
    """
    if g.order > DEFAULT_CLOSURE_BOUND:
        raise ClosureBoundExceeded("subgroup enumeration capped at order 10,000")
    cyclics = set()
    for i in range(g.order):
        cyclics.add(_closure_indices(g, [i]))
    found = set(cyclics)
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for c in cyclics:
            if c <= h:
                continue
            k = _closure_indices(g, h | c)
            if k not in found:
                found.add(k)
                frontier.append(k)
    records = []
    for idxset in found:
        sub = close_group_from_indices(g, idxset)
        records.append(
            SubgroupRecord(
                iso_name=iso_type_name(sub),
                order=len(idxset),
                index=g.order // len(idxset),
                element_indices=idxset,
            )
        )
    records.sort(key=lambda r: (-r.order, r.iso_name, r.index))
    return records


def close_group_from_indices(g: FiniteMatrixGroup, indices) -> FiniteMatrixGroup:
    elems = [g.elements[i] for i in sorted(indices)]
    ident = IntegerMatrix.identity(g.dimension)
    elems.sort(key=lambda m: m != ident)  # identity first
    return FiniteMatrixGroup(g.dimension, elems, elems)


# ---------------------------------------------------------------------------
# crystallographic naming
# ---------------------------------------------------------------------------


def _fingerprint(g: FiniteMatrixGroup):
    pairs = sorted((m.determinant(), sum(m[(i, i)] for i in range(g.dimension)))
                   for m in g.elements)
    return (g.order, tuple(pairs))


@lru_cache(maxsize=1)
def _fingerprint_table():
    table = {}
    for name, grp in point_groups().items():
        fp = _fingerprint(grp)
        assert fp not in table, f"fingerprint clash: {name} vs {table[fp]}"
        table[fp] = INTERNATIONAL[name]
    for name, grp in point_groups_2d().items():
        fp = _fingerprint(grp)
        assert fp not in table, f"2d fingerprint clash at {name}"
        table[fp] = name
    return table


def iso_type_name(g: FiniteMatrixGroup) -> str:
    """Crystallographic label of a finite matrix group of order <= 48.

    Exact-arithmetic lookup: the multiset of (det, trace) pairs together
    with the order separates all 32 three-dimensional and all ten
    two-dimensional point-group types, and it is invariant under any
    GL_d(Z) change of lattice basis.
    """
    if g.order > 48:
        return f"order-{g.order}-unclassified"
    if g.dimension in (2, 3):
        fp = _fingerprint(g)
        hit = _fingerprint_table().get(fp)
        if hit is not None:
            return hit
    if g.order == 1:
        return "1"
    if g.order == 2:
        other = next(i for i in range(g.order) if i != g.identity_index)
        m = g.elements[other]
        if m == -IntegerMatrix.identity(g.dimension):
            return "-1"
        return "m" if m.determinant() == -1 else "2"
    orders = sorted(g.element_order(i) for i in range(g.order))
    n = g.order
    if orders[-1] == n:  # cyclic
        return str(n)
    if n == 4 and orders == [1, 2, 2, 2]:
        return "222"
    if n % 2 == 0 and orders[-1] == n // 2:
        half = n // 2
        # dihedral test: an order-half element r plus an involution s with
        # s r s = r^-1
        for i in range(n):
            if g.element_order(i) != half:
                continue
            rinv = g.inverse_idx(i)
            for j in range(n):
                if g.element_order(j) == 2:
                    if g.cayley[g.cayley[j][i]][j] == rinv:
                        names = {2: "222", 3: "32", 4: "422", 6: "622"}
                        if half in names:
                            return names[half]
        return f"order-{n}-unclassified"
    return f"order-{n}-unclassified"


# ---------------------------------------------------------------------------
# embedded datasets
# ---------------------------------------------------------------------------

INTERNATIONAL = {
    "C_1": "1", "C_i": "-1", "C_2": "2", "C_s": "m", "C_2h": "2/m",
    "D_2": "222", "C_2v": "mm2", "D_2h": "mmm",
    "C_4": "4", "S_4": "-4", "C_4h": "4/m", "D_4": "422", "C_4v": "4mm",
    "D_2d": "-42m", "D_4h": "4/mmm",
    "C_3": "3", "S_6": "-3", "D_3": "32", "C_3v": "3m", "D_3d": "-3m",
    "C_6": "6", "C_3h": "-6", "C_6h": "6/m", "D_6": "622", "C_6v": "6mm",
    "D_3h": "-62m", "D_6h": "6/mmm",
    "T": "23", "T_h": "m-3", "O": "432", "T_d": "-43m", "O_h": "m-3m",
}

SCHOENFLIES = {v: k for k, v in INTERNATIONAL.items()}


def parse_matrix(text: str) -> IntegerMatrix:
    """Row-major bracket syntax: [[a,b],[c,d]]."""
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ValueError(f"bad matrix literal: {text!r}")
    rows = []
    for chunk in text[2:-2].split("],["):
        rows.append([int(tok) for tok in chunk.split(",")])
    return IntegerMatrix(rows)


@lru_cache(maxsize=1)
def point_groups() -> dict[str, FiniteMatrixGroup]:
    """The 32 crystallographic point groups, keyed by Schoenflies symbol."""
    groups = {}
    name = None
    gens = []
    for line in load_lines("pointgroups.dat"):
        if line.startswith("group "):
            parts = line.split()
            name = parts[1]
            gens = []
        elif line.startswith("gen "):
            gens.append(parse_matrix(line[4:]))
        elif line == "end":
            grp = close_group(gens)
            grp.name = name
            groups[name] = grp
            name = None
    assert len(groups) == 32
    return groups


@lru_cache(maxsize=1)
def point_groups_2d() -> dict[str, FiniteMatrixGroup]:
    """The ten 2-dimensional point-group types, keyed by international name."""
    c3 = parse_matrix("[[0,-1],[1,-1]]")
    c6 = parse_matrix("[[1,-1],[1,0]]")
    mirror = parse_matrix("[[1,0],[0,-1]]")
    mirror_hex = parse_matrix("[[0,1],[1,0]]")
    data = {
        "1": [IntegerMatrix.identity(2)],
        "2": [-IntegerMatrix.identity(2)],
        "3": [c3],
        "4": [parse_matrix("[[0,-1],[1,0]]")],
        "6": [c6],
        "m": [mirror],
        "2mm": [mirror, parse_matrix("[[-1,0],[0,1]]")],
        "4mm": [parse_matrix("[[0,-1],[1,0]]"), mirror],
        "3m": [c3, mirror_hex],
        "6mm": [c6, mirror_hex],
    }
    out = {}
    for name, gens in data.items():
        grp = close_group(gens)
        grp.name = name
        out[name] = grp
    return out


def point_group(name: str) -> FiniteMatrixGroup:
    """Look up a point group by Schoenflies or international symbol."""
    groups = point_groups()
    if name in groups:
        return groups[name]
    if name in SCHOENFLIES:
        return groups[SCHOENFLIES[name]]
    raise UnknownPointGroup(name)


@lru_cache(maxsize=1)
def appendix_b_tables() -> dict[str, list[tuple[str, int, int]]]:
    """The published point-group subgroup tables, exactly as printed."""
    tables: dict[str, list[tuple[str, int, int]]] = {}
    current = None
    for line in load_lines("appendix_b.dat"):
        if line.startswith("table "):
            current = line.split()[1]
            tables[current] = []
        elif line.startswith("row "):
            iso, order, index = line[4:].split()
            tables[current].append((iso, int(order), int(index)))
        elif line == "end":
            current = None
    assert len(tables) == 32
    return tables


@dataclass(frozen=True)
class TableMismatch:
    location: str
    published: str
    computed: str
    kind: str  # LagrangeViolationInPaper | MissingInPaper | ExtraInPaper

    def key(self):
        return (self.location, self.kind, self.published, self.computed)


@dataclass
class ValidationResult:
    group_name: str
    mismatches: list

    @property
    def ok(self):
        return not self.mismatches


def validate_appendix_b(name: str):
    """Compare the computed subgroup lattice of a named point group against
    its as-published table.

    Published rows are matched as (iso, order, index) sets, ignoring
    multiplicity, because the printed tables list iso-types only.
    """
    groups = point_groups()
    if name in SCHOENFLIES:
        name = SCHOENFLIES[name]
    if name not in groups:
        raise UnknownPointGroup(name)
    g = groups[name]
    computed = {rec.triple() for rec in enumerate_subgroups(g)}
    published = appendix_b_tables()[name]
    mismatches = []
    seen_pub = set()
    for iso, order, index in published:
        row = f"{iso}/{order}/{index}"
        if (iso, order, index) in seen_pub:
            continue  # duplicated printed row; set comparison already covers it
        seen_pub.add((iso, order, index))
        if order * index != g.order:
            mismatches.append(
                TableMismatch(
                    location=f"{name} row {row}",
                    published=row,
                    computed="(impossible: order*index != group order)",
                    kind="LagrangeViolationInPaper",
                )
            )
        elif (iso, order, index) not in computed:
            mismatches.append(
                TableMismatch(
                    location=f"{name} row {row}",
                    published=row,
                    computed="(no such subgroup)",
                    kind="ExtraInPaper",
                )
            )
    for triple in sorted(computed):
        if triple not in seen_pub:
            iso, order, index = triple
            mismatches.append(
                TableMismatch(
                    location=f"{name} computed {iso}/{order}/{index}",
                    published="(absent)",
                    computed=f"{iso}/{order}/{index}",
                    kind="MissingInPaper",
                )
            )
    return ValidationResult(group_name=name, mismatches=mismatches)

"""Finite groups of integer matrices: closure, Cayley tables, subgroup
lattices, and crystallographic naming for point groups.

The 32 three-dimensional point groups (and the ten two-dimensional ones)
are embedded as integer generator matrices in a lattice-adapted basis, so
all arithmetic stays exact.  Published subgroup tables are carried verbatim
in ``appendix_b.dat`` and validated, never silently corrected; every table
check, here and in the CLI, reports its findings as ``TableMismatch``
records in one ``ValidationReport``.

Every group keeps its identity as element 0, so index 0 is the identity in
every Cayley table and walk.  ``close_group``, ``reach`` and ``walk`` are
each one breadth-first loop over a list that grows while it is read, so
elements are numbered in breadth-first order from the identity.  Groups
are named by one rule, a lookup of the order and the multiset of
(det, trace) pairs of the elements.  Every finite subgroup of GL_3(Z) or
GL_2(Z) is conjugate over Q to one of the 32 or 10 representatives (the
geometric crystal classes; International Tables for Crystallography,
Vol. A), that fingerprint is invariant under such conjugation, and the 42
representatives have 42 distinct fingerprints, so the lookup names every
finite group in dimensions 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .abelian import IntegerMatrix
from .data import load_blocks


class NotInvertible(ValueError):
    pass


class ClosureBoundExceeded(RuntimeError):
    pass


class UnknownPointGroup(KeyError):
    pass


DEFAULT_CLOSURE_BOUND = 10_000


class FiniteMatrixGroup:
    """A finite group of integer matrices, closed under product and inverse.

    ``elements[0]`` is the identity (checked here), which gives ``dimension``,
    and ``identity_index`` is 0.  The Cayley table is built lazily; products
    are looked up by matrix hash, so the group must really be closed, and
    ``generators`` must generate it, since every check built on ``walk``
    sees only the elements it reaches (``close_group`` guarantees both).
    """

    identity_index = 0

    def __init__(self, generators, elements, name: str | None = None):
        self.generators = list(generators)
        self.elements = list(elements)
        self.dimension = self.elements[0].rows if self.elements else 0
        if self.elements[:1] != [IntegerMatrix.identity(self.dimension)]:
            raise ValueError("elements[0] of a FiniteMatrixGroup must be the identity")
        self.name = name
        self._index = {m: i for i, m in enumerate(self.elements)}
        self._cayley = None
        self._columns = {}

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

    def reach(self, generators) -> list:
        """The element indices reached from the identity by right
        multiplication with the generator indices, breadth first: the
        subgroup they generate, since in a finite group that is the monoid."""
        cay, generators = self.cayley, list(generators)
        reached = [self.identity_index]
        seen = set(reached)
        for a in reached:  # grows while it is read: a breadth-first queue
            row = cay[a]
            for s in generators:
                b = row[s]
                if b not in seen:
                    seen.add(b)
                    reached.append(b)
        return reached

    def _column(self, s: int) -> list:
        """The indices of a*s for every element index a: column s of the
        Cayley table, read off the table when it is built and otherwise
        formed as |G| products, and kept either way."""
        col = self._columns.get(s)
        if col is None:
            if self._cayley is not None:
                col = [row[s] for row in self._cayley]
            else:
                m, index = self.elements[s], self._index
                col = [index[a * m] for a in self.elements]
            self._columns[s] = col
        return col

    def walk(self, generators):
        """Every edge (a, s, a*s) of the Cayley graph on the generator
        indices: for each reached a in breadth-first order (that of
        ``reach``), one edge per generator, so a is reached before any edge
        leaving it.  The edges are read off the generators' columns of the
        Cayley table (``_column``), so a walk takes |G| products per
        generator, once per group, and never builds the |G|^2 table.

        This licenses induction on word length: a rule for f(a*s) in terms
        of f(a) and s that holds on every edge holds for every product of
        the generators, so a map is fixed by its generator values and a
        rule is checked on these edges alone (the orbit algorithm, Holt,
        Eick & O'Brien, Handbook of Computational Group Theory, 2005, 4.1).
        """
        generators = list(generators)
        columns = [self._column(s) for s in generators]
        reached = [self.identity_index]
        seen = set(reached)
        for a in reached:  # grows while it is read: a breadth-first queue
            for s, col in zip(generators, columns):
                b = col[a]
                yield a, s, b
                if b not in seen:
                    seen.add(b)
                    reached.append(b)

    def conjugated(self, p: IntegerMatrix) -> "FiniteMatrixGroup":
        """The group p G p^-1 for unimodular p (same abstract group)."""
        pinv = p.inverse_unimodular()
        gens = [p * g * pinv for g in self.generators]
        return close_group(gens)

    def __repr__(self):
        label = self.name or "FiniteMatrixGroup"
        return f"<{label}: order {self.order}, dim {self.dimension}>"


def close_group(generators) -> FiniteMatrixGroup:
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
    elements = [IntegerMatrix.identity(dim)]
    seen = set(elements)
    for a in elements:  # grows while it is read: a breadth-first queue
        for g in gens:
            prod = a * g
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
                if len(elements) > DEFAULT_CLOSURE_BOUND:
                    raise ClosureBoundExceeded(
                        f"closure exceeded {DEFAULT_CLOSURE_BOUND} elements; group may be infinite"
                    )
    return FiniteMatrixGroup(gens, elements)


@dataclass(frozen=True)
class SubgroupRecord:
    iso_name: str
    order: int
    index: int
    element_indices: frozenset = field(compare=False, default=frozenset())

    def triple(self):
        return (self.iso_name, self.order, self.index)


def enumerate_subgroups(g: FiniteMatrixGroup) -> list[SubgroupRecord]:
    """Every subgroup of g, one record per subgroup, descending order.

    Cyclic extension with carried generators (Neubüser 1960; Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005): every subgroup
    is the join of its cyclic subgroups, so joining each subgroup h found,
    from the cyclic subgroups on, with <x> for each x not in h finds them
    all.  The join depends only on the right coset h*x (for a in h,
    <h, a*x> = <h, x>), so each coset is joined once: the cosets of the x
    joined so far are marked, and a later x in a marked coset is skipped.
    Each subgroup carries the generators that made it, so a join is one
    ``reach`` from those few and x.  Each subgroup is named from the
    (det, trace) pairs of its elements, read off g's elements, and records
    with equal triples are ordered by their sorted element indices.
    """
    if g.order > DEFAULT_CLOSURE_BOUND:
        raise ClosureBoundExceeded("subgroup enumeration capped at order 10,000")
    cyclic = {}  # each cyclic subgroup -> the first index that generates it
    for x in range(g.order):
        cyclic.setdefault(frozenset(g.reach([x])), x)
    found = {c: (x,) for c, x in cyclic.items()}  # subgroup -> its generators
    frontier = list(found)
    cay = g.cayley
    while frontier:
        h = frontier.pop()
        joined = set(h)  # the cosets h*x joined so far, h itself included
        for x in cyclic.values():
            if x in joined:
                continue
            joined.update(cay[a][x] for a in h)
            gens = found[h] + (x,)
            k = frozenset(g.reach(gens))
            if k not in found:
                found[k] = gens
                frontier.append(k)
    pairs = _det_trace(g)
    records = [
        SubgroupRecord(
            iso_name=_name([pairs[i] for i in idxset]),
            order=len(idxset),
            index=g.order // len(idxset),
            element_indices=idxset,
        )
        for idxset in found
    ]
    records.sort(key=lambda r: (-r.order, r.iso_name, r.index, tuple(sorted(r.element_indices))))
    return records


# ---------------------------------------------------------------------------
# crystallographic naming
# ---------------------------------------------------------------------------


def _det_trace(g: FiniteMatrixGroup):
    """The (det, trace) pair of each element of g, by element index."""
    return [(m.determinant(), sum(m[(i, i)] for i in range(g.dimension)))
            for m in g.elements]


def _fingerprint(pairs):
    return (len(pairs), tuple(sorted(pairs)))


@lru_cache(maxsize=1)
def _fingerprint_table():
    table = {}
    for name, grp in point_groups().items():
        fp = _fingerprint(_det_trace(grp))
        assert fp not in table, f"fingerprint clash: {name} vs {table[fp]}"
        table[fp] = INTERNATIONAL[name]
    for name, grp in point_groups_2d().items():
        fp = _fingerprint(_det_trace(grp))
        assert fp not in table, f"2d fingerprint clash at {name}"
        table[fp] = name
    return table


def _name(pairs) -> str:
    # the identity contributes (1, dimension), so only groups of dimension
    # 2 or 3 (and of order <= 48) can hit the table
    return _fingerprint_table().get(_fingerprint(pairs), f"order-{len(pairs)}-unclassified")


def iso_type_name(g: FiniteMatrixGroup) -> str:
    """Crystallographic label of a finite matrix group.

    Exact-arithmetic lookup: the multiset of (det, trace) pairs together
    with the order separates all 32 three-dimensional and all ten
    two-dimensional point-group types, and it is invariant under any
    GL_d(Z) change of lattice basis, so it names every finite group in
    dimensions 2 and 3.  Any other group is ``order-<n>-unclassified``.
    """
    return _name(_det_trace(g))


# ---------------------------------------------------------------------------
# embedded datasets
# ---------------------------------------------------------------------------

# international symbols of the 32 point groups, from the group headers
INTERNATIONAL = {name: intl for (name, intl), _ in load_blocks("pointgroups.dat", "group")}

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
    for (name, _), body in load_blocks("pointgroups.dat", "group"):
        grp = close_group([parse_matrix(mat) for _, mat in body])
        grp.name = name
        groups[name] = grp
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
    tables = {
        name: [(iso, int(order), int(index)) for _, iso, order, index in body]
        for (name,), body in load_blocks("appendix_b.dat", "table")
    }
    assert len(tables) == 32
    return tables


@dataclass(frozen=True)
class TableMismatch:
    dataset: str
    location: str
    published: str
    computed: str
    kind: str  # LagrangeViolationInPaper | MissingInPaper | ExtraInPaper, or a CLI check's class


@dataclass
class ValidationReport:
    """The checks run on one dataset and the mismatches they found; each
    mismatch keeps its dataset, which the errata verdict reads after
    merging and the JSON leaves out."""

    dataset: str
    checks_run: int = 0
    mismatches: list = field(default_factory=list)
    subgroups: list = field(default_factory=list)  # computed SubgroupRecords compared

    @property
    def ok(self):
        return not self.mismatches

    def add(self, location, published, computed, kind):
        self.mismatches.append(
            TableMismatch(self.dataset, location, str(published), str(computed), kind)
        )

    def merge(self, other: "ValidationReport"):
        self.checks_run += other.checks_run
        self.mismatches.extend(other.mismatches)

    def to_json_dict(self):
        return {
            "dataset": self.dataset,
            "checks_run": self.checks_run,
            "mismatches": [
                {"location": m.location, "published": m.published,
                 "computed": m.computed, "class": m.kind}
                for m in self.mismatches
            ],
        }


def validate_appendix_b(name: str) -> ValidationReport:
    """Compare the computed subgroup lattice of a named point group against
    its as-published table: one check, with the computed subgroups.

    Published rows are matched as (iso, order, index) sets, ignoring
    multiplicity, because the printed tables list iso-types only.
    """
    g = point_group(name)
    name = g.name
    subgroups = enumerate_subgroups(g)
    report = ValidationReport("appendix_b", checks_run=1, subgroups=subgroups)
    computed = {rec.triple() for rec in subgroups}
    published = appendix_b_tables()[name]
    seen_pub = set()
    for iso, order, index in published:
        row = f"{iso}/{order}/{index}"
        if (iso, order, index) in seen_pub:
            continue  # duplicated printed row; set comparison already covers it
        seen_pub.add((iso, order, index))
        if order * index != g.order:
            report.add(f"{name} row {row}", row, "(impossible: order*index != group order)",
                       "LagrangeViolationInPaper")
        elif (iso, order, index) not in computed:
            report.add(f"{name} row {row}", row, "(no such subgroup)", "ExtraInPaper")
    for triple in sorted(computed):
        if triple not in seen_pub:
            row = "/".join(map(str, triple))
            report.add(f"{name} computed {row}", "(absent)", row, "MissingInPaper")
    return report

"""Crystallographic groups as lattice extensions: exact affine arithmetic,
symmorphism testing, and the published reference tables for point groups,
space-group counts, wallpaper groups and amalgamated free products.

A group is stored in cocycle normal form: a finite point group of integer
matrices plus a vector system assigning each point-group element a rational
translation mod Z^d.  Elements are pairs (a, u) with the product
(a, u)(b, v) = (ab, u + a.v).  A vector system is built from generator
translations along the edges a -> a*s of ``FiniteMatrixGroup.walk``, and
checked as a cocycle on the same edges by the one check,
``CrystallographicGroup.check_cocycle``, that every construction runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .abelian import IntegerMatrix, smith_normal_form
from .data import load_blocks
from .groups import SCHOENFLIES, FiniteMatrixGroup, close_group, parse_matrix


class ElementNotInGroup(ValueError):
    pass


class InvalidCocycle(ValueError):
    pass


class NotOrderTwo(ValueError):
    pass


class UnknownWallpaperGroup(KeyError):
    pass


class UnknownFilter(KeyError):
    pass


def _frac_vec(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _mod1(vec) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) - (Fraction(v).numerator // Fraction(v).denominator) for v in vec)


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _is_integral(vec) -> bool:
    return all(Fraction(v).denominator == 1 for v in vec)


@dataclass(frozen=True)
class AffineElement:
    point_part: IntegerMatrix
    translation: tuple

    def __post_init__(self):
        object.__setattr__(self, "translation", _frac_vec(self.translation))

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        a, u = self.point_part, self.translation
        b, v = other.point_part, other.translation
        return AffineElement(a * b, _vec_add(u, a.apply(v)))

    def inverse(self) -> "AffineElement":
        ainv = self.point_part.inverse_unimodular()
        return AffineElement(ainv, tuple(-x for x in ainv.apply(self.translation)))


class CrystallographicGroup:
    """Space group in cocycle normal form.

    ``vector_system`` maps each point-group element index to its translation
    mod Z^d, d the point group's dimension (zero when omitted), always checked
    as a cocycle tau(ab) = tau(a) + a.tau(b) mod Z^d; set its entries on a
    valid group to examine a broken one.
    """

    def __init__(self, point_group: FiniteMatrixGroup, vector_system=None, name=None):
        self.dimension = point_group.dimension
        self.point_group = point_group
        if vector_system is None:
            vector_system = {i: (Fraction(0),) * self.dimension for i in range(point_group.order)}
        else:
            vector_system = {i: _mod1(_frac_vec(v)) for i, v in vector_system.items()}
        self.vector_system = vector_system
        self.name = name
        self.check_cocycle()

    @classmethod
    def from_generator_system(cls, gens_with_tau, name=None):
        """Build the group from point generators and their translations,
        extending the vector system over the whole point group."""
        point = close_group([g for g, _ in gens_with_tau])
        # the generators keep their own translations (the identity's too,
        # which the check refuses if nonzero); the constructor's
        # check_cocycle refuses any inconsistency on the same edges
        tau = {point.identity_index: (Fraction(0),) * point.dimension}
        tau.update((point.index_of(g), _frac_vec(t)) for g, t in gens_with_tau)
        for a, s, b in point.walk(map(point.index_of, point.generators)):
            if b not in tau:
                tau[b] = _vec_add(tau[a], point.elements[a].apply(tau[s]))
        return cls(point, tau, name=name)

    # -- structural checks ------------------------------------------------
    def check_cocycle(self):
        """tau(a*s) = tau(a) + a.tau(s) (mod Z^d) on every edge of the
        point group's walk, with tau(1) = 0, gives the cocycle condition
        for every pair by induction on word length."""
        tau = self.vector_system
        g = self.point_group
        if any(x != 0 for x in tau[g.identity_index]):
            raise InvalidCocycle("tau(identity) must vanish")
        for a, s, b in g.walk(map(g.index_of, g.generators)):
            if tau[b] != _mod1(_vec_add(tau[a], g.elements[a].apply(tau[s]))):
                raise InvalidCocycle(f"cocycle fails at pair ({a}, {s})")

    # -- element arithmetic -------------------------------------------------
    def element(self, point: IntegerMatrix, translation) -> AffineElement:
        el = AffineElement(point, translation)
        if not self.contains(el):
            raise ElementNotInGroup("translation is not congruent to the vector system")
        return el

    def contains(self, el: AffineElement) -> bool:
        if el.point_part not in self.point_group:
            return False
        idx = self.point_group.index_of(el.point_part)
        return _is_integral(_vec_sub(el.translation, self.vector_system[idx]))

    def multiply(self, e1: AffineElement, e2: AffineElement) -> AffineElement:
        for el in (e1, e2):
            if not self.contains(el):
                raise ElementNotInGroup(repr(el))
        return e1 * e2

    def identity(self) -> AffineElement:
        return AffineElement(
            IntegerMatrix.identity(self.dimension), (Fraction(0),) * self.dimension
        )


def semidirect_product(point: FiniteMatrixGroup, name=None) -> CrystallographicGroup:
    """T x| G with zero vector system; symmorphic by construction."""
    return CrystallographicGroup(point, name=name)


def is_symmorphic(g: CrystallographicGroup):
    """Decide whether the vector system is a coboundary tau(a) = s - a.s
    (mod Z^d); return (flag, witness shift).

    Exact decision: stacking the integer matrices (I - a) over the
    point-group elements gives an integer system A s = t (mod Z); in Smith
    normal form the solvability conditions are integrality of the
    transformed right-hand side on the zero rows, and a rational witness
    falls out of the nonzero rows.  No denominator search is needed.
    """
    g.check_cocycle()
    d = g.dimension
    pg = g.point_group
    ident = IntegerMatrix.identity(d)
    rows = []
    rhs = []
    for i in range(pg.order):
        a = pg.elements[i]
        block = [
            [ident[(r, c)] - a[(r, c)] for c in range(d)] for r in range(d)
        ]
        rows.extend(block)
        rhs.extend(g.vector_system[i])
    amat = IntegerMatrix(rows)
    diag, u, v = smith_normal_form(amat)
    # U applied to the right-hand side scaled to integers: t = tb / den
    den = lcm(*(t.denominator for t in rhs))
    tb = u.apply(tuple(t.numerator * (den // t.denominator) for t in rhs))
    y = [Fraction(0)] * amat.cols
    for i in range(amat.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if tb[i] % den:
                return False, None
        else:
            if i < amat.cols:
                y[i] = Fraction(tb[i], di * den)
    witness = tuple(v.apply(tuple(y)))
    # verify exactly
    for i in range(pg.order):
        a = pg.elements[i]
        delta = _vec_sub(witness, a.apply(witness))
        if not _is_integral(_vec_sub(delta, g.vector_system[i])):
            return False, None
    return True, witness


def commuting_involutions_check(generators) -> bool:
    """True iff all listed order-two generator matrices pairwise commute.

    A failure means the amalgamated-product obstruction applies: the group
    cannot sit inside a 3-dimensional crystallographic group.
    """
    mats = list(generators)
    for m in mats:
        ident = IntegerMatrix.identity(m.rows)
        if m == ident or (m * m) != ident:
            raise NotOrderTwo(f"generator {m!r} does not have order two")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                return False
    return True


# ---------------------------------------------------------------------------
# published tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceGroupRow:
    syngony: str
    classes: tuple  # ((point group name, count), ...)
    bravais: tuple  # ((count, centering letter), ...)

    @property
    def class_total(self):
        return sum(c for _, c in self.classes)

    @property
    def bravais_total(self):
        return sum(c for c, _ in self.bravais)


@lru_cache(maxsize=1)
def spacegroup_table() -> list[SpaceGroupRow]:
    rows = [
        SpaceGroupRow(
            syngony,
            tuple((name, int(count)) for kind, name, count in body if kind == "class"),
            tuple((int(count), letter) for kind, count, letter in body if kind == "bravais"),
        )
        for (syngony,), body in load_blocks("appendix_a.dat", "syngony")
    ]
    assert len(rows) == 7
    return rows


def spacegroup_table_query(filter_key: str) -> list[SpaceGroupRow]:
    """Rows of the 3-dimensional space-group summary table.

    ``filter_key`` is a syngony name, a point-group (geometric class) name,
    or "all".
    """
    rows = spacegroup_table()
    if filter_key.lower() == "all":
        return rows
    by_syngony = [r for r in rows if r.syngony.lower() == filter_key.lower()]
    if by_syngony:
        return by_syngony
    key = SCHOENFLIES.get(filter_key, filter_key)  # accept international names
    candidates = {key, filter_key}
    if key == "C_s":
        candidates.add("C_1h")  # the printed table uses the alias
    by_class = [
        r for r in rows if any(name in candidates for name, _ in r.classes)
    ]
    if by_class:
        return by_class
    raise UnknownFilter(filter_key)


@dataclass(frozen=True)
class WallpaperRecord:
    name: str
    syngony: str
    point_group_label: str  # as printed in the published table


@lru_cache(maxsize=1)
def wallpaper_table() -> list[WallpaperRecord]:
    rows = [
        WallpaperRecord(name, syngony, label)
        for (name, syngony, label), _ in load_blocks("appendix_a.dat", "wallpaper-row")
    ]
    assert len(rows) == 17
    return rows


@lru_cache(maxsize=1)
def wallpaper_groups() -> dict[str, CrystallographicGroup]:
    """The 17 plane space groups with explicit vector systems."""
    out = {}
    for (name,), body in load_blocks("wallpaper17.dat", "wallpaper"):
        gens = [(parse_matrix(mat), [Fraction(tok) for tok in tau.split(",")])
                for _, mat, _, tau in body]
        if gens:
            out[name] = CrystallographicGroup.from_generator_system(gens, name=name)
        else:
            trivial = close_group([IntegerMatrix.identity(2)])
            out[name] = CrystallographicGroup(trivial, name=name)
    assert len(out) == 17
    return out


def wallpaper_info(name: str):
    table = {r.name: r for r in wallpaper_table()}
    if name not in table:
        raise UnknownWallpaperGroup(name)
    rec = table[name]
    return {
        "name": rec.name,
        "syngony": rec.syngony,
        "point_group": rec.point_group_label,
        "group": wallpaper_groups()[name],
    }


@lru_cache(maxsize=1)
def appendix_d_tables() -> dict[str, list[tuple[str, int | None]]]:
    return {
        name: [(sub, None if idx == "-" else int(idx)) for _, sub, idx in body]
        for (name,), body in load_blocks("appendix_d.dat", "table")
    }


def wallpaper_subgroups(name: str) -> list[tuple[str, int | None]]:
    """As-published subgroup rows for a wallpaper group; blank indices are
    preserved as None, unpublished tables give an empty list."""
    if name not in {r.name for r in wallpaper_table()}:
        raise UnknownWallpaperGroup(name)
    return list(appendix_d_tables().get(name, []))


@dataclass(frozen=True)
class AmalgamatedProduct:
    label: str
    generators: tuple  # ((token, IntegerMatrix), ...)

    def order_two_generators(self):
        ident = IntegerMatrix.identity(3)
        return [m for _, m in self.generators if m != ident and m * m == ident]


@lru_cache(maxsize=1)
def appendix_c_products() -> list[AmalgamatedProduct]:
    out = [
        AmalgamatedProduct(label, tuple((token, parse_matrix(mat)) for _, token, mat in body))
        for (label,), body in load_blocks("appendix_c.dat", "product")
    ]
    assert len(out) == 8
    return out

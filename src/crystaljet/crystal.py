"""Crystallographic groups as lattice extensions: exact affine arithmetic,
symmorphism testing, and the published reference tables for point groups,
space-group counts, wallpaper groups and amalgamated free products.

A group is stored in cocycle normal form: a finite point group of integer
matrices plus a vector system assigning each point-group element a rational
translation mod Z^d.  Elements are pairs (a, u) with the product
(a, u)(b, v) = (ab, u + a.v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .abelian import IntegerMatrix, smith_normal_form
from .data import load_lines
from .groups import FiniteMatrixGroup, close_group, parse_matrix


class DimensionMismatch(ValueError):
    pass


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

    def is_translation(self) -> bool:
        return self.point_part == IntegerMatrix.identity(self.point_part.rows)


class CrystallographicGroup:
    """Space group in cocycle normal form.

    ``vector_system`` maps each point-group element index to its fractional
    translation, reduced mod Z^d.  The stored system must satisfy the
    cocycle condition tau(ab) = tau(a) + a.tau(b) (mod Z^d).
    """

    def __init__(self, dimension, point_group: FiniteMatrixGroup, vector_system=None,
                 name=None, check=True):
        if point_group.dimension != dimension:
            raise DimensionMismatch(
                f"point group acts on Z^{point_group.dimension}, lattice is Z^{dimension}"
            )
        self.dimension = dimension
        self.point_group = point_group
        if vector_system is None:
            vector_system = {i: (Fraction(0),) * dimension for i in range(point_group.order)}
        else:
            vector_system = {i: _mod1(_frac_vec(v)) for i, v in vector_system.items()}
        self.vector_system = vector_system
        self.name = name
        if check:
            self.check_cocycle()

    @classmethod
    def from_generator_system(cls, gens_with_tau, name=None):
        """Build the group from point generators and their translations,
        extending the vector system over the whole point group."""
        gens = [g for g, _ in gens_with_tau]
        point = close_group(gens)
        d = point.dimension
        tau = {point.identity_index: (Fraction(0),) * d}
        gen_tau = {point.index_of(g): _frac_vec(t) for g, t in gens_with_tau}
        frontier = [point.identity_index]
        while frontier:
            nxt = []
            for a in frontier:
                for gi, tg in gen_tau.items():
                    ab = point.cayley[a][gi]
                    val = _mod1(_vec_add(tau[a], point.elements[a].apply(tg)))
                    if ab not in tau:
                        tau[ab] = val
                        nxt.append(ab)
                    elif tau[ab] != val:
                        raise InvalidCocycle(
                            f"generator translations are inconsistent at element {ab}"
                        )
            frontier = nxt
        return cls(d, point, tau, name=name)

    # -- structural checks ------------------------------------------------
    def check_cocycle(self):
        tau = self.vector_system
        g = self.point_group
        e = g.identity_index
        if any(x != 0 for x in tau[e]):
            raise InvalidCocycle("tau(identity) must vanish")
        for a in range(g.order):
            for b in range(g.order):
                ab = g.cayley[a][b]
                want = _mod1(_vec_add(tau[a], g.elements[a].apply(tau[b])))
                if tau[ab] != want:
                    raise InvalidCocycle(f"cocycle fails at pair ({a}, {b})")

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


def semidirect_product(lattice_rank: int, point: FiniteMatrixGroup,
                       name=None) -> CrystallographicGroup:
    """T x| G with zero vector system; symmorphic by construction."""
    return CrystallographicGroup(lattice_rank, point, None, name=name)


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
    tb = u.apply(tuple(rhs))
    y = [Fraction(0)] * amat.cols
    for i in range(amat.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if Fraction(tb[i]).denominator != 1:
                return False, None
        else:
            if i < amat.cols:
                y[i] = Fraction(tb[i], di)
    witness = tuple(v.apply(tuple(y)))
    # verify exactly
    for i in range(pg.order):
        a = pg.elements[i]
        delta = _vec_sub(witness, a.apply(witness))
        if not _is_integral(_vec_sub(delta, g.vector_system[i])):
            return False, None
    return True, witness


def translation_fix_check(f: AffineElement, x: AffineElement) -> bool:
    """Product comparison f.x == x.f, asserted equivalent to b(v) = v."""
    b = f.point_part
    if any(t != 0 for t in f.translation):
        raise ValueError("f must be a pure point operation (b, 0)")
    if not x.is_translation():
        raise ValueError("x must be a pure translation (1, v)")
    v = x.translation
    commutes = (f * x) == (x * f)
    fixes = tuple(b.apply(v)) == tuple(v)
    assert commutes == fixes, "commutation must be equivalent to b(v) = v"
    return commutes


def commuting_involutions_check(generators) -> bool:
    """True iff all listed order-two generators pairwise commute.

    A failure means the amalgamated-product obstruction applies: the group
    cannot sit inside a 3-dimensional crystallographic group.
    """
    mats = []
    for gen in generators:
        m = gen.point_part if isinstance(gen, AffineElement) else gen
        ident = IntegerMatrix.identity(m.rows)
        if m == ident or (m * m) != ident:
            raise NotOrderTwo(f"generator {m!r} does not have order two")
        mats.append(m)
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
    rows = []
    syngony = None
    classes: list = []
    bravais: list = []
    for line in load_lines("appendix_a.dat"):
        if line.startswith("syngony "):
            syngony = line.split(None, 1)[1]
            classes, bravais = [], []
        elif line.startswith("class "):
            _, name, count = line.split()
            classes.append((name, int(count)))
        elif line.startswith("bravais "):
            _, count, letter = line.split()
            bravais.append((int(count), letter))
        elif line == "end" and syngony is not None:
            rows.append(SpaceGroupRow(syngony, tuple(classes), tuple(bravais)))
            syngony = None
    assert len(rows) == 7
    return rows


def spacegroup_table_query(filter_key: str) -> list[SpaceGroupRow]:
    """Rows of the 3-dimensional space-group summary table.

    ``filter_key`` is a syngony name, a point-group (geometric class) name,
    or "all".
    """
    from .groups import SCHOENFLIES

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
    rows = []
    for line in load_lines("appendix_a.dat"):
        if line.startswith("wallpaper-row "):
            _, name, syngony, label = line.split()
            rows.append(WallpaperRecord(name, syngony, label))
    assert len(rows) == 17
    return rows


@lru_cache(maxsize=1)
def wallpaper_groups() -> dict[str, CrystallographicGroup]:
    """The 17 plane space groups with explicit vector systems."""
    out = {}
    name = None
    gens: list = []
    for line in load_lines("wallpaper17.dat"):
        if line.startswith("wallpaper "):
            name = line.split()[1]
            gens = []
        elif line.startswith("gen "):
            mat_text, tau_text = line[4:].split(" tau ")
            tau = [Fraction(tok) for tok in tau_text.split(",")]
            gens.append((parse_matrix(mat_text), tau))
        elif line == "end":
            if gens:
                out[name] = CrystallographicGroup.from_generator_system(gens, name=name)
            else:
                trivial = close_group([IntegerMatrix.identity(2)])
                out[name] = CrystallographicGroup(2, trivial, None, name=name)
            name = None
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
    tables: dict[str, list] = {}
    current = None
    for line in load_lines("appendix_d.dat"):
        if line.startswith("table "):
            current = line.split()[1]
            tables[current] = []
        elif line.startswith("row "):
            _, sub, idx = line.split()
            tables[current].append((sub, None if idx == "-" else int(idx)))
        elif line == "end":
            current = None
    return tables


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
    out = []
    label = None
    gens: list = []
    for line in load_lines("appendix_c.dat"):
        if line.startswith("product "):
            label = line.split(None, 1)[1]
            gens = []
        elif line.startswith("gen "):
            _, token, mat = line.split(None, 2)
            gens.append((token, parse_matrix(mat)))
        elif line == "end":
            out.append(AmalgamatedProduct(label, tuple(gens)))
            label = None
    assert len(out) == 8
    return out

"""Exact integer linear algebra and canonical forms of finitely generated
abelian groups.

Everything here works over arbitrary-precision integers; no floats, no
rounding.  Two normal forms do the work.  The Smith normal form gives the
invariant factors of a cokernel (`group_from_relations`) and the unimodular
U and V that `crystal.is_symmorphic` reads.  Every lattice operation runs on
one in-place Hermite echelon (`_echelon`): lattice bases, kernels, integer
solves, coordinates in a lattice basis and inverses of unimodular matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod


class NotZ2VectorSpace(ValueError):
    pass


class InfiniteGroup(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


class IntegerMatrix:
    """Immutable rectangular matrix with python-int entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged matrix")
        self.entries = entries

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            if i < rows and i < cols:
                m[i][i] = d
        return cls(m)

    def __eq__(self, other):
        return isinstance(other, IntegerMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntegerMatrix({list(map(list, self.entries))})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(row[j] for row in self.entries)

    def transpose(self):
        return IntegerMatrix(list(zip(*self.entries))) if self.rows else IntegerMatrix([])

    def __mul__(self, other):
        if isinstance(other, IntegerMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = list(zip(*other.entries))
            return IntegerMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
            )
        return NotImplemented

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntegerMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return IntegerMatrix([[-a for a in row] for row in self.entries])

    def apply(self, vector):
        """Matrix times column vector (any scalar type supporting * and +)."""
        if len(vector) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * v for a, v in zip(row, vector)) for row in self.entries)

    def determinant(self):
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_invertible_over_z(self):
        return self.rows == self.cols and self.determinant() in (1, -1)

    def inverse_unimodular(self):
        """Inverse of a matrix with determinant +-1 (exact, integral): the
        Hermite form of a unimodular A is I, so that of [A | I] is [I | A^-1]."""
        det = self.determinant()
        if det not in (1, -1):
            raise ValueError("matrix is not invertible over the integers")
        n = self.rows
        rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.entries)]
        _echelon(rows, n)
        return IntegerMatrix([row[n:] for row in rows])


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(m: IntegerMatrix):
    """Return (d, U, V) with U*m*V diagonal, d the diagonal, d_i | d_{i+1},
    and det U, det V in {+1, -1}.

    gcd-pivot elimination; at each step the smallest-magnitude nonzero entry
    of the remaining block is moved to the pivot, which keeps coefficient
    growth tame at the sizes this package needs.
    """
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def sym_quotient(x, pivot):
        # quotient with remainder in (-pivot/2, pivot/2]: geometric shrink
        q, r = divmod(x, pivot)
        if 2 * r > pivot:
            q += 1
        return q

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if abs(x) == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        # clear row and column t; any nonzero remainder becomes the new,
        # strictly smaller pivot and clearing restarts
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            pivot = a[t][t]
            swapped = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = sym_quotient(a[i][t], pivot)
                    if q:
                        row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = sym_quotient(a[t][j], pivot)
                    if q:
                        col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        swapped = True
                        break
            if not swapped:
                break
        t += 1

    # enforce the divisibility chain d_i | d_{i+1} by 2x2 recombination
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if x != 0 and y % x != 0:
                col_op(i, i + 1, -1)  # block becomes [[x, 0], [y, y]]
                while a[i + 1][i] != 0:
                    q = a[i][i] // a[i + 1][i]
                    row_op(i, i + 1, q)
                    swap_rows(i, i + 1)
                # row i is (g, c) with g = gcd(x, y) up to sign and g | c
                if a[i][i + 1] != 0:
                    col_op(i + 1, i, a[i][i + 1] // a[i][i])
                for r in (i, i + 1):
                    if a[r][r] < 0:
                        a[r] = [-e for e in a[r]]
                        u[r] = [-e for e in u[r]]
                g = gcd(x, y)
                assert a[i][i] == g and a[i + 1][i + 1] == x * y // g
                changed = True

    d = [a[i][i] for i in range(limit)]
    return d, IntegerMatrix(u), IntegerMatrix(v)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def _echelon(rows, width: int) -> list[int]:
    """Bring `rows` to Hermite normal form on their first `width` columns by
    unimodular row operations, in place, and return the pivot columns.

    Each pivot is positive, the entries below it are zero and the entries
    above it lie in [0, pivot); the rows after the last pivot row are zero
    on the first `width` columns.  Columns past `width` take part in every
    row operation, so a block [A | I] comes out as [U*A | U].
    """
    pivots = []
    n = len(rows)
    for c in range(width):
        r = len(pivots)
        below = [i for i in range(r, n) if rows[i][c]]
        if not below:
            continue
        # Euclid down the column: every other row drops below the smallest
        while len(below) > 1:
            best = min(below, key=lambda i: abs(rows[i][c]))
            prow = rows[best]
            p = prow[c]
            for i in below:
                if i != best:
                    q = rows[i][c] // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
            below = [i for i in below if rows[i][c]]
        i = below[0]
        prow = rows[i] if rows[i][c] > 0 else [-x for x in rows[i]]
        rows[i] = rows[r]
        rows[r] = prow
        p = prow[c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
    return pivots


def _echelon_of_transpose(m: IntegerMatrix):
    """(rows, width, rank) for the Hermite form of [m^T | I] on the m^T
    block; the identity block of each row records how it was formed."""
    width = m.rows
    rows = [list(col) + [0] * m.cols for col in zip(*m.entries)]
    for j, row in enumerate(rows):
        row[width + j] = 1
    return rows, width, len(_echelon(rows, width))


def kernel_basis(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : m*x = 0}, as column vectors.

    The rows of U*[m^T | I] whose m^T part vanishes carry rows u of the
    unimodular U with u*m^T = 0, so they span the kernel and it is saturated.
    """
    rows, width, rank = _echelon_of_transpose(m)
    return [tuple(row[width:]) for row in rows[rank:]]


def lattice_coordinates(basis, v) -> list[int] | None:
    """y with v = sum_k y_k * basis[k], or None when v is off the lattice.

    `basis` is echelon rows with positive pivots (as `lattice_from_generators`
    returns them); the coordinates follow by substitution along the pivots.
    Rows longer than v are read on v's columns only.
    """
    v = list(v)
    y = []
    c = 0
    for row in basis:
        while not row[c]:
            c += 1
        q, rem = divmod(v[c], row[c])
        if rem:
            return None
        if q:
            v = [x - q * w for x, w in zip(v, row)]
        y.append(q)
        c += 1
    return None if any(v) else y


def solve_integer(m: IntegerMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of m*x = b, or None.

    With U*m^T = H in Hermite form, b = H^T*y gives x = U^T*y.
    """
    b = tuple(b)
    if len(b) != m.rows:
        raise ValueError("shape mismatch")
    rows, width, rank = _echelon_of_transpose(m)
    y = lattice_coordinates(rows[:rank], b)
    if y is None:
        return None
    x = [0] * m.cols
    for q, row in zip(y, rows):
        if q:
            x = [a + q * u for a, u in zip(x, row[width:])]
    return tuple(x)


# ---------------------------------------------------------------------------
# finitely generated abelian groups in canonical form
# ---------------------------------------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Recombine arbitrary cyclic orders (each >= 2) into a divisor chain."""
    primary: dict[int, list[int]] = {}
    for n in cyclic_orders:
        for p, e in _factorize(n).items():
            primary.setdefault(p, []).append(e)
    depth = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        factors.append(f)
    # factors currently in decreasing divisibility; canonical order is
    # increasing (d_i | d_{i+1})
    return tuple(sorted(factors))


@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form of a finitely generated abelian group.

    Equality is isomorphism: the invariant factors form a divisor chain, so
    structural equality decides the isomorphism class.
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        facs = tuple(int(d) for d in self.invariant_factors)
        if any(d < 2 for d in facs):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"not a divisibility chain: {facs}")
        object.__setattr__(self, "invariant_factors", facs)

    # -- constructors -------------------------------------------------
    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def free(cls, r):
        return cls(r, ())

    @classmethod
    def cyclic(cls, n):
        n = abs(int(n))
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @classmethod
    def z2_power(cls, s):
        return cls(0, (2,) * s)

    @classmethod
    def from_cyclic_orders(cls, free_rank, orders):
        return cls(free_rank, _invariant_factors(o for o in orders if o > 1))

    # -- basic structure ----------------------------------------------
    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite():
            raise InfiniteGroup("group has positive free rank")
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def is_elementary_2(self):
        return self.free_rank == 0 and all(d == 2 for d in self.invariant_factors)

    def exponent_two_rank(self):
        if not self.is_elementary_2():
            raise NotZ2VectorSpace(f"{self} is not a Z_2 vector space")
        return len(self.invariant_factors)

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "FgAbelianGroup":
        text = text.strip()
        if text == "0":
            return cls.trivial()
        free = 0
        orders = []
        for part in text.split("x"):
            part = part.strip()
            if part == "Z":
                free += 1
            elif part.startswith("Z^"):
                free += int(part[2:])
            elif part.startswith("Z/"):
                orders.append(int(part[2:]))
            elif part.startswith("Z_"):
                orders.append(int(part[2:]))
            else:
                raise ValueError(f"cannot parse group summand {part!r}")
        return cls.from_cyclic_orders(free, orders)


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    free = sum(g.free_rank for g in groups)
    orders = [d for g in groups for d in g.invariant_factors]
    return FgAbelianGroup.from_cyclic_orders(free, orders)


def group_from_relations(generators: int, relations: IntegerMatrix) -> FgAbelianGroup:
    """Cokernel Z^generators / (row space of relations), canonical form."""
    if relations.rows and relations.cols != generators:
        raise ValueError("relation matrix must have `generators` columns")
    if relations.rows == 0:
        return FgAbelianGroup.free(generators)
    d, _, _ = smith_normal_form(relations)
    rank = sum(1 for x in d if x != 0)
    torsion = [x for x in d if x not in (0, 1)]
    return FgAbelianGroup.from_cyclic_orders(generators - rank, torsion)


def tensor_over_z2(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product over Z_2 of two elementary abelian 2-groups."""
    ra = a.exponent_two_rank()
    rb = b.exponent_two_rank()
    return FgAbelianGroup.z2_power(ra * rb)


def hom_group(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Hom(a, b) for finite a.  Hom(finite, Z^d) = 0 is returned, not an
    error; a genuinely infinite source raises."""
    if a.free_rank > 0:
        raise InfiniteGroup("hom source must be finite")
    orders = []
    for da in a.invariant_factors:
        for db in b.invariant_factors:
            g = gcd(da, db)
            if g > 1:
                orders.append(g)
        # Hom(Z/da, Z^r) = 0: free part of b contributes nothing
    return FgAbelianGroup.from_cyclic_orders(0, orders)


def tensor_product(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product over Z of arbitrary finitely generated groups."""
    orders = []
    free = a.free_rank * b.free_rank
    for da in a.invariant_factors:
        for db in b.invariant_factors:
            g = gcd(da, db)
            if g > 1:
                orders.append(g)
    orders.extend(list(a.invariant_factors) * b.free_rank)
    orders.extend(list(b.invariant_factors) * a.free_rank)
    return FgAbelianGroup.from_cyclic_orders(free, orders)


def tor_product(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tor_1^Z(a, b); vanishes on free parts, Tor(Z/a, Z/b) = Z/gcd."""
    orders = []
    for da in a.invariant_factors:
        for db in b.invariant_factors:
            g = gcd(da, db)
            if g > 1:
                orders.append(g)
    return FgAbelianGroup.from_cyclic_orders(0, orders)


# ---------------------------------------------------------------------------
# lattices in Hermite form (used by the cohomology machinery)
# ---------------------------------------------------------------------------


def lattice_from_generators(vectors, ambient: int) -> list[tuple[int, ...]]:
    """Basis of the lattice spanned by `vectors` inside Z^ambient: the
    nonzero rows of their Hermite normal form."""
    rows = [list(v) for v in vectors if any(v)]
    rank = len(_echelon(rows, ambient))
    return [tuple(row) for row in rows[:rank]]


def quotient_group(sub_generators, sup_generators, ambient: int) -> FgAbelianGroup:
    """Canonical form of (lattice generated by sup) / (lattice generated by sub).

    Both generator lists live in Z^ambient and sub must be contained in sup.
    """
    sup_basis = lattice_from_generators(sup_generators, ambient)
    if not sup_basis:
        return FgAbelianGroup.trivial()
    coords = []
    for g in sub_generators:
        if not any(g):
            continue
        x = lattice_coordinates(sup_basis, g)
        if x is None:
            raise ValueError("sub lattice not contained in sup lattice")
        coords.append(x)
    if not coords:
        return FgAbelianGroup.free(len(sup_basis))
    return group_from_relations(len(sup_basis), IntegerMatrix(coords))

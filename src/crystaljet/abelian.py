"""Exact integer linear algebra and canonical forms of finitely generated
abelian groups.

Everything here works over arbitrary-precision integers; no floats, no
rounding.  One in-place echelon (`_echelon`) does the lattice elimination:
lattice bases, kernels, integer solves, coordinates in a lattice basis,
and the Smith normal form, which alternates row and column echelons until
the matrix is diagonal with its entries on a divisor chain.  Every lattice
vector is sparse, {index: value} with no zero entries, so a row update
costs the entries it touches rather than the width; the lattice functions
take and give only that form, and `IntegerMatrix`, which
`smith_normal_form` and `solve_integer` read, is the one dense edge.
Clearing the entries above a pivot only rewrites the rows above it, so
the rows past the rank (a kernel) and the pivots of the rest (all that
membership reads) are the same without it; kernels skip it, and
everything that reads a Hermite basis or the unimodular factors keeps it.
A lattice basis is a pivot table, {pivot column: echelon row}, in Hermite
form from `lattice_from_generators`; a span that grows one vector at a
time keeps one, into which `_join` adds each vector by reduction along
the pivots and a Euclid step where it meets one, and along which
`_reduce` tests membership.  The Smith form gives the
invariant factors of a cokernel (`group_from_relations`), those of a list
of cyclic orders (the Smith form of their diagonal matrix,
`FgAbelianGroup.from_cyclic_orders`), and the unimodular U and V that
`crystal.is_symmorphic` reads.  One torsion pairing, Z/m with Z/n to
Z/gcd(m, n) (`tor_product`), gives Tor and the torsion part of the tensor
product.

One fraction-free elimination (`bareiss`) gives determinants and the
inverses of unimodular matrices here, and solves the jet layer's
sample-point stages.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod


class InfiniteGroup(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


class IntegerMatrix:
    """Immutable rectangular matrix with python-int entries; an entry that
    is not an integer (a Fraction or a float) is refused with TypeError.

    `cols` gives the width of a matrix with no rows; otherwise it defaults
    to the length of the first row."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        # each tuple from a list, which CPython takes from its free list of
        # that length; a tuple of a map or a generator is grown from a guess
        # and never does, so the free lists would only ever fill
        entries = tuple([tuple(list(map(operator.index, row))) for row in entries])
        self.rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        self.cols = cols
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag):
        n = len(diag)
        return cls([[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)], n)

    def __eq__(self, other):
        return isinstance(other, IntegerMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntegerMatrix({list(map(list, self.entries))})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple([row[j] for row in self.entries])

    def transpose(self):
        return IntegerMatrix(zip(*self.entries) if self.rows else [()] * self.cols, self.rows)

    def __mul__(self, other):
        if isinstance(other, IntegerMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = list(zip(*other.entries))
            return IntegerMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries],
                other.cols,
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
        return tuple([sum(a * v for a, v in zip(row, vector)) for row in self.entries])

    def determinant(self):
        """Exact determinant, sign * d from `bareiss`."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        solved = bareiss([list(row) for row in self.entries], self.rows)
        return 0 if solved is None else solved[0] * solved[1]

    def is_invertible_over_z(self):
        return self.rows == self.cols and self.determinant() in (1, -1)

    def inverse_unimodular(self):
        """Inverse of a matrix with determinant +-1 (exact, integral): one
        `bareiss` pass on [A | I] leaves d * A^-1 after column n, d = +-1."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.entries)]
        solved = bareiss(rows, n)
        if solved is None or solved[1] not in (1, -1):
            raise ValueError("matrix is not invertible over the integers")
        return IntegerMatrix([[solved[1] * x for x in row[n:]] for row in rows], n)


def bareiss(rows, k):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the first k
    columns of k rows, in place; the columns after k ride along.  Every
    entry stays an integer minor of the input, up to sign, so each division
    by the previous pivot is exact and an entry is zero exactly where
    elimination over Q has a zero.  None when the k x k block is singular;
    otherwise (sign, d): d is the last pivot, the block ends as d times the
    identity and the columns after k as d times the solution, and sign * d,
    with the sign flipped at each row swap, is the determinant."""
    sign, d = 1, 1
    for col in range(k):
        if not rows[col][col]:
            piv = next((r for r in range(col + 1, k) if rows[r][col]), None)
            if piv is None:
                return None
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col]
        p = top[col]
        for r, row in enumerate(rows):
            if r != col:
                f = row[col]
                for j in range(col + 1, len(row)):
                    row[j] = (p * row[j] - f * top[j]) // d
                row[col] = 0
        d = p
    for i in range(k):
        rows[i][i] = d
    return sign, d


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(m: IntegerMatrix):
    """Return (d, U, V) with U*m*V diagonal, d the diagonal, d_i | d_{i+1},
    and det U, det V in {+1, -1}.

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan-Bachem 1979; Cohen, Sec. 2.4.4): `_echelon` reduces [A | U] by
    rows, then [A^T | V^T], which applies the column operations.  Where d_i
    is the first entry not dividing every later one, the rows of [A | U]
    below row i are added to it and the passes go on: d_0..d_{i-1} divide
    every entry from (i, i) on and stay, and d_i becomes the gcd of those
    entries, which stays too, so each i takes one such step at most.
    """
    rows, cols = m.rows, m.cols
    a = [{**_sparse(row), cols + i: 1} for i, row in enumerate(m.entries)]
    vt = [{j: 1} for j in range(cols)]
    while True:
        _echelon(a, cols)
        if all(j == i or j >= cols for i, row in enumerate(a) for j in row):
            i = next((i for i, j in combinations(range(min(rows, cols)), 2)
                      if gcd(a[i].get(i, 0), a[j].get(j, 0)) != a[i].get(i, 0)), None)
            if i is None:
                break
            for row in a[i + 1:]:
                _subtract(a[i], -1, row)
        at = [{rows + k: x for k, x in row.items()} for row in vt]
        for i, row in enumerate(a):
            for j, x in row.items():
                if j < cols:
                    at[j][i] = x
        _echelon(at, rows)
        a = [{j: x for j, x in row.items() if j >= cols} for row in a]
        vt = [{} for _ in range(cols)]
        for j, row in enumerate(at):
            for i, x in row.items():
                if i < rows:
                    a[i][j] = x
                else:
                    vt[j][i - rows] = x
    d = [a[i].get(i, 0) for i in range(min(rows, cols))]
    return (d, IntegerMatrix([_dense(row, rows, cols) for row in a]),
            IntegerMatrix([[v.get(i, 0) for v in vt] for i in range(cols)]))


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def _sparse(v) -> dict:
    """The nonzero entries of a sequence, as {index: value}."""
    return {j: x for j, x in enumerate(v) if x}


def _dense(row: dict, length: int, start: int = 0) -> tuple[int, ...]:
    """Entries start .. start + length - 1 of a sparse row, as a tuple."""
    out = [0] * length
    for j, x in row.items():
        if start <= j < start + length:
            out[j - start] = x
    return tuple(out)


def _subtract(row: dict, q: int, other: dict):
    """row -= q * other in place for q != 0, dropping the entries that cancel."""
    for j, y in other.items():
        x = row.get(j, 0) - q * y
        if x:
            row[j] = x
        else:
            del row[j]


def _echelon(rows, width: int, clear: bool = True) -> list[int]:
    """Bring the sparse rows {column: value} to echelon form on their first
    `width` columns by unimodular row operations, in place, and return the
    pivot columns.

    Each pivot is positive and the entries below it are zero; the rows
    after the last pivot row are zero on the first `width` columns.  With
    `clear`, the entries above each pivot are reduced into [0, pivot) as
    well, which gives the Hermite normal form.  Columns past `width` take
    part in every row operation, so a block [A | I] comes out as [U*A | U].

    A pivot is taken at the first row of least |entry| below the pivot
    rows, and the rows below it are reduced by Euclid quotients; clearing
    only ever changes rows above the current pivot.  So the pivot columns,
    the pivot values and every row from the rank on are the same with and
    without `clear`, and the pivot rows span the same lattice: a kernel read
    from the rows past the rank, or a membership test by substitution along
    the pivots, does not depend on it.
    """
    pivots = []
    n = len(rows)
    for c in range(width):
        r = len(pivots)
        below = [i for i in range(r, n) if c in rows[i]]
        if not below:
            continue
        # Euclid down the column: every other row drops below the smallest
        while len(below) > 1:
            best = min(below, key=lambda i: abs(rows[i][c]))
            prow = rows[best]
            p = prow[c]
            for i in below:
                if i != best:
                    _subtract(rows[i], rows[i][c] // p, prow)
            below = [i for i in below if c in rows[i]]
        i = below[0]
        prow = rows[i] if rows[i][c] > 0 else {j: -x for j, x in rows[i].items()}
        rows[i] = rows[r]
        rows[r] = prow
        if clear:
            p = prow[c]
            for i in range(r):
                q = rows[i].get(c, 0) // p
                if q:
                    _subtract(rows[i], q, prow)
        pivots.append(c)
    return pivots


def _reduce(pivots: dict, v: dict) -> dict:
    """Reduce the sparse vector v along the echelon rows `pivots` {pivot
    column: row}, in place, by floor quotients at its leading column until
    that column has no pivot or an entry the pivot does not divide, and
    return what is left: empty exactly when v lies in the rows' lattice."""
    while v:
        c = min(v)
        row = pivots.get(c)
        if row is None:
            break
        q = v[c] // row[c]
        if q:
            _subtract(v, q, row)
        if c in v:
            break
    return v


def _join(pivots: dict, v: dict) -> int:
    """Join the sparse vector v to the lattice of the echelon rows `pivots`
    {pivot column: row}, in place, and return by how much the number of
    pivots other than 1 grew.  What `_reduce` leaves of v takes its leading
    column, with a positive entry; the pivot row it displaces goes on down
    in its place, so two rows that meet at a column run Euclid's algorithm."""
    grew = 0
    while v := _reduce(pivots, v):
        c = min(v)
        if v[c] < 0:
            v = {j: -x for j, x in v.items()}
        old = pivots.get(c, {})
        grew += (v[c] != 1) - (old.get(c, 1) != 1)
        pivots[c], v = v, old
    return grew


def kernel_basis(columns) -> list[dict]:
    """Basis of the integer relations {x : sum_j x_j * columns[j] = 0} among
    the sparse columns {row: value}, as sparse vectors {j: x_j}.

    With A the matrix of these columns, the echelon form of the rows
    [column_j | e_j] is U*[A^T | I]; its rows whose A^T part vanishes carry
    rows u of the unimodular U with u*A^T = 0, so they span the kernel of A
    and it is saturated.  Those rows do not depend on clearing above the
    pivots, so none is done.
    """
    # the e_j block starts past the last nonzero entry of the columns
    height = 1 + max((max(col, default=-1) for col in columns), default=-1)
    rows = [{**col, height + i: 1} for i, col in enumerate(columns)]
    rank = len(_echelon(rows, height, clear=False))
    return [{j - height: x for j, x in row.items()} for row in rows[rank:]]


def lattice_coordinates(basis: dict, v: dict) -> dict | None:
    """y with v = sum_c y[c] * basis[c] as a sparse vector {pivot column:
    y[c]}, or None when v is off the lattice.

    `basis` is a pivot table in increasing pivot order with positive pivots
    (as `lattice_from_generators` returns it); the coordinates follow by
    substitution along the pivots.
    """
    v, y = dict(v), {}
    for c, row in basis.items():
        q, rem = divmod(v.get(c, 0), row[c])
        if rem:
            return None
        if q:
            _subtract(v, q, row)
            y[c] = q
    return None if v else y


def solve_integer(m: IntegerMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of m*x = b, or None.

    With U*m^T = H in Hermite form, b = H^T*y gives x = U^T*y.
    """
    b = tuple(b)
    if len(b) != m.rows:
        raise ValueError("shape mismatch")
    rows = [{**_sparse(col), m.rows + i: 1} for i, col in enumerate(m.transpose().entries)]
    table = dict(zip(_echelon(rows, m.rows), rows))
    y = lattice_coordinates({c: {j: x for j, x in row.items() if j < m.rows}
                             for c, row in table.items()}, _sparse(b))
    if y is None:
        return None
    x = {}
    for c, q in y.items():
        _subtract(x, -q, table[c])
    return _dense(x, m.cols, m.rows)


# ---------------------------------------------------------------------------
# finitely generated abelian groups in canonical form
# ---------------------------------------------------------------------------


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
        facs = tuple([int(d) for d in self.invariant_factors])
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
        """Z^free_rank x the product of Z/o over `orders`; orders <= 1 add
        nothing.  The invariant factors are the Smith form of diag(orders)."""
        d, _, _ = smith_normal_form(IntegerMatrix.diagonal([o for o in orders if o > 1]))
        return cls(free_rank, tuple([x for x in d if x > 1]))

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
        """Read a rendering such as "Z^2 x Z/2 x Z_4"; an error names the
        input and the summand it cannot read."""
        text = text.strip()
        if text == "0":
            return cls.trivial()
        free = 0
        orders = []
        # an x right after ^, / or _ is a bad exponent, not a separator
        for part in re.split(r"(?<![\^/_])x", text):
            part = part.strip()
            if part == "Z":
                free += 1
                continue
            head, number = part[:2], part[2:].strip()
            if head not in ("Z^", "Z/", "Z_") or not number.removeprefix("-").isdecimal():
                raise ValueError(f"{text!r}: cannot parse group summand {part!r}")
            value = int(number)
            if head == "Z^":
                if value < 0:
                    raise ValueError(f"{text!r}: free summand {part!r} needs a rank >= 0")
                free += value
            elif value < 1:
                raise ValueError(f"{text!r}: cyclic summand {part!r} needs an order >= 1")
            else:
                orders.append(value)
        return cls.from_cyclic_orders(free, orders)


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    free = sum(g.free_rank for g in groups)
    orders = [d for g in groups for d in g.invariant_factors]
    return FgAbelianGroup.from_cyclic_orders(free, orders)


def group_from_relations(generators: int, relations: IntegerMatrix) -> FgAbelianGroup:
    """Cokernel Z^generators / (row space of relations), canonical form."""
    if relations.rows and relations.cols != generators:
        raise ValueError("relation matrix must have `generators` columns")
    d, _, _ = smith_normal_form(relations)
    rank = sum(1 for x in d if x)
    return FgAbelianGroup(generators - rank, tuple([x for x in d if x > 1]))


def tensor_product(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product over Z of arbitrary finitely generated groups: the
    torsion parts pair to Tor(a, b), and each free summand of one side
    carries a copy of the other side's torsion."""
    orders = [*tor_product(a, b).invariant_factors,
              *a.invariant_factors * b.free_rank, *b.invariant_factors * a.free_rank]
    return FgAbelianGroup.from_cyclic_orders(a.free_rank * b.free_rank, orders)


def tor_product(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tor_1^Z(a, b); vanishes on free parts, Tor(Z/a, Z/b) = Z/gcd."""
    orders = [gcd(da, db) for da in a.invariant_factors for db in b.invariant_factors]
    return FgAbelianGroup.from_cyclic_orders(0, orders)


# ---------------------------------------------------------------------------
# lattices in Hermite form (used by the cohomology machinery)
# ---------------------------------------------------------------------------


def lattice_from_generators(vectors, ambient: int) -> dict:
    """Hermite basis of the lattice spanned by the sparse `vectors` inside
    Z^ambient, as its pivot table {pivot column: Hermite row}."""
    rows = [dict(v) for v in vectors if v]
    return dict(zip(_echelon(rows, ambient), rows))


def quotient_group(sub_generators, sup_generators, ambient: int) -> FgAbelianGroup:
    """Canonical form of (lattice generated by sup) / (lattice generated by sub).

    Both generator lists are sparse vectors in Z^ambient; a sub generator
    off the sup lattice is refused with ValueError, also when sup is 0.
    The sub generators' coordinates in the sup lattice's Hermite basis are
    the relations, one column per pivot.
    """
    basis = lattice_from_generators(sup_generators, ambient)
    coords = []
    for g in filter(None, sub_generators):
        y = lattice_coordinates(basis, g)
        if y is None:
            raise ValueError("sub lattice not contained in sup lattice")
        coords.append([y.get(c, 0) for c in basis])
    return group_from_relations(len(basis), IntegerMatrix(coords))

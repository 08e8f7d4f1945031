import random
from copy import deepcopy
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystaljet.abelian import (
    FgAbelianGroup,
    InfiniteGroup,
    IntegerMatrix,
    _echelon,
    _join,
    _reduce,
    bareiss,
    direct_sum,
    group_from_relations,
    kernel_basis,
    lattice_coordinates,
    lattice_from_generators,
    quotient_group,
    smith_normal_form,
    solve_integer,
    tensor_product,
    tor_product,
    smith_normal_form as snf,
)


def sparse(v):
    """The nonzero entries of a sequence, as {index: value}."""
    return {j: x for j, x in enumerate(v) if x}


def dense(v, n):
    """Entries 0 .. n - 1 of a sparse vector, as a tuple."""
    return tuple(v.get(j, 0) for j in range(n))


def columns(m):
    """The columns of an IntegerMatrix, as sparse vectors."""
    return [sparse(col) for col in m.transpose().entries]


def check_snf(m):
    d, u, v = smith_normal_form(m)
    assert u.determinant() in (1, -1)
    assert v.determinant() in (1, -1)
    prod = u * m * v
    for i in range(prod.rows):
        for j in range(prod.cols):
            expected = d[i] if i == j and i < len(d) else 0
            assert prod[(i, j)] == expected
    nonzero = [x for x in d if x != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(x >= 0 for x in d)
    return d


def test_integer_matrix_refuses_non_integer_entries():
    assert IntegerMatrix([[True, 0], [-3, 2]]).entries == ((1, 0), (-3, 2))
    for entry in (Fraction(1, 2), Fraction(2), 1.9, 2.0):
        with pytest.raises(TypeError):
            IntegerMatrix([[entry, 1]])


def test_snf_already_diagonal():
    d = check_snf(IntegerMatrix([[2, 0], [0, 2]]))
    assert d == [2, 2]


def test_snf_empty_relations():
    m = IntegerMatrix([], 3)
    assert (m.rows, m.cols) == (0, 3)
    d, u, v = smith_normal_form(m)
    assert d == []
    assert (v.rows, v.cols) == (3, 3)
    assert group_from_relations(3, m) == FgAbelianGroup.free(3)
    # no equations: every vector is in the kernel
    assert kernel_basis(columns(m)) == [{0: 1}, {1: 1}, {2: 1}]


def test_snf_derived_example():
    # oracle: d1 = gcd of all entries = 2, d1*d2 = |det| = |2*8-4*6| = 8
    m = IntegerMatrix([[2, 4], [6, 8]])
    d = check_snf(m)
    assert d == [2, 4]


@pytest.mark.parametrize("diag, expected", [
    ([4, 6], [2, 12]),
    ([2, 3, 5], [1, 1, 30]),
    ([6, 10, 15], [1, 30, 30]),
])
def test_snf_of_a_diagonal_off_the_divisor_chain(diag, expected):
    # diagonal already, so the row and column echelons leave it as it is:
    # only the divisor-chain step can reach the invariant factors
    assert check_snf(IntegerMatrix.diagonal(diag)) == expected


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntegerMatrix(
            [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        )
        check_snf(m)


def test_group_from_relations_examples():
    assert group_from_relations(2, IntegerMatrix([[2, 0], [0, 2]])) == FgAbelianGroup(
        0, (2, 2)
    )
    assert group_from_relations(2, IntegerMatrix([[2, 4], [6, 8]])) == FgAbelianGroup(
        0, (2, 4)
    )


def test_group_from_relations_row_col_invariance():
    rng = random.Random(21)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        base = group_from_relations(cols, IntegerMatrix(m))
        mm = [row[:] for row in m]
        for _ in range(6):
            op = rng.choice(["rswap", "radd", "cswap", "cadd", "rneg"])
            if op == "rswap" and rows > 1:
                i, j = rng.sample(range(rows), 2)
                mm[i], mm[j] = mm[j], mm[i]
            elif op == "radd" and rows > 1:
                i, j = rng.sample(range(rows), 2)
                q = rng.randint(-3, 3)
                mm[i] = [a + q * b for a, b in zip(mm[i], mm[j])]
            elif op == "cswap" and cols > 1:
                i, j = rng.sample(range(cols), 2)
                for row in mm:
                    row[i], row[j] = row[j], row[i]
            elif op == "cadd" and cols > 1:
                i, j = rng.sample(range(cols), 2)
                q = rng.randint(-3, 3)
                for row in mm:
                    row[i] += q * row[j]
            elif op == "rneg":
                i = rng.randrange(rows)
                mm[i] = [-a for a in mm[i]]
        # row ops and column ops that are unimodular preserve the cokernel
        # only for column ops; row ops change the relation set but not the
        # subgroup they generate when invertible, so both are safe here.
        assert group_from_relations(cols, IntegerMatrix(mm)) == base


def test_canonical_form_rejects_bad_chain():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (2, 3))


def test_direct_sum():
    z2 = FgAbelianGroup.cyclic(2)
    z4 = FgAbelianGroup.cyclic(4)
    z = FgAbelianGroup.free(1)
    assert direct_sum(z2, z2) == FgAbelianGroup(0, (2, 2))
    assert direct_sum(z, z2) == FgAbelianGroup(1, (2,))
    # invariant-factor recombination oracle via primary decomposition:
    # Z_2 + Z_4 + Z_2 has 2-primary exponents (2, 1, 1) -> chain (2, 2, 4)
    assert direct_sum(direct_sum(z2, z4), z2) == FgAbelianGroup(0, (2, 2, 4))


def test_direct_sum_commutative_associative_identity():
    rng = random.Random(5)
    pool = [
        FgAbelianGroup.trivial(),
        FgAbelianGroup.free(1),
        FgAbelianGroup.cyclic(2),
        FgAbelianGroup.cyclic(6),
        FgAbelianGroup.cyclic(4),
        FgAbelianGroup(1, (3,)),
    ]
    for _ in range(50):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert direct_sum(a, b) == direct_sum(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
        assert direct_sum(a, FgAbelianGroup.trivial()) == a


def test_order_multiplicative():
    a = FgAbelianGroup(0, (2, 6))
    b = FgAbelianGroup.cyclic(5)
    assert direct_sum(a, b).order() == a.order() * b.order()
    with pytest.raises(InfiniteGroup):
        FgAbelianGroup.free(1).order()


def test_tensor_over_z2():
    # (Z/2)^a (x) (Z/2)^b = (Z/2)^(ab); a factor that is not a Z/2 vector
    # space is a tensor_product input like any other
    z2 = FgAbelianGroup.z2_power
    assert tensor_product(z2(2), z2(1)) == z2(2)
    assert tensor_product(z2(0), z2(3)) == z2(0)
    assert tensor_product(z2(3), z2(2)) == z2(6)
    assert tensor_product(FgAbelianGroup.cyclic(4), z2(1)) == z2(1)


def test_hom_group():
    # Hom(A, B) = Tor(A, B) for finite A: Hom(Z/m, Z/n) = Z/gcd, Hom(Z/m, Z) = 0
    z = FgAbelianGroup.cyclic
    assert tor_product(z(2), z(2)) == z(2)
    assert tor_product(z(4), z(6)) == z(2)  # gcd oracle
    assert tor_product(FgAbelianGroup.z2_power(3), FgAbelianGroup.free(3)).is_trivial()


def test_tensor_and_tor():
    z = FgAbelianGroup.cyclic
    assert tensor_product(z(2), z(3)).is_trivial()
    assert tensor_product(z(0), z(6)) == z(6)
    assert tor_product(z(2), z(3)).is_trivial()
    assert tor_product(z(4), z(6)) == z(2)
    assert tor_product(FgAbelianGroup.free(2), z(6)).is_trivial()


# a group drawn as Z^free x the product of Z/o over its cyclic orders o,
# orders 1 included (a trivial summand); the oracles below read the drawn
# orders, not the invariant factors the library computes from them
cyclic_presentations = st.tuples(st.integers(0, 2), st.lists(st.integers(1, 12), max_size=3))


def presented(case):
    free, orders = case
    return FgAbelianGroup.from_cyclic_orders(free, orders)


def presentation(case):
    """(generators, relation rows): Z/o on a generator of its own, the free
    generators first."""
    free, orders = case
    n = free + len(orders)
    return n, [[o * (j == free + i) for j in range(n)] for i, o in enumerate(orders)]


@settings(max_examples=200, deadline=None)
@given(cyclic_presentations, cyclic_presentations)
def test_tensor_product_is_the_kronecker_presentation(a, b):
    # A (x) B = Z^(m*n) / (R_A (x) I_n + I_m (x) R_B), the cokernel of the
    # Kronecker products of the two relation matrices
    m, ra = presentation(a)
    n, rb = presentation(b)
    rows = [[r[i] * (j == k) for i in range(m) for k in range(n)] for r in ra for j in range(n)]
    rows += [[(i == j) * r[k] for i in range(m) for k in range(n)] for j in range(m) for r in rb]
    want = group_from_relations(m * n, IntegerMatrix(rows, m * n))
    assert tensor_product(presented(a), presented(b)) == want


@settings(max_examples=200, deadline=None)
@given(cyclic_presentations, cyclic_presentations)
def test_hom_and_tor_have_the_order_of_the_torsion_count(a, b):
    # |Hom(sum Z/d, B)| is the product over d of the number of elements x of
    # B with d*x = 0, counted here over the torsion elements of B (a free
    # summand has no torsion); Tor(A, B), which is Hom(A, B) for finite A,
    # has that order
    a = (0, a[1])
    orders = b[1]

    def torsion(d):
        return sum(all(d * x % o == 0 for x, o in zip(xs, orders))
                   for xs in product(*map(range, orders)))

    count = prod(torsion(d) for d in a[1])
    assert tor_product(presented(a), presented(b)).order() == count
    assert tor_product(presented(b), presented(a)).order() == count


def test_render_and_parse():
    assert FgAbelianGroup.trivial().render() == "0"
    assert FgAbelianGroup(1, (2, 4)).render() == "Z^1 x Z/2 x Z/4"
    assert FgAbelianGroup.z2_power(2).render() == "Z/2 x Z/2"
    for g in [
        FgAbelianGroup.trivial(),
        FgAbelianGroup.free(2),
        FgAbelianGroup(1, (2, 4)),
        FgAbelianGroup.z2_power(3),
    ]:
        assert FgAbelianGroup.parse(g.render()) == g


def test_parse_rejects_cyclic_orders_below_one():
    assert FgAbelianGroup.parse("Z/1 x Z_2") == FgAbelianGroup.cyclic(2)
    for text in ("Z/0", "Z/-2", "Z x Z_0"):
        with pytest.raises(ValueError, match=text.split(" x ")[-1]):
            FgAbelianGroup.parse(text)


def test_parse_names_the_input_and_the_bad_summand():
    for text, summand in [
        ("Z^x", "'Z^x'"),
        ("Z^-1", "'Z^-1'"),
        ("Z^--1", "'Z^--1'"),
        ("Z/--2", "'Z/--2'"),
        ("Z/2 x Z^x", "'Z^x'"),
        ("Z/2 x Q", "'Q'"),
        ("Z/2 x", "''"),
        ("Z/y x Z", "'Z/y'"),
    ]:
        with pytest.raises(ValueError) as info:
            FgAbelianGroup.parse(text)
        message = str(info.value)
        assert message.startswith(repr(text)) and summand in message, text
    assert FgAbelianGroup.parse("Z^2xZ/4") == FgAbelianGroup(2, (4,))
    assert FgAbelianGroup.parse("Z^0 x Z_3") == FgAbelianGroup.cyclic(3)


def test_kernel_and_solve():
    m = IntegerMatrix([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(columns(m))
    assert len(basis) == 2
    for vec in basis:
        assert all(x == 0 for x in m.apply(dense(vec, m.cols)))
    x = solve_integer(IntegerMatrix([[2, 0], [0, 3]]), (4, 9))
    assert x == (2, 3)
    assert solve_integer(IntegerMatrix([[2]]), (3,)) is None


def test_quotient_group():
    # Z^2 / <(2,0),(0,2)> = Z_2 x Z_2
    sup = [{0: 1}, {1: 1}]
    sub = [{0: 2}, {1: 2}]
    assert quotient_group(sub, sup, 2) == FgAbelianGroup(0, (2, 2))
    # <(1,1)> / <(2,2)> = Z_2
    assert quotient_group([{0: 2, 1: 2}], [{0: 1, 1: 1}], 2) == FgAbelianGroup.cyclic(2)
    assert quotient_group([], [{0: 1}], 2) == FgAbelianGroup.free(1)
    assert quotient_group([], [], 2) == FgAbelianGroup.trivial()
    # a nonzero sub in a zero sup is not contained in it
    with pytest.raises(ValueError, match="not contained"):
        quotient_group([{0: 1}], [], 2)


def test_lattice_from_generators():
    basis = lattice_from_generators([{0: 2}, {1: 3}, {0: 2, 1: 3}], 2)
    assert len(basis) == 2
    q = quotient_group(basis.values(), [{0: 1}, {1: 1}], 2)
    assert q == FgAbelianGroup.cyclic(6)


def test_quotient_order_equals_determinant():
    rng = random.Random(41)
    basis = [{0: 1}, {1: 1}, {2: 1}]
    for _ in range(100):
        m = IntegerMatrix([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        det = abs(m.determinant())
        if det == 0:
            continue
        q = quotient_group([sparse(row) for row in m.entries], basis, 3)
        assert q.order() == det


# ---------------------------------------------------------------------------
# properties of the Hermite echelon kernel, against the Smith form as oracle
# ---------------------------------------------------------------------------

# empty shapes included: 0 x n, n x 0 and 0 x 0
matrices = st.integers(0, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          max_size=5).map(lambda rows: IntegerMatrix(rows, cols)))


def snf_solvable(m, b):
    """Whether m*x = b has an integer solution, read off U*m*V = D."""
    check_snf(m)
    d, u, _ = smith_normal_form(m)
    ub = u.apply(tuple(b))
    return all(
        (x == 0) if i >= len(d) or d[i] == 0 else x % d[i] == 0 for i, x in enumerate(ub)
    )


def snf_rank(m):
    return sum(1 for x in check_snf(m) if x)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_smith_form_property(m):
    check_snf(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          max_size=4).map(lambda rows: IntegerMatrix(rows, cols))))
def test_smith_form_is_the_gcd_of_the_minors(m):
    # d_1 ... d_k is the gcd of all k x k minors, each a Bareiss determinant:
    # an oracle that shares no code with the Hermite echelon
    d = smith_normal_form(m)[0]
    for k in range(1, min(m.rows, m.cols) + 1):
        minors = [
            IntegerMatrix([[m[(i, j)] for j in cs] for i in rs]).determinant()
            for rs in combinations(range(m.rows), k)
            for cs in combinations(range(m.cols), k)
        ]
        assert prod(d[:k]) == gcd(*minors)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_lattice_basis_is_hermite_and_spans_the_input(m):
    basis = lattice_from_generators(map(sparse, m.entries), m.cols)
    assert len(basis) == snf_rank(m)
    last = -1
    rows = list(basis.items())
    for k, (c, row) in enumerate(rows):
        # each row is keyed by its leading column
        assert c == min(row)
        assert c > last and row[c] > 0
        assert all(0 <= above.get(c, 0) < row[c] for _, above in rows[:k])
        last = c
    # every generator is an integer combination of the basis ...
    for v in m.entries:
        y = lattice_coordinates(basis, sparse(v))
        assert y is not None
        assert tuple(sum(y.get(c, 0) * row.get(j, 0) for c, row in basis.items())
                     for j in range(m.cols)) == v
    # ... and every basis row one of the generators
    generators = m.transpose()
    for row in basis.values():
        assert snf_solvable(generators, dense(row, m.cols))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_kernel_basis_is_a_saturated_basis(m):
    basis = kernel_basis(columns(m))
    assert len(basis) == m.cols - snf_rank(m)
    for x in basis:
        assert not any(m.apply(dense(x, m.cols)))
    if basis:
        relations = IntegerMatrix([dense(x, m.cols) for x in basis])
        assert not group_from_relations(m.cols, relations).invariant_factors


@settings(max_examples=200, deadline=None)
@given(matrices, st.data())
def test_solve_integer_solves_and_refuses(m, data):
    y = data.draw(st.lists(st.integers(-9, 9), min_size=m.cols, max_size=m.cols))
    b = m.apply(y)
    x = solve_integer(m, b)
    assert x is not None and m.apply(x) == b
    b = tuple(data.draw(st.lists(st.integers(-20, 20), min_size=m.rows, max_size=m.rows)))
    x = solve_integer(m, b)
    if snf_solvable(m, b):
        assert x is not None and m.apply(x) == b
    else:
        assert x is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-4, 4)),
             max_size=12),
    st.lists(st.booleans(), min_size=n, max_size=n))))
def test_inverse_unimodular(case):
    # a unimodular matrix as a product of elementary row operations and signs
    n, ops, signs = case
    a = [[int(i == j) * (-1 if signs[i] else 1) for j in range(n)] for i in range(n)]
    for i, j, q in ops:
        if i != j:
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    a = IntegerMatrix(a)
    assert a.inverse_unimodular() * a == IntegerMatrix.identity(n)
    assert a.inverse_unimodular() == hermite_inverse(a)


def dense_echelon(rows, width):
    """The Hermite echelon on dense rows, as the library ran it before its
    rows became sparse: the oracle of `_echelon`.  The same pivot choice
    (the first row of least |entry|), Euclid quotients, row swaps and
    above-pivot clearing, each row update across the full width."""
    pivots = []
    n = len(rows)
    for c in range(width):
        r = len(pivots)
        below = [i for i in range(r, n) if rows[i][c]]
        if not below:
            continue
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


def hermite_inverse(a):
    """The inverse from a Hermite echelon: the Hermite form of a unimodular
    A is I, so that of [A | I] is [I | A^-1]."""
    n = a.rows
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.entries)]
    dense_echelon(rows, n)
    return IntegerMatrix([row[n:] for row in rows], n)


def sparse_echelon(rows, width, clear):
    """`_echelon` on the sparse form of dense rows, read back dense."""
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    pivots = _echelon(sparse, width, clear=clear)
    return [[row.get(j, 0) for j in range(len(r))] for row, r in zip(sparse, rows)], pivots


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda width: st.lists(
    st.lists(st.integers(-9, 9), min_size=width, max_size=width), max_size=6)
    .map(lambda a: (width, [row + [int(i == j) for j in range(len(a))]
                            for i, row in enumerate(a)]))))
@example((2, [[2, 4, 1, 0], [2, 3, 0, 1]]))  # a tie for least |entry|
@example((2, [[0, 6, 1, 0, 0], [0, 4, 0, 1, 0], [3, 5, 0, 0, 1]]))  # a zero column
def test_sparse_echelon_is_the_dense_oracle(case):
    # [A | I] rows: with clearing, the sparse echelon is the oracle row for
    # row; without, the pivots, the rows from the rank on and the lattice of
    # the pivot rows stay
    width, rows = case
    want = deepcopy(rows)
    pivots = dense_echelon(want, width)
    assert sparse_echelon(rows, width, True) == (want, pivots)
    got, got_pivots = sparse_echelon(rows, width, False)
    rank = len(pivots)
    assert got_pivots == pivots
    assert [row[c] for row, c in zip(got, pivots)] == [row[c] for row, c in zip(want, pivots)]
    assert got[rank:] == want[rank:]
    ambient = len(rows[0]) if rows else 0
    assert (lattice_from_generators(map(sparse, got[:rank]), ambient)
            == lattice_from_generators(map(sparse, want[:rank]), ambient))


# sparse vectors on 5 columns, the zero vector and negative leading entries
# included; a drawn list repeats a vector often enough
sparse_vectors = st.dictionaries(st.integers(0, 4), st.integers(-9, 9).filter(bool), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(sparse_vectors, max_size=8), st.lists(sparse_vectors, max_size=4))
@example([{0: 4, 2: 1}, {0: 3, 1: -1}], [{0: 1, 1: -1, 2: -1}])  # 3 < 4: Euclid swaps
@example([{}, {1: -2, 3: 5}, {1: -2, 3: 5}, {}], [{1: 2, 3: -5}, {1: 1}])  # zeros, repeats
@example([{0: 6, 1: 1}, {0: 4}, {0: 9, 4: 2}], [{0: 1}, {0: 2, 1: 1}])  # gcd of three
def test_joining_one_vector_at_a_time_is_the_echelon_of_all(vectors, probes):
    # the pivot table joined one vector at a time has the pivots of the echelon
    # of all the vectors at once, the same lattice, and the same membership
    width = 5
    pivots, non_unit = {}, 0
    for v in vectors:
        non_unit += _join(pivots, dict(v))
    assert non_unit == sum(row[c] != 1 for c, row in pivots.items())
    for c, row in pivots.items():
        assert min(row) == c and row[c] > 0
    rows = [dict(v) for v in vectors if v]
    columns = _echelon(rows, width, clear=False)
    assert sorted(pivots) == columns
    assert [pivots[c][c] for c in columns] == [row[c] for row, c in zip(rows, columns)]

    hermite = lattice_from_generators(vectors, width)
    assert lattice_from_generators(pivots.values(), width) == hermite
    for w in [*vectors, *probes]:
        member = lattice_coordinates(hermite, w) is not None
        assert (not _reduce(pivots, dict(w))) == member


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_unimodular_is_the_hermite_inverse_or_refused(m):
    a = IntegerMatrix(m, len(m))
    if a.determinant() in (1, -1):
        assert a.inverse_unimodular() == hermite_inverse(a)
    else:
        with pytest.raises(ValueError, match="^matrix is not invertible over the integers$"):
            a.inverse_unimodular()


def test_inverse_unimodular_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="^determinant of non-square matrix$"):
        IntegerMatrix([[1, 0, 0], [0, 1, 0]]).inverse_unimodular()


# ---------------------------------------------------------------------------
# the fraction-free elimination against cofactors and Fraction elimination
# ---------------------------------------------------------------------------


def _shaped(case):
    """Make a drawn system need a row swap (a zero first pivot) or be
    singular (its last row a multiple of its first), or leave it."""
    rows, kind, q = case
    rows = [list(row) for row in rows]
    if rows and kind == "swap":
        rows[0][0] = 0
    elif len(rows) > 1 and kind == "singular":
        rows[-1] = [q * x for x in rows[0]]
    return rows


def systems(extra):
    """k x (k + extra) integer matrices, k <= 5, entries in [-9, 9]."""
    return st.integers(0, 5).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=k + extra, max_size=k + extra),
                 min_size=k, max_size=k),
        st.sampled_from(("as drawn", "swap", "singular")),
        st.integers(-2, 2),
    )).map(_shaped)


def cofactor_determinant(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * cofactor_determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def fraction_solve(rows):
    """Fraction Gauss-Jordan elimination of a k x (k + 1) system: the last
    column of the reduced rows, or None when a column has no pivot."""
    k = len(rows)
    aug = [[Fraction(x) for x in row] for row in rows]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(k):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k] for row in aug]


@settings(max_examples=300, deadline=None)
@given(systems(0))
@example([[0, 1], [1, 0]])  # a row swap flips the sign
@example([[0, 2, 1], [0, 1, 3], [4, 1, 1]])  # two swaps
@example([[1, 2], [2, 4]])  # singular
@example([[0, 0], [1, 0]])  # a zero column
def test_determinant_is_the_cofactor_expansion(m):
    assert IntegerMatrix(m, len(m)).determinant() == cofactor_determinant(m)


@settings(max_examples=300, deadline=None)
@given(systems(1))
@example([[0, 1, 5], [2, 0, 3]])  # needs a swap
@example([[1, 2, 1], [2, 4, 1]])  # singular, and inconsistent
def test_bareiss_solves_as_fraction_elimination_does(rows):
    k = len(rows)
    want = fraction_solve(rows)
    block = [row[:k] for row in rows]
    reduced = deepcopy(rows)
    solved = bareiss(reduced, k)
    if want is None:
        assert solved is None
        assert cofactor_determinant(block) == 0
    else:
        sign, d = solved
        assert sign * d == cofactor_determinant(block)
        # the block is d times the identity; the last column d times the solution
        assert [row[:k] for row in reduced] == [[d * (i == j) for j in range(k)]
                                                for i in range(k)]
        assert [Fraction(row[k], d) for row in reduced] == want

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaljet.abelian import (
    FgAbelianGroup,
    InfiniteGroup,
    IntegerMatrix,
    NotZ2VectorSpace,
    direct_sum,
    group_from_relations,
    hom_group,
    kernel_basis,
    lattice_coordinates,
    lattice_from_generators,
    quotient_group,
    smith_normal_form,
    solve_integer,
    tensor_over_z2,
    tensor_product,
    tor_product,
    smith_normal_form as snf,
)


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


def test_snf_already_diagonal():
    d = check_snf(IntegerMatrix([[2, 0], [0, 2]]))
    assert d == [2, 2]


def test_snf_empty_relations():
    m = IntegerMatrix.zero(0, 3)
    d, u, v = smith_normal_form(m)
    assert d == []
    assert group_from_relations(3, m) == FgAbelianGroup.free(3)


def test_snf_derived_example():
    # oracle: d1 = gcd of all entries = 2, d1*d2 = |det| = |2*8-4*6| = 8
    m = IntegerMatrix([[2, 4], [6, 8]])
    d = check_snf(m)
    assert d == [2, 4]


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
    z2 = FgAbelianGroup.z2_power
    assert tensor_over_z2(z2(2), z2(1)) == z2(2)
    assert tensor_over_z2(z2(0), z2(3)) == z2(0)
    assert tensor_over_z2(z2(3), z2(2)) == z2(6)
    with pytest.raises(NotZ2VectorSpace):
        tensor_over_z2(FgAbelianGroup.cyclic(4), z2(1))


def test_hom_group():
    z = FgAbelianGroup.cyclic
    assert hom_group(z(2), z(2)) == z(2)
    assert hom_group(z(4), z(6)) == z(2)  # gcd oracle
    assert hom_group(FgAbelianGroup.z2_power(3), FgAbelianGroup.free(3)).is_trivial()
    with pytest.raises(InfiniteGroup):
        hom_group(FgAbelianGroup.free(1), z(2))


def test_tensor_and_tor():
    z = FgAbelianGroup.cyclic
    assert tensor_product(z(2), z(3)).is_trivial()
    assert tensor_product(z(0), z(6)) == z(6)
    assert tor_product(z(2), z(3)).is_trivial()
    assert tor_product(z(4), z(6)) == z(2)
    assert tor_product(FgAbelianGroup.free(2), z(6)).is_trivial()


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


def test_kernel_and_solve():
    m = IntegerMatrix([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert all(x == 0 for x in m.apply(vec))
    x = solve_integer(IntegerMatrix([[2, 0], [0, 3]]), (4, 9))
    assert x == (2, 3)
    assert solve_integer(IntegerMatrix([[2]]), (3,)) is None


def test_quotient_group():
    # Z^2 / <(2,0),(0,2)> = Z_2 x Z_2
    sup = [(1, 0), (0, 1)]
    sub = [(2, 0), (0, 2)]
    assert quotient_group(sub, sup, 2) == FgAbelianGroup(0, (2, 2))
    # <(1,1)> / <(2,2)> = Z_2
    assert quotient_group([(2, 2)], [(1, 1)], 2) == FgAbelianGroup.cyclic(2)
    assert quotient_group([], [(1, 0)], 2) == FgAbelianGroup.free(1)


def test_lattice_from_generators():
    basis = lattice_from_generators([(2, 0), (0, 3), (2, 3)], 2)
    assert len(basis) == 2
    q = quotient_group(basis, [(1, 0), (0, 1)], 2)
    assert q == FgAbelianGroup.cyclic(6)


def test_quotient_order_equals_determinant():
    rng = random.Random(41)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(100):
        m = IntegerMatrix([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        det = abs(m.determinant())
        if det == 0:
            continue
        q = quotient_group([tuple(m.row(i)) for i in range(3)], basis, 3)
        assert q.order() == det


# ---------------------------------------------------------------------------
# properties of the Hermite echelon kernel, against the Smith form as oracle
# ---------------------------------------------------------------------------

matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          min_size=1, max_size=5)).map(IntegerMatrix)


def snf_solvable(m, b):
    """Whether m*x = b has an integer solution, read off U*m*V = D."""
    d, u, _ = smith_normal_form(m)
    ub = u.apply(tuple(b))
    return all(
        (x == 0) if i >= len(d) or d[i] == 0 else x % d[i] == 0 for i, x in enumerate(ub)
    )


def snf_rank(m):
    return sum(1 for x in smith_normal_form(m)[0] if x)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_smith_form_property(m):
    check_snf(m)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_lattice_basis_is_hermite_and_spans_the_input(m):
    vectors = list(m.entries)
    basis = lattice_from_generators(vectors, m.cols)
    assert len(basis) == snf_rank(m)
    last = -1
    for k, row in enumerate(basis):
        c = next(j for j, x in enumerate(row) if x)
        assert c > last and row[c] > 0
        assert all(0 <= above[c] < row[c] for above in basis[:k])
        last = c
    # every generator is an integer combination of the basis ...
    for v in vectors:
        y = lattice_coordinates(basis, v)
        assert y is not None
        assert tuple(sum(q * row[j] for q, row in zip(y, basis)) for j in range(m.cols)) == v
    # ... and every basis row one of the generators
    generators = m.transpose()
    for row in basis:
        assert snf_solvable(generators, row)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_kernel_basis_is_a_saturated_basis(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - snf_rank(m)
    for x in basis:
        assert not any(m.apply(x))
    if basis:
        assert not group_from_relations(m.cols, IntegerMatrix(basis)).invariant_factors


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

"""The free ZG-resolution behind `group_cohomology`, against the bar complex
it replaced.

The oracle here is the normalized inhomogeneous bar complex: cochains on
n-tuples of non-identity elements, with the exact integer coboundary
matrix.  Its matrices have (|G| - 1)^n * rank columns in degree n, so it is
only run on small groups.
"""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_abelian import dense, sparse

from crystaljet.abelian import (
    FgAbelianGroup,
    IntegerMatrix,
    kernel_basis,
    lattice_from_generators,
    quotient_group,
)
from crystaljet.cohomology import (
    GModule,
    _block_relations,
    _preimage_lattice,
    free_resolution,
    group_cohomology,
)
from crystaljet.groups import point_group, point_groups, point_groups_2d

Z = FgAbelianGroup.free(1)


def _tuples(g, n):
    """Nondegenerate n-tuples of group element indices (identity excluded)."""
    nonident = [i for i in range(g.order) if i != g.identity_index]
    return list(product(nonident, repeat=n))


def _coboundary_matrix(mod, n):
    """delta_n : C^n -> C^{n+1} on normalized bar cochains; columns are
    (n-tuple, coordinate) pairs, rows likewise in degree n + 1."""
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
        a = mod.action[s[0]]
        cbase = col_index[s[1:]] * m
        for i in range(m):
            for j in range(m):
                rows[base_row + i][cbase + j] += a[(i, j)]
        # merged terms
        for k in range(n):
            merged = s[:k] + (g.cayley[s[k]][s[k + 1]],) + s[k + 2:]
            if e in merged:
                continue
            sign = -1 if (k + 1) % 2 else 1
            cbase = col_index[merged] * m
            for i in range(m):
                rows[base_row + i][cbase + i] += sign
        # last face
        sign = -1 if (n + 1) % 2 else 1
        cbase = col_index[s[:n]] * m
        for i in range(m):
            rows[base_row + i][cbase + i] += sign
    return IntegerMatrix(rows, m * len(cols_tuples))


def bar_cohomology(g, mod, degree):
    """H^degree(G; M) from the normalized bar complex."""
    m = mod.rank
    ntup = (g.order - 1) ** degree
    ambient = m * ntup
    if ambient == 0:
        return FgAbelianGroup.trivial()
    delta_n = _coboundary_matrix(mod, degree)
    moduli = set(mod.base.invariant_factors)
    if mod.base.free_rank == 0 and len(moduli) == 1:
        # every coordinate is taken mod one d, and the unimodular row
        # operations of a Hermite echelon keep d*Z^rows: reduce delta first
        d = moduli.pop()
        hermite = lattice_from_generators(map(sparse, delta_n.entries), delta_n.cols)
        rows = [dense(row, delta_n.cols) for row in hermite.values()]
        relations = [{i: d} for i in range(len(rows))]
        columns = IntegerMatrix(rows, delta_n.cols).transpose().entries
        cocycles = _preimage_lattice(list(map(sparse, columns)), relations)
    else:
        columns = delta_n.transpose().entries
        cocycles = _preimage_lattice(list(map(sparse, columns)), _block_relations(mod, delta_n.rows // m))
    if not cocycles:
        return FgAbelianGroup.trivial()
    sub = _block_relations(mod, ntup)
    if degree > 0:
        delta_prev = _coboundary_matrix(mod, degree - 1)
        sub.extend(sparse(delta_prev.col(j)) for j in range(delta_prev.cols))
    return quotient_group(sub, cocycles, ambient)


def _orbit_columns(g, images):
    """The sparse Z-columns h*v of a ZG-map given by its sparse images v of
    the basis."""
    n = g.order
    cols = []
    for v in images:
        for h in range(n):
            w = {}
            for idx, x in v.items():
                i, k = divmod(idx, n)
                w[i * n + g.cayley[h][k]] = x
            cols.append(w)
    return cols


ALL_POINT_GROUPS = point_groups()


@pytest.mark.parametrize("name", ALL_POINT_GROUPS)
def test_resolution_is_exact_up_to_length_three(name):
    g = point_group(name)
    n = g.order
    res = free_resolution(g, 3)
    assert res.ranks[0] == 1 and len(res.ranks) == 4
    # the augmentation kills im d_1, and im d_1 is all of ker(augmentation)
    assert all(sum(v.values()) == 0 for v in res.boundaries[0])
    augmentation_kernel = [
        sparse([int(h == a) - int(h == g.identity_index) for h in range(n)])
        for a in range(n) if a != g.identity_index
    ]
    image = lattice_from_generators(_orbit_columns(g, res.boundaries[0]), n)
    assert image == lattice_from_generators(augmentation_kernel, n)
    # im d_{k+1} = ker d_k as lattices of F_k
    for k in (1, 2):
        ambient = res.ranks[k] * n
        d_k = _orbit_columns(g, res.boundaries[k - 1])
        kernel = lattice_from_generators(kernel_basis(d_k), ambient)
        image = lattice_from_generators(_orbit_columns(g, res.boundaries[k]), ambient)
        assert image == kernel, (name, k)


# the stop rule of the orbit generators: a sublattice S of L whose echelon
# basis has as many rows as L's and only unit pivots is L itself, since
# substitution along unit pivots reads integer coordinates off every vector
# of their common Q-span
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=5))))
@example((2, [[1, 0], [0, 1]], [[1, 1, 0, 0], [0, 1, 0, 0]]))
@example((2, [[1, 0], [0, 1]], [[2, 1, 0, 0], [0, 1, 0, 0]]))
@example((2, [[2, 0], [0, 1]], [[1, 0, 0, 0], [1, 1, 0, 0]]))
def test_a_full_rank_sublattice_with_unit_pivots_is_the_lattice(case):
    n, vectors, coefficients = case
    lattice = lattice_from_generators(map(sparse, vectors), n)
    sub = lattice_from_generators(
        [sparse([sum(c * row.get(j, 0) for c, row in zip(cs, lattice.values())) for j in range(n)])
         for cs in coefficients],
        n,
    )
    if len(sub) == len(lattice) and all(row[c] == 1 for c, row in sub.items()):
        assert sub == lattice


# H^3(G; Z) = H_2(G; Z), the Schur multiplier of the abstract group
SCHUR_MULTIPLIERS = {
    **dict.fromkeys(
        ("C_1", "C_i", "C_2", "C_s", "C_3", "C_4", "S_4", "S_6", "C_6", "C_3h",
         "D_3", "C_3v"),
        "0",
    ),
    **dict.fromkeys(("D_2h", "D_4h", "D_6h"), "Z/2 x Z/2 x Z/2"),
    "O_h": "Z/2 x Z/2",
}


@pytest.mark.parametrize("name", ALL_POINT_GROUPS)
def test_h3_with_z_coefficients_is_the_schur_multiplier(name):
    g = point_group(name)
    h3 = group_cohomology(g, GModule.trivial(g, Z), 3)
    assert h3.render() == SCHUR_MULTIPLIERS.get(name, "Z/2"), name


def _small_groups():
    out = [(name, point_group(name)) for name in ALL_POINT_GROUPS]
    out += [(f"{name} (2-D)", g) for name, g in point_groups_2d().items()]
    return [(name, g) for name, g in out if g.order <= 8]


def _modules(g):
    return {
        "Z": GModule.trivial(g, Z),
        "natural": GModule.natural(g),
        "sign": GModule.sign(g, Z),
        "natural mod 4": GModule.natural(g, scale_mod=4),
        "Z/6": GModule.trivial(g, FgAbelianGroup.cyclic(6)),
    }


def test_resolution_agrees_with_the_bar_complex():
    checked = 0
    for name, g in _small_groups():
        for kind, mod in _modules(g).items():
            for degree in range(3):
                want = bar_cohomology(g, mod, degree)
                assert group_cohomology(g, mod, degree) == want, (name, kind, degree)
                checked += 1
    assert checked == 29 * 5 * 3

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaljet.abelian import IntegerMatrix
from crystaljet.groups import (
    INTERNATIONAL,
    ClosureBoundExceeded,
    FiniteMatrixGroup,
    NotInvertible,
    _det_trace,
    _name,
    close_group,
    enumerate_subgroups,
    iso_type_name,
    point_group,
    point_groups,
    point_groups_2d,
    validate_appendix_b,
)

I2 = IntegerMatrix.identity(2)
I3 = IntegerMatrix.identity(3)


def test_close_group_inversion():
    g = close_group([-I3])
    assert g.order == 2  # Appendix table: C_i has order 2
    assert iso_type_name(g) == "-1"


def test_close_group_trivial():
    assert close_group([I2]).order == 1


def test_close_group_square_symmetries():
    rot = IntegerMatrix([[0, -1], [1, 0]])
    mirror = IntegerMatrix([[1, 0], [0, -1]])
    g = close_group([rot, mirror])
    assert g.order == 8
    assert iso_type_name(g) == "4mm"


def test_close_group_rejects_noninvertible():
    with pytest.raises(NotInvertible):
        close_group([IntegerMatrix([[2, 0], [0, 1]])])


def test_close_group_bound():
    shear = IntegerMatrix([[1, 1], [0, 1]])  # infinite order
    with pytest.raises(ClosureBoundExceeded):
        close_group([shear])


def test_point_group_orders_match_annotations():
    pg = point_groups()
    assert pg["O"].order == 24
    assert pg["T"].order == 12
    assert pg["O_h"].order == 48
    for n in (2, 3, 4, 6):
        assert pg[f"D_{n}"].order == 2 * n
    assert len(pg) == 32


def test_cayley_latin_square():
    for name in ("C_4", "D_3", "T"):
        g = point_group(name)
        cay = g.cayley
        n = g.order
        for row in cay:
            assert sorted(row) == list(range(n))
        for j in range(n):
            assert sorted(cay[i][j] for i in range(n)) == list(range(n))
        e = g.identity_index
        assert cay[e] == list(range(n))
        assert [cay[i][e] for i in range(n)] == list(range(n))


def test_subgroups_cyclic_four():
    recs = enumerate_subgroups(point_group("C_4"))
    assert [(r.order, r.index) for r in recs] == [(4, 1), (2, 2), (1, 4)]


def test_subgroups_trivial_group():
    recs = enumerate_subgroups(point_group("C_1"))
    assert [(r.iso_name, r.order, r.index) for r in recs] == [("1", 1, 1)]


def test_subgroups_cyclic_three_lagrange():
    recs = enumerate_subgroups(point_group("C_3"))
    triples = {(r.order, r.index) for r in recs}
    assert triples == {(3, 1), (1, 3)}
    assert (2, 3) not in triples  # Lagrange forces order * index = 3


def test_subgroup_closure_and_lagrange():
    for name, g in point_groups().items():
        for rec in enumerate_subgroups(g):
            assert rec.order * rec.index == g.order
            # the identity, and closed under products
            idx = rec.element_indices
            assert g.identity_index in idx and len(idx) == rec.order, name
            for a in idx:
                for b in idx:
                    assert g.cayley[a][b] in idx


def test_iso_names_of_embedded_groups():
    for name, g in point_groups().items():
        assert iso_type_name(g) == INTERNATIONAL[name]
    for name, g in point_groups_2d().items():
        assert iso_type_name(g) == name


def test_iso_name_order2_refinement():
    assert iso_type_name(close_group([-I3])) == "-1"
    assert iso_type_name(close_group([IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])])) == "m"
    assert iso_type_name(close_group([IntegerMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])])) == "2"


def test_iso_name_klein_and_cyclic6():
    klein = close_group(
        [
            IntegerMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
            IntegerMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        ]
    )
    assert iso_type_name(klein) == "222"
    assert iso_type_name(point_group("C_6")) == "6"


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntegerMatrix(m)


def test_iso_name_conjugation_invariant():
    rng = random.Random(11)
    for name in ("C_4", "D_3", "C_2v", "T", "S_4"):
        g = point_group(name)
        for _ in range(3):
            p = _random_unimodular(rng, 3)
            assert iso_type_name(g.conjugated(p)) == iso_type_name(g)


def test_validate_appendix_b_clean_tables():
    assert validate_appendix_b("C_4").ok
    assert validate_appendix_b("C_1").ok
    assert validate_appendix_b("C_2h").ok


def test_validate_appendix_b_c3_erratum():
    res = validate_appendix_b("C_3")
    kinds = [m.kind for m in res.mismatches]
    assert kinds.count("LagrangeViolationInPaper") == 1
    lv = next(m for m in res.mismatches if m.kind == "LagrangeViolationInPaper")
    assert lv.published == "2/2/3"


def test_validate_appendix_b_d6_errata():
    res = validate_appendix_b("D_6")
    by_kind = {}
    for m in res.mismatches:
        by_kind.setdefault(m.kind, []).append(m.published if m.published != "(absent)" else m.computed)
    assert "32/6/1" in by_kind["LagrangeViolationInPaper"]
    assert "m/2/6" in by_kind["ExtraInPaper"]
    assert "222/4/3" in by_kind["MissingInPaper"]


def test_validate_appendix_b_d3h_flagged_not_guessed():
    res = validate_appendix_b("D_3h")
    assert sum(1 for m in res.mismatches if m.kind == "LagrangeViolationInPaper") == 4


def test_subgroup_counts_of_the_point_groups():
    counts = {name: len(enumerate_subgroups(g)) for name, g in point_groups().items()}
    assert sum(counts.values()) == 465
    assert {name: counts[name] for name in ("O_h", "D_6h", "D_4h", "O", "T_d", "T_h")} == {
        "O_h": 98, "D_6h": 54, "D_4h": 35, "O": 30, "T_d": 30, "T_h": 26}


def test_walk_reaches_every_element_once_breadth_first():
    g = point_group("O_h")
    gens = [g.index_of(s) for s in g.generators]
    edges = list(g.walk(gens))
    assert len(edges) == g.order * len(gens)
    assert all(g.cayley[a][s] == b for a, s, b in edges)
    # each edge leaves an element already reached, in order of first reach
    reached = [g.identity_index]
    for a, _, b in edges:
        assert a in reached
        if b not in reached:
            reached.append(b)
    assert sorted(reached) == list(range(g.order))
    assert list(dict.fromkeys(a for a, _, _ in edges)) == reached
    assert [b for _, _, b in g.walk([])] == []


def test_walk_forms_the_table_edges_before_the_table_is_built():
    # a fresh group has no Cayley table, so its walk forms the generators'
    # columns as products; the edges are those read off the table
    g = close_group(point_group("O_h").generators)
    gens = [g.index_of(s) for s in g.generators]
    by_products = list(g.walk(gens))
    assert g._cayley is None
    assert by_products == list(_inline_walk(g, gens)) == list(g.walk(gens))


def test_all_computed_lattices_satisfy_lagrange():
    for name, g in point_groups().items():
        for rec in enumerate_subgroups(g):
            assert rec.order * rec.index == g.order, name


def _point_groups_and_conjugates():
    """The 32 point groups, the 10 plane point groups, and one random
    unimodular conjugate of each."""
    rng = random.Random(5)
    for g in [*point_groups().values(), *point_groups_2d().values()]:
        yield g
        yield g.conjugated(_random_unimodular(rng, g.dimension))


def test_every_subgroup_record_is_named_from_the_fingerprint_table():
    table_names = set(INTERNATIONAL.values()) | set(point_groups_2d())
    records = 0
    for g in _point_groups_and_conjugates():
        for rec in enumerate_subgroups(g):
            records += 1
            assert rec.iso_name in table_names, rec
            sub = close_group([g.elements[i] for i in sorted(rec.element_indices)])
            assert rec.iso_name == iso_type_name(sub), rec
    assert records == 2 * (465 + 51)


def test_groups_outside_dimensions_two_and_three_are_unclassified():
    assert iso_type_name(close_group([IntegerMatrix([[-1]])])) == "order-2-unclassified"
    assert iso_type_name(close_group([-IntegerMatrix.identity(4)])) == "order-2-unclassified"
    # x -> x^4 + 1 companion matrix: cyclic of order 8 in GL_4(Z)
    c8 = IntegerMatrix([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert iso_type_name(close_group([c8])) == "order-8-unclassified"


def test_element_zero_must_be_the_identity():
    rot = IntegerMatrix([[0, -1], [1, 0]])
    assert FiniteMatrixGroup([I2], [I2]).identity_index == 0
    with pytest.raises(ValueError):
        FiniteMatrixGroup([rot], [rot, I2])
    with pytest.raises(ValueError):
        FiniteMatrixGroup([], [])


def test_subgroup_records_are_in_a_total_order():
    def key(rec):
        return (-rec.order, rec.iso_name, rec.index, tuple(sorted(rec.element_indices)))

    for name, g in point_groups().items():
        keys = [key(rec) for rec in enumerate_subgroups(g)]
        assert keys == sorted(set(keys)), name
    recs = enumerate_subgroups(point_group("D_2"))
    assert [(r.iso_name, sorted(r.element_indices)) for r in recs] == [
        ("222", [0, 1, 2, 3]), ("2", [0, 1]), ("2", [0, 2]), ("2", [0, 3]), ("1", [0])]


def _inline_walk(g, generators):
    """The Cayley-graph walk as one inline loop over the Cayley table,
    yielding each edge as it is found: the oracle for ``walk``."""
    cay, generators = g.cayley, list(generators)
    reached = [g.identity_index]
    seen = set(reached)
    for a in reached:
        row = cay[a]
        for s in generators:
            b = row[s]
            yield a, s, b
            if b not in seen:
                seen.add(b)
                reached.append(b)


def _all_elements_join(g):
    """The (triple, element indices) lattice with every join closed from all
    the elements of h and c: the oracle for the cyclic extension with
    carried generators."""

    def closure(seed):
        return frozenset([g.identity_index, *(b for _, _, b in _inline_walk(g, seed))])

    cyclics = {closure([i]) for i in range(g.order)}
    found = set(cyclics)
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for c in cyclics:
            if not c <= h:
                k = closure(h | c)
                if k not in found:
                    found.add(k)
                    frontier.append(k)
    pairs = _det_trace(g)
    lattice = [((_name([pairs[i] for i in k]), len(k), g.order // len(k)), k) for k in found]
    lattice.sort(key=lambda r: (-r[0][1], r[0][0], r[0][2], tuple(sorted(r[1]))))
    return lattice


def _cyclic_shift(n):
    shift = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
    return close_group([IntegerMatrix(shift)])


def _permutation_matrix(p):
    return IntegerMatrix([[1 if p[j] == i else 0 for j in range(len(p))] for i in range(len(p))])


def _symmetric_group_s4():
    return close_group([_permutation_matrix((1, 0, 2, 3)), _permutation_matrix((1, 2, 3, 0))])


def _lattice(g):
    return [(rec.triple(), rec.element_indices) for rec in enumerate_subgroups(g)]


def test_subgroup_lattice_is_the_all_elements_join():
    for g in _point_groups_and_conjugates():
        assert _lattice(g) == _all_elements_join(g), g


def test_subgroup_lattice_of_groups_outside_the_crystal_classes():
    for n in range(1, 13):
        g = _cyclic_shift(n)
        lattice = _lattice(g)
        assert lattice == _all_elements_join(g), n
        # one subgroup per divisor of n
        assert [order for (_, order, _), _ in lattice] == [d for d in range(n, 0, -1) if n % d == 0]
    s4 = _symmetric_group_s4()
    assert s4.order == 24
    assert s4.elements[0] == _permutation_matrix((0, 1, 2, 3))
    assert {s4.index_of(_permutation_matrix(p)) for p in permutations(range(4))} == set(range(24))
    lattice = _lattice(s4)
    assert lattice == _all_elements_join(s4)
    assert len(lattice) == 30
    assert all(name == f"order-{order}-unclassified" for (name, order, _), _ in lattice)


def _join_every_generator(g):
    """The cyclic extension that joins each subgroup found with every cyclic
    generator outside it, one ``reach`` per pair: the oracle for the one
    join per right coset of ``enumerate_subgroups``, as its records."""
    cyclic = {}
    for x in range(g.order):
        cyclic.setdefault(frozenset(g.reach([x])), x)
    found = {c: (x,) for c, x in cyclic.items()}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for x in cyclic.values():
            if x not in h:
                gens = found[h] + (x,)
                k = frozenset(g.reach(gens))
                if k not in found:
                    found[k] = gens
                    frontier.append(k)
    pairs = _det_trace(g)
    records = [(_name([pairs[i] for i in k]), len(k), g.order // len(k), k) for k in found]
    records.sort(key=lambda r: (-r[1], r[0], r[2], tuple(sorted(r[3]))))
    return records


def _alternating_group_a5():
    """A_5 as 5 x 5 even permutation matrices, from a 5-cycle and a 3-cycle."""
    return close_group([_permutation_matrix((1, 2, 3, 4, 0)), _permutation_matrix((1, 2, 0, 3, 4))])


def test_one_join_per_coset_gives_the_records_of_every_join():
    a5 = _alternating_group_a5()
    assert a5.order == 60  # not solvable: the coset argument needs no solvability
    groups = [*point_groups().values(), *point_groups_2d().values(), _symmetric_group_s4(), a5]
    for g in groups:
        records = [(r.iso_name, r.order, r.index, r.element_indices)
                   for r in enumerate_subgroups(g)]
        assert records == _join_every_generator(g), g
    assert len(enumerate_subgroups(a5)) == 59


def test_one_join_per_coset_makes_fewer_reach_calls(monkeypatch):
    calls = []
    reach = FiniteMatrixGroup.reach

    def counting(self, generators):
        calls.append(self)
        return reach(self, generators)

    monkeypatch.setattr(FiniteMatrixGroup, "reach", counting)
    enumerate_subgroups(point_group("O_h"))
    assert len(calls) == 1046  # 2 851 with a join per cyclic generator
    calls.clear()
    for g in point_groups().values():
        enumerate_subgroups(g)
    assert len(calls) == 2756  # 6 251 with a join per cyclic generator


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 41), st.lists(st.integers(0, 47), max_size=4))
def test_walk_is_the_inline_walk(which, picks):
    g = [*point_groups().values(), *point_groups_2d().values()][which]
    gens = [p % g.order for p in picks]
    edges = list(g.walk(gens))
    assert edges == list(_inline_walk(g, gens))
    assert g.reach(gens) == list(dict.fromkeys([g.identity_index, *(b for _, _, b in edges)]))


def _frontier_closure(gens):
    """Breadth-first closure with one frontier list per level: the oracle
    for the element list of ``close_group``."""
    ident = IntegerMatrix.identity(gens[0].rows)
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        new_frontier = []
        for a in frontier:
            for g in gens:
                prod = a * g
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    return elements


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 41), st.lists(st.integers(0, 47), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_close_group_is_the_frontier_closure(which, picks, seed):
    g = [*point_groups().values(), *point_groups_2d().values()][which]
    p = _random_unimodular(random.Random(seed), g.dimension)
    pinv = p.inverse_unimodular()
    gens = [g.elements[i % g.order] for i in picks]
    for chosen in (gens, [p * m * pinv for m in gens]):
        closed = close_group(chosen)
        assert closed.elements == _frontier_closure(chosen)
        assert closed.generators == chosen

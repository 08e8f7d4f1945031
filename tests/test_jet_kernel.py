"""The jet layer's integer kernels against exact rational arithmetic.

Two oracles here are the exact-Q paths the kernels replaced.  For ranks,
every Jacobian entry is a symbolic ``partial`` evaluated with
``Fraction``s, and ranks come from ``Fraction`` elimination: the modular
gradient kernel must give the same rank at every sample point, for every
Jacobian it ranks.  For sample points, each solve stage is solved by
``Fraction`` Gauss-Jordan elimination and every check is a
``DiffPoly.evaluate``: the fraction-free sampler must give the same points.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystaljet import jets
from crystaljet.corpus import mhd_system
from crystaljet.data import data_path
from crystaljet.diffpoly import DiffPoly, jet, xvar
from crystaljet.jets import (
    MAX_SAMPLE_ATTEMPTS,
    MODULUS,
    EquationParser,
    NoGenericPoint,
    cartan_distribution_dimension,
    load_system,
    prolong_system,
    rank_at_point,
    sample_points,
    symbol_report,
)

PDE_FILES = (
    "continuity_e1.pde",
    "dalembert.pde",
    "heat.pde",
    "pressure_e2.pde",
    "table4_component.pde",
    "tricomi.pde",
    "uxx_uyy.pde",
)


# ---------------------------------------------------------------------------
# the exact-Q oracle
# ---------------------------------------------------------------------------


def exact_rank(matrix) -> int:
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, rows):
            if m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def exact_ranks(rows_of_polys, points):
    return [exact_rank([[p.evaluate(pt) for p in row] for row in rows_of_polys])
            for pt in points]


def jacobian(polys, columns):
    return [[p.partial(v) for v in columns] for p in polys]


def all_jets(s, k):
    return [jet(j, mu) for j in range(s.m) for o in range(k + 1)
            for mu in combinations_with_replacement(range(s.n), o)]


def oracle_symbol_ranks(s, seed):
    """Exact ranks, in the order symbol_report ranks its Jacobians: the top
    order, each nonempty g^(i), all jets, then the first prolongation's top
    order and all jets; each at every sample point."""
    k = s.order
    top = s.top_variables(k)
    points = sample_points(s, seed=seed)
    out = exact_ranks(jacobian(s.equations, top), points)
    for i in range(s.n + 1):
        cols = [v for v in top if all(d >= i for d in v[2])]
        if cols:
            out += exact_ranks(jacobian(s.equations, cols), points)
    out += exact_ranks(jacobian(s.equations, all_jets(s, k)), points)
    prolonged = prolong_system(s, 1)
    ppoints = sample_points(prolonged, seed=seed)
    out += exact_ranks(jacobian(prolonged.equations, prolonged.top_variables(k + 1)), ppoints)
    out += exact_ranks(jacobian(prolonged.equations, all_jets(s, k + 1)), ppoints)
    return out


def oracle_contact_ranks(s, seed):
    """Exact ranks of the symbolic tangency rows at every sample point."""
    k = s.order
    top = s.top_variables(k)
    lifted_vars = set()
    rows = []
    for eq in s.equations:
        jets_low = [v for v in eq.jet_variables() if len(v[2]) <= k - 1]
        row = []
        for alpha in range(s.n):
            coeff = eq.partial(xvar(alpha))
            for v in jets_low:
                lifted = jet(v[1], v[2] + (alpha,))
                lifted_vars.add(lifted)
                coeff = coeff + DiffPoly.variable(lifted) * eq.partial(v)
            row.append(coeff)
        rows.append(row + [eq.partial(v) for v in top])
    points = sample_points(s, seed=seed, extra_vars=lifted_vars)
    return exact_ranks(rows, points)


@pytest.fixture
def recorded_ranks(monkeypatch):
    ranks = []

    def recording(rows):
        r = rank_at_point(rows)
        ranks.append(r)
        return r

    monkeypatch.setattr(jets, "rank_at_point", recording)
    return ranks


@pytest.mark.parametrize("name", PDE_FILES)
@pytest.mark.parametrize("seed", [jets.DEFAULT_SEED, 7])
def test_symbol_report_ranks_match_exact_oracle(name, seed, recorded_ranks):
    s = load_system(str(data_path(name)))
    rep = symbol_report(s, seed=seed)
    expected = oracle_symbol_ranks(s, seed)
    assert recorded_ranks == expected
    assert rep.rank_samples == expected[:jets.SAMPLE_COUNT]
    best = max(rep.rank_samples)
    assert rep.inconsistent_rank == (2 * rep.rank_samples.count(best) <= jets.SAMPLE_COUNT)


# equations below the declared order have no top-order symbol, so their
# tangency rows live in the horizontal columns alone, where the lifted jets
# decide the rank
LOWER_ORDER = {"independent": ["x", "y"], "dependent": ["u"], "order": 2,
               "equations": ["u_x", "u_y + u"]}


@pytest.mark.parametrize("name", PDE_FILES + ("lower-order",))
@pytest.mark.parametrize("seed", [jets.DEFAULT_SEED, 7])
def test_contact_ranks_match_exact_oracle(name, seed, recorded_ranks):
    s = load_system(LOWER_ORDER if name == "lower-order" else str(data_path(name)))
    dim = cartan_distribution_dimension(s, seed=seed)
    expected = oracle_contact_ranks(s, seed)
    assert recorded_ranks == expected
    assert dim == s.n + len(s.top_variables()) - max(expected)


def test_coefficients_that_vanish_mod_p_keep_their_rank():
    # both equations have rank 1 over Q; read mod p without scaling to
    # coprime integers, the first would vanish and the second would have a
    # coefficient with no inverse
    for equation in (f"{MODULUS}*u_x", f"u_x/{MODULUS} + u_y"):
        s = load_system({"independent": ["x", "y"], "dependent": ["u"], "order": 1,
                         "equations": [equation]})
        assert symbol_report(s).generic_rank == 1, equation
        assert cartan_distribution_dimension(s) == 3, equation


# ---------------------------------------------------------------------------
# properties of the kernel
# ---------------------------------------------------------------------------

VARIABLES = [xvar(0), xvar(1), jet(0, ()), jet(0, (0,)), jet(0, (1,)), jet(1, ()),
             jet(1, (0, 1)), jet(1, (1, 1))]

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
coefficients = st.builds(Fraction, st.integers(-(2**70), 2**70).filter(bool),
                         st.integers(1, 2**66))
monomials = st.lists(st.tuples(st.sampled_from(VARIABLES), st.integers(1, 4)),
                     max_size=4, unique_by=lambda t: t[0])
polys = st.dictionaries(monomials.map(lambda m: tuple(sorted(m))), coefficients,
                        max_size=6).map(DiffPoly)
points = st.fixed_dictionaries({v: fractions for v in VARIABLES})


def reduce(q: Fraction) -> int:
    return q.numerator * pow(q.denominator, -1, MODULUS) % MODULUS


# degree 8: a monomial in all eight variables, and one in two of them
DEGREE_8 = DiffPoly({tuple(sorted((v, 1) for v in VARIABLES)): Fraction(-7, 3),
                     ((jet(1, (1, 1)), 5), (xvar(0), 3)): Fraction(2)})


@settings(max_examples=200, deadline=None)
@given(polys, points)
@example(DEGREE_8, {v: Fraction(2 * i + 1, i + 2) for i, v in enumerate(VARIABLES)})
def test_gradient_is_reduced_partial_derivative(p, pt):
    # the kernel scales each polynomial to coprime integer coefficients,
    # which scales its Jacobian row and changes no rank
    coeffs = list(p.terms.values())
    scaled = p * Fraction(lcm(*(c.denominator for c in coeffs)),
                          gcd(*(c.numerator for c in coeffs)) or 1)
    assert all(c.denominator == 1 for c in scaled.terms.values())
    (grad,) = jets._gradients([jets._ScaledPoly(p)], jets._reduce_point(pt))
    for v in VARIABLES:
        assert grad.get(v, 0) == reduce(scaled.partial(v).evaluate(pt)), v


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          max_size=6)))
def test_rank_mod_p_is_exact_rank_for_small_entries(matrix):
    # every minor is below 6! * 9^6 < p, so no nonzero minor vanishes mod p
    reduced = [[x % MODULUS for x in row] for row in matrix]
    assert rank_at_point(reduced) == exact_rank([[Fraction(x) for x in row] for row in matrix])


# ---------------------------------------------------------------------------
# sample points against the Fraction oracle
# ---------------------------------------------------------------------------


def oracle_solve_stage(eqs, pivots, point):
    """Solve the stage's equations for its pivots by Fraction Gauss-Jordan
    elimination; None when a column has no pivot."""
    idx = {v: i for i, v in enumerate(pivots)}
    k = len(pivots)
    aug = []
    for eq in eqs:
        row = [Fraction(0)] * (k + 1)
        for mono, c in eq.terms.items():
            val = c
            col = k
            for v, e in mono:
                if v in idx:
                    col = idx[v]
                else:
                    val *= point[v] ** e
            row[col] += val
        aug.append(row[:k] + [-row[k]])
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return {pivots[i]: aug[i][k] for i in range(k)}


def oracle_sample_points(s, polys, count=jets.SAMPLE_COUNT, seed=jets.DEFAULT_SEED,
                         extra_vars=()):
    """The points and the rejection counts of the Fraction sampler, which
    stops after MAX_SAMPLE_ATTEMPTS draws."""
    rng = random.Random(seed)
    needed = set(extra_vars)
    for p in list(polys) + list(s.exclusions):
        needed |= p.variables()
    parser = EquationParser(s.independent, s.dependent)
    stages = []
    for stage in s.solve_stages:
        eqs = [s.equations[i] for i, _ in stage]
        stages.append((eqs, [jets._resolve_token(parser, tok) for _, tok in stage]))
        for eq in eqs:
            needed |= eq.variables()
    pivot_set = {v for _, pivots in stages for v in pivots}
    free = sorted(v for v in needed if v not in pivot_set)
    rejections = dict.fromkeys(jets.REJECTION_REASONS, 0)
    points = []
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        if len(points) == count:
            break
        point = {v: Fraction(rng.randint(-97, 97), rng.randint(1, 97)) for v in free}
        reason = None
        for eqs, pivots in stages:
            sol = oracle_solve_stage(eqs, pivots, point)
            if sol is None:
                reason = "singular stage"
                break
            point.update(sol)
        if reason is None:
            if any(q.denominator % MODULUS == 0 for q in point.values()):
                reason = "denominator 0 mod p"
            elif any(e.evaluate(point) == 0 for e in s.exclusions):
                reason = "exclusion"
            elif s.solve_stages and any(e.evaluate(point) != 0 for e in s.equations):
                reason = "off locus"
        if reason is None:
            points.append(point)
        else:
            rejections[reason] += 1
    return points, rejections


def lifted_jets(s):
    """The extra variables cartan_distribution_dimension samples."""
    return {jet(v[1], v[2] + (alpha,)) for eq in s.equations
            for v in eq.jet_variables() if len(v[2]) < s.order for alpha in range(s.n)}


@pytest.mark.parametrize("boundary", [False, True])
@pytest.mark.parametrize("seed", [1, 3, 7, jets.DEFAULT_SEED])
def test_mhd_points_match_fraction_oracle(boundary, seed):
    s = mhd_system(boundary=boundary)
    extra = lifted_jets(s)
    points = sample_points(s, seed=seed, extra_vars=extra)
    expected, _ = oracle_sample_points(s, s.equations, seed=seed, extra_vars=extra)
    assert points == expected


@pytest.mark.parametrize("name", PDE_FILES)
def test_pde_points_match_fraction_oracle(name):
    s = load_system(str(data_path(name)))
    for system in (s, prolong_system(s, 1)):
        points = sample_points(system)
        assert points == oracle_sample_points(system, system.equations)[0]


def test_staged_document_points_match_fraction_oracle():
    s = load_system({
        "independent": ["x", "y"],
        "dependent": ["u", "w"],
        "order": 1,
        "equations": ["u_x - 3", "w_y - u_x*w_x"],
        "solve_stages": [[[0, "u_x"]], [[1, "w_y"]]],
    })
    points = sample_points(s, count=3, seed=11)
    assert points == oracle_sample_points(s, s.equations, count=3, seed=11)[0]


# the 2 x 2 stage has determinant -t*y, which vanishes at about one draw in
# a hundred; where x = 0 its elimination swaps rows
SOMETIMES_SINGULAR = {
    "independent": ["t", "x", "y"],
    "dependent": ["u"],
    "order": 1,
    "equations": ["x*u_x + t*u_y - 1", "y*u_x - u"],
    "solve_stages": [[[0, "u_x"], [1, "u_y"]]],
}


def test_singular_stage_rejections_match_fraction_oracle():
    s = load_system(SOMETIMES_SINGULAR)
    count, seed = 20, 42
    expected, rejections = oracle_sample_points(s, s.equations, count=count, seed=seed)
    # the seed is chosen so that a draw is singular and a point needs the swap
    assert rejections["singular stage"] > 0 and len(expected) == count
    assert any(pt[xvar(1)] == 0 for pt in expected)
    assert sample_points(s, count=count, seed=seed) == expected


def test_always_singular_stage_counts_every_attempt():
    # the pivot u_x does not occur in its equation
    s = load_system({"independent": ["x"], "dependent": ["u"], "order": 1,
                     "equations": ["u - x"], "solve_stages": [[[0, "u_x"]]]})
    with pytest.raises(NoGenericPoint) as info:
        sample_points(s)
    assert info.value.attempts == MAX_SAMPLE_ATTEMPTS
    assert info.value.rejections == {"singular stage": MAX_SAMPLE_ATTEMPTS,
                                     "denominator 0 mod p": 0, "exclusion": 0,
                                     "off locus": 0}
    assert oracle_sample_points(s, s.equations)[1] == info.value.rejections


@settings(max_examples=200, deadline=None)
@given(polys, points, st.booleans())
def test_integer_zero_test_is_exact(p, pt, on_locus):
    # shifting by the value at the point puts the point on the locus
    if on_locus:
        p = p - p.evaluate(pt)
    value = p.evaluate(pt)
    scaled = jets._ScaledPoly(p).values(pt)[0]
    assert jets._ScaledPoly(p).vanishes_at(pt) == (value == 0)
    # the scale is positive, so the sign is kept as well
    assert (scaled > 0) - (scaled < 0) == (value > 0) - (value < 0)

"""The modular gradient kernel of the jet layer against exact arithmetic.

The oracle here is the exact-Q path the kernel replaced: every Jacobian
entry is a symbolic ``partial`` evaluated with ``Fraction``s, and ranks
come from ``Fraction`` elimination.  The kernel must give the same rank at
every sample point, for every Jacobian it ranks.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaljet import jets
from crystaljet.data import data_path
from crystaljet.diffpoly import DiffPoly, jet, xvar
from crystaljet.jets import (
    MODULUS,
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
    points = sample_points(s, s.equations, seed=seed)
    out = exact_ranks(jacobian(s.equations, top), points)
    for i in range(s.n + 1):
        cols = [v for v in top if all(d >= i for d in v[2])]
        if cols:
            out += exact_ranks(jacobian(s.equations, cols), points)
    out += exact_ranks(jacobian(s.equations, all_jets(s, k)), points)
    prolonged = prolong_system(s, 1)
    ppoints = sample_points(prolonged, prolonged.equations, seed=seed)
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
    points = sample_points(s, s.equations, seed=seed, extra_vars=lifted_vars)
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

VARIABLES = [xvar(0), xvar(1), jet(0, ()), jet(0, (0,)), jet(1, (0, 1)), jet(1, (1, 1))]

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


@settings(max_examples=200, deadline=None)
@given(polys, points)
def test_gradient_is_reduced_partial_derivative(p, pt):
    # the kernel scales each polynomial to coprime integer coefficients,
    # which scales its Jacobian row and changes no rank
    coeffs = list(p.terms.values())
    scaled = p * Fraction(lcm(*(c.denominator for c in coeffs)),
                          gcd(*(c.numerator for c in coeffs)) or 1)
    assert all(c.denominator == 1 for c in scaled.terms.values())
    (grad,) = jets._gradients(jets._compile([p]), jets._reduce_point(pt))
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

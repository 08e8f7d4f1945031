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
from crystaljet.abelian import bareiss
from crystaljet.corpus import metric_flow_system, mhd_system
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
    """Exact ranks, one list per rank_at_point call of symbol_report: at
    each sample point, g^(n), ..., g^(1), the top order and all jets, each
    column set ranked on its own; then, at each point of the first
    prolongation, its top order and all jets."""
    k = s.order
    top = s.top_variables(k)
    column_sets = [[v for v in top if all(d >= i for d in v[2])] for i in range(s.n, 0, -1)]
    column_sets += [top, all_jets(s, k)]
    points = sample_points(s, seed=seed)
    per_set = [exact_ranks(jacobian(s.equations, cols), points) for cols in column_sets]
    prolonged = prolong_system(s, 1)
    ppoints = sample_points(prolonged, seed=seed)
    per_set1 = [exact_ranks(jacobian(prolonged.equations, cols), ppoints)
                for cols in (prolonged.top_variables(k + 1), all_jets(s, k + 1))]
    return [list(r) for r in zip(*per_set)] + [list(r) for r in zip(*per_set1)]


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

    def recording(rows, prefixes=()):
        r = rank_at_point(rows, prefixes)
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
    assert len(recorded_ranks) == 2 * jets.SAMPLE_COUNT
    assert recorded_ranks == expected
    assert rep.rank_samples == [r[-2] for r in expected[:jets.SAMPLE_COUNT]]
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
    assert recorded_ranks == [[r] for r in expected]
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
    (grad,) = jets._gradients(jets._compile_partials([jets._ScaledPoly(p)]),
                              jets._reduce_point(pt))
    for v in VARIABLES:
        assert grad.get(v, 0) == reduce(scaled.partial(v).evaluate(pt)), v


def prefix_suffix_gradients(compiled, point):
    """The gradient kernel that compiled partials replaced: per term, the
    product of the other factors of its monomial is its prefix product
    times its suffix product, reduced mod p at every step."""
    out = []
    for poly in compiled:
        grad = {}
        for _, _, coeffs, monos in poly.groups:
            for c, mono in zip(coeffs, monos):
                factors = [point[v] if e == 1 else pow(point[v], e, MODULUS) for v, e in mono]
                suffix = [1] * (len(factors) + 1)
                for j in range(len(factors) - 1, 0, -1):
                    suffix[j] = suffix[j + 1] * factors[j] % MODULUS
                prefix = c % MODULUS
                for i, (v, e) in enumerate(mono):
                    d = prefix * suffix[i + 1]
                    if e > 1:
                        d = d % MODULUS * e * pow(point[v], e - 1, MODULUS)
                    grad[v] = grad.get(v, 0) + d
                    prefix = prefix * factors[i] % MODULUS
        out.append({v: d % MODULUS for v, d in grad.items()})
    return out


CORPUS_BUILDERS = {
    **{name: (lambda name=name: load_system(str(data_path(name)))) for name in PDE_FILES},
    "mhd": mhd_system,
    "mhd boundary": lambda: mhd_system(boundary=True),
    "metric flow": metric_flow_system,
}


@pytest.mark.parametrize("name", CORPUS_BUILDERS)
@pytest.mark.parametrize("seed", [1, 7, jets.DEFAULT_SEED])
def test_compiled_partials_match_prefix_suffix_gradients(name, seed):
    s = CORPUS_BUILDERS[name]()
    systems = (s, prolong_system(s, 1)) if name in PDE_FILES else (s,)
    for system in systems:
        compiled = [jets._ScaledPoly(e) for e in system.equations]
        partials = jets._compile_partials(compiled)
        for pt in sample_points(system, seed=seed, compiled=compiled):
            red = jets._reduce_point(pt)
            assert jets._gradients(partials, red) == prefix_suffix_gradients(compiled, red)


def test_contact_rank_compiles_each_equation_once(monkeypatch):
    # one plain compile per equation and exclusion serves the sampled
    # variables, the check of the exclusions and the gradients (on the MHD
    # model every equation is staged, so no locus check evaluates one); the
    # stage rows are compiled with their pivot columns
    plain = []

    class Counted(jets._ScaledPoly):
        __slots__ = ()

        def __init__(self, poly, columns=None):
            if not columns:
                plain.append(id(poly))
            super().__init__(poly, columns)

    monkeypatch.setattr(jets, "_ScaledPoly", Counted)
    s = mhd_system()
    assert cartan_distribution_dimension(s) == 148
    assert sorted(plain) == sorted(map(id, s.equations + s.exclusions))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), max_size=6),
        st.lists(st.integers(0, cols), max_size=4).map(sorted))))
def test_rank_mod_p_is_exact_rank_for_small_entries(matrix_and_cuts):
    # every minor is below 6! * 9^6 < p, so no nonzero minor vanishes mod p
    matrix, cuts = matrix_and_cuts
    reduced = [[x % MODULUS for x in row] for row in matrix]
    exact = [[Fraction(x) for x in row] for row in matrix]
    assert rank_at_point(reduced, cuts) == (
        [exact_rank([row[:c] for row in exact]) for c in cuts] + [exact_rank(exact)])


def dense_rank_oracle(rows, prefixes=()):
    """The dense elimination mod p that rank_at_point replaced: every row
    below the pivot is rewritten on every column from the pivot on."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        piv = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, MODULUS)
        pivot_row = [x * inv % MODULUS for x in m[rank][col:]]
        for r in range(rank + 1, n_rows):
            row = m[r]
            f = row[col]
            if f:
                row[col:] = [(x - f * y) % MODULUS for x, y in zip(row[col:], pivot_row)]
        pivots.append(col)
    return [sum(p < c for p in pivots) for c in prefixes] + [len(pivots)]


@st.composite
def sparse_residue_matrices(draw):
    """Rows of residues in [0, p), mostly zeros: each row is sparse, all
    zero, or a copy of an earlier row; and sorted column prefixes."""
    cols = draw(st.integers(1, 12))
    residues = st.integers(1, MODULUS - 1) | st.sampled_from([1, 2, MODULUS - 1])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["sparse", "zero", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([0] * cols)
        else:
            entries = draw(st.dictionaries(st.integers(0, cols - 1), residues, max_size=3))
            rows.append([entries.get(j, 0) for j in range(cols)])
    return rows, sorted(draw(st.lists(st.integers(0, cols), max_size=4)))


@settings(max_examples=300, deadline=None)
@given(sparse_residue_matrices())
def test_rank_at_point_matches_the_dense_elimination(rows_and_prefixes):
    rows, prefixes = rows_and_prefixes
    assert rank_at_point(rows, prefixes) == dense_rank_oracle(rows, prefixes)


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
        stages.append((eqs, [parser.lookup(tok) for _, tok in stage]))
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


# equation 2 is solved by no stage: at a staged point it is x*y*u*w*u_y*w_x,
# which vanishes only where a drawn numerator is 0, so most draws are off
# the locus; the stage of w_y is singular where x = 0, and w = -1 is excluded
ONE_UNSTAGED = {
    "independent": ["x", "y"],
    "dependent": ["u", "w"],
    "order": 1,
    "equations": ["u_x - 3", "x*w_y - u_x*w_x", "x*y*u*w*u_y*w_x*(u_x - 2)"],
    "exclusions": ["w + 1"],
    "solve_stages": [[[0, "u_x"]], [[1, "w_y"]]],
}


def test_unstaged_equation_rejections_match_fraction_oracle():
    s = load_system(ONE_UNSTAGED)
    # the seeds are chosen so that every reason but a denominator 0 mod p
    # rejects a draw, in a run that finds its points and in one that does not
    expected, rejections = oracle_sample_points(s, s.equations, count=3, seed=10)
    assert len(expected) == 3
    assert rejections == {"singular stage": 2, "denominator 0 mod p": 0, "exclusion": 1,
                          "off locus": 154}
    assert sample_points(s, count=3, seed=10) == expected
    expected, rejections = oracle_sample_points(s, s.equations, count=50, seed=30)
    assert len(expected) == 7 and rejections["singular stage"] and rejections["exclusion"]
    with pytest.raises(NoGenericPoint) as info:
        sample_points(s, count=50, seed=30)
    assert info.value.attempts == MAX_SAMPLE_ATTEMPTS
    assert info.value.rejections == rejections


# equation 2 is y times equation 0 plus equation 1, so it vanishes wherever
# the stages hold
UNSTAGED_BY_CONSEQUENCE = {
    "independent": ["x", "y"],
    "dependent": ["u", "w"],
    "order": 1,
    "equations": ["u_x - 3", "w_y - u_x*w_x", "y*(u_x - 3) + w_y - u_x*w_x"],
    "solve_stages": [[[0, "u_x"]], [[1, "w_y"]]],
}


def test_an_unstaged_consequence_accepts_every_draw():
    s = load_system(UNSTAGED_BY_CONSEQUENCE)
    expected, rejections = oracle_sample_points(s, s.equations, count=5, seed=3)
    assert rejections == dict.fromkeys(jets.REJECTION_REASONS, 0)
    assert sample_points(s, count=5, seed=3) == expected


@pytest.fixture
def locus_checks(monkeypatch):
    """The compiled polynomials whose vanishes_at is called, in order."""
    evaluated = []
    vanishes_at = jets._ScaledPoly.vanishes_at

    def recording(self, point):
        evaluated.append(self)
        return vanishes_at(self, point)

    monkeypatch.setattr(jets._ScaledPoly, "vanishes_at", recording)
    return evaluated


@pytest.mark.parametrize("boundary", [False, True])
def test_staged_mhd_sampling_evaluates_no_equation(boundary, locus_checks):
    # all 17 (or 32) equations are staged, so each vanishes by construction
    s = mhd_system(boundary=boundary)
    compiled = [jets._ScaledPoly(e) for e in s.equations]
    points = sample_points(s, extra_vars=lifted_jets(s), compiled=compiled)
    assert len(points) == jets.SAMPLE_COUNT
    assert not any(p is c for p in locus_checks for c in compiled)


def test_only_the_unstaged_equation_is_evaluated(locus_checks):
    s = load_system(ONE_UNSTAGED)
    compiled = [jets._ScaledPoly(e) for e in s.equations]
    points = sample_points(s, count=3, seed=10, compiled=compiled)
    _, rejections = oracle_sample_points(s, s.equations, count=3, seed=10)
    # once per draw that passes the stages and the exclusion: the accepted
    # draws and those the locus check rejects
    equations = [p for p in locus_checks if any(p is c for c in compiled)]
    assert len(equations) == len(points) + rejections["off locus"] == 157
    assert all(p is compiled[2] for p in equations)


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


def bareiss_solution(rows, k):
    """The unique solution that bareiss leaves in k x (k+1) rows, or None
    when they are singular."""
    rows = [list(row) for row in rows]
    if bareiss(rows, k) is None:
        return None
    return [Fraction(-row[k], row[i]) for i, row in enumerate(rows)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.tuples(st.lists(st.integers(-20, 20), min_size=k + 1, max_size=k + 1),
              st.integers(1, 10**6)),
    min_size=k, max_size=k)))
def test_primitive_rows_keep_the_stage_solution(rows_and_scales):
    # a stage row is a primitive row times a positive integer, as the
    # compiled rows are; dividing out the content changes neither the
    # verdict nor the Fraction solution
    k = len(rows_and_scales)
    rows = [[x * scale for x in row] for row, scale in rows_and_scales]
    primitive = [jets._primitive(list(row)) for row in rows]
    assert all(gcd(*row) in (0, 1) for row in primitive)
    assert bareiss_solution(primitive, k) == bareiss_solution(rows, k)


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
    compiled = jets._ScaledPoly(p)
    scaled = compiled.values(*jets._scaled(pt, compiled.reads))[0]
    assert compiled.vanishes_at(pt) == (value == 0)
    # the scale is positive, so the sign is kept as well
    assert (scaled > 0) - (scaled < 0) == (value > 0) - (value < 0)

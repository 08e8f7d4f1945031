import hashlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaljet import diffpoly, jets
from crystaljet.corpus import metric_flow_system, mhd_system
from crystaljet.data import data_path, load_document
from crystaljet.diffpoly import (
    MAX_COEFF_BITS,
    MAX_PRODUCT_WORK,
    MAX_TERMS,
    DiffOperator,
    DiffPoly,
    jet,
    par,
    xvar,
)
from crystaljet.jets import (
    MAX_JET_COORDINATES,
    MAX_NESTING,
    MAX_SAMPLE_ATTEMPTS,
    EquationParser,
    NoGenericPoint,
    ParseError,
    PdeSystem,
    cartan_distribution_dimension,
    formal_integrability_check,
    load_system,
    prolong_system,
    prolongation_dimension_formula,
    sample_points,
    symbol_report,
    verify_polynomial_solution,
)


def corpus(name):
    return load_system(str(data_path(name)))


def random_poly(rng, n_dirs=2, n_deps=1, max_order=2, terms=4):
    poly = DiffPoly.zero()
    for _ in range(terms):
        mono = DiffPoly.constant(Fraction(rng.randint(-5, 5)))
        for _ in range(rng.randint(0, 3)):
            kind = rng.random()
            if kind < 0.3:
                v = xvar(rng.randrange(n_dirs))
            else:
                order = rng.randint(0, max_order)
                mu = tuple(sorted(rng.randrange(n_dirs) for _ in range(order)))
                v = jet(rng.randrange(n_deps), mu)
            mono = mono * DiffPoly.variable(v)
        poly = poly + mono
    return poly


def test_total_derivative_basics():
    u = DiffPoly.variable(jet(0, ()))
    assert u.total_derivative(0) == DiffPoly.variable(jet(0, (0,)))
    # Leibniz on u * u_y
    uy = DiffPoly.variable(jet(0, (1,)))
    lhs = (u * uy).total_derivative(0)
    rhs = DiffPoly.variable(jet(0, (0,))) * uy + u * DiffPoly.variable(jet(0, (0, 1)))
    assert lhs == rhs


def test_total_derivative_commutation_and_leibniz_random():
    rng = random.Random(23)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        assert p.total_derivative(0).total_derivative(1) == p.total_derivative(1).total_derivative(0)
        prod = (p * q).total_derivative(0)
        assert prod == p.total_derivative(0) * q + p * q.total_derivative(0)


def test_heat_prolongation_terms():
    heat = corpus("heat.pde")
    (eq,) = heat.equations
    dt = eq.total_derivative(0)
    assert dt.render(heat.independent, heat.dependent) == "u_tt - u_txx"
    prolonged = prolong_system(heat, 1)
    rendered = set(prolonged.render_equations())
    assert "u_tt - u_txx" in rendered and "u_tx - u_xxx" in rendered
    assert prolonged.order == 3


def test_prolongation_composition():
    heat = corpus("heat.pde")
    once_then_twice = prolong_system(prolong_system(heat, 1), 2)
    all_at_once = prolong_system(heat, 3)
    assert set(once_then_twice.equations) == set(all_at_once.equations)
    assert prolong_system(heat, 0) is heat


def test_symbol_report_continuity():
    rep = symbol_report(corpus("continuity_e1.pde"))
    assert rep.ambient_jet_dim == 15
    assert rep.dim_e == 14
    assert rep.g_dims == [8, 5, 2, 0]
    assert rep.characters == [3, 3, 2]
    assert rep.dim_g_plus_1 == 15
    assert rep.dim_e_plus_1 == 29
    assert not rep.inconsistent_rank


def test_symbol_report_pressure():
    rep = symbol_report(corpus("pressure_e2.pde"))
    assert (rep.dim_e, rep.g_dims[0], rep.g_dims[1], rep.g_dims[2]) == (12, 5, 2, 0)
    assert rep.dim_g_plus_1 == 7 and rep.dim_e_plus_1 == 19


def test_symbol_report_table4():
    rep = symbol_report(corpus("table4_component.pde"))
    assert rep.ambient_jet_dim == 11
    assert (rep.dim_e, rep.g_dims[0], rep.dim_g_plus_1, rep.dim_e_plus_1) == (8, 3, 3, 11)


def test_symbol_report_trivial_equation():
    s = load_system(
        {"independent": ["x"], "dependent": ["u"], "order": 1, "equations": ["u_x"]}
    )
    rep = symbol_report(s)
    # alpha^1 = dim g^(0) - dim g^(1) = 0 here; the closed prolongation
    # formula then gives dim(p_1) = (n + m) + 0 = 2 = dim E, exactly right
    assert rep.g_dims[0] == 0 and rep.characters == [0]
    assert prolongation_dimension_formula(2, rep.characters, 0) == rep.dim_e


def with_parameters(name, **values):
    """A corpus system with some of its parameters given other values."""
    doc = load_document(data_path(name))
    return load_system({**doc, "parameters": {**doc["parameters"], **values}})


def test_coefficient_instantiations_agree():
    base = symbol_report(corpus("continuity_e1.pde"))
    other = symbol_report(with_parameters("continuity_e1.pde", g1=1, g2=2, g3=3))
    assert base.g_dims == other.g_dims and base.dim_e == other.dim_e
    assert base.dim_e_plus_1 == other.dim_e_plus_1
    pressure_alt = symbol_report(with_parameters("pressure_e2.pde", c1=5, c2=0, c3=2, b=7))
    assert pressure_alt.dim_e == 12 and pressure_alt.dim_e_plus_1 == 19


def test_involutivity_verdicts():
    ledger = formal_integrability_check(corpus("continuity_e1.pde"))
    assert ledger.involutive and ledger.dim_g_plus_1 == 15 and ledger.filtration_sum == 15
    ledger = formal_integrability_check(corpus("pressure_e2.pde"))
    assert ledger.involutive and ledger.dim_g_plus_1 == 7
    assert formal_integrability_check(corpus("table4_component.pde")).involutive
    ledger = formal_integrability_check(corpus("uxx_uyy.pde"))
    assert not ledger.involutive  # classic failure at order 2


def test_formal_integrability():
    for name, expected in [
        ("continuity_e1.pde", True),
        ("pressure_e2.pde", True),
        ("table4_component.pde", True),
        ("heat.pde", True),
        ("uxx_uyy.pde", False),
    ]:
        verdict = formal_integrability_check(corpus(name))
        assert verdict.passed == expected, name
        if expected:
            assert verdict.dim_e_plus_1 == verdict.dim_e + verdict.dim_g_plus_1


def test_prolongation_formula():
    rep = symbol_report(corpus("continuity_e1.pde"))
    base = rep.n + rep.m  # order-0 jet dimension
    assert prolongation_dimension_formula(base, rep.characters, 0) == 14
    assert prolongation_dimension_formula(base, rep.characters, 1) == 29
    rep2 = symbol_report(corpus("pressure_e2.pde"))
    first_order_dim = 3 + 1 * 4  # jets of order <= 1
    assert prolongation_dimension_formula(first_order_dim, rep2.characters, 0) == 12
    assert prolongation_dimension_formula(first_order_dim, rep2.characters, 1) == 19
    rep4 = symbol_report(corpus("table4_component.pde"))
    assert prolongation_dimension_formula(5, rep4.characters, 1) == 11


def test_formula_matches_direct_prolongation_for_corpus():
    for name, base in [
        ("continuity_e1.pde", 6),
        ("pressure_e2.pde", 7),
        ("table4_component.pde", 5),
        ("heat.pde", 2 + 1 * 3),
    ]:
        s = corpus(name)
        verdict = formal_integrability_check(s)
        if not verdict.passed:
            continue
        rep = symbol_report(s)
        assert prolongation_dimension_formula(base, rep.characters, 1) == rep.dim_e_plus_1, name


def test_symbol_filtration_monotone_and_characters():
    for name in ("continuity_e1.pde", "pressure_e2.pde", "table4_component.pde", "dalembert.pde"):
        rep = symbol_report(corpus(name))
        for a, b in zip(rep.g_dims, rep.g_dims[1:]):
            assert a >= b
        assert sum(rep.characters) == rep.g_dims[0] - rep.g_dims[-1]


def test_rank_monotone_under_adding_equations():
    s = corpus("continuity_e1.pde")
    doubled = PdeSystem(
        independent=s.independent,
        dependent=s.dependent,
        order=s.order,
        equations=s.equations
        + [DiffPoly.variable(jet(0, (0,))) + DiffPoly.variable(jet(1, (1,)))],
    )
    assert symbol_report(doubled).generic_rank >= symbol_report(s).generic_rank


def test_cartan_distribution_dimensions():
    assert cartan_distribution_dimension(corpus("table4_component.pde")) == 5
    # unconstrained first-order jet space with n = 2, m = 1: full contact
    free = load_system(
        {"independent": ["x", "y"], "dependent": ["u"], "order": 1,
         "equations": ["0*u_x"]}
    )
    # a zero equation imposes no constraint: 2 + 2 = 4
    assert cartan_distribution_dimension(free) == 4
    assert cartan_distribution_dimension(corpus("heat.pde")) == 4


def test_exclusions_respected_in_sampling():
    s = corpus("table4_component.pde")
    pts = sample_points(s)
    for pt in pts:
        for excl in s.exclusions:
            assert excl.evaluate(pt) != 0
    impossible = PdeSystem(
        independent=["x"],
        dependent=["u"],
        order=1,
        equations=[DiffPoly.variable(jet(0, (0,)))],
        exclusions=[DiffPoly.zero()],
    )
    with pytest.raises(NoGenericPoint) as info:
        sample_points(impossible)
    assert info.value.attempts == MAX_SAMPLE_ATTEMPTS
    assert info.value.rejections["exclusion"] == MAX_SAMPLE_ATTEMPTS
    assert f"after {MAX_SAMPLE_ATTEMPTS} attempts" in str(info.value)


def test_parser_rationals_cleared():
    parser = EquationParser(["x", "y"], ["u1", "u2", "u3"])
    u2y = DiffPoly.variable(jet(1, (1,)))
    cleared = parser.parse_polynomial(
        "u1_x - u1^2/u2_y^2", exclusions=[u2y]
    )
    expect = DiffPoly.variable(jet(0, (0,))) * u2y ** 2 - DiffPoly.variable(jet(0, ())) ** 2
    assert cleared == expect
    with pytest.raises(ParseError):
        parser.parse_polynomial("1/u1_x", exclusions=[u2y])


def test_parser_clears_repeated_exclusion_factors():
    parser = EquationParser(["x"], ["u"])
    u, ux = DiffPoly.variable(jet(0, ())), DiffPoly.variable(jet(0, (0,)))
    assert parser.parse_polynomial("u_x/u^9 - 1", exclusions=[u]) == ux - u ** 9
    with pytest.raises(ParseError):
        parser.parse_polynomial("u_x/(u^9 + 1)", exclusions=[u])


def test_load_system_from_one_line_document():
    s = load_system('{independent: [x], dependent: [u], order: 1, equations: ["u_x"]}')
    assert s.equations == [DiffPoly.variable(jet(0, (0,)))]
    with pytest.raises(ValueError):
        load_system("no-such-system.pde")


@pytest.mark.parametrize("fields, message", [
    ({"dependent": ["u", "u"]}, "the 'dependent' field names 'u' twice"),
    ({"independent": ["x", "x"]}, "the 'independent' field names 'x' twice"),
    ({"dependent": ["u", "x"]}, "the 'dependent' field names 'x', already in 'independent'"),
    ({"parameters": {"x": 1}}, "the 'parameters' field names 'x', already in 'independent'"),
    ({"parameters": {"a": 1, "u": 2}}, "the 'parameters' field names 'u', already in 'dependent'"),
])
def test_load_system_refuses_a_name_declared_twice(fields, message):
    doc = {"independent": ["x"], "dependent": ["u"], "order": 1, "equations": ["u_x"], **fields}
    with pytest.raises(ParseError) as info:
        load_system(doc)
    assert str(info.value) == message


def test_load_system_refuses_a_repeated_key():
    with pytest.raises(ValueError, match="^the key 'a' is repeated on line 4$"):
        load_system("independent: [x]\ndependent: [u]\norder: 1\n"
                    "parameters: {a: 1, a: 2}\nequations: [u_x - a]\n")
    with pytest.raises(ValueError, match="^the key 'order' is repeated on line 4$"):
        load_system("independent: [x]\ndependent: [u]\norder: 1\norder: 2\nequations: [u_x]\n")


@pytest.mark.parametrize("fields, message", [
    ({"equations": [3]}, "entry 0 of the 'equations' field must be a string, not 3"),
    ({"equations": "u_x"}, "the 'equations' field must be a list, not str"),
    ({"exclusions": ["u", None]}, "entry 1 of the 'exclusions' field must be a string, not None"),
    ({"independent": [1]}, "entry 0 of the 'independent' field must be a string, not 1"),
    ({"order": "one"}, "the 'order' field must be a nonnegative integer, not 'one'"),
    ({"order": -1}, "the 'order' field must be a nonnegative integer, not -1"),
    ({"order": True}, "the 'order' field must be a nonnegative integer, not True"),
    ({"parameters": ["a"]}, "the 'parameters' field must be a mapping from names to numbers"),
    ({"parameters": {"a": "x"}}, "the 'parameters' field gives 'a' the value 'x', not a number"),
    ({"parameters": {"a": [1]}}, "the 'parameters' field gives 'a' the value [1], not a number"),
    ({"solve_stages": [["u_x"]]},
     "solve stage 0 of the 'solve_stages' field: 'u_x' is not an [equation index, pivot] pair"),
    ({"solve_stages": [[[0, "u_x"]], [["0", "u_x"]]]},
     "solve stage 1 of the 'solve_stages' field: ['0', 'u_x'] is not an [equation index, pivot] pair"),
    ({"solve_stages": [0]}, "entry 0 of the 'solve_stages' field must be a list, not 0"),
])
def test_load_system_names_a_malformed_field(fields, message):
    doc = {"independent": ["x"], "dependent": ["u"], "order": 1, "equations": ["u_x"], **fields}
    with pytest.raises(ParseError) as info:
        load_system(doc)
    assert str(info.value) == message


def test_a_declared_order_is_bounded_by_its_jet_space():
    # two independents and one dependent: order 138 has 2 + C(141, 2) = 9 872
    # jet coordinates at order 139, order 139 has 10 013 at order 140
    doc = {"independent": ["x", "y"], "dependent": ["u"], "equations": ["u_x"]}
    assert load_system({**doc, "order": 138}).jet_space_dim(139) == 9872 <= MAX_JET_COORDINATES
    for order in (139, 600, 10**12):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"^the 'order' field is too large: .*order {order} "):
            load_system({**doc, "order": order})
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("nested", [
    lambda d: "(" * d + "u_x" + ")" * d,
    lambda d: "u*" + "-" * d + "u_x",
    lambda d: "-(" * d + "u" + ")" * d,
], ids=["parentheses", "prefix-minus", "both"])
def test_nesting_is_bounded(nested):
    parser = EquationParser(["x"], ["u"])
    parser.parse_polynomial(nested(MAX_NESTING))
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match=f"^expression nested deeper than MAX_NESTING = {MAX_NESTING} levels$"):
            parser.parse_polynomial(nested(depth))


def _sum(name, count):
    return "(" + "+".join(f"{name}^{i}" for i in range(count)) + ")"


def test_a_product_is_bounded_before_it_is_expanded():
    parser = EquationParser(["x"], ["u"])
    assert MAX_TERMS == 100 * 100
    assert len(parser.parse_polynomial(f"{_sum('x', 100)}*{_sum('u', 100)}").terms) == MAX_TERMS
    past = f"a product could expand to {MAX_TERMS + 1} terms, over MAX_TERMS = {MAX_TERMS}"
    for text in (f"{_sum('x', 73)}*{_sum('u', 137)}",  # 73 * 137 = MAX_TERMS + 1
                 f"u_x*{_sum('x', 73)}*{_sum('u', 137)}",  # after a flat product
                 f"1/{_sum('x', 73)} + 1/{_sum('u', 137)}"):  # a common denominator
        with pytest.raises(ParseError, match=f"^{past}$"):
            parser.parse_polynomial(text)


def test_a_power_is_bounded_before_it_is_expanded(monkeypatch):
    parser = EquationParser(["x"], ["u"])
    # C(4 + 5 - 1, 5) = 56 monomials of degree 5 in the 4 terms
    monkeypatch.setattr(diffpoly, "MAX_TERMS", 56)
    assert len(parser.parse_polynomial("(u+u_x+x+1)^5").terms) == 56
    monkeypatch.setattr(diffpoly, "MAX_TERMS", 55)
    with pytest.raises(ParseError, match="^a power could expand to 56 terms, over MAX_TERMS = 55$"):
        parser.parse_polynomial("(u+u_x+x+1)^5")
    monkeypatch.undo()
    start = time.perf_counter()
    refused = f"^a power could expand to 12341 terms, over MAX_TERMS = {MAX_TERMS}$"
    with pytest.raises(ParseError, match=refused):
        parser.parse_polynomial("(u+u_x+x+1)^40")
    assert time.perf_counter() - start < 1
    # a power of one term, or to the first power, expands nothing
    assert parser.parse_polynomial("(2*u_x)^20000") == parser.parse_polynomial("2^20000*u_x^20000")
    assert parser.parse_polynomial(f"{_sum('x', MAX_TERMS + 1)}^1").terms


def test_a_literal_power_is_bounded_before_it_is_formed(monkeypatch):
    parser = EquationParser(["x"], ["u"], parameters={"a": "3/7"})
    assert MAX_COEFF_BITS == 100_000
    past = (f"^a power could form a {MAX_COEFF_BITS + 1}-bit coefficient,"
            f" over MAX_COEFF_BITS = {MAX_COEFF_BITS}$")
    # 1000 has 10 bits and 2047 has 11: 10 * 10000 = MAX_COEFF_BITS and
    # 11 * 9091 = MAX_COEFF_BITS + 1, in the flat product, after a factor
    # that is not flat, under a division and inside parentheses
    for template in ("{}*u_x", "(u_x+1)^1*{}", "u_x/{}", "({})"):
        assert parser.parse_polynomial(template.format("1000^10000")).terms
        with pytest.raises(ParseError, match=past):
            parser.parse_polynomial(template.format("2047^9091"))
    assert parser.parse_polynomial("(1000*u_x)^10000").terms
    with pytest.raises(ParseError, match=past):
        parser.parse_polynomial("(2047*u_x)^9091")
    # the bound is k times the bits of max(S, D), with D the lcm of the
    # denominators and S the sum of |c*D|: a = 3/7 (D = 7); a*u_x + 1
    # (D = 7, S = 3 + 7); the numerator 3*u_x + 2 and the denominator 6 that
    # u_x/2 + 1/3 parses to
    for text, bits in (("a^4", 12), ("(a*u_x + 1)^4", 16), ("(u_x/2 + 1/3)^4", 12)):
        monkeypatch.setattr(diffpoly, "MAX_COEFF_BITS", bits)
        assert parser.parse_polynomial(text).terms
        monkeypatch.setattr(diffpoly, "MAX_COEFF_BITS", bits - 1)
        with pytest.raises(ParseError, match=f"^a power could form a {bits}-bit coefficient,"
                                             f" over MAX_COEFF_BITS = {bits - 1}$"):
            parser.parse_polynomial(text)
    monkeypatch.undo()
    # a power of 0 or of +-1 forms nothing; a variable's power is an exponent
    for text in ("1^3000000*u_x", "(-1)^3000000*u_x", "0^3000000 + u_x", "u_x^3000000"):
        assert parser.parse_polynomial(text).terms


def test_the_work_of_a_product_is_bounded_before_it_is_formed(monkeypatch):
    parser = EquationParser(["x"], ["u"])
    assert MAX_PRODUCT_WORK == 10_000_000
    # (x + u)*(x + 1) is 2 x 2 term pairs of coefficients with 1 + 1 bits on
    # each side; (u_x + 1)^2 squares a base of the same size
    for text, what in (("(x + u)*(x + 1)", "a product"), ("(u_x + 1)^2", "a power")):
        monkeypatch.setattr(diffpoly, "MAX_PRODUCT_WORK", 16)
        assert parser.parse_polynomial(text).terms
        monkeypatch.setattr(diffpoly, "MAX_PRODUCT_WORK", 15)
        with pytest.raises(ParseError, match=f"^{re.escape(what)} could take 16 term-pair"
                                             " coefficient bits, over MAX_PRODUCT_WORK = 15$"):
            parser.parse_polynomial(text)
    monkeypatch.undo()
    # inside MAX_TERMS (10 000 terms) and MAX_COEFF_BITS, but repeated
    # squaring would run for minutes
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^a power could take 78202016 term-pair coefficient"
                                         f" bits, over MAX_PRODUCT_WORK = {MAX_PRODUCT_WORK}$"):
        parser.parse_polynomial("(2*u_x+3)^9999")
    assert time.perf_counter() - start < 1
    # the bounded squaring forms the power that repeated multiplication forms
    base = parser.parse_polynomial("u + u_x/2 + x - 3")
    expected = DiffPoly.constant(1)
    for k in range(14):
        assert parser.parse_polynomial(f"(u + u_x/2 + x - 3)^{k}") == expected
        expected = expected * base


@pytest.mark.parametrize("text", ["u_x ", "u_x\n", " u_x \t\n", "u_x+ 1 ", "(u_x) "])
def test_trailing_whitespace_is_accepted(text):
    parser = EquationParser(["x"], ["u"])
    assert parser.parse_polynomial(text) == parser.parse_polynomial(text.strip())


INDEPENDENT = ["t", "x", "y"]
DEPENDENT = ["u", "v"]
PARAMETERS = ["alpha", "beta"]

_variables = st.one_of(
    st.builds(xvar, st.integers(0, len(INDEPENDENT) - 1)),
    st.builds(par, st.sampled_from(PARAMETERS)),
    st.builds(
        jet,
        st.integers(0, len(DEPENDENT) - 1),
        st.lists(st.integers(0, len(INDEPENDENT) - 1), max_size=3),
    ),
)
_monomials = st.lists(st.tuples(_variables, st.integers(1, 3)), max_size=3)
_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def diff_polys(draw):
    poly = DiffPoly.zero()
    for coeff, mono in draw(st.lists(st.tuples(_coefficients, _monomials), max_size=5)):
        term = DiffPoly.constant(coeff)
        for v, e in mono:
            term = term * DiffPoly.variable(v) ** e
        poly = poly + term
    return poly


@settings(deadline=None)
@given(diff_polys())
def test_render_then_parse_is_the_identity(poly):
    text = poly.render(INDEPENDENT, DEPENDENT)
    parser = EquationParser(INDEPENDENT, DEPENDENT, allow_free_symbols=True)
    assert parser.parse_polynomial(text) == poly, text


def _total_derivative_by_partials(poly, direction):
    """D_i as one partial derivative per jet variable, summed: the formula
    that the one-pass DiffPoly.total_derivative must agree with."""
    return DiffPoly.sum_of([poly.partial(xvar(direction))] + [
        DiffPoly.variable(jet(v[1], v[2] + (direction,))) * poly.partial(v)
        for v in poly.jet_variables()
    ])


@settings(deadline=None)
@given(diff_polys(), st.integers(0, len(INDEPENDENT) - 1))
def test_total_derivative_agrees_with_the_partials(poly, direction):
    assert poly.total_derivative(direction) == _total_derivative_by_partials(poly, direction)


def _prolongation_systems():
    names = sorted(p.name for p in data_path(".").iterdir() if p.suffix == ".pde")
    assert len(names) == 7
    yield from ((name, corpus(name)) for name in names)
    yield "mhd", mhd_system()
    yield "mhd boundary", mhd_system(boundary=True)
    yield "metric flow", metric_flow_system()


def test_first_prolongation_agrees_with_the_partials():
    for name, s in _prolongation_systems():
        expected = dict.fromkeys(s.equations)
        for eq in s.equations:
            for i in range(s.n):
                d = _total_derivative_by_partials(eq, i)
                if not d.is_zero():
                    expected.setdefault(d)
        assert prolong_system(s, 1).equations == list(expected), name


def test_parser_errors():
    parser = EquationParser(["x"], ["u"])
    with pytest.raises(ParseError):
        parser.parse_polynomial("u_q")
    with pytest.raises(ParseError):
        parser.parse_polynomial("unknown + 1")
    with pytest.raises(ParseError):
        EquationParser(["xx"], ["u"])
    with pytest.raises(ParseError, match="^missing operand at end of input$"):
        parser.parse_polynomial("u*x+")
    with pytest.raises(ParseError, match=r"^missing operand before '\*'$"):
        parser.parse_polynomial("u + *x")


# ---------------------------------------------------------------------------
# the parser against its factor-by-factor oracle
# ---------------------------------------------------------------------------

_ORACLE_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?)"
    r"|(?P<op>\*\*|[-+*/^()])|\Z)"
)


def _tokenize_by_matches(text):
    """One anchored regex match per token: the tokenizer the one-pass
    jets._tokenize must agree with, tokens and errors alike."""
    pos = 0
    out = []
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot tokenize {text[pos:pos+20]!r}")
        pos = m.end()
        if m.lastgroup is None:  # whitespace to the end of the text
            break
        if m.group("num"):
            out.append(("num", int(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            op = m.group("op")
            out.append(("op", "^" if op == "**" else op))
    return out


class OracleParser(EquationParser):
    """Every factor a one-term polynomial, multiplied in one at a time, and
    every negated term negated after it is built: the parser that reads
    each flat product straight into one monomial must agree with this."""

    def parse(self, text):
        self._tokens = _tokenize_by_matches(text)
        self._pos = 0
        self._depth = 0
        expr = self._expr()
        if self._pos != len(self._tokens):
            raise ParseError(f"trailing input in {text!r}")
        return expr

    def _expr(self):
        sign = 1
        kind, val = self._peek()
        if (kind, val) == ("op", "-"):
            self._next()
            sign = -1
        elif (kind, val) == ("op", "+"):
            self._next()
        node = self._term()
        terms = [-node if sign < 0 else node]
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            rhs = self._term()
            terms.append(rhs if op == "+" else -rhs)
        return type(node).sum_of(terms)

    def _term(self):
        node = self._factor()
        while self._peek() in (("op", "*"), ("op", "/")):
            _, op = self._next()
            rhs = self._factor()
            node = node * rhs if op == "*" else node / rhs
        return node


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _same_parse(parser, oracle, text, exclusions=()):
    """Both parsers give equal numerators and denominators, and equal
    cleared polynomials, or the same ParseError."""
    expr, expected = _outcome(parser.parse, text), _outcome(oracle.parse, text)
    if isinstance(expected, str):
        assert expr == expected, text
    else:
        assert (expr.num, expr.den) == (expected.num, expected.den), text
    assert (_outcome(parser.parse_polynomial, text, exclusions)
            == _outcome(oracle.parse_polynomial, text, exclusions)), text


_PARSE_ARGS = (["x", "y"], ["u", "v"], {"a": 0, "b": Fraction(3, 2), "c": -7})
_ATOMS = [str(k) for k in range(13)] + ["u", "v", "x", "y", "u_x", "u_xy", "v_yy", "a", "b", "c"]
_EXPONENTS = ["", "", "", "^0", "^1", "^2", "^3", "**2"]


@st.composite
def _sum_texts(draw, depth):
    """A sum of products of numbers and names, each perhaps to a literal
    power.  Above depth 0 a factor may also be a negated factor, or a sum
    one level shallower in parentheses, perhaps to a power."""
    def factor(d):
        kind = draw(st.integers(0, 7 if d else 4))
        if kind <= 4:
            return draw(st.sampled_from(_ATOMS)) + draw(st.sampled_from(_EXPONENTS))
        if kind == 5:
            return "-" + factor(d)
        inner = f"({sum_(d - 1)})"
        return inner if kind == 6 else inner + draw(st.sampled_from(["^0", "^1", "^2"]))

    def product(d):
        text = factor(d)
        for _ in range(draw(st.integers(0, 3))):
            text += draw(st.sampled_from("****/")) + factor(d)
        return text

    def sum_(d):
        text = draw(st.sampled_from(["", "", "-", "+"])) + product(d)
        for _ in range(draw(st.integers(0, 2))):
            text += draw(st.sampled_from([" + ", " - ", "-", "+"])) + product(d)
        return text

    return sum_(depth)


@settings(deadline=None, max_examples=200)
@given(_sum_texts(2))
def test_parser_agrees_with_the_factor_by_factor_oracle(text):
    u, x = DiffPoly.variable(jet(0, ())), DiffPoly.variable(xvar(0))
    _same_parse(EquationParser(*_PARSE_ARGS), OracleParser(*_PARSE_ARGS), text, [u, x])


@pytest.mark.parametrize("text", [
    "2*u^0*u*u^1*x^3*a", "b^2*u_x*-u", "u*-(x+1)", "u^1^2", "u*x^y", "u*(x)^2*3",
    "x/0", "u/a", "u*2/x*y", "-u^0", "0^0", "a^0*u", "u*", "u^", "u**2*x", "3 4", "u u",
    "- - u", "u*+x", "2*u_x*u_q", "2*u*q", "2*q^x", "+u", "x^07",
])
def test_edge_products_agree_with_the_oracle(text):
    _same_parse(EquationParser(*_PARSE_ARGS), OracleParser(*_PARSE_ARGS), text,
                [DiffPoly.variable(xvar(0))])


@settings(deadline=None, max_examples=300)
@given(st.text(st.sampled_from("ux_y0123 \t\n*+-/^()?.\u00e9\u0663\u00b2"), max_size=30))
def test_tokens_and_tokenize_errors_match_one_match_per_token(text):
    assert _outcome(jets._tokenize, text) == _outcome(_tokenize_by_matches, text)


def _term_digest(s):
    """sha256 of the equations then the exclusions, each as its sorted
    (monomial, coefficient) pairs."""
    h = hashlib.sha256()
    for poly in s.equations + [None] + s.exclusions:
        h.update(b"|" if poly is None else repr(sorted(poly.terms.items())).encode() + b"\n")
    return h.hexdigest()


_MHD_VARIED = ("rho", "chi", "nu", "cv", "mu0", "mubar", "eps0", "epsbar")
_MHD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _mhd_documents(seed):
    """The two plasma-model documents that the mhd-contact benchmark
    workload parses at ``seed``: the model with and without boundary, with
    its constants drawn from distinct small primes."""
    rng = random.Random(f"mhd-contact/{seed}")
    for boundary in (False, True):
        constants = dict(zip(_MHD_VARIED, rng.sample(_MHD_PRIMES, len(_MHD_VARIED))))
        s = mhd_system(boundary=boundary, constants=constants)
        rng.randrange(1, 2**31)  # the workload's sampling seed
        yield boundary, {"independent": s.independent, "dependent": s.dependent,
                         "order": s.order, "equations": s.render_equations()}


# recorded from the factor-by-factor parser
PARSE_DIGESTS = {
    "continuity_e1.pde": "5058aef586126fde3bbda267c5a5b940f6cfdb28fe591ac877fe582ad841184a",
    "dalembert.pde": "4f2e0f4aa1335a8627c9b0c6724b379b3784ba17693939ad2fe470a48269dbde",
    "heat.pde": "af3844ad0f631f9fe1712877f658a5bb7fdd8a331ec235d1eb6fe630e322c53e",
    "pressure_e2.pde": "9ac56b34a629af4db2c8555b8bf410b4965b1998c043a1ab7b8e56ebf592d9f8",
    "table4_component.pde": "dcfc5a2bbbadb07b9772a438135e12ae632976fefdbe7c6c618d4ff8da220860",
    "tricomi.pde": "c8adcbb2fb979a2dfba55b76b8d8c0ee5a34705c8644bc722b2bb94c13ef8eb1",
    "uxx_uyy.pde": "fcdbed30d87d7d688c1300f4c75f9550de27fca64d302deb835da4b38e139983",
    (1, False): "3ef133281300eeb9f07f3b29ce9c3e9cbe8fb277b7c6e5d72bafe7bdec020c6b",
    (1, True): "33e8018e38892116b7922dbf647023e711565a9d2bfab7f42a7bfe3b3276dc17",
    (2, False): "f4c5deb07942553b5df7b456d59928f9f94ed80f4c6a1fae2978191518d175cb",
    (2, True): "d2fdc021c74146c2e6ff67af7bc2b0660d00dcf376a51ad90aa4b8c1d2d9941c",
    (3, False): "5483f5ade60384fb081990531d1f9ff616528a9df6806360a059f0d38a89ac10",
    (3, True): "d2913bd9f05a393ff4c5008ff1f3709a6f93283241e5e02b1cd608697809ceb0",
}


def _oracle_load(doc):
    """load_system with the oracle parser in place of EquationParser."""
    oracle = OracleParser(doc["independent"], doc["dependent"], doc.get("parameters"))
    exclusions = [oracle.parse_polynomial(t) for t in doc.get("exclusions", [])]
    return PdeSystem(independent=doc["independent"], dependent=doc["dependent"],
                     order=doc["order"], exclusions=exclusions,
                     equations=[oracle.parse_polynomial(t, exclusions) for t in doc["equations"]])


@pytest.mark.parametrize("name", sorted(k for k in PARSE_DIGESTS if isinstance(k, str)))
def test_packaged_documents_parse_as_recorded(name):
    s = corpus(name)
    assert _term_digest(s) == PARSE_DIGESTS[name]
    expected = _oracle_load(load_document(data_path(name)))
    assert (s.equations, s.exclusions) == (expected.equations, expected.exclusions)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mhd_benchmark_documents_parse_as_recorded(seed):
    for boundary, doc in _mhd_documents(seed):
        s = load_system(doc)
        assert _term_digest(s) == PARSE_DIGESTS[seed, boundary]
        assert s.equations == _oracle_load(doc).equations


def test_verify_polynomial_solution_heat():
    heat = corpus("heat.pde")
    res = verify_polynomial_solution(heat, {"u": "a*x + b"})
    assert all(r.is_zero() for r in res)
    res = verify_polynomial_solution(heat, {"u": "x^2"})
    assert res[0] == DiffPoly.constant(-2)


def test_verify_polynomial_solution_dalembert():
    dal = corpus("dalembert.pde")
    res = verify_polynomial_solution(dal, {"u": "x*y"})
    assert all(r.is_zero() for r in res)
    res = verify_polynomial_solution(dal, {"u": "(1+x)*(2+y)"})
    assert all(r.is_zero() for r in res)
    res = verify_polynomial_solution(dal, {"u": "x + y"})
    assert not all(r.is_zero() for r in res)


def _substitute_by_products(poly, assignment):
    """Every term as a chain of one-term products, one factor per variable:
    the form the one-product DiffPoly.substitute must agree with."""
    terms = []
    for mono, c in poly.terms.items():
        term = DiffPoly.constant(c)
        for v, e in mono:
            value = assignment[v] if v in assignment else DiffPoly.variable(v)
            term = term * value ** e
        terms.append(term)
    return DiffPoly.sum_of(terms)


def _quadratic_section(s):
    """A quadratic polynomial in the independent variables and a free
    constant k for each dependent variable."""
    xs = s.independent
    return {u: f"{j + 1}*{xs[j % len(xs)]}^2 - {xs[(j + 1) % len(xs)]}*{xs[-1]}/{j + 2} + k*{xs[0]}"
               f" - {j}" for j, u in enumerate(s.dependent)}


def test_substitution_agrees_with_the_chained_products(monkeypatch):
    systems = [(name, corpus(name)) for name in sorted(
        p.name for p in data_path(".").iterdir() if p.suffix == ".pde")]
    systems.append(("mhd", mhd_system()))
    assert len(systems) == 8
    for name, s in systems:
        section = _quadratic_section(s)
        residuals = verify_polynomial_solution(s, section)
        with monkeypatch.context() as patched:
            patched.setattr(DiffPoly, "substitute", _substitute_by_products)
            assert residuals == verify_polynomial_solution(s, section), name
        assert any(not r.is_zero() for r in residuals), name
    u, ux, x = DiffPoly.variable(jet(0, ())), DiffPoly.variable(jet(0, (0,))), DiffPoly.variable(xvar(0))
    poly = 3 * u ** 2 * ux * x - ux ** 3 + 5
    for value in (DiffPoly.zero(), DiffPoly.constant(2), x ** 2 * Fraction(1, 3), x + 1):
        assignment = {jet(0, ()): value, jet(0, (0,)): value * 2}
        assert poly.substitute(assignment) == _substitute_by_products(poly, assignment)


def derivative_operator(n: int, direction: int) -> DiffOperator:
    """The operator d/dx_direction on n base variables."""
    mu = tuple(1 if i == direction else 0 for i in range(n))
    return DiffOperator(n, {mu: DiffPoly.constant(1)})


def test_diffop_ring():
    n = 2
    d0 = derivative_operator(n, 0)
    d1 = derivative_operator(n, 1)
    x = DiffPoly.variable(xvar(0))
    # d o a = a d + (da)
    composed = d0 * DiffOperator.multiplication(n, x)
    assert composed == DiffOperator(n, {(1, 0): x, (0, 0): DiffPoly.constant(1)})
    assert (d0 * d1 - d1 * d0).coeffs == {}
    xd = DiffOperator.multiplication(n, x) * d0
    assert xd * xd == DiffOperator(n, {(2, 0): x * x, (1, 0): x})


def test_diffop_filtration():
    rng = random.Random(4)
    n = 2
    for _ in range(30):
        def random_op():
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                mu = (rng.randint(0, 2), rng.randint(0, 2))
                poly = DiffPoly.constant(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2)):
                    poly = poly * DiffPoly.variable(xvar(rng.randrange(n)))
                coeffs[mu] = coeffs.get(mu, DiffPoly.zero()) + poly
            return DiffOperator(n, coeffs)

        p, q = random_op(), random_op()
        if p.order() < 0 or q.order() < 0:
            continue
        assert (p * q).order() <= p.order() + q.order()
    # equality when leading coefficients are nonzero constants
    p = DiffOperator(n, {(2, 0): DiffPoly.constant(3)})
    q = DiffOperator(n, {(0, 1): DiffPoly.constant(5)})
    assert (p * q).order() == 3


def test_operator_apply():
    n = 1
    x = DiffPoly.variable(xvar(0))
    op = DiffOperator(n, {(2,): DiffPoly.constant(1), (0,): x})
    val = op.apply(x ** 3)
    assert val == 6 * x + x ** 4


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13])
def test_power_forms_no_product_above_its_degree(k, monkeypatch):
    # squaring the base past the top bit of k would form a product of degree
    # 2^bit_length(k), up to twice the degree of the power
    p = EquationParser(["x"], ["u"]).parse_polynomial("u + u_x + x + 1")
    degrees = []
    product = diffpoly._product

    def recording(a, b):
        out = product(a, b)
        degrees.append(max(sum(e for _, e in mono) for mono in out.terms))
        return out

    monkeypatch.setattr(diffpoly, "_product", recording)
    power = p ** k
    monkeypatch.undo()
    assert bool(degrees) == (k >= 1)  # a power of k >= 1 forms products
    assert max(degrees, default=0) <= k
    expected = DiffPoly.constant(1)
    for _ in range(k):
        expected = expected * p
    assert power == expected


def test_render_parse_round_trip():
    rng = random.Random(77)
    parser = EquationParser(["x", "y"], ["u", "w"])
    for _ in range(60):
        poly = random_poly(rng, n_dirs=2, n_deps=2)
        text = poly.render(["x", "y"], ["u", "w"])
        if text == "0":
            assert poly.is_zero()
            continue
        assert parser.parse_polynomial(text) == poly, text


def test_solve_stages_from_document():
    doc = {
        "independent": ["x", "y"],
        "dependent": ["u", "w"],
        "order": 1,
        # u_x is pinned by the first equation; the second is solved for w_y
        "equations": ["u_x - 3", "w_y - u_x*w_x"],
        "solve_stages": [[[0, "u_x"]], [[1, "w_y"]]],
    }
    system = load_system(doc)
    pts = sample_points(system, count=3, seed=11)
    for pt in pts:
        for eq in system.equations:
            assert eq.evaluate(pt) == 0


def _staged(equations, stages):
    return load_system({"independent": ["x", "y"], "dependent": ["u", "w"], "order": 1,
                        "equations": equations, "solve_stages": stages})


@pytest.mark.parametrize("equations, stages, message", [
    (["u_x", "u_y"], [[[0, "u_x"], [1, "u_x"]]],
     "solve stage 0: pivot 'u_x' is repeated (first in stage 0)"),
    (["u_x", "u_y"], [[[0, "u_x"]], [[1, "u_x"]]],
     "solve stage 1: pivot 'u_x' is repeated (first in stage 0)"),
    (["u_x + u_y", "u"], [[[0, "u_x"], [0, "u_y"]]],
     "solve stage 0: pivot 'u_y' solves equation 0 again (already solved for 'u_x' in"
     " stage 0), so stage 0 has fewer equations than pivots"),
    (["u_x", "u_y"], [[[0, "u_x"]], [[0, "u_y"]]],
     "solve stage 1: pivot 'u_y' solves equation 0 again (already solved for 'u_x' in"
     " stage 0), so stage 1 has fewer equations than pivots"),
    (["u_x*u_y - 1", "u_x - u_y"], [[[0, "u_x"], [1, "u_y"]]],
     "solve stage 0: equation 0 is not linear in the pivots: a term has 'u_x', 'u_y'"),
    (["u_x^2 - 1"], [[[0, "u_x"]]],
     "solve stage 0: equation 0 is not linear in the pivots: a term has 'u_x'"),
    (["u_x - w_y", "w_y - 1"], [[[0, "u_x"]], [[1, "w_y"]]],
     "solve stage 0: equation 0 reads 'w_y', a pivot of the later stage 1"),
    (["u_x"], [[[1, "u_x"]]],
     "solve stage 0: pivot 'u_x' names equation 1, but the system has 1"),
    (["u_x"], [[[0, "u_q"]]],
     "solve stage 0: pivot 'u_q': unknown direction 'q' in 'u_q'"),
])
def test_malformed_solve_stages_fail_before_sampling(equations, stages, message):
    s = _staged(equations, stages)
    # count=0 draws nothing, so the stages are checked when they are compiled
    with pytest.raises(ValueError) as info:
        sample_points(s, count=0)
    assert str(info.value) == message

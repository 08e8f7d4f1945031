import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystaljet.corpus import metric_flow_system, mhd_system
from crystaljet.data import data_path
from crystaljet.diffpoly import DiffOperator, DiffPoly, jet, par, xvar
from crystaljet.jets import (
    MAX_NESTING,
    MAX_SAMPLE_ATTEMPTS,
    EquationParser,
    NoGenericPoint,
    ParseError,
    PdeSystem,
    cartan_distribution_dimension,
    cartan_involutivity_test,
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
    assert (rep.dim_e, rep.dim_g, rep.g_dims[1], rep.g_dims[2]) == (12, 5, 2, 0)
    assert rep.dim_g_plus_1 == 7 and rep.dim_e_plus_1 == 19


def test_symbol_report_table4():
    rep = symbol_report(corpus("table4_component.pde"))
    assert rep.ambient_jet_dim == 11
    assert (rep.dim_e, rep.dim_g, rep.dim_g_plus_1, rep.dim_e_plus_1) == (8, 3, 3, 11)


def test_symbol_report_trivial_equation():
    s = load_system(
        {"independent": ["x"], "dependent": ["u"], "order": 1, "equations": ["u_x"]}
    )
    rep = symbol_report(s)
    # alpha^1 = dim g^(0) - dim g^(1) = 0 here; the closed prolongation
    # formula then gives dim(p_1) = (n + m) + 0 = 2 = dim E, exactly right
    assert rep.dim_g == 0 and rep.characters == [0]
    assert prolongation_dimension_formula(2, rep.characters, 0) == rep.dim_e


def test_coefficient_instantiations_agree():
    base = symbol_report(corpus("continuity_e1.pde"))
    other = symbol_report(
        load_system(
            str(data_path("continuity_e1.pde")),
            parameter_overrides={"g1": 1, "g2": 2, "g3": 3},
        )
    )
    assert base.g_dims == other.g_dims and base.dim_e == other.dim_e
    assert base.dim_e_plus_1 == other.dim_e_plus_1
    pressure_alt = symbol_report(
        load_system(
            str(data_path("pressure_e2.pde")),
            parameter_overrides={"c1": 5, "c2": 0, "c3": 2, "b": 7},
        )
    )
    assert pressure_alt.dim_e == 12 and pressure_alt.dim_e_plus_1 == 19


def test_involutivity_verdicts():
    ok, ledger = cartan_involutivity_test(corpus("continuity_e1.pde"))
    assert ok and ledger.dim_g_plus_1 == 15 and ledger.filtration_sum == 15
    ok, ledger = cartan_involutivity_test(corpus("pressure_e2.pde"))
    assert ok and ledger.dim_g_plus_1 == 7
    ok, _ = cartan_involutivity_test(corpus("table4_component.pde"))
    assert ok
    ok, ledger = cartan_involutivity_test(corpus("uxx_uyy.pde"))
    assert not ok  # classic failure at order 2


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


def test_a_parameter_override_may_not_name_a_variable():
    doc = {"independent": ["x"], "dependent": ["u"], "order": 1, "equations": ["u_x - a"],
           "parameters": {"a": 1}}
    assert load_system(doc, {"a": 2}).equations == load_system({**doc, "parameters": {"a": 2}}).equations
    with pytest.raises(ParseError, match="^the 'parameters' field names 'u', already in 'dependent'$"):
        load_system(doc, {"u": 1})


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


def test_diffop_ring():
    n = 2
    d0 = DiffOperator.derivative(n, 0)
    d1 = DiffOperator.derivative(n, 1)
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

from fractions import Fraction

import pytest
import yaml

from crystaljet.corpus import (
    MHD_DEPENDENT,
    metric_flow_system,
    mhd_system,
)
from crystaljet.data import data_path, load_document
from crystaljet.jets import (
    cartan_distribution_dimension,
    load_system,
    sample_points,
    symbol_report,
    verify_polynomial_solution,
)


def test_mhd_structure():
    mhd = mhd_system()
    assert len(mhd.dependent) == 16 and mhd.dependent == MHD_DEPENDENT
    assert len(mhd.equations) == 17
    assert mhd.order == 2
    assert max(eq.order() for eq in mhd.equations) == 2
    # the continuity equation is first order; its prolongations are present
    orders = sorted(eq.order() for eq in mhd.equations)
    assert orders[0] == 1


def test_mhd_boundary_adds_energy_production_jets():
    interior = mhd_system()
    boundary = mhd_system(boundary=True)
    assert len(boundary.equations) == len(interior.equations) + 15  # 1 + 4 + 10


def test_mhd_staged_sampling_sits_on_locus():
    mhd = mhd_system()
    pts = sample_points(mhd, count=2, seed=5)
    for pt in pts:
        for eq in mhd.equations:
            assert eq.evaluate(pt) == 0


def test_mhd_cartan_dimensions_seed_stable():
    interior, boundary = mhd_system(), mhd_system(boundary=True)
    for seed in (1, 3, 7, 12345):
        assert cartan_distribution_dimension(interior, seed=seed) == 148
        assert cartan_distribution_dimension(boundary, seed=seed) == 138


def test_metric_flow_structure_and_solutions():
    flow = metric_flow_system()
    assert len(flow.equations) == 6 and flow.order == 2
    flat = {"g11": "1", "g22": "1", "g33": "1", "g12": "0", "g13": "0", "g23": "0"}
    assert all(r.is_zero() for r in verify_polynomial_solution(flow, flat))
    moving = dict(flat, g11="1 + t")
    assert any(not r.is_zero() for r in verify_polynomial_solution(flow, moving))


def test_metric_flow_scaled_flat_metric():
    # any constant nondegenerate metric has zero curvature, so it is steady
    flow = metric_flow_system()
    scaled = {"g11": "4", "g22": "9", "g33": "1", "g12": "0", "g13": "0", "g23": "2"}
    assert all(r.is_zero() for r in verify_polynomial_solution(flow, scaled))


def test_symbol_dims_stable_across_seeds():
    for name in ("continuity_e1.pde", "pressure_e2.pde", "table4_component.pde"):
        system = load_system(str(data_path(name)))
        dims = {
            (
                r.dim_e,
                tuple(r.g_dims),
                r.dim_g_plus_1,
                r.dim_e_plus_1,
            )
            for r in (symbol_report(system, seed=k) for k in (1, 7, 12345))
        }
        assert len(dims) == 1, name


def test_mhd_dimensions_invariant_under_reinstantiation():
    other = {"rho": 11, "chi": 13, "nu": 17, "cv": 19, "mu0": 23,
             "mubar": 29, "eps0": 31, "epsbar": 37}
    assert cartan_distribution_dimension(mhd_system(constants=other)) == 148
    assert cartan_distribution_dimension(
        mhd_system(boundary=True, constants=other)
    ) == 138


def test_mhd_equations_round_trip_through_parser():
    from crystaljet.jets import EquationParser

    mhd = mhd_system()
    parser = EquationParser(mhd.independent, mhd.dependent)
    for eq in mhd.equations:
        text = eq.render(mhd.independent, mhd.dependent)
        assert parser.parse_polynomial(text) == eq


def test_documents_parse_as_with_the_pure_python_loader():
    names = [p.name for p in data_path(".").iterdir() if p.suffix in (".pde", ".desc")]
    assert len(names) == 16
    for name in names:
        text = data_path(name).read_text()
        assert load_document(text) == yaml.safe_load(text), name
    with pytest.raises(yaml.YAMLError):
        load_document("equations: [u_x, {")


# the large systems are the only ones with four nonempty g^(i) below g^(0);
# recorded before symbol_report ranked every column set in one elimination
LARGE_SYMBOL_REPORTS = {
    "metric_flow": (metric_flow_system, 6, 6, 88, [54, 30, 12, 3, 0], [24, 18, 9, 3], 99, 184,
                    94, 60),
    "mhd": (mhd_system, 16, 15, 227, [145, 87, 40, 12, 0], [58, 47, 28, 12], 273, 490,
            244, 160),
    "mhd_boundary": (lambda: mhd_system(boundary=True), 16, 25, 212, [135, 81, 37, 11, 0],
                     [54, 44, 26, 11], 253, 455, 244, 160),
}


@pytest.mark.parametrize("name", LARGE_SYMBOL_REPORTS)
def test_large_symbol_reports_are_pinned(name):
    build, m, rank, dim_e, g_dims, characters, dim_g1, dim_e1, ambient, top = (
        LARGE_SYMBOL_REPORTS[name])
    rep = symbol_report(build())
    assert rep.to_json_dict() == {
        "system": name, "n": 4, "m": m, "order": 2, "ambient_jet_dim": ambient,
        "ambient_top_vars": top, "generic_rank": rank, "dim_E": dim_e, "dim_g": g_dims[0],
        "g_filtration": g_dims, "characters": characters, "dim_g_plus_1": dim_g1,
        "dim_E_plus_1": dim_e1, "inconsistent_rank": False,
    }
    assert rep.rank_samples == [rank] * 5

import json
import time

import pytest

from crystaljet.abelian import FgAbelianGroup
from crystaljet.cli import (
    canonical_json,
    load_known_errata,
    run,
    validate_all_tables,
)
from crystaljet.cohomology import GModule, group_cohomology
from crystaljet.groups import enumerate_subgroups, point_group


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bordism_unoriented_text(capsys):
    code, out, _ = run_capture(capsys, ["bordism", "unoriented", "--n", "4"])
    assert code == 0
    assert out.strip() == "Z/2 x Z/2"


def test_bordism_unoriented_json_roundtrip(capsys):
    code, out, _ = run_capture(
        capsys, ["bordism", "unoriented", "--n", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"group": "Z/2 x Z/2", "n": 4, "q": 2}
    assert canonical_json(json.loads(out)) == out.strip()


def test_bordism_oriented_and_relative(capsys):
    code, out, _ = run_capture(capsys, ["bordism", "oriented", "--n", "5"])
    assert code == 0 and out.strip() == "Z/2"
    code, out, _ = run_capture(
        capsys, ["bordism", "relative", "--betti", "1,2,1", "--p", "1"]
    )
    assert code == 0 and out.strip() == "Z/2 x Z/2"


def test_bordism_crystal_group(capsys):
    code, out, _ = run_capture(
        capsys, ["bordism", "crystal-group", "--group", "Z/2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["crystal"] == {"dimension": 2, "name": "p2"}
    assert payload["q"] == 1


def test_pde_classify_json(capsys):
    code, out, _ = run_capture(
        capsys, ["pde", "classify", "navier_stokes.desc", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ExtendedZeroCrystal"
    assert payload["weak_bordism"] == "0"
    assert canonical_json(json.loads(out)) == out.strip()


def test_pde_singular_classify(capsys):
    code, out, _ = run_capture(
        capsys, ["pde", "singular-classify", "mhd_singular.desc", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "ExtendedZeroCrystalSingular"
    # plain classify on a singular file is a usage error
    code, _, err = run_capture(capsys, ["pde", "classify", "mhd_singular.desc"])
    assert code == 1 and "singular" in err


def test_pde_symbol_and_involutivity(capsys):
    code, out, _ = run_capture(
        capsys, ["pde", "symbol", "continuity_e1.pde", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_E"] == 14 and payload["dim_E_plus_1"] == 29
    code, out, _ = run_capture(
        capsys, ["pde", "involutivity", "pressure_e2.pde", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_pde_involutivity_builds_one_symbol_report(capsys, monkeypatch):
    from crystaljet import jets

    calls = []
    original = jets.symbol_report

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(jets, "symbol_report", counting)
    code, out, _ = run_capture(
        capsys, ["pde", "involutivity", "pressure_e2.pde", "--format", "json"]
    )
    assert code == 0 and len(calls) == 1
    payload = json.loads(out)
    assert payload["cartan_test"]["involutive"] == payload["involutive_symbol"]


def test_pde_verify_solution(capsys):
    code, out, _ = run_capture(
        capsys,
        ["pde", "verify-solution", "heat.pde", "--section", "u=a*x+b", "--format", "json"],
    )
    assert code == 0 and json.loads(out)["solution"] is True
    code, out, _ = run_capture(
        capsys,
        ["pde", "verify-solution", "heat.pde", "--section", "u=x^2", "--format", "json"],
    )
    assert code == 0 and json.loads(out)["solution"] is False


@pytest.mark.parametrize("item, bad", [
    ("u", "--section 'u' is not dependent=polynomial"),
    ("v=x", "section 'v=x': 'v' is not a dependent variable (the system has u)"),
    ("u=a*x+", "section 'u=a*x+': "),
    ("u=a*x+", "section 'u=a*x+': missing operand at end of input\n"),
    ("u=a*(x+", "section 'u=a*(x+': missing operand at end of input\n"),
    ("u=a*/x", "section 'u=a*/x': missing operand before '/'\n"),
])
def test_pde_verify_solution_names_a_bad_section(capsys, item, bad):
    code, out, err = run_capture(
        capsys, ["pde", "verify-solution", "heat.pde", "--section", item])
    assert code == 1 and not out
    assert err.startswith(f"error: ParseError: {bad}")


def test_tables_pointgroup_verify_exit_codes(capsys):
    code, _, _ = run_capture(capsys, ["tables", "pointgroup", "C_3", "--verify"])
    assert code == 2
    code, _, _ = run_capture(
        capsys, ["tables", "pointgroup", "C_3", "--verify", "--expect-known-errata"]
    )
    assert code == 0
    code, _, _ = run_capture(capsys, ["tables", "pointgroup", "C_4", "--verify"])
    assert code == 0


def test_tables_pointgroup_lists_the_subgroup_lattice(capsys):
    g = point_group("O_h")
    triples = [rec.triple() for rec in enumerate_subgroups(g)]
    assert len(triples) == 98
    code, out, _ = run_capture(capsys, ["tables", "pointgroup", "O_h", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["name"], payload["international"], payload["order"]) == ("O_h", "m-3m", 48)
    assert "validation" not in payload
    assert [(r["iso"], r["order"], r["index"]) for r in payload["subgroups"]] == triples
    code, out, _ = run_capture(capsys, ["tables", "pointgroup", "O_h"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "O_h (m-3m), order 48"
    assert lines[1:] == [f"  {iso:8s} order {order:3d} index {index}" for iso, order, index in triples]


def test_tables_validate(capsys):
    code, out, _ = run_capture(capsys, ["tables", "validate", "--format", "json"])
    assert code == 2
    payload = json.loads(out)
    classes = {m["class"] for m in payload["mismatches"]}
    assert "LagrangeViolationInPaper" in classes
    assert "BravaisSumMismatch" in classes
    code, _, _ = run_capture(capsys, ["tables", "validate", "--expect-known-errata"])
    assert code == 0


def test_tables_validate_enumerates_each_subgroup_lattice_once(monkeypatch):
    from crystaljet import cli, groups

    calls = []
    original = groups.enumerate_subgroups

    def counting(g):
        calls.append(g.name)
        return original(g)

    for module in (cli, groups):
        monkeypatch.setattr(module, "enumerate_subgroups", counting)
    validate_all_tables()
    assert len(calls) == len(set(calls)) == 32


def test_tables_spacegroups(capsys):
    code, out, _ = run_capture(
        capsys, ["tables", "spacegroups", "--filter", "Triclinic", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["classes"] == [
        {"name": "C_i", "count": 1},
        {"name": "C_1", "count": 1},
    ]
    code, out, _ = run_capture(capsys, ["tables", "spacegroups", "--format", "json"])
    assert json.loads(out)["total"] == 230


def test_tables_wallpaper(capsys):
    code, out, _ = run_capture(capsys, ["tables", "wallpaper", "--format", "json"])
    assert code == 0 and json.loads(out)["count"] == 17
    code, out, _ = run_capture(capsys, ["tables", "wallpaper", "p4m", "--format", "json"])
    payload = json.loads(out)
    assert payload["symmorphic"] is True
    assert {"name": "p4g", "index": 2} in payload["subgroups"]


def test_symmorphic_command(capsys):
    code, out, _ = run_capture(capsys, ["symmorphic", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["symmorphic_count"] == 13
    bad = {r["name"] for r in payload["results"] if not r["symmorphic"]}
    assert bad == {"pg", "pmg", "pgg", "p4g"}


def test_unknown_wallpaper_group_is_named_as_in_tables(capsys):
    for argv in (["symmorphic", "zz"], ["tables", "wallpaper", "zz"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 1 and not out
        assert err.strip() == "error: UnknownWallpaperGroup: 'zz'"


def test_cohomology_command(capsys):
    code, out, _ = run_capture(
        capsys,
        ["cohomology", "--group", "cyclic:4", "--module", "Z", "--degree", "2",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["cohomology"] == "Z/4"


@pytest.mark.parametrize("group, module, action, degree", [
    ("C_2h", "Z", "sign", 1),
    ("C_4v", "Z/4", "sign", 2),
    ("D_2d", "Z", "natural", 1),
    ("C_4v", "Z", "natural", 2),
])
def test_cohomology_sign_and_natural_actions_match_the_library(capsys, group, module, action, degree):
    g = point_group(group)
    if action == "sign":
        mod = GModule.sign(g, FgAbelianGroup.parse(module))
    else:
        mod = GModule.natural(g)
    want = group_cohomology(g, mod, degree).render()
    code, out, _ = run_capture(
        capsys,
        ["cohomology", "--group", group, "--module", module, "--action", action,
         "--degree", str(degree), "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"group": group, "module": mod.base.render(), "action": action,
                               "degree": degree, "cohomology": want}
    code, out, _ = run_capture(
        capsys,
        ["cohomology", "--group", group, "--module", module, "--action", action,
         "--degree", str(degree)],
    )
    assert (code, out) == (0, want + "\n")


@pytest.mark.parametrize("group, module, answer", [
    ("plane:4mm", "Z^2", "Z/2"),  # the p4m class of the H^2 sweep
    ("plane:2mm", "Z^2", "Z/2 x Z/2"),  # pmm
    ("4mm", "Z^3", "Z/2 x Z/2 x Z/2"),  # a bare name is the point group C_4v
])
def test_plane_point_groups_take_the_plane_prefix(capsys, group, module, answer):
    code, out, _ = run_capture(
        capsys,
        ["cohomology", "--group", group, "--action", "natural", "--degree", "2",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"group": group, "module": module, "action": "natural",
                               "degree": 2, "cohomology": answer}


@pytest.mark.parametrize("group, hint", [("2mm", "plane:2mm"), ("plane:mm2", "2mm")])
def test_bad_plane_point_group_names_the_plane_names(capsys, group, hint):
    code, out, err = run_capture(capsys, ["cohomology", "--group", group, "--degree", "1"])
    assert code == 1 and not out
    assert err.startswith("error: KeyError: ") and hint in err


BINDING = "[[-1,0,0],[0,-1,0],[0,0,1]] -> [[-1]]"


def test_cohomology_with_a_bindings_file(capsys, tmp_path):
    path = tmp_path / "sign.txt"
    path.write_text(f"# the rotation acts by -1\n\n{BINDING}\n")
    answers = []
    for degree in ("0", "1", "2"):
        code, out, _ = run_capture(capsys, ["cohomology", "--group", "C_2", "--module", "Z",
                                            "--action", str(path), "--degree", degree])
        assert code == 0
        answers.append(out.strip())
    assert answers == ["0", "Z/2", "0"]
    # the one rotation does not generate D_2
    code, out, err = run_capture(capsys, ["cohomology", "--group", "D_2", "--module", "Z",
                                          "--action", str(path), "--degree", "1"])
    assert code == 1 and not out
    assert err.strip() == "error: ValueError: bindings do not generate the whole group"


@pytest.mark.parametrize("line, why", [
    (BINDING.replace("->", ""), "no '->'"),
    (BINDING.replace("0,0,1", "0,0,x"), "invalid literal for int()"),
    ("[[0,-1,0],[1,0,0],[0,0,1]] -> [[-1]]", "[[0,-1,0],[1,0,0],[0,0,1]] is not in C_2"),
])
def test_bad_bindings_line_is_named(capsys, tmp_path, line, why):
    path = tmp_path / "bad.txt"
    path.write_text(f"# one good line, then a bad one\n{BINDING}\n{line}\n")
    code, out, err = run_capture(capsys, ["cohomology", "--group", "C_2", "--module", "Z",
                                          "--action", str(path), "--degree", "1"])
    assert code == 1 and not out
    assert err.startswith(f"error: ValueError: {path}, line 3 {line!r}: ") and why in err


@pytest.mark.parametrize("module, answer", [("Z", "Z^1"), ("Z^2", "Z^2")])
def test_cohomology_of_the_trivial_group_in_degree_zero(capsys, module, answer):
    code, out, _ = run_capture(
        capsys, ["cohomology", "--group", "C_1", "--module", module, "--degree", "0"]
    )
    assert code == 0 and out.strip() == answer


def test_cyclic_orders_of_a_large_prime_answer_fast(capsys):
    # 2^61 - 1 is prime, so factoring it by trial division does not finish
    p = "Z/2305843009213693951"
    start = time.perf_counter()
    code, out, _ = run_capture(
        capsys, ["cohomology", "--group", "C_2", "--module", p, "--degree", "2"]
    )
    assert code == 0 and out.strip() == "0"
    code, out, err = run_capture(capsys, ["bordism", "crystal-group", "--group", p])
    assert code == 1 and not out
    assert err.startswith("error: NotCrystalShapedGroup: ") and p in err
    assert time.perf_counter() - start < 2


def test_unknown_input_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["tables", "pointgroup", "X_9"])
    assert code == 1 and "error" in err
    code, _, _ = run_capture(capsys, ["bordism", "unoriented"])  # missing --n
    assert code == 1


@pytest.mark.parametrize("argv, bad", [
    (["cohomology", "--group", "C_2", "--module", "Z/-2", "--degree", "2"], "'Z/-2'"),
    (["cohomology", "--group", "C_2", "--module", "Z/0", "--degree", "2"], "'Z/0'"),
    (["bordism", "relative", "--betti", "1,2,1", "--p", "-1"], "p = -1"),
    (["bordism", "relative", "--betti", "1,-5,1", "--p", "1"], "[1, -5, 1]"),
    (["bordism", "relative", "--betti", "1,,1", "--p", "1"], "entry 2 of '1,,1' is ''"),
    (["bordism", "relative", "--betti", "1,2,x", "--p", "1"], "entry 3 of '1,2,x' is 'x'"),
    (["cohomology", "--group", "cyclic:0", "--degree", "1"], "'cyclic:0'"),
    (["cohomology", "--group", "cyclic:-3", "--degree", "1"], "'cyclic:-3'"),
    (["cohomology", "--group", "cyclic:25", "--degree", "0"], "'cyclic:25'"),
    (["bordism", "crystal-group", "--group", "Z^x"], "'Z^x'"),
    (["bordism", "crystal-group", "--group", "Z^-1"], "'Z^-1'"),
])
def test_out_of_contract_input_fails_fast(capsys, argv, bad):
    code, out, err = run_capture(capsys, argv)
    assert code == 1 and not out
    assert err.startswith("error: ValueError: ") and bad in err


def test_error_names_its_type_when_the_message_is_empty(capsys, monkeypatch):
    from crystaljet import cli

    def exhausted(n):
        raise MemoryError()

    monkeypatch.setattr(cli, "unoriented_bordism", exhausted)
    code, _, err = run_capture(capsys, ["bordism", "unoriented", "--n", "4"])
    assert code == 1 and err.strip() == "error: MemoryError"


def test_o_h_cohomology_answers_in_degree_two(capsys):
    start = time.perf_counter()
    code, out, _ = run_capture(capsys, ["cohomology", "--group", "O_h", "--degree", "2"])
    assert code == 0 and out.strip() == "Z/2 x Z/2"
    assert time.perf_counter() - start < 5


def test_oversized_bordism_rank_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["bordism", "unoriented", "--n", "100000"])
    assert code == 1 and not out
    assert err.startswith("error: Z2RankBoundExceeded: n = 100000: ")
    assert "1000000" in err
    assert time.perf_counter() - start < 1


def test_every_subcommand_has_help(capsys):
    for argv in (
        ["--help"],
        ["bordism", "--help"],
        ["bordism", "unoriented", "--help"],
        ["bordism", "oriented", "--help"],
        ["bordism", "relative", "--help"],
        ["bordism", "crystal-group", "--help"],
        ["tables", "--help"],
        ["tables", "pointgroup", "--help"],
        ["tables", "spacegroups", "--help"],
        ["tables", "wallpaper", "--help"],
        ["tables", "validate", "--help"],
        ["cohomology", "--help"],
        ["symmorphic", "--help"],
        ["pde", "--help"],
        ["pde", "symbol", "--help"],
        ["pde", "involutivity", "--help"],
        ["pde", "classify", "--help"],
        ["pde", "singular-classify", "--help"],
        ["pde", "verify-solution", "--help"],
    ):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0, argv
        assert "usage" in out.lower(), argv


def test_no_floats_anywhere_in_json(capsys):
    for argv in (
        ["tables", "validate", "--format", "json"],
        ["pde", "symbol", "table4_component.pde", "--format", "json"],
        ["symmorphic", "--format", "json"],
    ):
        run(argv)
        out = capsys.readouterr().out

        def walk(x):
            assert not isinstance(x, float), argv
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(json.loads(out))


def test_errata_file_covers_all_current_findings():
    known = load_known_errata()
    report = validate_all_tables()
    assert report.mismatches
    for m in report.mismatches:
        key = (m["dataset"], m["location"], m["class"])
        assert key in known, key

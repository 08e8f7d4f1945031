import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crystaljet.abelian import FgAbelianGroup
from crystaljet.cli import (
    build_parser,
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


BAD_SECTIONS = [
    ("u", "--section 'u' is not dependent=polynomial"),
    ("v=x", "section 'v=x': 'v' is not a dependent variable (the system has u)"),
    ("u=a*x+", "section 'u=a*x+': "),
    ("u=a*x+", "section 'u=a*x+': missing operand at end of input\n"),
    ("u=a*(x+", "section 'u=a*(x+': missing operand at end of input\n"),
    ("u=a*/x", "section 'u=a*/x': missing operand before '/'\n"),
    ("u=u_x", "section 'u=u_x': 'u_x' is a jet variable, and sections must not contain one\n"),
    # the jet variable of lowest index, u_t, whatever the hash seed
    ("u=u_xx*u_t", "section 'u=u_xx*u_t': 'u_t' is a jet variable, and sections must not"
     " contain one\n"),
]


@pytest.mark.parametrize("item, bad", BAD_SECTIONS)
def test_pde_verify_solution_names_a_bad_section(capsys, item, bad):
    code, out, err = run_capture(
        capsys, ["pde", "verify-solution", "heat.pde", "--section", item])
    assert code == 1 and not out
    assert err.startswith(f"error: ParseError: {bad}")


def test_a_dependent_given_twice_is_refused(capsys):
    code, out, err = run_capture(capsys, ["pde", "verify-solution", "heat.pde",
                                          "--section", "u=x", "--section", "u=y"])
    assert code == 1 and not out
    assert err.strip() == "error: ParseError: --section 'u=y' gives 'u' a second value"


def test_a_section_without_a_dependent_names_it(capsys):
    code, out, err = run_capture(capsys, ["pde", "verify-solution", "continuity_e1.pde",
                                          "--section", "v1=x"])
    assert code == 1 and not out
    assert err.strip() == "error: ParseError: section missing dependent variable 'v2'"


def test_a_missing_path_is_not_swapped_for_packaged_data(capsys):
    code, out, err = run_capture(capsys, ["pde", "symbol", "/nonexistent/dir/heat.pde"])
    assert code == 1 and not out
    assert err.strip() == "error: FileNotFoundError: /nonexistent/dir/heat.pde"
    code, out, _ = run_capture(capsys, ["pde", "symbol", "heat.pde"])
    assert code == 0 and out.startswith("system ")


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


# the README commands that the corpus-small benchmark workload runs
README_COMMANDS = (
    ["bordism", "unoriented", "--n", "4"],
    ["bordism", "relative", "--betti", "1,2,1", "--p", "1"],
    ["bordism", "crystal-group", "--group", "Z/2 x Z/2"],
    ["tables", "pointgroup", "C_3", "--verify"],
    ["tables", "spacegroups", "--filter", "Cubic"],
    ["tables", "wallpaper", "p4m"],
    ["tables", "validate", "--expect-known-errata"],
    ["cohomology", "--group", "cyclic:4", "--module", "Z", "--degree", "2"],
    ["symmorphic"],
    ["pde", "symbol", "continuity_e1.pde"],
    ["pde", "involutivity", "pressure_e2.pde"],
    ["pde", "classify", "navier_stokes.desc"],
    ["pde", "singular-classify", "mhd_singular.desc"],
    ["pde", "verify-solution", "heat.pde", "--section", "u=a*x+b"],
)


def test_one_parser_serves_every_run_in_a_process(capsys):
    sequence = []
    for argv in README_COMMANDS:
        sequence += [[*argv, "--format", "json"], ["tables", "bogus"],
                     argv, ["--format", "text", *argv]]
    sequence += [["--seed", "7", "pde", "symbol", "heat.pde"], ["pde", "symbol", "heat.pde"],
                 ["pde", "symbol", "heat.pde", "--seed", "7"],
                 ["pde", "--seed", "7", "--format", "json", "symbol", "heat.pde"],
                 ["pde", "symbol", "heat.pde"]]

    def outcome(argv):
        """The exit code and stdout of a run, and the namespace it parsed
        (or argparse's exit code), which shows a flag the output does not."""
        code = run(argv)
        out = capsys.readouterr().out
        try:
            parsed = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            parsed = exc.code
        capsys.readouterr()
        return code, out, parsed

    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh].count(1) == len(README_COMMANDS)  # each `tables bogus`
    build_parser.cache_clear()
    for _ in range(2):
        assert [outcome(argv) for argv in sequence] == fresh
    assert build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("group", ["cyclicfoo:4", "Cyclics:4", "cyclic4"])
def test_a_kind_that_only_starts_with_cyclic_is_an_unknown_group(capsys, group):
    code, out, err = run_capture(capsys, ["cohomology", "--group", group, "--degree", "2"])
    assert code == 1 and not out
    assert err.strip() == (f"error: KeyError: \"unknown group {group!r} (use a point-group"
                           " name, plane:<name> or cyclic:N)\"")


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


def test_a_system_that_declares_a_name_twice_is_refused(capsys, tmp_path):
    path = tmp_path / "twice.pde"
    path.write_text("independent: [x, y]\ndependent: [u, u]\norder: 1\nequations: [u_x]\n")
    code, out, err = run_capture(capsys, ["pde", "symbol", str(path)])
    assert code == 1 and not out
    assert err.strip() == "error: ParseError: the 'dependent' field names 'u' twice"


MALFORMED_DOCUMENTS = [
    ("twice.pde", "independent: [x]\ndependent: [u]\norder: 1\nparameters: {a: 1, a: 2}\n"
     "equations: [u_x - a]\n", "ValueError: the key 'a' is repeated on line 4"),
    ("twice.pde", "independent: [x]\ndependent: [u]\norder: 1\norder: 2\nequations: [u_x]\n",
     "ValueError: the key 'order' is repeated on line 4"),
    ("twice.desc", "name: flat\nn: 2\nm: 1\nn: 3\norder: 2\ndim_E: 7\nbetti_W: [1, 2, 1]\n",
     "ValueError: the key 'n' is repeated on line 4"),
    ("bad.pde", "independent: [x]\ndependent: [u]\norder: 1\nequations: [3]\n",
     "ParseError: entry 0 of the 'equations' field must be a string, not 3"),
    ("bad.pde", "independent: [x]\ndependent: [u]\norder: 1\nequations: u_x\n",
     "ParseError: the 'equations' field must be a list, not str"),
    ("bad.pde", "independent: [x]\ndependent: [u]\norder: one\nequations: [u_x]\n",
     "ParseError: the 'order' field must be a nonnegative integer, not 'one'"),
    ("bad.pde", "independent: [x]\ndependent: [u]\norder: 1\nequations: [u_x]\n"
     "solve_stages: [[u_x]]\n",
     "ParseError: solve stage 0 of the 'solve_stages' field: 'u_x' is not an"
     " [equation index, pivot] pair"),
    ("deep.pde", "independent: [x]\ndependent: [u]\norder: 1\nequations: ['"
     + "(" * 3000 + "u_x" + ")" * 3000 + "']\n",
     "ParseError: expression nested deeper than MAX_NESTING = 100 levels"),
]


@pytest.mark.parametrize("name, text, message", MALFORMED_DOCUMENTS)
def test_a_malformed_document_is_refused_with_its_field_named(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    command = "classify" if name.endswith(".desc") else "symbol"
    code, out, err = run_capture(capsys, ["pde", command, str(path)])
    assert code == 1 and not out
    assert err.strip() == f"error: {message}"


def test_an_expansion_past_the_term_bound_is_refused_fast(capsys, tmp_path):
    path = tmp_path / "power.pde"
    path.write_text("independent: [x]\ndependent: [u]\norder: 1\nequations: ['(u+u_x+x+1)^40']\n")
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["pde", "symbol", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.strip() == ("error: ParseError: a power could expand to 12341 terms,"
                           " over MAX_TERMS = 10000")


def test_a_power_past_the_work_bound_is_refused_fast(capsys, tmp_path):
    path = tmp_path / "power.pde"
    path.write_text("independent: [x]\ndependent: [u]\norder: 1\nequations: ['(2*u_x+3)^9999']\n")
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["pde", "symbol", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.strip() == ("error: ParseError: a power could take 78202016 term-pair"
                           " coefficient bits, over MAX_PRODUCT_WORK = 10000000")


def test_a_substituted_power_past_the_work_bound_is_refused_fast(capsys, tmp_path):
    path = tmp_path / "power.pde"
    path.write_text("independent: [x, y]\ndependent: [u]\norder: 1\nequations: ['u^100']\n")
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["pde", "verify-solution", str(path),
                                          "--section", "u=x+y+1"])
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.strip() == ("error: ParseError: a power could take 29583774 term-pair"
                           " coefficient bits, over MAX_PRODUCT_WORK = 10000000")


def test_a_substituted_product_past_the_term_bound_is_refused_fast(capsys, tmp_path):
    path = tmp_path / "product.pde"
    path.write_text("independent: [x]\ndependent: [u, w]\norder: 1\nequations: ['u*w']\n")
    terms = "+".join(f"x^{i}" for i in range(101))
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["pde", "verify-solution", str(path),
                                          "--section", f"u={terms}", "--section", f"w={terms}"])
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.strip() == ("error: ParseError: a product could expand to 10201 terms,"
                           " over MAX_TERMS = 10000")


# a flat product, and a power after a factor that is not flat
@pytest.mark.parametrize("equation, bits", [("2^3000000*u_x", 6000000),
                                            ("(u_x+1)^1*3^2000000", 4000000)])
def test_a_literal_power_past_the_coefficient_bound_is_refused_fast(capsys, tmp_path,
                                                                   equation, bits):
    path = tmp_path / "power.pde"
    path.write_text(f"independent: [x]\ndependent: [u]\norder: 1\nequations: ['{equation}']\n")
    start = time.perf_counter()
    code, out, err = run_capture(capsys, ["pde", "symbol", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.strip() == (f"error: ParseError: a power could form a {bits}-bit coefficient,"
                           " over MAX_COEFF_BITS = 100000")


DESCRIPTORS_MISSING_A_FIELD = [
    ("{}", "descriptor is missing the 'n' field"),
    ("{singular: true, components: [{n: 2, m: 1, order: 1, betti_W: [1, 0, 0]}]}",
     "component 0 of the singular descriptor is missing the 'dim_E' field"),
]


@pytest.mark.parametrize("text, message", DESCRIPTORS_MISSING_A_FIELD)
def test_a_descriptor_without_a_required_field_is_refused(capsys, tmp_path, text, message):
    path = tmp_path / "bad.desc"
    path.write_text(text + "\n")
    code, out, err = run_capture(capsys, ["pde", "classify", str(path)])
    assert code == 1 and not out
    assert err.strip() == f"error: MissingDescriptorField: {message}"


DESC = "n: {n}, m: 1, order: 2, dim_E: {dim_e}, betti_W: {betti}"
COMPONENT = "{" + DESC.format(n=2, dim_e=7, betti="[1, 0, 0]") + "}"


MALFORMED_DESCRIPTOR_FIELDS = [
    ("classify", "{" + DESC.format(n="one", dim_e=7, betti="[1, 2, 1]") + "}",
     "ValueError: descriptor: the 'n' field must be an integer, not 'one'"),
    ("classify", "{" + DESC.format(n=2, dim_e="true", betti="[1, 2, 1]") + "}",
     "ValueError: descriptor: the 'dim_E' field must be an integer, not True"),
    ("classify", "{" + DESC.format(n=2, dim_e=7, betti="[1, 2.5, 1]") + "}",
     "ValueError: descriptor: the 'betti_W' field must be a list of integers, not [1, 2.5, 1]"),
    ("classify", "{" + DESC.format(n=2, dim_e=7, betti="[1, 2, 1]") + ", flags: 5}",
     "ValueError: descriptor: the 'flags' field must be a mapping to true or false, not 5"),
    ("singular-classify", "{singular: true, components: [" + COMPONENT + ", {"
     + DESC.format(n=2, dim_e=7, betti=3) + "}]}",
     "ValueError: component 1 of the singular descriptor: the 'betti_W' field must be a list"
     " of integers, not 3"),
    ("singular-classify", "{singular: true, components: 5}",
     "ValueError: singular descriptor: the 'components' field must be a list of mappings, not 5"),
    ("singular-classify", "{singular: true, components: [" + COMPONENT + ", " + COMPONENT
     + "], intersections: [{nonempty: true}]}",
     "MissingDescriptorField: intersection 0 of the singular descriptor is missing the 'pair'"
     " field"),
    ("singular-classify", "{singular: true, components: [" + COMPONENT + ", " + COMPONENT
     + "], intersections: [{pair: [0]}]}",
     "ValueError: intersection 0 of the singular descriptor: the 'pair' field must be two"
     " component indices below 2, not [0]"),
    ("singular-classify", "{singular: true, components: [" + COMPONENT + ", " + COMPONENT
     + "], intersections: [{pair: [0, 1], nonempty: 'no'}]}",
     "ValueError: intersection 0 of the singular descriptor: the 'nonempty' field must be true"
     " or false, not 'no'"),
    ("singular-classify", "{singular: 'yes', components: [" + COMPONENT + "]}",
     "ValueError: descriptor: the 'singular' field must be true or false, not 'yes'"),
]


@pytest.mark.parametrize("command, text, message", MALFORMED_DESCRIPTOR_FIELDS)
def test_a_malformed_descriptor_field_is_named(capsys, tmp_path, command, text, message):
    path = tmp_path / "bad.desc"
    path.write_text(text + "\n")
    code, out, err = run_capture(capsys, ["pde", command, str(path)])
    assert code == 1 and not out
    assert err.strip() == f"error: {message}"


MISSPELT_FLAGS = [
    ("classify", "{" + DESC.format(n=2, dim_e=7, betti="[1, 2, 1]")
     + ", flags: {formaly_integrable: true, completely_integrable: true}}",
     "ValueError: descriptor: the 'flags' field names 'formaly_integrable', which is not a flag"),
    ("singular-classify", "{singular: true, components: [" + COMPONENT + ", {"
     + DESC.format(n=2, dim_e=7, betti="[1, 0, 0]") + ", flags: {zero_crystal: true}}]}",
     "ValueError: component 1 of the singular descriptor: the 'flags' field names"
     " 'zero_crystal', which is not a flag"),
]


@pytest.mark.parametrize("command, text, message", MISSPELT_FLAGS)
def test_a_misspelt_flag_is_refused_by_name(capsys, tmp_path, command, text, message):
    path = tmp_path / "bad.desc"
    path.write_text(text + "\n")
    code, out, err = run_capture(capsys, ["pde", command, str(path)])
    assert code == 1 and not out
    assert err.startswith(f"error: {message} (the flags are formally_integrable, ")


def test_an_unnamed_descriptor_names_the_violated_hypothesis_alone(capsys, tmp_path):
    path = tmp_path / "unnamed.desc"
    path.write_text("{" + DESC.format(n=2, dim_e=7, betti="[1, 2, 1]") + "}\n")
    code, out, err = run_capture(capsys, ["pde", "classify", str(path)])
    assert code == 1 and not out
    assert err.strip() == "error: HypothesisViolated: formal integrability not established"
    path.write_text("{singular: true, components: [" + COMPONENT + "]}\n")
    code, out, err = run_capture(capsys, ["pde", "singular-classify", str(path)])
    assert code == 1 and not out
    assert err.strip() == ("error: HypothesisViolated: component 0: formal integrability"
                           " not established")


def test_a_non_invertible_binding_is_refused(capsys, tmp_path):
    path = tmp_path / "double.txt"
    path.write_text("[[-1,0],[0,-1]] -> [[2]]\n")
    code, out, err = run_capture(capsys, ["cohomology", "--group", "plane:2", "--module", "Z",
                                          "--action", str(path), "--degree", "1"])
    assert code == 1 and not out
    assert err.strip() == "error: ValueError: action matrices must be invertible over Z"


@pytest.mark.parametrize("module, rank", [("Z", 1), ("Z^3", 3)])
def test_a_binding_of_the_wrong_size_is_named(capsys, tmp_path, module, rank):
    path = tmp_path / "identity.txt"
    path.write_text("[[-1,0],[0,-1]] -> [[1,0],[0,1]]\n")
    code, out, err = run_capture(capsys, ["cohomology", "--group", "plane:2", "--module", module,
                                          "--action", str(path), "--degree", "1"])
    assert code == 1 and not out
    assert err.strip() == ("error: ValueError: generator [[-1, 0], [0, -1]] acts by a 2 x 2"
                           f" matrix on a module of rank {rank}")


BAD_BINDING_LINES = [
    (BINDING.replace("->", ""), "no '->'"),
    (BINDING.replace("0,0,1", "0,0,x"), "invalid literal for int()"),
    ("[[0,-1,0],[1,0,0],[0,0,1]] -> [[-1]]", "[[0,-1,0],[1,0,0],[0,0,1]] is not in C_2"),
]


@pytest.mark.parametrize("line, why", BAD_BINDING_LINES)
def test_bad_bindings_line_is_named(capsys, tmp_path, line, why):
    path = tmp_path / "bad.txt"
    path.write_text(f"# one good line, then a bad one\n{BINDING}\n{line}\n")
    code, out, err = run_capture(capsys, ["cohomology", "--group", "C_2", "--module", "Z",
                                          "--action", str(path), "--degree", "1"])
    assert code == 1 and not out
    assert err.startswith(f"error: ValueError: {path}, line 3 {line!r}: ") and why in err


def test_a_generator_bound_twice_is_refused(capsys, tmp_path):
    # either line alone is an answer: H^2 is Z/2 on the trivial module, 0 on the sign one
    path = tmp_path / "twice.txt"
    path.write_text("[[-1,0],[0,-1]] -> [[1]]\n[[-1,0],[0,-1]] -> [[-1]]\n")
    code, out, err = run_capture(capsys, ["cohomology", "--group", "plane:2", "--module", "Z",
                                          "--action", str(path), "--degree", "2"])
    assert code == 1 and not out
    assert err.strip() == (f"error: ValueError: {path}, line 2 '[[-1,0],[0,-1]] -> [[-1]]':"
                           " [[-1,0],[0,-1]] is bound a second time")


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


OUT_OF_CONTRACT = [
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
    (["bordism", "crystal-group", "--group", "Z/--2"], "'Z/--2'"),
    # int() refuses these two: the refusal is still the range message
    (["cohomology", "--group", "cyclic:--4", "--degree", "0"], "'cyclic:--4': cyclic:N needs"),
    (["cohomology", "--group", "cyclic:\u00b2", "--degree", "0"], "'cyclic:\u00b2': cyclic:N needs"),
]


@pytest.mark.parametrize("argv, bad", OUT_OF_CONTRACT)
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


def test_a_closed_stdout_exits_1_without_a_message(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code, _, err = run_capture(capsys, ["bordism", "unoriented", "--n", "4"])
    assert code == 1 and not err


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
        key = (m.dataset, m.location, m.kind)
        assert key in known, key


# sha256 of the stdout and the exit code of every `tables` command that
# prints a subgroup lattice: a change to the enumeration must leave each of
# these bytes as they are
TABLES_OUTPUT_SHA256 = {
    "validate --format text": (2, "9549f5eaba99425d652feac3382b178b1980025af023a1fe585115a920ebe1a6"),
    "validate --format text --expect-known-errata": (0, "9549f5eaba99425d652feac3382b178b1980025af023a1fe585115a920ebe1a6"),
    "pointgroup O_h --format text": (0, "bcc5867f66f3f13241b9f925fca7b63b08f8d073b3eb5fcfcf398200d77ba245"),
    "pointgroup C_1 --verify --format text": (0, "a780c10f4bdc1a58e5bf15d864ba4a8c4a5fd98dbeadb47af353f3e219daca08"),
    "pointgroup C_1 --verify --format text --expect-known-errata": (0, "a780c10f4bdc1a58e5bf15d864ba4a8c4a5fd98dbeadb47af353f3e219daca08"),
    "pointgroup C_i --verify --format text": (0, "d64854e8d4e76af9c19754066adc78f7eb257da849d0c59407ab15b76f305659"),
    "pointgroup C_i --verify --format text --expect-known-errata": (0, "d64854e8d4e76af9c19754066adc78f7eb257da849d0c59407ab15b76f305659"),
    "pointgroup C_2 --verify --format text": (0, "f7bf1b9f469b2023c4233a42cf443763999d82f215ad02469739f8a56d0f396d"),
    "pointgroup C_2 --verify --format text --expect-known-errata": (0, "f7bf1b9f469b2023c4233a42cf443763999d82f215ad02469739f8a56d0f396d"),
    "pointgroup C_s --verify --format text": (0, "4960c1e48bfb3e8cd796302caaf5152931ac0467ab3facfb02443f5f129cc17c"),
    "pointgroup C_s --verify --format text --expect-known-errata": (0, "4960c1e48bfb3e8cd796302caaf5152931ac0467ab3facfb02443f5f129cc17c"),
    "pointgroup C_2h --verify --format text": (0, "5225268a1ff26aa6fce2d6e396c7cf892796697675133f9efb13d24871fe8b6f"),
    "pointgroup C_2h --verify --format text --expect-known-errata": (0, "5225268a1ff26aa6fce2d6e396c7cf892796697675133f9efb13d24871fe8b6f"),
    "pointgroup D_2 --verify --format text": (0, "3ba6d3cf21a7158eaa2d14370bec3ba0341a83b01f72f38a50d46c26425b9f3e"),
    "pointgroup D_2 --verify --format text --expect-known-errata": (0, "3ba6d3cf21a7158eaa2d14370bec3ba0341a83b01f72f38a50d46c26425b9f3e"),
    "pointgroup C_2v --verify --format text": (0, "9fafdc326907c3dd67a5c1a042d91199c601894ceccafd6bfdf8516103cd1326"),
    "pointgroup C_2v --verify --format text --expect-known-errata": (0, "9fafdc326907c3dd67a5c1a042d91199c601894ceccafd6bfdf8516103cd1326"),
    "pointgroup D_2h --verify --format text": (0, "dee84f39148220766ce2731b91c26b69b37b3d0e8e98b14449cecb0b8cf8470f"),
    "pointgroup D_2h --verify --format text --expect-known-errata": (0, "dee84f39148220766ce2731b91c26b69b37b3d0e8e98b14449cecb0b8cf8470f"),
    "pointgroup C_4 --verify --format text": (0, "213fd2d6ba52ac4872918388d52955a1ef47aa1669554448ce6dd14d723a95e9"),
    "pointgroup C_4 --verify --format text --expect-known-errata": (0, "213fd2d6ba52ac4872918388d52955a1ef47aa1669554448ce6dd14d723a95e9"),
    "pointgroup S_4 --verify --format text": (0, "6b690de7af0d3112507f9be3b27f5737c5d4e349471450fa6dd9a555ee5aceab"),
    "pointgroup S_4 --verify --format text --expect-known-errata": (0, "6b690de7af0d3112507f9be3b27f5737c5d4e349471450fa6dd9a555ee5aceab"),
    "pointgroup C_4h --verify --format text": (0, "66f13dfd0958761cf0ca2274dc3a14fb1d51aec9e84bc0efbc617101076628d2"),
    "pointgroup C_4h --verify --format text --expect-known-errata": (0, "66f13dfd0958761cf0ca2274dc3a14fb1d51aec9e84bc0efbc617101076628d2"),
    "pointgroup D_4 --verify --format text": (0, "2baddde37de7f6add7434cf12849d2ac229be6ea84a88e9fa0731a3f46322f99"),
    "pointgroup D_4 --verify --format text --expect-known-errata": (0, "2baddde37de7f6add7434cf12849d2ac229be6ea84a88e9fa0731a3f46322f99"),
    "pointgroup C_4v --verify --format text": (0, "cbff12ece0bac97114881d8383413ef008da2943ccaba959679792d43e7f495f"),
    "pointgroup C_4v --verify --format text --expect-known-errata": (0, "cbff12ece0bac97114881d8383413ef008da2943ccaba959679792d43e7f495f"),
    "pointgroup D_2d --verify --format text": (0, "136711d09bb2d86d2d6ec9689635058130cd6e041df39aa64bc73b7d8fafd282"),
    "pointgroup D_2d --verify --format text --expect-known-errata": (0, "136711d09bb2d86d2d6ec9689635058130cd6e041df39aa64bc73b7d8fafd282"),
    "pointgroup D_4h --verify --format text": (2, "51faa31d6ebc5a2034c9f1fcd6c30cacb7c27fad92c1279b61b11585d7c03f1f"),
    "pointgroup D_4h --verify --format text --expect-known-errata": (0, "51faa31d6ebc5a2034c9f1fcd6c30cacb7c27fad92c1279b61b11585d7c03f1f"),
    "pointgroup C_3 --verify --format text": (2, "5f38a22ae6efb0dba956cff93b77756d51b556827cdcd551b87e6729b1ca7d0e"),
    "pointgroup C_3 --verify --format text --expect-known-errata": (0, "5f38a22ae6efb0dba956cff93b77756d51b556827cdcd551b87e6729b1ca7d0e"),
    "pointgroup S_6 --verify --format text": (0, "d6cfeb0e83dad6d7a28cc76953699658cbcc630a9150e20880a20e7c8a0a8fce"),
    "pointgroup S_6 --verify --format text --expect-known-errata": (0, "d6cfeb0e83dad6d7a28cc76953699658cbcc630a9150e20880a20e7c8a0a8fce"),
    "pointgroup D_3 --verify --format text": (0, "bef87682ea49f1979d645f5f59100c195010aad68c5b423d0944d2ee72e73364"),
    "pointgroup D_3 --verify --format text --expect-known-errata": (0, "bef87682ea49f1979d645f5f59100c195010aad68c5b423d0944d2ee72e73364"),
    "pointgroup C_3v --verify --format text": (2, "56848caf1b93bca33e0a24bdea87db9177acb32f5be4e726733cf8f68ab376bb"),
    "pointgroup C_3v --verify --format text --expect-known-errata": (0, "56848caf1b93bca33e0a24bdea87db9177acb32f5be4e726733cf8f68ab376bb"),
    "pointgroup D_3d --verify --format text": (2, "987f4b05f0a71cbe8afe5db93b1eaba48a3a83b22b516dff366b59d971fe1d36"),
    "pointgroup D_3d --verify --format text --expect-known-errata": (0, "987f4b05f0a71cbe8afe5db93b1eaba48a3a83b22b516dff366b59d971fe1d36"),
    "pointgroup C_6 --verify --format text": (0, "ec392654146acf104e5b00021b7b711b7bffa76daedc5b3f80fb4ddbe05e4829"),
    "pointgroup C_6 --verify --format text --expect-known-errata": (0, "ec392654146acf104e5b00021b7b711b7bffa76daedc5b3f80fb4ddbe05e4829"),
    "pointgroup C_3h --verify --format text": (0, "87df8ea8e583c0e3ac57cf735bbcbe78482f6d4ab12d8feedeb6ade86f1ae0ad"),
    "pointgroup C_3h --verify --format text --expect-known-errata": (0, "87df8ea8e583c0e3ac57cf735bbcbe78482f6d4ab12d8feedeb6ade86f1ae0ad"),
    "pointgroup C_6h --verify --format text": (2, "461ff74764850781f993536c1847c6e732dacf3bb9a2b1ed8ed82989d243e685"),
    "pointgroup C_6h --verify --format text --expect-known-errata": (0, "461ff74764850781f993536c1847c6e732dacf3bb9a2b1ed8ed82989d243e685"),
    "pointgroup D_6 --verify --format text": (2, "cf8c97bac6dc12f18fffba51a76c3fa85016f6b269936bb5168753d1bd0f7766"),
    "pointgroup D_6 --verify --format text --expect-known-errata": (0, "cf8c97bac6dc12f18fffba51a76c3fa85016f6b269936bb5168753d1bd0f7766"),
    "pointgroup C_6v --verify --format text": (2, "b5383aa2ed050f9205d14fa65118256f0dbfb50106ff2c42ac654924b9a42458"),
    "pointgroup C_6v --verify --format text --expect-known-errata": (0, "b5383aa2ed050f9205d14fa65118256f0dbfb50106ff2c42ac654924b9a42458"),
    "pointgroup D_3h --verify --format text": (2, "4b9cf7acb78f0344f0121fb9a06afe6e2ec5a1cd94c7e9b14a279d10a7ebba09"),
    "pointgroup D_3h --verify --format text --expect-known-errata": (0, "4b9cf7acb78f0344f0121fb9a06afe6e2ec5a1cd94c7e9b14a279d10a7ebba09"),
    "pointgroup D_6h --verify --format text": (2, "04c1bc4ddbb5477d64bab16c9f5e6f12be74280fcb3088edc9f66cba7f196477"),
    "pointgroup D_6h --verify --format text --expect-known-errata": (0, "04c1bc4ddbb5477d64bab16c9f5e6f12be74280fcb3088edc9f66cba7f196477"),
    "pointgroup T --verify --format text": (0, "32eef9f39418dc0c410f0f9ca6d2497371aeecbe89464357098f038eed72b1a8"),
    "pointgroup T --verify --format text --expect-known-errata": (0, "32eef9f39418dc0c410f0f9ca6d2497371aeecbe89464357098f038eed72b1a8"),
    "pointgroup T_h --verify --format text": (0, "a27c0496ee8b3584d4708e708f5df427606e6c47d66dfa656637c6ed11da20b1"),
    "pointgroup T_h --verify --format text --expect-known-errata": (0, "a27c0496ee8b3584d4708e708f5df427606e6c47d66dfa656637c6ed11da20b1"),
    "pointgroup O --verify --format text": (0, "5ed7402588cffe8ca7ecd320aae5e49ac6706cc98119389c8eb60b03ecc7b164"),
    "pointgroup O --verify --format text --expect-known-errata": (0, "5ed7402588cffe8ca7ecd320aae5e49ac6706cc98119389c8eb60b03ecc7b164"),
    "pointgroup T_d --verify --format text": (0, "464d864db3fa6f324e1e8887b0a870d1c3da0f8337c271bd283587f58c7efd5e"),
    "pointgroup T_d --verify --format text --expect-known-errata": (0, "464d864db3fa6f324e1e8887b0a870d1c3da0f8337c271bd283587f58c7efd5e"),
    "pointgroup O_h --verify --format text": (2, "a2ae09f310de646dfd730f2ab36fcc9384b268aea660c68d4d6af1885206e448"),
    "pointgroup O_h --verify --format text --expect-known-errata": (0, "a2ae09f310de646dfd730f2ab36fcc9384b268aea660c68d4d6af1885206e448"),
    "validate --format json": (2, "1bca9d2596506f01cce18ab0f4adad500fe00129339f3fc9c89f867382b9c256"),
    "validate --format json --expect-known-errata": (0, "1bca9d2596506f01cce18ab0f4adad500fe00129339f3fc9c89f867382b9c256"),
    "pointgroup O_h --format json": (0, "8b98f58cb5d5479ac72bdad9d527f239c7d57fd023363687078a2159a1e71f98"),
    "pointgroup C_1 --verify --format json": (0, "24ff7f1c4fd94cb367c1890bd56be8e81dd445efe145c3a35b6368e6a8a4b61e"),
    "pointgroup C_1 --verify --format json --expect-known-errata": (0, "24ff7f1c4fd94cb367c1890bd56be8e81dd445efe145c3a35b6368e6a8a4b61e"),
    "pointgroup C_i --verify --format json": (0, "6988f6a1304650da2345763df05e851450d23787dbb289bcc3ae800a54dba3e7"),
    "pointgroup C_i --verify --format json --expect-known-errata": (0, "6988f6a1304650da2345763df05e851450d23787dbb289bcc3ae800a54dba3e7"),
    "pointgroup C_2 --verify --format json": (0, "b8529a91cc2e7ee8ff97d201726424571a099677c15c54f8158f117311865c2c"),
    "pointgroup C_2 --verify --format json --expect-known-errata": (0, "b8529a91cc2e7ee8ff97d201726424571a099677c15c54f8158f117311865c2c"),
    "pointgroup C_s --verify --format json": (0, "59fe68d043065dbfb018d27de4cd06baf7fb77ad6175bd25417c8d247386fa4a"),
    "pointgroup C_s --verify --format json --expect-known-errata": (0, "59fe68d043065dbfb018d27de4cd06baf7fb77ad6175bd25417c8d247386fa4a"),
    "pointgroup C_2h --verify --format json": (0, "b06ec7a7624c89ae3d4e841a5ce687936b28dcbc1ca8f0e292e720b059974ce2"),
    "pointgroup C_2h --verify --format json --expect-known-errata": (0, "b06ec7a7624c89ae3d4e841a5ce687936b28dcbc1ca8f0e292e720b059974ce2"),
    "pointgroup D_2 --verify --format json": (0, "d5c77eb03032691a4279c35bec0dd24564d594065ca102392fbae8ccfc727e53"),
    "pointgroup D_2 --verify --format json --expect-known-errata": (0, "d5c77eb03032691a4279c35bec0dd24564d594065ca102392fbae8ccfc727e53"),
    "pointgroup C_2v --verify --format json": (0, "513c9aacb8959834107e359fb1eb715866916e623cfa84aee81311b149a0c504"),
    "pointgroup C_2v --verify --format json --expect-known-errata": (0, "513c9aacb8959834107e359fb1eb715866916e623cfa84aee81311b149a0c504"),
    "pointgroup D_2h --verify --format json": (0, "7ee76c296a726f967066c69ec1d218b5a5d8f3c55494d1de4bf1f205db9344b8"),
    "pointgroup D_2h --verify --format json --expect-known-errata": (0, "7ee76c296a726f967066c69ec1d218b5a5d8f3c55494d1de4bf1f205db9344b8"),
    "pointgroup C_4 --verify --format json": (0, "b9fef53a2535b2427e72f4dcae0738c285625a91cfa16325beeed1f2142d5633"),
    "pointgroup C_4 --verify --format json --expect-known-errata": (0, "b9fef53a2535b2427e72f4dcae0738c285625a91cfa16325beeed1f2142d5633"),
    "pointgroup S_4 --verify --format json": (0, "2acc6b68a57ac31918b9f38b200038500e5c9f63e36dd3fc49de90ab4fc780e4"),
    "pointgroup S_4 --verify --format json --expect-known-errata": (0, "2acc6b68a57ac31918b9f38b200038500e5c9f63e36dd3fc49de90ab4fc780e4"),
    "pointgroup C_4h --verify --format json": (0, "b401925e12010bf36d1e175b5c5fc0088337c310c2996c7332a0910eb1088a25"),
    "pointgroup C_4h --verify --format json --expect-known-errata": (0, "b401925e12010bf36d1e175b5c5fc0088337c310c2996c7332a0910eb1088a25"),
    "pointgroup D_4 --verify --format json": (0, "3277bbad393a9a32a34aaacbec1553b41fc8f5d70e5d0829e200f6a734cae13c"),
    "pointgroup D_4 --verify --format json --expect-known-errata": (0, "3277bbad393a9a32a34aaacbec1553b41fc8f5d70e5d0829e200f6a734cae13c"),
    "pointgroup C_4v --verify --format json": (0, "b8d0b25d918cba1c25a8a728218e2a576a2b3e02a62b7132395e8931937c8bcb"),
    "pointgroup C_4v --verify --format json --expect-known-errata": (0, "b8d0b25d918cba1c25a8a728218e2a576a2b3e02a62b7132395e8931937c8bcb"),
    "pointgroup D_2d --verify --format json": (0, "1fc33438bfd8688872f025d6fe5614f0f27cdb5ead17d0652588fce1eb56b168"),
    "pointgroup D_2d --verify --format json --expect-known-errata": (0, "1fc33438bfd8688872f025d6fe5614f0f27cdb5ead17d0652588fce1eb56b168"),
    "pointgroup D_4h --verify --format json": (2, "d664de9f8922efe2aa65cd17ff0a093b5ef29293a6c5ab0ed7ff9bb7166151d7"),
    "pointgroup D_4h --verify --format json --expect-known-errata": (0, "d664de9f8922efe2aa65cd17ff0a093b5ef29293a6c5ab0ed7ff9bb7166151d7"),
    "pointgroup C_3 --verify --format json": (2, "4eef7c63cc851b9dd743e606de91bfbc9181e0d339993065435c533c88e31850"),
    "pointgroup C_3 --verify --format json --expect-known-errata": (0, "4eef7c63cc851b9dd743e606de91bfbc9181e0d339993065435c533c88e31850"),
    "pointgroup S_6 --verify --format json": (0, "3420645198a5b76a58e3cec3055cc8f4dee4512dedd64d27827b2d24371fb953"),
    "pointgroup S_6 --verify --format json --expect-known-errata": (0, "3420645198a5b76a58e3cec3055cc8f4dee4512dedd64d27827b2d24371fb953"),
    "pointgroup D_3 --verify --format json": (0, "e272970c449aa56c17b85b5324e7dabaf232ac762b123b1a52005d76ec71055a"),
    "pointgroup D_3 --verify --format json --expect-known-errata": (0, "e272970c449aa56c17b85b5324e7dabaf232ac762b123b1a52005d76ec71055a"),
    "pointgroup C_3v --verify --format json": (2, "f48d50919d2624ad92c2a62bc888b908ea53ed45b7eaadadea69641a53468c8b"),
    "pointgroup C_3v --verify --format json --expect-known-errata": (0, "f48d50919d2624ad92c2a62bc888b908ea53ed45b7eaadadea69641a53468c8b"),
    "pointgroup D_3d --verify --format json": (2, "951f8d0bd165754e8988ed99693767cd798fb120643c252178003266a2cff770"),
    "pointgroup D_3d --verify --format json --expect-known-errata": (0, "951f8d0bd165754e8988ed99693767cd798fb120643c252178003266a2cff770"),
    "pointgroup C_6 --verify --format json": (0, "f3af2902e357536af81dcef087de4497837a163127d821eba449c1a417c6487b"),
    "pointgroup C_6 --verify --format json --expect-known-errata": (0, "f3af2902e357536af81dcef087de4497837a163127d821eba449c1a417c6487b"),
    "pointgroup C_3h --verify --format json": (0, "aef2bb26f913fa0993b20a9d565060e6f245990431a1365d837233c6efeb5203"),
    "pointgroup C_3h --verify --format json --expect-known-errata": (0, "aef2bb26f913fa0993b20a9d565060e6f245990431a1365d837233c6efeb5203"),
    "pointgroup C_6h --verify --format json": (2, "142e2b90e299c03b84956e666624956e57c917422fac194341f421ee72dc016f"),
    "pointgroup C_6h --verify --format json --expect-known-errata": (0, "142e2b90e299c03b84956e666624956e57c917422fac194341f421ee72dc016f"),
    "pointgroup D_6 --verify --format json": (2, "8aed1d99e74090e3f6e68720eb5c8fce1eb636c2b953018a366937bc13969ddc"),
    "pointgroup D_6 --verify --format json --expect-known-errata": (0, "8aed1d99e74090e3f6e68720eb5c8fce1eb636c2b953018a366937bc13969ddc"),
    "pointgroup C_6v --verify --format json": (2, "c06fe8a877d1d647616397de76cf97e36075581bacf77cb198a5baca2d3be62e"),
    "pointgroup C_6v --verify --format json --expect-known-errata": (0, "c06fe8a877d1d647616397de76cf97e36075581bacf77cb198a5baca2d3be62e"),
    "pointgroup D_3h --verify --format json": (2, "70e7cc14f8bdc172e0960632eccfa402b38b0600491fc04d31e699c7b7a3f5b9"),
    "pointgroup D_3h --verify --format json --expect-known-errata": (0, "70e7cc14f8bdc172e0960632eccfa402b38b0600491fc04d31e699c7b7a3f5b9"),
    "pointgroup D_6h --verify --format json": (2, "6d1594e4c7b529081eeb10113feca535dd45b1745a61daf71314be39aa15493b"),
    "pointgroup D_6h --verify --format json --expect-known-errata": (0, "6d1594e4c7b529081eeb10113feca535dd45b1745a61daf71314be39aa15493b"),
    "pointgroup T --verify --format json": (0, "74dd5c273ae70ab8de21e29e2cfe25fedaf495e3098d3932c4d16b086b7f3248"),
    "pointgroup T --verify --format json --expect-known-errata": (0, "74dd5c273ae70ab8de21e29e2cfe25fedaf495e3098d3932c4d16b086b7f3248"),
    "pointgroup T_h --verify --format json": (0, "b0eb955d155d7749311830fc0adeaef2414bd93c7bf13e12344ecc5c1c6dc729"),
    "pointgroup T_h --verify --format json --expect-known-errata": (0, "b0eb955d155d7749311830fc0adeaef2414bd93c7bf13e12344ecc5c1c6dc729"),
    "pointgroup O --verify --format json": (0, "ca13eaef57f598b8ee8ea0ce7de29885a490e0d921342b38f1e000ccd68c596a"),
    "pointgroup O --verify --format json --expect-known-errata": (0, "ca13eaef57f598b8ee8ea0ce7de29885a490e0d921342b38f1e000ccd68c596a"),
    "pointgroup T_d --verify --format json": (0, "684b76bdb00d1a8521cff2c21acd81a3b08c01a884d8322b0df1e2c6dea53107"),
    "pointgroup T_d --verify --format json --expect-known-errata": (0, "684b76bdb00d1a8521cff2c21acd81a3b08c01a884d8322b0df1e2c6dea53107"),
    "pointgroup O_h --verify --format json": (2, "a8000aaf1e1d712048258bbbbf725b04ab469d9e961ad50fcb052f4c5e5d24db"),
    "pointgroup O_h --verify --format json --expect-known-errata": (0, "a8000aaf1e1d712048258bbbbf725b04ab469d9e961ad50fcb052f4c5e5d24db"),
}


@pytest.mark.parametrize("argv", list(TABLES_OUTPUT_SHA256))
def test_tables_output_bytes_are_pinned(capsys, argv):
    code, out, _ = run_capture(capsys, ["tables", *argv.split()])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TABLES_OUTPUT_SHA256[argv]


# sha256 of the stdout and the exit code of `pde symbol` and `pde involutivity`
# on every packaged .pde file; the answers are generic ranks, so the default
# seed and --seed 7 print the same bytes
PDE_OUTPUT_SHA256 = {
    "symbol continuity_e1.pde --format text": (0, "a0b13e6fbac064798825e0819d0f4ef9d4a471bbae61d9fea82274b42373ebbf"),
    "symbol continuity_e1.pde --format json": (0, "2c968f34dfddb0d31bca6ef9c5b031e1acd4533a04e4bd4e57c9087afd450dea"),
    "symbol dalembert.pde --format text": (0, "e7d5d4a9da12122df9fb80d09350e97ac3be6d40a93bad5d7251e4d658e8d693"),
    "symbol dalembert.pde --format json": (0, "01fdabd8cc76a3da5e913f52aa2ad06b4a3c18ace835e015490325a5f54748d9"),
    "symbol heat.pde --format text": (0, "3317f2d17e6d1f561dfd4769a4eaa10bd554e6da9b08bf3812e2b1b66181f975"),
    "symbol heat.pde --format json": (0, "c57985140d9ffe279b5ec716a6876711e63c75f8d7d2fba7c800034d25d867c5"),
    "symbol pressure_e2.pde --format text": (0, "54bd87ab70a61d49ddf8f5a78fe84f9505dbadae5a61c8a44ce50d2267a67dec"),
    "symbol pressure_e2.pde --format json": (0, "2dc365d5eb362860763aeac4353a9262dcea959edf4dc27bd00c38b700c7f823"),
    "symbol table4_component.pde --format text": (0, "7148e8f464d50ea8ca9d9504deff88496f4440622abe8bb4e260707a251ef94b"),
    "symbol table4_component.pde --format json": (0, "fdb21ab1c402ee7ac6e16e14236b55595b1d555cf3f919e0bcea73e26de0b4ec"),
    "symbol tricomi.pde --format text": (0, "761b3bb11c5743e9c2e68b509326a354644b56ae69c3d5ed8b8c3ae65568f00c"),
    "symbol tricomi.pde --format json": (0, "6396520dbbf331adbf013db50f94d3a5dc7790c7fcc9675a2d4c6c05c22561c3"),
    "symbol uxx_uyy.pde --format text": (0, "bb4a951aaf1b3f0a12e03a56ab947155bbe3b20596ea47aaaca54c5521af14b1"),
    "symbol uxx_uyy.pde --format json": (0, "9a5ec39ed7397d9baf69fba46e7d70b08e8bfa634907db4363186295abb5a4ee"),
    "involutivity continuity_e1.pde --format text": (0, "4d4cd1abd42249ec8363329e83b24d434c56b710dcc3c34a7cd299051fef1b3e"),
    "involutivity continuity_e1.pde --format json": (0, "66308c4725d41acc95221bf4f9a1ad0ff78349f107a81b6663762424cd7f0e36"),
    "involutivity dalembert.pde --format text": (0, "88a69ad04557c0e71c44138f267d25b072437a8f151f8156bfa946d9648d9aad"),
    "involutivity dalembert.pde --format json": (0, "18d82ade8291e242df77d7654c1d38635a9dacae534dd0a33815d177a85742c4"),
    "involutivity heat.pde --format text": (0, "41cf00890c08e192e738a918f232eb7c22fbec721364d2c1f483bdd9ad60c96f"),
    "involutivity heat.pde --format json": (0, "f51c506657c221d10a49f531618e4a62ff1bc6c421d0a9c7b2e17c56b2db025d"),
    "involutivity pressure_e2.pde --format text": (0, "93a31f7077f2d2935b178d1b9e533cb26393a7e112eef658bbf286080c04ded2"),
    "involutivity pressure_e2.pde --format json": (0, "410c82ca546a359075f2ec0f3bb8b64d87d84e442fb6f771f0ad2bb8648f271f"),
    "involutivity table4_component.pde --format text": (0, "79da2e4648dd1eb9211c19ba53130dd5b4f798498b67ed6c1e53becdbc6ca0bf"),
    "involutivity table4_component.pde --format json": (0, "096c854ba84a0ba6a6b8311c866e68c03d684a761a55a04d69cb8f0fc3e7630d"),
    "involutivity tricomi.pde --format text": (0, "41cf00890c08e192e738a918f232eb7c22fbec721364d2c1f483bdd9ad60c96f"),
    "involutivity tricomi.pde --format json": (0, "f51c506657c221d10a49f531618e4a62ff1bc6c421d0a9c7b2e17c56b2db025d"),
    "involutivity uxx_uyy.pde --format text": (0, "604f763de63c25b7d7d590c7cf7137e5804c894e9b3825984a59686891806f73"),
    "involutivity uxx_uyy.pde --format json": (0, "8f42c6dba7c018dfbafa9287fd31ff92bd3fb63ae2a3bb7481fdb40c6dc6a67c"),
}


@pytest.mark.parametrize("seed", [[], ["--seed", "7"]], ids=["default-seed", "seed-7"])
@pytest.mark.parametrize("argv", list(PDE_OUTPUT_SHA256))
def test_pde_output_bytes_are_pinned(capsys, argv, seed):
    code, out, _ = run_capture(capsys, ["pde", *argv.split(), *seed])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PDE_OUTPUT_SHA256[argv]


ROOT = Path(__file__).resolve().parents[1]
# the refusals pinned above, each as an argv and the documents it reads,
# written into the directory the run starts in
PINNED_REFUSALS = [
    *(([*argv], {}) for argv, _ in OUT_OF_CONTRACT),
    *((["pde", "verify-solution", "heat.pde", "--section", item], {}) for item, _ in BAD_SECTIONS),
    (["pde", "verify-solution", "heat.pde", "--section", "u=x", "--section", "u=y"], {}),
    (["pde", "verify-solution", "continuity_e1.pde", "--section", "v1=x"], {}),
    (["pde", "symbol", "/nonexistent/dir/heat.pde"], {}),
    (["symmorphic", "zz"], {}),
    (["tables", "wallpaper", "zz"], {}),
    (["tables", "pointgroup", "X_9"], {}),
    (["tables", "bogus"], {}),
    (["tables", "validate"], {}),
    (["bordism", "unoriented"], {}),
    (["bordism", "unoriented", "--n", "100000"], {}),
    (["bordism", "crystal-group", "--group", "Z/2305843009213693951"], {}),
    *((["cohomology", "--group", group, "--degree", "1"], {})
      for group in ("2mm", "plane:mm2", "cyclicfoo:4", "Cyclics:4", "cyclic4")),
    *((["pde", "classify" if name.endswith(".desc") else "symbol", name], {name: text})
      for name, text, _ in MALFORMED_DOCUMENTS),
    *((["pde", "classify", "bad.desc"], {"bad.desc": text + "\n"})
      for text, _ in DESCRIPTORS_MISSING_A_FIELD),
    *((["pde", command, "bad.desc"], {"bad.desc": text + "\n"})
      for command, text, _ in MALFORMED_DESCRIPTOR_FIELDS + MISSPELT_FLAGS),
    (["pde", "classify", "unnamed.desc"],
     {"unnamed.desc": "{" + DESC.format(n=2, dim_e=7, betti="[1, 2, 1]") + "}\n"}),
    (["pde", "singular-classify", "unnamed.desc"],
     {"unnamed.desc": "{singular: true, components: [" + COMPONENT + "]}\n"}),
    (["pde", "symbol", "twice.pde"],
     {"twice.pde": "independent: [x, y]\ndependent: [u, u]\norder: 1\nequations: [u_x]\n"}),
    *((["pde", "symbol", "power.pde"],
       {"power.pde": f"independent: [x]\ndependent: [u]\norder: 1\nequations: ['{equation}']\n"})
      for equation in ("(u+u_x+x+1)^40", "(2*u_x+3)^9999", "2^3000000*u_x",
                       "(u_x+1)^1*3^2000000")),
    (["pde", "verify-solution", "power.pde", "--section", "u=x+y+1"],
     {"power.pde": "independent: [x, y]\ndependent: [u]\norder: 1\nequations: ['u^100']\n"}),
    (["pde", "verify-solution", "product.pde", "--section", "u=" + "+".join(f"x^{i}" for i in range(101)),
      "--section", "w=" + "+".join(f"x^{i}" for i in range(101))],
     {"product.pde": "independent: [x]\ndependent: [u, w]\norder: 1\nequations: ['u*w']\n"}),
    (["cohomology", "--group", "D_2", "--module", "Z", "--action", "sign.txt", "--degree", "1"],
     {"sign.txt": f"{BINDING}\n"}),
    *((["cohomology", "--group", "C_2", "--module", "Z", "--action", "bad.txt", "--degree", "1"],
       {"bad.txt": f"# one good line, then a bad one\n{BINDING}\n{line}\n"})
      for line, _ in BAD_BINDING_LINES),
    *((["cohomology", "--group", "plane:2", "--module", module, "--action", "action.txt",
        "--degree", degree], {"action.txt": text})
      for module, degree, text in [
          ("Z", "1", "[[-1,0],[0,-1]] -> [[2]]\n"),
          ("Z", "1", "[[-1,0],[0,-1]] -> [[1,0],[0,1]]\n"),
          ("Z^3", "1", "[[-1,0],[0,-1]] -> [[1,0],[0,1]]\n"),
          ("Z", "2", "[[-1,0],[0,-1]] -> [[1]]\n[[-1,0],[0,-1]] -> [[-1]]\n")]),
]

# run in a child process: each argv of the JSON list on stdin through
# cli.run, in one process, with the documents its entry lists; prints the
# sha256 of each run's argv, exit code, stdout and stderr, then one sha256
# over them all
HASH_SEED_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from crystaljet.cli import run
total = hashlib.sha256()
for argv, files in json.load(sys.stdin):
    for name, text in files.items():
        Path(name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    digest = hashlib.sha256(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    total.update(digest.digest())
    print(digest.hexdigest())
print(total.hexdigest())
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    readme = [shlex.split(line, comments=True)[1:] for block in blocks
              for line in block.splitlines() if line.startswith("crystaljet ")]
    assert len(readme) == 16
    runs = [(argv, {}) for argv in readme] + PINNED_REFUSALS
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    digests = []
    for seed in ("0", "3"):
        workdir = tmp_path / seed
        workdir.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-c", HASH_SEED_CHILD], cwd=workdir, env=env,
                               input=json.dumps(runs), capture_output=True, text=True, check=True)
        digests.append(child.stdout.split())
    assert len(digests[0]) == len(digests[1]) == len(runs) + 1
    differ = [argv for (argv, _), a, b in zip(runs, *digests) if a != b]
    assert digests[0][-1] == digests[1][-1], f"runs whose output depends on the hash seed: {differ}"

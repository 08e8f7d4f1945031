import json

import pytest

from crystaljet.cli import (
    canonical_json,
    load_known_errata,
    run,
    validate_all_tables,
)


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


def test_tables_pointgroup_verify_exit_codes(capsys):
    code, _, _ = run_capture(capsys, ["tables", "pointgroup", "C_3", "--verify"])
    assert code == 2
    code, _, _ = run_capture(
        capsys, ["tables", "pointgroup", "C_3", "--verify", "--expect-known-errata"]
    )
    assert code == 0
    code, _, _ = run_capture(capsys, ["tables", "pointgroup", "C_4", "--verify"])
    assert code == 0


def test_tables_validate(capsys):
    code, out, _ = run_capture(capsys, ["tables", "validate", "--format", "json"])
    assert code == 2
    payload = json.loads(out)
    classes = {m["class"] for m in payload["mismatches"]}
    assert "LagrangeViolationInPaper" in classes
    assert "BravaisSumMismatch" in classes
    code, _, _ = run_capture(capsys, ["tables", "validate", "--expect-known-errata"])
    assert code == 0


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


def test_cohomology_command(capsys):
    code, out, _ = run_capture(
        capsys,
        ["cohomology", "--group", "cyclic:4", "--module", "Z", "--degree", "2",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["cohomology"] == "Z/4"


def test_unknown_input_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["tables", "pointgroup", "X_9"])
    assert code == 1 and "error" in err
    code, _, _ = run_capture(capsys, ["bordism", "unoriented"])  # missing --n
    assert code == 1


def test_error_names_its_type_when_the_message_is_empty(capsys, monkeypatch):
    from crystaljet import cli

    def exhausted(n):
        raise MemoryError()

    monkeypatch.setattr(cli, "unoriented_bordism", exhausted)
    code, _, err = run_capture(capsys, ["bordism", "unoriented", "--n", "4"])
    assert code == 1 and err.strip() == "error: MemoryError"


def test_oversized_cohomology_is_refused_with_its_size(capsys):
    code, _, err = run_capture(capsys, ["cohomology", "--group", "O_h", "--degree", "2"])
    assert code == 1
    assert err.startswith("error: CochainBoundExceeded: 103823 x 2209 matrix exceeds")


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
    from crystaljet.cli import _errata_dataset

    known = load_known_errata()
    report = validate_all_tables()
    for m in report.mismatches:
        key = (_errata_dataset(m), m["location"], m["class"])
        assert key in known, key

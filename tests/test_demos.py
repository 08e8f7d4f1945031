import hashlib
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("demo_*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_jet_demo_output_is_pinned(capsys):
    runpy.run_path(str(DEMO_DIR / "demo_jet_analysis.py"), run_name="__main__")
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "4726097844e9222fa9e1f97ec1d3f7e847c054b35109522c1609309211b5e672"

"""Each walkthrough in ``demos/`` runs to the end in-process and prints its
summary lines."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# the lines (or line starts) each demo's summary prints
SUMMARIES = {
    "divergence_curve.py": (
        "norm chain (norm >= value on every row): True",
        "all bound rows pass: ",
        "empirical min over the grid: ",
    ),
    "growth_crossover.py": (
        "tail ratios (sum_{k>n} eps_k)/rho_n -- observed to grow, not vanish:",
        " 251  +e^",
    ),
    "series_failure.py": (
        "S_Jmax / S_Jmax/2 = ",
        "H(b) norms of partial sums and Cesaro means (log10):",
        "convexity on every row: True",
    ),
}


def test_every_demo_has_a_summary():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(SUMMARIES)


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for summary in SUMMARIES[name]:
        assert any(line.startswith(summary) for line in lines), summary

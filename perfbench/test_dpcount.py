"""The DP work-count formulas reproduce the figures quoted in ROADMAP.md.

Run with: python3 -m pytest perfbench/test_dpcount.py
"""

import pytest

from dpcount import dp_counts, widening_radii


@pytest.mark.parametrize(
    "n, radius, masks, reachable",
    [
        (20, 9, 2_095_104, 352_715),
        (60, 10, 88_076_288, 14_755_285),
        (20, 19, 20_971_520, 1_048_575),
    ],
)
def test_roadmap_figures(n, radius, masks, reachable):
    counts = dp_counts(n, radius)
    assert counts["masks"] == masks
    assert counts["reachable"] == reachable


def test_radius_beyond_n_is_the_full_sweep():
    assert dp_counts(20, 50) == dp_counts(20, 19)


def test_widening_doubles_and_caps():
    assert widening_radii(20, 3, 0) == [3]
    assert widening_radii(20, 6, 2) == [6, 12, 19]
    assert widening_radii(20, 25, 1) == [19, 19]

"""Work counts of the windowed DP in ``mallows_select.mle``, computed from (n, R).

The DP sweeps positions t = 0..n-1.  At position t the window is
[lo, hi] = [max(0, t-R), min(n-1, t+R)], w = hi - lo + 1 slots wide, and
the value table holds one state per subset mask of the window.  Every
element below ``lo`` is already placed, so only masks with popcount
t - lo are reachable.  These counts describe the algorithm, not a run:
they are computed, never measured.
"""

from __future__ import annotations

from math import comb


def dp_counts(n: int, radius: int) -> dict[str, int]:
    """Masks swept, reachable states, candidate placements and table bytes of one DP run.

    ``table_bytes`` models the seed implementation: one uint8 choice per
    mask and position kept for the backward walk, plus two int64 value
    layers (current and next) of the widest window.
    """
    R = min(radius, n - 1)
    masks = reachable = candidates = widest = 0
    for t in range(n):
        lo = max(0, t - R)
        w = min(n - 1, t + R) - lo + 1
        masks += 1 << w
        reachable += comb(w, t - lo)
        candidates += w << w
        widest = max(widest, 1 << w)
    return {
        "masks": masks,
        "reachable": reachable,
        "candidates": candidates,
        "table_bytes": masks + 2 * 8 * widest,
    }


def widening_radii(n: int, first: int, widenings: int) -> list[int]:
    """Radii of the DP runs of one recovery: R0, 2*R0, ... capped at n - 1."""
    radius = min(first, n - 1)
    radii = []
    for _ in range(widenings + 1):
        radii.append(radius)
        radius = min(2 * radius, n - 1)
    return radii

"""A fixed reference loop that measures how fast the host runs right now.

The benchmark times this loop next to every operation and reports each
operation's wall time as a multiple of it (unit ``ref``).  On a shared
host the same operation can run twice as slowly for tens of seconds when
neighbours are busy; the loop slows with it, so the ratio stays put while
the raw wall time does not.  The loop is the benchmark's own code and
never calls the package, so a change to the package cannot move it.

Its mix follows the package's hot paths: small numpy permutations and
``np.add.at`` tallies next to Python-level list and dict work.
"""

import numpy as np

N_ITEMS = 20
ROUNDS = 3000
TALLY_REPEATS = 20


def reference_loop() -> int:
    """About 10 ms of mixed interpreter and numpy work; returns a checksum."""
    rng = np.random.default_rng(12345)
    acc = 0
    seen = {}
    for i in range(ROUNDS):
        order = rng.permutation(N_ITEMS).tolist()
        out = []
        for j, x in enumerate(order):
            out.insert(j // 2, x)
        seen[i % 97] = out
        acc += sum(out[:5])
    wins = np.zeros((N_ITEMS, N_ITEMS), dtype=np.int64)
    pairs = rng.integers(0, N_ITEMS, size=(2000, 2))
    for _ in range(TALLY_REPEATS):
        np.add.at(wins, (pairs[:, 0], pairs[:, 1]), 1)
    return acc + int(wins.sum())

"""The four `supercong verify` sweeps the benchmark runs, and how a seed picks each window.

Seed 0 gives each workload's reference window.  Any other seed draws pmin
and pmax from the workload's bands.  The bands are narrow on purpose: the
primes that set the cost (the top p = 3 (mod 4) prime of the mod p^4 Gamma_p
sweeps, swisher's 41, the b1 primes near 300, the whole prime set of the
series frontier) stay inside every window, and a seed adds or drops at most
one cheap edge prime, so the work and the number of decided outcomes move by
less than 2%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple[str, ...]  # empty: the CLI's default check set
    workers: int
    pmin: int
    pmax: int
    pmin_band: tuple[int, int]
    pmax_band: tuple[int, int]
    expected: str  # file under expected/ holding the recorded rows

    def window(self, seed: int) -> tuple[int, int]:
        """(pmin, pmax) for this seed; seed 0 is the reference window."""
        if seed == DEFAULT_SEED:
            return self.pmin, self.pmax
        rng = random.Random(f"{self.expected}:{seed}")
        return rng.randint(*self.pmin_band), rng.randint(*self.pmax_band)

    def argv(self, seed: int, workers: int | None = None) -> list[str]:
        """The `verify` arguments the program receives for this seed."""
        pmin, pmax = self.window(seed)
        args = ["verify"]
        if self.checks:
            args += ["--checks", ",".join(self.checks)]
        args += ["--pmin", str(pmin), "--pmax", str(pmax),
                 "--workers", str(self.workers if workers is None else workers)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-default",
            (), 1, 3, 100, (3, 5), (97, 100), "sweep-default",
        ),
        Workload(
            "identities-300",
            ("a1", "a2", "a3", "b1"), 1, 3, 300, (3, 5), (293, 306), "identities-300",
        ),
        Workload(
            "series-frontier",
            ("a1", "a2", "b4", "b6", "wolstenholme", "trace"), 1, 2100, 2200,
            (2100, 2111), (2179, 2202), "series-frontier",
        ),
        Workload(
            "sweep-default-w2",
            (), 2, 3, 100, (3, 5), (97, 100), "sweep-default",
        ),
    )
}


def band_window(w: Workload) -> tuple[int, int]:
    """The widest window any seed can give; expected rows are recorded over it."""
    return w.pmin_band[0], w.pmax_band[1]

"""coop_grid: criterion 1's loop on a seeded sample of game instances.

Each round draws ten instances from criterion 1's parameter space (one pd,
six td, one pgg, two bertrand: td dominates that space, and every kind is
in every round so that all runs hold the same mix).  For each instance it
builds the dilemma and one ``CooperationScanner``, then runs the 441 types
of the 21x21 grid through ``cooperation_condition`` and ``scanner.verdict``
and, for bertrand, ``bertrand_undercut_condition``.  One operation is one
type cell.

Checks per cell: the closed form equals the engine for pd, td and pgg; for
bertrand the guarded conjunction (closed form and undercut guard) equals
the engine.  The bare bertrand closed form disagrees with the engine where
the undercut guard fails; those cells are counted as the pinned
discrepancy ``bertrand_tie_kernel_vs_engine``.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from translucent.beliefs import TranslucentType

NAME = "coop_grid"
ROUND_MIX = ("pd", "td", "td", "td", "td", "td", "td", "pgg", "bertrand",
             "bertrand")
ROUNDS_PER_TRACE_SECOND = 0.6


def pgg_rho(n: int, rng: random.Random) -> F:
    """A marginal return in tenths with 1/n < rho < 1."""
    return F(rng.choice([t for t in range(1, 10) if F(1, n) < F(t, 10)]), 10)


def sample_params(kind: str, rng: random.Random):
    """Draw one instance of criterion 1's grid for ``kind``: the params
    passed to the closed form, and those passed to the game factory."""
    if kind == "pd":
        b = F(rng.randint(3, 20), 2)
        c = F(rng.randint(1, int(2 * b) - 1), 2)
        params = {"b": b, "c": c}
        return params, params
    if kind == "td":
        spread = rng.randint(3, 50)
        params = {"l": 2, "h": 2 + spread, "bonus": rng.randint(1, spread + 5)}
        return params, params
    if kind == "pgg":
        n = rng.randint(2, 8)
        params = {"n": n, "rho": pgg_rho(n, rng)}
        return params, {**params, "grid": 10}
    params = {"n": rng.randint(2, 6), "l": rng.randint(2, 5),
              "h": rng.randint(6, 30)}
    return params, params


class Workload:
    def __init__(self, seed: int, layers):
        self.seed = seed
        grid = [F(k, 20) for k in range(21)]
        self.types = [TranslucentType(a, b) for a in grid for b in grid]

    def trace_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * ROUNDS_PER_TRACE_SECOND))

    def instances(self, r: int) -> list:
        rng = random.Random(f"{NAME}:{self.seed}:{r}")
        return [(kind, *sample_params(kind, rng)) for kind in ROUND_MIX]

    def round(self, r: int, L, rec) -> None:
        for kind, params, game_params in self.instances(r):
            rec.digest(f"{kind} {sorted(params.items())}")
            try:
                d = L.make_dilemma(kind, game_params)
                verdict = L.bind("beliefs.verdict", L.CooperationScanner(d).verdict)
            except Exception as exc:  # a failed build fails every cell
                for _ in self.types:
                    rec.begin_op()
                    rec.error(f"{kind} {params}: build raised {exc!r}")
                    rec.end_op(False)
                continue
            bertrand = kind == "bertrand"
            for t in self.types:
                rec.begin_op()
                ok = True
                try:
                    closed = L.cooperation_condition(kind, params, t.alpha, t.beta)
                    engine = verdict(t)
                    guard = (L.bertrand_undercut_condition(params, t.alpha, t.beta)
                             if bertrand else True)
                except Exception as exc:
                    rec.error(f"{kind} {params} {t}: raised {exc!r}")
                    rec.end_op(False)
                    continue
                if bertrand:
                    if (closed.rational and guard) != engine.rational:
                        ok = False
                    elif closed.rational != engine.rational:
                        rec.discrepancy("bertrand_tie_kernel_vs_engine")
                elif closed.rational != engine.rational:
                    ok = False
                rec.end_op(ok)
                if not ok:
                    rec.error(f"{kind} {params} {t}: closed form "
                              f"{closed.rational} vs engine {engine.rational}")
                rec.digest(f"{closed.rational:d} {closed.binding_quantity} "
                           f"{closed.threshold} {engine.rational:d} "
                           f"{engine.best_deviation} {engine.eu_cooperate} "
                           f"{engine.eu_best_deviation} {guard:d}")

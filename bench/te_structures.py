"""te_structures: equilibrium verdicts through coherence and structures.

One operation is one pool sweep: a seeded two-point profile on each game of
a fixed pool like criterion 3's (including the 4-player public-goods game),
each run through the coherence checker, ``build_coherent_structure``,
``te_in_structure`` and ``te_condition``.  A single verdict costs 1 ms on a
2-player game and up to 50 ms on the 4-player pgg, so the median of single
verdicts jumps between games from seed to seed; a sweep's is stable.

Each round also builds four typed detection-bit structures with seeded
types (pgg with n=3 and n=4 on grid 1, bertrand (2,2,8) and (3,2,6)),
checks every cooperator state with ``is_rational_at`` and the whole
profile with ``te_condition_typed``, validates the structure and
round-trips it through JSON; and it runs ``verify_social_dilemma`` on each
pool game.  Those checks count as attempted operations but are not timed
as sweeps.  Type levels are interior (1/4, 1/2, 3/4), so every typed
structure has full belief support and the same size on every seed.

Checks: coherence equals structural TE1-TE4 on every profile; every typed
structure and its JSON round trip validate clean, and the round trip
re-serialises to the same bytes; the pgg ``n_minus_1`` reading equals
per-state rationality; for bertrand, ``te_condition_typed`` conjoined with
the heterogeneous undercut guard equals per-state rationality; and
``verify_social_dilemma`` finds the factory's Nash profile among the pure
equilibria (td with bonus 1 has several) and its welfare profile as the
unique maximiser.  The bare bertrand tie-kernel condition disagrees with
per-state rationality where the guard fails; those structures are counted
as the pinned discrepancy ``typed_bertrand_tie_kernel_vs_structure``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F

from coop_grid import pgg_rho

NAME = "te_structures"
POOL = (
    ("pd", {"b": 4, "c": 1}),
    ("pd", {"b": F(3, 2), "c": 1}),
    ("pgg", {"n": 3, "rho": F(3, 5), "grid": 2}),
    ("pgg", {"n": 4, "rho": F(2, 5), "grid": 1}),
    ("bertrand", {"n": 2, "l": 2, "h": 6}),
    ("bertrand", {"n": 3, "l": 2, "h": 5}),
    ("td", {"l": 2, "h": 7, "bonus": 3}),
    ("td", {"l": 2, "h": 5, "bonus": 1}),
)
SWEEPS_PER_ROUND = 50
PURE_LEVELS = [F(0), F(1)]
MIXED_LEVELS = [F(k, 8) for k in range(1, 8)]
# How many players of each profile play a pure strategy, cycled over the
# sweeps of a round.  A profile's cost grows with its support, so a fixed
# cycle gives every round the same cost mix, and with two fifths of the
# sweeps fully mixed the median falls inside the one-pure block instead of
# on the edge between two blocks.
PURE_CYCLE = (0, 1, 0, 1, 2)
TYPED = (
    ("pgg", {"n": 3, "grid": 1}),
    ("pgg", {"n": 4, "grid": 1}),
    ("bertrand", {"n": 2, "l": 2, "h": 8}),
    ("bertrand", {"n": 3, "l": 2, "h": 6}),
)
TYPE_LEVELS = [F(1, 4), F(1, 2), F(3, 4)]
ROUNDS_PER_TRACE_SECOND = 0.04


def undercut_guard(params: dict, alphas, betas) -> bool:
    """Every player's cooperation survives the undercut to H-1:
    prod_j beta_j * H / N >= prod_j gamma_j * (H - 1), gamma_j = (1 -
    alpha_i) * beta_j, over the other players j."""
    n, h = params["n"], params["h"]
    for i in range(n):
        on_path = deviate = F(1)
        for j in range(n):
            if j != i:
                on_path *= betas[j]
                deviate *= (1 - alphas[i]) * betas[j]
        if on_path * h / n < deviate * (h - 1):
            return False
    return True


class Workload:
    def __init__(self, seed: int, layers):
        self.seed = seed
        self.pool = [layers.make_dilemma(kind, params) for kind, params in POOL]

    def trace_rounds(self, seconds: float) -> int:
        return max(1, round(seconds * ROUNDS_PER_TRACE_SECOND))

    def round(self, r: int, L, rec) -> None:
        rng = random.Random(f"{NAME}:{self.seed}:{r}")
        checkers = []
        for d in self.pool:
            try:
                checkers.append(L.bind("equilibrium.coherence",
                                       L.make_coherence_checker(d)))
            except Exception as exc:
                checkers.append(f"checker {d.kind} {d.params}: raised {exc!r}")
        for s in range(SWEEPS_PER_ROUND):
            self.sweep(PURE_CYCLE[s % len(PURE_CYCLE)], checkers, rng, L, rec)
        for kind, params in TYPED:
            n = params["n"]
            if kind == "pgg":
                params = {**params, "rho": pgg_rho(n, rng)}
            alphas = [rng.choice(TYPE_LEVELS) for _ in range(n)]
            betas = [rng.choice(TYPE_LEVELS) for _ in range(n)]
            self.typed(kind, params, alphas, betas, L, rec)
        for d in self.pool:
            rec.begin_op(timed=False)
            try:
                report = L.verify_social_dilemma(d)
                ok = (d.nash_profile in report.nash_equilibria
                      and report.unique_welfare == d.welfare_profile)
            except Exception as exc:
                rec.error(f"verify {d.kind} {d.params}: raised {exc!r}")
                rec.end_op(False)
                continue
            rec.end_op(ok)
            if not ok:
                rec.error(f"verify {d.kind} {d.params}: {report}")
            rec.digest(f"verify {d.kind} {report.nash_equilibria} "
                       f"{report.welfare_maximizers}")

    def sweep(self, pure: int, checkers, rng, L, rec) -> None:
        """One operation: a seeded two-point profile on every pool game,
        each judged by coherence and by TE1-TE4 in its structure.  In each
        profile ``pure`` players (or all, if fewer) play a pure strategy."""
        profiles = []
        for d in self.pool:
            n = d.num_players
            pure_players = set(rng.sample(range(n), min(pure, n)))
            profiles.append([rng.choice(PURE_LEVELS) if i in pure_players
                             else rng.choice(MIXED_LEVELS) for i in range(n)])
        outputs, problems = [], []
        rec.begin_op()
        for d, check, betas in zip(self.pool, checkers, profiles):
            where = f"profile {d.kind} {d.params} {[str(b) for b in betas]}"
            if isinstance(check, str):
                problems.append(check)
                continue
            try:
                sigma = L.two_point(d, betas)
                coherence = check(sigma)
                m = L.build_coherent_structure(d, sigma, strict=False)
                structural = L.te_in_structure(m, sigma)
                condition = L.te_condition(d.kind, d.params, betas)
            except Exception as exc:
                problems.append(f"{where}: raised {exc!r}")
                continue
            if structural.holds != coherence.coherent:
                problems.append(f"{where}: coherence {coherence.coherent} vs "
                                f"TE1-TE4 {structural.holds}")
            outputs.append(f"{where} {coherence.coherent:d} {coherence.witness} "
                           f"{structural.te1} {structural.te2} {structural.te3} "
                           f"{structural.te4} {condition:d}")
        rec.end_op(not problems)
        for problem in problems:
            rec.error(problem)
        for line in outputs:
            rec.digest(line)

    def typed(self, kind, params, alphas, betas, L, rec) -> None:
        """One typed detection-bit structure, checked state by state."""
        rec.begin_op(timed=False)
        where = f"typed {kind} {params} alphas={alphas} betas={betas}"
        try:
            d = L.make_dilemma(kind, params)
            m = L.build_typed_dilemma_structure(d, alphas, betas)
            rational = []
            for i in range(d.num_players):
                coop = d.cooperate_strategy(i)
                verdicts = [L.is_rational_at(m, i, k).rational
                            for k in range(m.num_states) if m.states[k][i] == coop]
                rational.append(all(verdicts))
                rec.tick()
            typed = L.te_condition_typed(kind, params, alphas, betas)
            violations = L.validate_structure(m)
            rec.tick()
            text = json.dumps(L.structure_to_json(m))
            m2 = L.structure_from_json(text)
            rec.tick()
            violations2 = L.validate_structure(m2)
            rec.tick()
            text2 = json.dumps(L.structure_to_json(m2))
        except Exception as exc:
            rec.error(f"{where}: raised {exc!r}")
            rec.end_op(False)
            return
        oracle = all(rational)
        problems = []
        if violations or violations2:
            problems.append(f"{len(violations)}+{len(violations2)} violations")
        if text2 != text:
            problems.append("JSON round trip changed the document")
        if kind == "pgg":
            if typed.readings["n_minus_1"] != oracle:
                problems.append(f"n_minus_1 reading {typed.readings} vs {oracle}")
        elif (typed.holds and undercut_guard(params, alphas, betas)) != oracle:
            problems.append(f"guarded condition vs structure {oracle}")
        elif typed.holds != oracle:
            rec.discrepancy("typed_bertrand_tie_kernel_vs_structure")
        rec.end_op(not problems)
        if problems:
            rec.error(f"{where}: {'; '.join(problems)}")
        rec.count("counterfactual.states", m.num_states)
        rec.count("counterfactual.belief_entries",
                  sum(len(dist) for per_state in m.beliefs for dist in per_state))
        rec.count("counterfactual.json_bytes", len(text))
        rec.digest(f"{where} {rational} {typed.holds} "
                   f"{sorted(typed.readings.items())} "
                   f"{hashlib.sha256(text.encode()).hexdigest()}")

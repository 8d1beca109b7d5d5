"""Detection-aware beliefs and the generic cooperation-rationality engine.

A cooperator of type (alpha, beta) believes every other player independently
cooperates with probability beta, and that any deviation from intended
cooperation is independently detected by each other player with probability
alpha, in which case the detector defects.  On the path of play the others
therefore cooperate with probability beta; after a deviation the mixture over
detection sets collapses to independent cooperation with probability
(1 - alpha) * beta.

The engine below decides whether cooperating is a weak best response against
these beliefs by evaluating every deviation strategy exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Optional

from .exact import to_exact, to_unit
from .games import SocialDilemma, Strategy


@dataclass(frozen=True)
class TranslucentType:
    """Detection probability alpha and cooperation belief beta, both in [0,1]."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", to_unit(self.alpha, "alpha"))
        object.__setattr__(self, "beta", to_unit(self.beta, "beta"))


@dataclass(frozen=True)
class OthersBehaviorModel:
    """Independent cooperate/defect distribution for each other player.

    ``cooperate_probs[j]`` is the cooperation probability of the j-th other
    player (players other than the focal one, in index order).
    """

    cooperate_probs: tuple

    def __post_init__(self):
        probs = tuple(to_exact(p) for p in self.cooperate_probs)
        object.__setattr__(self, "cooperate_probs", probs)
        for p in probs:
            if not 0 <= p <= 1:
                raise ValueError(f"cooperation probability {p} outside [0, 1]")

    @property
    def num_others(self) -> int:
        return len(self.cooperate_probs)

    def count_distribution(self) -> tuple:
        """P(exactly k others cooperate) for k = 0..n-1, exact.

        Computed by convolving the per-player Bernoulli distributions, so
        heterogeneous probabilities are handled too.
        """
        dist = [Fraction(1)]
        for q in self.cooperate_probs:
            nxt = [Fraction(0)] * (len(dist) + 1)
            for k, p in enumerate(dist):
                nxt[k] += p * (1 - q)
                nxt[k + 1] += p * q
            dist = nxt
        return tuple(dist)


def on_path_beliefs(t: TranslucentType, n: int) -> OthersBehaviorModel:
    """Beliefs of an undisturbed cooperator: others cooperate w.p. beta."""
    if n < 2:
        raise ValueError("need at least 2 players")
    return OthersBehaviorModel((t.beta,) * (n - 1))


def deviation_belief_mixture(t: TranslucentType, n: int) -> OthersBehaviorModel:
    """Post-deviation beliefs: others cooperate w.p. (1 - alpha) * beta.

    This is the detection-set mixture in closed form: each other player
    detects independently w.p. alpha and then defects, and otherwise
    cooperates w.p. beta.
    """
    if n < 2:
        raise ValueError("need at least 2 players")
    gamma = (1 - t.alpha) * t.beta
    return OthersBehaviorModel((gamma,) * (n - 1))


# ---------------------------------------------------------------------------
# expected utilities and the rationality verdict


def _require_symmetric(d: SocialDilemma) -> None:
    if not d.game.symmetric:
        raise ValueError("count aggregation needs a symmetric dilemma")


def expected_utility(d: SocialDilemma, i: int, strategy: Strategy,
                     model: OthersBehaviorModel) -> Fraction:
    """E[u_i(strategy, s_-i)] with the others drawn from ``model``,
    aggregated over cooperator counts (symmetric dilemmas only)."""
    _require_symmetric(d)
    if model.num_others != d.num_players - 1:
        raise ValueError("model size does not match the game")
    total = Fraction(0)
    for k, p in enumerate(model.count_distribution()):
        if p:
            total += p * d.payoff_vs_counts(i, strategy, k)
    return total


def expected_utility_cooperate(d: SocialDilemma, i: int,
                               t: TranslucentType) -> Fraction:
    """Expected payoff of cooperating under on-path beliefs."""
    model = on_path_beliefs(t, d.num_players)
    return expected_utility(d, i, d.cooperate_strategy(i), model)


def expected_utility_deviation(d: SocialDilemma, i: int, t: TranslucentType,
                               s_dev: Strategy) -> Fraction:
    """Expected payoff of playing ``s_dev`` under post-deviation beliefs."""
    model = deviation_belief_mixture(t, d.num_players)
    return expected_utility(d, i, s_dev, model)


@dataclass(frozen=True)
class RationalityReport:
    """Verdict on whether intended cooperation is a weak best response."""

    rational: bool
    best_deviation: Optional[Strategy]
    eu_cooperate: Fraction
    eu_best_deviation: Optional[Fraction]


class CooperationScanner:
    """Reusable cooperation-rationality engine for one symmetric dilemma.

    Precomputes the payoff of every (strategy, cooperator count) pair once,
    scaled to a common integer denominator, so that scanning a grid of types
    costs only integer arithmetic.  The on-path half of a verdict depends on
    beta alone and the post-deviation half on gamma = (1 - alpha) * beta
    alone, so the scanner memoises each half: ``_on_path`` maps beta's
    (numerator, denominator) to the cooperation payoff, and ``_deviation``
    maps gamma in lowest terms to the best deviation, found by the first
    strict maximum in strategy order (every row is scanned, ties included).
    A verdict is then two lookups and one cross-multiplied comparison.  The
    memo holds at most one entry per distinct beta and one per distinct
    gamma asked, and lives and dies with the scanner.  Everything stays
    exact: the expected utilities equal ``expected_utility`` under the
    on-path and post-deviation beliefs.
    """

    def __init__(self, d: SocialDilemma, i: int = 0):
        if not 0 <= i < d.num_players:
            raise IndexError(f"player index {i} out of range 0..{d.num_players - 1}")
        _require_symmetric(d)
        self.dilemma = d
        self.player = i
        self.others = d.num_players - 1
        self.binom = [comb(self.others, k) for k in range(self.others + 1)]
        coop = d.cooperate_strategy(i)
        coop_row = [d.payoff_vs_counts(i, coop, k)
                    for k in range(self.others + 1)]
        dev_rows = []
        for s in d.game.strategy_sets[i]:
            if s == coop:
                continue
            dev_rows.append((s, [d.payoff_vs_counts(i, s, k)
                                 for k in range(self.others + 1)]))
        scale = lcm(*(u.denominator for _, row in dev_rows for u in row),
                    *(u.denominator for u in coop_row))
        self.scale = scale
        self.coop_row = [int(u * scale) for u in coop_row]
        # sparse integer rows: (count, scaled payoff) with zeros dropped
        self.deviations = [
            (s, tuple((k, int(u * scale)) for k, u in enumerate(row) if u))
            for s, row in dev_rows
        ]
        self._on_path = {}
        self._deviation = {}

    def _weights(self, num: int, den: int) -> tuple:
        """Unnormalized binomial weights over cooperator counts for the
        cooperation probability num/den (not necessarily in lowest terms):
        entry k is C(n-1,k) * num^k * (den-num)^(n-1-k); the denominator is
        den^(n-1)."""
        comp = den - num
        n = self.others
        return ([self.binom[k] * num ** k * comp ** (n - k) for k in range(n + 1)],
                den ** n)

    def _path_entry(self, bn: int, bd: int) -> tuple:
        """(cooperation numerator, its weight denominator, eu_cooperate) when
        the others cooperate w.p. bn/bd."""
        w_path, den_path = self._weights(bn, bd)
        coop_int = 0
        for w, u in zip(w_path, self.coop_row):
            if w and u:
                coop_int += w * u
        return coop_int, den_path, Fraction(coop_int, den_path * self.scale)

    def _deviation_entry(self, gn: int, gd: int) -> tuple:
        """(best numerator, its weight denominator, first maximizer, eu of the
        best deviation) when the others cooperate w.p. gn/gd; the numerator
        and maximizer are None when there is no deviation."""
        w_dev, den_dev = self._weights(gn, gd)
        best_dev = None
        best_int = None
        for s, row in self.deviations:
            eu = 0
            for k, u in row:
                eu += w_dev[k] * u
            if best_int is None or eu > best_int:
                best_int = eu
                best_dev = s
        eu_best = (None if best_int is None
                   else Fraction(best_int, den_dev * self.scale))
        return best_int, den_dev, best_dev, eu_best

    def verdict(self, t: TranslucentType) -> RationalityReport:
        an, ad = t.alpha.numerator, t.alpha.denominator
        bn, bd = t.beta.numerator, t.beta.denominator
        path = self._on_path.get((bn, bd))
        if path is None:
            path = self._on_path[bn, bd] = self._path_entry(bn, bd)
        # deviation beliefs: others cooperate w.p. gamma = (1 - alpha) * beta
        gn, gd = (ad - an) * bn, ad * bd
        g = gcd(gn, gd)
        gamma = (gn // g, gd // g)
        dev = self._deviation.get(gamma)
        if dev is None:
            dev = self._deviation[gamma] = self._deviation_entry(*gamma)
        coop_int, den_path, eu_coop = path
        best_int, den_dev, best_dev, eu_best = dev
        if best_int is None:
            return RationalityReport(True, None, eu_coop, None)
        # coop_int/(den_path * scale) >= best_int/(den_dev * scale)
        rational = coop_int * den_dev >= best_int * den_path
        return RationalityReport(rational, best_dev, eu_coop, eu_best)


def is_cooperation_rational(d: SocialDilemma, i: int, t) -> RationalityReport:
    """Decide rationality of cooperation by checking every deviation.

    Cooperation is rational iff its on-path expected payoff is >= the
    post-deviation expected payoff of every alternative strategy (weak
    inequality; parameter boundaries count as rational).  The best deviation
    reported is the first maximizer in strategy order.  This is the verdict
    of a fresh ``CooperationScanner``, so nothing is memoised across calls;
    a non-symmetric dilemma raises ValueError and a player index outside
    0..n-1 raises IndexError.
    """
    if not isinstance(t, TranslucentType):
        t = TranslucentType(*t)
    return CooperationScanner(d, i).verdict(t)

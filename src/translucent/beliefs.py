"""Detection-aware beliefs and the generic cooperation-rationality engine.

A cooperator of type (alpha, beta) believes every other player independently
cooperates with probability beta, and that any deviation from intended
cooperation is independently detected by each other player with probability
alpha, in which case the detector defects.  On the path of play the others
therefore cooperate with probability beta; after a deviation the mixture over
detection sets collapses to independent cooperation with probability
(1 - alpha) * beta.

The engine below decides whether cooperating is a weak best response against
these beliefs and every deviation strategy, exactly; it scans only the
deviations that can be the first best one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import ge
from typing import NamedTuple, Optional

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


# ---------------------------------------------------------------------------
# the rationality verdict


class RationalityReport(NamedTuple):
    """Verdict on whether intended cooperation is a weak best response."""

    rational: bool
    best_deviation: Optional[Strategy]
    eu_cooperate: Fraction
    eu_best_deviation: Optional[Fraction]


def _undominated(rows: list, positions: list) -> list:
    """The positions (ascending) of the rows at ``positions`` (ascending)
    that can be the first maximizer of sum_k w_k * row[k], for weights that
    are all positive or that sit on k = 0 or k = -1 alone: the undominated
    rows, each first copy only, and the first best of columns 0 and -1 (see
    ``CooperationScanner``).  One pass in decreasing lexicographic order
    (Kung, Luccio & Preparata 1975): only an earlier row can dominate a
    later one, and the stable sort puts a copy after its first occurrence,
    so the frontier only grows.
    """
    frontier, kept = [], []
    for pos in sorted(positions, key=rows.__getitem__, reverse=True):
        row = rows[pos]
        for other in frontier:
            if all(map(ge, other, row)):
                break
        else:
            frontier.append(row)
            kept.append(pos)
    if positions:
        for k in (0, -1):
            column = [rows[pos][k] for pos in positions]
            kept.append(positions[column.index(max(column))])
    return sorted(set(kept))


class CooperationScanner:
    """Reusable cooperation-rationality engine for one symmetric dilemma.

    Reads the payoff of every (strategy, cooperator count) pair once, from
    the game's multiset memo as integers over one scale, so that scanning a
    grid of types costs only integer arithmetic.  The on-path half of a
    verdict depends on beta alone and the post-deviation half on gamma =
    (1 - alpha) * beta alone, so the scanner memoises each half:
    ``_on_path`` maps beta's (numerator, denominator) to the cooperation
    payoff, and ``_deviation`` maps gamma in lowest terms to the best
    deviation, found by the first strict maximum in strategy order.
    ``rows`` holds every strategy's row; ``deviations`` keeps only the rows
    that can be that maximizer (``_undominated``).  A row another deviation
    matches or beats at every count and beats at one, or an identical
    later row, is dropped, but the first best at count 0 and at count N-1
    stays.  For gamma strictly inside (0, 1) every count's weight is
    positive, so a dropped row is strictly below the row that beats it or
    tied with its earlier copy; at gamma 0 or 1 one count carries all the
    weight.  The first maximizer is thus the one a scan of every row finds.
    A verdict is then two lookups and one cross-multiplied comparison.  The
    memo holds at most one entry per distinct beta and one per distinct
    gamma asked, and lives and dies with the scanner.  Everything stays
    exact: the expected utilities equal the count and pattern forms of
    tests/beliefs_oracle.py under the on-path and post-deviation beliefs.
    A strategy of the dilemma that is off the game raises ``_positions``'s
    ValueError before the symmetry check.
    """

    def __init__(self, d: SocialDilemma, i: int = 0):
        if not 0 <= i < d.num_players:
            raise IndexError(f"player index {i} out of range 0..{d.num_players - 1}")
        coop = d._positions[i][0]  # ValueError: a strategy off the game
        if not d.game.symmetric:
            raise ValueError("count aggregation needs a symmetric dilemma")
        self.dilemma = d
        self.player = i
        self.others = d.num_players - 1
        self.binom = [comb(self.others, k) for k in range(self.others + 1)]
        # every (strategy, cooperator count) row, read from the game's
        # multiset memo in one call, as integers over its scale (the
        # payoffs by counts of tests/beliefs_oracle.py)
        game, strats = d.game, d.game.strategy_sets[i]
        counts = [d._count_multiset(i, k) for k in range(self.others + 1)]
        values, self.scale = game._multiset_payoffs(
            [(pos, m) for pos in range(len(strats)) for m in counts])
        self.rows = [values[k:k + len(counts)]
                     for k in range(0, len(values), len(counts))]
        self.coop_row = self.rows[coop]
        # the deviation rows that can be the first maximizer, as sparse
        # integer rows: (count, scaled payoff) with zeros dropped
        alternatives = [pos for pos in range(len(strats)) if pos != coop]
        self.deviations = [
            (strats[pos], tuple((k, u) for k, u in enumerate(self.rows[pos]) if u))
            for pos in _undominated(self.rows, alternatives)
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

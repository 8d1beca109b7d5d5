"""Normal-form games and the four canonical social dilemmas.

A social dilemma here is a finite game with a unique pure Nash profile and a
unique welfare-maximizing pure profile that strictly improves every player's
payoff over the Nash profile.  "Cooperate" means playing one's component of
the welfare profile, "defect" the Nash component.

Payoffs are computed by rule, never by materialized matrices, so price/claim
ranges and contribution grids can be large; exhaustive checks take an explicit
profile budget and read the game's integer payoff table, filled by the rule
where needed.  A symmetric game also keeps one payoff per (own strategy,
others' multiset), which coherence, the QRE tensor and the cooperation
scanner read.  Payoffs are exact: the rules return ints where they can
(bertrand, and td with an integral bonus) and Fractions otherwise, the tables
hold integers over one scale per player (and one for the memo), filled in
batches, and ``payoff`` returns a Fraction.

The parameter domains (``KINDS``, ``PARAMS``, ``pd_params`` and the other
checks) and ``BudgetExceededError`` live in ``exact``, so that the closed
forms load without this module; they are re-exported here.  The games and
dilemmas are ``exact._Frozen`` records: ``_replace`` gives a changed copy,
built and checked again, with empty tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import comb, lcm, prod
from operator import mul
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence

from .exact import (KINDS, PARAMS, BudgetExceededError, Numeric, _Frozen,
                    bertrand_params, common_denominator, load_json, pd_params,
                    pgg_params, td_params, to_exact)

Strategy = Hashable
Profile = tuple  # tuple[Strategy, ...]

COOPERATE = "C"
DEFECT = "D"


class NormalFormGame(_Frozen):
    """Finite N-player game with indexed strategy sets and a payoff rule.

    ``payoff_rule(profile, i)`` must be total over the product of the
    strategy sets and return an exact number.  ``symmetric`` marks games
    whose payoff depends only on own strategy and the multiset of others'
    strategies, over one strategy set shared by every player; the engines
    use it to aggregate over multisets and counts.
    """

    _shown = ("num_players", "strategy_sets", "payoff_rule", "symmetric", "name")
    _compared = ("num_players", "strategy_sets", "symmetric", "name")

    def __init__(self, num_players: int, strategy_sets: tuple,
                 payoff_rule: Callable[[Profile, int], Fraction],
                 symmetric: bool = False, name: str = "custom"):
        if num_players < 2:
            raise ValueError("a game needs at least 2 players")
        if len(strategy_sets) != num_players:
            raise ValueError("one strategy set per player required")
        strategy_sets = tuple(tuple(s) for s in strategy_sets)
        for i, s in enumerate(strategy_sets):
            if not s:
                raise ValueError(f"strategy set of player {i} is empty")
            if len(set(s)) != len(s):
                raise ValueError(f"strategy set of player {i} has duplicates")
        if symmetric and any(s != strategy_sets[0] for s in strategy_sets):
            raise ValueError("a symmetric game needs one strategy set for every player")
        self.__dict__.update(
            num_players=num_players, strategy_sets=strategy_sets,
            payoff_rule=payoff_rule, symmetric=symmetric, name=name,
            # per player: strategy -> position in its strategy set
            _index=tuple({x: k for k, x in enumerate(s)} for s in strategy_sets),
            # per player: profile index k plays position (k // stride) % size
            _strides=tuple(prod(map(len, strategy_sets[i + 1:]))
                           for i in range(num_players)),
            # per player: profile index -> its payoff times the player's scale
            _table=tuple({} for _ in strategy_sets),
            # per player: the common denominator of its table's entries, then
            # that of the multiset memo's, a list
            _scales=[1] * (num_players + 1),
            # symmetric games: (own position, sorted positions of the others)
            # -> the payoff times the last scale
            _multisets={},
            # (player, strategy position) -> minimize_payoff's (value,
            # minimiser); player None in a symmetric game, whose players share
            # their floors
            _minima={},
            # (player, support positions) -> the punishment structure's switch
            # plan, and per profile index k its belief {k: 1} off the support,
            # filled (the plans bounded) by ``counterfactual.build_coherent_structure``
            _support_columns={}, _point_masses=[])

    def payoff(self, profile: Profile, i: int) -> Fraction:
        self._check_profile(profile)
        if not 0 <= i < self.num_players:
            raise IndexError(f"player index {i} out of range 0..{self.num_players - 1}")
        return to_exact(self.payoff_rule(tuple(profile), i))

    def payoffs(self, profile: Profile) -> tuple:
        return tuple(self.payoff(profile, i) for i in range(self.num_players))

    def strategy_index(self, i: int, strategy: Strategy) -> int:
        try:
            return self._index[i][strategy]
        except (KeyError, TypeError):  # TypeError: unhashable, never a strategy
            raise ValueError(f"{strategy!r} is not a strategy of player {i}") from None

    def profile_count(self) -> int:
        return prod(map(len, self.strategy_sets))

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*self.strategy_sets)

    def _dot(self, i: int, keys: Sequence, weights: Sequence) -> tuple:
        """Sum of w * player i's payoff at each profile index of ``keys``, for
        integer weights ``w``, as ``(numerator, scale)``: the sum is
        numerator / scale.  Payoffs come from the table, where each one is
        an integer over the player's common scale; missing ones are computed
        by the rule first, so the scale read with the sum fits every term."""
        row = self._table[i]
        try:
            return sum(map(mul, weights, map(row.__getitem__, keys))), self._scales[i]
        except KeyError:
            self._fill(i, keys)
            return sum(map(mul, weights, map(row.__getitem__, keys))), self._scales[i]

    def _fill(self, i: int, keys) -> None:
        """Compute player i's payoffs at the profile indices ``keys`` missing
        from the table by the rule, and store them in one batch (``_store``)."""
        row, rule = self._table[i], self.payoff_rule
        self._store(row, i, [(k, rule(self._profile_at(k), i)) for k in keys if k not in row])

    def _store(self, row: dict, slot: int, items: list) -> None:
        """Store each (key, exact value) of ``items`` in ``row`` as an integer
        over ``_scales[slot]``: the scale is raised once, with every stored
        entry, to the lcm of it and the values' denominators, and an int
        value is stored without building a ``Fraction``.  A key listed twice
        is stored twice, with the same value."""
        ratios = [(v, 1) if type(v) is int else to_exact(v).as_integer_ratio()
                  for _, v in items]
        scale = self._scales[slot]
        common = lcm(scale, *{d for _, d in ratios})
        if common != scale:
            factor = common // scale
            for stored in row:
                row[stored] *= factor
            self._scales[slot] = common
        for (key, _), (n, d) in zip(items, ratios):
            row[key] = n * (common // d)

    def _multiset_payoffs(self, keys: Sequence) -> tuple:
        """A symmetric game's payoffs at ``keys``, each (own position, sorted
        positions of the others), as (integers over one scale, the scale).
        They come from one memo per game; the missing entries cost one rule
        call each, for player 0 with the others in sorted order, and are
        stored in one batch (``_store``)."""
        memo = self._multisets
        try:
            return list(map(memo.__getitem__, keys)), self._scales[-1]
        except KeyError:
            strats, rule = self.strategy_sets[0], self.payoff_rule
            self._store(memo, -1, [
                (key, rule((strats[key[0]], *map(strats.__getitem__, key[1])), 0))
                for key in keys if key not in memo])
            return list(map(memo.__getitem__, keys)), self._scales[-1]

    def _profile_at(self, k: int) -> Profile:
        """The profile at profile index ``k``."""
        return tuple(s[k // st % len(s)] for s, st in zip(self.strategy_sets, self._strides))

    def _rows(self) -> list:
        """Every player's payoffs at all profile indices, as integers over
        the player's scale: the table, its missing entries filled by the
        rule (one call per player and profile).  Callers budget first."""
        count = self.profile_count()
        for i in range(self.num_players):
            self._fill(i, range(count))
        return [list(map(row.__getitem__, range(count))) for row in self._table]

    @cached_property
    def _layout(self) -> tuple:
        """``(profiles, own, others, punished)``, once per game: per player i
        and profile index k, i's strategy position ``own[i][k]`` and the
        others' part ``others[i][k]`` = k - own * stride; ``punished[i][j]``
        is ``minimize_payoff``'s floor for position j and the profile index
        where j meets the minimiser.  Callers budget the profile count first."""
        profiles = tuple(self.profiles())
        own, others, punished = [], [], []
        for i, (strats, stride) in enumerate(zip(self.strategy_sets, self._strides)):
            own.append(tuple([k // stride % len(strats) for k in range(len(profiles))]))
            others.append(tuple([k - o * stride for k, o in enumerate(own[i])]))
            rest = [o for o in range(self.num_players) if o != i]
            minima = [minimize_payoff(self, i, s, len(profiles)) for s in strats]
            punished.append(tuple((floor, j * stride + sum(
                self._index[o][s] * self._strides[o] for o, s in zip(rest, combo)))
                for j, (floor, combo) in enumerate(minima)))
        return profiles, tuple(own), tuple(others), tuple(punished)

    def _check_profile(self, profile: Sequence) -> None:
        if len(profile) != self.num_players:
            raise ValueError(
                f"profile has {len(profile)} entries for {self.num_players} players"
            )
        for i, (s, index) in enumerate(zip(profile, self._index)):
            try:
                known = s in index
            except TypeError:  # unhashable: never a strategy
                known = False
            if not known:
                raise ValueError(f"{s!r} is not a strategy of player {i}")


class SocialDilemma(_Frozen):
    """A game tagged with its unique Nash and welfare-maximizing profiles."""

    _shown = ("game", "kind", "params", "nash_profile", "welfare_profile")
    _compared = ("game", "kind", "nash_profile", "welfare_profile")

    def __init__(self, game: NormalFormGame, kind: str, params: dict,
                 nash_profile: Profile, welfare_profile: Profile):
        for name, profile in (("Nash", nash_profile), ("welfare", welfare_profile)):
            if len(profile) != game.num_players:
                raise ValueError(f"{name} profile {profile!r} has length {len(profile)} "
                                 f"for {game.num_players} players")
        self.__dict__.update(game=game, kind=kind, params=params,
                             nash_profile=nash_profile, welfare_profile=welfare_profile)

    @property
    def num_players(self) -> int:
        return self.game.num_players

    def cooperate_strategy(self, i: int) -> Strategy:
        return self.welfare_profile[i]

    def defect_strategy(self, i: int) -> Strategy:
        return self.nash_profile[i]

    def payoff(self, profile: Profile, i: int) -> Fraction:
        return self.game.payoff(profile, i)

    @cached_property
    def _positions(self) -> list:
        """Per player, the game positions of the cooperate and defect
        strategies, hashed once per dilemma.  This is the one lookup of
        them: the first strategy that is off the game or unhashable, in
        player order and cooperate first, raises ``strategy_index``'s
        ValueError, so every reader fails on it the same way before it reads
        anything else."""
        index = self.game.strategy_index
        return [(index(i, self.cooperate_strategy(i)), index(i, self.defect_strategy(i)))
                for i in range(self.num_players)]

    def _count_multiset(self, i: int, k: int) -> tuple:
        """The sorted positions of i's others when the first k of them in
        player order cooperate and the rest defect."""
        others = [pair for j, pair in enumerate(self._positions) if j != i]
        return tuple(sorted([c for c, _ in others[:k]] + [d for _, d in others[k:]]))


def as_game(game) -> NormalFormGame:
    """The underlying game of a SocialDilemma; a NormalFormGame unchanged."""
    return game.game if isinstance(game, SocialDilemma) else game


def payoff(game, profile: Profile, i: int) -> Fraction:
    """Evaluate a payoff; accepts a NormalFormGame or a SocialDilemma."""
    return as_game(game).payoff(profile, i)


# ---------------------------------------------------------------------------
# factories


def make_prisoners_dilemma(b: Numeric, c: Numeric) -> SocialDilemma:
    """Two players pay a cost c > 0 to grant the other a benefit b > c."""
    b, c = pd_params(b, c)

    def rule(profile, i):
        u = Fraction(0)
        if profile[1 - i] == COOPERATE:
            u += b
        if profile[i] == COOPERATE:
            u -= c
        return u

    game = NormalFormGame(2, ((COOPERATE, DEFECT), (COOPERATE, DEFECT)), rule,
                          symmetric=True, name="pd")
    return SocialDilemma(game, "pd", {"b": b, "c": c},
                         nash_profile=(DEFECT, DEFECT),
                         welfare_profile=(COOPERATE, COOPERATE))


def make_public_goods(n: int, rho: Numeric, grid: int = 100) -> SocialDilemma:
    """n players split a pool multiplied by rho*n; contributions on a grid.

    Each player holds one unit and contributes a grid multiple of 1/grid;
    u_i = 1 - x_i + rho * sum(x).  The default grid of 100 steps is whole
    cents on a one-dollar endowment.
    """
    n, rho, grid = pgg_params(n, rho, grid)
    levels = tuple(Fraction(k, grid) for k in range(grid + 1))
    rn, rd = rho.numerator, rho.denominator

    def rule(profile, i):
        # on the levels' grid numerators k (x = a / b = k / grid), so a call
        # builds one Fraction instead of adding n of them; as_integer_ratio
        # also reads an int or a float equal to a level
        ks = [a * (grid // b) for a, b in [x.as_integer_ratio() for x in profile]]
        return Fraction((grid - ks[i]) * rd + rn * sum(ks), grid * rd)

    game = NormalFormGame(n, (levels,) * n, rule, symmetric=True, name="pgg")
    return SocialDilemma(game, "pgg", {"n": n, "rho": rho, "grid": grid},
                         nash_profile=(Fraction(0),) * n,
                         welfare_profile=(Fraction(1),) * n)


def make_bertrand(n: int, l: int, h: int) -> SocialDilemma:
    """n firms pick integer prices in [l, h]; the lowest price wins the sale.

    Ties split the sale price equally among the tied firms.
    """
    n, l, h = bertrand_params(n, l, h)
    prices = tuple(range(l, h + 1))

    def rule(profile, i):
        low = min(profile)
        if profile[i] != low:
            return 0
        ties = profile.count(low)
        return low if ties == 1 else Fraction(low, ties)

    game = NormalFormGame(n, (prices,) * n, rule, symmetric=True, name="bertrand")
    return SocialDilemma(game, "bertrand", {"n": n, "l": l, "h": h},
                         nash_profile=(l,) * n, welfare_profile=(h,) * n)


def make_travelers_dilemma(l: int, h: int, bonus: Numeric) -> SocialDilemma:
    """Two travelers claim integer amounts in [l, h]; the lower claim wins.

    Equal claims pay face value; otherwise the lower claimant receives the
    low claim plus the bonus and the higher claimant the low claim minus it.
    Any bonus > 0 is accepted; note that for bonus <= 1 the high-claim pair
    is also a Nash equilibrium, so the social-dilemma axioms need bonus > 1.
    """
    l, h, bonus = td_params(l, h, bonus)
    bonus = Fraction(bonus)
    step = bonus.numerator if bonus.denominator == 1 else bonus  # an int when integral
    claims = tuple(range(l, h + 1))

    def rule(profile, i):
        mine, other = profile[i], profile[1 - i]
        if mine == other:
            return mine
        if mine < other:
            return mine + step
        return other - step

    game = NormalFormGame(2, (claims, claims), rule, symmetric=True, name="td")
    return SocialDilemma(game, "td", {"l": l, "h": h, "bonus": bonus},
                         nash_profile=(l, l), welfare_profile=(h, h))


_FACTORIES = {"pd": make_prisoners_dilemma, "pgg": make_public_goods,
              "bertrand": make_bertrand, "td": make_travelers_dilemma}


def make_dilemma(kind: str, params: dict) -> SocialDilemma:
    """The game of ``kind`` on ``params[k]`` for ``k`` in ``PARAMS[kind]``."""
    if kind not in _FACTORIES:
        raise ValueError(f"unknown dilemma kind {kind!r}, expected one of {KINDS}")
    args = [params[k] for k in PARAMS[kind]]
    if kind == "pgg":
        args.append(params.get("grid", 100))
    return _FACTORIES[kind](*args)


# ---------------------------------------------------------------------------
# mixed profiles


class MixedProfile:
    """Per-player probability distribution over that player's strategies.

    Each player's support is stored once, as integer entries over one
    denominator (``_entries``): (game position, strategy, weight) sorted by
    position, each probability weight / den; zero-probability strategies are
    dropped.  ``distributions`` (strategy -> exact probability, in
    strategy-set order) and the others' mixtures are derived from them.
    Instances are immutable by convention.
    """

    def __init__(self, game: NormalFormGame, distributions: Sequence[dict]):
        if len(distributions) != game.num_players:
            raise ValueError("one distribution per player required")
        entries = []
        for i, dist in enumerate(distributions):
            support = []  # (game position, strategy, probability)
            for s, p in dist.items():
                pos = game.strategy_index(i, s)  # ValueError unless a strategy of i
                p = to_exact(p)
                if p < 0:
                    raise ValueError(f"negative probability for player {i}")
                if p > 0:
                    support.append((pos, s, p))
            weights, den = common_denominator(p for _, _, p in support)
            if sum(weights) != den:
                raise ValueError(f"distribution of player {i} does not sum to 1")
            support = sorted((pos, s, w) for (pos, s, _), w in zip(support, weights))
            entries.append((support, den))
        self.game, self._entries = game, tuple(entries)

    @classmethod
    def pure(cls, game: NormalFormGame, profile: Profile) -> "MixedProfile":
        return cls(game, [{s: Fraction(1)} for s in profile])

    @classmethod
    def two_point(cls, dilemma: SocialDilemma, betas: Sequence[Numeric]) -> "MixedProfile":
        """Each player cooperates with probability beta_i, else defects.

        Built directly, with the checks of building the two-point dicts and
        then ``__init__``: first the dilemma's ``_positions`` (a strategy
        off the game raises there, whatever the betas), then per player beta
        in [0, 1], then per player the masses summing to 1, which they do
        not when a hand-built dilemma cooperates and defects alike and
        beta > 0.  Zero masses are dropped; the integer entries are bn and
        bd - bn over bd for beta = bn/bd."""
        positions = dilemma._positions
        if len(betas) != dilemma.num_players:
            raise ValueError("one beta per player required")
        ratios = []
        for i, beta in enumerate(betas):
            bn, bd = to_exact(beta).as_integer_ratio()
            if not 0 <= bn <= bd:
                raise ValueError(f"beta of player {i} must lie in [0, 1]")
            ratios.append((bn, bd))
        entries = []
        for i, ((bn, bd), (pc, pd)) in enumerate(zip(ratios, positions)):
            c, d = dilemma.cooperate_strategy(i), dilemma.defect_strategy(i)
            if pc == pd:  # the masses collapse onto c: 1 - beta
                if bn:
                    raise ValueError(f"distribution of player {i} does not sum to 1")
                entries.append(([(pc, c, 1)], 1))
                continue
            row = []
            if bn:
                row.append((pc, c, bn))
            if bn < bd:
                row.append((pd, d, bd - bn))
            entries.append((row if pc < pd else row[::-1], bd))
        sigma = cls.__new__(cls)
        sigma.game, sigma._entries = dilemma.game, tuple(entries)
        return sigma

    @cached_property
    def distributions(self) -> tuple:
        """Per player, strategy -> exact probability over the support, in
        strategy-set order."""
        return tuple({s: Fraction(w, den) for _, s, w in entries}
                     for entries, den in self._entries)

    def prob(self, i: int, strategy: Strategy) -> Fraction:
        return self.distributions[i].get(strategy, Fraction(0))

    def support(self, i: int) -> tuple:
        strats = self.game.strategy_sets[i]
        return tuple(strats[pos] for pos, _, _ in self._entries[i][0])

    @cached_property
    def _kernels(self) -> list:
        """Per player i, the others' joint support in product order as
        ``(offsets, weights, den)``; a combo's offset is its part of the
        profile index, and its probability is weight / den."""
        strides, kernels = self.game._strides, []
        for i in range(self.game.num_players):
            rows, den = [(0, 1)], 1  # (offset, weight)
            for j, (entries, d_j) in enumerate(self._entries):
                if j != i:
                    stride = strides[j]
                    rows = [(o + pos * stride, w * v)
                            for o, w in rows for pos, _, v in entries]
                    den *= d_j
            kernels.append((*zip(*rows), den))
        return kernels

    def expected_payoff(self, i: int, strategy: Strategy) -> Fraction:
        """E[u_i(strategy, s_-i)] with s_-i drawn from the others' mixture:
        the integer weights dotted with the game's payoff table."""
        return Fraction(*self._payoff_at(i, self.game.strategy_index(i, strategy)))

    @cached_property
    def _laws(self) -> list:
        """Per player i of a symmetric game, ``_multiset_law`` of the others."""
        entries = self._entries
        return [_multiset_law(entries[:i] + entries[i + 1:])
                for i in range(self.game.num_players)]

    def _payoff_at(self, i: int, pos: int) -> tuple:
        """``expected_payoff`` of player i's strategy at game position
        ``pos``, as (numerator, denominator): in a symmetric game the law of
        the others' multiset dotted with the game's multiset memo, else the
        others' joint support dotted with the payoff table."""
        game = self.game
        if game.symmetric:
            multisets, weights, den = self._laws[i]
            values, scale = game._multiset_payoffs([(pos, m) for m in multisets])
            return sum(map(mul, weights, values)), den * scale
        base = pos * game._strides[i]
        offsets, weights, den = self._kernels[i]
        num, scale = game._dot(i, [base + o for o in offsets], weights)
        return num, den * scale

    def __repr__(self):
        parts = []
        for d in self.distributions:
            parts.append("{" + ", ".join(f"{s!r}: {p}" for s, p in d.items()) + "}")
        return f"MixedProfile([{', '.join(parts)}])"


def _multiset_law(entries) -> tuple:
    """The law of the multiset of positions that the players of ``entries``
    (``MixedProfile._entries`` rows: (position, strategy, weight) supports
    over their denominators) play independently, as ``(multisets, weights,
    den)``: each multiset a sorted tuple of positions, its probability
    weight / den.  It is a convolution over the players who mix, in order,
    and the pure players' positions are added to every multiset after it;
    for two-point entries the multiset is the cooperator count and its law
    the Poisson-binomial, at most N terms and O(N²) term updates.
    ``MixedProfile._laws`` reads it for coherence; the bertrand tie kernel
    of the closed forms reads the elementary symmetric polynomials of the
    gammas instead (``equilibrium._tie_sum``)."""
    pure, law, den = [], {(): 1}, 1
    for support, d_j in entries:
        if len(support) == 1:  # weight d_j over d_j
            pure.append(support[0][0])
            continue
        grown = {}
        for key, w in law.items():
            for pos, _, v in support:
                key_pos = (key + (pos,) if not key or key[-1] <= pos
                           else tuple(sorted((*key, pos))))
                grown[key_pos] = grown.get(key_pos, 0) + w * v
        law, den = grown, den * d_j
    if pure:
        law = {tuple(sorted(pure + list(key))): w for key, w in law.items()}
    return tuple(law), tuple(law.values()), den


# ---------------------------------------------------------------------------
# exhaustive verification


class DilemmaReport(NamedTuple):
    """Result of exhaustively checking the social-dilemma axioms."""

    nash_equilibria: tuple
    welfare_maximizers: tuple
    unique_nash: Optional[Profile]
    unique_welfare: Optional[Profile]
    dominance_ok: bool

    @property
    def is_social_dilemma(self) -> bool:
        return (self.unique_nash is not None
                and self.unique_welfare is not None
                and self.dominance_ok)


def _check_budget(game: NormalFormGame, budget: int, what: str = "profiles") -> None:
    required = game.profile_count()
    if required > budget:
        raise BudgetExceededError(required, budget, what)


def enumerate_pure_nash(game: NormalFormGame, budget: int = 10_000_000) -> list:
    """All pure Nash equilibria in profile order, read from the game's
    integer payoff table, which stays on the game (see
    ``verify_social_dilemma``)."""
    _check_budget(game, budget)
    return [game._profile_at(k) for k in _nash_indices(game, game._rows())]


def _nash_indices(game: NormalFormGame, rows: list) -> list:
    """The profile indices where no player gains by a unilateral switch:
    each player's payoffs along their own strategies (a stride apart) are
    compared with the line's best."""
    stable = [True] * len(rows[0])
    for row, strats, stride in zip(rows, game.strategy_sets, game._strides):
        block = len(strats) * stride
        for start in range(0, len(row), block):
            for k in range(start, start + stride):  # k: the player at position 0
                line = row[k:k + block:stride]
                top = max(line)
                for j, v in enumerate(line):
                    if v < top:
                        stable[k + j * stride] = False
    return [k for k, yes in enumerate(stable) if yes]


def verify_social_dilemma(game, budget: int = 10_000_000) -> DilemmaReport:
    """Exhaustively find pure Nash profiles and welfare maximizers.

    Reports uniqueness of both and whether the welfare profile strictly
    improves every player's payoff over the Nash profile.  Everything is
    read from the game's integer payoff table, filled by the rule where
    needed; the table stays on the game, players x profiles integers under
    the profile budget.  Welfare compares each profile's payoff sum over the
    lcm of the players' scales; profile tuples are made only for the
    reported profiles.
    """
    game = as_game(game)
    _check_budget(game, budget)
    rows = game._rows()
    nash = _nash_indices(game, rows)
    scales = game._scales[:game.num_players]
    scale = lcm(*scales)
    factors = [scale // s for s in scales]
    welfare = [sum(map(mul, factors, payoffs)) for payoffs in zip(*rows)]
    top = max(welfare)
    best = [k for k, w in enumerate(welfare) if w == top]
    dominance_ok = (len(nash) == len(best) == 1
                    and all(row[best[0]] > row[nash[0]] for row in rows))
    nash, best = (tuple(map(game._profile_at, ks)) for ks in (nash, best))
    return DilemmaReport(nash, best, nash[0] if len(nash) == 1 else None,
                         best[0] if len(best) == 1 else None, dominance_ok)


def minimize_payoff(game: NormalFormGame, i: int, strategy: Strategy,
                    budget: int = 10_000_000) -> tuple:
    """min over the others' pure profiles of u_i(strategy, s_-i), as
    ``(value, minimiser)``.  The minimiser lists the others' strategies in
    player order and is the first one in strategy-set (lexicographic) order.

    Symmetric games are reduced to multisets of the others' strategies:
    there the first minimiser is sorted, so it is the first multiset found,
    and every player shares each strategy's floor.  Otherwise the full
    product is enumerated against the budget.  Each search runs once per
    game; the budget is checked on every call.
    """
    others = [j for j in range(game.num_players) if j != i]
    if game.symmetric:
        pool = game.strategy_sets[0]
        required = comb(len(pool) + len(others) - 1, len(others))
        if required > budget:
            raise BudgetExceededError(required, budget, "opponent multisets")
        combos = itertools.combinations_with_replacement(pool, len(others))

        def u(combo):  # player 0 stands for every player
            return to_exact(game.payoff_rule((strategy, *combo), 0))
    else:
        required = prod(len(game.strategy_sets[j]) for j in others)
        if required > budget:
            raise BudgetExceededError(required, budget, "opponent profiles")
        combos = itertools.product(*(game.strategy_sets[j] for j in others))

        def u(combo):
            return game.payoff((*combo[:i], strategy, *combo[i:]), i)
    key = (None if game.symmetric else i, game.strategy_index(i, strategy))
    if key not in game._minima:
        argmin = min(combos, key=u)  # the first of equal minima
        game._minima[key] = u(argmin), argmin
    return game._minima[key]


# ---------------------------------------------------------------------------
# JSON description format: {"kind": ..., "params": {...}, "grid": int?}


def dilemma_to_json(d: SocialDilemma) -> dict:
    params = {}
    for key, value in d.params.items():
        if key == "grid":
            continue
        f = to_exact(value)
        params[key] = f.numerator if f.denominator == 1 else str(f)
    doc = {"kind": d.kind, "params": params}
    if d.kind == "pgg":
        doc["grid"] = d.params["grid"]
    return doc


def dilemma_from_json(doc) -> SocialDilemma:
    if isinstance(doc, str):
        doc = load_json(doc)
    if not isinstance(doc, dict):
        raise ValueError("game description must be a JSON object")
    for key in ("kind", "params"):
        if key not in doc:
            raise ValueError(f"game description is missing {key!r}")
    kind = doc["kind"]
    params = dict(doc["params"])
    if "grid" in doc:
        params["grid"] = doc["grid"]
    return make_dilemma(kind, params)

"""Finite counterfactual structures: states, beliefs, and closest-state maps.

A structure is a tuple (states, strat, closest, beliefs) over a finite game:
``strat`` assigns a pure strategy profile to every state, ``closest`` says
which state would result if a player switched strategies, and ``beliefs``
gives each player a probability measure over states at every state.  The
axioms checked by the validator:

* CS1: the closest state under a switch actually plays the switched strategy;
* CS2: switching to one's current strategy leaves the state unchanged;
* PR1: a player's beliefs put probability 1 on states with their own
  current strategy;
* PR2: a player's beliefs put probability 1 on states where they hold those
  same beliefs;
* NORM: every belief measure sums to 1 (within 1e-12).

Expected utility at a state evaluates the player's current strategy against
the opponents' profiles in the belief support; expected utility on a switch
re-weights states through the closest-state map first, which is what lets a
deviation change what the player expects the others to do.

States, strategies and profiles are referenced by dense integer indices.
Belief measures are stored sparsely per state (their supports are small in
every structure built here); the closest-state map is stored as one dense
column of state indices per (player, strategy).

By PR2 a player's measure is constant on its own support, so the builders
share one measure object among the states of a *belief cell*, and the JSON
parser shares one among the entries with equal ``dist`` objects.  The
validator gives every measure a cell id from its exact entries, decides NORM
once per cell and PR2 by comparing cell ids; only measures in different
cells are compared as dicts.  The Nash and punishment builders read one
layout per game (profiles, strategy positions, punished states), memoised
like its payoff table.  The punishment builder also keeps the columns that
depend on the support on the game, one tuple per switch for each (player,
support positions), filled on first use and holding at most
``_SUPPORTS_KEPT`` supports per player (the oldest goes first): structures
share those tuples, and each gets a ``closest_columns`` dict and measures
of its own.

Each player's switch plan (every switch's strategy, column and game
position) and whether any switch can raise are kept on the structure: a
builder hands them over, and ``_switch_plan`` reads them once for any other
structure and again whenever a ``closest_columns`` key no longer holds the
column object they were read from.  Expected utilities work on strategy
positions: a measure's exact probabilities become integer weights over one
denominator, dotted with the game's integer payoff row, where each payoff
is an integer over the player's common scale, computed once per game, on
first use.  Every probability is taken at its exact value (floats
included, as ``exact.to_exact`` converts them), so no verdict is decided by
rounding.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul
from typing import Optional, Sequence

from .exact import to_exact
from .games import (BudgetExceededError, MixedProfile, NormalFormGame, Profile,
                    SocialDilemma, Strategy, _check_budget, as_game)

NORM_TOL = Fraction(1, 10 ** 12)
MISSING = -1
_SURE = Fraction(1)  # the measure of every off-support state, one object
# supports whose punishment columns a game keeps, per player: a two-point
# sweep uses three ({C}, {D}, {C, D}); past the bound the oldest is dropped,
# so the kept columns stay within a few structures' worth
_SUPPORTS_KEPT = 4


class IncoherentProfileError(ValueError):
    """Raised when a structure construction needs coherence and it fails."""

    def __init__(self, player: int, strategy, deviation):
        self.witness = (player, strategy, deviation)
        super().__init__(
            f"profile is not coherent: player {player} playing {strategy!r} "
            f"cannot justify staying when switching to {deviation!r} beats even "
            "the worst opponent reply"
        )


@dataclass(frozen=True)
class Violation:
    """One structure-axiom failure, as data."""

    axiom: str
    state: int
    player: Optional[int] = None
    strategy: Optional[object] = None
    detail: str = ""

    def __str__(self):
        parts = [f"{self.axiom} violated at state {self.state}"]
        if self.player is not None:
            parts.append(f"player {self.player}")
        if self.strategy is not None:
            parts.append(f"strategy {self.strategy!r}")
        if self.detail:
            parts.append(self.detail)
        return ", ".join(parts)


@dataclass(frozen=True)
class StateUtilityReport:
    """Expected utilities at a state, and the rationality verdict there."""

    eu: Fraction
    eu_switch: dict
    rational: bool


@dataclass(frozen=True)
class CounterfactualStructure:
    """Immutable finite counterfactual structure.

    ``states`` holds the strategy profile of each state; ``aux`` optionally
    carries extra per-state annotation (e.g. detection bits) that plays no
    role in the axioms.  ``closest_columns[(i, j)]`` maps every state to the
    state reached when player ``i`` switches to their j-th strategy.
    ``beliefs[i][k]`` is player i's measure at state k as a sparse mapping
    from state index to probability.  ``game`` may be None for structures
    loaded from files; axiom validation works without it, utilities need it.
    """

    strategy_sets: tuple
    states: tuple
    closest_columns: dict = field(compare=False)
    beliefs: tuple = field(compare=False)
    aux: Optional[tuple] = None
    game: Optional[NormalFormGame] = field(default=None, compare=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_players(self) -> int:
        return len(self.strategy_sets)

    def strat(self, omega: int) -> Profile:
        return self.states[omega]

    @cached_property
    def _strategy_maps(self) -> tuple:
        """Per player: strategy -> index of its first occurrence."""
        maps = []
        for strats in self.strategy_sets:
            index: dict = {}
            for j, s in enumerate(strats):
                index.setdefault(s, j)
            maps.append(index)
        return tuple(maps)

    @cached_property
    def _profile_index(self) -> tuple:
        """``(positions, others)`` per player: each state's strategy position
        in the game, and the others' part of its profile's index in the
        game's payoff table, the sum of pos_j * stride_j over j != i; None
        where the position, or one of the others' positions, is off the game."""
        game = _require_game(self)
        n = game.num_players
        positions = tuple(
            tuple([index.get(p[i]) if len(p) == n else None for p in self.states])
            for i, index in enumerate(game._index))
        strides = game._strides
        return positions, tuple(
            tuple([None if None in rest else sum(map(mul, rest, strides[:i] + strides[i + 1:]))
                   for rest in (pos[:i] + pos[i + 1:] for pos in zip(*positions))])
            for i in range(n))

    @cached_property
    def _plans(self) -> dict:
        """Player -> ``_switch_plan``'s entry, filled on first use."""
        return {}

    def strategy_index(self, i: int, strategy: Strategy) -> int:
        try:
            return self._strategy_maps[i][strategy]
        except (KeyError, TypeError):  # TypeError: unhashable, never a strategy
            raise ValueError(f"{strategy!r} is not a strategy of player {i}") from None

    def closest(self, omega: int, i: int, strategy: Strategy) -> int:
        target = self.closest_columns[(i, self.strategy_index(i, strategy))][omega]
        if target == MISSING:
            raise ValueError(
                f"closest-state entry missing for state {omega}, player {i}, "
                f"strategy {strategy!r}"
            )
        return target

    def belief(self, i: int, omega: int) -> dict:
        return self.beliefs[i][omega]


def _built(game: NormalFormGame, states: tuple, columns: dict, beliefs: list,
           profile_index: tuple, aux=None) -> CounterfactualStructure:
    """A builder's structure, handed its ``_profile_index`` so no strategy is
    hashed (a copy by ``dataclasses.replace`` or from JSON computes its own),
    and its switch plans: every column of a builder is complete and in
    range, and every strategy is the game's, so no switch can raise."""
    m = CounterfactualStructure(game.strategy_sets, states, columns,
                                tuple(beliefs), aux=aux, game=game)
    m.__dict__["_profile_index"] = profile_index  # the cached_property's slot
    m.__dict__["_plans"] = {
        i: ([(s, columns[(i, j)], j) for j, s in enumerate(strats)], True,
            [(i, j) for j in range(len(strats))])
        for i, strats in enumerate(game.strategy_sets)}
    return m


# ---------------------------------------------------------------------------
# axiom validation


def validate_structure(m: CounterfactualStructure) -> list:
    """Check CS1, CS2, PR1, PR2 and normalization; violations come back as
    data, in deterministic (state, player, strategy) order."""
    violations = []
    n_states = m.num_states
    states = m.states
    players = range(m.num_players)
    # equal codes <=> equal strategies, so the checks compare small ints
    own_codes, set_codes = [], []
    for i in players:
        ids: dict = {}
        set_codes.append([ids.setdefault(s, len(ids)) for s in m.strategy_sets[i]])
        own_codes.append([ids.setdefault(p[i], len(ids)) for p in states])
    columns = [[m.closest_columns[(i, j)] for j in range(len(m.strategy_sets[i]))]
               for i in players]

    for omega in range(n_states):
        for i in players:
            own, codes = own_codes[i][omega], own_codes[i]
            for j, s in enumerate(m.strategy_sets[i]):
                target = columns[i][j][omega]
                if not 0 <= target < n_states:
                    violations.append(Violation(
                        "CS1", omega, i, s,
                        "missing or out-of-range closest-state entry"))
                    continue
                if codes[target] != set_codes[i][j]:
                    violations.append(Violation(
                        "CS1", omega, i, s,
                        f"closest state {target} plays {states[target][i]!r}"))
                if set_codes[i][j] == own and target != omega:
                    violations.append(Violation(
                        "CS2", omega, i, s,
                        f"keeping the current strategy moved the state to {target}"))

    for i in players:
        per_state = m.beliefs[i]
        codes = own_codes[i]
        cells, positives, norm = _belief_cells(per_state)
        for omega in range(n_states):
            dist = per_state[omega]
            cell, own = cells[omega], codes[omega]
            if norm[cell] is not None:
                violations.append(Violation("NORM", omega, i, detail=norm[cell]))
            for target in positives[id(dist)]:
                if codes[target] != own:
                    violations.append(Violation(
                        "PR1", omega, i,
                        detail=f"positive mass on state {target} where the "
                               f"player uses {states[target][i]!r}"))
                if cells[target] != cell and per_state[target] != dist:
                    violations.append(Violation(
                        "PR2", omega, i,
                        detail=f"positive mass on state {target} with "
                               "different beliefs"))
    return violations


def _belief_cells(per_state: Sequence) -> tuple:
    """Group one player's measures into belief cells.

    Returns the cell id of every state, the positive-mass targets of every
    measure object (by ``id``, in insertion order) and, per cell, the NORM
    violation detail or None.  Measures with equal exact entries share a
    cell; zero-mass entries count, as they do for dict equality.  A measure
    whose targets do not sort gets a cell of its own.
    """
    cells, norm = [], []
    positives: dict = {}
    object_cell: dict = {}
    entries_cell: dict = {}
    for dist in per_state:
        cell = object_cell.get(id(dist))
        if cell is None:
            entries = [(t, q.numerator, q.denominator)
                       for t, q in zip(dist, map(to_exact, dist.values()))]
            positives[id(dist)] = [t for t, num, _ in entries if num > 0]
            try:
                key = tuple(sorted(entries))
                cell = entries_cell.get(key)
            except TypeError:  # targets that do not sort
                key = None
            if cell is None:
                cell = len(norm)
                if key is not None:
                    entries_cell[key] = cell
                total = sum(map(to_exact, dist.values()), Fraction(0))
                norm.append(f"belief mass sums to {total}"
                            if abs(total - 1) > NORM_TOL else None)
            object_cell[id(dist)] = cell
        cells.append(cell)
    return cells, positives, norm


# ---------------------------------------------------------------------------
# derived beliefs and expected utilities


def _column(m: CounterfactualStructure, i: int, s_dev: Strategy) -> tuple:
    """The closest-state column of player i's switch to ``s_dev``."""
    return m.closest_columns[(i, m.strategy_index(i, s_dev))]


def _pushforward(column: tuple, i: int, sources: list, s_dev: Strategy) -> list:
    """The closest state of every source when player i switches to ``s_dev``,
    whose column is ``column``."""
    targets = [column[source] for source in sources]
    if MISSING in targets:
        raise ValueError(
            f"closest-state entry missing for state "
            f"{sources[targets.index(MISSING)]}, player {i}, strategy {s_dev!r}")
    return targets


def derived_beliefs(m: CounterfactualStructure, i: int, omega: int,
                    s_dev: Strategy) -> dict:
    """Pushforward of player i's beliefs at ``omega`` through the
    closest-state map under a switch to ``s_dev``; sums to 1."""
    dist = m.belief(i, omega)
    out: dict = {}
    for target, p in zip(_pushforward(_column(m, i, s_dev), i, list(dist), s_dev),
                         dist.values()):
        out[target] = out.get(target, Fraction(0)) + p
    return out


def _require_game(m: CounterfactualStructure) -> NormalFormGame:
    if m.game is None:
        raise ValueError("structure has no attached game; utilities need one")
    return m.game


def _weights(dist: dict) -> tuple:
    """The exact probabilities of ``dist`` (floats included) as integer
    weights over their least common denominator: ``(weights, den)``."""
    qs = list(map(to_exact, dist.values()))
    den = lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den


def _expectation(m: CounterfactualStructure, game: NormalFormGame, i: int, s: Strategy,
                 pos: Optional[int], targets: list, weights: list, den: int) -> tuple:
    """Sum of p * u_i(s, the others' strategies at the target) over the
    targets and their integer weights over ``den``, as (numerator,
    denominator): the weights dotted with the game's integer payoff row at
    the others' part of each target's profile index plus ``s``'s game
    position ``pos`` (None off the game) times i's stride."""
    others = m._profile_index[1][i]
    try:
        base = pos * game._strides[i]
        keys = [others[t] + base for t in targets]
    except TypeError:  # s or a target off the game: payoff() raises
        total = Fraction(0)
        for target, w in zip(targets, weights):
            profile = list(m.states[target])
            profile[i] = s
            total += Fraction(w, den) * game.payoff(tuple(profile), i)
        return total.numerator, total.denominator
    num, scale = game._dot(i, keys, weights)
    return num, den * scale


def _switch_plan(m: CounterfactualStructure, i: int) -> tuple:
    """Player i's switches in list order, each strategy hashed once, as
    ``(strategy, closest-state column, game position or None)``, and whether
    no switch can raise (a switch raises only on a hole, a target out of
    range or a strategy or state off the game), so a scan may stop at the
    first paying switch.  Both are kept on the structure, with the
    ``closest_columns`` keys they were read from, while every key still holds
    the same column object."""
    entry = m._plans.get(i)
    if entry is None or any(m.closest_columns.get(key) is not column
                            for key, (_, column, _) in zip(entry[2], entry[0])):
        strats, index, size = m.strategy_sets[i], m.game._index[i], m.num_states
        keys = [(i, m.strategy_index(i, s)) for s in strats]
        plan = [(s, m.closest_columns[key], index.get(s)) for s, key in zip(strats, keys)]
        may_stop = None not in m._profile_index[1][i] and all(
            pos is not None and len(c) == size and 0 <= min(c) and max(c) < size
            for _, c, pos in plan)
        entry = m._plans[i] = plan, may_stop, keys
    return entry[0], entry[1]


def _switch_values(m: CounterfactualStructure, game: NormalFormGame, i: int, omega: int,
                   eu: tuple, sources: list, weights: list, den: int, plan: list):
    """Yield ``(strategy, (numerator, denominator))`` for each switch of
    ``plan`` at ``omega``, the sources pushed through its column one by one
    (by linearity, the pushforward's expectation).  A switch to omega's own
    position whose column fixes every source is worth ``eu``."""
    own = m._profile_index[0][i][omega]
    for s, column, pos in plan:
        targets = _pushforward(column, i, sources, s)
        if pos is not None and pos == own and targets == sources:
            yield s, eu
        else:
            yield s, _expectation(m, game, i, s, pos, targets, weights, den)


def eu_at_state(m: CounterfactualStructure, i: int, omega: int) -> Fraction:
    """Expected utility of player i's current strategy at ``omega``."""
    game = _require_game(m)
    dist = m.belief(i, omega)
    return Fraction(*_expectation(m, game, i, m.states[omega][i], m._profile_index[0][i][omega],
                                  list(dist), *_weights(dist)))


def eu_at_state_switch(m: CounterfactualStructure, i: int, omega: int,
                       s_dev: Strategy) -> Fraction:
    """Expected utility at ``omega`` if player i switched to ``s_dev``,
    with beliefs pushed through the closest-state map."""
    game = _require_game(m)
    dist = m.belief(i, omega)
    targets = _pushforward(_column(m, i, s_dev), i, list(dist), s_dev)
    return Fraction(*_expectation(m, game, i, s_dev, game._index[i].get(s_dev),
                                  targets, *_weights(dist)))


def is_rational_at(m: CounterfactualStructure, i: int, omega: int) -> StateUtilityReport:
    """Rationality of player i at a state: the current strategy must match
    or beat every switch (weak inequality)."""
    game = _require_game(m)
    dist = m.belief(i, omega)
    sources, (weights, den) = list(dist), _weights(dist)
    eu = _expectation(m, game, i, m.states[omega][i], m._profile_index[0][i][omega],
                      sources, weights, den)
    switches = {s: Fraction(*v) for s, v in _switch_values(
        m, game, i, omega, eu, sources, weights, den, _switch_plan(m, i)[0])}
    eu = Fraction(*eu)
    return StateUtilityReport(eu, switches, all(eu >= v for v in switches.values()))


# ---------------------------------------------------------------------------
# constructions


def _others_pairs(sigma: MixedProfile, i: int) -> list:
    """(profile-index offset, probability) of each of the others' combos."""
    _, offsets, weights, den = sigma._kernels[i]
    return [(o, Fraction(w, den)) for o, w in zip(offsets, weights)]


def build_nash_structure(game, sigma: MixedProfile,
                         budget: int = 100_000) -> CounterfactualStructure:
    """The opaque structure witnessing a Nash equilibrium.

    States are all pure profiles; a switch moves only the switching player's
    coordinate, and beliefs at a state are the equilibrium mixture of the
    others given one's own current strategy.  Rejects profiles that are not
    Nash equilibria (every support strategy must attain the player's best
    payoff against the others' mixture).
    """
    game = as_game(game)
    for i in range(game.num_players):
        payoffs = {s: sigma.expected_payoff(i, s) for s in game.strategy_sets[i]}
        best = max(payoffs.values())
        for s in sigma.support(i):
            if payoffs[s] != best:
                better = next(t for t, v in payoffs.items() if v == best)
                raise ValueError(
                    f"not a Nash equilibrium: player {i} gains by switching "
                    f"from {s!r} to {better!r}")

    _check_budget(game, budget, "states")
    states, own, others, _ = game._layout
    columns, beliefs = {}, []
    for i, stride in enumerate(game._strides):
        size = len(game.strategy_sets[i])
        for j in range(size):
            columns[(i, j)] = tuple([x + j * stride for x in others[i]])
        pairs = _others_pairs(sigma, i)
        measures = [{o * stride + off: p for off, p in pairs} for o in range(size)]
        beliefs.append(tuple([measures[o] for o in own[i]]))

    return _built(game, states, columns, beliefs, (own, others))


def build_coherent_structure(game, sigma: MixedProfile, *, strict: bool = True,
                             budget: int = 100_000) -> CounterfactualStructure:
    """The punishment structure witnessing a coherent profile.

    On the support, a switch routes to the deviation paired with the worst
    opponent reply for that deviation (the lexicographically smallest
    minimizer, for determinism); off the support the map is opaque.  With
    ``strict`` the construction fails on incoherent profiles, naming the
    witnessing (player, support strategy, deviation); without it the same
    structure is built anyway, which then simply fails rationality where
    coherence fails.
    """
    game = as_game(game)
    _check_budget(game, budget, "states")
    states, own, others, punished = game._layout

    if strict:
        for i, row in enumerate(punished):
            for s in sigma.support(i):
                u = sigma.expected_payoff(i, s)
                for (floor, _), s_dev in zip(row, game.strategy_sets[i]):
                    if u < floor:
                        raise IncoherentProfileError(i, s, s_dev)

    # only the columns and measures depend on the support; the layout's
    # tuples and the columns of each (player, support) are shared, and every
    # structure gets dicts of its own
    columns, beliefs = {}, []
    for i, stride in enumerate(game._strides):
        support = {game.strategy_index(i, s) for s in sigma.distributions[i]}
        key = (i, tuple(sorted(support)))
        kept = game._support_columns
        shared = kept.get(key)
        if shared is None:
            if len(kept) >= _SUPPORTS_KEPT * game.num_players:
                del kept[next(iter(kept))]
            shared = kept[key] = tuple(
                tuple([target if o != j and o in support else x + j * stride
                       for o, x in zip(own[i], others[i])])
                for j, (_, target) in enumerate(punished[i]))
        columns.update(((i, j), column) for j, column in enumerate(shared))
        pairs = _others_pairs(sigma, i)
        measures = {o: {o * stride + off: p for off, p in pairs} for o in support}
        beliefs.append(tuple([measures[o] if o in support else {k: _SURE}
                              for k, o in enumerate(own[i])]))

    return _built(game, states, columns, beliefs, (own, others))


def build_typed_dilemma_structure(d: SocialDilemma, alphas: Sequence, betas: Sequence,
                                  budget: int = 100_000) -> CounterfactualStructure:
    """Detection-bit structure for a dilemma with per-player types.

    States pair every pure profile with a detection-bit vector; a switch by
    player i sends each other player j to their defect component when j's bit
    is set and leaves them in place otherwise.  Player i's beliefs keep their
    own strategy and bit, draw each other player's strategy from the
    cooperate/defect mixture with probability beta_j, and set each other
    player's bit independently with probability alpha_i.

    For the 2-player prisoner's dilemma this is exactly the 16-state machine
    used by the typed equilibrium analysis; for other dilemmas and player
    counts it is this library's generalization of that machine (used to
    cross-check the belief-model engine), not a construction with external
    standing.
    """
    n = d.num_players
    if len(alphas) != n or len(betas) != n:
        raise ValueError("one alpha and one beta per player required")
    alphas = [to_exact(a) for a in alphas]
    betas = [to_exact(b) for b in betas]
    for v in (*alphas, *betas):
        if not 0 <= v <= 1:
            raise ValueError(f"type parameters must lie in [0, 1], got {v}")

    game = d.game
    count = game.profile_count() * 2 ** n
    if count > budget:
        raise BudgetExceededError(count, budget, "states")

    # state = profile index * 2^n + bit-vector index (product order)
    bit_space = tuple(itertools.product((0, 1), repeat=n))
    nb = len(bit_space)
    states = tuple(profile for profile in game.profiles() for _ in bit_space)
    aux = bit_space * game.profile_count()
    strides = game._strides
    places = [nb >> (j + 1) for j in range(n)]
    own = [[k // nb // stride % len(game.strategy_sets[i]) for k in range(count)]
           for i, stride in enumerate(strides)]
    defect = [game.strategy_index(j, d.defect_strategy(j)) for j in range(n)]

    columns = {}
    for i, stride in enumerate(strides):
        # the profile shift from the others whose bit sends them to defect
        shifts = [sum((defect[o] - own[o][k]) * strides[o]
                      for o in range(n) if o != i and bits[o])
                  for k, bits in enumerate(aux)]
        for j in range(len(game.strategy_sets[i])):
            columns[(i, j)] = tuple([
                k if o == j else k + ((j - o) * stride + shift) * nb
                for k, (o, shift) in enumerate(zip(own[i], shifts))])

    beliefs = []
    for i, stride in enumerate(strides):
        others = [j for j in range(n) if j != i]
        entries: dict = {}  # offset from (own strategy 0, own bit 0) -> mass
        choices = [((d.cooperate_strategy(j), betas[j]),
                    (d.defect_strategy(j), 1 - betas[j])) for j in others]
        for picks in itertools.product(*choices):
            p_strat = prod((p for _, p in picks), start=Fraction(1))
            if p_strat == 0:
                continue
            base = nb * sum(strides[o] * game.strategy_index(o, s)
                            for o, (s, _) in zip(others, picks))
            for other_bits in itertools.product((0, 1), repeat=len(others)):
                p = p_strat * prod(alphas[i] if bit else 1 - alphas[i]
                                   for bit in other_bits)
                if p != 0:
                    target = base + sum(places[j] * bit
                                        for j, bit in zip(others, other_bits))
                    entries[target] = entries.get(target, 0) + p
        # one measure per (own strategy, own bit), keyed by its state offset
        keys = [o * stride * nb + bits[i] * places[i] for o, bits in zip(own[i], aux)]
        measures = {key: {key + t: p for t, p in entries.items()} for key in set(keys)}
        beliefs.append(tuple([measures[key] for key in keys]))

    rest = tuple(tuple([k // nb - o * stride for k, o in enumerate(column)])
                 for column, stride in zip(own, strides))
    return _built(game, states, columns, beliefs, (tuple(map(tuple, own)), rest), aux=aux)


def build_typed_pd_structure(alpha_1, alpha_2, beta_1, beta_2, b, c) -> CounterfactualStructure:
    """The 16-state detection-bit structure for the prisoner's dilemma with
    player types (alpha_1, alpha_2) and cooperation beliefs (beta_1, beta_2)."""
    from .games import make_prisoners_dilemma

    d = make_prisoners_dilemma(b, c)
    return build_typed_dilemma_structure(d, (alpha_1, alpha_2), (beta_1, beta_2))


# ---------------------------------------------------------------------------
# JSON import/export; the validator doubles as the format's linter


def structure_to_json(m: CounterfactualStructure, budget: int = 200_000) -> dict:
    """Serialize a structure.

    Strategy labels become display strings, profiles become index lists, and
    probabilities are written as exact fraction strings.  Closest-state
    entries forced by CS2 (switching to the current strategy) are omitted.
    """
    entries = m.num_states * sum(len(s) for s in m.strategy_sets)
    if entries > budget:
        raise BudgetExceededError(entries, budget, "closest-state entries")

    strategy_index = [
        {s: j for j, s in enumerate(strats)} for strats in m.strategy_sets
    ]
    states_doc = []
    for k in range(m.num_states):
        profile = [strategy_index[i][s] for i, s in enumerate(m.states[k])]
        entry = {"profile": profile}
        entry["aux"] = list(m.aux[k]) if m.aux is not None else None
        states_doc.append(entry)

    closest_doc = []
    for omega in range(m.num_states):
        for i in range(m.num_players):
            own = strategy_index[i][m.states[omega][i]]
            for j in range(len(m.strategy_sets[i])):
                if j == own:
                    continue
                closest_doc.append({
                    "state": omega, "player": i, "strategy": j,
                    "target": m.closest_columns[(i, j)][omega],
                })

    beliefs_doc = []
    texts: dict = {}  # probability object id -> text; ``m`` keeps each alive
    for i in range(m.num_players):
        formatted: dict = {}  # measure object id -> its dist, formatted once
        for omega in range(m.num_states):
            dist = m.beliefs[i][omega]
            if id(dist) in formatted:  # a copy: no two entries alias
                text = dict(formatted[id(dist)])
            else:
                text = formatted[id(dist)] = {
                    str(t): texts.get(id(p)) or texts.setdefault(id(p), str(p))
                    for t, p in sorted(dist.items())}
            beliefs_doc.append({"player": i, "state": omega, "dist": text})

    return {
        "players": m.num_players,
        "strategies": [[str(s) for s in strats] for strats in m.strategy_sets],
        "states": states_doc,
        "closest": closest_doc,
        "beliefs": beliefs_doc,
    }


def _range_error(k: int, size: int, path: str, what: str) -> ValueError:
    return ValueError(f"{path}: {what} index {k} is out of range 0..{size - 1}")


def _index(value, size: int, what: str, path: str, *args) -> int:
    """``value`` as an index below ``size``; the error names the JSON path
    ``path.format(*args)``, which is formatted only on failure."""
    k = int(value)
    if not 0 <= k < size:
        raise _range_error(k, size, path.format(*args), what)
    return k


def _parse_dist(raw: dict, n_states: int, path: str, parsed: dict) -> dict:
    """One belief measure of a document; each probability string is parsed
    once per document (``parsed`` maps text to its ``Fraction``)."""
    dist = {}
    for t, p in raw.items():
        k = int(t)
        if not 0 <= k < n_states:  # the path is formatted only on failure
            raise _range_error(k, n_states, f"{path}.dist[{json.dumps(t)}]", "state")
        if type(p) is str:
            q = parsed.get(p)
            if q is None:
                q = parsed[p] = Fraction(p)
        else:
            try:
                q = Fraction(p)
            except (OverflowError, ValueError):  # inf or nan
                raise ValueError(f"{path}.dist[{json.dumps(t)}]: expected a "
                                 f"finite number, got {p!r}") from None
        dist[k] = q
    return dist


def structure_from_json(doc, game: Optional[NormalFormGame] = None) -> CounterfactualStructure:
    """Parse a structure document (dict or JSON text).

    Missing closest-state entries other than the CS2-forced ones are kept as
    holes that ``validate_structure`` reports, and so are closest-state
    targets out of range (CS1); the validator is the linter for this format.
    Every other player, state, strategy or belief-target index must lie in
    range, or a ValueError names its JSON path.

    Belief entries whose ``dist`` objects are equal (the same items in the
    same order) share one parsed measure object, as a built structure shares
    one per belief cell; so the validator, ``structure_to_json`` and
    ``te_in_structure`` do their per-measure work once per distinct
    ``dist``.  An in-place edit of a parsed measure therefore changes it at
    every state that shares it.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    for key in ("players", "strategies", "states", "closest", "beliefs"):
        if key not in doc:
            raise ValueError(f"structure document is missing {key!r}")
    n = int(doc["players"])
    strategy_sets = tuple(tuple(s) for s in doc["strategies"])
    if len(strategy_sets) != n:
        raise ValueError("one strategy list per player required")
    if game is not None:
        strategy_sets = game.strategy_sets
    sizes = [len(strats) for strats in strategy_sets]
    # per player: position -> position of the label's first occurrence
    first = []
    for i, strats in enumerate(strategy_sets):
        index: dict = {}
        for j, s in enumerate(strats):
            try:
                index.setdefault(s, j)
            except TypeError:
                raise ValueError(f"$.strategies[{i}][{j}]: strategy label "
                                 f"{s!r} is not a string or a number") from None
        first.append([index[s] for s in strats])

    n_states = len(doc["states"])
    states = []
    aux = []
    columns = {(i, j): [MISSING] * n_states
               for i in range(n) for j in range(sizes[i])}
    for k, entry in enumerate(doc["states"]):
        raw = entry["profile"]
        if len(raw) != n:
            raise ValueError(f"$.states[{k}].profile: expected {n} entries, "
                             f"got {len(raw)}")
        profile = []
        for i, j in enumerate(raw):
            j = _index(j, sizes[i], "strategy", "$.states[{}].profile[{}]", k, i)
            profile.append(strategy_sets[i][j])
            columns[(i, first[i][j])][k] = k
        states.append(tuple(profile))
        aux.append(tuple(entry["aux"]) if entry.get("aux") is not None else None)
    states = tuple(states)
    has_aux = any(a is not None for a in aux)

    for e, entry in enumerate(doc["closest"]):
        omega = _index(entry["state"], n_states, "state", "$.closest[{}].state", e)
        i = _index(entry["player"], n, "player", "$.closest[{}].player", e)
        j = _index(entry["strategy"], sizes[i], "strategy", "$.closest[{}].strategy", e)
        columns[(i, j)][omega] = int(entry["target"])
    columns = {key: tuple(col) for key, col in columns.items()}

    beliefs = [[{} for _ in states] for _ in range(n)]
    parsed: dict = {}
    measures: dict = {}  # the items of a raw dist -> its parsed measure
    for e, entry in enumerate(doc["beliefs"]):
        i = _index(entry["player"], n, "player", "$.beliefs[{}].player", e)
        omega = _index(entry["state"], n_states, "state", "$.beliefs[{}].state", e)
        raw = entry["dist"]
        if not isinstance(raw, dict):
            raise ValueError(f"$.beliefs[{e}].dist: expected an object")
        try:
            key = tuple(raw.items())
            dist = measures.get(key)
        except TypeError:  # an unhashable value: parsed on its own
            key = dist = None
        if dist is None:
            dist = _parse_dist(raw, n_states, f"$.beliefs[{e}]", parsed)
            if key is not None:
                measures[key] = dist
        beliefs[i][omega] = dist
    beliefs = tuple(tuple(per_state) for per_state in beliefs)

    return CounterfactualStructure(strategy_sets, states, columns, beliefs,
                                   aux=tuple(aux) if has_aux else None, game=game)

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

``is_rational_at`` depends on the state only through its belief cell: the
player, the measure object and the player's own game position.  The
structure keeps one report per cell and hands it out again only while the
measure holds the very ``(target, probability)`` objects it was judged on,
in the same order (an in-place edit misses), the player's switch plan is
the same object (a replaced ``closest_columns`` entry misses) and the own
position is on the game; every call gets an ``eu_switch`` dict of its own.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import is_, mul
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

    @cached_property
    def _reports(self) -> dict:
        """``is_rational_at``'s memo: (player, id(measure), own position) ->
        (measure, its targets, its probabilities, switch plan, eu,
        eu_switch, verdict), filled on first use."""
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

    # CS1 and CS2 column by column; only a column that fails is walked state
    # by state, and its violations are merged back into state order
    found = []  # (state, player, strategy position, violation)
    for i in players:
        codes = own_codes[i]
        playing: dict = {}  # own code -> the states that play it
        for k, code in enumerate(codes):
            playing.setdefault(code, []).append(k)
        for j, column in enumerate(columns[i]):
            code = set_codes[i][j]
            fixed = playing.get(code, [])
            try:
                if (len(column) == n_states and min(column, default=0) >= 0
                        and max(column, default=0) < n_states
                        and set(map(codes.__getitem__, column)) <= {code}
                        and list(map(column.__getitem__, fixed)) == fixed):
                    continue
            except TypeError:  # a target that is not an index: walked below
                pass
            s = m.strategy_sets[i][j]
            for omega in range(n_states):
                target = column[omega]
                if not 0 <= target < n_states:
                    found.append((omega, i, j, Violation(
                        "CS1", omega, i, s,
                        "missing or out-of-range closest-state entry")))
                    continue
                if codes[target] != code:
                    found.append((omega, i, j, Violation(
                        "CS1", omega, i, s,
                        f"closest state {target} plays {states[target][i]!r}")))
                if code == codes[omega] and target != omega:
                    found.append((omega, i, j, Violation(
                        "CS2", omega, i, s,
                        f"keeping the current strategy moved the state to {target}")))
    found.sort(key=lambda entry: entry[:3])  # stable: CS1 before CS2
    violations.extend(entry[3] for entry in found)

    for i in players:
        per_state = list(map(m.beliefs[i].__getitem__, range(n_states)))
        codes = own_codes[i]
        measure_ids = list(map(id, per_state))
        cells, positives, norm = _belief_cells(per_state, measure_ids)
        # PR1 and PR2 depend on a state only through its measure object and
        # own code: decide them once per (id(measure), own code), from one
        # state that has it
        judged: dict = {}
        for key, k in dict(zip(zip(measure_ids, codes), range(n_states))).items():
            dist, own, cell = per_state[k], codes[k], cells[k]
            findings = judged[key] = []
            for target in positives[key[0]]:
                if codes[target] != own:
                    findings.append((
                        "PR1", f"positive mass on state {target} where the "
                               f"player uses {states[target][i]!r}"))
                if cells[target] != cell and per_state[target] != dist:
                    findings.append((
                        "PR2", f"positive mass on state {target} with "
                               "different beliefs"))
        if not any(judged.values()) and norm.count(None) == len(norm):
            continue
        for omega, (key, cell) in enumerate(zip(zip(measure_ids, codes), cells)):
            if norm[cell] is not None:
                violations.append(Violation("NORM", omega, i, detail=norm[cell]))
            violations.extend(Violation(axiom, omega, i, detail=detail)
                              for axiom, detail in judged[key])
    return violations


def _belief_cells(per_state: Sequence, ids: list) -> tuple:
    """Group one player's measures, whose ``id``s are ``ids``, into belief
    cells.

    Returns the cell id of every state, the positive-mass targets of every
    measure object (by ``id``, in insertion order) and, per cell, the NORM
    violation detail or None.  Measures with equal exact entries share a
    cell; zero-mass entries count, as they do for dict equality.  A measure
    whose targets do not sort gets a cell of its own.  NORM is decided on
    integers over the entries' common denominator.
    """
    norm = []
    positives: dict = {}
    object_cell: dict = {}
    entries_cell: dict = {}
    for key, dist in dict(zip(ids, per_state)).items():
        entries = [(t, q.numerator, q.denominator)
                   for t, q in zip(dist, map(to_exact, dist.values()))]
        positives[key] = [t for t, num, _ in entries if num > 0]
        try:
            sorted_entries = tuple(sorted(entries))
            cell = entries_cell.get(sorted_entries)
        except TypeError:  # targets that do not sort
            cell = sorted_entries = None
        if cell is None:
            cell = len(norm)
            if sorted_entries is not None:
                entries_cell[sorted_entries] = cell
            den = lcm(*[d for _, _, d in entries])
            num = sum(n * (den // d) for _, n, d in entries)
            norm.append(f"belief mass sums to {Fraction(num, den)}"
                        if abs(num - den) * NORM_TOL.denominator
                        > den * NORM_TOL.numerator else None)
        object_cell[key] = cell
    return list(map(object_cell.__getitem__, ids)), positives, norm


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
    or beat every switch (weak inequality).

    Judged once per belief cell (player, measure object, own position on the
    game): a later state of the cell reuses the report while the measure's
    items and the switch plan are the very objects judged, and gets a fresh
    report with an ``eu_switch`` dict of its own."""
    pos = m._profile_index[0][i][omega]  # without a game, the first to raise
    dist = m.beliefs[i][omega]
    key = (i, id(dist), pos)  # the cell keeps ``dist`` alive, so its id
    cell = m._reports.get(key)
    if cell is not None:
        _, targets, probabilities, plan, eu, switches, rational = cell
        if (len(dist) == len(targets) and all(map(is_, dist, targets))
                and all(map(is_, dist.values(), probabilities))
                and _switch_plan(m, i)[0] is plan):
            return StateUtilityReport(eu, switches.copy(), rational)
    game = m.game
    sources, (weights, den) = list(dist), _weights(dist)
    eu = _expectation(m, game, i, m.states[omega][i], pos, sources, weights, den)
    plan = _switch_plan(m, i)[0]
    switches = {s: Fraction(*v) for s, v in _switch_values(
        m, game, i, omega, eu, sources, weights, den, plan)}
    eu = Fraction(*eu)
    rational = all(eu >= v for v in switches.values())
    if pos is not None:  # a state off the game belongs to no cell
        m._reports[key] = (dist, tuple(sources), tuple(dist.values()), plan,
                           eu, switches.copy(), rational)
    return StateUtilityReport(eu, switches, rational)


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
        support = {pos for pos, _, _ in sigma._entries[i][0]}
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
    # each state's strategy positions, which its closest entries skip
    positions = [[strategy_index[i][s] for i, s in enumerate(profile)]
                 for profile in m.states]
    states_doc = [{"profile": profile, "aux": None} for profile in positions]
    if m.aux is not None:
        for k, entry in enumerate(states_doc):
            entry["aux"] = list(m.aux[k])

    # per player and own position: the other strategies' (position, column)
    switches = []
    for i, strats in enumerate(m.strategy_sets):
        columns = [(j, m.closest_columns[(i, j)]) for j in range(len(strats))]
        switches.append([columns[:own] + columns[own + 1:] for own in range(len(strats))])
    closest_doc = [{"state": omega, "player": i, "strategy": j, "target": column[omega]}
                   for omega, profile in enumerate(positions)
                   for i, away in enumerate(switches) for j, column in away[profile[i]]]

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


def _field(entry, key: str, path: str, *args):
    """``entry[key]``; unless ``entry`` is an object with that key, a
    ValueError names the JSON path ``path.format(*args)``, which is
    formatted only on failure."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path.format(*args)}: expected an object")
    if key not in entry:
        raise ValueError(f"{path.format(*args)}.{key}: required key is missing")
    return entry[key]


def _index(value, size: Optional[int], what: str, path: str, *args) -> int:
    """``value`` if it is a JSON integer (not a bool, a float or a string)
    below ``size`` (any integer if ``size`` is None); the error names the
    JSON path ``path.format(*args)``, which is formatted only on failure."""
    if type(value) is not int:
        raise ValueError(f"{path.format(*args)}: expected an integer index, "
                         f"got {value!r}")
    if size is not None and not 0 <= value < size:
        raise _range_error(value, size, path.format(*args), what)
    return value


def _closest_entry(entry, e: int, n_states: int, n: int, sizes: list) -> tuple:
    """``(state, player, strategy, target)`` of ``$.closest[e]``, checked
    field by field, so the first bad one raises a ValueError naming it."""
    path = f"$.closest[{e}]"
    omega = _index(_field(entry, "state", path), n_states, "state", path + ".state")
    i = _index(_field(entry, "player", path), n, "player", path + ".player")
    j = _index(_field(entry, "strategy", path), sizes[i], "strategy", path + ".strategy")
    return omega, i, j, _index(_field(entry, "target", path), None, "state", path + ".target")


def _belief_entry(entry, e: int, n: int, n_states: int) -> tuple:
    """``(player, state, dist)`` of ``$.beliefs[e]``, checked field by
    field, so the first bad one raises a ValueError naming it."""
    path = f"$.beliefs[{e}]"
    i = _index(_field(entry, "player", path), n, "player", path + ".player")
    omega = _index(_field(entry, "state", path), n_states, "state", path + ".state")
    return i, omega, _field(entry, "dist", path)


def _probability(p, path: str, t) -> Fraction:
    try:
        if not isinstance(p, bool):  # Fraction(True) is 1
            return Fraction(p)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError):  # inf, nan, "x"
        pass
    raise ValueError(f"{path}.dist[{json.dumps(t)}]: expected a finite "
                     f"number, got {p!r}")


def _parse_dist(raw: dict, n_states: int, path: str, parsed: dict) -> dict:
    """One belief measure of a document; each probability string is parsed
    once per document (``parsed`` maps text to its ``Fraction``).  Targets
    are strings read by ``int()``."""
    dist = {}
    for t, p in raw.items():
        try:
            k = int(t)
        except (TypeError, ValueError):
            raise ValueError(f"{path}.dist[{json.dumps(t)}]: expected an "
                             f"integer index, got {t!r}") from None
        if not 0 <= k < n_states:  # the path is formatted only on failure
            raise _range_error(k, n_states, f"{path}.dist[{json.dumps(t)}]", "state")
        if type(p) is str:
            q = parsed.get(p)
            if q is None:
                q = parsed[p] = _probability(p, path, t)
        else:
            q = _probability(p, path, t)
        dist[k] = q
    return dist


def structure_from_json(doc, game: Optional[NormalFormGame] = None) -> CounterfactualStructure:
    """Parse a structure document (dict or JSON text).

    Missing closest-state entries other than the CS2-forced ones are kept as
    holes that ``validate_structure`` reports, and so are closest-state
    targets out of range (CS1); the validator is the linter for this format.
    Every player, state, strategy and closest-state target index must be a
    JSON integer (not a bool, a float or a string), and every player, state,
    strategy or belief-target index must lie in range; a missing key, a
    wrong index or an unreadable probability raises a ValueError that names
    its JSON path.

    Belief entries whose ``dist`` objects are equal (the same items in the
    same order) share one parsed measure object, as a built structure shares
    one per belief cell; so the validator, ``structure_to_json`` and
    ``te_in_structure`` do their per-measure work once per distinct
    ``dist``.  An in-place edit of a parsed measure therefore changes it at
    every state that shares it.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError(f"$: expected an object, got {type(doc).__name__}")
    for key in ("players", "strategies", "states", "closest", "beliefs"):
        if key not in doc:
            raise ValueError(f"$: structure document is missing {key!r}")
        if key != "players" and not isinstance(doc[key], (list, tuple)):
            raise ValueError(f"$.{key}: expected a list")
    n = doc["players"]
    if type(n) is not int:
        raise ValueError(f"$.players: expected an integer, got {n!r}")
    strategy_sets = []
    for i, strats in enumerate(doc["strategies"]):
        if not isinstance(strats, (list, tuple)):
            raise ValueError(f"$.strategies[{i}]: expected a list of strategy labels")
        strategy_sets.append(tuple(strats))
    strategy_sets = tuple(strategy_sets)
    if len(strategy_sets) != n:
        raise ValueError(f"$.strategies: one strategy list per player required, "
                         f"got {len(strategy_sets)} for {n} players")
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
    # per player, per strategy position: its column of closest states
    columns = [[[MISSING] * n_states for _ in range(sizes[i])] for i in range(n)]
    for k, entry in enumerate(doc["states"]):
        raw = _field(entry, "profile", "$.states[{}]", k)
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"$.states[{k}].profile: expected a list")
        if len(raw) != n:
            raise ValueError(f"$.states[{k}].profile: expected {n} entries, "
                             f"got {len(raw)}")
        profile = []
        for i, j in enumerate(raw):
            j = _index(j, sizes[i], "strategy", "$.states[{}].profile[{}]", k, i)
            profile.append(strategy_sets[i][j])
            columns[i][first[i][j]][k] = k
        states.append(tuple(profile))
        extra = entry.get("aux")
        try:
            aux.append(tuple(extra) if extra is not None else None)
        except TypeError:
            raise ValueError(f"$.states[{k}].aux: expected a list or null") from None
    states = tuple(states)
    has_aux = any(a is not None for a in aux)

    # the common entry is checked inline: JSON integers, none negative, and
    # each one inside its list (an IndexError past the end); any other goes
    # through the field-by-field check, which names what is wrong
    for e, entry in enumerate(doc["closest"]):
        try:
            omega, i, j, target = (entry["state"], entry["player"],
                                   entry["strategy"], entry["target"])
            if (type(omega) is type(i) is type(j) is type(target) is int
                    and omega >= 0 and i >= 0 and j >= 0):
                columns[i][j][omega] = target
                continue
        except (KeyError, TypeError, IndexError):
            pass
        omega, i, j, target = _closest_entry(entry, e, n_states, n, sizes)
        columns[i][j][omega] = target
    columns = {(i, j): tuple(column) for i, per_player in enumerate(columns)
               for j, column in enumerate(per_player)}

    beliefs = [[{} for _ in states] for _ in range(n)]
    parsed: dict = {}
    measures: dict = {}  # a raw dist's targets and values, in order -> its measure
    for e, entry in enumerate(doc["beliefs"]):
        try:  # inline, as for the closest entries
            i, omega, raw = entry["player"], entry["state"], entry["dist"]
            checked = (type(i) is type(omega) is int
                       and 0 <= i < n and 0 <= omega < n_states)
        except (KeyError, TypeError):
            checked = False
        if not checked:
            i, omega, raw = _belief_entry(entry, e, n, n_states)
        if not isinstance(raw, dict):
            raise ValueError(f"$.beliefs[{e}].dist: expected an object")
        try:
            key = (tuple(raw), tuple(raw.values()))
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

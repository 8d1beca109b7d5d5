"""Finite counterfactual structures: states, beliefs, and closest-state maps.

A structure over a finite game gives every state a pure strategy profile
(``states``), says which state would result if a player switched strategies
(``closest``), and gives each player a probability measure over states at
every state (``beliefs``).  The axioms checked by the validator:

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
validator decides NORM once per measure object, and PR2 compares two
measures as dicts only when they are distinct objects.  The Nash and
punishment builders read one layout per game (profiles, strategy positions,
punished states), memoised like its payoff table.  The punishment builder
also keeps the columns that depend on the support on the game, as the
switch plan (below) of each (player, support positions), filled on first
use and holding at most ``_SUPPORTS_KEPT`` supports per player (the oldest
goes first): structures share those tuples, and each gets a
``closest_columns`` dict and measures of its own.

Each player's switch plan (every switch's strategy, column and game
position) is kept on the structure: a builder hands it over, and
``_switch_plan`` reads it once for any other structure and again whenever a
``closest_columns`` key no longer holds the column object it was read from.
A belief cell is judged in one pass over its measure's sources
(``_cell_values``): the exact probabilities (floats at their exact value,
as ``exact.to_exact`` converts them, so no verdict is decided by rounding)
become integer weights over one denominator, and the on-path value and each
switch's are the weights times the player's integer payoff row at each
target, the sources themselves or their entries in the switch's column.
Every payoff is an integer over the player's scale, filled by the rule on
first use, so all the values come back as numerators over one denominator,
the measure's times that scale, and TE4 and ``is_rational_at`` compare
numerators.  The first error raised is the on-path value's, then each
switch's in plan order; within a switch, a missing closest-state entry comes
before a strategy or target off the game (``game.payoff``'s error).

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
import dataclasses
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import getitem, is_, itemgetter, mul
from typing import NamedTuple, Optional, Sequence

from .exact import (InputError, common_denominator, field, index, load_json, plain,
                    probability, to_exact)
from .games import (BudgetExceededError, MixedProfile, NormalFormGame, SocialDilemma,
                    Strategy, _check_budget, as_game)

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


class Violation(NamedTuple):
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


class StateUtilityReport(NamedTuple):
    """Expected utilities at a state, and the rationality verdict there."""

    eu: Fraction
    eu_switch: dict
    rational: bool


@dataclasses.dataclass(frozen=True)
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
    closest_columns: dict = dataclasses.field(compare=False)
    beliefs: tuple = dataclasses.field(compare=False)
    aux: Optional[tuple] = None
    game: Optional[NormalFormGame] = dataclasses.field(default=None, compare=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_players(self) -> int:
        return len(self.strategy_sets)

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
           profile_index: tuple, aux=None, plans=None) -> CounterfactualStructure:
    """A builder's structure, handed its ``_profile_index`` so no strategy is
    hashed (a copy by ``dataclasses.replace`` or from JSON computes its own),
    and its switch plans (``plans``, else read from ``columns``), every
    strategy at its own game position."""
    m = CounterfactualStructure(game.strategy_sets, states, columns,
                                tuple(beliefs), aux=aux, game=game)
    m.__dict__["_profile_index"] = profile_index  # the cached_property's slot
    m.__dict__["_plans"] = plans or {
        i: ([(s, columns[(i, j)], j) for j, s in enumerate(strats)],
            [(i, j) for j in range(len(strats))],
            [columns[(i, j)] for j in range(len(strats))])
        for i, strats in enumerate(game.strategy_sets)}
    return m


# ---------------------------------------------------------------------------
# axiom validation


def _game_positions(m: CounterfactualStructure) -> Optional[tuple]:
    """Per player, each state's strategy position in the game, read from
    ``_profile_index`` when the structure uses its game's strategy sets and
    no state is off the game; otherwise None."""
    game = m.game
    if (game is not None and m.strategy_sets is game.strategy_sets
            and not any(None in column for column in m._profile_index[0])):
        return m._profile_index[0]
    return None


def validate_structure(m: CounterfactualStructure) -> list:
    """Check CS1, CS2, PR1, PR2 and normalization; violations come back as
    data, in deterministic (state, player, strategy) order."""
    violations = []
    n_states = m.num_states
    states = m.states
    players = range(m.num_players)
    # equal codes <=> equal strategies, so the checks compare small ints:
    # the game positions where they are known, else codes by hashing
    own_codes, set_codes = _game_positions(m), []
    if own_codes is not None:
        set_codes = [range(len(strats)) for strats in m.strategy_sets]
    else:
        own_codes = []
        for i in players:
            ids: dict = {}
            set_codes.append([ids.setdefault(s, len(ids)) for s in m.strategy_sets[i]])
            own_codes.append([ids.setdefault(p[i], len(ids)) for p in states])
    columns = [[m.closest_columns[(i, j)] for j in range(len(m.strategy_sets[i]))]
               for i in players]

    # CS1 and CS2 column by column, merged back into state order
    found = []  # (state, player, strategy position, violation)
    for i in players:
        codes = own_codes[i]
        for j, column in enumerate(columns[i]):
            code = set_codes[i][j]
            s = m.strategy_sets[i][j]
            for omega, target in enumerate(column):
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
        # per measure object: its positive-mass targets and its NORM detail
        # (None when it sums to 1), decided on integers over one denominator
        measures: dict = {}
        for key, dist in dict(zip(measure_ids, per_state)).items():
            weights, den = common_denominator(dist.values())
            mass = sum(weights)
            measures[key] = ([t for t, w in zip(dist, weights) if w > 0],
                             f"belief mass sums to {Fraction(mass, den)}"
                             if abs(mass - den) * NORM_TOL.denominator
                             > den * NORM_TOL.numerator else None)
        # PR1 and PR2 depend on a state only through its measure object and
        # own code: decide them once per (id(measure), own code), from one
        # state that has it
        judged: dict = {}
        for key, k in dict(zip(zip(measure_ids, codes), range(n_states))).items():
            dist, own = per_state[k], codes[k]
            findings = judged[key] = []
            for target in measures[key[0]][0]:
                if codes[target] != own:
                    findings.append((
                        "PR1", f"positive mass on state {target} where the "
                               f"player uses {states[target][i]!r}"))
                if per_state[target] is not dist and per_state[target] != dist:
                    findings.append((
                        "PR2", f"positive mass on state {target} with "
                               "different beliefs"))
        if not any(judged.values()) and all(
                norm is None for _, norm in measures.values()):
            continue
        for omega, key in enumerate(zip(measure_ids, codes)):
            norm = measures[key[0]][1]
            if norm is not None:
                violations.append(Violation("NORM", omega, i, detail=norm))
            violations.extend(Violation(axiom, omega, i, detail=detail)
                              for axiom, detail in judged[key])
    return violations


# ---------------------------------------------------------------------------
# derived beliefs and expected utilities


def derived_beliefs(m: CounterfactualStructure, i: int, omega: int,
                    s_dev: Strategy) -> dict:
    """Pushforward of player i's beliefs at ``omega`` through the
    closest-state map under a switch to ``s_dev``; sums to 1."""
    dist, column = m.belief(i, omega), m.closest_columns[(i, m.strategy_index(i, s_dev))]
    out: dict = {}
    for source, p in dist.items():
        target = column[source]
        if target == MISSING:
            m.closest(source, i, s_dev)  # raises, naming the entry
        out[target] = out.get(target, Fraction(0)) + p
    return out


def _require_game(m: CounterfactualStructure) -> NormalFormGame:
    if m.game is None:
        raise ValueError("structure has no attached game; utilities need one")
    return m.game


def _switch_plan(m: CounterfactualStructure, i: int) -> list:
    """Player i's switches in list order, each strategy hashed once, as
    ``(strategy, closest-state column, game position or None)``.  The plan
    is kept on the structure, with the ``closest_columns`` keys and columns
    it was read from, while every key still holds the same column object."""
    entry = m._plans.get(i)
    if entry is None or not all(map(is_, map(m.closest_columns.get, entry[1]), entry[2])):
        strats, index = m.strategy_sets[i], m.game._index[i]
        keys = [(i, m.strategy_index(i, s)) for s in strats]
        columns = [m.closest_columns[key] for key in keys]
        entry = m._plans[i] = ([(s, column, index.get(s))
                                for s, column in zip(strats, columns)], keys, columns)
    return entry[0]


def _cell_values(m: CounterfactualStructure, i: int, omega: int, sources: list,
                 weights: list, den: int, plan, on_path: bool = True) -> tuple:
    """Player i's values at ``omega`` under the measure of ``sources`` with
    integer ``weights`` over ``den`` (module docstring): the on-path
    numerator (None without ``on_path``), one per switch of ``plan``, and
    their denominator.  A switch to omega's own position whose column fixes
    every source is worth the on-path value.  A pass that meets anything
    amiss walks the cell in the same order, raising its first error or
    filling all its table misses, so the next pass goes through."""
    game = m.game
    positions, others = m._profile_index
    own, others = positions[i][omega], others[i]
    if own is None and on_path:  # a profile of another length: its strategy's position
        own = game._index[i].get(m.states[omega][i])
    row, stride = game._table[i], game._strides[i]
    while True:
        scale = game._scales[i]
        try:
            eu = None
            if on_path:
                eu, base = 0, own and own * stride  # None: the first source raises
                for t, w in zip(sources, weights):
                    eu += w * row[others[t] + base]
            values = []
            for s, column, pos in plan:
                targets = [column[t] for t in sources]
                if pos == own and eu is not None and targets == sources:
                    values.append(eu)
                    continue
                if MISSING in targets:
                    break
                num, base = 0, pos and pos * stride
                for t, w in zip(targets, weights):
                    num += w * row[others[t] + base]
                values.append(num)
            else:
                return eu, values, den * scale
        except (TypeError, LookupError):  # a position off the game, a table miss
            pass
        for s, column, pos in ([(m.states[omega][i], None, own)] if on_path else []) + [*plan]:
            for t in sources if column is None else derived_beliefs(m, i, omega, s):
                k = None if pos is None else others[t]
                if k is None:  # s or the target off the game: payoff() raises
                    profile = list(m.states[t])
                    profile[i] = s
                    game.payoff(tuple(profile), i)
                k += pos * stride
                if k not in row:
                    game._fill(i, k)


def eu_at_state(m: CounterfactualStructure, i: int, omega: int) -> Fraction:
    """Expected utility of player i's current strategy at ``omega``."""
    dist = m.belief(i, omega)
    eu, _, den = _cell_values(m, i, omega, list(dist), *common_denominator(dist.values()), ())
    return Fraction(eu, den)


def eu_at_state_switch(m: CounterfactualStructure, i: int, omega: int,
                       s_dev: Strategy) -> Fraction:
    """Expected utility at ``omega`` if player i switched to ``s_dev``,
    with beliefs pushed through the closest-state map."""
    _require_game(m)
    dist = m.belief(i, omega)
    _, column, pos = _switch_plan(m, i)[m.strategy_index(i, s_dev)]
    _, (value,), den = _cell_values(m, i, omega, list(dist), *common_denominator(dist.values()),
                                    [(s_dev, column, pos)], on_path=False)
    return Fraction(value, den)


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
                and _switch_plan(m, i) is plan):
            return StateUtilityReport(eu, switches.copy(), rational)
    sources, plan = list(dist), _switch_plan(m, i)
    eu, values, den = _cell_values(m, i, omega, sources, *common_denominator(dist.values()),
                                   plan)
    rational = max(values, default=eu) <= eu
    eu = Fraction(eu, den)
    switches = {s: Fraction(v, den) for (s, _, _), v in zip(plan, values)}
    if pos is not None:  # a state off the game belongs to no cell
        m._reports[key] = (dist, tuple(sources), tuple(dist.values()), plan,
                           eu, switches.copy(), rational)
    return StateUtilityReport(eu, switches, rational)


# ---------------------------------------------------------------------------
# constructions


def _others_pairs(sigma: MixedProfile, i: int) -> list:
    """(profile-index offset, probability) of each of the others' combos."""
    offsets, weights, den = sigma._kernels[i]
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
    # tuples and each (player, support)'s switch plan (its columns) are
    # shared, and every structure gets dicts of its own
    columns, beliefs, plans = {}, [], {}
    for i, stride in enumerate(game._strides):
        support = {pos for pos, _, _ in sigma._entries[i][0]}
        key = (i, tuple(sorted(support)))
        kept = game._support_columns
        shared = kept.get(key)
        if shared is None:
            if len(kept) >= _SUPPORTS_KEPT * game.num_players:
                del kept[next(iter(kept))]
            plan = tuple((s, tuple([target if o != j and o in support else x + j * stride
                                    for o, x in zip(own[i], others[i])]), j)
                         for j, (s, (_, target)) in enumerate(zip(game.strategy_sets[i],
                                                                  punished[i])))
            shared = kept[key] = (plan, tuple((i, j) for j in range(len(plan))),
                                  tuple(column for _, column, _ in plan))
        plans[i] = shared  # the switch plan, its closest_columns keys and columns
        columns.update(zip(shared[1], shared[2]))
        pairs = _others_pairs(sigma, i)
        measures = [{o * stride + off: p for off, p in pairs} if o in support else None
                    for o in range(len(game.strategy_sets[i]))]
        beliefs.append(tuple([measures[o] or {k: _SURE} for k, o in enumerate(own[i])]))

    return _built(game, states, columns, beliefs, (own, others), plans=plans)


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

    # per player o and state: o's profile shift when its bit sends it to defect
    moves = [[(defect[o] - x) * strides[o] if bits[o] else 0 for x, bits in zip(own[o], aux)]
             for o in range(n)]
    columns = {}
    for i, stride in enumerate(strides):
        # the state each switch of i starts from: the others' shifts, i at position 0
        moved = [k + (sum(shifts) - o * stride) * nb for k, o, shifts in zip(
            range(count), own[i], zip(*moves[:i], *moves[i + 1:]))]
        for j in range(len(game.strategy_sets[i])):
            step = j * stride * nb
            columns[(i, j)] = tuple([k if o == j else x + step
                                     for k, o, x in zip(range(count), own[i], moved)])

    beliefs = []
    for i, stride in enumerate(strides):
        others = [j for j in range(n) if j != i]
        # the others' bits: (state offset, mass), each set with probability alpha_i
        bit_terms = [(sum(map(mul, places[:i] + places[i + 1:], bits)),
                      prod(alphas[i] if bit else 1 - alphas[i] for bit in bits))
                     for bits in itertools.product((0, 1), repeat=n - 1)]
        entries: dict = {}  # offset from (own strategy 0, own bit 0) -> mass
        choices = [((d.cooperate_strategy(j), betas[j]),
                    (d.defect_strategy(j), 1 - betas[j])) for j in others]
        for picks in itertools.product(*choices):
            p_strat = prod((p for _, p in picks), start=Fraction(1))
            if p_strat == 0:
                continue
            base = nb * sum(strides[o] * game.strategy_index(o, s)
                            for o, (s, _) in zip(others, picks))
            for offset, q in bit_terms:
                if q != 0:
                    target, p = base + offset, p_strat * q
                    entries[target] = entries[target] + p if target in entries else p
        # one measure per (own strategy, own bit), keyed by its state offset
        keys = [o * stride * nb + bits[i] * places[i] for o, bits in zip(own[i], aux)]
        measures = {key: {key + t: p for t, p in entries.items()} for key in set(keys)}
        beliefs.append(tuple([measures[key] for key in keys]))

    rest = tuple(tuple([k // nb - o * stride for k, o in enumerate(column)])
                 for column, stride in zip(own, strides))
    return _built(game, states, columns, beliefs, (tuple(map(tuple, own)), rest), aux=aux)


def build_typed_pd_structure(alpha_1, alpha_2, beta_1, beta_2, b, c) -> CounterfactualStructure:
    """The 16-state detection-bit structure for the prisoner's dilemma with
    player types (alpha_1, alpha_2) and cooperation beliefs (beta_1, beta_2).
    A public name: the README's quick tour and the acceptance tests call it."""
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

    # each state's strategy positions, which its closest entries skip
    columns = _game_positions(m)
    if columns is not None:
        positions = list(map(list, zip(*columns)))
    else:
        index = m._strategy_maps  # a repeated label's first position
        positions = [[index[i][s] for i, s in enumerate(profile)] for profile in m.states]
    states_doc = [{"profile": profile, "aux": None} for profile in positions]
    if m.aux is not None:
        for k, entry in enumerate(states_doc):
            if m.aux[k] is not None:
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
    for i in range(m.num_players):
        formatted: dict = {}  # measure object id -> its dist, formatted once
        for omega, dist in enumerate(m.beliefs[i]):
            text = formatted.get(id(dist))
            if text is None:
                text = formatted[id(dist)] = {str(t): str(p) for t, p in sorted(dist.items())}
            # a copy: no two entries alias
            beliefs_doc.append({"player": i, "state": omega, "dist": dict(text)})

    return {
        "players": m.num_players,
        "strategies": [[str(s) for s in strats] for strats in m.strategy_sets],
        "states": states_doc,
        "closest": closest_doc,
        "beliefs": beliefs_doc,
    }


_CLOSEST_FIELDS = itemgetter("state", "player", "strategy", "target")


def _closest_entry(entry, e: int, n_states: int, n: int, sizes: list) -> tuple:
    """``(state, player, strategy, target)`` of ``$.closest[e]``, checked
    field by field, so the first bad one raises a ValueError naming it."""
    path = f"$.closest[{e}]"
    omega = index(field(entry, "state", path), n_states, "state", path + ".state")
    i = index(field(entry, "player", path), n, "player", path + ".player")
    j = index(field(entry, "strategy", path), sizes[i], "strategy", path + ".strategy")
    return omega, i, j, index(field(entry, "target", path), None, "state", path + ".target")


def _belief_entry(entry, e: int, n: int, n_states: int) -> tuple:
    """``(player, state, dist)`` of ``$.beliefs[e]``, checked field by
    field, so the first bad one raises a ValueError naming it."""
    path = f"$.beliefs[{e}]"
    i = index(field(entry, "player", path), n, "player", path + ".player")
    omega = index(field(entry, "state", path), n_states, "state", path + ".state")
    return i, omega, field(entry, "dist", path)


def _parse_dist(raw: dict, n_states: int, path: str, parsed: dict) -> dict:
    """One belief measure of a document; each probability string is parsed
    once per document (``parsed`` maps text to its ``Fraction``).  Targets
    are strings read by ``int()``."""
    dist = {}
    for t, p in raw.items():
        try:
            k = int(t)
        except (TypeError, ValueError):
            k = t
        if type(k) is not int or not 0 <= k < n_states:  # raises, naming the path
            index(k, n_states, "state", "{}.dist[{}]", path, json.dumps(t))
        if type(p) is str:
            q = parsed.get(p)
            if q is None:
                q = parsed[p] = probability(p, "{}.dist[{}]", path, json.dumps(t))
        else:
            q = probability(p, "{}.dist[{}]", path, json.dumps(t))
        dist[k] = q
    return dist


def structure_from_json(doc, game: Optional[NormalFormGame] = None,
                        budget: int = 200_000) -> CounterfactualStructure:
    """Parse a structure document (dict, or text read by ``exact.load_json``).

    Missing closest-state entries other than the CS2-forced ones are kept as
    holes that ``validate_structure`` reports, and so are closest-state
    targets out of range (CS1); the validator is the linter for this format.
    Every player, state, strategy and closest-state target index must be a
    JSON integer (not a bool, a decimal or a string), and every player, state,
    strategy or belief-target index must lie in range; a missing key, a
    wrong index or an unreadable probability raises an ``InputError`` that
    names its JSON path; over ``budget`` closest-state entries (states x
    strategies) raise ``BudgetExceededError`` before any is allocated.

    Belief entries whose ``dist`` objects are equal (the same items in the
    same order) share one parsed measure object, as a built structure shares
    one per belief cell; so the validator, ``structure_to_json`` and
    ``te_in_structure`` do their per-measure work once per distinct
    ``dist``.  An in-place edit of a parsed measure therefore changes it at
    every state that shares it.
    """
    if isinstance(doc, str):
        doc = load_json(doc)
    if not isinstance(doc, dict):
        raise InputError(f"$: expected an object, got {type(plain(doc)).__name__}")
    for key in ("players", "strategies", "states", "closest", "beliefs"):
        if key not in doc:
            raise InputError(f"$: structure document is missing {key!r}")
        if key != "players" and not isinstance(doc[key], (list, tuple)):
            raise InputError(f"$.{key}: expected a list")
    n = doc["players"]
    if type(n) is not int:
        raise InputError(f"$.players: expected an integer, got {plain(n)!r}")
    strategy_sets = []
    for i, strats in enumerate(doc["strategies"]):
        if not isinstance(strats, (list, tuple)):
            raise InputError(f"$.strategies[{i}]: expected a list of strategy labels")
        strategy_sets.append(tuple(map(plain, strats)))
    strategy_sets = tuple(strategy_sets)
    if len(strategy_sets) != n:
        raise InputError(f"$.strategies: one strategy list per player required, "
                         f"got {len(strategy_sets)} for {n} players")
    if game is not None:
        strategy_sets = game.strategy_sets
    sizes = [len(strats) for strats in strategy_sets]
    n_states = len(doc["states"])
    if n_states * sum(sizes) > budget:
        raise BudgetExceededError(n_states * sum(sizes), budget, "closest-state entries")
    # per player: position -> position of the label's first occurrence
    first = []
    for i, strats in enumerate(strategy_sets):
        seen: dict = {}
        for j, s in enumerate(strats):
            try:
                seen.setdefault(s, j)
            except TypeError:
                raise InputError(f"$.strategies[{i}][{j}]: strategy label "
                                 f"{s!r} is not a string or a number") from None
        first.append([seen[s] for s in strats])

    states = []
    aux = []
    # per player, per strategy position: its column of closest states
    columns = [[[MISSING] * n_states for _ in range(sizes[i])] for i in range(n)]
    for k, entry in enumerate(doc["states"]):
        raw = field(entry, "profile", "$.states[{}]", k)
        if not isinstance(raw, (list, tuple)):
            raise InputError(f"$.states[{k}].profile: expected a list")
        if len(raw) != n:
            raise InputError(f"$.states[{k}].profile: expected {n} entries, "
                             f"got {len(raw)}")
        for i, j in enumerate(raw):
            if type(j) is not int or not 0 <= j < sizes[i]:  # raises, naming the path
                index(j, sizes[i], "strategy", "$.states[{}].profile[{}]", k, i)
            columns[i][first[i][j]][k] = k
        states.append(tuple(map(getitem, strategy_sets, raw)))
        extra = entry.get("aux")
        try:
            aux.append(tuple(map(plain, extra)) if extra is not None else None)
        except TypeError:
            raise InputError(f"$.states[{k}].aux: expected a list or null") from None
    states = tuple(states)
    has_aux = any(a is not None for a in aux)

    # the entries are read inline: JSON integers, none negative, and each one
    # inside its list (an IndexError past the end); at the first other one,
    # the field-by-field check reads them again and names what is wrong
    try:
        for omega, i, j, target in map(_CLOSEST_FIELDS, doc["closest"]):
            if not (type(omega) is type(i) is type(j) is type(target) is int
                    and omega >= 0 and i >= 0 and j >= 0):
                raise TypeError
            columns[i][j][omega] = target
    except (KeyError, TypeError, IndexError):
        for e, entry in enumerate(doc["closest"]):
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
            raise InputError(f"$.beliefs[{e}].dist: expected an object")
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

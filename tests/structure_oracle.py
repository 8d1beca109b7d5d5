"""Reference oracle for the structure layer.

The library validates structures per belief cell and sums expected
utilities on integers.  This module keeps the plain per-state forms, with
dict equality for PR2, one ``Fraction`` product per belief entry and the
``joint_prob`` support test, so the tests can compare the fast code against
them.  Nothing here is fast; it is meant to be obviously right.  It sums
probabilities as given, so the tests hand it measures whose floats are
already converted to their exact values, as the library converts them.

The builders read one layout per game (profiles, strategy positions,
punished states), share one punishment search per game and format each
measure object's JSON once;
the constructions below look every moved, punished and believed profile
up by hashing its strategy tuple, rerun every punishment search (with the
unmemoised ``minimize_payoff`` below) and format every belief entry anew.
The library's parser gives entries with equal ``dist`` objects one shared
measure, checks the common closest and belief entry inline and formats an
index's JSON path only when something is wrong; ``structure_from_json``
below parses every entry into a dict of its own, checks every field of
every entry in order (present, a JSON integer, in range) and formats every
path.  It reads JSON text with a ``json.loads`` call of its own under the
library's grammar (decimals as exact ``Decimal`` literals, NaN and the
infinities refused, labels and annotations as floats), and shares only the
error class ``InputError`` with the library's reader.

``MixedProfile`` forms the others' mixture once per player on integers and
reads payoffs from the game's table; ``others_support_profiles``,
``expected_payoff`` and ``joint_prob`` below are the former methods, one
``Fraction`` product per combo and one payoff-rule call per term, taking
the profile as their first argument.  ``MixedProfile.two_point`` builds its
integer entries directly, and ``_kernels`` reads each player's entries
once; ``two_point`` and ``kernels`` below are the former route,
the two-point dicts through ``MixedProfile.__init__`` and the others' joint
support rebuilt for every player from the distributions.  The coherence
checker compares integer payoffs with precomputed floors; ``coherence``
below compares each support strategy's ``expected_payoff`` with a fresh
``minimize_payoff`` for every deviation.
"""

import itertools
import json
from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from translucent.counterfactual import (MISSING, NORM_TOL,
                                        CounterfactualStructure,
                                        IncoherentProfileError,
                                        StateUtilityReport, Violation)
from translucent.equilibrium import CoherenceReport, TeStructureReport
from translucent.exact import InputError, to_exact
from translucent.games import (BudgetExceededError, MixedProfile,
                               NormalFormGame, SocialDilemma, Strategy,
                               as_game)


def others_support_profiles(self, i: int):
    """Pairs (s_minus_i, probability) over the others' joint support."""
    others = [j for j in range(self.game.num_players) if j != i]
    supports = [self.support(j) for j in others]
    for combo in itertools.product(*supports):
        p = Fraction(1)
        for j, s in zip(others, combo):
            p *= self.prob(j, s)
        yield combo, p


def expected_payoff(self, i: int, strategy) -> Fraction:
    """E[u_i(strategy, s_-i)] with s_-i drawn from the others' mixture."""
    self.game.strategy_index(i, strategy)  # ValueError unless a strategy of i
    rule = self.game.payoff_rule  # support profiles are valid by construction
    total = Fraction(0)
    for combo, p in others_support_profiles(self, i):
        profile = list(combo)
        profile.insert(i, strategy)
        total += p * to_exact(rule(tuple(profile), i))
    return total


def joint_prob(self, profile) -> Fraction:
    """The profile's probability; a profile whose length is not the player
    count is off the game and has probability 0."""
    if len(profile) != self.game.num_players:
        return Fraction(0)
    p = Fraction(1)
    for i, s in enumerate(profile):
        p *= self.prob(i, s)
    return p


def two_point(dilemma: SocialDilemma, betas: Sequence) -> MixedProfile:
    """Each player cooperates with probability beta_i, else defects: every
    player's cooperate and defect strategies are looked up in the game
    first (player order, cooperate first), then the two-point dicts go
    through ``MixedProfile.__init__``."""
    for i in range(dilemma.num_players):
        for s in (dilemma.cooperate_strategy(i), dilemma.defect_strategy(i)):
            dilemma.game.strategy_index(i, s)  # ValueError unless a strategy of i
    if len(betas) != dilemma.num_players:
        raise ValueError("one beta per player required")
    dists = []
    for i, beta in enumerate(betas):
        beta = to_exact(beta)
        if not 0 <= beta <= 1:
            raise ValueError(f"beta of player {i} must lie in [0, 1]")
        dists.append({dilemma.cooperate_strategy(i): beta,
                      dilemma.defect_strategy(i): 1 - beta})
    return MixedProfile(dilemma.game, dists)


def kernels(self) -> list:
    """Per player i, the others' joint support in product order as
    ``(combos, offsets, weights, den)``."""
    game, kernels = self.game, []
    for i in range(game.num_players):
        rows, den = [((), 0, 1)], 1  # (combo, offset, weight)
        for j, dist in enumerate(self.distributions):
            if j == i:
                continue
            d_j = lcm(*(p.denominator for p in dist.values()))
            stride, index = game._strides[j], game._index[j]
            entries = sorted((index[s] * stride, s, p.numerator * d_j // p.denominator)
                             for s, p in dist.items())  # by position
            rows = [(c + (s,), o + x, w * v)
                    for c, o, w in rows for x, s, v in entries]
            den *= d_j
        kernels.append((*zip(*rows), den))
    return kernels


def validate_structure(m) -> list:
    """CS1, CS2, PR1, PR2 and NORM, state by state."""
    violations = []
    n_states = m.num_states

    for omega in range(n_states):
        profile = m.states[omega]
        for i in range(m.num_players):
            own = profile[i]
            for j, s in enumerate(m.strategy_sets[i]):
                target = m.closest_columns[(i, j)][omega]
                if not 0 <= target < n_states:
                    violations.append(Violation(
                        "CS1", omega, i, s,
                        "missing or out-of-range closest-state entry"))
                    continue
                if m.states[target][i] != s:
                    violations.append(Violation(
                        "CS1", omega, i, s,
                        f"closest state {target} plays {m.states[target][i]!r}"))
                if s == own and target != omega:
                    violations.append(Violation(
                        "CS2", omega, i, s,
                        f"keeping the current strategy moved the state to {target}"))

    for i in range(m.num_players):
        for omega in range(n_states):
            dist = m.beliefs[i][omega]
            total = sum(dist.values(), Fraction(0))
            if abs(total - 1) > NORM_TOL:
                violations.append(Violation(
                    "NORM", omega, i, detail=f"belief mass sums to {total}"))
            own = m.states[omega][i]
            for target, p in dist.items():
                if p <= 0:
                    continue
                if m.states[target][i] != own:
                    violations.append(Violation(
                        "PR1", omega, i,
                        detail=f"positive mass on state {target} where the "
                               f"player uses {m.states[target][i]!r}"))
                if m.beliefs[i][target] != dist:
                    violations.append(Violation(
                        "PR2", omega, i,
                        detail=f"positive mass on state {target} with "
                               "different beliefs"))
    return violations


def derived_beliefs(m, i: int, omega: int, s_dev) -> dict:
    j = m.strategy_index(i, s_dev)
    column = m.closest_columns[(i, j)]
    out: dict = {}
    for source, p in m.belief(i, omega).items():
        target = column[source]
        if target == MISSING:
            raise ValueError(
                f"closest-state entry missing for state {source}, player {i}, "
                f"strategy {s_dev!r}")
        out[target] = out.get(target, Fraction(0)) + p
    return out


def _require_game(m):
    if m.game is None:
        raise ValueError("structure has no attached game; utilities need one")
    return m.game


def eu_at_state(m, i: int, omega: int) -> Fraction:
    game = _require_game(m)
    own = m.states[omega][i]
    total = Fraction(0)
    for target, p in m.belief(i, omega).items():
        profile = list(m.states[target])
        profile[i] = own
        total += p * game.payoff(tuple(profile), i)
    return total


def eu_at_state_switch(m, i: int, omega: int, s_dev) -> Fraction:
    game = _require_game(m)
    total = Fraction(0)
    for target, p in derived_beliefs(m, i, omega, s_dev).items():
        profile = list(m.states[target])
        profile[i] = s_dev
        total += p * game.payoff(tuple(profile), i)
    return total


def is_rational_at(m, i: int, omega: int) -> StateUtilityReport:
    eu = eu_at_state(m, i, omega)
    switches = {}
    for s in m.strategy_sets[i]:
        switches[s] = eu_at_state_switch(m, i, omega, s)
    rational = all(eu >= v for v in switches.values())
    return StateUtilityReport(eu, switches, rational)


def te_in_structure(m, sigma, omega_subset=None) -> TeStructureReport:
    """TE1-TE4 state by state, with per-state rationality from this module;
    a given state off the game violates TE1 and is not judged further."""
    if omega_subset is None:
        omega_subset = [k for k in range(m.num_states)
                        if joint_prob(sigma, m.states[k]) > 0]
    omega_set = set(omega_subset)
    te1, te2, te3, te4 = [], [], [], []
    n = m.num_players

    for omega in omega_subset:
        if joint_prob(sigma, m.states[omega]) == 0:
            te1.append((omega,))
            profile, game = m.states[omega], _require_game(m)
            if len(profile) != game.num_players or any(
                    s not in strats for s, strats in zip(profile, game.strategy_sets)):
                continue  # off the game: TE1 alone
        for i in range(n):
            dist = m.belief(i, omega)
            if any(t not in omega_set for t, p in dist.items() if p > 0):
                te2.append((omega, i))
            marginal: dict = {}
            for t, p in dist.items():
                others = tuple(s for j, s in enumerate(m.states[t]) if j != i)
                marginal[others] = marginal.get(others, Fraction(0)) + p
            expected: dict = {}
            for combo, p in others_support_profiles(sigma, i):
                if p > 0:
                    expected[combo] = expected.get(combo, Fraction(0)) + p
            marginal = {k: v for k, v in marginal.items() if v > 0}
            if marginal != expected:
                te3.append((omega, i))
            if not is_rational_at(m, i, omega).rational:
                te4.append((omega, i))

    holds = not (te1 or te2 or te3 or te4)
    return TeStructureReport(holds, tuple(te1), tuple(te2), tuple(te3), tuple(te4))


# ---------------------------------------------------------------------------
# constructions, serialisation and the punishment search, by profile lookup


def minimize_payoff(game: NormalFormGame, i: int, strategy: Strategy,
                    budget: int = 10_000_000) -> tuple:
    """min over the others' pure profiles of u_i(strategy, s_-i), as
    ``(value, minimiser)``.  The minimiser lists the others' strategies in
    player order and is the first one in strategy-set (lexicographic) order.

    Symmetric games are reduced to multisets of the others' strategies:
    there the first minimiser is sorted, so it is the first multiset found.
    Otherwise the full product is enumerated against the budget.
    """
    others = [j for j in range(game.num_players) if j != i]
    if game.symmetric:
        from math import comb

        pool = game.strategy_sets[others[0]] if others else ()
        required = comb(len(pool) + len(others) - 1, len(others))
        if required > budget:
            raise BudgetExceededError(required, budget, "opponent multisets")
        combos = itertools.combinations_with_replacement(pool, len(others))
    else:
        required = 1
        for j in others:
            required *= len(game.strategy_sets[j])
        if required > budget:
            raise BudgetExceededError(required, budget, "opponent profiles")
        combos = itertools.product(*(game.strategy_sets[j] for j in others))
    best, argmin = None, None
    for combo in combos:
        profile = list(combo)
        profile.insert(i, strategy)
        u = game.payoff(tuple(profile), i)
        if best is None or u < best:
            best, argmin = u, combo
    return best, argmin


def coherence(game: NormalFormGame, sigma: MixedProfile) -> CoherenceReport:
    """The first failure in (player, support position, deviation) order:
    a support strategy whose expected payoff falls below a deviation's
    punishment floor."""
    for i, strats in enumerate(game.strategy_sets):
        for s in strats:
            if sigma.prob(i, s) > 0:
                u = expected_payoff(sigma, i, s)
                for s_dev in strats:
                    if u < minimize_payoff(game, i, s_dev)[0]:
                        return CoherenceReport(False, (i, s, s_dev))
    return CoherenceReport(True)


def _full_state_space(game: NormalFormGame, budget: int) -> tuple:
    count = game.profile_count()
    if count > budget:
        raise BudgetExceededError(count, budget, "states")
    return tuple(game.profiles())


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
        payoffs = {s: expected_payoff(sigma, i, s) for s in game.strategy_sets[i]}
        best = max(payoffs.values())
        for s in sigma.support(i):
            if payoffs[s] != best:
                better = next(t for t, v in payoffs.items() if v == best)
                raise ValueError(
                    f"not a Nash equilibrium: player {i} gains by switching "
                    f"from {s!r} to {better!r}")

    states = _full_state_space(game, budget)
    index = {p: k for k, p in enumerate(states)}

    columns = {}
    for i in range(game.num_players):
        for j, s in enumerate(game.strategy_sets[i]):
            col = []
            for profile in states:
                moved = list(profile)
                moved[i] = s
                col.append(index[tuple(moved)])
            columns[(i, j)] = tuple(col)

    others_mixtures = []
    for i in range(game.num_players):
        pairs = list(others_support_profiles(sigma, i))
        others_mixtures.append(pairs)

    beliefs = []
    for i in range(game.num_players):
        per_state = []
        cache: dict = {}
        for profile in states:
            own = profile[i]
            if own not in cache:
                dist = {}
                for combo, p in others_mixtures[i]:
                    joint = list(combo)
                    joint.insert(i, own)
                    dist[index[tuple(joint)]] = p
                cache[own] = dist
            per_state.append(cache[own])
        beliefs.append(tuple(per_state))

    return CounterfactualStructure(game.strategy_sets, states, columns,
                                   tuple(beliefs), aux=None, game=game)


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
    states = _full_state_space(game, budget)
    index = {p: k for k, p in enumerate(states)}
    n = game.num_players

    punish = {(i, s): minimize_payoff(game, i, s, budget)
              for i in range(n) for s in game.strategy_sets[i]}

    if strict:
        for i in range(n):
            for s in sigma.support(i):
                u = expected_payoff(sigma, i, s)
                for s_dev in game.strategy_sets[i]:
                    if u < punish[(i, s_dev)][0]:
                        raise IncoherentProfileError(i, s, s_dev)

    columns = {}
    for i in range(n):
        support = set(sigma.support(i))
        for j, s_dev in enumerate(game.strategy_sets[i]):
            col = []
            for k, profile in enumerate(states):
                own = profile[i]
                if own == s_dev:
                    col.append(k)
                elif own in support:
                    joint = list(punish[(i, s_dev)][1])
                    joint.insert(i, s_dev)
                    col.append(index[tuple(joint)])
                else:
                    moved = list(profile)
                    moved[i] = s_dev
                    col.append(index[tuple(moved)])
            columns[(i, j)] = tuple(col)

    beliefs = []
    for i in range(n):
        support = set(sigma.support(i))
        pairs = list(others_support_profiles(sigma, i))
        cache: dict = {}
        per_state = []
        for k, profile in enumerate(states):
            own = profile[i]
            if own in support:
                if own not in cache:
                    dist = {}
                    for combo, p in pairs:
                        joint = list(combo)
                        joint.insert(i, own)
                        dist[index[tuple(joint)]] = p
                    cache[own] = dist
                per_state.append(cache[own])
            else:
                per_state.append({k: Fraction(1)})
        beliefs.append(tuple(per_state))

    return CounterfactualStructure(game.strategy_sets, states, columns,
                                   tuple(beliefs), aux=None, game=game)


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

    bit_space = tuple(itertools.product((0, 1), repeat=n))
    states = []
    aux = []
    index = {}
    for profile in game.profiles():
        for bits in bit_space:
            index[(profile, bits)] = len(states)
            states.append(profile)
            aux.append(bits)
    states = tuple(states)
    aux = tuple(aux)

    columns = {}
    for i in range(n):
        defect = d.defect_strategy(i)
        for j, s_dev in enumerate(game.strategy_sets[i]):
            col = []
            for k in range(len(states)):
                profile, bits = states[k], aux[k]
                if profile[i] == s_dev:
                    col.append(k)
                    continue
                moved = list(profile)
                moved[i] = s_dev
                for other in range(n):
                    if other != i and bits[other]:
                        moved[other] = d.defect_strategy(other)
                col.append(index[(tuple(moved), bits)])
            columns[(i, j)] = tuple(col)

    beliefs = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        cache: dict = {}
        per_state = []
        for k in range(len(states)):
            profile, bits = states[k], aux[k]
            key = (profile[i], bits[i])
            if key not in cache:
                dist = {}
                strategy_choices = []
                for j in others:
                    strategy_choices.append((
                        (d.cooperate_strategy(j), betas[j]),
                        (d.defect_strategy(j), 1 - betas[j]),
                    ))
                for picks in itertools.product(*strategy_choices):
                    p_strat = Fraction(1)
                    chosen = {}
                    for j, (s, p) in zip(others, picks):
                        p_strat *= p
                        chosen[j] = s
                    if p_strat == 0:
                        continue
                    for other_bits in itertools.product((0, 1), repeat=len(others)):
                        p = p_strat
                        for bit in other_bits:
                            p *= alphas[i] if bit else 1 - alphas[i]
                        if p == 0:
                            continue
                        target_profile = list(profile)
                        target_bits = list(bits)
                        for j, s in chosen.items():
                            target_profile[j] = s
                        for j, bit in zip(others, other_bits):
                            target_bits[j] = bit
                        target_profile[i] = profile[i]
                        target_bits[i] = bits[i]
                        target = index[(tuple(target_profile), tuple(target_bits))]
                        dist[target] = dist.get(target, Fraction(0)) + p
                cache[key] = dist
            per_state.append(cache[key])
        beliefs.append(tuple(per_state))

    return CounterfactualStructure(game.strategy_sets, states, columns,
                                   tuple(beliefs), aux=aux, game=game)


def structure_to_json(m: CounterfactualStructure, budget: int = 200_000) -> dict:
    """Serialize a structure.

    Strategy labels become display strings, profiles become index lists, and
    probabilities are written as exact fraction strings.  Closest-state
    entries forced by CS2 (switching to the current strategy) are omitted.
    """
    entries = m.num_states * sum(len(s) for s in m.strategy_sets)
    if entries > budget:
        raise BudgetExceededError(entries, budget, "closest-state entries")

    # a repeated label's first position
    strategy_index = [{s: j for j, s in reversed(list(enumerate(strats)))}
                      for strats in m.strategy_sets]
    states_doc = []
    for k in range(m.num_states):
        profile = [strategy_index[i][s] for i, s in enumerate(m.states[k])]
        entry = {"profile": profile}
        extra = m.aux[k] if m.aux is not None else None
        entry["aux"] = list(extra) if extra is not None else None
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
    for i in range(m.num_players):
        for omega in range(m.num_states):
            dist = {str(t): str(p) for t, p in sorted(m.beliefs[i][omega].items())}
            beliefs_doc.append({"player": i, "state": omega, "dist": dist})

    return {
        "players": m.num_players,
        "strategies": [[str(s) for s in strats] for strats in m.strategy_sets],
        "states": states_doc,
        "closest": closest_doc,
        "beliefs": beliefs_doc,
    }


# ---------------------------------------------------------------------------
# parsing, one measure dict per belief entry


def _range_error(k: int, size: int, path: str, what: str) -> InputError:
    return InputError(f"{path}: {what} index {k} is out of range 0..{size - 1}")


def _field(entry, key: str, path: str):
    if not isinstance(entry, dict):
        raise InputError(f"{path}: expected an object")
    if key not in entry:
        raise InputError(f"{path}.{key}: required key is missing")
    return entry[key]


def _as_read(value):
    """``value`` with every Decimal, in lists and objects too, as a float:
    what plain ``json.loads`` reads for labels, annotations and messages."""
    if isinstance(value, Decimal):
        return float(value)
    if isinstance(value, list):
        return [_as_read(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_read(v) for k, v in value.items()}
    return value


def _loads(text: str):
    """JSON text with decimals as exact Decimals and no NaN or Infinity."""
    def refuse(name):
        raise InputError(f"$: the JSON constant {name} is not allowed; "
                         "every number must be finite")
    try:
        return json.loads(text, parse_float=Decimal, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise InputError(f"$: parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc


def _index(value, size: Optional[int], path: str, what: str) -> int:
    """A JSON integer (no bool, decimal or string) below ``size``, if given."""
    if type(value) is not int:
        raise InputError(f"{path}: expected an integer index, got {_as_read(value)!r}")
    if size is not None and not 0 <= value < size:
        raise _range_error(value, size, path, what)
    return value


def _parse_dist(raw: dict, n_states: int, path: str) -> dict:
    dist = {}
    for t, p in raw.items():
        where = f"{path}.dist[{json.dumps(t)}]"
        try:
            k = int(t)
        except (TypeError, ValueError):
            raise InputError(f"{where}: expected an integer index, got {t!r}") from None
        if not 0 <= k < n_states:
            raise _range_error(k, n_states, where, "state")
        if isinstance(p, bool):  # Fraction(True) is 1
            raise InputError(f"{where}: expected a finite number, got {p!r}")
        try:
            dist[k] = Fraction(p)
        except (OverflowError, TypeError, ValueError, ZeroDivisionError):
            raise InputError(f"{where}: expected a finite number, "
                             f"got {_as_read(p)!r}") from None
    return dist


def structure_from_json(doc, game: Optional[NormalFormGame] = None) -> CounterfactualStructure:
    """Parse a structure document (dict or JSON text).

    Missing closest-state entries other than the CS2-forced ones are kept as
    holes that ``validate_structure`` reports, and so are closest-state
    targets out of range (CS1); the validator is the linter for this format.
    A document needs a player, a strategy for each player and a state.
    Every index must be a JSON integer, every other player, state, strategy
    or belief-target index must lie in range, and every key must be there,
    or an InputError names its JSON path.
    """
    if isinstance(doc, str):
        doc = _loads(doc)
    if not isinstance(doc, dict):
        raise InputError(f"$: expected an object, got {type(_as_read(doc)).__name__}")
    for key in ("players", "strategies", "states", "closest", "beliefs"):
        if key not in doc:
            raise InputError(f"$: structure document is missing {key!r}")
        if key != "players" and not isinstance(doc[key], (list, tuple)):
            raise InputError(f"$.{key}: expected a list")
    n = doc["players"]
    if type(n) is not int:
        raise InputError(f"$.players: expected an integer, got {_as_read(n)!r}")
    if n < 1:
        raise InputError(f"$.players: a structure needs at least 1 player, got {n}")
    strategy_sets = []
    for i, strats in enumerate(doc["strategies"]):
        if not isinstance(strats, (list, tuple)):
            raise InputError(f"$.strategies[{i}]: expected a list of strategy labels")
        if not strats:
            raise InputError(f"$.strategies[{i}]: player {i} has no strategies")
        strategy_sets.append(tuple(_as_read(s) for s in strats))
    strategy_sets = tuple(strategy_sets)
    if len(strategy_sets) != n:
        raise InputError(f"$.strategies: one strategy list per player required, "
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
                raise InputError(f"$.strategies[{i}][{j}]: strategy label "
                                 f"{s!r} is not a string or a number") from None
        first.append([index[s] for s in strats])

    n_states = len(doc["states"])
    if not n_states:
        raise InputError("$.states: a structure needs at least one state")
    states = []
    aux = []
    columns = {(i, j): [MISSING] * n_states
               for i in range(n) for j in range(sizes[i])}
    for k, entry in enumerate(doc["states"]):
        path = f"$.states[{k}]"
        raw = _field(entry, "profile", path)
        if not isinstance(raw, (list, tuple)):
            raise InputError(f"{path}.profile: expected a list")
        if len(raw) != n:
            raise InputError(f"{path}.profile: expected {n} entries, "
                             f"got {len(raw)}")
        profile = []
        for i, j in enumerate(raw):
            j = _index(j, sizes[i], f"{path}.profile[{i}]", "strategy")
            profile.append(strategy_sets[i][j])
            columns[(i, first[i][j])][k] = k
        states.append(tuple(profile))
        extra = entry.get("aux")
        try:
            aux.append(tuple(map(_as_read, extra)) if extra is not None else None)
        except TypeError:
            raise InputError(f"{path}.aux: expected a list or null") from None
    states = tuple(states)
    has_aux = any(a is not None for a in aux)

    for e, entry in enumerate(doc["closest"]):
        path = f"$.closest[{e}]"
        omega = _index(_field(entry, "state", path), n_states, f"{path}.state", "state")
        i = _index(_field(entry, "player", path), n, f"{path}.player", "player")
        j = _index(_field(entry, "strategy", path), sizes[i], f"{path}.strategy",
                   "strategy")
        columns[(i, j)][omega] = _index(_field(entry, "target", path), None,
                                        f"{path}.target", "state")
    columns = {key: tuple(col) for key, col in columns.items()}

    beliefs = [[{} for _ in states] for _ in range(n)]
    for e, entry in enumerate(doc["beliefs"]):
        path = f"$.beliefs[{e}]"
        i = _index(_field(entry, "player", path), n, f"{path}.player", "player")
        omega = _index(_field(entry, "state", path), n_states, f"{path}.state", "state")
        raw = _field(entry, "dist", path)
        if not isinstance(raw, dict):
            raise InputError(f"{path}.dist: expected an object")
        beliefs[i][omega] = _parse_dist(raw, n_states, path)
    beliefs = tuple(tuple(per_state) for per_state in beliefs)

    return CounterfactualStructure(strategy_sets, states, columns, beliefs,
                                   aux=tuple(aux) if has_aux else None, game=game)

"""Symmetric games by multiset, against the product-path oracles.

A symmetric game's payoff depends only on the player's own strategy and the
multiset of the others' strategies.  The library keeps one exact payoff per
(own position, sorted positions of the others) in a memo on the game, and
reads it through three kernels: the law of the others' multiset under
independent mixed strategies (``games._multiset_law``, read by
``_payoff_at`` and so by coherence), each strategy's floor shared by every
player (``minimize_payoff``), and the dense logit-QRE tensor, built once
for all players.  Each is compared with the product path it replaces:
``structure_oracle``'s joint-support kernel and per-player floor search,
and a tensor of ``float(game.payoff(...))`` per profile.  Coherence is also
compared with ``te_condition`` at player counts the product path could not
reach (pgg up to N = 30, bertrand up to N = 10).
"""

from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from test_payoff_table import mixtures
from translucent.alt_models import _payoff_tables, logit_qre
from translucent.equilibrium import is_coherent, te_condition
from translucent.games import (
    MixedProfile,
    NormalFormGame,
    _multiset_law,
    make_bertrand,
    make_dilemma,
    make_public_goods,
    minimize_payoff,
)


def pgg_rho(draw, n: int) -> F:
    """A marginal return in tenths strictly between 1/n and 1."""
    return F(draw(st.integers(10 // n + 1, 9)), 10)


@st.composite
def symmetric_dilemmas(draw, max_players: int = 5):
    """A fresh dilemma of any of the four kinds, with at most
    ``max_players`` players and at most five strategies each."""
    kind = draw(st.sampled_from(["pd", "td", "pgg", "bertrand"]))
    if kind == "pd":
        params = {"b": draw(st.sampled_from([2, F(10, 3), 5])), "c": draw(
            st.sampled_from([1, F(1, 3)]))}
    elif kind == "td":
        low = draw(st.integers(1, 3))
        params = {"l": low, "h": low + draw(st.integers(1, 4)),
                  "bonus": draw(st.sampled_from([F(1, 2), 2, F(7, 3)]))}
    elif kind == "pgg":
        n = draw(st.integers(2, max_players))
        params = {"n": n, "rho": pgg_rho(draw, n), "grid": draw(st.integers(1, 3))}
    else:
        params = {"n": draw(st.integers(2, max_players)), "l": 2,
                  "h": 2 + draw(st.integers(1, 3))}
    return make_dilemma(kind, params)


# ---------------------------------------------------------------------------
# the law of the others' multiset


@settings(max_examples=150, deadline=None)
@given(symmetric_dilemmas(), st.data())
def test_multiset_law_matches_the_product_kernel(d, data):
    game = d.game
    sigma = data.draw(mixtures(game))
    for i, (combos, _, weights, den) in enumerate(oracle.kernels(sigma)):
        # the joint support, each combo folded into its sorted positions
        want = Counter()
        for combo, w in zip(combos, weights):
            others = [j for j in range(game.num_players) if j != i]
            key = tuple(sorted(game.strategy_index(j, s) for j, s in zip(others, combo)))
            want[key] += F(w, den)
        others = sigma._entries[:i] + sigma._entries[i + 1:]
        multisets, got_weights, got_den = _multiset_law(others)
        assert len(set(multisets)) == len(multisets)
        assert all(list(m) == sorted(m) for m in multisets)
        assert {m: F(w, got_den) for m, w in zip(multisets, got_weights)} == want
        for s in game.strategy_sets[i]:
            assert sigma.expected_payoff(i, s) == oracle.expected_payoff(sigma, i, s)


@settings(max_examples=60, deadline=None)
@given(symmetric_dilemmas(), st.data())
def test_two_point_law_is_the_poisson_binomial(d, data):
    n = d.num_players
    betas = data.draw(st.lists(st.fractions(0, 1, max_denominator=9),
                               min_size=n, max_size=n))
    sigma = MixedProfile.two_point(d, betas)
    c = d.game.strategy_index(0, d.cooperate_strategy(0))
    for i in range(n):
        multisets, weights, den = _multiset_law(sigma._entries[:i] + sigma._entries[i + 1:])
        law = {m.count(c): F(w, den) for m, w in zip(multisets, weights)}
        want = [F(1)]  # P(k of the others cooperate), by convolution
        for b in betas[:i] + betas[i + 1:]:
            want = [(want[k] if k < len(want) else 0) * (1 - b)
                    + (want[k - 1] * b if k else 0) for k in range(len(want) + 1)]
        assert law == {k: p for k, p in enumerate(want) if p}


@pytest.mark.parametrize("n", [3, 4, 7])
def test_symmetric_games_read_the_law(n):
    # the law dotted with the multiset memo: the per-player table stays
    # empty; a non-symmetric copy of the game reads the joint support
    d = make_public_goods(n, F(2, 5), grid=1)
    betas = [F(k % 7 + 1, 8) for k in range(n)]
    for symmetric in (True, False):
        game = NormalFormGame(n, d.game.strategy_sets, d.game.payoff_rule,
                              symmetric=symmetric)
        sigma = MixedProfile.two_point(type(d)(game, "pgg", d.params, d.nash_profile,
                                               d.welfare_profile), betas)
        for i in range(n):
            for s in game.strategy_sets[i]:
                assert sigma.expected_payoff(i, s) == oracle.expected_payoff(sigma, i, s)
        assert (bool(game._multisets), any(game._table)) == (symmetric, not symmetric)


# ---------------------------------------------------------------------------
# shared floors


def counting(game: NormalFormGame):
    """The same game with a rule that counts its calls in ``calls``."""
    calls = []

    def rule(profile, i):
        calls.append(i)
        return game.payoff_rule(profile, i)

    return NormalFormGame(game.num_players, game.strategy_sets, rule,
                          symmetric=game.symmetric), calls


@settings(max_examples=60, deadline=None)
@given(symmetric_dilemmas())
def test_shared_floors_equal_the_per_player_search(d):
    game, calls = counting(d.game)
    n, own = game.num_players, len(game.strategy_sets[0])
    for i, strats in enumerate(game.strategy_sets):
        for s in strats:
            assert minimize_payoff(game, i, s) == oracle.minimize_payoff(d.game, i, s)
    # one search per strategy, each multiset once (and the minimiser again)
    assert len(game._minima) == own
    assert len(calls) == own * (comb(own + n - 2, n - 1) + 1)


# ---------------------------------------------------------------------------
# coherence against the two-point condition, at large N


@lru_cache(maxsize=None)
def public_goods(n: int, rho: F, grid: int):
    return make_public_goods(n, rho, grid)


@lru_cache(maxsize=None)
def bertrand(n: int, h: int):
    return make_bertrand(n, 2, h)


BETAS = st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=10))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 30), st.integers(1, 2), st.data())
def test_te_condition_is_coherence_on_pgg_up_to_30_players(n, grid, data):
    d = public_goods(n, pgg_rho(data.draw, n), grid)
    betas = data.draw(st.lists(BETAS, min_size=n, max_size=n))
    coherent = is_coherent(d, MixedProfile.two_point(d, betas)).coherent
    assert coherent == te_condition("pgg", d.params, betas)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 10), st.integers(3, 6), st.data())
def test_te_condition_is_coherence_on_bertrand_up_to_10_players(n, h, data):
    d = bertrand(n, h)
    betas = data.draw(st.lists(BETAS, min_size=n, max_size=n))
    coherent = is_coherent(d, MixedProfile.two_point(d, betas)).coherent
    assert coherent == te_condition("bertrand", d.params, betas)


# ---------------------------------------------------------------------------
# the logit-QRE tensor


def per_profile_tables(game) -> list:
    """Per player, ``float(game.payoff(...))`` at every (own strategy,
    others' profile in product order)."""
    n = game.num_players
    tables = []
    for i in range(n):
        others = [game.strategy_sets[j] for j in range(n) if j != i]
        tables.append(np.array([
            [float(game.payoff((*combo[:i], s, *combo[i:]), i)) for combo in product(*others)]
            for s in game.strategy_sets[i]]))
    return tables


@pytest.mark.parametrize("kind,params", [
    ("pd", {"b": F(10, 3), "c": F(1, 3)}),
    ("td", {"l": 2, "h": 9, "bonus": F(7, 3)}),
    ("pgg", {"n": 3, "rho": F(2, 3), "grid": 3}),
    ("pgg", {"n": 4, "rho": F(3, 10), "grid": 4}),
    ("bertrand", {"n": 3, "l": 2, "h": 7}),
    ("bertrand", {"n": 4, "l": 2, "h": 12}),
])
def test_symmetric_tensor_equals_the_per_profile_tensor(kind, params):
    game = make_dilemma(kind, params).game
    tables = _payoff_tables(game)
    assert all(table is tables[0] for table in tables)  # built once
    for table, want in zip(tables, per_profile_tables(game)):
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert np.array_equal(table, want)


def test_qre_calls_the_rule_once_per_multiset():
    # 11 own prices x C(13, 3) multisets of the 3 others, against
    # 4 x 11^4 = 58,564 payoffs per profile and player
    d = make_bertrand(4, 2, 12)
    game, calls = counting(d.game)
    got = logit_qre(game, 1.25)
    assert len(calls) <= 3146
    product_path = NormalFormGame(4, d.game.strategy_sets, d.game.payoff_rule)
    want = logit_qre(product_path, 1.25)
    assert (got.distributions, got.residual, got.iterations) == (
        want.distributions, want.residual, want.iterations)


def test_a_symmetric_game_shares_one_strategy_set():
    rule = lambda profile, i: F(0)  # noqa: E731
    with pytest.raises(ValueError, match="one strategy set for every player"):
        NormalFormGame(2, (("C", "D"), ("D", "C")), rule, symmetric=True)
    NormalFormGame(2, (("C", "D"), ("C", "D")), rule, symmetric=True)

"""Comparison models: social-preference utilities and logit quantal response.

These reuse the games module's material payoffs as the single source of
truth; the two utility transforms rescale them per player, and the quantal
response solver finds a logit fixed point by damped iteration.  numpy is
imported by the solver itself, so importing the package does not load it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isinf, prod
from typing import NamedTuple

from .exact import BudgetExceededError, Numeric, _Frozen, to_exact
from .games import Profile, as_game


class FehrSchmidtParams(_Frozen):
    """Per-player envy (a_fs) and guilt (b_fs) weights, 0 <= b_fs <= a_fs."""

    _shown = _compared = ("a_fs", "b_fs")

    def __init__(self, a_fs: tuple, b_fs: tuple):
        a = tuple(to_exact(x) for x in a_fs)
        b = tuple(to_exact(x) for x in b_fs)
        if len(a) != len(b):
            raise ValueError("need one (a_fs, b_fs) pair per player")
        for i, (ai, bi) in enumerate(zip(a, b)):
            if not 0 <= bi <= ai:
                raise ValueError(
                    f"player {i}: weights must satisfy 0 <= b_fs <= a_fs, "
                    f"got a_fs={ai}, b_fs={bi}")
        self.__dict__.update(a_fs=a, b_fs=b)

    @classmethod
    def uniform(cls, n: int, a_fs: Numeric, b_fs: Numeric) -> "FehrSchmidtParams":
        return cls((a_fs,) * n, (b_fs,) * n)


class CharnessRabinParams(_Frozen):
    """Per-player social weight (a_cr) and maximin share (d_cr), both in [0,1]."""

    _shown = _compared = ("a_cr", "d_cr")

    def __init__(self, a_cr: tuple, d_cr: tuple):
        a = tuple(to_exact(x) for x in a_cr)
        d = tuple(to_exact(x) for x in d_cr)
        if len(a) != len(d):
            raise ValueError("need one (a_cr, d_cr) pair per player")
        for i, (ai, di) in enumerate(zip(a, d)):
            if not (0 <= ai <= 1 and 0 <= di <= 1):
                raise ValueError(f"player {i}: weights must lie in [0, 1]")
        self.__dict__.update(a_cr=a, d_cr=d)

    @classmethod
    def uniform(cls, n: int, a_cr: Numeric, d_cr: Numeric) -> "CharnessRabinParams":
        return cls((a_cr,) * n, (d_cr,) * n)


def fehr_schmidt_utility(game, profile: Profile, i: int,
                         p: FehrSchmidtParams) -> Fraction:
    """Material payoff minus envy and guilt penalties:
    u_i - a_i/(N-1) * sum_j max(u_j - u_i, 0) - b_i/(N-1) * sum_j max(u_i - u_j, 0).
    """
    game = as_game(game)
    n = game.num_players
    if len(p.a_fs) != n:
        raise ValueError("parameter vectors do not match the player count")
    payoffs = game.payoffs(profile)
    mine = payoffs[i]
    envy = sum((pj - mine for pj in payoffs if pj > mine), Fraction(0))
    guilt = sum((mine - pj for pj in payoffs if pj < mine), Fraction(0))
    return mine - p.a_fs[i] * envy / (n - 1) - p.b_fs[i] * guilt / (n - 1)


def charness_rabin_utility(game, profile: Profile, i: int,
                           p: CharnessRabinParams) -> Fraction:
    """(1 - a_i) u_i + a_i * (d_i * min_j u_j + (1 - d_i) * sum_j u_j)."""
    game = as_game(game)
    if len(p.a_cr) != game.num_players:
        raise ValueError("parameter vectors do not match the player count")
    payoffs = game.payoffs(profile)
    social = p.d_cr[i] * min(payoffs) + (1 - p.d_cr[i]) * sum(payoffs)
    return (1 - p.a_cr[i]) * payoffs[i] + p.a_cr[i] * social


def fs_pgg_full_contribution_condition(b_fs_i: Numeric, rho: Numeric) -> bool:
    """Whether a guilt weight sustains full contribution in the public-goods
    game: b_fs >= (1 - rho) / rho.  Below the threshold the player
    contributes nothing in every equilibrium."""
    rho = to_exact(rho)
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return to_exact(b_fs_i) >= (1 - rho) / rho


# ---------------------------------------------------------------------------
# logit quantal response


class QreResult(NamedTuple):
    """A logit fixed point (or the best iterate when not converged)."""

    lam: float
    distributions: tuple          # per player: dict strategy -> float
    residual: float
    iterations: int
    converged: bool

    def prob(self, i: int, strategy) -> float:
        return self.distributions[i].get(strategy, 0.0)


def _logit_response(payoff_ops, sigmas, lam):
    """Best-response mixing: softmax of lam * EU against the others.  Where
    lam * EU would overflow, the best EU is subtracted before scaling, which
    leaves the softmax unchanged."""
    import numpy as np

    response = []
    for i, op in enumerate(payoff_ops):
        eu = op(sigmas)
        z = lam * (eu - eu.max()) if isinf(lam * float(np.abs(eu).max())) else lam * eu
        z -= z.max()
        w = np.exp(z)
        response.append(w / w.sum())
    return response


def _payoff_tables(game) -> list:
    """Per player, the dense payoff table as floats: own strategies x the
    others' profiles in product order, C-contiguous; each entry is the float
    of the exact payoff, as ``float(game.payoff(...))``.  A symmetric game's
    table is the same for every player and is built once, from one exact
    payoff per (own strategy, others' multiset) in the game's memo; any
    other game's come from its integer table, which callers budget first."""
    import numpy as np

    n, sizes = game.num_players, [len(s) for s in game.strategy_sets]
    if game.symmetric:
        columns = [tuple(sorted(c)) for c in itertools.product(range(sizes[0]), repeat=n - 1)]
        multisets = {m: k for k, m in enumerate(dict.fromkeys(columns))}
        values, scale = game._multiset_payoffs(
            [(a, m) for a in range(sizes[0]) for m in multisets])
        distinct = np.array([v / scale for v in values]).reshape(sizes[0], len(multisets))
        return [np.ascontiguousarray(distinct[:, [multisets[m] for m in columns]])] * n
    # the table's profile index is row-major in the players' positions, so
    # player i's axis moved first, then flattened, is the others' product order
    tables = []
    for i, row in enumerate(game._rows()):  # filled first, so each scale is final
        dense = np.array([v / game._scales[i] for v in row]).reshape(sizes)
        tables.append(np.ascontiguousarray(np.moveaxis(dense, i, 0).reshape(sizes[i], -1)))
    return tables


def logit_qre(game, lam: Numeric, *, damping: float = 0.5, tol: float = 1e-10,
              max_iter: int = 20_000, budget: int = 4_000_000) -> QreResult:
    """Damped fixed-point iteration for the logit quantal response, starting
    from uniform mixing.

    The residual is the sup-norm gap between the profile and its logit
    response; non-convergence within ``max_iter`` is reported, never hidden.
    """
    import numpy as np

    game = as_game(game)
    lam = float(lam)
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if not 0 < damping <= 1:
        raise ValueError("damping must lie in (0, 1]")
    n = game.num_players
    sizes = [len(s) for s in game.strategy_sets]
    total = prod(sizes)
    if total > budget:
        raise BudgetExceededError(total, budget, "profile evaluations")

    # A symmetric game's players share one table and start uniform, so every
    # iterate gives them bitwise-equal vectors: player 0's is iterated alone
    # and, copied, stands for every player's.
    live, copies = (1, n) if game.symmetric else (n, 1)

    # Dense payoff tensor per player, flattened over the others' profiles.
    payoff_ops = []
    for i, table in enumerate(_payoff_tables(game)[:live]):
        others = [j for j in range(n) if j != i]

        def op(sigmas, others=others, table=table):
            weights = np.ones(1)
            for j in others:  # np.kron's products, without its overhead
                weights = np.outer(weights, sigmas[j]).ravel()
            return table @ weights

        payoff_ops.append(op)

    sigmas = [np.full(s, 1.0 / s) for s in sizes[:live]]
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        response = _logit_response(payoff_ops, sigmas * copies, lam)
        residual = max(float(np.max(np.abs(r - s)))
                       for r, s in zip(response, sigmas))
        if residual <= tol:
            sigmas = response
            break
        sigmas = [(1 - damping) * s + damping * r
                  for s, r in zip(sigmas, response)]

    converged = residual <= tol
    dists = tuple(
        {s: float(p) for s, p in zip(strategies, sigma)}
        for strategies, sigma in zip(game.strategy_sets, sigmas * copies)
    )
    return QreResult(lam, dists, residual, iterations, converged)

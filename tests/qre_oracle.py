"""Reference oracle for the logit QRE solver: the per-player loop.

``alt_models.logit_qre`` iterates one vector in a symmetric game, since its
players share one payoff table and start uniform.  This module keeps the
loop it replaced, which iterates every player's vector against the others',
on the library's own payoff tables and logit response, so the two must agree
bit for bit.
"""

from math import prod

import numpy as np

from translucent.alt_models import QreResult, _logit_response, _payoff_tables
from translucent.games import BudgetExceededError, as_game


def logit_qre_per_player(game, lam, *, damping: float = 0.5, tol: float = 1e-10,
                         max_iter: int = 20_000,
                         budget: int = 4_000_000) -> QreResult:
    game = as_game(game)
    lam = float(lam)
    n = game.num_players
    sizes = [len(s) for s in game.strategy_sets]
    total = prod(sizes)
    if total > budget:
        raise BudgetExceededError(total, budget, "profile evaluations")

    payoff_ops = []
    for i, table in enumerate(_payoff_tables(game)):
        others = [j for j in range(n) if j != i]

        def op(sigmas, others=others, table=table):
            weights = np.ones(1)
            for j in others:
                weights = np.kron(weights, sigmas[j])
            return table @ weights

        payoff_ops.append(op)

    sigmas = [np.full(s, 1.0 / s) for s in sizes]
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        response = _logit_response(payoff_ops, sigmas, lam)
        residual = max(float(np.max(np.abs(r - s)))
                       for r, s in zip(response, sigmas))
        if residual <= tol:
            sigmas = response
            break
        sigmas = [(1 - damping) * s + damping * r
                  for s, r in zip(sigmas, response)]

    converged = residual <= tol
    dists = tuple(
        {s: float(p) for s, p in zip(game.strategy_sets[i], sigmas[i])}
        for i in range(n)
    )
    return QreResult(lam, dists, residual, iterations, converged)

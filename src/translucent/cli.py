"""Batch command-line front end.

Subcommands: ``check``, ``sweep``, ``equilibrium``, ``population``,
``validate-structure``, ``qre``.  Every command is driven by a single JSON
config (read by ``exact.load_json``), prints its report to stdout,
and optionally copies it to ``--out``.  Outputs are byte-deterministic:
every number prints by ``exact.report_value``, JSON keys are sorted, and
sweep rows come out in lexicographic grid order no matter how the grid is
evaluated.

Exit codes: 0 on success, 1 when the command's domain check fails (structure
violations, an unconverged fixed point, spot-check mismatches), 2 on input
errors (an ``exact.InputError`` among them).
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from math import comb, prod

from . import __version__
from .alt_models import logit_qre
from .beliefs import TranslucentType, is_cooperation_rational
from .closed_form import checked_params, cooperation_condition
from .counterfactual import structure_from_json, validate_structure
from .equilibrium import MixedProfile, is_coherent, te_condition, te_condition_typed
from .exact import (InputError, field, format_number, integer, load_json, number,
                    plain, report_value, to_exact, unit)
from .games import PARAMS, BudgetExceededError, make_dilemma

INTEGER_PARAMS = ("n", "l", "h")

SWEEP_HEADER = "kind,param_snapshot,alpha,beta,rational,binding,threshold"


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# config plumbing


def _load(path: str, what: str = ""):
    """The JSON in the file ``path`` (``what`` names it in a read error)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise CliError(f"cannot read {what}{path}: {exc}") from exc
    return load_json(text, path)


class _Range:
    """An exact ``{start, stop, step}`` grid, sized before any value is
    built: floor((stop - start) / step) + 1 values, iterated on demand."""

    def __init__(self, start, step, size: int):
        self.start, self.step, self.size = start, step, size

    def __iter__(self):
        v = self.start
        for _ in range(self.size):
            yield v
            v += self.step


def _grid(value, path: str):
    """A grid is a list of numbers or a {start, stop, step} range (stop
    inclusive up to exact arithmetic); a range comes back as a ``_Range``."""
    if isinstance(value, list):
        if not value:
            raise CliError(f"{path}: grid list is empty")
        return [number(v, f"{path}[{k}]") for k, v in enumerate(value)]
    if isinstance(value, dict):
        start, stop, step = (number(field(value, key, path), f"{path}.{key}")
                             for key in ("start", "stop", "step"))
        if step <= 0:
            raise CliError(f"{path}.step: step must be positive")
        if stop < start:
            raise CliError(f"{path}: stop is below start")
        return _Range(start, step, (stop - start) // step + 1)
    return [number(value, path)]


def _integers(grid, path: str):
    """A grid from ``_grid`` whose values must all be integers."""
    if isinstance(grid, _Range):  # one value: the step is never taken
        step = integer(grid.step, path) if grid.size > 1 else 0
        return _Range(integer(grid.start, path), step, grid.size)
    return [integer(v, path) for v in grid]


def _check_lambda(lam: Fraction, path: str) -> Fraction:
    if lam < 0:
        raise CliError(f"{path}: lambda must be nonnegative, got {lam}")
    return lam


def _check_grid_budget(grids: dict, what: str, budget: int) -> None:
    """Refuse, before any grid is built, when the product of the grids'
    sizes (``grids`` maps each JSON path to its grid) exceeds ``budget``;
    the message starts with the path of the largest grid."""
    sizes = {path: grid.size if isinstance(grid, _Range) else len(grid)
             for path, grid in grids.items()}
    total = prod(sizes.values())
    if total > budget:
        path = max(sizes, key=sizes.get)
        raise CliError(f"{path}: {sizes[path]} values make {total} {what}, "
                       f"exceeding budget {budget}")


def _dump_report(report: dict) -> str:
    return json.dumps(report, default=report_value, sort_keys=True, indent=2) + "\n"


def _check_kind(kind) -> None:
    if not isinstance(kind, str) or kind not in PARAMS:
        raise CliError(f"$.kind: unknown kind {plain(kind)!r}")


def _params_from_config(cfg: dict, kind: str) -> dict:
    raw = field(cfg, "params", "$")
    _check_kind(kind)
    params = {}
    for key in PARAMS[kind]:
        read = integer if key in INTEGER_PARAMS else number
        params[key] = read(field(raw, key, "$.params"), f"$.params.{key}")
    if kind == "pgg":
        params["grid"] = _pgg_grid(cfg, raw)
    _on_params(checked_params, kind, params)
    return params


def _on_params(call, kind: str, params: dict):
    """``call(kind, params)``, a ValueError or TypeError naming ``$.params``:
    ``checked_params`` holds the closed forms' domains (the public-goods one
    admits rho = 1), ``make_dilemma`` the game's (which refuses it)."""
    try:
        return call(kind, params)
    except (ValueError, TypeError) as exc:
        raise CliError(f"$.params: {exc}") from exc


def _pgg_grid(cfg: dict, raw: dict) -> int:
    """The public-goods contribution grid: the top-level ``grid``, else
    ``params.grid`` (``raw``), else 100."""
    where = "$" if "grid" in cfg else "$.params"
    grid = integer(cfg.get("grid", raw.get("grid", 100)), f"{where}.grid")
    if grid < 1:
        raise CliError(f"{where}.grid: grid must have at least one step")
    return grid


def _strategy_count(cfg: dict, kind: str, params: dict) -> tuple:
    """Each player's strategy count in the game ``make_dilemma`` builds, and
    the JSON path that sets it (the public-goods grid, else ``$.params``)."""
    if kind == "pd":
        return 2, "$.params"
    if kind == "pgg":
        where = ("$.grid" if "grid" in cfg else
                 "$.params.grid" if "grid" in cfg["params"] else "$.params")
        return params["grid"] + 1, where
    return params["h"] - params["l"] + 1, "$.params"


def _check_engine_size(cfg: dict, kind: str, params: dict, budget: int) -> None:
    """Refuse a game whose engine payoff table, own strategies x players,
    exceeds ``budget`` (``check`` and the sweep's spot check)."""
    own, _ = _strategy_count(cfg, kind, params)
    size = own * params.get("n", 2)
    if size > budget:
        raise CliError(f"$.params: the engine's payoff table needs {size} entries "
                       f"(own strategies x players), exceeding budget {budget}")


def _check_profile_count(cfg: dict, kind: str, params: dict, budget: int) -> None:
    """Refuse a game whose own^n profiles, which ``logit_qre`` tabulates,
    exceed ``budget`` (own^n >= 2^n, so n is compared first)."""
    own, where = _strategy_count(cfg, kind, params)
    n = params.get("n", 2)
    if min(own, n) > 1 and (n >= budget.bit_length() or own ** n > budget):
        raise CliError(f"{where}: {own} strategies for each of {n} players make "
                       f"{own}^{n} profiles, exceeding budget {budget}")


def _max_iter(cfg: dict, budget: int) -> int:
    """The QRE solver's iteration cap: a given ``$.max_iter`` is refused
    above ``budget`` before anything is built; the default, 20,000, is not
    an input, so a small budget still bounds only the game."""
    if "max_iter" not in cfg:
        return 20_000
    max_iter = integer(cfg["max_iter"], "$.max_iter")
    if max_iter > budget:
        raise CliError(f"$.max_iter: {max_iter} iterations exceed budget {budget}")
    return max_iter


def _check_players(n: int, path: str, budget: int, te: bool = False) -> None:
    """Refuse a player count above ``budget`` (the bertrand closed form
    raises numbers to the n-th power), or, for a te row, which judges each
    player by a count distribution over the others, n^3 above ``budget``."""
    if te and n ** 3 > budget:
        raise CliError(f"{path}: {n} players make {n ** 3} te terms per row "
                       f"(n^3), exceeding budget {budget}")
    if n > budget:
        raise CliError(f"{path}: {n} players exceed budget {budget}")


def _per_player(values, path: str, n: int, name: str) -> list:
    """A config list holding one probability ``name`` per player."""
    if not isinstance(values, list):
        raise CliError(f"{path}: expected a list of numbers")
    if len(values) != n:
        raise CliError(f"{path}: expected one value per player ({n}), "
                       f"got {len(values)}")
    return [unit(v, name, f"{path}[{k}]") for k, v in enumerate(values)]


def _snapshot(kind: str, params: dict) -> str:
    keys = PARAMS[kind]
    return ";".join(f"{k}={format_number(params[k])}" for k in keys)


# ---------------------------------------------------------------------------
# commands


def cmd_check(cfg: dict, budget: int) -> tuple:
    kind = field(cfg, "kind", "$")
    params = _params_from_config(cfg, kind)
    alpha = unit(field(cfg, "alpha", "$"), "alpha", "$.alpha")
    beta = unit(field(cfg, "beta", "$"), "beta", "$.beta")
    _check_engine_size(cfg, kind, params, budget)
    d = _on_params(make_dilemma, kind, params)
    try:
        t = TranslucentType(alpha, beta)
        closed = cooperation_condition(kind, params, alpha, beta)
        engine = is_cooperation_rational(d, 0, t)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    report = {
        "kind": kind,
        "params": params,
        "alpha": alpha,
        "beta": beta,
        "closed_form": {
            "rational": closed.rational,
            "binding": closed.binding_quantity,
            "threshold": closed.threshold,
        },
        "engine": {
            "rational": engine.rational,
            "best_deviation": engine.best_deviation,
            "eu_cooperate": engine.eu_cooperate,
            "eu_best_deviation": engine.eu_best_deviation,
        },
        "agreement": closed.rational == engine.rational,
    }
    if alpha == 0:
        report["note"] = "opaque"
    return _dump_report(report), 0


def _sweep_rows(kind: str, mode: str, cfg: dict, budget: int):
    """Yield (param_dict, alpha, beta, rational, binding, threshold) in
    lexicographic grid order, once the row count is within ``budget``."""
    raw_params = field(cfg, "params", "$")
    keys = PARAMS[kind]
    grids, sized = [], {}  # sized: JSON path -> grid, for the budget
    for key in keys:
        path = f"$.params.{key}"
        values = _grid(field(raw_params, key, "$.params"), path)
        if key in INTEGER_PARAMS:
            values = _integers(values, path)
        grids.append(values)
        sized[path] = values
    if kind == "pgg":
        pgg_grid = _pgg_grid(cfg, raw_params)

    if mode == "qre":
        alphas = sized["$.lambda"] = _grid(field(cfg, "lambda", "$"), "$.lambda")
        betas = [None]
        max_iter = _max_iter(cfg, budget)
    else:
        betas = sized["$.beta"] = _grid(field(cfg, "beta", "$"), "$.beta")
        if mode in ("cooperation", "te_typed"):
            alphas = sized["$.alpha"] = _grid(field(cfg, "alpha", "$"), "$.alpha")
        else:
            alphas = [None]
    _check_grid_budget(sized, "sweep rows", budget)
    alphas, betas = list(alphas), list(betas)
    for k, lam in enumerate(alphas if mode == "qre" else []):  # before any row
        _check_lambda(lam, f"$.lambda[{k}]" if isinstance(cfg["lambda"], list) else "$.lambda")
    if mode != "qre":
        betas = [unit(b, "beta", "$.beta") for b in betas]
        if alphas != [None]:
            alphas = [unit(a, "alpha", "$.alpha") for a in alphas]
    if "n" in keys and mode != "qre":  # qre rows count profiles instead
        for n in grids[keys.index("n")]:
            _check_players(n, "$.params.n", budget, te=mode != "cooperation")

    for combo in itertools.product(*grids):
        params = dict(zip(keys, combo))
        if kind == "pgg":
            params["grid"] = pgg_grid
        _on_params(checked_params, kind, params)
        n_players = params.get("n", 2)
        if mode == "qre":  # one game per combination: every lambda reuses its memo
            _check_profile_count(cfg, kind, params, budget)
            d = _on_params(make_dilemma, kind, params)
        for alpha in alphas:
            for beta in betas:
                try:
                    if mode == "qre":
                        res = logit_qre(d, alpha, max_iter=max_iter, budget=budget)
                        if not res.converged:
                            raise CliError(
                                f"qre did not converge at lambda={alpha} "
                                f"(residual {res.residual:.3e})", code=1)
                        coop = res.prob(0, d.cooperate_strategy(0))
                        beta = to_exact(coop)
                        row = (to_exact(coop) <= Fraction(1, 2),
                               Fraction(1, 2), to_exact(coop))
                    else:
                        if mode == "te":
                            ok = te_condition(kind, params, [beta] * n_players)
                        elif mode == "te_typed":
                            res = te_condition_typed(kind, params,
                                                     [alpha] * n_players,
                                                     [beta] * n_players)
                            ok = (res.readings.get("n_minus_1")
                                  if res.holds is None else res.holds)
                        # te rows report the cooperation condition's margin,
                        # read at full detection in the untyped mode
                        verdict = cooperation_condition(
                            kind, params, 1 if alpha is None else alpha, beta)
                        if mode == "cooperation":
                            ok = verdict.rational
                        row = (ok, verdict.binding_quantity, verdict.threshold)
                except (ValueError, TypeError) as exc:
                    raise CliError(str(exc)) from exc
                yield params, alpha, beta, row


def cmd_sweep(cfg: dict, budget: int) -> tuple:
    kind = field(cfg, "kind", "$")
    _check_kind(kind)
    mode = cfg.get("mode", "cooperation")
    if mode not in ("cooperation", "te", "te_typed", "qre"):
        raise CliError(f"$.mode: unknown mode {plain(mode)!r}")

    rows = []
    out = io.StringIO()
    out.write(SWEEP_HEADER + "\n")
    for params, alpha, beta, (rational, binding, threshold) in \
            _sweep_rows(kind, mode, cfg, budget):
        snapshot = _snapshot(kind, params)
        out.write(",".join([
            kind, snapshot,
            format_number(alpha) if alpha is not None else "",
            format_number(beta),
            "true" if rational else "false",
            format_number(binding),
            format_number(threshold),
        ]) + "\n")
        rows.append((params, alpha, beta, rational))

    exit_code = 0
    if cfg.get("spot_check") and mode == "cooperation":
        mismatches = _spot_check(cfg, kind, rows, budget)
        if mismatches:
            for params, alpha, beta, rational, engine_verdict in mismatches:
                print(f"spot-check mismatch: {_snapshot(kind, params)} "
                      f"alpha={format_number(alpha)} beta={format_number(beta)} "
                      f"closed-form={str(rational).lower()} "
                      f"engine={str(engine_verdict).lower()}", file=sys.stderr)
            exit_code = 1
    return out.getvalue(), exit_code


def _spot_check(cfg: dict, kind: str, rows: list, budget: int) -> list:
    """Re-verify a deterministic 1% sample of sweep rows with the generic
    engine, each game sized against ``budget`` first; returns the
    disagreeing rows."""
    rng = random.Random(0)
    sample_size = max(1, len(rows) // 100)
    sample = rng.sample(range(len(rows)), sample_size)
    mismatches = []
    games = {}
    for idx in sorted(sample):
        params, alpha, beta, rational = rows[idx]
        key = tuple(sorted(params.items()))
        if key not in games:
            _check_engine_size(cfg, kind, params, budget)
            try:  # the closed form admits pgg's rho = 1, the game does not
                games[key] = make_dilemma(kind, params)
            except (ValueError, TypeError) as exc:
                raise CliError(f"$.spot_check: {_snapshot(kind, params)}: "
                               f"{exc}") from exc
        d = games[key]
        verdict = is_cooperation_rational(d, 0, TranslucentType(alpha, beta))
        if verdict.rational != rational:
            mismatches.append((params, alpha, beta, rational, verdict.rational))
    return mismatches


def cmd_equilibrium(cfg: dict, budget: int) -> tuple:
    kind = field(cfg, "kind", "$")
    params = _params_from_config(cfg, kind)
    n = params.get("n", 2)
    betas = _per_player(field(cfg, "betas", "$"), "$.betas", n, "beta")
    alphas = cfg.get("alphas")
    if alphas is not None:
        alphas = _per_player(alphas, "$.alphas", n, "alpha")
    # the floor search: for each own strategy, minimize_payoff's opponent
    # multisets, own * C(own + n - 2, k) >= 2^k payoffs
    own, where = _strategy_count(cfg, kind, params)
    k = min(own, n) - 1
    if k > 0 and (k >= budget.bit_length() or own * comb(own + n - 2, k) > budget):
        raise CliError(f"{where}: {own} strategies for each of {n} players make "
                       f"{own} x C({own + n - 2}, {n - 1}) floor payoffs, "
                       f"exceeding budget {budget}")
    # coherence reads, per player, the law of the others' multiset: one term
    # per count of the mixing others (0 < beta < 1), built over the n - 1
    # others, so (n - 1) * (n + m(n - 1)) term updates for m mixing players
    mixing = sum(0 < b < 1 for b in betas)
    terms = (n - 1) * (n + mixing * (n - 1))
    if terms > budget:
        raise CliError(f"$.betas: {mixing} of {n} players mix, making {terms} "
                       f"multiset-law terms over all players, exceeding budget {budget}")
    d = _on_params(make_dilemma, kind, params)
    try:
        sigma = MixedProfile.two_point(d, betas)
        untyped = te_condition(kind, params, betas)
        coherence = is_coherent(d, sigma, budget)
        typed = (te_condition_typed(kind, params, alphas, betas)
                 if alphas is not None else None)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    report = {
        "kind": kind,
        "params": params,
        "betas": betas,
        "te_condition": untyped,
        "coherent": coherence.coherent,
        "witness": list(coherence.witness) if coherence.witness else None,
        "agreement": untyped == coherence.coherent,
    }
    if typed is not None:
        report["alphas"] = alphas
        report["te_condition_typed"] = {
            "holds": typed.holds,
            "readings": typed.readings,
        }
    return _dump_report(report), 0


def cmd_population(cfg: dict, budget: int) -> tuple:
    kind = field(cfg, "kind", "$")
    params = _params_from_config(cfg, kind)
    if "n" in params:
        _check_players(params["n"], "$.params.n", budget)
    spec = field(cfg, "population", "$")

    if isinstance(spec, dict) and "types" not in spec:
        if "grid" not in spec:
            raise CliError("$.population: expected either 'types' or 'grid'")
        grid = spec["grid"]
        alphas = _grid(field(grid, "alpha", "$.population.grid"),
                       "$.population.grid.alpha")
        betas = _grid(field(grid, "beta", "$.population.grid"),
                      "$.population.grid.beta")
        _check_grid_budget({"$.population.grid.alpha": alphas,
                            "$.population.grid.beta": betas}, "types", budget)
        alphas = [unit(a, "alpha", "$.population.grid.alpha") for a in alphas]
        betas = [unit(b, "beta", "$.population.grid.beta") for b in betas]
        w = Fraction(1, len(alphas) * len(betas))
        types = [(a, b, w) for a in alphas for b in betas]
    else:
        raw = field(spec, "types", "$.population")
        if not isinstance(raw, list) or not raw:
            raise CliError("$.population.types: expected a nonempty list")
        _check_grid_budget({"$.population.types": raw}, "types", budget)
        types = []
        for k, entry in enumerate(raw):
            path = f"$.population.types[{k}]"
            types.append((
                unit(field(entry, "alpha", path), "alpha", path + ".alpha"),
                unit(field(entry, "beta", path), "beta", path + ".beta"),
                number(field(entry, "weight", path), path + ".weight"),
            ))

    total = sum((w for _, _, w in types), Fraction(0))
    if abs(total - 1) > Fraction(1, 10 ** 9):
        raise CliError(f"$.population: weights sum to {format_number(total)}, "
                       "expected 1 within 1e-9")
    if any(w < 0 for _, _, w in types):
        raise CliError("$.population: weights must be nonnegative")

    rate = Fraction(0)
    for alpha, beta, w in types:
        try:
            verdict = cooperation_condition(kind, params, alpha, beta)
        except (ValueError, TypeError) as exc:
            raise CliError(str(exc)) from exc
        if verdict.rational:
            rate += w
    report = {
        "kind": kind,
        "params": params,
        "num_types": len(types),
        "cooperation_rate": rate,
    }
    return _dump_report(report), 0


def cmd_validate_structure(path: str, budget: int) -> tuple:
    doc = _load(path)
    try:
        m = structure_from_json(doc, budget=budget)
    except BudgetExceededError as exc:
        raise CliError(f"{path}: $.states: {exc}") from exc
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CliError(f"{path}: malformed structure document: {exc}") from exc
    violations = validate_structure(m)
    if not violations:
        return f"{path}: no violations ({m.num_states} states)\n", 0
    lines = [str(v) for v in violations]
    return "\n".join(lines) + "\n", 1


def cmd_qre(cfg: dict, budget: int) -> tuple:
    kind = field(cfg, "kind", "$")
    params = _params_from_config(cfg, kind)
    lam = _check_lambda(number(field(cfg, "lambda", "$"), "$.lambda"), "$.lambda")
    damping = number(cfg.get("damping", 0.5), "$.damping")
    if not 0 < damping <= 1 or not float(damping):  # nor below every float
        raise CliError(f"$.damping: damping must lie in (0, 1], got {damping}")
    tol = float(number(cfg.get("tol", 1e-10), "$.tol"))
    max_iter = _max_iter(cfg, budget)
    _check_profile_count(cfg, kind, params, budget)
    d = _on_params(make_dilemma, kind, params)
    try:
        res = logit_qre(d, lam, damping=float(damping), tol=tol, max_iter=max_iter,
                        budget=budget)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc
    report = {
        "kind": kind,
        "params": params,
        "lambda": lam,
        "profile": [
            {str(s): format_number(p) for s, p in sorted(dist.items(), key=lambda t: str(t[0]))}
            for dist in res.distributions
        ],
        "residual": f"{res.residual:.6e}",
        "iterations": res.iterations,
        "converged": res.converged,
    }
    return _dump_report(report), 0 if res.converged else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translucent",
        description="Cooperation and equilibrium analysis for social dilemmas "
                    "with detection-aware beliefs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("check", "sweep", "equilibrium", "population", "qre"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", help="also write the report to this path")
        p.add_argument("--budget", type=int, default=10_000_000,
                       help="enumeration budget")

    p = sub.add_parser("validate-structure")
    p.add_argument("file", help="structure JSON document to lint")
    p.add_argument("--out", help="also write the report to this path")
    p.add_argument("--budget", type=int, default=10_000_000)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate-structure":
            output, code = cmd_validate_structure(args.file, args.budget)
        else:
            cfg = _load(args.config, "config ")
            if not isinstance(cfg, dict):
                raise CliError(f"{args.config}: expected a JSON object, "
                               f"got {type(plain(cfg)).__name__}")
            handler = {
                "check": cmd_check,
                "sweep": cmd_sweep,
                "equilibrium": cmd_equilibrium,
                "population": cmd_population,
                "qre": cmd_qre,
            }[args.command]
            output, code = handler(cfg, args.budget)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (InputError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(output)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())

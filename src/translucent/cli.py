"""Batch command-line front end.

Subcommands: ``check``, ``sweep``, ``equilibrium``, ``population``,
``validate-structure``, ``qre``.  Every command is driven by a single JSON
config (read by ``exact.load_json``), prints its report to stdout,
and optionally copies it to ``--out``.  Outputs are byte-deterministic:
every number prints by one rule, ``exact.format_ratio`` (as a JSON value,
``exact.report_value``), JSON keys are sorted, and
sweep rows come out in lexicographic grid order no matter how the grid is
evaluated.

Exit codes: 0 on success, 1 when the command's domain check fails (structure
violations, an unconverged fixed point, spot-check mismatches), 2 on input
errors (an ``exact.InputError`` among them).  A command checks every input,
naming its JSON path, before it calls another layer, so a layer's refusal
that reaches ``main`` is a bug here and shows as a traceback.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from math import comb, prod

from . import _EXPORTS, __version__
from .closed_form import checked_params, cooperation_condition, decide
from .exact import (PARAMS, BudgetExceededError, InputError, common_denominator, field,
                    format_number, format_ratio, integer, load_json, number, plain,
                    report_value, to_exact, unit)

INTEGER_PARAMS = ("n", "l", "h")

SWEEP_HEADER = "kind,param_snapshot,alpha,beta,rational,binding,threshold"


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _entry(name: str):
    """The package's public name ``name`` (``translucent._EXPORTS``): the
    module global once bound, else imported and bound, so a cold run loads
    only its own command's modules.  A rebound global is what the commands
    call, so the benchmark's traced run can wrap each one in a span through
    the module's attributes (``__getattr__`` resolves a name not yet bound)."""
    value = globals().get(name)
    if value is None:  # as ``from .<module> import <name>``, seen by -X importtime
        module = __import__(_EXPORTS[name], globals(), None, (name,), 1)
        value = globals()[name] = getattr(module, name)
    return value


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _entry(name)


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
    """Refuse a game whose engine payoff table exceeds ``budget`` (``check``
    and the sweep's spot check): own strategies x players entries, each an
    n-tuple the engine builds and hashes, so own x n^2 positions."""
    own, _ = _strategy_count(cfg, kind, params)
    n = params.get("n", 2)
    size = own * n * n
    if size > budget:
        raise CliError(f"$.params: the engine's payoff table needs {size} entry positions "
                       f"(own strategies x players^2), exceeding budget {budget}")


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
    below 1 or above ``budget`` before anything is built; the default,
    20,000, is not an input, so a small budget still bounds only the game."""
    if "max_iter" not in cfg:
        return 20_000
    max_iter = integer(cfg["max_iter"], "$.max_iter")
    if max_iter < 1:
        raise CliError(f"$.max_iter: max_iter must be at least 1, got {max_iter}")
    if max_iter > budget:
        raise CliError(f"$.max_iter: {max_iter} iterations exceed budget {budget}")
    return max_iter


def _check_players(n: int, path: str, budget: int) -> None:
    """Refuse a player count above ``budget``: the bertrand closed form
    raises numbers to the n-th power, in a cooperation or te row alike."""
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
    d = _on_params(_entry("make_dilemma"), kind, params)
    t = _entry("TranslucentType")(alpha, beta)
    closed = cooperation_condition(kind, params, alpha, beta)
    engine = _entry("is_cooperation_rational")(d, 0, t)
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


def _sweep_rows(kind: str, mode: str, cfg: dict, budget: int, rows=None) -> list:
    """The sweep's CSV lines in lexicographic grid order, once the row count
    is within ``budget``; with a list ``rows``, each row's (param_dict,
    alpha, beta, rational) is appended to it too.  The texts of the grid
    values are made once per value and of the parameters once per
    combination.  Outside ``qre`` mode each grid value is split into its
    integer ratio once, the parameters are checked once per combination,
    and a row is ``closed_form.decide`` on integers, its binding quantity
    and threshold printed by ``exact.format_ratio``."""
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
            _check_players(n, "$.params.n", budget)
    # (value, text, integer ratio) per grid value: a te row reads its
    # condition at full detection, alpha = 1, and a qre row has no beta
    alphas = [(a, "", 1, 1) if a is None else (a, format_number(a), *a.as_integer_ratio())
              for a in alphas]
    betas = [(b, format_number(b), *b.as_integer_ratio()) for b in betas if b is not None]
    # a te row, the two-point equilibrium condition at a homogeneous profile,
    # is the cooperation condition, except that all-defect, beta = 0, passes
    te = mode in ("te", "te_typed")
    texts = {}  # (n, d) -> format_ratio(n, d): a side repeats across rows
    lines = []

    for combo in itertools.product(*grids):
        params = dict(zip(keys, combo))
        if kind == "pgg":
            params["grid"] = pgg_grid
        checked = _on_params(checked_params, kind, params)
        snapshot = _snapshot(kind, params)
        if mode == "qre":  # one game per combination: every lambda reuses its memo
            _check_profile_count(cfg, kind, params, budget)
            d = _on_params(_entry("make_dilemma"), kind, params)
            for lam, lam_text, _, _ in alphas:  # beta is the solution's
                res = _logit_qre(d, lam, max_iter=max_iter, budget=budget)
                if not res.converged:
                    raise CliError(f"qre did not converge at lambda={lam} "
                                   f"(residual {res.residual:.3e})", code=1)
                beta = to_exact(res.prob(0, d.cooperate_strategy(0)))
                beta_text, ok = format_number(beta), beta <= Fraction(1, 2)
                lines.append(f"{kind},{snapshot},{lam_text},{beta_text},"
                             f"{'true' if ok else 'false'},0.5,{beta_text}\n")
            continue
        for alpha, alpha_text, an, ad in alphas:
            head = f"{kind},{snapshot},{alpha_text},"
            for beta, beta_text, bn, bd in betas:
                ok, ln, ld, rn, rd = decide(kind, checked, an, ad, bn, bd)
                if te and not bn:
                    ok = True
                binding = texts.get((ln, ld)) or texts.setdefault((ln, ld), format_ratio(ln, ld))
                threshold = texts.get((rn, rd)) or texts.setdefault((rn, rd), format_ratio(rn, rd))
                lines.append(f"{head}{beta_text},{'true' if ok else 'false'},"
                             f"{binding},{threshold}\n")
                if rows is not None:
                    rows.append((params, alpha, beta, ok))
    return lines


def cmd_sweep(cfg: dict, budget: int) -> tuple:
    kind = field(cfg, "kind", "$")
    _check_kind(kind)
    mode = cfg.get("mode", "cooperation")
    if mode not in ("cooperation", "te", "te_typed", "qre"):
        raise CliError(f"$.mode: unknown mode {plain(mode)!r}")
    spot_check = cfg.get("spot_check", False)
    if type(spot_check) is not bool:
        raise CliError(f"$.spot_check: expected true or false, got {plain(spot_check)!r}")
    spot_check = spot_check and mode == "cooperation"

    rows = [] if spot_check else None
    lines = _sweep_rows(kind, mode, cfg, budget, rows)

    exit_code = 0
    if spot_check:
        mismatches = _spot_check(cfg, kind, rows, budget)
        if mismatches:
            for params, alpha, beta, rational, engine_verdict in mismatches:
                print(f"spot-check mismatch: {_snapshot(kind, params)} "
                      f"alpha={format_number(alpha)} beta={format_number(beta)} "
                      f"closed-form={str(rational).lower()} "
                      f"engine={str(engine_verdict).lower()}", file=sys.stderr)
            exit_code = 1
    return SWEEP_HEADER + "\n" + "".join(lines), exit_code


def _spot_check(cfg: dict, kind: str, rows: list, budget: int) -> list:
    """Re-verify a deterministic 1% sample of sweep rows with the generic
    engine, one ``CooperationScanner`` per sampled game, each game sized
    against ``budget`` first; returns the disagreeing rows."""
    import random

    make_dilemma = _entry("make_dilemma")
    translucent_type = _entry("TranslucentType")
    cooperation_scanner = _entry("CooperationScanner")
    rng = random.Random(0)
    sample_size = max(1, len(rows) // 100)
    sample = rng.sample(range(len(rows)), sample_size)
    mismatches = []
    scanners = {}
    for idx in sorted(sample):
        params, alpha, beta, rational = rows[idx]
        key = tuple(sorted(params.items()))
        if key not in scanners:
            _check_engine_size(cfg, kind, params, budget)
            try:  # the closed form admits pgg's rho = 1, the game does not
                d = make_dilemma(kind, params)
            except (ValueError, TypeError) as exc:
                raise CliError(f"$.spot_check: {_snapshot(kind, params)}: "
                               f"{exc}") from exc
            scanners[key] = cooperation_scanner(d)
        verdict = scanners[key].verdict(translucent_type(alpha, beta))
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
    if kind == "bertrand":
        from .equilibrium import _tie_kernel_words

        words = _tie_kernel_words(n, alphas, betas)
        if words > budget:
            raise CliError(f"$.params.n: the tie kernel over {n} players takes {words} "
                           f"word products, exceeding budget {budget}")
    d = _on_params(_entry("make_dilemma"), kind, params)
    untyped = _entry("te_condition")(kind, params, betas)
    coherence = _entry("is_coherent")(d, _entry("MixedProfile").two_point(d, betas), budget)
    typed = (_entry("te_condition_typed")(kind, params, alphas, betas)
             if alphas is not None else None)
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
    """The weight of the types for which cooperation is rational: each
    type's integer ratios and integer weight over one common denominator,
    ``closed_form.decide`` per type on the parameters checked once."""
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
        alphas = [unit(a, "alpha", "$.population.grid.alpha").as_integer_ratio()
                  for a in alphas]
        betas = [unit(b, "beta", "$.population.grid.beta").as_integer_ratio()
                 for b in betas]
        types = [(*a, *b) for a in alphas for b in betas]
        weights, den = [1] * len(types), len(types)
    else:
        raw = field(spec, "types", "$.population")
        if not isinstance(raw, list) or not raw:
            raise CliError("$.population.types: expected a nonempty list")
        _check_grid_budget({"$.population.types": raw}, "types", budget)
        types, weights = [], []
        for k, entry in enumerate(raw):
            path = f"$.population.types[{k}]"
            types.append((
                *unit(field(entry, "alpha", path), "alpha", path + ".alpha").as_integer_ratio(),
                *unit(field(entry, "beta", path), "beta", path + ".beta").as_integer_ratio()))
            weights.append(number(field(entry, "weight", path), path + ".weight"))
        weights, den = common_denominator(weights)

    total = sum(weights)
    if abs(total - den) * 10 ** 9 > den:
        raise CliError(f"$.population: weights sum to {format_ratio(total, den)}, "
                       "expected 1 within 1e-9")
    if any(w < 0 for w in weights):
        raise CliError("$.population: weights must be nonnegative")

    checked = checked_params(kind, params)
    rate = 0
    for (an, ad, bn, bd), w in zip(types, weights):
        if decide(kind, checked, an, ad, bn, bd)[0]:
            rate += w
    report = {
        "kind": kind,
        "params": params,
        "num_types": len(types),
        "cooperation_rate": Fraction(rate, den),
    }
    return _dump_report(report), 0


def cmd_validate_structure(path: str, budget: int) -> tuple:
    doc = _load(path)
    try:
        m = _entry("structure_from_json")(doc, budget=budget)
    except BudgetExceededError as exc:
        raise CliError(f"{path}: $.states: {exc}") from exc
    except InputError as exc:
        raise CliError(f"{path}: malformed structure document: {exc}") from exc
    violations = _entry("validate_structure")(m)
    if not violations:
        return f"{path}: no violations ({m.num_states} states)\n", 0
    lines = [str(v) for v in violations]
    return "\n".join(lines) + "\n", 1


def _logit_qre(d, lam, **options):
    """``logit_qre`` on the dilemma ``d``; the solver works in floats, so a
    payoff past the float range is an error of ``$.params``."""
    try:
        return _entry("logit_qre")(d, lam, **options)
    except OverflowError as exc:
        raise CliError("$.params: a payoff exceeds the float range, "
                       "in which qre solves") from exc


def cmd_qre(cfg: dict, budget: int) -> tuple:
    kind = field(cfg, "kind", "$")
    params = _params_from_config(cfg, kind)
    lam = _check_lambda(number(field(cfg, "lambda", "$"), "$.lambda"), "$.lambda")
    damping = number(cfg.get("damping", 0.5), "$.damping")
    if not 0 < damping <= 1 or not float(damping):  # nor below every float
        raise CliError(f"$.damping: damping must lie in (0, 1], got {damping}")
    tol = number(cfg.get("tol", 1e-10), "$.tol")
    if tol < 0:  # a negative tol is never reached
        raise CliError(f"$.tol: tol must be nonnegative, got {tol}")
    max_iter = _max_iter(cfg, budget)
    _check_profile_count(cfg, kind, params, budget)
    d = _on_params(_entry("make_dilemma"), kind, params)
    res = _logit_qre(d, lam, damping=float(damping), tol=float(tol), max_iter=max_iter,
                     budget=budget)
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

"""Fuzzing the command-line front end in-process.

Configs are generated for the five config commands, every kind and every
sweep mode, and some of them are broken at one place: a value of the wrong
type, out of its domain, one of the JSON constants NaN, Infinity and
-Infinity, a number past the float range, an integer near its edge or a
string needing more than 4300 digits, or a missing key.  Budgets stay at or below 64 and iteration caps at or below
200, so every run is small.
Every run must exit 0, 1 or 2 without an uncaught exception, and a second
run of the same config must print the same stdout.  Every exit-2 message
names where the input went wrong: a JSON path (``$...``) or the config
file itself; no message is exempt.

A second fuzzer gives ``check``, ``sweep`` (cooperation with and without
the spot check, ``te`` and ``te_typed``) and ``population`` whole configs
whose integer parameters all lie in [10^307, 17·10^307], where sums and
products of them leave the float range; player counts and the pgg grid are
also drawn small, so that those games get built.  h - l stays at most 50,
so the spot check's engine stays small.

``validate-structure`` is fuzzed the same way on the documents of built
typed and coherent structures, each with one edit of the kinds the parser's
oracle tests use (re-spelt, reordered, copied, dropped or overwritten
measures, and malformed ones: out-of-range, non-integer and missing
indices, unreadable probabilities and dist keys).  An exit-2 message for a
document that parses as JSON names the file and a ``$`` path.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import test_structure_oracle as structure_tests
from translucent.cli import main
from translucent.counterfactual import structure_to_json

UNITS = [0, 1, 0.5, 0.25, 0.75, 0.9, "1/3"]

# numbers json.dumps cannot write are spliced in as raw tokens
RAW_TOKENS = ["1e400", "-1e400", "1e-400"]

MALFORMED = [
    None, "x", "", [], {}, True, -1, -0.5, 0, 7, 10 ** 30, [1, "y"],
    10 ** 308, 17 * 10 ** 307,  # within the float range; sums can leave it
    "1e9999999",  # a string past 4300 digits, refused before it is built
    {"start": 0}, float("inf"), float("-inf"), float("nan"),
    *(f"@raw:{token}" for token in RAW_TOKENS),
]


def to_json(cfg) -> str:
    text = json.dumps(cfg)
    for token in RAW_TOKENS:
        text = text.replace(f'"@raw:{token}"', token)
    return text


UNIT = st.sampled_from(UNITS)


def param_values(kind: str) -> dict:
    """A strategy for each parameter of ``kind``, inside its domain."""
    if kind == "pd":
        return {"b": st.sampled_from([2, 3, 4, 2.5, "7/2"]),
                "c": st.sampled_from([1, 0.5, 1.5])}
    if kind == "pgg":
        return {"n": st.integers(2, 4), "rho": st.sampled_from([0.6, 0.75, 0.9, 1])}
    if kind == "bertrand":
        return {"n": st.integers(2, 4), "l": st.just(2), "h": st.integers(3, 7)}
    return {"l": st.integers(1, 3), "h": st.integers(4, 9),
            "bonus": st.sampled_from([0.5, 1, 2, 3])}


def grid_of(draw, values, unit=False):
    """A sweep grid: one value, a list of one or two, or a range (0 to 1 for
    a unit grid, a single point otherwise)."""
    form = draw(st.integers(0, 2))
    if form == 0:
        return draw(values)
    if form == 1:
        return draw(st.lists(values, min_size=1, max_size=2))
    if unit:
        return {"start": 0, "stop": 1, "step": draw(st.sampled_from([0.5, 1]))}
    value = draw(values)
    return {"start": value, "stop": value, "step": 1}


@st.composite
def configs(draw):
    command = draw(st.sampled_from(
        ["check", "sweep", "equilibrium", "population", "qre"]))
    kind = draw(st.sampled_from(["pd", "pgg", "bertrand", "td"]))
    values = param_values(kind)
    cfg = {"kind": kind}
    if command == "sweep":
        mode = draw(st.sampled_from(["cooperation", "te", "te_typed", "qre"]))
        cfg["params"] = {k: grid_of(draw, v) for k, v in values.items()}
        cfg.update(mode=mode, alpha=grid_of(draw, UNIT, unit=True),
                   beta=grid_of(draw, UNIT, unit=True),
                   spot_check=draw(st.booleans()))
        if mode == "qre":
            cfg.update(**{"lambda": grid_of(draw, st.sampled_from([0, 1, 2])),
                          "max_iter": draw(st.integers(0, 200))})
    else:
        cfg["params"] = {k: draw(v) for k, v in values.items()}
    n = cfg["params"].get("n", 2) if command != "sweep" else 2
    if kind == "pgg" and draw(st.booleans()):
        grid = draw(st.integers(1, 3))
        (cfg if draw(st.booleans()) else cfg["params"])["grid"] = grid
    if command == "check":
        cfg.update(alpha=draw(UNIT), beta=draw(UNIT))
    elif command == "equilibrium":
        cfg["betas"] = [draw(UNIT) for _ in range(n)]
        if draw(st.booleans()):
            cfg["alphas"] = [draw(UNIT) for _ in range(n)]
    elif command == "population":
        if draw(st.booleans()):
            k = draw(st.integers(1, 3))
            cfg["population"] = {"types": [
                {"alpha": draw(UNIT), "beta": draw(UNIT), "weight": f"1/{k}"}
                for _ in range(k)]}
        else:
            cfg["population"] = {"grid": {
                "alpha": grid_of(draw, UNIT, unit=True),
                "beta": grid_of(draw, UNIT, unit=True)}}
    elif command == "qre":
        cfg.update(**{"lambda": draw(st.sampled_from([0, 0.5, 2, 20])),
                      "damping": draw(st.sampled_from([0.5, 1])),
                      "tol": draw(st.sampled_from([1e-10, 1e-6])),
                      "max_iter": draw(st.integers(0, 200))})
    if draw(st.integers(0, 2)):  # two configs in three are broken
        cfg = break_one_place(draw, cfg)
    return command, cfg


def places(node, path=()):
    """Every (container path, key) of a config, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path, key
        yield from places(child, path + (key,))


def break_one_place(draw, cfg):
    if draw(st.integers(0, 20)) == 0:
        return draw(st.sampled_from(MALFORMED))  # not even an object
    cfg = json.loads(json.dumps(cfg))  # a deep copy
    path, key = draw(st.sampled_from(list(places(cfg))))
    parent = cfg
    for step in path:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.integers(0, 5)) == 0:
        del parent[key]
    else:
        bad = draw(st.sampled_from(MALFORMED))
        if key == "max_iter" and isinstance(bad, int) and bad > 200:
            bad = 200  # iteration caps stay small
        parent[key] = bad
    return cfg


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(configs(), st.one_of(st.just(64), st.integers(-1, 64)))
def test_every_run_exits_cleanly_and_deterministically(case, budget):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(cfg))
        argv = [command, "--config", path, "--budget", str(budget)]
        code, out, err = run_in_process(argv)
        assert code in (0, 1, 2), (code, err)
        event(f"{command} exit {code}")
        if code == 2:
            assert out == "", out
            assert err.startswith(("error: $", f"error: {path}")), err
        assert run_in_process(argv) == (code, out, err)


TOP = 17 * 10 ** 307


def near_top(floor: int = 10 ** 307):
    """Integers in [floor, 17·10^307] that shrink toward the top, where
    values leave the float range."""
    return st.integers(0, TOP - floor).map(lambda k: TOP - k)


HUGE = near_top()


@st.composite
def huge_configs(draw):
    command = draw(st.sampled_from(["check", "sweep", "population"]))
    kind = draw(st.sampled_from(["pd", "pgg", "bertrand", "td"]))
    small_or_huge = st.one_of(st.integers(2, 4), HUGE)
    if kind == "pd":
        params = {"b": draw(HUGE), "c": draw(HUGE)}
    elif kind == "pgg":
        params = {"n": draw(small_or_huge), "rho": draw(st.sampled_from([0.6, 0.75, 0.9])),
                  "grid": draw(st.one_of(st.integers(1, 3), HUGE))}
    else:
        high = draw(near_top(10 ** 307 + 50))
        params = {"l": high - draw(st.integers(1, 50)), "h": high}
        params.update({"n": draw(small_or_huge)} if kind == "bertrand"
                      else {"bonus": draw(HUGE)})
    cfg = {"kind": kind, "params": params}
    if command == "check":
        cfg.update(alpha=draw(UNIT), beta=draw(UNIT))
    elif command == "sweep":
        cfg["params"] = {k: grid_of(draw, st.just(v)) for k, v in params.items()}
        cfg.update(mode=draw(st.sampled_from(["cooperation", "te", "te_typed"])),
                   alpha=grid_of(draw, UNIT, unit=True),
                   beta=grid_of(draw, UNIT, unit=True), spot_check=draw(st.booleans()))
    else:
        cfg["population"] = {"grid": {"alpha": grid_of(draw, UNIT, unit=True),
                                      "beta": grid_of(draw, UNIT, unit=True)}}
    return command, cfg


SPOT_TD = ("sweep", {"kind": "td", "mode": "cooperation", "spot_check": True,
                     "params": {"l": TOP - 57, "h": TOP - 7, "bonus": TOP - 3},
                     "alpha": [0, 0.5, 1], "beta": [0.5, 0.9]})


@settings(max_examples=200, deadline=None)
@given(huge_configs())
@example(SPOT_TD)
@example(("sweep", {**SPOT_TD[1], "kind": "bertrand", "mode": "te_typed",
                    "params": {"n": 3, "l": TOP - 57, "h": TOP - 7}}))
def test_configs_near_the_float_range_exit_cleanly(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cfg))
        code, out, err = run_in_process([command, "--config", path])
    assert code in (0, 1, 2), (code, err)
    event(f"{command} {cfg.get('mode', '')} spot {cfg.get('spot_check')} exit {code}")
    if code == 2:
        assert out == "" and err.startswith("error: $"), err


def parses(text: str) -> bool:
    """Whether ``text`` is JSON without the constants NaN and +-Infinity."""
    def refuse(name):
        raise ValueError(name)
    try:
        json.loads(text, parse_constant=refuse)
    except ValueError:
        return False
    return True


@st.composite
def structure_documents(draw):
    m, _ = draw(structure_tests.structures())
    doc = json.loads(json.dumps(structure_to_json(m)))
    kind = draw(st.sampled_from(structure_tests.EDITS + structure_tests.MALFORMED))
    event(f"edit {kind}")
    structure_tests.edit_document(draw, doc, kind)
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(structure_documents())
def test_validate_structure_exits_cleanly_and_deterministically(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["validate-structure", path]
        code, out, err = run_in_process(argv)
        assert code in (0, 1, 2), (code, err)
        event(f"validate-structure exit {code}")
        if code == 2:
            assert out == "", out
            assert err.startswith(f"error: {path}: "), err
            if parses(text):
                assert ": $" in err, err
        assert run_in_process(argv) == (code, out, err)

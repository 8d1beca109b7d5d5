"""The grid commands on the integer core against their per-cell oracle.

``sweep`` rows and ``population`` rates read ``closed_form.decide`` on each
grid value's integer ratio, with the parameters checked once per
combination, and print both sides of a row through ``exact.format_ratio``.
``closed_form_oracle`` keeps the former loop, one ``cooperation_condition``
per cell printed through the ``Fraction``-valued report rule; the reports
must match it byte for byte on all four kinds and every non-qre mode.
"""

import contextlib
import io
import json
import os
import tempfile
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form_oracle as oracle
from translucent.cli import main
from translucent.closed_form import checked_params, condition_terms, decide
from translucent.exact import format_number, format_ratio, report_value

ALPHAS = [0, "1/10", "1/4", "1/3", "0.45", "1/2", "2/3", "0.9", 1]
BETAS = [0, "1/10", "1/3", "1/2", "0.7", "9/10", 1]
PARAMS = {
    "pd": {"b": [3, "5/2", "1e3"], "c": [1, "1/3"]},
    # bonus above h - l makes the undercut-by-one condition bind at small alpha
    "td": {"l": 2, "h": [5, 13], "bonus": [8, "5/2", 40]},
    # rho = 1: the closed form holds for every type
    "pgg": {"n": [2, 4], "rho": ["3/4", "0.6", 1]},
    "bertrand": {"n": [2, 3, 5], "l": 2, "h": [3, 10]},
}


def run(command: str, cfg: dict) -> str:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("mode", ["cooperation", "te", "te_typed"])
@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_sweep_rows_are_the_per_cell_oracle(kind, mode):
    cfg = {"kind": kind, "mode": mode, "params": PARAMS[kind],
           "alpha": ALPHAS, "beta": BETAS}
    assert run("sweep", cfg) == oracle.sweep_text(cfg)


def test_the_grids_reach_each_branch():
    # td's undercut-by-one condition is the binding one in some cell, and
    # pgg holds for every type at rho = 1
    checked = checked_params("td", {"l": 2, "h": 13, "bonus": 40})
    undercut = [decide("td", checked, 1, 10, bn, bd)[1:]
                == condition_terms("td", checked, 1, 10, bn, bd)[1]
                for bn, bd in [(1, 2), (9, 10), (1, 1)]]
    assert True in undercut
    checked = checked_params("pgg", {"n": 2, "rho": 1})
    assert all(decide("pgg", checked, 0, 1, bn, 1)[0] for bn in (0, 1))


@pytest.mark.parametrize("mode", ["te", "te_typed"])
def test_te_rows_at_beta_zero_pass(mode):
    # all-defect passes although the cooperation condition fails there
    cfg = {"kind": "pd", "mode": mode, "params": {"b": 3, "c": 1},
           "alpha": [0, "1/2"], "beta": [0]}
    out = run("sweep", cfg)
    assert out == oracle.sweep_text(cfg)
    assert {line.split(",")[4] for line in out.splitlines()[1:]} == {"true"}


fractions = st.fractions(0, 1, max_denominator=40)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_sweeps_are_the_per_cell_oracle(data):
    kind = data.draw(st.sampled_from(sorted(PARAMS)), label="kind")
    mode = data.draw(st.sampled_from(["cooperation", "te", "te_typed"]), label="mode")
    values = st.lists(fractions, min_size=1, max_size=4)
    cfg = {"kind": kind, "mode": mode, "params": PARAMS[kind],
           "alpha": [str(a) for a in data.draw(values, label="alpha")],
           "beta": [str(b) for b in data.draw(values, label="beta")]}
    assert run("sweep", cfg) == oracle.sweep_text(cfg)


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_population_grid_rate_is_the_per_cell_oracle(kind):
    params = {k: v[-1] if isinstance(v, list) else v for k, v in PARAMS[kind].items()}
    cfg = {"kind": kind, "params": params,
           "population": {"grid": {"alpha": ALPHAS, "beta": BETAS}}}
    report = json.loads(run("population", cfg))
    assert report["num_types"] == len(ALPHAS) * len(BETAS)
    assert report["cooperation_rate"] == oracle.report_value(oracle.population_rate(cfg))


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_population_types_rate_is_the_per_cell_oracle(kind):
    params = {k: v[0] if isinstance(v, list) else v for k, v in PARAMS[kind].items()}
    weights = ["1/6", "0.25", "1/12", 0, "1/3", "1/6"]
    types = [{"alpha": a, "beta": b, "weight": w}
             for a, b, w in zip(ALPHAS[::-1], BETAS, weights)]
    cfg = {"kind": kind, "params": params, "population": {"types": types}}
    out = run("population", cfg)
    rate = oracle.population_rate(cfg)
    assert json.loads(out)["cooperation_rate"] == oracle.report_value(rate)
    assert f'"cooperation_rate": {json.dumps(oracle.report_value(rate))}' in out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_population_types_are_the_per_cell_oracle(data):
    kind = data.draw(st.sampled_from(sorted(PARAMS)), label="kind")
    params = {k: data.draw(st.sampled_from(v)) if isinstance(v, list) else v
              for k, v in PARAMS[kind].items()}
    cells = data.draw(st.lists(st.tuples(fractions, fractions,
                                         st.integers(0, 5)), min_size=1, max_size=6))
    total = sum(w for _, _, w in cells)
    if not total:
        return
    types = [{"alpha": str(a), "beta": str(b), "weight": str(F(w, total))}
             for a, b, w in cells]
    cfg = {"kind": kind, "params": params, "population": {"types": types}}
    report = json.loads(run("population", cfg))
    assert report["cooperation_rate"] == oracle.report_value(oracle.population_rate(cfg))


def test_population_weight_sum_message(capsys, tmp_path):
    cfg = {"kind": "pd", "params": {"b": 3, "c": 1},
           "population": {"types": [{"alpha": 1, "beta": 1, "weight": "1/3"}]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["population", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: $.population: weights sum to 0.333333333333, expected 1 within 1e-9\n")


# ---------------------------------------------------------------------------
# the one formatting rule on integer pairs

numerators = st.one_of(
    st.integers(),
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(-50, 50).map(lambda k: k * 10 ** 400),            # past the float range
    st.integers(0, 10 ** 6).map(lambda k: 10 ** 4300 + k),        # past 4300 digits
    st.integers(1, 9).map(lambda k: -k * 10 ** 4301 - 1),
)
denominators = st.one_of(
    st.integers(1, 10 ** 6),
    st.just(1),
    st.integers(0, 10).map(lambda k: 10 ** 400 + k),              # floats of 0
    st.integers(1, 9).map(lambda k: k * 10 ** 4301),
)


@settings(max_examples=300, deadline=None)
@given(numerators, denominators, st.booleans())
def test_format_ratio_is_format_number(n, d, whole):
    if whole:  # an exact integer over an unreduced denominator
        n *= d
    f = F(n, d)
    text = format_ratio(n, d)
    assert text == format_number(f) == oracle.format_number(f)
    assert report_value(f) == oracle.report_value(f)


@pytest.mark.parametrize("n,d,text", [
    (1, 3, "0.333333333333"),
    (6, 3, "2"),
    (0, 7, "0"),
    (1, 10 ** 400, f"1/{10 ** 400}"),                  # its float is 0
    (10 ** 400, 3, f"{10 ** 400}/3"),                  # past the float range
    (2 * 10 ** 400, 2 * 3, f"{10 ** 400}/3"),          # in lowest terms
    (10 ** 4301, 1, str(Decimal(10 ** 4301))),         # past 4300 digits
    (-(10 ** 4301), 10 ** 4301, "-1"),
], ids=["third", "whole", "zero", "float-0", "past-float", "lowest-terms", "past-4300",
        "whole-past-4300"])
def test_format_ratio_cases(n, d, text):
    assert format_ratio(n, d) == text == format_number(F(n, d))


def test_float_inputs_format_as_their_exact_value():
    # qre prints its float probabilities through format_number
    for x in (0.0, 1.0, 0.1, 1 / 3, 5e-324, 1.7976931348623157e308):
        assert format_number(x) == oracle.format_number(x)

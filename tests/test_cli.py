"""End-to-end tests for the command-line front end."""

import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import translucent
from translucent import equilibrium as eq
from translucent.cli import main
from translucent.counterfactual import (build_nash_structure, structure_from_json,
                                        structure_to_json)
from translucent.exact import InputError, _too_long
from translucent.games import MixedProfile, make_prisoners_dilemma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheck:
    def test_boundary_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "alpha": 0.5, "beta": 0.5})
        code, out, _ = run(capsys, "check", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        assert report["closed_form"]["rational"] is True
        assert report["engine"]["rational"] is True
        assert report["engine"]["eu_cooperate"] == 1
        assert report["engine"]["eu_best_deviation"] == 1
        assert report["agreement"] is True
        assert "note" not in report

    def test_pgg_spec_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 4, "rho": 0.5}, "grid": 10,
            "alpha": 0.4, "beta": 0.9})
        code, out, _ = run(capsys, "check", "--config", cfg)
        report = json.loads(out)
        assert code == 0
        assert report["engine"]["eu_cooperate"] == 1.85
        assert report["engine"]["eu_best_deviation"] == 1.81
        assert report["closed_form"]["rational"] is True

    def test_opaque_note(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "td", "params": {"l": 2, "h": 20, "bonus": 3},
            "alpha": 0, "beta": 0.9})
        code, out, _ = run(capsys, "check", "--config", cfg)
        report = json.loads(out)
        assert report["note"] == "opaque"
        assert report["closed_form"]["rational"] is False

    def test_missing_key_is_schema_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "alpha": 0.5})
        code, _, err = run(capsys, "check", "--config", cfg)
        assert code == 2
        assert "$.beta" in err

    def test_missing_param_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 4}, "alpha": 0.5, "beta": 0.5})
        code, _, err = run(capsys, "check", "--config", cfg)
        assert code == 2
        assert "$.params.c" in err

    def test_bad_params_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 1, "c": 2}, "alpha": 0.5, "beta": 0.5})
        code, _, err = run(capsys, "check", "--config", cfg)
        assert code == 2
        assert "benefit" in err

    def test_budget_refuses_before_building(self, tmp_path, capsys):
        import time

        cfg = write_config(tmp_path, "c.json", {
            "kind": "td", "params": {"l": 2, "h": 128000, "bonus": 3},
            "alpha": 0.5, "beta": 0.5})
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--config", cfg, "--budget", "10")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == ("error: $.params: the engine's payoff table needs 511996 entry "
                       "positions (own strategies x players^2), exceeding budget 10\n")

    @pytest.mark.parametrize("kind,params,grid,size", [
        ("pd", {"b": 4, "c": 1}, None, 8),
        ("pgg", {"n": 4, "rho": 0.5}, 10, 176),
        ("bertrand", {"n": 3, "l": 2, "h": 9}, None, 72),
        ("td", {"l": 2, "h": 20, "bonus": 3}, None, 76),
    ])
    def test_budget_counts_own_strategies_times_players_squared(
            self, tmp_path, capsys, kind, params, grid, size):
        # the engine builds and hashes an n-tuple for each of own x n entries
        doc = {"kind": kind, "params": params, "alpha": 0.5, "beta": 0.5}
        if grid is not None:
            doc["grid"] = grid
        cfg = write_config(tmp_path, "c.json", doc)
        code, _, _ = run(capsys, "check", "--config", cfg, "--budget", str(size))
        assert code == 0
        code, _, err = run(capsys, "check", "--config", cfg, "--budget", str(size - 1))
        assert code == 2
        assert err.startswith("error: $.params: ")
        assert f"needs {size} entry positions (own strategies x players^2)" in err


class TestSweep:
    def pd_sweep_config(self, tmp_path, **extra):
        payload = {
            "kind": "pd", "mode": "cooperation",
            "params": {"b": [2, 4, 8], "c": 1},
            "alpha": {"start": 0, "stop": 1, "step": 0.1},
            "beta": {"start": 0, "stop": 1, "step": 0.1},
        }
        payload.update(extra)
        return write_config(tmp_path, "s.json", payload)

    def test_header_and_row_count(self, tmp_path, capsys):
        cfg = self.pd_sweep_config(tmp_path)
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,param_snapshot,alpha,beta,rational,binding,threshold"
        assert len(lines) == 1 + 3 * 11 * 11

    def test_rows_in_lexicographic_grid_order(self, tmp_path, capsys):
        cfg = self.pd_sweep_config(tmp_path)
        _, out, _ = run(capsys, "sweep", "--config", cfg)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        keys = [(r[1], F(r[2]), F(r[3])) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2]))

    def test_feasible_count_nondecreasing_in_benefit(self, tmp_path, capsys):
        cfg = self.pd_sweep_config(tmp_path)
        _, out, _ = run(capsys, "sweep", "--config", cfg)
        counts = {}
        for line in out.strip().split("\n")[1:]:
            fields = line.split(",")
            counts[fields[1]] = counts.get(fields[1], 0) + (fields[4] == "true")
        ordered = [counts["b=2;c=1"], counts["b=4;c=1"], counts["b=8;c=1"]]
        assert ordered == sorted(ordered)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        cfg = self.pd_sweep_config(tmp_path)
        _, out, _ = run(capsys, "sweep", "--config", cfg, "--out", str(out_path))
        assert out_path.read_text() == out

    def test_byte_determinism(self, tmp_path, capsys):
        cfg = self.pd_sweep_config(tmp_path)
        _, first, _ = run(capsys, "sweep", "--config", cfg)
        _, second, _ = run(capsys, "sweep", "--config", cfg)
        assert first == second

    def test_bertrand_feasible_count_nonincreasing_in_players(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "bertrand", "mode": "cooperation",
            "params": {"n": [2, 3, 4, 5, 6], "l": 2, "h": 20},
            "alpha": {"start": 0, "stop": 1, "step": 0.1},
            "beta": {"start": 0, "stop": 1, "step": 0.1}})
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        counts = {}
        for line in out.strip().split("\n")[1:]:
            fields = line.split(",")
            counts[fields[1]] = counts.get(fields[1], 0) + (fields[4] == "true")
        ordered = [counts[f"n={n};l=2;h=20"] for n in (2, 3, 4, 5, 6)]
        assert ordered == sorted(ordered, reverse=True)

    def test_td_feasible_count_nonincreasing_in_bonus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "td", "mode": "cooperation",
            "params": {"l": 2, "h": 20, "bonus": [1, 4, 9, 16]},
            "alpha": {"start": 0, "stop": 1, "step": 0.1},
            "beta": {"start": 0, "stop": 1, "step": 0.1}})
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        counts = {}
        for line in out.strip().split("\n")[1:]:
            fields = line.split(",")
            counts[fields[1]] = counts.get(fields[1], 0) + (fields[4] == "true")
        ordered = [counts[f"l=2;h=20;bonus={b}"] for b in (1, 4, 9, 16)]
        assert ordered == sorted(ordered, reverse=True)

    def test_spot_check_clean_for_pd(self, tmp_path, capsys):
        cfg = self.pd_sweep_config(tmp_path, spot_check=True)
        code, _, err = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        assert "mismatch" not in err

    def test_spot_check_surfaces_bertrand_divergence(self, tmp_path, capsys):
        # low alpha, high beta: the tie-kernel condition accepts points the
        # engine rejects because undercutting to H-1 pays more
        cfg = write_config(tmp_path, "s.json", {
            "kind": "bertrand", "mode": "cooperation", "spot_check": True,
            "params": {"n": 2, "l": 2, "h": [20]},
            "alpha": [0, 0.05, 0.1], "beta": [0.9, 0.95, 1.0],
        })
        code, _, err = run(capsys, "sweep", "--config", cfg)
        assert code == 1
        assert "mismatch" in err

    @pytest.mark.parametrize("mode", ["cooperation", "te"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_spot_check_must_be_a_json_boolean(self, tmp_path, capsys, mode, value):
        # "false" once turned the spot check on, as any truthy value did
        cfg = self.pd_sweep_config(tmp_path, mode=mode, spot_check=value)
        assert run(capsys, "sweep", "--config", cfg) == (
            2, "", f"error: $.spot_check: expected true or false, got {value!r}\n")

    def test_empty_grid_list_refused(self, tmp_path, capsys):
        cfg = self.pd_sweep_config(tmp_path, params={"b": [], "c": 1})
        assert run(capsys, "sweep", "--config", cfg) == (
            2, "", "error: $.params.b: grid list is empty\n")

    @pytest.mark.parametrize("step", [0, -0.1])
    def test_range_step_must_be_positive(self, tmp_path, capsys, step):
        cfg = self.pd_sweep_config(tmp_path, alpha={"start": 0, "stop": 1, "step": step})
        assert run(capsys, "sweep", "--config", cfg) == (
            2, "", "error: $.alpha.step: step must be positive\n")

    def test_te_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "pd", "mode": "te", "params": {"b": 4, "c": 1},
            "beta": {"start": 0, "stop": 1, "step": 0.25}})
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 5
        assert rows[0][2] == ""  # no alpha column value in untyped mode
        by_beta = {F(r[3]): r[4] for r in rows}
        assert by_beta[F(0)] == "true"       # all-defect escape
        assert by_beta[F(1, 4)] == "true"    # 0.25 * 4 >= 1, boundary
        assert by_beta[F(1, 2)] == "true"

    def test_te_typed_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "pgg", "mode": "te_typed", "params": {"n": 3, "rho": 0.6},
            "alpha": [0.5], "beta": [0.25, 0.9]})
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        # the (N-1)-factor reading decides the column:
        # 0.5*0.6*0.25*2 = 0.15 < 0.4 but 0.5*0.6*0.9*2 = 0.54 >= 0.4
        assert [r[4] for r in rows] == ["false", "true"]

    def test_qre_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "pd", "mode": "qre", "params": {"b": 4, "c": 1},
            "lambda": {"start": 0, "stop": 2, "step": 0.5}})
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 5
        assert all(r[4] == "true" for r in rows)  # sigma(C) <= 1/2 throughout
        assert F(rows[0][3]) == F(1, 2)  # uniform at lambda = 0


class TestGridBudget:
    """``--budget`` bounds a sweep's rows and a population grid's types
    before any grid value is built; the refusal names the largest grid."""

    HUGE = {"start": 0, "stop": 1, "step": 1e-7}  # 10^7 + 1 exact points

    @pytest.mark.parametrize("command,payload,message", [
        ("sweep", {"alpha": HUGE, "beta": 0.5},
         "$.alpha: 10000001 values make 10000001 sweep rows, exceeding budget 10"),
        ("population", {"population": {"grid": {"alpha": HUGE, "beta": [0.5, 1]}}},
         "$.population.grid.alpha: 10000001 values make 20000002 types, "
         "exceeding budget 10"),
    ])
    def test_huge_range_refuses_before_building(self, tmp_path, capsys, command,
                                                payload, message):
        import time

        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, **payload})
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--config", cfg, "--budget", "10")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    QUARTERS = {"start": 0, "stop": 1, "step": 0.25}  # 5 points

    @pytest.mark.parametrize("command,payload,size", [
        ("sweep", {"params": {"b": [2, 4], "c": 1}, "alpha": QUARTERS,
                   "beta": [0.5, 1]}, 20),
        ("population", {"params": {"b": 4, "c": 1}, "population": {
            "grid": {"alpha": QUARTERS, "beta": [0.5, 1]}}}, 10),
        ("population", {"params": {"b": 4, "c": 1}, "population": {
            "types": [{"alpha": 0.5, "beta": 0.5, "weight": 1}]}}, 1),
    ])
    def test_budget_is_the_exact_count(self, tmp_path, capsys, command,
                                       payload, size):
        cfg = write_config(tmp_path, "c.json", {"kind": "pd", **payload})
        code, out, _ = run(capsys, command, "--config", cfg, "--budget", str(size))
        assert code == 0
        if command == "sweep":
            assert len(out.split()) == 1 + size
        code, _, err = run(capsys, command, "--config", cfg,
                           "--budget", str(size - 1))
        assert code == 2
        assert err.startswith("error: $.")
        assert f"values make {size} " in err

    def test_types_are_counted_before_any_is_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 4, "c": 1},
            "population": {"types": ["not a type"] * 3}})
        assert run(capsys, "population", "--config", cfg, "--budget", "2") == (
            2, "", "error: $.population.types: 3 values make 3 types, "
                   "exceeding budget 2\n")

    @pytest.mark.parametrize("n,ok", [
        ({"start": 2, "stop": 4, "step": 1}, True),
        ({"start": 2, "stop": 2, "step": 0.5}, True),  # one value: 2
        ({"start": 2, "stop": 3, "step": 0.5}, False),
        ({"start": 2.5, "stop": 4, "step": 1}, False),
    ])
    def test_integer_range(self, tmp_path, capsys, n, ok):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "bertrand", "params": {"n": n, "l": 2, "h": 10},
            "alpha": 0.5, "beta": 0.5})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        if ok:
            assert code == 0
            assert [row.split(",")[1] for row in out.split()[1:]] == [
                f"n={k};l=2;h=10" for k in range(2, n["stop"] + 1)]
        else:
            assert (code, err) == (2, "error: $.params.n: expected an integer\n")


class TestStrategyBudget:
    """``qre`` and ``equilibrium`` compare their engine's count with
    ``--budget`` before the game is built: own^n profiles for the QRE payoff
    tensor, own x C(own + n - 2, n - 1) floor payoffs for coherence.  The
    refusal names the key that sets each player's strategy count."""

    HUGE = 10 ** 7  # contribution levels

    @pytest.mark.parametrize("top_level", [True, False])
    @pytest.mark.parametrize("command,extra,count", [
        ("qre", {"lambda": 1}, "10000001^3 profiles"),
        ("equilibrium", {"betas": [0.5] * 3}, "10000001 x C(10000002, 2) floor payoffs"),
    ])
    def test_huge_pgg_grid_refuses_before_building(self, tmp_path, capsys,
                                                   command, extra, count,
                                                   top_level):
        import time

        params = {"n": 3, "rho": 0.6}
        if top_level:
            payload = {"kind": "pgg", "params": params, "grid": self.HUGE}
        else:
            payload = {"kind": "pgg", "params": {**params, "grid": self.HUGE}}
        cfg = write_config(tmp_path, "c.json", {**payload, **extra})
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--config", cfg, "--budget", "10")
        assert time.perf_counter() - start < 1
        where = "$.grid" if top_level else "$.params.grid"
        assert (code, out, err) == (
            2, "", f"error: {where}: 10000001 strategies for each of 3 players "
                   f"make {count}, exceeding budget 10\n")

    def test_many_players_refuse_without_the_power(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "bertrand", "params": {"n": 200, "l": 2, "h": 12},
            "lambda": 1})
        code, out, err = run(capsys, "qre", "--config", cfg, "--budget", "10")
        assert (code, out, err) == (
            2, "", "error: $.params: 11 strategies for each of 200 players "
                   "make 11^200 profiles, exceeding budget 10\n")

    @pytest.mark.parametrize("kind,params,profiles,floors", [
        ("pd", {"b": 4, "c": 1}, 4, 4),                       # 2 x C(2, 1)
        ("pgg", {"n": 3, "rho": 0.6, "grid": 2}, 27, 18),     # 3 x C(4, 2)
        ("bertrand", {"n": 3, "l": 2, "h": 5}, 64, 40),       # 4 x C(5, 2)
        ("td", {"l": 2, "h": 5, "bonus": 2}, 16, 16),         # 4 x C(4, 1)
    ])
    @pytest.mark.parametrize("command", ["qre", "equilibrium", "sweep"])
    def test_budget_is_the_engine_count(self, tmp_path, capsys, command, kind,
                                        params, profiles, floors):
        # a qre sweep counts each game's profiles as qre does; equilibrium
        # counts the floor search, every own strategy against each opponent
        # multiset; every player plays pure, so the multiset laws (n - 1
        # terms per player) stay below the floors
        n = params.get("n", 2)
        cfg = write_config(tmp_path, "c.json", {
            "kind": kind, "params": params, "lambda": 1, "betas": [1] * n,
            "mode": "qre"})
        size = floors if command == "equilibrium" else profiles
        code, _, _ = run(capsys, command, "--config", cfg, "--budget", str(size))
        assert code == 0
        code, out, err = run(capsys, command, "--config", cfg,
                             "--budget", str(size - 1))
        assert (code, out) == (2, "")
        assert err.startswith("error: $.params")
        assert err.endswith(f"exceeding budget {size - 1}\n")

    def test_many_mixing_players_finish(self, tmp_path, capsys):
        # coherence reads each player's multiset law (at most n terms), not
        # the 2^29 joint support of the others
        import time

        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 30, "rho": 0.5}, "grid": 1,
            "betas": ["1/2"] * 30})
        start = time.perf_counter()
        code, out, err = run(capsys, "equilibrium", "--config", cfg)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["agreement"] is True
        assert report["coherent"] is report["te_condition"]

    def test_many_pure_players_finish(self, tmp_path, capsys):
        # every player shares each strategy's floor: two searches of 500
        # multisets, not one per player
        import time

        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 500, "rho": 0.5}, "grid": 1,
            "betas": [1] * 500})
        start = time.perf_counter()
        code, out, err = run(capsys, "equilibrium", "--config", cfg)
        elapsed = time.perf_counter() - start
        if code == 2:
            assert elapsed < 1 and err.startswith("error: $.")
        else:
            assert elapsed < 5
            assert (code, err) == (0, "")
            assert json.loads(out)["agreement"] is True

    @pytest.mark.parametrize("betas,mixing,terms", [
        (["1/2"] * 5, 5, 100),                # 4 * (5 + 5 * 4)
        (["1/2"] * 4 + [1], 4, 84),           # 4 * (5 + 4 * 4)
        (["1/2"] * 3 + [0, 1], 3, 68),        # 4 * (5 + 3 * 4)
        ([0, 1, 1, 0, 1], 0, 20),             # 4 * 5: one term per player
    ])
    def test_budget_is_the_multiset_law_count(self, tmp_path, capsys, betas,
                                              mixing, terms):
        # 2 x 5 floor payoffs, so the multiset laws are what binds
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 5, "rho": 0.5}, "grid": 1,
            "betas": betas})
        code, _, _ = run(capsys, "equilibrium", "--config", cfg,
                         "--budget", str(terms))
        assert code == 0
        code, out, err = run(capsys, "equilibrium", "--config", cfg,
                             "--budget", str(terms - 1))
        assert (code, out, err) == (
            2, "", f"error: $.betas: {mixing} of 5 players mix, making {terms} "
                   f"multiset-law terms over all players, exceeding budget "
                   f"{terms - 1}\n")

    @pytest.mark.parametrize("n,betas", [
        (5, [1] * 5),                         # 4 * 5 law terms
        (3, ["1/2", 1, 1]),                   # 2 * (3 + 2) law terms
        (4, ["1/3", 1, 1, "2/3"]),            # 3 * (4 + 2 * 3) law terms
    ])
    def test_budget_is_the_tie_kernel_count(self, tmp_path, capsys, n, betas):
        # bertrand (n, 2, 3): 2 x n floor payoffs and the multiset laws stay
        # below the tie kernel's word products, so the kernel binds
        betas_exact = [F(b) for b in betas]
        words = eq._tie_kernel_words(n, [F(1, 2)] * n, betas_exact)
        mixing = sum(0 < b < 1 for b in betas_exact)
        assert words > max(2 * n, (n - 1) * (n + mixing * (n - 1)))
        cfg = write_config(tmp_path, "c.json", {
            "kind": "bertrand", "params": {"n": n, "l": 2, "h": 3},
            "betas": betas, "alphas": ["1/2"] * n})
        code, _, _ = run(capsys, "equilibrium", "--config", cfg,
                         "--budget", str(words))
        assert code == 0
        code, out, err = run(capsys, "equilibrium", "--config", cfg,
                             "--budget", str(words - 1))
        assert (code, out, err) == (
            2, "", f"error: $.params.n: the tie kernel over {n} players takes "
                   f"{words} word products, exceeding budget {words - 1}\n")

    def test_a_zero_beta_leaves_no_tie_kernel(self):
        # both conditions fail at once beside a positive beta, and all-defect
        # passes, before any kernel product
        assert eq._tie_kernel_words(4, [F(1, 2)] * 4, [F(0), F(1), F(1), F(1)]) == 0
        assert eq._tie_kernel_words(4, None, [F(0)] * 4) == 0

    @pytest.mark.parametrize("n,refusal", [
        (200, "$.params.n: the tie kernel over 200 players takes "),
        (3000, "$.betas: 3000 of 3000 players mix, making "),
    ])
    def test_coprime_tie_kernel_is_refused(self, tmp_path, capsys, n, refusal):
        # every alpha and beta 1 - 1/(10^6 + k): the kernel's integers grow
        # with n, so at n = 200 (0.3 s of products; 7,960,000 law terms and
        # the old count's n + n^2 products are within the default budget)
        # the kernel exits 2 before anything is built; at n = 3000 the law
        # terms refuse first
        values = [f"{10 ** 6 + k - 1}/{10 ** 6 + k}" for k in range(n)]
        cfg = write_config(tmp_path, "c.json", {
            "kind": "bertrand", "params": {"n": n, "l": 2, "h": 3},
            "betas": values, "alphas": values})
        start = time.perf_counter()
        code, out, err = run(capsys, "equilibrium", "--config", cfg)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: " + refusal)
        assert err.endswith(" exceeding budget 10000000\n")
        assert n + n * n < 10_000_000

    KERNEL_SHAPES = {
        "coprime": lambda n: ([1 - F(1, 10 ** 6 + k) for k in range(n)],) * 2,
        "pure": lambda n: ([F(1, 2)] * n, [F(1)] * n),
        "halves": lambda n: ([F(1, 3)] * n, [F(1, 2)] * n),
        "untyped-coprime": lambda n: (None, [1 - F(1, 10 ** 6 + k) for k in range(n)]),
    }

    @pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
    @pytest.mark.parametrize("budget", [10 ** 3, 10 ** 4, 10 ** 5])
    def test_tie_kernel_work_is_within_the_budget(self, monkeypatch, shape, budget):
        # counters, not clocks: the kernel's helpers, products and
        # factorials are replaced by counting copies that add W(x) * W(y)
        # word products for each product x * y (W(bits) = bits // 64 + 1),
        # at the largest n whose count the budget admits
        words = [0]

        def w(x):
            return abs(x).bit_length() // 64 + 1

        def mul(x, y):
            words[0] += w(x) * w(y)
            return x * y

        def expand(values):
            cs = [1]
            for v in values:
                p, q = v.as_integer_ratio()
                cs = [c + d if p == q else mul(q, c) + mul(p, d)
                      for c, d in zip(cs + [0], [0, *cs])]
            return cs

        def leave_one_out(cs, p, q):
            rest, r = [], 0
            for c in cs[:-1]:
                words[0] += w(c) * w(q)  # the division
                r = (c - mul(p, r)) // q
                rest.append(r)
            return rest

        def tie_sum(cs, gn, gd, n):
            if not gn:
                return mul(mul(cs[0], factorial(n - 1)), gd ** (n - 1))
            total, f = 0, 1
            for k, c in enumerate(cs):
                if k:
                    total, f = mul(mul(total, gd), n - k), mul(mul(f, gn), k)
                total += mul(c, f)
            return total

        def product(values):
            acc = 1
            for v in values:
                acc = mul(acc, v)
            return acc

        def factorial(m):
            return product(range(2, m + 1))

        for name, fn in (("_expand", expand), ("_leave_one_out", leave_one_out),
                         ("_tie_sum", tie_sum), ("prod", product), ("factorial", factorial)):
            monkeypatch.setattr(eq, name, fn)
        make = self.KERNEL_SHAPES[shape]
        n = 2
        while eq._tie_kernel_words(n + 1, *make(n + 1)) <= budget:
            n += 1
        alphas, betas = make(n)
        assert eq._tie_kernel_words(n, alphas, betas) <= budget
        params = {"n": n, "l": 2, "h": 3}
        expected = (eq.te_condition("bertrand", params, betas), alphas is not None
                    and eq.te_condition_typed("bertrand", params, alphas, betas).holds)
        monkeypatch.undo()
        assert expected == (eq.te_condition("bertrand", params, betas), alphas is not None
                            and eq.te_condition_typed("bertrand", params, alphas, betas).holds)
        # the count bounds the work, and tracks it within a factor of 10
        assert budget // 10 <= words[0] <= budget

    def test_large_bertrand_typed_runs_fast(self, tmp_path, capsys):
        # 1,001,000 kernel products, within the default budget: the e_k are
        # built once, and the players, all alike, are judged once
        import time

        n = 1000
        cfg = write_config(tmp_path, "c.json", {
            "kind": "bertrand", "params": {"n": n, "l": 2, "h": 3},
            "betas": [1] * n, "alphas": [0.5] * n})
        start = time.perf_counter()
        code, out, err = run(capsys, "equilibrium", "--config", cfg)
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["te_condition"], report["coherent"],
                report["te_condition_typed"]["holds"]) == (True, True, False)

    def test_large_grid_refuses_the_floor_search(self, tmp_path, capsys):
        # 101 own strategies, each against C(103, 3) = 176,851 opponent
        # multisets: 17.9M floor payoffs, refused before the game is built
        import time

        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 4, "rho": 0.5}, "grid": 100,
            "betas": ["1/2"] * 4})
        start = time.perf_counter()
        code, out, err = run(capsys, "equilibrium", "--config", cfg)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (
            2, "", "error: $.grid: 101 strategies for each of 4 players make "
                   "101 x C(103, 3) floor payoffs, exceeding budget 10000000\n")

    def test_many_mixing_players_refuse_before_building(self, tmp_path, capsys):
        import time

        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 500, "rho": 0.5}, "grid": 1,
            "betas": ["1/2"] * 500})
        start = time.perf_counter()
        code, out, err = run(capsys, "equilibrium", "--config", cfg)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (
            2, "", "error: $.betas: 500 of 500 players mix, making 124750000 "
                   "multiset-law terms over all players, exceeding budget 10000000\n")


class TestNamedPaths:
    PD = {"kind": "pd", "params": {"b": 4, "c": 1}}
    PGG = {"kind": "pgg", "params": {"n": 3, "rho": 0.6}, "grid": 2}

    @pytest.mark.parametrize("command,payload,message", [
        ("qre", {**PD, "lambda": 1, "damping": "x"},
         "$.damping: expected a number, got 'x'"),
        ("qre", {**PD, "lambda": 1, "tol": [1]},
         "$.tol: expected a number, got [1]"),
        ("equilibrium", {**PGG, "betas": [0.5] * 3, "alphas": [0.5, 0.5]},
         "$.alphas: expected one value per player (3), got 2"),
        ("equilibrium", {**PD, "betas": [0.5]},
         "$.betas: expected one value per player (2), got 1"),
        ("qre", {**PD, "lambda": -1}, "$.lambda: lambda must be nonnegative, got -1"),
        ("qre", {**PD, "lambda": 1, "damping": 2},
         "$.damping: damping must lie in (0, 1], got 2"),
        ("qre", {**PD, "lambda": 1, "damping": 0},
         "$.damping: damping must lie in (0, 1], got 0"),
        ("sweep", {**PD, "mode": "qre", "lambda": [1, -1]},
         "$.lambda[1]: lambda must be nonnegative, got -1"),
        ("sweep", {**PD, "mode": "qre", "lambda": -0.5},
         "$.lambda: lambda must be nonnegative, got -1/2"),
        ("check", {"kind": "pd", "params": {"b": 10 ** 400, "c": 1},
                   "alpha": 0.5, "beta": 0.5},
         "$.params.b: expected a number of magnitude at most 1.79769313486e+308"),
        ("qre", {**PD, "lambda": -10 ** 400},
         "$.lambda: expected a number of magnitude at most 1.79769313486e+308"),
        ("qre", {**PD, "lambda": 1, "tol": 10 ** 400},
         "$.tol: expected a number of magnitude at most 1.79769313486e+308"),
        # a nonzero number whose float is 0.0 would print as 0
        ("check", {"kind": "pd", "params": {"b": "1e-400", "c": 1},
                   "alpha": 0.5, "beta": 0.5},
         "$.params.b: expected 0 or a number of magnitude above 2.47032822921e-324"),
        ("check", {**PD, "alpha": "-1e-400", "beta": 0.5},
         "$.alpha: expected 0 or a number of magnitude above 2.47032822921e-324"),
        ("qre", {**PD, "lambda": "1e-400"},
         "$.lambda: expected 0 or a number of magnitude above 2.47032822921e-324"),
        ("check", {**PD, "kind": ["pd"], "alpha": 0.5, "beta": 0.5},
         "$.kind: unknown kind ['pd']"),
    ])
    def test_bad_value_names_its_path(self, tmp_path, capsys, command, payload,
                                      message):
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, err = run(capsys, command, "--config", cfg)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text,message", [
        ('"params": {"b": 1e-400, "c": 1e-401}, "alpha": 0.5',
         "$.params.b: expected 0 or a number of magnitude above 2.47032822921e-324"),
        ('"params": {"b": 4, "c": 1}, "alpha": 1e-400',
         "$.alpha: expected 0 or a number of magnitude above 2.47032822921e-324"),
        ('"params": {"b": 4, "c": 1}, "alpha": -0.0', None),
        ('"params": {"b": 4, "c": 1}, "alpha": 0', None),
        ('"params": {"b": 4e-323, "c": 5e-324}, "alpha": 5e-324', None),
    ])
    def test_numbers_that_print_as_zero(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        path.write_text('{"kind": "pd", %s, "beta": 0.5}' % text)
        code, out, err = run(capsys, "check", "--config", str(path))
        if message is not None:
            assert (code, out, err) == (2, "", f"error: {message}\n")
        else:
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert 0 < report["params"]["b"] and 0 < report["params"]["c"]
            assert report["alpha"] == float(json.loads("{%s}" % text)["alpha"])

    @pytest.mark.parametrize("command,payload,message", [
        # a range key reads like every other required key
        ("sweep", {**PD, "alpha": 1, "beta": {"start": 0, "stop": 1}},
         "$.beta.step: required key is missing"),
        ("population", {**PD, "population": {"grid": {
            "alpha": {"stop": 1, "step": 1}, "beta": 1}}},
         "$.population.grid.alpha.start: required key is missing"),
        # a decimal in a message reads as written
        ("check", {**PD, "kind": 0.5, "alpha": 0.5, "beta": 0.5},
         "$.kind: unknown kind 0.5"),
        ("qre", {**PD, "lambda": [0.5]}, "$.lambda: expected a number, got [0.5]"),
        # each weight is a float, their sum is past the float range
        ("population", {**PD, "population": {"types": [
            {"alpha": 0.5, "beta": 0.5, "weight": 1e308}] * 2}},
         f"$.population: weights sum to {2 * 10 ** 308}, expected 1 within 1e-9"),
        ("population", {**PD, "population": {"alpha": 1}},
         "$.population: expected either 'types' or 'grid'"),
        ("population", {**PD, "population": {"types": []}},
         "$.population.types: expected a nonempty list"),
        ("population", {**PD, "population": {"types": [
            {"alpha": 1, "beta": 1, "weight": 2}, {"alpha": 0, "beta": 0, "weight": -1}]}},
         "$.population: weights must be nonnegative"),
    ])
    def test_reader_messages(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, "c.json", payload)
        assert run(capsys, command, "--config", cfg) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command,payload,message", [
        ("check", {"kind": "pgg", "params": {"n": 1, "rho": 0.6},
                   "alpha": 0.5, "beta": 0.5},
         "$.params: public goods game needs n >= 2 players"),
        ("population", {"kind": "pd", "params": {"b": 1, "c": 1},
                        "population": {"types": [{"alpha": 1, "beta": 1,
                                                  "weight": 1}]}},
         "$.params: benefit must exceed cost, got b=1 <= c=1"),
        ("qre", {"kind": "td", "params": {"l": 3, "h": 3, "bonus": 2},
                 "lambda": 1},
         "$.params: claim bounds must satisfy 0 < l < h, got l=3, h=3"),
        ("sweep", {"kind": "bertrand", "mode": "te",
                   "params": {"n": 2, "l": [2, 1], "h": 5}, "beta": 0.5},
         "$.params: price floor must be at least 2, got 1: with a floor of 0 "
         "or 1 the pure Nash equilibrium is not unique"),
        # the closed forms admit rho = 1, the game does not
        ("equilibrium", {"kind": "pgg", "params": {"n": 2, "rho": 1},
                         "betas": [1, 1]},
         "$.params: marginal return must lie strictly between 1/2 and 1, "
         "got 1; at the endpoints the Nash/welfare profiles are not unique"),
        ("check", {**PD, "alpha": 2, "beta": 0.5},
         "$.alpha: alpha must lie in [0, 1], got 2"),
        ("equilibrium", {**PD, "betas": [0.5, 1.5]},
         "$.betas[1]: beta must lie in [0, 1], got 3/2"),
        ("equilibrium", {**PD, "betas": [0.5, 0.5], "alphas": [-1, 0]},
         "$.alphas[0]: alpha must lie in [0, 1], got -1"),
        ("population", {**PD, "population": {"types": [
            {"alpha": 1, "beta": 1, "weight": 0.5},
            {"alpha": 1, "beta": 2, "weight": 0.5}]}},
         "$.population.types[1].beta: beta must lie in [0, 1], got 2"),
        ("population", {**PD, "population": {"grid": {
            "alpha": [0, 3], "beta": 1}}},
         "$.population.grid.alpha: alpha must lie in [0, 1], got 3"),
        ("sweep", {**PD, "alpha": 1, "beta": {"start": 0, "stop": 2, "step": 1}},
         "$.beta: beta must lie in [0, 1], got 2"),
    ])
    def test_domain_error_names_its_path(self, tmp_path, capsys, command,
                                         payload, message):
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, err = run(capsys, command, "--config", cfg)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_player_count_is_checked_before_the_lists(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 1, "rho": 0.6}, "betas": [0.5, 0.5]})
        assert run(capsys, "equilibrium", "--config", cfg) == (
            2, "", "error: $.params: public goods game needs n >= 2 players\n")

    def test_damping_and_tol_take_any_number(self, tmp_path, capsys):
        outs = []
        for extra in ({}, {"damping": 0.5, "tol": 1e-10},
                      {"damping": "1/2", "tol": "1e-10"}):
            cfg = write_config(tmp_path, "c.json", {**self.PD, "lambda": 2, **extra})
            code, out, _ = run(capsys, "qre", "--config", cfg)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]


class TestNonFiniteConstants:
    """Python's json reads NaN, Infinity and -Infinity; no config or
    structure document may hold them."""

    CONFIGS = {
        "check": '{"kind": "pd", "params": {"b": %s, "c": 1}, '
                 '"alpha": 0.5, "beta": 0.5}',
        "sweep": '{"kind": "pd", "params": {"b": 4, "c": 1}, '
                 '"alpha": [0.5], "beta": {"start": 0, "stop": %s, "step": 0.5}}',
        "equilibrium": '{"kind": "pd", "params": {"b": 4, "c": 1}, '
                       '"betas": [0.5, %s]}',
        "population": '{"kind": "pd", "params": {"b": 4, "c": 1}, "population": '
                      '{"types": [{"alpha": 0.5, "beta": 0.5, "weight": %s}]}}',
        "qre": '{"kind": "pd", "params": {"b": 4, "c": 1}, "lambda": %s}',
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_config_constant_exits_2(self, tmp_path, capsys, command, constant):
        path = tmp_path / "c.json"
        path.write_text(self.CONFIGS[command] % constant)
        assert run(capsys, command, "--config", str(path)) == (
            2, "", f"error: {path}: the JSON constant {constant} is not allowed; "
                   "every number must be finite\n")

    def test_structure_constant_exits_2(self, tmp_path, capsys):
        doc = TestValidateStructure().make_structure_doc()
        doc["beliefs"][3]["dist"] = {"3": float("inf")}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate-structure", str(path)) == (
            2, "", f"error: {path}: the JSON constant Infinity is not allowed; "
                   "every number must be finite\n")


class TestColdImports:
    """A cold run imports only its own command's modules: the closed-form
    commands (a cooperation sweep without spot check, te and te_typed
    sweeps, ``population``) load only ``exact`` and ``closed_form`` behind
    the CLI, ``validate-structure`` loads no ``games``, ``equilibrium`` (the
    bertrand tie kernel included) loads no beliefs, ``qre`` loads no
    beliefs, counterfactual or equilibrium, and no command loads
    ``dataclasses``."""

    GOLDEN = Path(__file__).with_name("golden")
    BASE = {"translucent", "translucent.cli", "translucent.closed_form",
            "translucent.exact"}
    RUN = ("import contextlib, io, json, sys\n"
           "from translucent.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    code = main(sys.argv[1:])\n"
           "print(json.dumps([code, sorted(m for m in sys.modules\n"
           "    if m in ('numpy', 'dataclasses') or m.split('.')[0] == 'translucent')]))")

    def cold(self, *args) -> tuple:
        src = os.path.dirname(os.path.dirname(translucent.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, *args], capture_output=True,
                             text=True, env=env, cwd=self.GOLDEN, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    @pytest.mark.parametrize("case,changes,loaded", [
        ("check_td", {}, {"beliefs", "games"}),
        # the spot check's engine
        ("sweep_td_cooperation", {}, {"beliefs", "games"}),
        ("sweep_td_cooperation", {"spot_check": False}, set()),
        ("sweep_bertrand_te", {}, set()),
        ("sweep_pgg_te_typed", {}, set()),
        ("population_grid", {}, set()),
        ("equilibrium_pgg_typed", {}, {"equilibrium", "games"}),
        ("equilibrium_bertrand_typed", {}, {"equilibrium", "games"}),  # the tie kernel
        ("validate_clean", {}, {"counterfactual"}),
        ("qre_pgg", {}, {"alt_models", "games", "numpy"}),
        ("sweep_pd_qre", {}, {"alt_models", "games", "numpy"}),
    ])
    def test_command_loads_its_modules(self, tmp_path, case, changes, loaded):
        command = json.loads((self.GOLDEN / "cases.json").read_text())[case]["command"]
        config = f"{case}.json"
        if changes:
            cfg = {**json.loads((self.GOLDEN / config).read_text()), **changes}
            config = write_config(tmp_path, config, cfg)
        args = ([command, config] if command == "validate-structure"
                else [command, "--config", config])
        code, modules = self.cold("-c", self.RUN, *args)
        assert code == 0
        assert set(modules) == self.BASE | {
            m if m in ("numpy", "dataclasses") else f"translucent.{m}" for m in loaded}

    def test_package_import_loads_no_submodule(self):
        assert self.cold("-c", "import json, sys, translucent; print(json.dumps("
                               "[0, [m for m in sys.modules if 'translucent' in m]]))"
                         ) == [0, ["translucent"]]


def test_cli_module_resolves_public_names():
    from translucent import cli, games
    assert cli.__getattr__("dilemma_to_json") is games.dilemma_to_json
    with pytest.raises(AttributeError,
                       match="^module 'translucent.cli' has no attribute 'no_such_name'$"):
        cli.no_such_name


class TestFuzzFindings:
    """Inputs the in-process fuzzer (tests/test_cli_fuzz.py) turned up: each
    once escaped as a traceback or ran unbounded on a small config."""

    BERTRAND = {"kind": "bertrand", "params": {"n": 4, "l": 2, "h": 6}}

    def run_raw(self, tmp_path, capsys, command, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        return run(capsys, command, "--config", str(path))

    @pytest.mark.parametrize("mode", ["te", "te_typed"])
    def test_te_rows_count_players(self, tmp_path, capsys, mode):
        # a te row is one cooperation_condition call, bounded by n alone
        cfg = write_config(tmp_path, "c.json", {
            **self.BERTRAND, "mode": mode, "alpha": [0.5], "beta": [0.5]})
        code, out, _ = run(capsys, "sweep", "--config", cfg, "--budget", "4")
        assert code == 0 and len(out.split()) == 2
        assert run(capsys, "sweep", "--config", cfg, "--budget", "3") == (
            2, "", "error: $.params.n: 4 players exceed budget 3\n")

    @pytest.mark.parametrize("command,extra", [
        ("population", {"population": {"types": [
            {"alpha": 0.5, "beta": 0.5, "weight": 1}]}}),
        ("sweep", {"alpha": 0.5, "beta": 0.5}),
    ])
    def test_huge_player_count_refuses_at_once(self, tmp_path, capsys, command,
                                               extra):
        # the bertrand closed form would raise numbers to the 10^30-th power
        n = 10 ** 30
        cfg = write_config(tmp_path, "c.json", {
            **self.BERTRAND, "params": {"n": n, "l": 2, "h": 6}, **extra})
        assert run(capsys, command, "--config", cfg, "--budget", "64") == (
            2, "", f"error: $.params.n: {n} players exceed budget 64\n")

    def test_spot_check_sizes_the_engine(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "td", "params": {"l": 2, "h": 40, "bonus": 2},
            "alpha": [0.5], "beta": [0.5], "spot_check": True})
        assert run(capsys, "sweep", "--config", cfg, "--budget", "64") == (
            2, "", "error: $.params: the engine's payoff table needs 156 entry "
                   "positions (own strategies x players^2), exceeding budget 64\n")

    def test_spot_check_of_a_game_the_engine_cannot_build(self, tmp_path, capsys):
        # the closed form admits rho = 1, the game factory does not
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pgg", "params": {"n": 2, "rho": 1}, "grid": 1,
            "alpha": 0, "beta": 0, "spot_check": True})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert (code, out) == (2, "")
        assert err.startswith("error: $.spot_check: n=2;rho=1: marginal return")

    def test_damping_below_every_float(self, tmp_path, capsys):
        code, out, err = self.run_raw(
            tmp_path, capsys, "qre",
            '{"kind": "pd", "params": {"b": 4, "c": 1}, "lambda": 1, '
            '"damping": 1e-400}')
        assert (code, out, err) == (2, "", "error: $.damping: expected 0 or a number "
                                    "of magnitude above 2.47032822921e-324\n")

    @pytest.mark.parametrize("token,message", [
        # Fraction(Decimal("1e-10000000")) alone takes seconds
        ("1e-4300", "the number 1e-4300 needs more than 4300 digits"),
        ("1.5e4300", "the number 1.5e4300 needs more than 4300 digits"),
        ("1" * 4301, "an integer needs more than 4300 digits"),  # was a traceback
    ])
    def test_number_past_4300_digits_exits_2(self, tmp_path, capsys, token, message):
        path = tmp_path / "c.json"
        code, out, err = self.run_raw(
            tmp_path, capsys, "qre",
            '{"kind": "pd", "params": {"b": 4, "c": 1}, "lambda": %s}' % token)
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("text", [
        "1e9999999", "-1E-9999999", "1" * 4301, "1/" + "3" * 4301, "1e" + "9" * 4301],
        ids=["exponent", "negative-exponent", "integer", "denominator",
             "exponent-past-int"])
    def test_string_past_4300_digits_exits_2(self, tmp_path, capsys, text):
        # a string went straight to Fraction: "1e9999999" built its ten
        # million digits (10 s) before $.alpha refused its magnitude
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "alpha": text, "beta": 0.5})
        start = time.perf_counter()
        result = run(capsys, "check", "--config", cfg)
        assert time.perf_counter() - start < 1
        assert result == (2, "", f"error: $.alpha: the number {text} needs more "
                                 "than 4300 digits\n")

    def test_short_unreadable_exponent_is_left_to_fraction(self):
        assert not _too_long("1e" + "x" * 10)

    @pytest.mark.parametrize("token,message", [
        # exactly 10^-4299: nonzero, so not 0, but its float is 0.0
        ("1e-4299", "expected 0 or a number of magnitude above 2.47032822921e-324"),
        # 4,299 digits and exponent digits in all: exactly 3/2
        ("15" + "0" * 2148 + "e-2149", "damping must lie in (0, 1], got 3/2"),
    ])
    def test_exponents_up_to_4300_digits_read_exactly(self, tmp_path, capsys, token,
                                                      message):
        code, out, err = self.run_raw(
            tmp_path, capsys, "qre",
            '{"kind": "pd", "params": {"b": 4, "c": 1}, "lambda": 1, '
            '"damping": %s}' % token)
        assert (code, out, err) == (2, "", f"error: $.damping: {message}\n")

    @pytest.mark.parametrize("command,extra", [
        ("qre", {"lambda": 1}), ("sweep", {"mode": "qre", "lambda": [1]})])
    def test_payoff_past_the_float_range_exits_2(self, tmp_path, capsys, command,
                                                 extra):
        # each parameter is in range, but the claim plus the bonus is not;
        # the solver's float table raised OverflowError
        l = 17 * 10 ** 307
        cfg = write_config(tmp_path, "c.json", {
            "kind": "td", "params": {"l": l, "h": l + 1, "bonus": l}, **extra})
        assert run(capsys, command, "--config", cfg) == (
            2, "", "error: $.params: a payoff exceeds the float range, "
                   "in which qre solves\n")

    @pytest.mark.parametrize("argv", [["check", "--config"], ["validate-structure"]])
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, argv):
        # the decoding error escaped as a traceback
        path = tmp_path / "c.json"
        path.write_bytes(b'{"kind": "pd\xff"}')
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ") and "byte 0xff" in err

    @pytest.mark.parametrize("text", ["[1, 2]", '"kind"', "7"])
    def test_config_must_be_an_object(self, tmp_path, capsys, text):
        code, out, err = self.run_raw(tmp_path, capsys, "check", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "expected a JSON object, got " in err


class TestEquilibriumCommand:
    def test_pd_all_verdicts_true(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "betas": [0.3, 0.3]})
        code, out, _ = run(capsys, "equilibrium", "--config", cfg)
        report = json.loads(out)
        assert code == 0
        assert report["te_condition"] is True
        assert report["coherent"] is True
        assert report["agreement"] is True
        assert report["witness"] is None

    def test_pd_all_verdicts_false(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "betas": [0.2, 0.9]})
        _, out, _ = run(capsys, "equilibrium", "--config", cfg)
        report = json.loads(out)
        assert report["te_condition"] is False
        assert report["coherent"] is False
        assert report["agreement"] is True
        assert report["witness"] is not None

    def test_all_zero_is_nash(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "kind": "td", "params": {"l": 2, "h": 9, "bonus": 2},
            "betas": [0, 0]})
        _, out, _ = run(capsys, "equilibrium", "--config", cfg)
        report = json.loads(out)
        assert report["te_condition"] is True
        assert report["coherent"] is True

    def test_pgg_typed_reports_both_readings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "kind": "pgg", "params": {"n": 3, "rho": 0.6}, "grid": 2,
            "betas": [0.9, 0.9, 0.9], "alphas": [0.5, 0.5, 0.5]})
        code, out, _ = run(capsys, "equilibrium", "--config", cfg)
        report = json.loads(out)
        assert code == 0
        typed = report["te_condition_typed"]
        assert typed["holds"] is None
        assert typed["readings"] == {"printed": False, "n_minus_1": True}


class TestPopulation:
    def test_point_mass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.json", {
            "kind": "pd", "params": {"b": 4, "c": 1},
            "population": {"types": [{"alpha": 0.8, "beta": 0.8, "weight": 1}]}})
        _, out, _ = run(capsys, "population", "--config", cfg)
        assert json.loads(out)["cooperation_rate"] == 1

    def test_even_split(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.json", {
            "kind": "pd", "params": {"b": 4, "c": 1},
            "population": {"types": [
                {"alpha": 0.8, "beta": 0.8, "weight": 0.5},
                {"alpha": 0.1, "beta": 0.1, "weight": 0.5}]}})
        _, out, _ = run(capsys, "population", "--config", cfg)
        assert json.loads(out)["cooperation_rate"] == 0.5

    def test_grid_rate_equals_sweep_fraction(self, tmp_path, capsys):
        grid = {"start": 0, "stop": 1, "step": 0.1}
        pop_cfg = write_config(tmp_path, "p.json", {
            "kind": "pd", "params": {"b": 10, "c": 1},
            "population": {"grid": {"alpha": grid, "beta": grid}}})
        _, pop_out, _ = run(capsys, "population", "--config", pop_cfg)
        sweep_cfg = write_config(tmp_path, "s.json", {
            "kind": "pd", "mode": "cooperation", "params": {"b": 10, "c": 1},
            "alpha": grid, "beta": grid})
        _, sweep_out, _ = run(capsys, "sweep", "--config", sweep_cfg)
        rows = sweep_out.strip().split("\n")[1:]
        feasible = sum(1 for r in rows if r.split(",")[4] == "true")
        assert json.loads(pop_out)["cooperation_rate"] == pytest.approx(
            feasible / len(rows), abs=1e-12)

    def test_weights_must_sum_to_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.json", {
            "kind": "pd", "params": {"b": 4, "c": 1},
            "population": {"types": [{"alpha": 0.5, "beta": 0.5, "weight": 0.4}]}})
        code, _, err = run(capsys, "population", "--config", cfg)
        assert code == 2
        assert "sum" in err


class TestValidateStructure:
    def make_structure_doc(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        return structure_to_json(m)

    def test_clean_file(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.make_structure_doc()))
        code, out, _ = run(capsys, "validate-structure", str(path))
        assert code == 0
        assert "no violations" in out

    def test_planted_defect(self, tmp_path, capsys):
        doc = self.make_structure_doc()
        # reroute a switch onto the entry's own state, which cannot play the
        # switched strategy
        doc["closest"][0]["target"] = doc["closest"][0]["state"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate-structure", str(path))
        assert code == 1
        lines = [l for l in out.strip().split("\n") if l]
        assert len(lines) == 1
        assert "CS1" in lines[0]

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("{this is not json")
        code, _, err = run(capsys, "validate-structure", str(path))
        assert code == 2
        assert "parse error" in err

    def run_doc(self, tmp_path, capsys, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "validate-structure", str(path))

    def test_belief_target_past_the_last_state(self, tmp_path, capsys):
        doc = self.make_structure_doc()
        doc["beliefs"][3]["dist"] = {"99": "1"}
        code, out, err = self.run_doc(tmp_path, capsys, doc)
        assert code == 2
        assert out == ""
        assert '$.beliefs[3].dist["99"]: state index 99 is out of range 0..3' in err

    def test_negative_belief_target_is_not_the_last_state(self, tmp_path, capsys):
        # "-1" would otherwise be read as state 3, which makes this document
        # look clean: states 2 and 3 both play D for player 0
        doc = self.make_structure_doc()
        for k in (2, 3):
            doc["beliefs"][k]["dist"] = {"2": "1/2", "-1": "1/2"}
        code, out, err = self.run_doc(tmp_path, capsys, doc)
        assert code == 2
        assert out == ""
        assert '$.beliefs[2].dist["-1"]: state index -1 is out of range 0..3' in err

    @pytest.mark.parametrize("section", ["closest", "beliefs"])
    def test_player_out_of_range(self, tmp_path, capsys, section):
        doc = self.make_structure_doc()
        doc[section][1]["player"] = 7
        code, out, err = self.run_doc(tmp_path, capsys, doc)
        assert code == 2
        assert out == ""
        assert f"$.{section}[1].player: player index 7 is out of range 0..1" in err

    def test_fractional_player_is_not_player_0(self, tmp_path, capsys):
        # int() read 0.5 as 0, and the document linted clean
        doc = self.make_structure_doc()
        doc["closest"][4]["player"] = 0.5
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate-structure", str(path)) == (
            2, "", f"error: {path}: malformed structure document: "
                   "$.closest[4].player: expected an integer index, got 0.5\n")

    @pytest.mark.parametrize("mass", [True, False])
    def test_bool_probability_names_its_path(self, tmp_path, capsys, mass):
        # read as 1, player 0's {"3": true} at state 3 linted clean
        doc = self.make_structure_doc()
        k = next(k for k, entry in enumerate(doc["beliefs"])
                 if (entry["player"], entry["state"]) == (0, 3))
        doc["beliefs"][k]["dist"] = {"3": mass}
        code, out, err = self.run_doc(tmp_path, capsys, doc)
        assert (code, out) == (2, "")
        assert err.endswith(f'$.beliefs[{k}].dist["3"]: expected a finite '
                            f"number, got {mass}\n")

    def test_missing_key_names_its_path(self, tmp_path, capsys):
        doc = self.make_structure_doc()
        del doc["closest"][4]["state"]
        code, out, err = self.run_doc(tmp_path, capsys, doc)
        assert (code, out) == (2, "")
        assert err.endswith("$.closest[4].state: required key is missing\n")

    def test_decimal_index_reads_as_written(self, tmp_path, capsys):
        doc = self.make_structure_doc()
        doc["states"][2]["profile"] = [0, 1.0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate-structure", str(path)) == (
            2, "", f"error: {path}: malformed structure document: "
                   "$.states[2].profile[1]: expected an integer index, got 1.0\n")

    def test_decimal_measures_are_exact(self, tmp_path, capsys):
        # read at their binary values, 0.1 + 0.2 would sum to
        # 5404319552844595/18014398509481984
        doc = self.make_structure_doc()
        k = next(k for k, entry in enumerate(doc["beliefs"])
                 if (entry["player"], entry["state"]) == (0, 3))
        doc["beliefs"][k]["dist"] = {"2": 0.1, "3": 0.2}
        code, out, _ = self.run_doc(tmp_path, capsys, doc)
        assert code == 1
        assert "NORM violated at state 3, player 0, belief mass sums to 3/10\n" in out

    def test_numeric_labels_print_as_before(self, tmp_path, capsys):
        from test_counterfactual import LABELLED

        path = tmp_path / "m.json"
        path.write_text(LABELLED)
        assert run(capsys, "validate-structure", str(path)) == (1, (
            "CS1 violated at state 0, player 0, strategy 1.0, closest state 0 "
            "plays 0.5\n"
            "PR1 violated at state 0, player 0, positive mass on state 1 where "
            "the player uses 1.0\n"
            "PR2 violated at state 0, player 0, positive mass on state 1 with "
            "different beliefs\n"), "")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: [doc], "$: expected an object, got list"),
        (lambda doc: {**doc, "closest": {}}, "$.closest: expected a list"),
        (lambda doc: {**doc, "strategies": ["C", ["C", "D"]]},
         "$.strategies[0]: expected a list of strategy labels"),
        (lambda doc: {**doc, "strategies": doc["strategies"][:1]},
         "$.strategies: one strategy list per player required, got 1 for 2 players"),
        (lambda doc: {**doc, "states": [{"profile": 0}]},
         "$.states[0].profile: expected a list"),
        (lambda doc: {**doc, "states": [{"profile": [0, 0], "aux": 5}]},
         "$.states[0].aux: expected a list or null"),
        # Fraction("1e999999") built the number, and NORM's detail could
        # not print the sum: a ValueError traceback, exit 1
        (lambda doc: {**doc, "beliefs": [
            {"player": 0, "state": 0, "dist": {"0": "1e999999"}}]},
         '$.beliefs[0].dist["0"]: the number 1e999999 needs more than 4300 digits'),
        # each linted clean or failed on an index range of 0..-1
        (lambda doc: {"players": 2, "strategies": [[], []], "states": [], "closest": [],
                      "beliefs": []},
         "$.strategies[0]: player 0 has no strategies"),
        (lambda doc: {**doc, "players": 0, "strategies": [], "states": [{"profile": []}]},
         "$.players: a structure needs at least 1 player, got 0"),
        (lambda doc: {**doc, "strategies": [[], ["C"]]},
         "$.strategies[0]: player 0 has no strategies"),
        (lambda doc: {**doc, "states": []}, "$.states: a structure needs at least one state"),
    ])
    def test_shape_refusals_name_their_path(self, tmp_path, capsys, edit, message):
        doc = edit(self.make_structure_doc())
        with pytest.raises(InputError) as exc:
            structure_from_json(doc)
        assert str(exc.value) == message
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate-structure", str(path)) == (
            2, "", f"error: {path}: malformed structure document: {message}\n")

    def test_budget_counts_closest_state_entries(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self.make_structure_doc()))  # 4 x (2 + 2)
        code, out, _ = run(capsys, "validate-structure", str(path), "--budget", "16")
        assert code == 0 and "no violations" in out
        assert run(capsys, "validate-structure", str(path), "--budget", "15") == (
            2, "", f"error: {path}: $.states: enumeration requires 16 "
                   "closest-state entries, exceeding budget 15\n")


class TestQreCommand:
    def test_uniform_at_lambda_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "lambda": 0})
        code, out, _ = run(capsys, "qre", "--config", cfg)
        report = json.loads(out)
        assert code == 0
        assert report["converged"] is True
        assert float(report["profile"][0]["C"]) == pytest.approx(0.5)

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "lambda": 50,
            "max_iter": 2})
        code, out, _ = run(capsys, "qre", "--config", cfg)
        assert code == 1
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("tol", [-1, "-1/3", -1e-300])
    def test_negative_tol_refused(self, tmp_path, capsys, tol):
        # -1 once ran all 20,000 iterations and reported no convergence
        cfg = write_config(tmp_path, "q.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "lambda": 0, "tol": tol})
        code, out, err = run(capsys, "qre", "--config", cfg)
        assert (code, out) == (2, "")
        assert err.startswith("error: $.tol: tol must be nonnegative, got -")

    def test_zero_tol_converges_at_lambda_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "lambda": 0, "tol": 0})
        code, out, err = run(capsys, "qre", "--config", cfg)
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert report["converged"] is True and report["residual"] == "0.000000e+00"

    def test_nonconvergence_in_a_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "pd", "mode": "qre", "params": {"b": 4, "c": 1},
            "lambda": [0, 50], "max_iter": 2})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert (code, out) == (1, "")
        assert err.startswith("error: qre did not converge at lambda=50 (residual ")

    @pytest.mark.parametrize("lam", [1e200, 1e308])
    def test_huge_lambda_is_the_best_response(self, tmp_path, capsys, lam):
        # lambda * EU overflows a float at 1e308: the response subtracts the
        # best EU first, so it converges to defection as it does at 1e200
        cfg = write_config(tmp_path, "q.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "lambda": lam})
        code, out, err = run(capsys, "qre", "--config", cfg)
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert report["converged"] is True
        assert report["profile"] == [{"C": "0", "D": "1"}] * 2
        assert report["residual"] != "nan"

    def test_huge_lambda_in_a_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "pd", "mode": "qre", "params": {"b": 4, "c": 1},
            "lambda": [1e200, 1e308]})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(F(r[2]), r[3], r[4]) for r in rows] == [
            (F(10) ** 200, "0", "true"), (F(10) ** 308, "0", "true")]


class TestMaxIterBudget:
    """A given ``max_iter`` below 1 or above ``--budget`` exits 2 naming
    ``$.max_iter`` before the game is built or the solver iterates."""

    PD = {"kind": "pd", "params": {"b": 4, "c": 1}}
    COMMANDS = [("qre", {"lambda": 0.5}), ("sweep", {"mode": "qre", "lambda": [0.5]})]

    @pytest.mark.parametrize("command,extra", COMMANDS)
    def test_huge_max_iter_refuses_before_iterating(self, tmp_path, capsys,
                                                    command, extra):
        import time

        cfg = write_config(tmp_path, "q.json", {
            **self.PD, **extra, "tol": 0, "max_iter": 10 ** 9})
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--config", cfg, "--budget", "1000")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (
            2, "", "error: $.max_iter: 1000000000 iterations exceed budget 1000\n")

    @pytest.mark.parametrize("command,extra", COMMANDS)
    def test_budget_is_the_exact_count(self, tmp_path, capsys, command, extra):
        cfg = write_config(tmp_path, "q.json", {**self.PD, **extra, "max_iter": 50})
        code, _, err = run(capsys, command, "--config", cfg, "--budget", "50")
        assert (code, err) == (0, "")
        code, out, err = run(capsys, command, "--config", cfg, "--budget", "49")
        assert (code, out, err) == (
            2, "", "error: $.max_iter: 50 iterations exceed budget 49\n")

    @pytest.mark.parametrize("command,extra", COMMANDS)
    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_refused(self, tmp_path, capsys, command, extra, max_iter):
        # it once ran and reported 0 iterations, unconverged
        cfg = write_config(tmp_path, "q.json", {**self.PD, **extra, "max_iter": max_iter})
        assert run(capsys, command, "--config", cfg) == (
            2, "", f"error: $.max_iter: max_iter must be at least 1, got {max_iter}\n")

    @pytest.mark.parametrize("command,extra", COMMANDS)
    def test_default_config_still_runs(self, tmp_path, capsys, command, extra):
        # the default cap, 20,000, is not an input: it runs under the
        # default budget and under one below it
        cfg = write_config(tmp_path, "q.json", {**self.PD, **extra})
        for budget in ([], ["--budget", "4"]):
            code, out, err = run(capsys, command, "--config", cfg, *budget)
            assert (code, err) == (0, "")
            assert out


class TestTinyExactValues:
    """A nonzero value whose float is 0 prints as its exact fraction string,
    never as 0, also past Python's 4300-digit limit on int to str."""

    TINY = {"kind": "pd", "params": {"b": 4e-323, "c": 5e-324}, "beta": 0.5}
    MARGIN = "1/1" + "0" * 646  # alpha * beta * b = 5e-324 * 1/2 * 4e-323

    def test_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**self.TINY, "alpha": 5e-324})
        code, out, err = run(capsys, "check", "--config", cfg)
        assert (code, err) == (0, "")
        closed = json.loads(out)["closed_form"]
        assert closed == {"binding": self.MARGIN, "rational": False,
                          "threshold": 5e-324}
        assert F(closed["binding"]) == F(5, 10 ** 324) * F(1, 2) * F(4, 10 ** 323)

    def test_csv_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {**self.TINY, "alpha": [5e-324, 0.5]})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.split()[1:]]
        assert [row[4:] for row in rows] == [
            ["false", self.MARGIN, "4.94065645841e-324"],
            ["true", "9.88131291682e-324", "4.94065645841e-324"]]

    def test_csv_row_past_4300_digits(self, tmp_path, capsys):
        # the binding (1/2)^19999 has a 6,021-digit denominator: str() of it
        # raised ValueError, and the sweep stopped with a traceback
        cfg = write_config(tmp_path, "s.json", {
            "kind": "bertrand", "params": {"n": 20000, "l": 2, "h": 10},
            "mode": "cooperation", "alpha": 0.5, "beta": 0.5})
        code, out, err = run(capsys, "sweep", "--config", cfg)
        assert (code, err) == (0, "")
        assert out.split("\n")[1:] == [
            f"bertrand,n=20000;l=2;h=10,0.5,0.5,false,1/{Decimal(2 ** 19999)},"
            "0.266666666667", ""]


class TestDeterminism:
    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        configs = {
            "check": {"kind": "bertrand", "params": {"n": 3, "l": 2, "h": 9},
                      "alpha": 0.7, "beta": 0.9},
            "equilibrium": {"kind": "pgg", "params": {"n": 3, "rho": 0.6},
                            "grid": 4, "betas": [0.8, 0.9, 1.0],
                            "alphas": [0.5, 0.5, 0.5]},
            "population": {"kind": "td", "params": {"l": 2, "h": 12, "bonus": 3},
                           "population": {"grid": {
                               "alpha": {"start": 0, "stop": 1, "step": 0.2},
                               "beta": {"start": 0, "stop": 1, "step": 0.2}}}},
            "qre": {"kind": "pd", "params": {"b": 6, "c": 2}, "lambda": 1.5},
        }
        for command, payload in configs.items():
            cfg = write_config(tmp_path, f"{command}.json", payload)
            code1, out1, _ = run(capsys, command, "--config", cfg)
            code2, out2, _ = run(capsys, command, "--config", cfg)
            assert (code1, out1) == (code2, out2), command
            assert code1 == 0


class TestTeSweepMargins:
    """te and te_typed rows take their margin from the cooperation condition
    (full detection for the untyped mode), so on every row with beta > 0 the
    verdict is exactly binding >= threshold."""

    CONFIGS = {
        "pd": {"params": {"b": [2, 4, 7.5], "c": [1, 1.5]}},
        "td": {"params": {"l": 2, "h": [3, 5, 13, 29], "bonus": [1, 2, 5, 8, 9]}},
        "pgg": {"params": {"n": [2, 3, 5], "rho": [0.55, 0.8, 1]}, "grid": 2},
        "bertrand": {"params": {"n": [2, 3, 4], "l": 2, "h": [3, 6, 13]}},
    }

    @pytest.mark.parametrize("mode", ["te", "te_typed"])
    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_verdict_is_binding_at_least_threshold(self, tmp_path, capsys,
                                                   kind, mode):
        grid = {"start": 0, "stop": 1, "step": 0.05}
        cfg = write_config(tmp_path, "s.json", {
            "kind": kind, "mode": mode, "alpha": grid, "beta": grid,
            **self.CONFIGS[kind]})
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        checked = 0
        for row in rows:
            beta, rational, binding, threshold = row[3:]
            if F(beta) > 0:
                assert (rational == "true") == (F(binding) >= F(threshold)), row
                checked += 1
        assert checked > 0

    def test_td_typed_row_reports_the_undercut_margin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "kind": "td", "mode": "te_typed",
            "params": {"l": 2, "h": 13, "bonus": 8},
            "alpha": [0.25], "beta": [0.9]})
        _, out, _ = run(capsys, "sweep", "--config", cfg)
        # (h-l)*beta = 9.9 >= 8*(1 - 0.225) = 6.2 passes, but the undercut
        # to h-1 binds: 1 + alpha*(h-l-1) = 3.5 < 8*(1 - 2*alpha) = 4
        assert out.split("\n")[1] == "td,l=2;h=13;bonus=8,0.25,0.9,false,3.5,4"


class TestIntegerInputs:
    """Integer inputs are parsed once and a bad one exits 2 naming its path."""

    PGG = {"kind": "pgg", "params": {"n": 3, "rho": 0.6}}

    @pytest.mark.parametrize("value", [2.7, "x", [2]])
    @pytest.mark.parametrize("command,extra", [
        ("equilibrium", {"betas": [0.9, 0.9, 0.9]}),
        ("sweep", {"mode": "te", "beta": [0.5]}),
        ("check", {"alpha": 0.5, "beta": 0.5}),
        ("population", {"population": {"types": [
            {"alpha": 0.5, "beta": 0.5, "weight": 1}]}}),
    ])
    def test_grid(self, tmp_path, capsys, command, extra, value):
        cfg = write_config(tmp_path, "c.json", {**self.PGG, **extra,
                                                "grid": value})
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("error: $.grid: expected")

    @pytest.mark.parametrize("command,extra", [
        ("qre", {"lambda": 1}),
        ("sweep", {"mode": "qre", "lambda": [1]}),
    ])
    def test_max_iter(self, tmp_path, capsys, command, extra):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "pd", "params": {"b": 4, "c": 1}, "max_iter": 2.7, **extra})
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == "error: $.max_iter: expected an integer\n"

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_params(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "bertrand", "params": {"n": 2.9, "l": 2, "h": 10},
            "alpha": 0.5, "beta": 0.5})
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == 2
        assert err == "error: $.params.n: expected an integer\n"

    def test_integral_values_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            **self.PGG, "params": {"n": 3.0, "rho": 0.6}, "grid": 2.0,
            "betas": [0.9, 0.9, 0.9]})
        code, out, _ = run(capsys, "equilibrium", "--config", cfg)
        assert code == 0
        assert json.loads(out)["params"] == {"n": 3, "rho": 0.6, "grid": 2}


class TestPggGrid:
    """Every command reads the public-goods grid from the top-level ``grid``,
    else from ``params.grid``, and a grid below one step exits 2 naming the
    key it came from."""

    QRE = {"kind": "pgg", "mode": "qre", "params": {"n": 2, "rho": 0.75},
           "lambda": [1]}

    @pytest.mark.parametrize("top_level", [True, False])
    def test_sweep_reads_either_grid(self, tmp_path, capsys, top_level):
        if top_level:
            payload = {**self.QRE, "grid": 2}
        else:
            payload = {**self.QRE, "params": {**self.QRE["params"], "grid": 2}}
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, _ = run(capsys, "sweep", "--config", cfg)
        assert code == 0
        # 3 contribution levels; the default 101 give 0.00871
        assert out.split("\n")[1] == (
            "pgg,n=2;rho=0.75,1,0.29263948459,true,0.5,0.29263948459")

    @pytest.mark.parametrize("top_level", [True, False])
    @pytest.mark.parametrize("command,extra", [
        ("equilibrium", {"betas": [0.9, 0.9, 0.9]}),
        ("sweep", {"mode": "te", "beta": [0.5]}),
        ("check", {"alpha": 0.5, "beta": 0.5}),
        ("population", {"population": {"types": [
            {"alpha": 0.5, "beta": 0.5, "weight": 1}]}}),
        ("qre", {"lambda": 1}),
    ])
    def test_grid_below_one_names_its_path(self, tmp_path, capsys, command,
                                           extra, top_level):
        params = {"n": 3, "rho": 0.6}
        if top_level:
            payload = {"kind": "pgg", "params": params, "grid": -3, **extra}
        else:
            payload = {"kind": "pgg", "params": {**params, "grid": 0}, **extra}
        cfg = write_config(tmp_path, "c.json", payload)
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        where = "$" if top_level else "$.params"
        assert err == f"error: {where}.grid: grid must have at least one step\n"

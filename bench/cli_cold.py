"""cli_cold: what a command-line user waits for.

One pass runs seven cold ``python -m translucent.cli`` invocations, one
after another, each a fresh interpreter that imports the package (and with
it numpy); one operation is one invocation.  The configs are drawn from the
seed within fixed shapes so that every seed asks for the same amount of
work:

* ``check`` on td with a claim range of about 2000 (one verdict per
  scanner build, and O(h^2) profile membership checks);
* ``sweep`` in td cooperation mode with ``spot_check`` (1764 rows);
* ``sweep`` in bertrand ``te_typed`` mode (2646 rows, n up to 4);
* ``equilibrium`` on pgg with n=4 on a 5-level grid;
* ``population`` on a 41x41 type grid;
* ``qre`` on bertrand with n=4, h=12 (dense payoff tensor);
* ``validate-structure`` on the 256-state typed pgg document (about
  1.1 MB) written during set-up.

Checks: every invocation exits 0; each report passes a check of its own
content (closed form agrees with the engine, row counts, convergence, no
violations); and every pass prints the same bytes as the first.  The
digest hashes each invocation's stdout with the structure's path (which
holds the process id) replaced by a placeholder.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction as F
from time import perf_counter_ns as clock

from calibrate import Calibrator
from harness import CLI_COMMANDS, Recorder
from layers import patched_cli
from tracer import Tracer
from translucent import cli

NAME = "cli_cold"
# Three passes give 21 invocations, enough for a median with ten samples
# beyond it; fewer would make the reported tail the maximum instead.
MIN_PASSES = 3
PROBES = 5
CALIBRATION_SLICES = 9


def _decimal(x: F) -> float:
    """A short decimal that the CLI's exact parser reads back as ``x``."""
    value = float(x)
    if F(repr(value)) != x:
        raise ValueError(f"{x} has no short decimal form")
    return value


def make_configs(seed: int) -> dict:
    rng = random.Random(f"{NAME}:{seed}")
    twentieth = lambda: _decimal(F(rng.randint(1, 19), 20))
    unit_range = lambda step: {"start": 0, "stop": 1, "step": step}
    return {
        "check": {"kind": "td",
                  "params": {"l": 2, "h": rng.randint(1990, 2010),
                             "bonus": rng.randint(2, 40)},
                  "alpha": twentieth(), "beta": twentieth()},
        "sweep": {"kind": "td", "mode": "cooperation", "spot_check": True,
                  "params": {"l": 2, "h": [rng.randint(18, 22), rng.randint(38, 42)],
                             "bonus": sorted(rng.sample(range(1, 9), 2))},
                  "alpha": unit_range(0.05), "beta": unit_range(0.05)},
        "sweep_te": {"kind": "bertrand", "mode": "te_typed",
                     "params": {"n": [2, 3, 4], "l": 2,
                                "h": sorted(rng.sample(range(6, 21), 2))},
                     "alpha": unit_range(0.05), "beta": unit_range(0.05)},
        "equilibrium": {"kind": "pgg",
                        "params": {"n": 4, "rho": _decimal(F(rng.randint(3, 9), 10))},
                        "grid": 4,
                        "betas": [twentieth() for _ in range(4)],
                        "alphas": [twentieth() for _ in range(4)]},
        "population": {"kind": "bertrand",
                       "params": {"n": 4, "l": rng.randint(2, 5),
                                  "h": rng.randint(10, 30)},
                       "population": {"grid": {"alpha": unit_range(0.025),
                                               "beta": unit_range(0.025)}}},
        "qre": {"kind": "bertrand", "params": {"n": 4, "l": 2, "h": 12},
                "lambda": _decimal(F(rng.randint(2, 8), 4))},
    }


def structure_document(seed: int, layers) -> str:
    """The typed pgg structure (n=4, grid 1: 256 states) as JSON text."""
    rng = random.Random(f"{NAME}:structure:{seed}")
    levels = [F(1, 4), F(1, 2), F(3, 4)]
    d = layers.make_dilemma("pgg", {"n": 4, "rho": F(rng.randint(3, 9), 10),
                                    "grid": 1})
    m = layers.build_typed_dilemma_structure(
        d, [rng.choice(levels) for _ in range(4)],
        [rng.choice(levels) for _ in range(4)])
    return json.dumps(layers.structure_to_json(m))


def expected_rows(cfg: dict) -> int:
    """Rows a sweep config asks for: the grid sizes multiplied out."""
    def size(value):
        if isinstance(value, list):
            return len(value)
        if isinstance(value, dict):
            start, stop, step = (F(str(value[k])) for k in ("start", "stop", "step"))
            return int((stop - start) / step) + 1
        return 1
    rows = size(cfg["alpha"]) * size(cfg["beta"])
    for value in cfg["params"].values():
        rows *= size(value)
    return rows


class Workload:
    def __init__(self, seed: int, root: str, layers):
        self.root = root
        self.workdir = os.path.join(".bench_out", f"{NAME}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.configs = make_configs(seed)
        self.argv = {}
        for command, cfg in self.configs.items():
            path = os.path.join(self.workdir, f"{command}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            sub = "sweep" if command.startswith("sweep") else command
            self.argv[command] = [sub, "--config", path]
        self.structure_path = os.path.join(self.workdir, "structure.json")
        with open(self.structure_path, "w", encoding="utf-8") as fh:
            fh.write(structure_document(seed, layers))
        self.argv["validate"] = ["validate-structure", self.structure_path]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.first_pass: dict = {}
        self.peak_child_kb = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- running the CLI --------------------------------------------------

    def spawn(self, args: list) -> tuple:
        """Run one child interpreter to completion; returns (exit code,
        stdout bytes, wall ns, peak RSS in KB)."""
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = clock() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return proc.returncode, stdout, wall, usage.ru_maxrss

    def check_output(self, command: str, stdout: bytes) -> str | None:
        """Why this report is wrong, or None."""
        text = stdout.decode()
        cfg = self.configs.get(command)
        if command in ("sweep", "sweep_te"):
            lines = text.splitlines()
            if len(lines) != 1 + expected_rows(cfg):
                return f"{len(lines) - 1} rows, expected {expected_rows(cfg)}"
            return None
        if command == "validate":
            expected = f"{self.structure_path}: no violations (256 states)\n"
            return None if text == expected else f"validate printed {text[:200]!r}"
        report = json.loads(text)
        if command == "check" and report["agreement"] is not True:
            return "closed form and engine disagree on td"
        if command == "equilibrium" and (report["coherent"]
                                         != (report["witness"] is None)):
            return "coherence verdict and witness disagree"
        if command == "population" and report["num_types"] != 41 * 41:
            return f"{report['num_types']} types, expected {41 * 41}"
        if command == "qre" and report["converged"] is not True:
            return "qre did not converge"
        return None

    def invoke(self, command: str, rec: Recorder, walls: dict) -> None:
        rec.begin_op()
        try:
            code, stdout, wall, rss_kb = self.spawn(
                ["-m", "translucent.cli", *self.argv[command]])
            problem = (f"exit code {code}" if code != 0
                       else self.check_output(command, stdout))
        except Exception as exc:
            problem, stdout, wall, rss_kb = f"raised {exc!r}", b"", 0, 0
        if problem is None and self.first_pass.setdefault(command, stdout) != stdout:
            problem = "stdout differs from the first pass"
        rec.end_op(problem is None)
        if problem is not None:
            rec.error(f"{command}: {problem}")
        walls.setdefault(command, []).append(wall)
        self.peak_child_kb = max(self.peak_child_kb, rss_kb)
        stable = stdout.replace(self.structure_path.encode(), b"<structure>")
        rec.digest(f"{command} {hashlib.sha256(stable).hexdigest()}")

    def run_pass(self, rec: Recorder, walls: dict, calibrator=None) -> None:
        for command in CLI_COMMANDS:
            if calibrator is not None:
                calibrator.force(len(rec.latency_ns))
            self.invoke(command, rec, walls)

    # -- the two kinds of run ---------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Whole passes until ``seconds`` have passed (at least
        ``MIN_PASSES``), with calibration slices before every invocation
        and after the last."""
        rec = Recorder()
        walls: dict = {}
        pinned = {}
        passes = 0
        with Calibrator(slices=CALIBRATION_SLICES, smooth=2) as calibrator:
            t0 = clock()
            while True:
                self.run_pass(rec, walls, calibrator)
                passes += 1
                if passes == 1:
                    pinned = rec.pins()
                if passes >= MIN_PASSES and clock() - t0 >= seconds * 1e9:
                    break
            calibrator.force(len(rec.latency_ns))
        return {"rec": rec, "rounds": passes, "pinned": pinned,
                "walls": walls, "calibrator": calibrator}

    def startup_probes(self) -> dict:
        """Median wall of a bare interpreter, and of one that imports the
        package or numpy, in ms; the three kinds are interleaved."""
        probes = {"bare": "pass", "package": "import translucent",
                  "numpy": "import numpy"}
        times: dict = {key: [] for key in probes}
        for _ in range(PROBES):
            for key, code in probes.items():
                exit_code, _, wall, _ = self.spawn(["-c", code])
                if exit_code != 0:
                    raise RuntimeError(f"python -c {code!r} exited {exit_code}")
                times[key].append(wall / 1e6)
        return {key: statistics.median(v) for key, v in times.items()}

    def run_main(self, cli, command: str) -> tuple:
        """One command in-process: (exit code or error, stdout bytes)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv[command])
        except Exception as exc:
            code = f"raised {exc!r}"
        return code, out.getvalue().encode()

    def trace(self, seconds: float) -> dict:
        """One cold pass (the per-command cold medians), the start-up
        probes, an unrecorded in-process warm-up pass, then every command
        in-process through ``cli.main`` untraced and traced in turn, with
        spans on its calls into the other layers.  Cold time is modelled as
        interpreter + import + main, so both walls are the in-process time
        plus one start-up per invocation."""
        rec = Recorder()
        walls: dict = {}
        self.run_pass(rec, walls)
        pinned = rec.pins()
        startup = self.startup_probes()
        extra = {"cli.interpreter_ms": startup["bare"],
                 "cli.import_ms": startup["package"] - startup["bare"],
                 "alt_models.numpy_import_ms": startup["numpy"] - startup["bare"]}
        for command, values in walls.items():
            extra[f"{command}_ms"] = statistics.median(values) / 1e6

        for command in CLI_COMMANDS:
            self.run_main(cli, command)
        tracer = Tracer()
        untraced_ns = 0
        for command in CLI_COMMANDS:
            t0 = clock()
            self.run_main(cli, command)
            untraced_ns += clock() - t0
            rec.begin_op(timed=False)
            with patched_cli(tracer):
                tracer.begin()
                tracer.begin()
                code, stdout = self.run_main(cli, command)
                tracer.finish("cli.main")
                tracer.finish("bench.run")
            _, start, end, _, _ = tracer.closed[-2]
            extra[f"cli.{command}.main_ms"] = (end - start) / 1e6
            extra[f"cli.{command}.stdout_bytes"] = len(stdout)
            ok = code == 0 and stdout == self.first_pass.get(command)
            rec.end_op(ok)
            if not ok:
                rec.error(f"{command}: in-process cli.main (exit {code}) "
                          "differs from the cold run")
            elif command == "qre":
                extra["alt_models.qre_iterations"] = json.loads(stdout)["iterations"]
        summary = tracer.summary()
        startup_ns = int(len(CLI_COMMANDS) * startup["package"] * 1e6)
        return {"rec": rec, "rounds": 1, "summary": summary,
                "untraced_ns": startup_ns + untraced_ns,
                "traced_ns": startup_ns + summary["bench.run"]["total_ns"],
                "pinned": pinned, "tracer": tracer, "extra": extra}

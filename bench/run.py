"""Benchmark entry point.

    python3 bench/run.py --workload coop_grid --seed 0 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src``).  With
``--trace 0`` it measures the end-to-end metrics for ``--seconds``; with
``--trace 1`` it runs a fixed set of inputs untraced and then traced and
reports the per-layer metrics.  Outputs are checked on every run.  The last
line of stdout is the result, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's facts (seed, machine, digest, pinned counts, errors).  The same
record, and the spans of a traced run, are written under ``.bench_out``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
WORKLOADS = ("coop_grid", "te_structures", "cli_cold")
SETUP_PROBES = 7
SETUP_CALIBRATION_SLICES = 8
DEFAULT_SEED = 0
PINS_PATH = os.path.join(BENCH, "pins.json")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print the monotonic clock "
                        "and exit (used to time set-up in a fresh process)")
    return p.parse_args(argv)


def make_workload(name: str, seed: int):
    from layers import Layers

    layers = Layers()
    if name == "coop_grid":
        import coop_grid
        return coop_grid.Workload(seed, layers)
    if name == "te_structures":
        import te_structures
        return te_structures.Workload(seed, layers)
    import cli_cold
    return cli_cold.Workload(seed, ROOT, layers)


def measure_setup(args) -> tuple:
    """Set-up time of fresh processes: from just before the interpreter is
    started to the moment the workload's inputs are ready.  Returns the raw
    times (s) and their median at reference speed, with a calibration
    before each probe and after the last."""
    from calibrate import Calibrator

    times = []
    with Calibrator(slices=SETUP_CALIBRATION_SLICES, smooth=1) as calibrator:
        for _ in range(SETUP_PROBES):
            calibrator.force(len(times))
            t0 = time.monotonic_ns()
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                 args.workload, "--seed", str(args.seed), "--seconds", "0",
                 "--trace", "0", "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
            times.append((int(done.stdout.split()[-1]) - t0) / 1e9)
        calibrator.force(len(times))
    return times, statistics.median(calibrator.normalize(times))


def machine_facts() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "git_commit": commit}


def check_pins(name: str, seed: int, pinned: dict) -> str | None:
    """Compare the first rounds' outputs with the default-seed pins."""
    if seed != DEFAULT_SEED:
        return None
    try:
        with open(PINS_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)["workloads"].get(name)
    except OSError as exc:
        return f"cannot read the pins: {exc}"
    if pinned != expected:
        return (f"default-seed outputs differ from the pins: {pinned} vs "
                f"{expected}")
    return None


def run(args) -> tuple:
    import harness

    setup, setup_s = measure_setup(args)
    workload = make_workload(args.workload, args.seed)
    try:
        if args.trace:
            res = (workload.trace(args.seconds) if args.workload == "cli_cold"
                   else harness.trace_warm(workload, args.seconds))
        else:
            res = (workload.measure(args.seconds) if args.workload == "cli_cold"
                   else harness.measure_warm(workload, args.seconds))
    finally:
        if args.workload == "cli_cold":
            workload.close()
    rec = res["rec"]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine_facts(), "rounds": res["rounds"],
            "setup_runs_s": setup, "pinned": res["pinned"],
            "digest": rec.hexdigest(),
            "discrepancies": rec.discrepancies, "errors": rec.errors}
    pin_problem = check_pins(args.workload, args.seed, res["pinned"])
    if pin_problem:
        info["errors"].append(pin_problem)

    names = harness.per_layer_names()
    if args.trace:
        extra = dict(rec.counts)
        extra.update(res.get("extra", {}))
        values = harness.per_layer_metrics(res["summary"], extra,
                                           res["untraced_ns"], res["traced_ns"])
        info["unaccounted_s"] = harness.unaccounted_s(res["summary"])
        if info["unaccounted_s"] > 1e-6:
            rec.failed += 1
            rec.error(f"span self times miss the traced wall time by "
                      f"{info['unaccounted_s']} s")
        metrics = {k: {"value": v, "unit": names[k]} for k, v in values.items()}
        os.makedirs(OUT, exist_ok=True)
        res["tracer"].write(os.path.join(OUT, f"{args.workload}.spans.tsv"))
    else:
        rss_kb = (workload.peak_child_kb if args.workload == "cli_cold"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        cal = res["calibrator"]
        raw = harness.latency_stats(rec.latency_ns)
        stats = harness.latency_stats(cal.normalize(rec.latency_ns))
        info.update({"samples": stats["samples"],
                     "tail_percentile": stats["tail_percentile"],
                     "tail_beyond": stats["tail_beyond"],
                     "raw": {"ops_per_s": raw["samples"] / (cal.work_ns() / 1e9),
                             "op_p50_ms": raw["p50_ms"],
                             "op_tail_ms": raw["tail_ms"],
                             "setup_s": statistics.median(setup)},
                     "mean_slowdown": cal.mean_slowdown()})
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": stats["samples"]
                          / (cal.normalized_work_ns() / 1e9),
                          "unit": "1/s"},
            "op_p50_ms": {"value": stats["p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": stats["tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "success_ratio": {"value": (rec.attempted - rec.failed) / rec.attempted,
                              "unit": "ratio"},
        }
    result = {"correct": rec.failed == 0 and pin_problem is None,
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "translucent", "__init__.py")):
        print(f"error: no translucent package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    # One CPU for this process and its children, so that the calibration
    # slices measure the processor the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import translucent
    if not os.path.abspath(translucent.__file__).startswith(SRC + os.sep):
        print(f"error: translucent imported from {translucent.__file__}",
              file=sys.stderr)
        return 2

    if args.setup_only:
        workload = make_workload(args.workload, args.seed)
        ready = time.monotonic_ns()
        if args.workload == "cli_cold":
            workload.close()
        print(ready)
        return 0

    info, result = run(args)
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{args.workload}.trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick self-check of the benchmark.

    python3 bench/selfcheck.py            # check
    python3 bench/selfcheck.py --update   # re-pin after an intended change

Runs every workload once at the smallest size (``--seconds 0``: one round,
or the minimum number of CLI passes) with the default seed, untraced and
traced, and requires each run to be correct (no failed operation, and
first-round outputs whose digest, operation count and pinned discrepancy
counts equal ``pins.json``) and to print exactly the metrics, with their
units, that ``BENCHMARK.json`` declares.  With
``--update`` it writes the observed values to ``pins.json`` instead; only
do that when a change to the library's outputs is intended, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, PINS_PATH, ROOT, WORKLOADS


def run_once(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit code "
                         f"{done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def declared_metrics() -> dict:
    """trace -> {metric: unit} as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {trace: {m["name"]: m["unit"] for m in doc[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--update", action="store_true",
                   help="write the observed default-seed values to pins.json")
    args = p.parse_args(argv)

    declared = declared_metrics()
    observed = {}
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            info, result = run_once(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                print(f"FAIL {workload} trace={trace}: metrics differ from "
                      f"BENCHMARK.json: {sorted(set(printed) ^ set(declared[trace]))}")
                bad += 1
            pinned = info["pinned"]
            if observed.setdefault(workload, pinned) != pinned:
                print(f"FAIL {workload}: traced and untraced runs pin "
                      "different outputs")
                bad += 1
            ok = result["correct"] and result["failed"] == 0
            if args.update:
                ok = result["failed"] == 0
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: "
                  f"{result['attempted']} operations, digest "
                  f"{pinned.get('digest', '-')[:16]}, discrepancies "
                  f"{pinned.get('discrepancies')}")
            for error in info["errors"]:
                print(f"     {error}")
            bad += not ok

    if args.update and not bad:
        with open(PINS_PATH, "w", encoding="utf-8") as fh:
            json.dump({"default_seed": DEFAULT_SEED, "workloads": observed},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {PINS_PATH}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

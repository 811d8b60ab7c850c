"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --runs 10 --first-seed 100 --out perfbench/baseline.json

Runs ``run.py`` once per seed on each workload, one run at a time, and
reports for every end-to-end metric its median, quartiles and spread: the
distance between the quartiles as a share of the median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  The spread must stay
within the metric's bound in BENCHMARK.json (and should stay below a third
of it).  ``--out`` writes the record as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """(result line, host line) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = next((ln[2:] for ln in lines if ln.startswith("# host:")), "")
    return json.loads(lines[-1]), host


def summarize(values: list[float], bound: float) -> dict:
    if len(values) < 2:  # a single run has no spread
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third": spread < bound / 3.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all")
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for name in names:
        runs = [one_run(name, s, bench["run_seconds"]) for s in record["seeds"]]
        results = [r for r, _ in runs]
        record["host"] = runs[0][1]
        failed = sum(r["failed"] for r in results)
        metrics = {m: summarize([r["metrics"][m]["value"] for r in results], b)
                   for m, b in bounds.items()}
        record["workloads"][name] = {"failed": failed, "metrics": metrics}
        for m, s in metrics.items():
            print(f"{name:9s} {m:16s} median {s['median']:.5g}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}{'' if s['within_third'] else '  (above a third)'}")
        print(f"{name:9s} failed cases {failed}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of the qcdeform CLI.

    python3 perfbench/run.py --workload deform --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

A run generates its inputs from ``--seed`` in a child process, sets up (import
``qcdeform``, load the inputs, one untimed warm-up case of each case type),
then runs the workload's cases in a closed loop: one client, each case
started when the previous one has finished.  The number of rounds follows
from ``--seconds`` and the workload's nominal round time, so every run of a
workload times the same mix.  Every case is checked against its oracle after
the timed pass.  ``setup_s`` is the median of three set-ups: this process's
own and two fresh child processes.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the same cases run once untraced and once with the tracer
installed (``tracing.py``, ``layers.py``), and the last line carries the
per-layer metrics; the span log goes to ``perfbench/out/``.  BLAS is pinned
to one thread, so every number is for the single-threaded numpy path.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many cases above it


# ---------------------------------------------------------------------------
# host record


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    numba = importlib.util.find_spec("numba") is not None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba": numba,
        "path": "numba installed" if numba else "numpy (numba absent)",
    }


# ---------------------------------------------------------------------------
# statistics


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, cases beyond) at the highest percentile that keeps
    at least TAIL_BEYOND cases above it; the maximum when there are too few."""
    s = sorted(times)
    n = len(s)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return s[rank - 1], 100.0 * rank / n, n - rank


def digits(check) -> float:
    """log10(tol / error), capped at 16."""
    if check.error <= 0:
        return 16.0
    return min(16.0, math.log10(check.tol / check.error))


def accuracy_digits(results: list[dict]) -> tuple[float, float]:
    """(reported, worst): the reported value is the smallest, over case
    types, of the median over that type's cases of the case's worst
    log10(tol / error); worst is the smallest over single cases."""
    per_kind: dict[str, list[float]] = {}
    for r in results:
        acc = [digits(c) for c in r["checks"] if c.accuracy]
        if acc:
            per_kind.setdefault(r["kind"], []).append(min(acc))
    if not per_kind:
        return 16.0, 16.0
    return (min(statistics.median(v) for v in per_kind.values()),
            min(min(v) for v in per_kind.values()))


# ---------------------------------------------------------------------------
# stages


def require_package() -> None:
    """Fail before any work when the checkout has no package to benchmark."""
    if not os.path.isfile(os.path.join(SRC, "qcdeform", "__init__.py")):
        sys.stderr.write(f"error: no qcdeform package under {SRC}\n")
        raise SystemExit(2)


def import_package():
    """Import qcdeform from this checkout's src/, never from elsewhere."""
    require_package()
    sys.path.insert(0, SRC)
    import qcdeform
    import qcdeform.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(qcdeform.__file__))) != SRC:
        raise SystemExit(f"error: qcdeform imported from {qcdeform.__file__}, not {SRC}")
    return qcdeform


def set_up(in_dir: str, warm_dir: str) -> tuple[float, list[dict], dict, list]:
    """Import, load the inputs, warm up one case of each type; timed."""
    t0 = time.perf_counter()
    import_package()
    manifest = workloads.load_manifest(in_dir)
    kinds = workloads.kinds()
    data = [kinds[c["kind"]].load(c) for c in manifest]
    os.makedirs(warm_dir, exist_ok=True)
    seen = set()
    for case, d in zip(manifest, data):
        if case["kind"] not in seen:
            seen.add(case["kind"])
            kinds[case["kind"]].run(case, d, os.path.join(warm_dir, f"warm{case['index']:04d}.json"))
    return time.perf_counter() - t0, manifest, kinds, data


def child(stage: str, args, in_dir: str, extra: list[str]) -> str:
    cmd = [sys.executable, os.path.abspath(__file__), "--stage", stage,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", in_dir] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {stage} stage failed with exit code {proc.returncode}")
    return proc.stdout


def timed_pass(manifest, kinds, data, out_dir: str, tracer=None) -> tuple[float, list[dict]]:
    """Run every case in order; returns (wall seconds, per-case records).

    With a tracer, each case's spans are tagged with the case index.
    """
    os.makedirs(out_dir, exist_ok=True)
    records = []
    start = time.perf_counter()
    for case, d in zip(manifest, data):
        if tracer is not None:
            tracer.case = case["index"]
        t0 = time.perf_counter()
        try:
            outcome = kinds[case["kind"]].run(
                case, d, os.path.join(out_dir, f"case{case['index']:04d}.json"))
        except Exception:  # a crash is this case's wrong outcome, not the run's
            outcome = {"exception": traceback.format_exc()}
        records.append({"index": case["index"], "kind": case["kind"],
                        "seconds": time.perf_counter() - t0, "outcome": outcome})
    return time.perf_counter() - start, records


def check_all(manifest, kinds, records) -> None:
    """Run each case's oracle; adds "checks" and "ok" to every record."""
    for case, rec in zip(manifest, records):
        out = rec["outcome"]
        if "exception" in out:
            rec["checks"], rec["ok"] = [workloads.flag(False, "exception")], False
            continue
        try:
            rec["checks"] = kinds[case["kind"]].check(case, out)
        except Exception:
            rec["checks"] = [workloads.flag(False, "oracle exception")]
            out["oracle_exception"] = traceback.format_exc()
        rec["ok"] = all(c.ok for c in rec["checks"])


def summarize(wall: float, records: list[dict]) -> dict:
    times = [r["seconds"] for r in records]
    failed = sum(not r["ok"] for r in records)
    value, pct, beyond = tail(times)
    acc, worst = accuracy_digits(records)
    return {"attempted": len(records), "failed": failed, "wall_s": wall,
            "cases_per_s": (len(records) - failed) / wall,
            "case_s_p50": statistics.median(times),
            "case_s_tail": value, "tail_percentile": pct, "tail_beyond": beyond,
            "accuracy_digits": acc, "accuracy_digits_worst_case": worst,
            "fail_frac": failed / len(records), "ok_frac": 1.0 - failed / len(records)}


E2E_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_s_p50": "s", "case_s_tail": "s",
             "accuracy_digits": "digits", "ok_frac": "ratio", "peak_rss_mb": "MB"}


def main_run(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    rounds = workloads.rounds_for(wl, args.seconds)
    work = os.path.join(HERE, ".work", f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    in_dir = os.path.join(work, "inputs")
    try:
        child("gen", args, in_dir, ["--rounds", str(rounds)])
        setup_own, manifest, kinds, data = set_up(in_dir, os.path.join(work, "warm"))
        setups = [setup_own] + [
            json.loads(child("setup", args, in_dir, ["--warm", os.path.join(work, f"warm{i}")]))
            ["setup_s"] for i in range(1, SETUP_REPEATS)]
        wall, records = timed_pass(manifest, kinds, data, os.path.join(work, "out"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_all(manifest, kinds, records)
        plain = summarize(wall, records)
        plain.update(setup_s=statistics.median(setups), setup_samples=setups,
                     peak_rss_mb=peak_rss_mb)
        host = host_record()
        result = {"workload": wl.name, "why": wl.why, "seed": args.seed, "rounds": rounds,
                  "host": host, "untraced": plain}
        all_records = records
        if args.trace:
            import layers
            from tracing import Tracer

            tracer = Tracer()
            layers.install(tracer)
            try:
                t_wall, t_records = timed_pass(manifest, kinds, data,
                                               os.path.join(work, "out-traced"), tracer)
            finally:
                tracer.restore()
            check_all(manifest, kinds, t_records)
            traced = summarize(t_wall, t_records)
            overhead = 1.0 - traced["cases_per_s"] / plain["cases_per_s"]
            per_layer = layers.collect(tracer, overhead)
            trace_path = os.path.relpath(
                os.path.join(out_dir, f"trace-{wl.name}-s{args.seed}.json"), ROOT)
            tracer.dump(os.path.join(ROOT, trace_path))
            result.update(traced=traced, per_layer=per_layer, trace_file=trace_path)
            all_records = records + t_records
            units = {s["name"]: s["unit"] for s in layers.metric_specs()}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        else:
            metrics = {k: {"value": plain[k], "unit": u} for k, u in E2E_UNITS.items()}
        result["cases"] = [{"index": r["index"], "kind": r["kind"], "seconds": r["seconds"],
                            "ok": r["ok"],
                            "checks": [[c.name, c.error, c.tol, c.accuracy] for c in r["checks"]],
                            "error": "" if r["ok"] else "".join(
                                r["outcome"].get(k, "")
                                for k in ("stderr", "exception", "oracle_exception"))}
                           for r in all_records]
        with open(os.path.join(out_dir, f"result-{wl.name}-s{args.seed}-t{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, default=str)
        report(result, all_records)
        failed = sum(not r["ok"] for r in all_records)
        print(json.dumps({"correct": failed == 0, "attempted": len(all_records),
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def report(result: dict, records: list[dict]) -> None:
    """Human-readable lines printed before the result line."""
    h = result["host"]
    print(f"# workload {result['workload']}: {result['why']}")
    print(f"# host: nproc {h['nproc']}, python {h['python']}, numpy {h['numpy']}, "
          f"BLAS {h['blas']} with {h['blas_threads']} thread(s), {h['path']}")
    p = result["untraced"]
    print(f"# {p['attempted']} cases in {result['rounds']} rounds, closed loop, one client; "
          f"timed {p['wall_s']:.2f} s")
    print(f"setup_s          {p['setup_s']:.4f} s   (median of {sorted(p['setup_samples'])})")
    print(f"cases_per_s      {p['cases_per_s']:.4f} 1/s")
    print(f"case_s_p50       {p['case_s_p50']:.4f} s")
    print(f"case_s_tail      {p['case_s_tail']:.4f} s   (p{p['tail_percentile']:.1f}, "
          f"{p['tail_beyond']} of {p['attempted']} cases beyond)")
    print(f"accuracy_digits  {p['accuracy_digits']:.3f} digits   "
          f"(worst single case {p['accuracy_digits_worst_case']:.3f})")
    print(f"fail_frac        {p['fail_frac']:.4f} ratio   (ok_frac {p['ok_frac']:.4f})")
    print(f"peak_rss_mb      {p['peak_rss_mb']:.1f} MB")
    for r in records:
        if not r["ok"]:
            bad = [c.name for c in r["checks"] if not c.ok]
            print(f"# FAILED case {r['index']} ({r['kind']}): {bad}")
    if "per_layer" in result:
        t = result["traced"]
        print(f"# traced pass: {t['cases_per_s']:.4f} cases/s; span log {result['trace_file']}")
        for k, v in result["per_layer"].items():
            print(f"{k:48s} {v:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stage", choices=("run", "gen", "setup"), default="run",
                    help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--warm", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stage == "gen":
        import_package()
        workloads.generate(args.workload, args.seed, args.rounds, args.dir)
        return 0
    if args.stage == "setup":
        seconds = set_up(args.dir, args.warm)[0]
        print(json.dumps({"setup_s": seconds}))
        return 0
    require_package()
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())

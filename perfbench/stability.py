#!/usr/bin/env python3
"""Stability report: run one workload N times and summarise each metric.

    python3 perfbench/stability.py --workload voting-passage --runs 10 [--seconds 20]
        [--first-seed 1] [--trace 0] [--json out.json]

Each run uses its own seed (``first-seed``, ``first-seed + 1``, ...).  For
every metric the report prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the quartile spread (Q3 - Q1) /
median, the range spread (max - min) / median and, for end-to-end metrics,
the bound from ``BENCHMARK.json`` — the arithmetic used to judge whether
two sets of runs of the same code agree.  The host reference loop
(``host.ref_loop_ms``, from each run's ``# info`` line) is reported beside
them so host drift is visible.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import summary  # noqa: E402


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = next((json.loads(line[7:]) for line in lines if line.startswith("# info ")), {})
    return {"seed": seed, "result": result, "info": info}


def report(runs: list[dict], bounds: dict[str, float]) -> list[dict]:
    rows = []
    names = list(runs[0]["result"]["metrics"])
    series = {n: [r["result"]["metrics"][n]["value"] for r in runs] for n in names}
    ref = [r["info"].get("ref_loop_ms", {}).get("median") for r in runs]
    if all(v is not None for v in ref):
        series["host.ref_loop_ms (info)"] = ref
    for name, values in series.items():
        row = {"metric": name, **summary(values)}
        if name in bounds:
            row["bound"] = bounds[name]
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write the runs and rows here")
    args = parser.parse_args(argv)

    root = HERE.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(args.runs):
        run = run_once(root, args.workload, args.first_seed + i, seconds, args.trace)
        res = run["result"]
        print(f"# seed {run['seed']}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        runs.append(run)
    rows = report(runs, bounds)
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}")
    for row in rows:
        print(f"{row['metric']:32} {row['median']:12.6g} {row.get('q1', float('nan')):12.6g} "
              f"{row.get('q3', float('nan')):12.6g} {row.get('iqr_share', float('nan')):8.4f} "
              f"{row['range_share']:9.4f} {row.get('bound', ''):>6}")
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"# {args.workload}: {len(runs)} runs, {failed} failed operations, "
          f"all correct: {all(r['result']['correct'] for r in runs)}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

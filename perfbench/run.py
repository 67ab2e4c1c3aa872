#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload voting-passage --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The line
before it, starting with ``# info``, carries sample counts, the host facts
and any failure messages.  Scratch files go under ``.bench_work/`` in the
checkout; traced runs leave their spans in ``.bench_work/traces/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import BLAS_PIN, END_TO_END, PER_LAYER, Context, quietest_cpu  # noqa: E402

# Pin BLAS threads before numpy is first imported (common imports it lazily).
for _name, _value in BLAS_PIN.items():
    os.environ[_name] = _value

WORKLOADS = ("voting-passage", "voting-transient", "pool-factored", "service-mix")


def _module(workload: str):
    if workload.startswith("voting-"):
        import inline

        return inline
    if workload == "pool-factored":
        import pool

        return pool
    import service

    return service


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception so the cleanup below
    # (server subprocesses, worker pools, scratch files) still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # One CPU for the run and every process it starts (pool worker, server):
    # the CPUs of a shared host drift independently, and the reference loop
    # that measures the drift must sample the CPU that does the work.  The
    # run takes whichever CPU is quietest when it starts.
    cpu = quietest_cpu(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Temporary files of the program (incident markers, ...) stay in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)

    from common import host_info
    from tracing import Tracer

    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), root=ROOT, workdir=workdir,
        tracer=Tracer() if args.trace else None,
    )
    module = _module(args.workload)
    try:
        values = module.run(ctx)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()
            ctx.tracer.write(work_root / "traces" / f"{args.workload}-{args.seed}.jsonl")
        shutil.rmtree(workdir, ignore_errors=True)

    from stats import median

    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # A layer the workload bypasses reports 0.
        values = {**dict.fromkeys(PER_LAYER, 0.0), **values}
        values["host.ref_loop_ms"] = median(ctx.ref_loop) if ctx.ref_loop else 0.0
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: workload reported no value for {missing}", file=sys.stderr)
        return 3
    if not args.trace:
        from common import host_factor

        samples = {"setup_s": ctx.ref_setup, "query_p50_ms": ctx.ref_loop}
        factors = {name: host_factor(samples[name]) for name in module.HOST_SCALED}
        ctx.info["host_factor"] = factors
        ctx.info["unscaled"] = {name: values[name] for name in factors}
        values.update({name: values[name] / f for name, f in factors.items()})
    ctx.info["host"] = host_info()
    ctx.info["cpu"] = cpu
    ctx.info["ref_loop_ms"] = {
        "median": median(ctx.ref_loop) if ctx.ref_loop else None,
        "samples": len(ctx.ref_loop),
    }
    if ctx.errors:
        ctx.info["errors"] = ctx.errors
    print("# info " + json.dumps(ctx.info, default=str))
    result = {
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``service-mix`` workload: open-loop requests to the analysis server.

A ``semimarkov serve --checkpoint <dir>`` subprocess holds voting CC=8,
MM=3, NN=2 (226 states).  The benchmark process sends a seeded Poisson
schedule at a fixed arrival rate from two sender threads (open loop) and
times every request from its *due* time.  The mix:

* warm passage reads on grids primed before the timed phase;
* cold passage reads on fresh grids, a few with a quantile and a few sent
  as concurrent identical pairs so the scheduler coalesces them;
* cold transient reads of the all-voted target;
* a few ``async`` submissions, which write the sqlite job log and
  checkpoint blocks beside the reads.

Every reply is checked against the independent oracle after the phase; a
refused or wrong reply counts as a failed request with no latency.
"""
from __future__ import annotations

import math
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import numpy as np

import oracle
from common import BLAS_PIN, Context, ref_probe, repeat_setup
from stats import Arrival, UnsupportedPercentile, median, run_open_loop, supported_percentile

#: end-to-end timings reported in reference-host time.  Request latency is
#: not: much of it is socket and thread wake-up time that does not scale with
#: the CPU's speed, and a probe bracketing the phase cannot see the phase.
HOST_SCALED = ("setup_s",)

#: fixed arrival rates (requests per second); never derived from measured
#: capacity, so a slower server shows as higher latency, not a lower rate
RATES = {"service-mix": 12.0}
#: sender threads of the one generator process; enough that a slow reply does
#: not hold back requests due behind it
SENDERS = 4
SETUP_REPS = 5
MODEL = (8, 3, 2)
SOURCE, TARGET = "p1 == CC", "p2 == CC"
T_RANGE = (2.0, 10.0)
WARM_GRIDS = 8
#: request kinds and their shares of the arrivals (warm takes the remainder).
#: Warm reads are well over half of all requests so the median falls inside
#: their latency mode; the median of a mixture near its boundary between two
#: modes jumps from run to run.
MIX = (("warm", 0.85), ("cold", 0.07), ("quantile", 0.005), ("pair", 0.02),
       ("transient", 0.045), ("async", 0.01))
#: tolerance of an inverted answer against the oracle's own Euler inversion:
#: >= 10x the deviation seen on the seed code (6e-7)
ANSWER_ATOL, ANSWER_RTOL = 2e-5, 1e-4
QUANTILE_TOL = 1e-4


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``semimarkov serve`` subprocess and its lifetime."""

    def __init__(self, ctx: Context, name: str):
        self.port = _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        checkpoint = ctx.workdir / f"{name}-checkpoint"
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"), TMPDIR=str(ctx.workdir),
                   **BLAS_PIN)
        ctx.info["server_blas_pin"] = {k: env.get(k) for k in BLAS_PIN}
        self.log = open(ctx.workdir / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", str(self.port),
             "--checkpoint", str(checkpoint), "--job-store", "sqlite"],
            env=env, stdout=self.log, stderr=subprocess.STDOUT, cwd=str(ctx.workdir),
        )
        self.peak_rss_mb = None

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                with urllib.request.urlopen(self.url + "/v1/health", timeout=2) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        """Drain and stop; collects the server's peak RSS from its rusage."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 15.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.02)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.log.close()


def _grid(rng, n: int) -> list[float]:
    return sorted(round(float(t), 6) for t in rng.uniform(*T_RANGE, size=n))


def build_schedule(ctx: Context, rate: float) -> tuple[list[Arrival], list[list[float]]]:
    """The seeded arrival schedule and the warm grids it reads.

    Arrival times are a Poisson process of ``rate`` conditioned on its
    expected count (sorted uniform times), and the count of each request
    kind is fixed by ``MIX``; only their order and the fresh grids vary with
    the seed.  Every run therefore does the same amount of each kind of work.
    """
    rng = ctx.rng(3)
    warm = [_grid(rng, 3) for _ in range(WARM_GRIDS)]
    n = int(round(rate * ctx.seconds))
    kinds = [k for k, share in MIX[1:] for _ in range(int(round(share * n)))]
    kinds = np.array(kinds + ["warm"] * (n - len(kinds)))
    rng.shuffle(kinds)
    arrivals: list[Arrival] = []
    for due, kind in zip(np.sort(rng.uniform(0.0, ctx.seconds, n)), kinds):
        kind = str(kind)
        if kind == "warm":
            req = {"op": "passage", "t": warm[int(rng.integers(WARM_GRIDS))]}
        elif kind in ("cold", "pair"):
            req = {"op": "passage", "t": _grid(rng, 2)}
        elif kind == "quantile":
            req = {"op": "passage", "t": _grid(rng, 2), "quantile": 0.5}
        elif kind == "transient":
            req = {"op": "transient", "t": _grid(rng, 1)}
        else:
            req = {"op": "submit", "t": _grid(rng, 1)}
        req["kind"] = kind
        arrivals.append(Arrival(float(due), req))
        if kind == "pair":
            arrivals.append(Arrival(float(due), dict(req)))
    return arrivals, warm


def run(ctx: Context) -> dict:
    from repro.api import Model
    from repro.models import voting_spec_text
    from repro.models.voting import VotingParameters
    from repro.service.client import ServiceClient
    from repro.service.registry import ModelRegistry

    spec = voting_spec_text(VotingParameters(*MODEL))
    servers: list[Server] = []

    def build(rep):
        server = Server(ctx, f"server{rep}")
        servers.append(server)
        server.wait_healthy()
        info = ServiceClient(server.url, timeout=60).register_model(spec, name="voting")
        return server, info["model"]

    try:
        setup_s, (server, digest) = repeat_setup(ctx, SETUP_REPS, build)
        for old in servers[:-1]:
            old.stop()
        # The reference loop cannot run beside the senders without taking
        # their interpreter lock, so it brackets the phase instead.  It only
        # informs: request latency is reported unscaled (see HOST_SCALED).
        ref_probe(ctx.ref_loop, 25)
        result = _serve(ctx, server, digest)
        ref_probe(ctx.ref_loop, 25)
    finally:
        for s in servers:
            s.stop()

    # Answers are checked against the oracle after the phase.
    model = Model.from_spec(spec, registry=ModelRegistry())
    kernel = model.kernel
    alpha = oracle.stationary_weights(kernel, model.states(SOURCE))
    targets = model.states(TARGET)
    oracles = {
        "passage": oracle.MeasureOracle(kernel, alpha, targets, "passage"),
        "transient": oracle.MeasureOracle(kernel, alpha, targets, "transient"),
    }
    outcomes, jobs = result["outcomes"], result["jobs"]
    for o in outcomes:
        if o.ok:
            errors = _verify(oracles, o.payload, o.reply)
            if errors:
                o.ok = False
                o.error = "; ".join(errors)
        ctx.record(f"request {o.index} ({o.payload['kind']})", [] if o.ok else [o.error or "failed"])
    for job_id, req, view in jobs:
        if view.get("state") == "done":
            errors = _verify(oracles, {"op": "passage", "t": req["t"]}, view["result"])
        else:
            errors = [f"job ended {view.get('state')!r}"]
        ctx.record(f"job {job_id}", errors)

    latencies = [o.latency for o in outcomes]
    ctx.info["request_samples"] = len(latencies)
    ctx.info["rate_per_s"] = RATES[ctx.workload]
    ctx.info["requests_by_kind"] = {}
    for kind, _ in MIX:
        trips = [o.payload["round_trip"] * 1e3 for o in outcomes
                 if o.payload["kind"] == kind and "round_trip" in o.payload]
        ctx.info["requests_by_kind"][kind] = {
            "n": len(trips),
            "round_trip_ms_p50": median(trips) if trips else None,
            "round_trip_ms_max": max(trips) if trips else None,
        }
    if not ctx.traced:
        return {
            "setup_s": setup_s,
            "query_p50_ms": median(latencies) * 1e3,
            "peak_rss_mb": server.peak_rss_mb,
        }
    return _layer_metrics(ctx, spec, outcomes, jobs, result)


def _serve(ctx: Context, server: Server, digest: str) -> dict:
    from repro.service.client import ServiceClient

    client = ServiceClient(server.url, timeout=60)
    rate = RATES[ctx.workload]
    schedule, warm = build_schedule(ctx, rate)
    common = {"model": digest, "source": SOURCE, "target": TARGET}
    for grid in warm:  # prime the warm grids
        client.passage(**common, t_points=grid, cdf=True)
    tracer = ctx.tracer
    if tracer is not None:
        tracer.patch(ServiceClient, "passage", "client.passage")
        tracer.patch(ServiceClient, "transient", "client.transient")
        tracer.patch(ServiceClient, "submit", "client.submit")
    before = client.metrics_text() if tracer is not None else ""

    def send(req):
        if tracer is not None:
            tracer.query = req.get("index")
        started = time.perf_counter()
        if req["op"] == "passage":
            kwargs = {"quantile": req["quantile"]} if "quantile" in req else {}
            reply = client.passage(**common, t_points=req["t"], cdf=True, **kwargs)
        elif req["op"] == "transient":
            reply = client.transient(**common, t_points=req["t"])
        else:
            reply = client.submit("passage", **common, t_points=req["t"], cdf=True)
        req["round_trip"] = time.perf_counter() - started
        return True, reply

    for i, arrival in enumerate(schedule):
        arrival.payload["index"] = i
    outcomes = run_open_loop(schedule, send, senders=SENDERS).outcomes
    jobs = []
    for o in outcomes:
        if o.ok and o.payload["op"] == "submit":
            job_id = o.reply.get("job")
            try:
                view = client.wait(job_id, timeout=60, interval=0.02)
            except Exception as exc:  # counted as a failed job below
                view = {"state": f"unfinished ({type(exc).__name__})"}
            jobs.append((job_id, o.payload, view))
    if tracer is not None:
        tracer.restore()
    after = client.metrics_text() if tracer is not None else ""
    return {"outcomes": outcomes, "jobs": jobs, "metrics": (before, after)}


def _close(value, reference) -> bool:
    return abs(value - reference) <= ANSWER_ATOL + ANSWER_RTOL * abs(reference)


def _verify(oracles, req, reply) -> list[str]:
    """Reasons a reply is wrong (empty when it matches the oracle)."""
    if req["op"] == "submit":
        return [] if reply.get("job") else ["no job id in the submission reply"]
    t_points = req["t"]
    errors = []
    try:
        if req["op"] == "transient":
            prob = np.asarray(reply["probability"], dtype=float)
            errors += oracle.sanity_errors(probability=prob)
            for t, p in zip(t_points, prob):
                ref, _ = oracles["transient"].at(t)
                if not _close(p, ref):
                    errors.append(f"P(t={t}) {p:.8g} vs oracle {ref:.8g}")
            return errors
        density = np.asarray(reply["density"], dtype=float)
        cdf = np.asarray(reply["cdf"], dtype=float)
        errors += oracle.sanity_errors(density=density, cdf=cdf)
        for t, d, c in zip(t_points, density, cdf):
            ref_d, ref_c = oracles["passage"].at(t)
            if not (_close(d, ref_d) and _close(c, ref_c)):
                errors.append(f"t={t}: ({d:.8g}, {c:.8g}) vs oracle ({ref_d:.8g}, {ref_c:.8g})")
        if "quantile" in req:
            q = reply.get("quantile") or {}
            _, at_q = oracles["passage"].at(float(q.get("t", math.nan)))
            if not abs(at_q - req["quantile"]) <= QUANTILE_TOL:
                errors.append(f"oracle CDF at the quantile is {at_q:.6g}")
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"malformed reply: {type(exc).__name__}: {exc}")
    return errors


def _scrape(text: str, name: str) -> dict[str, float]:
    """``{label-set: value}`` of one Prometheus metric family."""
    out = {}
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


def _layer_metrics(ctx: Context, spec, outcomes, jobs, result) -> dict:
    from inline import patch_setup_layers, setup_layer_metrics
    from repro.api import Model
    from repro.service.registry import ModelRegistry
    from tracing import span_cost_seconds

    tracer = ctx.tracer
    # Set-up layers: the server builds the same model; build it here to time them.
    patch_setup_layers(tracer)
    for rep in range(SETUP_REPS):
        tracer.query = f"setup-build{rep}"
        model = Model.from_spec(spec, registry=ModelRegistry())
        model.entry
    tracer.query = None
    tracer.restore()
    out = setup_layer_metrics(ctx, model.kernel)

    ok = [o for o in outcomes if o.ok]
    reads = [o for o in ok if o.payload["op"] != "submit"]
    stats = [o.reply.get("statistics", {}) for o in reads]
    cold = [s for s in stats if s.get("s_points_computed")]
    compute = [
        (o.payload["round_trip"] - o.reply["statistics"].get("evaluation_seconds", 0.0)
         - o.reply["statistics"].get("inversion_seconds", 0.0)) * 1e3
        for o in reads
    ]
    latencies = [o.latency for o in outcomes]
    lags = [o.lag for o in outcomes]
    submits = [o.payload["round_trip"] * 1e3 for o in ok if o.payload["op"] == "submit"]
    waits = [(v["started_at"] - v["created_at"]) * 1e3 for _, _, v in jobs if v.get("started_at")]
    turns = [(v["finished_at"] - v["created_at"]) * 1e3 for _, _, v in jobs if v.get("finished_at")]
    before, after = result["metrics"]

    def delta(name):
        return sum(_scrape(after, name).values()) - sum(_scrape(before, name).values())

    hits = delta('repro_cache_points_total{tier="memory"}') + delta(
        'repro_cache_points_total{tier="disk"}')
    lookups = hits + delta('repro_cache_points_total{tier="miss"}')

    def p95_ms(values) -> float:
        try:
            return supported_percentile(values, 0.95) * 1e3
        except UnsupportedPercentile as exc:
            ctx.info.setdefault("unsupported", []).append(str(exc))
            return 0.0

    cost = span_cost_seconds()
    shares = []
    for o in outcomes:
        spans = tracer.of_query(o.index)
        if o.ok and spans and o.latency > 0:
            shares.append(100.0 * (o.lag + sum(tracer.duration(s) for s in spans)) / o.latency)
    out.update({
        "api.points_required": median([s.get("s_points_required", 0) for s in stats]),
        "api.points_solved": median([s.get("s_points_computed", 0) for s in cold]) if cold else 0.0,
        "smp.solve_ms": median([s.get("evaluation_seconds", 0.0) * 1e3 for s in cold]) if cold else 0.0,
        "smp.point_iters": median([
            sum(b.get("iterations", 0) for b in s.get("solve_blocks", [])) for s in cold
        ]) if cold else 0.0,
        "laplace.invert_ms": median([s.get("inversion_seconds", 0.0) * 1e3 for s in stats]),
        "service.http_ms": median(compute),
        "service.req_p95_ms": p95_ms(latencies),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.points_computed": float(sum(s.get("s_points_computed", 0) for s in stats)),
        "service.coalesced": delta("repro_coalesced_points_total"),
        "service.generator_lag_ms": p95_ms(lags),
        "jobs.submit_ms": median(submits) if submits else 0.0,
        "jobs.queue_wait_ms": median(waits) if waits else 0.0,
        "jobs.turnaround_ms": median(turns) if turns else 0.0,
        "obs.attributed_pct": median(shares) if shares else 0.0,
        "obs.trace_overhead_pct": median([
            100.0 * len(tracer.of_query(o.index)) * cost / o.latency for o in ok if o.latency > 0
        ]),
    })
    ctx.info["metrics_scrape"] = {
        "requests": delta("repro_requests_total"),
        "coalesced_points_in_replies": float(
            sum(s.get("s_points_coalesced", 0) for s in stats)),
    }
    return out


"""The four benchmark workloads and their output checks.

Each workload takes the benchmark's seed, generates its inputs from it,
and hands the program only those inputs.  An untraced run (``trace``
off) measures the end-to-end metrics for about ``seconds`` seconds.  A
traced run does a fixed amount of work twice, untraced and then traced,
so its per-layer counts repeat exactly for one seed; the ratio of the
two wall times is ``trace.overhead_ratio``.

An *operation* is a campaign cell, a curve (or figure) or a service
job.  It fails when it raises, gets a non-``done`` or non-2xx reply, or
fails an output check; a simulated memory-read failure is a physics
result, not a failed operation.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import layers
from tracer import Tracer

WORKLOADS = ("campaign-iid", "campaign-scrub", "analytic-curves", "service-jobs")

#: The seed the committed reference digests belong to.
DEFAULT_SEED = 1
#: A seed not used while writing a change; confirm claims on it too.
HELD_OUT_SEED = 7919
#: Key of the committed first-repetition rows digest in reference.json.
DIGEST_KEY = f"seed{DEFAULT_SEED}_rep0_digest"

#: Work sizes.  ``tiny`` is for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "setup_probes": 5,
        "iid_trials": 2000,
        "scrub_trials": 200,
        "trace_reps": 4,
        "fig_points": 25,
        "curve_points": None,
        "job_trials": 2000,
        "trace_jobs_per_client": 24,
    },
    "tiny": {
        "setup_probes": 1,
        "iid_trials": 48,
        "scrub_trials": 16,
        "trace_reps": 1,
        "fig_points": 5,
        "curve_points": 3,
        "job_trials": 40,
        "trace_jobs_per_client": 4,
    },
}

#: Tags that keep the per-workload input streams of one seed apart.
_STREAM = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    size: str
    trace: bool
    reference: Dict[str, Any]

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def out(self) -> Path:
        return self.root / "perfbench" / "out"

    @property
    def sizes(self) -> Dict[str, Any]:
        return SIZES[self.size]

    def rng(self, workload: str, *tags: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _STREAM[workload], *tags])


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: The workload-specific end-to-end metrics: name -> (value, unit, samples).
    e2e: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: The BENCHMARK.json end-to-end metrics (untraced runs).
    generic: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metric values (traced runs).
    layer: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def median(values: List[float]) -> float:
    return float(np.median(values))


def p90(values: List[float]) -> float:
    return float(np.percentile(values, 90))


def _env(ctx: Context) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.src)
    return env


# --------------------------------------------------------------------------
# Set-up: fresh-process import + first codec construction
# --------------------------------------------------------------------------


def split_probes(ctx: Context) -> Tuple[int, int]:
    """Set-up samples taken before and after the workload.

    The host's speed drifts over tens of seconds, so sampling set-up at
    both ends of the run lets its median see more than one spell.
    """
    count = ctx.sizes["setup_probes"]
    return (count + 1) // 2, count // 2


def probe_setup(ctx: Context, count: int) -> Dict[str, List[float]]:
    """Run ``count`` set-up probes; their wall times and stage times."""
    probe = ctx.root / "perfbench" / "setup_probe.py"
    walls: List[float] = []
    imports: List[float] = []
    builds: List[float] = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(probe), str(ctx.src)],
            capture_output=True,
            text=True,
            timeout=120,
            env=_env(ctx),
            cwd=ctx.root,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        stages = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(stages["import_s"])
        builds.append(stages["codec_build_s"])
    return {"setup_s": walls, "cli.import_s": imports, "rs.codec_build_s": builds}


def peak_rss_mb_self() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Campaign workloads
# --------------------------------------------------------------------------


def rows_digest(rows) -> str:
    """SHA-256 over the Monte Carlo fields of the campaign rows.

    The model probability comes from a Markov solve, whose last bits may
    move with any change of solver; :func:`model_problems` compares it
    within ``CURVE_RTOL`` instead.
    """
    payload = [
        {
            "cell": row.cell.label(),
            "probability": row.estimate.probability,
            "failures": row.estimate.failures,
            "trials": row.estimate.trials,
            "outcomes": row.estimate.outcome_counts,
        }
        for row in rows
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_problems(rows, trials: int) -> Dict[str, str]:
    """Cells whose outcome accounting does not add up: label -> problem."""
    bad: Dict[str, str] = {}
    for row in rows:
        est = row.estimate
        counts = est.outcome_counts or {}
        silent, detected = est.silent_miscorrections, est.detected_uncorrectable
        if silent is None or detected is None:
            bad[row.cell.label()] = "outcomes not classified"
        elif est.failures != silent + detected:
            bad[row.cell.label()] = (
                f"failures {est.failures} != miscorrected {silent} "
                f"+ unreadable {detected}"
            )
        elif sum(counts.values()) != est.trials or est.trials != trials:
            bad[row.cell.label()] = (
                f"outcome counts sum to {sum(counts.values())}, "
                f"trials {est.trials}, expected {trials}"
            )
    return bad


def model_probabilities(rows) -> Dict[str, Optional[float]]:
    """Cell label -> the row's model probability (``None`` out of model)."""
    return {row.cell.label(): row.model_fail_probability for row in rows}


def model_problems(rows, reference: Dict[str, Optional[float]]) -> Dict[str, str]:
    """Cells whose model probability is not the committed one within rtol."""
    bad: Dict[str, str] = {}
    for label, value in model_probabilities(rows).items():
        expected = reference.get(label, "missing")
        if value is None or expected is None:
            ok = value is None and expected is None
        else:
            ok = expected != "missing" and curve_matches(np.array([value]), [expected])
        if not ok:
            bad[label] = f"model probability {value!r} != committed {expected!r}"
    return bad


def campaign_spec(ctx: Context, workload: str):
    from repro.simulator.campaign import default_validation_campaign
    from repro.simulator.scenarios import get_scenario

    if workload == "campaign-iid":
        cells = default_validation_campaign()
        params = {"n": 18, "k": 16, "m": 8, "t_end_hours": 48.0}
        trials = ctx.sizes["iid_trials"]
    else:
        scenario = get_scenario("stuck-row-permanent")
        cells = list(scenario.cells)
        params = {
            "n": scenario.n,
            "k": scenario.k,
            "m": scenario.m,
            "t_end_hours": scenario.t_end_hours,
        }
        trials = ctx.sizes["scrub_trials"]
    return cells, params, trials


def run_campaign_workload(ctx: Context, workload: str, result: Result) -> None:
    from repro.perf import PerfCounters
    from repro.simulator.campaign import run_campaign

    cells, params, trials = campaign_spec(ctx, workload)
    rng = ctx.rng(workload)

    def next_seed() -> int:
        return int(rng.integers(0, 2**31 - 1))

    def rep(base_seed: int, counters) -> Tuple[List[Any], float]:
        start = time.perf_counter()
        rows = run_campaign(
            cells,
            **params,
            trials=trials,
            base_seed=base_seed,
            engine="auto",
            workers=1,
            counters=counters,
        )
        return rows, time.perf_counter() - start

    models = ctx.reference.get(workload, {}).get("model", {})

    def check(rows, label: str) -> None:
        problems = {**model_problems(rows, models), **row_problems(rows, trials)}
        for row in rows:
            name = row.cell.label()
            result.op(name not in problems, f"{label}, {name}: {problems.get(name)}")

    # Warm-up: fill the codec and field caches before timing.
    rep(2**31 - 2, PerfCounters())

    # Untraced pass: a fixed number of repetitions in a traced run (so
    # its counts repeat for one seed), else until the time is up.
    seeds: List[int] = []
    digests: List[str] = []
    times: List[float] = []
    counters = PerfCounters()
    start = time.perf_counter()
    while not (ctx.trace and len(times) == ctx.sizes["trace_reps"]):
        seeds.append(next_seed())
        rows, dt = rep(seeds[-1], counters)
        check(rows, f"rep {len(times)}")
        digests.append(rows_digest(rows))
        times.append(dt)
        if len(times) == 1:
            first_rows = rows
        if not ctx.trace and time.perf_counter() - start + median(times) > ctx.seconds:
            break

    if ctx.trace:
        tracer = Tracer()
        layers.install(tracer)
        traced_counters = PerfCounters()
        terms0 = layers.uniformization_terms()
        traced_times = []
        try:
            with tracer.collecting():
                for i, base_seed in enumerate(seeds):
                    with tracer.request(f"rep{i}"), tracer.span("bench.rep"):
                        rows, dt = rep(base_seed, traced_counters)
                    traced_times.append(dt)
                    same = rows_digest(rows) == digests[i]
                    for _row in rows:
                        result.op(same, f"rep {i}: traced rows differ from untraced rows")
        finally:
            tracer.uninstall()
        terms = layers.uniformization_terms() - terms0
        tracer.write(ctx.out / f"trace-{workload}.jsonl")
        index = tracer.index()
        result.layer.update(
            layers.span_metrics(index, traced_counters.as_dict(), terms)
        )
        result.layer["trace.overhead_ratio"] = sum(traced_times) / sum(times)
        result.info["trace_spans"] = len(index.spans)
    else:
        # The host's speed can flip between two levels for seconds at a
        # time, which makes pass times bimodal: their mean moves smoothly
        # with the share of the run spent at each level, their median
        # jumps between the levels.  The gate takes the mean.
        mean_pass = sum(times) / len(times)
        result.e2e["trials_per_s"] = (trials * len(cells) / mean_pass, "1/s", len(times))
        result.e2e["pass_mean_s"] = (mean_pass, "s", len(times))
        result.e2e["pass_p50_s"] = (median(times), "s", len(times))
        result.generic["latency_s"] = mean_pass

    if ctx.seed == DEFAULT_SEED:
        reference = ctx.reference.get(workload, {}).get(ctx.size, {})
        expected = reference.get(DIGEST_KEY)
        for _ in cells:
            result.op(
                digests[0] == expected,
                f"rep 0 rows digest {digests[0][:16]} != committed {str(expected)[:16]}",
            )
    result.info["rep_seconds"] = times
    result.info["rep0_digest"] = digests[0]
    result.info["reps"] = len(digests)
    result.info["trials_per_cell"] = trials
    # Information only: duplex `consistent` is one-sided, so it is no check.
    result.info["mc_over_model"] = {
        row.cell.label(): (
            None
            if not row.model_fail_probability
            else row.estimate.probability / row.model_fail_probability
        )
        for row in first_rows
    }
    result.info["counters"] = counters.as_dict()


# --------------------------------------------------------------------------
# Analytic curves
# --------------------------------------------------------------------------

#: The uniformization curves: (label, arrangement, n, k, horizon hours,
#: grid points).  Worst-case SEU rate, a 1e-6/symbol/day permanent rate
#: and hourly scrubbing throughout.
UNIFORMIZATION_CURVES = [
    ("duplex-rs18-16-scrub-1y", "duplex", 18, 16, 365 * 24.0, 48),
    ("simplex-rs36-16-scrub-1y", "simplex", 36, 16, 365 * 24.0, 48),
    ("duplex-rs24-16-scrub-30d", "duplex", 24, 16, 30 * 24.0, 16),
]
CURVE_PERMANENT_RATE = 1e-6
CURVE_SCRUB_SECONDS = 3600.0
CURVE_RTOL = 1e-9


def curve_grid(horizon: float, points: int, size_points: Optional[int]) -> np.ndarray:
    grid = np.linspace(0.0, horizon, points)
    return grid if size_points is None else grid[:size_points]


def compute_curve(label: str, size_points: Optional[int]) -> np.ndarray:
    from repro.analysis.experiments import WORST_CASE_SEU_PER_BIT_DAY
    from repro.memory import duplex_model, simplex_model
    from repro.memory.ber import ber_curve

    _label, arrangement, n, k, horizon, points = next(
        c for c in UNIFORMIZATION_CURVES if c[0] == label
    )
    factory = duplex_model if arrangement == "duplex" else simplex_model
    model = factory(
        n,
        k,
        seu_per_bit_day=WORST_CASE_SEU_PER_BIT_DAY,
        erasure_per_symbol_day=CURVE_PERMANENT_RATE,
        scrub_period_seconds=CURVE_SCRUB_SECONDS,
    )
    grid = curve_grid(horizon, points, size_points)
    return ber_curve(model, grid, method="uniformization", label=label).ber


def curve_matches(values: np.ndarray, reference: Optional[List[float]]) -> bool:
    if reference is None or len(reference) != len(values):
        return False
    return bool(np.allclose(values, np.asarray(reference), rtol=CURVE_RTOL, atol=0.0))


def run_analytic_workload(ctx: Context, result: Result) -> None:
    from repro.analysis.experiments import ALL_FIGURES

    size_points = ctx.sizes["curve_points"]
    fig_points = ctx.sizes["fig_points"]
    references = ctx.reference.get("analytic-curves", {}).get(ctx.size, {})
    ops: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = []
    for fig_id, fn in ALL_FIGURES.items():

        def figure(fn=fn, fig_id=fig_id) -> Tuple[bool, str]:
            experiment = fn(points=fig_points)
            ok = experiment.all_expectations_hold()
            return ok, f"{fig_id}: expectations failed {experiment.failed_expectations()}"

        ops.append((fig_id, figure))
    for label, *_rest in UNIFORMIZATION_CURVES:

        def curve(label=label) -> Tuple[bool, str]:
            values = compute_curve(label, size_points)
            ok = curve_matches(values, references.get(label))
            return ok, f"{label}: BER curve differs from the committed reference"

        ops.append((label, curve))

    rng = ctx.rng("analytic-curves")
    tracer: Optional[Tracer] = None

    # Warm-up: lazy imports and first-use caches, on small grids.
    for fn in ALL_FIGURES.values():
        fn(points=3)
    for label, *_rest in UNIFORMIZATION_CURVES:
        compute_curve(label, 2)

    def run_set(
        stop_after: Optional[float] = None,
        per_op: Optional[Dict[str, List[float]]] = None,
    ) -> float:
        """Run the ops once in a seed-shuffled order; returns the wall time.

        With ``per_op``, each op's time is appended to its list, and the
        set ends early once ``stop_after`` has passed and every op has a
        sample.
        """
        start = time.perf_counter()
        for i in rng.permutation(len(ops)):
            label, op = ops[i]
            if (
                per_op is not None
                and time.perf_counter() >= stop_after
                and all(per_op.values())
            ):
                break
            op_start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.request(label), tracer.span("bench.curve"):
                        ok, why = op()
                else:
                    ok, why = op()
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                ok, why = False, f"{label}: raised {traceback.format_exc(limit=3)}"
            if per_op is not None:
                per_op[label].append(time.perf_counter() - op_start)
            result.op(ok, why)
        return time.perf_counter() - start

    if ctx.trace:
        untraced = run_set()
        tracer = Tracer()
        layers.install(tracer)
        terms0 = layers.uniformization_terms()
        try:
            with tracer.collecting():
                traced = run_set()
        finally:
            tracer.uninstall()
        terms = layers.uniformization_terms() - terms0
        tracer.write(ctx.out / "trace-analytic-curves.jsonl")
        result.layer.update(layers.span_metrics(tracer.index(), None, terms))
        result.layer["trace.overhead_ratio"] = traced / untraced
    else:
        # Keep cycling through shuffled sets until the time is up, then
        # add up each operation's mean time (as for the campaign passes):
        # every second of the run counts.
        per_op: Dict[str, List[float]] = {label: [] for label, _op in ops}
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds or not all(per_op.values()):
            run_set(start + ctx.seconds, per_op)
        curve_set = sum(float(np.mean(times)) for times in per_op.values())
        samples = min(len(times) for times in per_op.values())
        result.e2e["curve_set_s"] = (curve_set, "s", samples)
        result.generic["latency_s"] = curve_set
        result.info["op_seconds"] = {label: float(np.mean(t)) for label, t in per_op.items()}
    result.info["ops_per_set"] = [label for label, _op in ops]


# --------------------------------------------------------------------------
# Service jobs
# --------------------------------------------------------------------------


def _die_with_parent() -> None:
    """In the child: get SIGTERM if the benchmark process dies first."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """One ``repro serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, ctx: Context, state_dir: Path, workers: int):
        if state_dir.exists():
            shutil.rmtree(state_dir)
        state_dir.mkdir(parents=True)
        self.log = open(state_dir.parent / f"{state_dir.name}.stderr", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(state_dir),
                "--port", "0",
                "--max-jobs", str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=_env(ctx),
            cwd=ctx.root,
            preexec_fn=_die_with_parent,
        )
        try:
            self.port = self._read_port(deadline=time.monotonic() + 60)
            self._wait_healthy(deadline=time.monotonic() + 60)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not print its banner")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("repro serve closed stdout")
                line += chunk
        # "repro service on http://127.0.0.1:PORT (state: ...)"
        url = line.decode().split("http://", 1)[1].split()[0]
        return int(url.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                status, _ = http_request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()


def http_request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    status, body = http_request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out: Dict[str, float] = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


#: Closed-loop clients.  The server runs its jobs on threads of one
#: Python process, so two clients' jobs contend for its interpreter lock
#: by however much they happen to overlap.  On a 2-vCPU host, with
#: 400-trial jobs, two clients gave a median miss latency whose quartiles
#: over ten seeds lay 0.34 of the median apart; one client's stayed
#: within 0.118-0.125 s over five seeds.
CLIENTS = 1


#: The job every miss submits: the spec of the repository's CI service
#: smoke test (the ``iid-baseline`` scenario preset) with a seed drawn
#: from the benchmark's seed and 2000 trials (``job_trials``).  `/stream`
#: polls every 50 ms; with the preset's own 400 trials a job took about
#: one poll, so a small change of speed moved whole jobs across a step
#: and the mean latency spread 0.28 of its median over ten seeds.  At
#: 2000 trials a job spans about six polls.  No measured service traffic
#: exists to copy a mix from, so hits and misses are measured in two
#: separate phases and reported apart; no hit share enters a gated metric.
JOB_SCENARIO = "iid-baseline"


def miss_specs(ctx: Context, client: int):
    """Client ``client``'s endless stream of distinct specs (cache misses)."""
    rng = ctx.rng("service-jobs", client)
    trials = ctx.sizes["job_trials"]
    while True:
        spec: Dict[str, Any] = {
            "scenario": JOB_SCENARIO,
            "seed": int(rng.integers(0, 2**31 - 1)),
            "tenant": f"client{client}",
        }
        if trials is not None:
            spec["trials"] = trials
        yield spec


def hit_specs(ctx: Context, client: int, misses: List["JobRecord"]) -> List[Dict[str, Any]]:
    """Every spec the client's miss phase completed, in a seeded order."""
    done = [r.spec for r in misses if r.error is None]
    rng = ctx.rng("service-jobs", client, 1)
    return [done[i] for i in rng.permutation(len(done))]


@dataclass
class JobRecord:
    spec: Dict[str, Any]
    repeat: bool
    latency: float = 0.0
    cached: Optional[bool] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


def run_job(port: int, spec: Dict[str, Any], repeat: bool, tracer: Optional[Tracer]) -> JobRecord:
    """POST the spec, wait on /stream for the terminal line, GET /result."""
    record = JobRecord(spec, repeat)

    def call(name: str, method: str, path: str, body: Optional[bytes] = None):
        if tracer is None:
            return http_request(port, method, path, body)
        with tracer.span(name):
            return http_request(port, method, path, body)

    start = time.perf_counter()
    status, raw = call("service.submit", "POST", "/v1/jobs", json.dumps(spec).encode())
    if status != 200:
        record.error = f"submit answered {status}: {raw[:200]!r}"
        return record
    job_id = json.loads(raw)["job_id"]
    if tracer is not None:
        tracer.set_request(job_id)
    status, raw = call("service.stream", "GET", f"/v1/jobs/{job_id}/stream")
    lines = raw.decode().strip().splitlines()
    final = json.loads(lines[-1]) if status == 200 and lines else {}
    if final.get("kind") != "status" or final.get("state") != "done":
        record.error = f"{job_id}: stream ended with {final or status}"
        return record
    status, raw = call("service.result", "GET", f"/v1/jobs/{job_id}/result")
    if status != 200:
        record.error = f"{job_id}: result answered {status}"
        return record
    reply = json.loads(raw)
    record.cached = bool(reply["cached"])
    record.result = reply["result"]
    record.latency = time.perf_counter() - start
    return record


def closed_loop(
    port: int,
    streams: List[Any],
    repeat: bool,
    limit: Optional[int],
    deadline: Optional[float],
    tracer: Optional[Tracer] = None,
) -> Tuple[List[List[JobRecord]], float]:
    """Client ``i`` sends the specs of ``streams[i]``, each only after its
    previous job has ended; it stops after ``limit`` jobs, at the
    ``deadline`` or at the end of its stream."""
    records: List[List[JobRecord]] = [[] for _ in streams]
    errors: List[BaseException] = []
    phase = "hit" if repeat else "miss"

    def client(i: int) -> None:
        try:
            for j, spec in enumerate(streams[i]):
                if limit is not None and j >= limit:
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                if tracer is None:
                    records[i].append(run_job(port, spec, repeat, None))
                else:
                    with tracer.request(f"client{i}.{phase}{j}"), tracer.span("service.job"):
                        records[i].append(run_job(port, spec, repeat, tracer))
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
        if t.is_alive():
            raise RuntimeError("a service client did not finish")
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return records, wall


def run_phases(
    ctx: Context,
    port: int,
    limit: Optional[int],
    deadline: Optional[float],
    tracer: Optional[Tracer] = None,
) -> Tuple[List[List[JobRecord]], float, List[List[JobRecord]], float]:
    """The miss phase (distinct specs), then the hit phase (each client
    resubmits every spec its miss phase completed)."""
    clients = CLIENTS
    misses, miss_wall = closed_loop(
        port, [miss_specs(ctx, i) for i in range(clients)], False, limit, deadline, tracer
    )
    hits, hit_wall = closed_loop(
        port, [hit_specs(ctx, i, misses[i]) for i in range(clients)], True, None, None, tracer
    )
    return misses, miss_wall, hits, hit_wall


def check_jobs(
    misses: List[List[JobRecord]], hits: List[List[JobRecord]], result: Result
) -> None:
    """Per-job checks: reply codes, row accounting, cache byte-equality."""
    first: Dict[str, str] = {}
    for rec in [r for per in misses + hits for r in per]:
        key = json.dumps(rec.spec, sort_keys=True)
        if rec.error is not None:
            result.op(False, rec.error)
            continue
        text = json.dumps(rec.result, sort_keys=True, separators=(",", ":"))
        problems = []
        for row in rec.result["rows"]:
            counts = row["outcome_counts"]
            if row["failures"] != row["silent_miscorrections"] + row["detected_uncorrectable"]:
                problems.append(f"{row['cell']}: failures do not split")
            if sum(counts.values()) != row["trials"]:
                problems.append(f"{row['cell']}: outcome counts do not sum to trials")
        if rec.repeat:
            if not rec.cached:
                problems.append("a repeated spec was not served from the cache")
            if first.get(key) != text:
                problems.append("cache-hit result differs from the miss result")
        else:
            first[key] = text
        result.op(not problems, "; ".join(problems))


def check_direct(ctx: Context, records: List[List[JobRecord]], result: Result) -> None:
    """One spec's rows must equal those of a direct ``run_campaign`` call."""
    from repro.service.protocol import parse_spec, rows_payload
    from repro.simulator.campaign import run_campaign

    rec = next((r for per in records for r in per if r.error is None), None)
    if rec is None:
        return
    _tenant, spec = parse_spec(rec.spec)
    rows = run_campaign(
        list(spec.cells),
        n=spec.n,
        k=spec.k,
        m=spec.m,
        t_end_hours=spec.t_end_hours,
        trials=spec.trials,
        base_seed=spec.seed,
        engine=spec.engine,
        workers=spec.workers,
        chunk_size=spec.chunk_size,
    )
    ok = rows_payload(rows) == rec.result["rows"]
    result.op(ok, "service rows differ from a direct run_campaign call")


def latencies(records: List[List[JobRecord]]) -> List[float]:
    return [r.latency for per in records for r in per if r.error is None]


def run_service_workload(ctx: Context, result: Result) -> None:
    clients = CLIENTS
    state = ctx.out / "service-state"
    result.info["clients"] = clients
    if ctx.trace:
        n_jobs = ctx.sizes["trace_jobs_per_client"]
        server = Server(ctx, state, clients)
        try:
            misses, miss_wall, hits, hit_wall = run_phases(ctx, server.port, n_jobs, None)
        finally:
            server.stop()
        check_jobs(misses, hits, result)
        untraced_wall = miss_wall + hit_wall
        tracer = Tracer()
        server = Server(ctx, state, clients)
        try:
            with tracer.collecting():
                misses, miss_wall, hits, hit_wall = run_phases(
                    ctx, server.port, n_jobs, None, tracer
                )
            metrics = scrape(server.port)
        finally:
            server.stop()
        check_jobs(misses, hits, result)
        tracer.write(ctx.out / "trace-service-jobs.jsonl")
        index = tracer.index()
        miss_latency = latencies(misses)
        cache_hits = metrics.get("repro_service_cache_hits", 0.0)
        lookups = cache_hits + metrics.get("repro_service_cache_misses", 0.0)
        miss_jobs = metrics.get("repro_service_jobs_completed", 0.0)
        chunk_s = metrics.get("repro_mc_chunk_seconds_sum", 0.0)
        result.layer.update(
            {
                "service.submit_s": median([index.duration(s) for s in index.named("service.submit")]),
                "service.result_fetch_s": median([index.duration(s) for s in index.named("service.result")]),
                "service.cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
                "service.cache_lookups": int(lookups),
                "service.http_errors": int(metrics.get("repro_service_http_errors", 0.0)),
                "service.jobs_completed": int(miss_jobs),
                "service.overhead_s": (
                    median(miss_latency) - chunk_s / miss_jobs
                    if miss_latency and miss_jobs
                    else 0.0
                ),
                "trace.overhead_ratio": (miss_wall + hit_wall) / untraced_wall,
            }
        )
        check_direct(ctx, misses, result)
        return

    def spawn_times(count: int) -> List[float]:
        times = []
        for _ in range(count):
            server = Server(ctx, state, clients)
            times.append(server.setup_s)
            server.stop()
        return times

    before, after = split_probes(ctx)
    spawns = spawn_times(before - 1)
    server = Server(ctx, state, clients)
    spawns.append(server.setup_s)
    try:
        deadline = time.perf_counter() + ctx.seconds
        misses, miss_wall, hits, _hit_wall = run_phases(ctx, server.port, None, deadline)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    spawns += spawn_times(after)
    check_jobs(misses, hits, result)
    check_direct(ctx, misses, result)
    miss_latency, hit_latency = latencies(misses), latencies(hits)
    if not miss_latency or not hit_latency:
        raise RuntimeError("no service job completed")
    result.e2e["setup_s"] = (median(spawns), "s", len(spawns))
    # `/stream` polls every 50 ms, so miss latencies come in steps of
    # 50 ms and their median sticks to a step; their mean moves smoothly.
    mean_miss = sum(miss_latency) / len(miss_latency)
    result.e2e["job_latency_mean_s"] = (mean_miss, "s", len(miss_latency))
    result.e2e["job_latency_p50_s"] = (median(miss_latency), "s", len(miss_latency))
    result.e2e["job_latency_p90_s"] = (p90(miss_latency), "s", len(miss_latency))
    result.e2e["jobs_per_s"] = (len(miss_latency) / miss_wall, "1/s", len(miss_latency))
    result.e2e["hit_latency_p50_s"] = (median(hit_latency), "s", len(hit_latency))
    result.e2e["peak_rss_mb"] = (rss, "MB", 1)
    result.generic.update(
        {
            "setup_s": median(spawns),
            "latency_s": mean_miss,
            "peak_rss_mb": rss,
        }
    )
    result.info["jobs"] = {"miss": len(miss_latency), "hit": len(hit_latency)}
    result.info["cache_hits"] = sum(1 for per in hits for r in per if r.cached)


# --------------------------------------------------------------------------
# Dispatch
# --------------------------------------------------------------------------


def run(ctx: Context, workload: str) -> Result:
    """Run one workload: set-up measurement, then the workload itself."""
    result = Result()
    ctx.out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        # `--engine auto` announces a missing compiled backend once per
        # process; the backend it resolved to is recorded in the metadata.
        warnings.simplefilter("ignore")
        # The service's end-to-end set-up is its server spawn, which the
        # workload measures itself.
        probes = ctx.trace or workload != "service-jobs"
        before, after = split_probes(ctx)
        if probes:
            setup = probe_setup(ctx, before)
        if workload == "service-jobs":
            run_service_workload(ctx, result)
        elif workload in ("campaign-iid", "campaign-scrub"):
            run_campaign_workload(ctx, workload, result)
        elif workload == "analytic-curves":
            run_analytic_workload(ctx, result)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        if probes:
            for name, values in probe_setup(ctx, after).items():
                setup[name] += values
            if ctx.trace:
                result.layer["cli.import_s"] = median(setup["cli.import_s"])
                result.layer["rs.codec_build_s"] = median(setup["rs.codec_build_s"])
            else:
                walls = setup["setup_s"]
                result.e2e["setup_s"] = (median(walls), "s", len(walls))
                result.generic["setup_s"] = median(walls)
        if not ctx.trace and workload != "service-jobs":
            rss = peak_rss_mb_self()
            result.e2e["peak_rss_mb"] = (rss, "MB", 1)
            result.generic["peak_rss_mb"] = rss
    return result

"""Supervisor behaviour under injected crashes, hangs, and poison.

The resilience contract: any campaign that completes — with retries,
pool restarts, or engine fallbacks along the way — yields exactly the
result an undisturbed run would have produced, except for chunks that
were *persistently* un-runnable on the batch engine, which degrade to
the deterministic scalar reference executor.
"""

import pickle
import warnings
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    ChunkFailedError,
    ChunkSupervisor,
    ResilienceWarning,
    RetryPolicy,
    RuntimeConfig,
    parse_chaos_spec,
    seed_key,
)
from repro.simulator import (
    chunk_sizes,
    simulate_fail_probability_batched,
    spawn_chunk_seeds,
)
from repro.simulator.montecarlo import (
    ChunkSpec,
    _run_injection_chunk,
    _run_scalar_chunk,
    wilson_interval,
)
from repro.simulator.systems import ReadOutcome

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


def chunk_spec(n_trials, seed_seq):
    """The chunk spec ``batched`` builds for one of its chunks."""
    return ChunkSpec(
        arrangement="simplex",
        n=18,
        k=16,
        m=8,
        fcr=1,
        t_end=48.0,
        seu_per_bit=LAM,
        erasure_per_symbol=0.0,
        scrub_period=None,
        scrub_exponential=False,
        n_trials=n_trials,
        seed_seq=seed_seq,
        pattern_spec=None,
        schedule_spec=None,
        backend="numpy",
    )


def batched(runtime=None, counters=None, workers=1, **kw):
    kw.setdefault("trials", 300)
    kw.setdefault("seed", 17)
    kw.setdefault("chunk_size", 75)
    return simulate_fail_probability_batched(
        "simplex", CODE, 48.0, LAM, 0.0,
        runtime=runtime, counters=counters, workers=workers, **kw
    )


def scalar_reference(trials=300, seed=17, chunk_size=75):
    """The estimate a fully scalar-degraded run must produce."""
    sizes = chunk_sizes(trials, chunk_size)
    seeds = spawn_chunk_seeds(seed, len(sizes))
    failures = 0
    counts = {outcome.value: 0 for outcome in ReadOutcome}
    for size, seed_seq in zip(sizes, seeds):
        res = _run_scalar_chunk(chunk_spec(size, seed_seq))
        failures += res["failures"]
        for key, value in res["counts"].items():
            counts[key] += value
    return failures, counts


REFERENCE = batched()


class TestSerialResilience:
    def test_transient_crash_retries_to_identical_result(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("crash@1")
        )
        estimate = batched(runtime=runtime, counters=counters)
        assert estimate == REFERENCE
        assert counters.retries == 1
        assert counters.chunk_failures == 1
        assert counters.engine_fallbacks == 0

    def test_poisoned_chunk_degrades_to_scalar_engine(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("poison@2")
        )
        with pytest.warns(ResilienceWarning, match="scalar"):
            estimate = batched(runtime=runtime, counters=counters)
        assert counters.engine_fallbacks == 1
        assert counters.chunk_failures == FAST_RETRY.max_attempts
        # The degraded chunk ran the deterministic scalar executor with
        # the same spawned seed: reconstruct the expected estimate.
        sizes = chunk_sizes(300, 75)
        seeds = spawn_chunk_seeds(17, len(sizes))
        scalar_res = _run_scalar_chunk(chunk_spec(sizes[2], seeds[2]))
        expected_failures = (
            REFERENCE.failures - _chunk_failures(2) + scalar_res["failures"]
        )
        assert estimate.failures == expected_failures
        assert estimate.trials == 300
        low, high = wilson_interval(expected_failures, 300)
        assert (estimate.ci_low, estimate.ci_high) == (low, high)

    def test_poison_everywhere_matches_full_scalar_reference(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("poison@*")
        )
        with pytest.warns(ResilienceWarning):
            estimate = batched(runtime=runtime, counters=counters)
        failures, counts = scalar_reference()
        assert estimate.failures == failures
        assert estimate.outcome_counts == counts
        assert counters.engine_fallbacks == 4

    def test_fallbackless_chunk_failure_raises(self):
        supervisor = ChunkSupervisor(retry=FAST_RETRY)
        with pytest.raises(ChunkFailedError, match="no fallback"):
            supervisor.run([(0, ())], primary=_always_fails, fallback=None)

    def test_failing_fallback_raises_chunk_failed(self):
        supervisor = ChunkSupervisor(retry=FAST_RETRY)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResilienceWarning)
            with pytest.raises(ChunkFailedError, match="fallback engine too"):
                supervisor.run(
                    [(0, ())], primary=_always_fails, fallback=_always_fails
                )

    def test_events_are_recorded(self):
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("crash@0")
        )
        batched(runtime=runtime)
        kinds = [event.kind for event in runtime.events]
        assert "retry" in kinds


def _chunk_failures(index, trials=300, seed=17, chunk_size=75):
    """Failures chunk ``index`` contributes to the undisturbed batch run."""
    sizes = chunk_sizes(trials, chunk_size)
    seeds = spawn_chunk_seeds(seed, len(sizes))
    res = _run_injection_chunk(chunk_spec(sizes[index], seeds[index]))
    return res["failures"]


def test_chunk_spec_survives_pickle_round_trip():
    spec = chunk_spec(75, spawn_chunk_seeds(17, 1)[0])
    clone = pickle.loads(pickle.dumps(spec))
    assert type(clone) is ChunkSpec
    # SeedSequence has no value equality: compare the seed by identity key.
    assert seed_key(clone.seed_seq) == seed_key(spec.seed_seq)
    assert replace(clone, seed_seq=None) == replace(spec, seed_seq=None)
    ran, ran_clone = _run_injection_chunk(spec), _run_injection_chunk(clone)
    assert (ran_clone["failures"], ran_clone["counts"]) == (
        ran["failures"],
        ran["counts"],
    )
    with pytest.raises(FrozenInstanceError):
        spec.backend = "scalar"


def _always_fails(_args):
    raise RuntimeError("boom")


@pytest.mark.chaos
class TestPooledResilience:
    def test_worker_crash_is_retried_to_identical_result(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            chaos=parse_chaos_spec("crash@1"),
        )
        estimate = batched(runtime=runtime, counters=counters, workers=2)
        assert estimate == REFERENCE
        assert counters.worker_crashes >= 1
        assert counters.pool_restarts >= 1
        assert counters.retries >= 1
        assert counters.engine_fallbacks == 0

    def test_hung_worker_is_timed_out_and_retried(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            chunk_timeout=2.0,
            chaos=parse_chaos_spec("hang@2:60"),
        )
        estimate = batched(runtime=runtime, counters=counters, workers=2)
        assert estimate == REFERENCE
        assert counters.chunk_timeouts == 1
        assert counters.pool_restarts >= 1
        assert counters.engine_fallbacks == 0

    def test_dying_pool_degrades_to_serial_and_completes(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_pool_restarts=2
            ),
            chaos=parse_chaos_spec("crash@*:-1"),
        )
        with pytest.warns(ResilienceWarning, match="serial"):
            estimate = batched(runtime=runtime, counters=counters, workers=2)
        # Crashes persist in-process too (as ChaosCrashError), so every
        # remaining chunk must have ended on the scalar fallback — and
        # the run still completes with the full trial count.
        assert counters.serial_fallbacks == 1
        assert counters.pool_restarts == 2
        assert counters.engine_fallbacks >= 1
        assert estimate.trials == 300
        assert sum(estimate.outcome_counts.values()) == 300

    def test_poisoned_chunk_in_pool_degrades_only_that_chunk(self):
        counters = PerfCounters()
        runtime = RuntimeConfig(
            retry=FAST_RETRY, chaos=parse_chaos_spec("poison@0")
        )
        with pytest.warns(ResilienceWarning, match="scalar"):
            estimate = batched(runtime=runtime, counters=counters, workers=2)
        assert counters.engine_fallbacks == 1
        sizes = chunk_sizes(300, 75)
        seeds = spawn_chunk_seeds(17, len(sizes))
        scalar_res = _run_scalar_chunk(chunk_spec(sizes[0], seeds[0]))
        expected = REFERENCE.failures - _chunk_failures(0) + scalar_res["failures"]
        assert estimate.failures == expected

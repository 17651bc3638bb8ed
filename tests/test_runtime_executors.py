"""Executor parity, straggler re-dispatch, and lease-board discipline.

The pluggable-executor contract: serial, pool, and lease backends move
*scheduling only*.  For the same seed they must produce bit-identical
estimates, bit-identical per-chunk journal records (timing fields
aside), and identical deterministic work counters.  Straggler
speculation may issue duplicate chunk copies, but first-result-wins
dedup keeps every derived number — including the chunk-latency
histogram — exactly what a speculation-free run would report.
"""

import tempfile
from pathlib import Path

import pytest

from repro.obs import metrics as obs_metrics
from repro.perf import PerfCounters
from repro.rs import RSCode
from repro.runtime import (
    CheckpointJournal,
    JournalLock,
    JournalLockedError,
    LeaseExecutor,
    RuntimeConfig,
    StragglerPolicy,
    make_executor,
    parse_chaos_spec,
    scan_journal,
)
from repro.runtime.supervisor import CHUNK_LATENCY_METRIC
from repro.simulator import simulate_fail_probability_batched

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0

#: Result-dict fields that must be identical across executors; the
#: "counters" entry carries cpu_seconds and is compared separately with
#: its timing fields masked.
_TIMING_FIELDS = {"cpu_seconds", "elapsed_seconds", "kernel_seconds"}


def run(executor=None, workers=1, journal=None, chaos=None, straggler=None,
        trials=300, seed=17):
    runtime = RuntimeConfig(
        executor=executor, journal=journal, chaos=chaos, straggler=straggler
    )
    return simulate_fail_probability_batched(
        "simplex",
        CODE,
        48.0,
        LAM,
        0.0,
        trials,
        seed=seed,
        chunk_size=50,
        workers=workers,
        runtime=runtime,
    )


def _chunk_fields(journal_path):
    """Deterministic per-chunk fields from a journal, keyed by index."""
    out = {}
    for _line, record in scan_journal(journal_path).chunk_records:
        result = record["result"]
        counters = {
            k: v
            for k, v in result["counters"].items()
            if k not in _TIMING_FIELDS
        }
        out[record["chunk"]] = (
            result["failures"],
            result["trials"],
            dict(result["counts"]),
            counters,
            record["seed"],
        )
    return out


# --------------------------------------------------------------------------
# three-way parity
# --------------------------------------------------------------------------


@pytest.mark.chaos
def test_serial_pool_lease_journals_bit_identical(tmp_path):
    estimates, journals = {}, {}
    for name, workers in (("serial", 1), ("pool", 2), ("lease", 2)):
        path = tmp_path / f"{name}.jsonl"
        with CheckpointJournal(path) as journal:
            estimates[name] = run(
                executor=name, workers=workers, journal=journal
            )
        journals[name] = _chunk_fields(path)
    ref = estimates["serial"]
    for name in ("pool", "lease"):
        est = estimates[name]
        assert (est.failures, est.trials, est.probability) == (
            ref.failures,
            ref.trials,
            ref.probability,
        ), name
        assert est.outcome_counts == ref.outcome_counts, name
        assert (est.ci_low, est.ci_high) == (ref.ci_low, ref.ci_high), name
    assert journals["serial"] == journals["pool"] == journals["lease"]
    assert len(journals["serial"]) == 6  # 300 trials / 50


@pytest.mark.chaos
def test_parity_holds_with_adaptive_stopping(tmp_path):
    from repro.runtime import StoppingRule

    stop = StoppingRule(rel_ci=1.0, min_trials=100)
    results = []
    for name, workers in (("serial", 1), ("pool", 2), ("lease", 4)):
        runtime = RuntimeConfig(executor=name, stop=stop)
        results.append(
            simulate_fail_probability_batched(
                "simplex", CODE, 48.0, LAM, 0.0, 600,
                seed=17, chunk_size=50, workers=workers, runtime=runtime,
            )
        )
    first = results[0]
    assert first.stopped_early
    for other in results[1:]:
        assert (other.failures, other.trials, other.probability) == (
            first.failures,
            first.trials,
            first.probability,
        )


def test_merged_counters_deterministic_across_executors():
    fields = []
    for name, workers in (("serial", 1), ("pool", 2)):
        counters = PerfCounters()
        runtime = RuntimeConfig(executor=name)
        simulate_fail_probability_batched(
            "simplex", CODE, 48.0, LAM, 0.0, 300,
            seed=17, chunk_size=50, workers=workers,
            counters=counters, runtime=runtime,
        )
        snap = counters.as_dict()
        fields.append(
            {k: v for k, v in snap.items() if k not in _TIMING_FIELDS}
        )
    assert fields[0] == fields[1]
    assert fields[0]["trials"] == 300
    assert fields[0]["chunks"] == 6


# --------------------------------------------------------------------------
# straggler re-dispatch
# --------------------------------------------------------------------------


@pytest.mark.chaos
def test_straggler_redispatched_without_double_counting():
    """``slow@1`` makes chunk 1 a straggler: a speculative copy must be
    issued, the estimate must not change, and the chunk-latency
    histogram must count each chunk exactly once (re-dispatch used to
    double-observe the winning chunk's latency)."""
    reference = run()
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    try:
        counters = PerfCounters()
        runtime = RuntimeConfig(
            executor="pool",
            chaos=parse_chaos_spec("slow@1:1.0"),
            straggler=StragglerPolicy(
                factor=1.0, min_seconds=0.25, min_samples=2, max_copies=2
            ),
        )
        estimate = simulate_fail_probability_batched(
            "simplex", CODE, 48.0, LAM, 0.0, 300,
            seed=17, chunk_size=50, workers=2,
            counters=counters, runtime=runtime,
        )
        histogram = (
            obs_metrics.get_registry()
            .histogram(CHUNK_LATENCY_METRIC)
            .snapshot()
        )
    finally:
        obs_metrics.set_registry(previous)
    assert counters.stragglers_redispatched >= 1
    assert (estimate.failures, estimate.trials, estimate.probability) == (
        reference.failures,
        reference.trials,
        reference.probability,
    )
    assert estimate.outcome_counts == reference.outcome_counts
    # one latency observation per chunk, no matter how many copies ran
    assert histogram["count"] == 6
    # dedup bookkeeping is consistent: every duplicate that landed was
    # counted, never folded into the estimate
    assert counters.trials == 300


def test_straggler_policy_threshold():
    policy = StragglerPolicy(
        factor=2.0, min_seconds=0.5, min_samples=3, max_copies=2
    )
    assert policy.threshold([0.1]) is None  # too few samples
    assert policy.threshold([0.1, 0.1, 0.1]) == 0.5  # floor dominates
    assert policy.threshold([1.0, 2.0, 3.0]) == 6.0  # 2 x p95


# --------------------------------------------------------------------------
# lease-board single-coordinator discipline
# --------------------------------------------------------------------------


def test_second_lease_coordinator_fails_fast(tmp_path):
    board = tmp_path / "board"
    first = LeaseExecutor(1, board_dir=board)
    try:
        with pytest.raises(JournalLockedError):
            LeaseExecutor(1, board_dir=board)
    finally:
        first.close()
    # a clean shutdown releases the board for the next coordinator
    second = LeaseExecutor(1, board_dir=board)
    second.close()


def test_contended_lease_board_surfaces_lock_error(tmp_path):
    """The campaign path raises JournalLockedError when the lease board
    is held — the exact exception ``repro campaign`` maps to exit 75."""
    journal_path = tmp_path / "ckpt.jsonl"
    board = Path(str(journal_path) + ".board")
    board.mkdir()
    holder = JournalLock(board / "board")
    holder.acquire()
    try:
        with CheckpointJournal(journal_path) as journal:
            with pytest.raises(JournalLockedError):
                run(executor="lease", workers=2, journal=journal)
    finally:
        holder.release()


def test_make_executor_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown executor"):
        make_executor("threads")


# --------------------------------------------------------------------------
# lease publish durability (done/ dir fsync before lease release)
# --------------------------------------------------------------------------


def _lease_board(tmp_path):
    board = tmp_path / "board"
    for sub in ("todo", "leases", "done"):
        (board / sub).mkdir(parents=True)
    return board


def _echo_result(args):
    return {"value": args[0]}


def _post_lease_task(board, token=0):
    import pickle

    with open(board / "todo" / f"{token:08d}.task", "wb") as fh:
        pickle.dump((_echo_result, token, 0, None, (7,)), fh)


def test_lease_publish_fsyncs_done_dir_before_lease_release(
    tmp_path, monkeypatch
):
    """The done/ directory entry must be durable *before* the lease (the
    only evidence the chunk was claimed) is removed."""
    from repro.runtime import executors

    board = _lease_board(tmp_path)
    _post_lease_task(board)
    real_fsync_dir = executors.fsync_dir
    observed = []

    def recording(path):
        observed.append(
            (
                (board / "done" / "00000000.done").exists(),
                any((board / "leases").iterdir()),
            )
        )
        (board / "STOP").touch()  # let the worker loop exit after this task
        return real_fsync_dir(path)

    monkeypatch.setattr(executors, "fsync_dir", recording)
    executors._lease_worker_main(str(board))
    # exactly one publish: at fsync time the rename had landed and the
    # lease had not yet been released
    assert observed == [(True, True)]
    assert (board / "done" / "00000000.done").exists()
    assert not any((board / "leases").iterdir())


def test_lease_publish_crash_window_never_loses_both(tmp_path, monkeypatch):
    """Regression: a crash between publishing the done-file and removing
    the lease must leave BOTH behind — before the fix, the lease could
    be gone while the done-file's directory entry was still volatile,
    silently losing a completed chunk."""
    from repro.runtime import executors

    board = _lease_board(tmp_path)
    _post_lease_task(board)

    def crash(path):
        raise RuntimeError("injected host crash during done/ fsync")

    monkeypatch.setattr(executors, "fsync_dir", crash)
    with pytest.raises(RuntimeError, match="injected host crash"):
        executors._lease_worker_main(str(board))
    assert (board / "done" / "00000000.done").exists()
    assert list((board / "leases").iterdir())  # claim evidence retained


def test_lease_board_defaults_to_private_tempdir():
    executor = make_executor("lease", workers=1)
    try:
        board = executor.board
        assert board.exists()
        assert tempfile.gettempdir() in str(board)
    finally:
        executor.close()
    assert not board.exists()  # private boards are cleaned up on close


def _freeze_count(_args):
    import gc

    return {"frozen": gc.get_freeze_count()}


def test_pool_workers_freeze_the_inherited_heap():
    # Forked workers must keep their collector off the coordinator's
    # objects (no copy-on-write from full collections).
    executor = make_executor("pool", 1)
    try:
        token = executor.submit((_freeze_count, 0, 0, None, None))
        done = []
        while not done:
            done = executor.poll(timeout=10.0)
    finally:
        executor.close()
    assert done[0].token == token and done[0].error is None
    assert done[0].result["frozen"] > 0

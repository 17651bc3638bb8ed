"""Pluggable chunk executors behind the campaign coordinator.

:class:`~repro.runtime.supervisor.ChunkSupervisor` used to *be* the
process pool; now it is a coordinator that speaks a small asynchronous
interface — :class:`Executor` — with three implementations:

* :class:`SerialExecutor` — synchronous in-process execution.  The
  degenerate executor the coordinator uses for ``workers=1``; faults
  surface as typed exceptions (chaos crash/hang cannot kill the
  parent), exactly the historical serial semantics.
* :class:`PoolExecutor` — the existing ``ProcessPoolExecutor`` path.
  Worker death breaks the whole pool (``BrokenProcessPool``), so it is
  *not* self-healing: the coordinator tears it down, requeues the
  innocent in-flight chunks, and restarts.
* :class:`LeaseExecutor` — a multi-host-shaped pull model.  The
  coordinator posts pickled chunk payloads to an on-disk *board* (a
  sibling of the checkpoint journal, guarded by the integrity layer's
  :class:`~repro.runtime.integrity.JournalLock`); long-lived worker
  processes *lease* the lowest-numbered task by atomic rename and write
  results back atomically.  Claiming is lock-free work-stealing — an
  idle worker takes whatever is posted, so a second copy of a straggler
  chunk is picked up by whichever worker frees first.  A worker that
  dies holding a lease is detected by its orphaned lease file and
  respawned (self-healing: other workers keep their leases), and a
  second coordinator attaching to the same board fails fast with
  :class:`~repro.runtime.integrity.JournalLockedError` — the same
  single-writer discipline (and CLI exit path) as the journal itself.

Executors move *scheduling* only.  Chunk payloads carry their own
spawned ``SeedSequence``; results are merged commutatively and
deduplicated by chunk id upstream, so any executor, any worker count,
and any completion order yields bit-identical estimates.
"""

from __future__ import annotations

import concurrent.futures as cf
import gc
import math
import os
import pickle
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..ioutil import fsync_dir
from .integrity import JournalLock

#: Executor names accepted by :func:`make_executor` (and ``--executor``).
EXECUTOR_NAMES = ("serial", "pool", "lease", "fleet")


def _supervised_call(payload: tuple) -> Dict[str, Any]:
    """Worker entry point: apply chaos injection, then run the executor.

    Module-level so it pickles; runs in worker processes (pool/lease
    modes) or the parent (serial mode) — :meth:`ChaosSpec.before_chunk`
    adapts crash/hang semantics to whichever side it is on.
    """
    fn, chunk_index, attempt, chaos, args = payload
    if chaos is not None:
        chaos.before_chunk(chunk_index, attempt)
    return fn(args)


@dataclass
class ChunkState:
    """Per-chunk dispatch bookkeeping (one instance per chunk index).

    This used to be four parallel structures threaded through a
    300-line dispatch loop (``failures`` dict, queue tuples carrying
    ``not_before``, in-flight tuples carrying deadlines and submit
    times); collecting it per chunk makes retry/backoff/speculation
    state inspectable in one place.
    """

    index: int
    args: tuple
    #: Failed attempts so far; doubles as the attempt number chaos keys on.
    failures: int = 0
    #: Monotonic timestamp before which this chunk must not redispatch.
    not_before: float = 0.0
    #: Speculative copies ever issued for the current attempt.
    speculations: int = 0


@dataclass(frozen=True)
class Completion:
    """One finished (or failed) submission, as reported by an executor."""

    token: int
    result: Optional[Dict[str, Any]] = None
    #: ``repr()`` of the in-chunk exception, if the attempt failed.
    error: Optional[str] = None
    #: True when the *worker* died (crash-equivalent), not the chunk code.
    broken: bool = False


@dataclass(frozen=True)
class StragglerPolicy:
    """When to speculatively re-issue an in-flight chunk.

    A chunk is a straggler once its in-flight age exceeds
    ``max(min_seconds, factor * p95)`` of the completed-chunk latencies
    observed so far (needing at least ``min_samples`` completions before
    any speculation).  At most ``max_copies`` copies of a chunk run
    concurrently; the first result wins and later copies are discarded
    by chunk id, so speculation can never change a result.
    """

    factor: float = 3.0
    min_seconds: float = 1.0
    min_samples: int = 3
    max_copies: int = 2

    def threshold(self, latencies: Sequence[float]) -> Optional[float]:
        """Current straggler age threshold, or ``None`` (too few samples)."""
        if len(latencies) < max(1, self.min_samples):
            return None
        ordered = sorted(latencies)
        rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
        return max(self.min_seconds, self.factor * ordered[rank])


class Executor:
    """Asynchronous chunk-execution backend driven by the coordinator.

    The contract is deliberately small: ``submit`` returns an opaque
    integer token, ``poll`` reports completions observed since the last
    call, ``abandon`` optionally cancels one submission in place, and
    ``restart`` is the big hammer — tear everything down, report which
    tokens were lost so the coordinator can requeue them unpenalized.
    """

    #: Human name (used in events and the CLI).
    name: str = "?"
    #: Maximum concurrently useful submissions.
    capacity: int = 1
    #: True when one worker's death leaves the others running (the
    #: coordinator then skips the restart-and-requeue path).
    self_healing: bool = False

    def submit(self, payload: tuple) -> int:
        raise NotImplementedError

    def poll(self, timeout: float) -> List[Completion]:
        raise NotImplementedError

    def abandon(self, token: int) -> bool:
        """Try to cancel one submission; False means "restart me instead"."""
        return False

    def restart(self) -> List[int]:
        """Hard-restart the backend; returns tokens whose work was lost."""
        return []

    def close(self) -> None:
        """Release every resource (idempotent)."""


class SerialExecutor(Executor):
    """Synchronous in-process execution (the ``workers=1`` path).

    ``submit`` runs the payload immediately and buffers the completion;
    ``poll`` drains the buffer.  Chunk exceptions (including parent-side
    chaos stand-ins) become error completions — the coordinator's retry
    machinery is identical to the pooled paths.
    """

    name = "serial"
    capacity = 1
    self_healing = True  # nothing to heal: there is no worker to lose

    def __init__(self) -> None:
        self._next_token = 0
        self._done: List[Completion] = []

    def submit(self, payload: tuple) -> int:
        token = self._next_token
        self._next_token += 1
        try:
            result = _supervised_call(payload)
        except Exception as exc:  # noqa: BLE001 - chunk isolation boundary
            self._done.append(Completion(token=token, error=repr(exc)))
        else:
            self._done.append(Completion(token=token, result=result))
        return token

    def poll(self, timeout: float) -> List[Completion]:
        done, self._done = self._done, []
        return done


class PoolExecutor(Executor):
    """The classic ``ProcessPoolExecutor`` backend.

    Not self-healing: a dead worker breaks the whole pool, every
    completion during the break reports ``broken=True``, and the
    coordinator calls :meth:`restart` (which also surrenders finished-
    but-unpolled work for recomputation — results are deterministic, so
    recompute equals replay).
    """

    name = "pool"
    self_healing = False

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.capacity = workers
        self._workers = workers
        self._pool: Optional[cf.ProcessPoolExecutor] = None
        self._next_token = 0
        self._futures: Dict[cf.Future, int] = {}

    def _ensure_pool(self) -> cf.ProcessPoolExecutor:
        if self._pool is None:
            # Forked workers freeze the heap they inherit, so their cyclic
            # collector never walks (and copy-on-write faults) the
            # coordinator's objects.  The coordinator's heap is small
            # (lazy imports), which otherwise makes those full
            # collections frequent.
            self._pool = cf.ProcessPoolExecutor(
                max_workers=self._workers, initializer=gc.freeze
            )
        return self._pool

    def submit(self, payload: tuple) -> int:
        token = self._next_token
        self._next_token += 1
        future = self._ensure_pool().submit(_supervised_call, payload)
        self._futures[future] = token
        return token

    def poll(self, timeout: float) -> List[Completion]:
        if not self._futures:
            return []
        done, _ = cf.wait(
            set(self._futures), timeout=timeout, return_when=cf.FIRST_COMPLETED
        )
        completions: List[Completion] = []
        for future in done:
            token = self._futures.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                completions.append(Completion(token=token, broken=True))
            except Exception as exc:  # noqa: BLE001 - chunk boundary
                completions.append(Completion(token=token, error=repr(exc)))
            else:
                completions.append(Completion(token=token, result=result))
        return completions

    def abandon(self, token: int) -> bool:
        for future, tok in list(self._futures.items()):
            if tok == token:
                if future.cancel():
                    del self._futures[future]
                    return True
                return False  # already running: only a pool restart helps
        return False

    def _kill_pool(self) -> None:
        """Tear the pool down hard, including hung worker processes."""
        pool = self._pool
        if pool is None:
            return
        try:
            processes = list(getattr(pool, "_processes", {}).values())
        except Exception:  # pragma: no cover - interpreter internals moved
            processes = []
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - cancel_futures needs 3.9
            pool.shutdown(wait=False)
        self._pool = None

    def restart(self) -> List[int]:
        lost = list(self._futures.values())
        self._futures.clear()
        self._kill_pool()
        return lost

    def close(self) -> None:
        self._futures.clear()
        self._kill_pool()


# --------------------------------------------------------------------------
# lease executor (multi-host-shaped pull model)
# --------------------------------------------------------------------------

_TASK_SUFFIX = ".task"
_DONE_SUFFIX = ".done"
_STOP_NAME = "STOP"
_CLAIM_POLL_S = 0.02


def _lease_worker_main(board: str) -> None:
    """Worker loop: lease the lowest posted task, run it, post the result.

    Claiming is an atomic ``rename`` from ``todo/`` into ``leases/``
    (suffixed with the worker pid so the coordinator can attribute an
    orphaned lease to a dead worker); results land in ``done/`` via
    write-to-temp-then-rename so the coordinator never reads a torn
    pickle.  The loop exits when the coordinator drops the ``STOP``
    flag or the board disappears.
    """
    todo = os.path.join(board, "todo")
    leases = os.path.join(board, "leases")
    done = os.path.join(board, "done")
    stop_flag = os.path.join(board, _STOP_NAME)
    pid = os.getpid()
    while not os.path.exists(stop_flag):
        claimed = None
        try:
            names = sorted(os.listdir(todo))
        except FileNotFoundError:
            return  # board torn down
        for name in names:
            if not name.endswith(_TASK_SUFFIX):
                continue
            lease_path = os.path.join(leases, f"{name}.{pid}")
            try:
                os.rename(os.path.join(todo, name), lease_path)
            except OSError:
                continue  # another worker won the claim
            claimed = (name, lease_path)
            break
        if claimed is None:
            time.sleep(_CLAIM_POLL_S)
            continue
        name, lease_path = claimed
        token = name[: -len(_TASK_SUFFIX)]
        try:
            with open(lease_path, "rb") as fh:
                payload = pickle.load(fh)
            outcome: Dict[str, Any] = {"ok": _supervised_call(payload)}
        except Exception as exc:  # noqa: BLE001 - chunk isolation boundary
            outcome = {"error": repr(exc)}
        tmp_path = os.path.join(done, f"{token}.tmp.{pid}")
        with open(tmp_path, "wb") as fh:
            pickle.dump(outcome, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, os.path.join(done, token + _DONE_SUFFIX))
        # Make the rename durable *before* releasing the lease: the
        # lease is the only evidence the chunk was claimed, so a host
        # crash after the lease is gone but before the done/ directory
        # entry hits stable storage would silently lose a completed
        # result (no orphan to detect, no done-file to deliver).
        fsync_dir(done)
        try:
            os.remove(lease_path)
        except OSError:  # pragma: no cover - coordinator raced a cleanup
            pass


class LeaseExecutor(Executor):
    """Workers lease chunks from an on-disk board next to the journal.

    The coordinator owns the board exclusively (``JournalLock`` on
    ``board.lock``); workers are long-lived processes that pull work.
    Self-healing: a worker that dies holding a lease is detected via
    its orphaned lease file, reported as one ``broken`` completion, and
    replaced — no other in-flight work is disturbed.
    """

    name = "lease"
    self_healing = True

    def __init__(self, workers: int, board_dir: Union[str, Path, None] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.capacity = workers
        self._workers = workers
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if board_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-board-")
            board_dir = self._tmp.name
        self.board = Path(board_dir)
        self.board.mkdir(parents=True, exist_ok=True)
        for sub in ("todo", "leases", "done"):
            (self.board / sub).mkdir(exist_ok=True)
        # Single-coordinator discipline, enforced exactly like the
        # journal's: contenders get JournalLockedError (CLI exit 75).
        self._lock = JournalLock(self.board / "board")
        try:
            self._lock.acquire()
        except Exception:
            self._cleanup_tmp()
            raise
        stop_flag = self.board / _STOP_NAME
        if stop_flag.exists():  # board reused after a clean shutdown
            stop_flag.unlink()
        self._procs: List[Any] = []
        self._next_token = 0
        self._inflight: Dict[int, str] = {}  # token -> task file name
        self._closed = False

    # -- internals ---------------------------------------------------------

    def _cleanup_tmp(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def _spawn_worker(self) -> Any:
        import multiprocessing

        proc = multiprocessing.Process(
            target=_lease_worker_main, args=(str(self.board),), daemon=True
        )
        proc.start()
        return proc

    def _ensure_workers(self) -> None:
        while len(self._procs) < self._workers:
            self._procs.append(self._spawn_worker())

    def _task_name(self, token: int) -> str:
        return f"{token:08d}{_TASK_SUFFIX}"

    def _find_lease(self, token: int) -> Optional[Path]:
        prefix = self._task_name(token) + "."
        for entry in (self.board / "leases").iterdir():
            if entry.name.startswith(prefix):
                return entry
        return None

    @staticmethod
    def _lease_pid(lease: Path) -> Optional[int]:
        try:
            return int(lease.name.rsplit(".", 1)[-1])
        except ValueError:  # pragma: no cover - foreign file on the board
            return None

    # -- Executor interface ------------------------------------------------

    def submit(self, payload: tuple) -> int:
        self._ensure_workers()
        token = self._next_token
        self._next_token += 1
        name = self._task_name(token)
        tmp_path = self.board / "todo" / (name + ".tmp")
        with open(tmp_path, "wb") as fh:
            pickle.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, self.board / "todo" / name)
        self._inflight[token] = name
        return token

    def poll(self, timeout: float) -> List[Completion]:
        deadline = time.monotonic() + timeout
        while True:
            completions = self._poll_once()
            if completions or time.monotonic() >= deadline:
                return completions
            time.sleep(_CLAIM_POLL_S)

    def _poll_once(self) -> List[Completion]:
        completions: List[Completion] = []
        done_dir = self.board / "done"
        for entry in sorted(done_dir.iterdir()):
            if not entry.name.endswith(_DONE_SUFFIX):
                continue
            try:
                token = int(entry.name[: -len(_DONE_SUFFIX)])
            except ValueError:  # pragma: no cover - foreign file
                continue
            with open(entry, "rb") as fh:
                outcome = pickle.load(fh)
            entry.unlink()
            self._inflight.pop(token, None)
            if "ok" in outcome:
                completions.append(Completion(token=token, result=outcome["ok"]))
            else:
                completions.append(
                    Completion(token=token, error=outcome.get("error", "?"))
                )
        # Crash detection: a dead worker holding a lease orphans it.
        dead = [p for p in self._procs if not p.is_alive()]
        if dead:
            dead_pids = {p.pid for p in dead}
            for token in list(self._inflight):
                lease = self._find_lease(token)
                if lease is not None and self._lease_pid(lease) in dead_pids:
                    try:
                        lease.unlink()
                    except OSError:  # pragma: no cover - cleanup race
                        pass
                    self._inflight.pop(token, None)
                    completions.append(Completion(token=token, broken=True))
            self._procs = [p for p in self._procs if p.is_alive()]
            if not self._closed:
                self._ensure_workers()  # self-heal: replace the dead
        return completions

    def abandon(self, token: int) -> bool:
        name = self._inflight.get(token)
        if name is None:
            return False
        todo_path = self.board / "todo" / name
        try:
            todo_path.unlink()  # unclaimed: just withdraw the posting
        except OSError:
            pass
        else:
            self._inflight.pop(token, None)
            return True
        lease = self._find_lease(token)
        if lease is None:
            return False  # finished (or finishing): let poll() deliver it
        pid = self._lease_pid(lease)
        for proc in list(self._procs):
            if proc.pid == pid:
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck in syscall
                    proc.kill()
                    proc.join(timeout=2.0)
                self._procs.remove(proc)
        try:
            lease.unlink()
        except OSError:  # pragma: no cover - worker died mid-cleanup
            pass
        self._inflight.pop(token, None)
        if not self._closed:
            self._ensure_workers()  # replace the killed worker
        return True

    def restart(self) -> List[int]:
        self._stop_workers()
        for sub in ("todo", "leases"):
            for entry in (self.board / sub).iterdir():
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - cleanup race
                    pass
        lost = list(self._inflight)
        self._inflight.clear()
        stop_flag = self.board / _STOP_NAME
        if stop_flag.exists():
            stop_flag.unlink()
        return lost

    def _stop_workers(self) -> None:
        (self.board / _STOP_NAME).touch()
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck in syscall
                proc.kill()
                proc.join(timeout=2.0)
        self._procs = []

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop_workers()
        self._inflight.clear()
        self._lock.release()
        self._cleanup_tmp()


def make_executor(
    name: str,
    workers: int = 1,
    board_dir: Union[str, Path, None] = None,
    ttl: Optional[float] = None,
    spawn_workers: Optional[int] = None,
) -> Executor:
    """Build an executor by CLI name (``serial|pool|lease|fleet``).

    ``ttl`` and ``spawn_workers`` apply to the fleet backend only:
    ``ttl`` is the heartbeat-lease TTL and ``spawn_workers`` the number
    of local agent subprocesses to start (``None`` = ``workers``; pass
    ``0`` when external ``repro worker`` agents serve the board).
    """
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        return PoolExecutor(workers)
    if name == "lease":
        return LeaseExecutor(workers, board_dir=board_dir)
    if name == "fleet":
        from .fleet import DEFAULT_WORKER_TTL, FleetExecutor

        return FleetExecutor(
            workers,
            board_dir=board_dir,
            ttl=DEFAULT_WORKER_TTL if ttl is None else ttl,
            spawn_workers=spawn_workers,
        )
    raise ValueError(
        f"unknown executor {name!r}: expected one of {EXECUTOR_NAMES}"
    )

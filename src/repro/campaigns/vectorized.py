"""Vectorized and streaming execution of transient campaigns.

:mod:`repro.campaigns.runner` schedules *opaque* workers; this module
is the campaign front-end for workers the library can see inside —
"build a circuit per task, run one transient, evaluate the result".
Knowing that shape unlocks execution strategies a generic worker
cannot offer:

* **Lockstep vectorization** (``BatchOptions(batch_mode="vectorized")``)
  — all tasks' circuits are stacked into one batched transient run
  (:func:`~repro.circuits.batched.run_transient_batched`): one time
  loop, batched linear algebra, per-sample Newton masks.  Netlists
  the lockstep engine cannot stack fall back to the per-sample
  reference path automatically.
* **Shared-memory streaming** (process parallelism) — instead of
  pickling per-task results back through the executor, workers write
  their full waveform records into one preallocated
  ``multiprocessing.shared_memory`` block holding one slot per
  sample: a record count, the time grid, then the record matrix.
  Fixed grids size each slot exactly; adaptive grids reserve 4x the
  initial-dt record count, and the rare sample that outgrows its
  slot comes back pickled, flagged in ``stats["fallbacks"]``.  One
  block layout, one pool worker and one watchdog serve both pooled
  modes below.
* **Process mode** (``BatchOptions(batch_mode="process")``) — jobs of
  ``chunksize`` tasks, each task through the per-sample engine.
* **Sharded lockstep** (``BatchOptions(batch_mode="sharded")``, and
  the ``"auto"`` choice for fixed-grid campaigns on multi-core
  machines) — the lockstep batch split into sub-batches dispatched
  across a process pool, one shard per job.  Because every
  per-sample solve in the lockstep engine (block-diagonal LU,
  per-sample Newton masks, batched DC seed) is independent of batch
  membership, fixed-grid shard merges are bit-identical to the
  unsharded run; ``stiffness_bins`` additionally clusters samples of
  similar stiffness into the same shard so adaptive sharded runs are
  not dragged to one outlier's step size.

:func:`transient_worker` adapts the same build/run/evaluate triple to
the generic :func:`~repro.campaigns.run_batch` protocol (it carries
the ``run_many`` hook that ``batch_mode="vectorized"`` dispatches on),
which is how :func:`~repro.campaigns.corner_sweep` and every other
``run_batch``-shaped campaign opt into lockstep execution without new
plumbing.
"""

from __future__ import annotations

import atexit
import math
import os
import traceback
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.waveform import Waveform
from ..circuits.batched import (
    BatchIncompatible,
    probe_stiffness_ratios,
    run_transient_batched,
)
from ..circuits.envelope_transient import EnvelopeOptions, run_transient_envelope
from ..circuits.netlist import Circuit
from ..circuits.stepcontrol import stiffness_bins
from ..circuits.transient import (
    TransientOptions,
    TransientResult,
    _fixed_record_count,
    _resolve_recording,
    run_transient,
)
from ..errors import BatchTaskError, ConvergenceError, SimulationError, TaskFailure
from .runner import (
    BatchOptions,
    RetryPolicy,
    _attempt_task,
    _drain_pool,
    _failure_context,
    _pool_worker_init,
    _wrap_collective,
    nearest_neighbor_chain,
    wrap_task_error,
)

__all__ = [
    "TransientMetricSpec",
    "run_envelope_campaign",
    "run_transient_campaign",
    "transient_worker",
]


@dataclass(frozen=True)
class TransientMetricSpec:
    """A transient campaign metric split into its schedulable halves.

    A plain ``metric(task) -> float`` callable hides the simulation
    inside; expressing it as *build the circuit*, *shared run
    options*, *evaluate the result* lets the campaign layer choose the
    execution strategy (lockstep batch, shared-memory processes,
    plain loop).  For fixed-grid options every strategy computes the
    same statistics (lockstep is equivalence-pinned at rtol 1e-9);
    adaptive options lockstep only on explicit
    ``batch_mode="vectorized"``, because the shared worst-sample grid
    is a different discretization than per-sample adaptive grids.

    Parameters
    ----------
    name:
        Metric name carried into result summaries.
    build:
        ``task -> Circuit``.  Must be picklable (module-level) for
        process execution; closures are fine for lockstep/sequential.
    options:
        One :class:`~repro.circuits.transient.TransientOptions` shared
        by every task — the lockstep grid.  Anything that must vary
        per task belongs in the circuit, not the options.
    evaluate:
        ``(task, TransientResult) -> float``.
    waveform:
        Optional ``TransientResult -> Waveform`` extractor.  When set,
        campaigns that stream waveforms (e.g. :func:`~repro.mc.
        montecarlo.run_monte_carlo`) retain one waveform per task
        alongside the scalar values.
    """

    name: str
    build: Callable[[object], Circuit]
    options: TransientOptions
    evaluate: Callable[[object, TransientResult], float]
    waveform: Optional[Callable[[TransientResult], Waveform]] = None


def run_transient_campaign(
    tasks: Sequence[object],
    build: Callable[[object], Circuit],
    options: TransientOptions,
    batch: Optional[BatchOptions] = None,
) -> List[TransientResult]:
    """Run one transient per task; results in task order.

    The execution strategy follows ``batch.batch_mode``:

    * ``"vectorized"`` — the lockstep batched engine; netlists it
      cannot stack fall back to the sequential per-sample loop.
    * ``"sharded"`` — the lockstep engine split into sub-batches of
      ``batch.shard_size`` samples (default: the campaign divided
      evenly over the resolved worker count), dispatched across a
      process pool with records streamed through one shared-memory
      block of per-sample slots.  One worker (or one core) degrades
      gracefully to running the shards sequentially in-process.
      Fixed-grid shard merges are
      **bit-identical** to the unsharded lockstep run — every
      per-sample solve (block-diagonal LU, per-sample Newton masks,
      batched DC seed) is independent of batch membership.  With
      ``batch.stiffness_bins > 1`` a probe step ranks samples by
      first-step LTE ratio and shards are cut within stiffness
      quantile bins — on *adaptive* grids (a deliberate, explicit
      choice: each shard then integrates its own worst-sample grid,
      a different discretization than the unsharded batch) this
      keeps one stiff outlier from dragging a shard of benign
      samples to its dt.
    * ``"auto"`` (default) — lockstep for **fixed-grid** runs (where
      the batched engine is equivalence-pinned to the per-sample path
      at rtol 1e-9) — sharded across cores when the machine has more
      than one (bit-identical, so the upgrade is safe), single-batch
      lockstep otherwise; sequential for adaptive runs;
      ``max_workers`` requesting processes goes parallel instead.
      Adaptive runs never lockstep implicitly: the shared
      worst-sample grid is a *different, coarser-or-equal
      discretization* than each sample's own adaptive grid, so
      results legitimately differ at LTE-tolerance level — opting in
      must be explicit (``"vectorized"`` or ``"sharded"``).
    * ``"process"`` (or ``"auto"`` + ``max_workers > 1``) — the
      per-sample engine in a process pool, ``batch.chunksize`` tasks
      per job, streaming records through the same shared-memory
      slots as sharded mode, fixed and adaptive grids alike.
    * ``"sequential"`` — plain loop, no stacking.

    All paths wrap worker failures in
    :class:`~repro.errors.BatchTaskError` carrying the task index.
    The two pooled modes (``"sharded"`` and ``"process"``) also apply
    ``batch.on_error`` and ``batch.task_timeout`` per job — see
    :func:`_run_jobs`.

    With ``options.quarantine`` the lockstep path tolerates diverging
    samples (they are masked out and flagged ``quarantined`` in their
    stats while the rest of the batch finishes), and when
    ``options.rescue`` is *also* set each quarantined sample gets a
    solo second chance through the per-sample engine's rescue ladder
    — see :func:`_rerun_quarantined`.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    mode = batch.batch_mode if batch is not None else "auto"
    want_process = batch is not None and batch.parallel
    sharded = mode == "sharded" or (
        mode == "auto"
        and not want_process
        and options.step_control == "fixed"
        and len(tasks) > 1
        and (os.cpu_count() or 1) > 1
    )
    if sharded:
        policy = batch if batch is not None else BatchOptions()
        if policy.batch_mode != "sharded":
            # "auto" promotion: re-key the policy so worker resolution
            # ("use the box") and validation follow the sharded rules.
            policy = replace(policy, batch_mode="sharded")
        return _run_jobs(tasks, build, options, policy, lockstep=True)
    if want_process:
        return _run_jobs(tasks, build, options, batch, lockstep=False)
    circuits = _build_all(tasks, build)
    indices = range(len(tasks))
    lockstep = mode == "vectorized" or (
        mode == "auto" and options.step_control == "fixed"
    )
    if not lockstep:
        return _run_sequential(circuits, tasks, indices, options)
    try:
        return _run_one_shard(circuits, tasks, indices, options)
    except BatchTaskError:
        raise
    except Exception as exc:
        raise _wrap_collective(exc, tasks) from exc


def transient_worker(
    build: Callable[[object], Circuit],
    options: TransientOptions,
    evaluate: Optional[Callable[[object, TransientResult], object]] = None,
    batch: Optional[BatchOptions] = None,
) -> Callable[[object], object]:
    """Adapt a build/run/evaluate triple to the ``run_batch`` protocol.

    The returned worker runs one task per call like any other batch
    worker, and carries the ``run_many`` hook that
    ``BatchOptions(batch_mode="vectorized")`` (or ``"sharded"``)
    dispatches on — so :func:`~repro.campaigns.run_batch`,
    :func:`~repro.campaigns.corner_sweep` and
    :func:`~repro.campaigns.labelled_sweep` campaigns built on it
    execute as one lockstep batch when the netlists allow, with
    per-task fallback when they do not.  ``batch`` overrides the
    policy ``run_many`` forwards to the campaign front-end — pass a
    ``BatchOptions(batch_mode="sharded", ...)`` to shard the lockstep
    batch over processes (the ``run_batch`` options only select *that*
    ``run_many`` is used, not how it executes internally).
    """

    def worker(task: object) -> object:
        result = run_transient(build(task), options)
        return evaluate(task, result) if evaluate is not None else result

    def run_many(tasks: Sequence[object]) -> List[object]:
        tasks = list(tasks)
        # run_many is only dispatched on an explicit vectorized (or
        # sharded) policy; forward that intent so adaptive-grid
        # options lockstep here too instead of degrading to "auto".
        policy = batch if batch is not None else BatchOptions(
            batch_mode="vectorized"
        )
        results = run_transient_campaign(tasks, build, options, policy)
        if evaluate is None:
            return results
        values: List[object] = []
        for index, (task, result) in enumerate(zip(tasks, results)):
            try:
                values.append(evaluate(task, result))
            except Exception as exc:
                raise wrap_task_error(
                    exc, index, task, action="metric evaluation failed"
                ) from exc
        return values

    worker.run_many = run_many
    return worker


# -- fallback paths -----------------------------------------------------------


def _build_all(
    tasks: Sequence[object],
    build,
    failures: Optional[List[object]] = None,
) -> List[Optional[Circuit]]:
    """Build every task's circuit in the parent.

    A failed build raises :class:`~repro.errors.BatchTaskError`; when
    a ``failures`` list is given (``on_error != "raise"``) it instead
    lands there as a :class:`~repro.errors.TaskFailure` and the
    task's circuit is ``None``.
    """
    circuits: List[Optional[Circuit]] = []
    for index, task in enumerate(tasks):
        try:
            circuits.append(build(task))
        except Exception as exc:
            if failures is None:
                raise wrap_task_error(
                    exc, index, task, action="circuit build failed"
                ) from exc
            failures[index] = TaskFailure(
                index=index,
                task=task,
                error=exc,
                context=_failure_context(exc),
            )
            circuits.append(None)
    return circuits


def _run_sequential(
    circuits: Sequence[Circuit],
    tasks: Sequence[object],
    indices: Sequence[int],
    options: TransientOptions,
) -> List[TransientResult]:
    """The per-sample loop; failures name each task's global index."""
    results = []
    for circuit, task, g in zip(circuits, tasks, indices):
        try:
            results.append(run_transient(circuit, options))
        except Exception as exc:
            raise wrap_task_error(
                exc, g, task, action="transient failed"
            ) from exc
    return results


def _rerun_quarantined(
    circuits: Sequence[Circuit],
    options: TransientOptions,
    results: List[TransientResult],
) -> None:
    """Give lockstep-quarantined samples a solo second chance.

    A quarantined sample was killed under the *shared* lockstep grid
    and batch discipline; alone — on its own grid, with the rescue
    ladder — it may well finish.  Each quarantined sample re-runs
    through the per-sample engine with rescue enabled: success
    replaces the frozen partial result (``quarantined`` flips to
    False, the original ``quarantine`` record stays for traceability
    alongside ``solo_rerun=True``); failure keeps the partial result
    and records why in ``stats["rescue_failed"]``.  Mutates
    ``results`` in place.
    """
    solo = replace(options, quarantine=False)
    for s, result in enumerate(results):
        if not result.stats.get("quarantined"):
            continue
        try:
            rerun = run_transient(circuits[s], solo)
        except (ConvergenceError, SimulationError) as exc:
            result.stats["rescue_failed"] = str(exc)
            continue
        if rerun.stats.get("completed") is False:
            # on_abort="partial" solo rerun that aborted again: the
            # quarantined lockstep result stands.
            result.stats["rescue_failed"] = str(
                rerun.stats.get("abort_error")
                or rerun.stats.get("abort_reason")
            )
            continue
        rerun.stats["quarantined"] = False
        rerun.stats["quarantine"] = result.stats.get("quarantine")
        rerun.stats["solo_rerun"] = True
        results[s] = rerun


# -- shared-memory lifecycle --------------------------------------------------

#: Parent-side shared blocks created but not yet released.  The
#: streaming paths release their block in a ``finally``, but a block
#: can still outlive them — ``KeyboardInterrupt`` landing between
#: creation and the ``try``, or an exception raised *by* the release
#: itself — so an atexit backstop unlinks anything left over rather
#: than leaking ``/dev/shm`` segments past the interpreter.
_LIVE_SHM: dict = {}


def _create_shared_block(shape: Tuple[int, ...]) -> shared_memory.SharedMemory:
    """Create (and register for cleanup) one float64 record block."""
    shm = shared_memory.SharedMemory(
        create=True, size=int(np.prod(shape)) * 8
    )
    _LIVE_SHM[shm.name] = shm
    return shm


def _release_shared_block(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a block; safe to call twice."""
    _LIVE_SHM.pop(shm.name, None)
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


@atexit.register
def _reap_shared_blocks() -> None:  # pragma: no cover - teardown path
    for shm in list(_LIVE_SHM.values()):
        try:
            _release_shared_block(shm)
        except Exception:
            pass


# -- sharded and process execution --------------------------------------------


def _plan_shards(
    circuits: Sequence[Circuit],
    options: TransientOptions,
    batch: BatchOptions,
    workers: int,
) -> List[List[int]]:
    """Cut the campaign into shards of global sample indices.

    With ``batch.stiffness_bins > 1`` the samples are first grouped
    into stiffness quantile bins by a lockstep probe step (cluster
    first), then each bin is chunked into shards (shard within
    clusters) — so no shard mixes a stiff outlier with benign
    samples.  A failed probe degrades to task order.  Shards always
    partition ``range(S)`` exactly, each in ascending sample order.
    """
    S = len(circuits)
    bins = [np.arange(S)]
    if batch.stiffness_bins > 1 and S > 1:
        ratios = probe_stiffness_ratios(circuits, options)
        if ratios is not None:
            bins = stiffness_bins(ratios, batch.stiffness_bins)
    shard_size = batch.shard_size or max(1, math.ceil(S / max(workers, 1)))
    shards: List[List[int]] = []
    for bin_indices in bins:
        for k in range(0, len(bin_indices), shard_size):
            shards.append([int(i) for i in bin_indices[k : k + shard_size]])
    return shards


def _run_one_shard(
    circuits: Sequence[Circuit],
    tasks: Sequence[object],
    indices: Sequence[int],
    options: TransientOptions,
) -> List[TransientResult]:
    """One batch through the lockstep engine — parent- or child-side.

    Netlists the engine cannot stack fall back to the per-sample loop
    (failures attributed to *global* task indices), and quarantined
    samples get their solo rescue rerun inside the batch.
    """
    try:
        results = run_transient_batched(circuits, options)
    except BatchIncompatible:
        return _run_sequential(circuits, tasks, indices, options)
    if options.quarantine and options.rescue:
        _rerun_quarantined(circuits, options, results)
    return results


def _globalize_quarantine(stats: dict, indices: Sequence[int]) -> None:
    """Remap shard-local sample indices in per-sample stats to global.

    Covers the quarantine records and the health layer's
    :class:`~repro.circuits.health.HealthReport` list, so a report
    filed against shard-local sample 2 names the campaign's global
    sample index by the time anyone reads the merged results.
    """
    record = stats.get("quarantine")
    if record and "sample" in record:
        record = dict(record)
        record["sample"] = int(indices[int(record["sample"])])
        stats["quarantine"] = record
    local_list = stats.get("quarantined_samples")
    if local_list:
        stats["quarantined_samples"] = [int(indices[int(s)]) for s in local_list]
    health = stats.get("health")
    if health:
        stats["health"] = [
            replace(report, sample=int(indices[int(report.sample)]))
            if getattr(report, "sample", None) is not None
            else report
            for report in health
        ]


def _shard_solo_fallback(
    indices: Sequence[int],
    tasks: Sequence[object],
    build,
    options: TransientOptions,
    batch: BatchOptions,
    results: List[object],
) -> None:
    """Recover a failed job sample-by-sample (``on_error != "raise"``).

    A job failure rarely implicates every member; each sample re-runs
    solo through the per-sample engine under the batch retry policy,
    so innocents recover (their slot gets a real result, flagged
    ``shard_fallback``) and persistent failures land as
    :class:`~repro.errors.TaskFailure` records in their own slots.
    """
    policy = batch.retry or RetryPolicy()

    def worker(task: object) -> TransientResult:
        return run_transient(build(task), options)

    for g in indices:
        result, failure = _attempt_task(worker, g, tasks[g], batch, policy)
        if failure is None:
            result.stats["shard_fallback"] = True
            results[g] = result
        else:
            results[g] = failure


def _run_jobs(
    tasks: Sequence[object],
    build,
    options: TransientOptions,
    batch: BatchOptions,
    lockstep: bool,
) -> List[object]:
    """Sharded (``lockstep``) and process-mode execution.

    The campaign is cut into jobs ``(job_no, global indices, tasks,
    lockstep)``: one shard each when ``lockstep`` (stiffness-clustered
    when asked), else ``batch.chunksize`` tasks run through the
    per-sample engine.  Every job runs :func:`_job_worker`, which
    writes each sample's records into that sample's slot of one
    record block (see :func:`_write_slot`) — a shared-memory block
    under a pool, so waveforms never cross the process boundary as
    pickles.  A lockstep campaign with one worker (or one core) runs
    its jobs in-process on the parent's circuits: same worker, same
    merge, no pool.  Process mode always pools, since even one worker
    buys process isolation.

    Results come back in task order, stamped with their job.  A
    circuit that fails to build in the parent raises, or under
    ``on_error != "raise"`` becomes a :class:`~repro.errors.TaskFailure`
    that no job (and no stiffness probe) sees.  A failed job raises
    (``on_error="raise"``, attributed to the first failing sample's
    global index), lands ``kind="timeout"`` failures for every sample
    of a job the watchdog killed, or falls back to per-sample solo
    attempts whose failures become :class:`~repro.errors.TaskFailure`
    slots.
    """
    S = len(tasks)
    results: List[object] = [None] * S
    circuits = _build_all(
        tasks, build, results if batch.on_error != "raise" else None
    )
    live = [g for g in range(S) if results[g] is None]
    if not live:
        return results
    workers = batch.resolved_max_workers()
    if lockstep:
        shards = _plan_shards([circuits[g] for g in live], options, batch, workers)
        groups = [[live[i] for i in shard] for shard in shards]
    else:
        size = batch.chunksize
        groups = [live[k : k + size] for k in range(0, len(live), size)]
    jobs = [
        (job_no, group, [tasks[g] for g in group], lockstep)
        for job_no, group in enumerate(groups)
    ]
    n_workers = max(1, min(workers, len(jobs)))
    for g in live:
        # Pool workers build their own circuits; the parent-side ones
        # label the merged results, so they need branch numbering too.
        circuits[g].prepare()
    width = max(_resolve_recording(circuits[g], options)[2] for g in live)
    capacity = _slot_capacity(options)
    shape = (S, 1 + capacity * (1 + width))
    failed: List[tuple] = []

    def merge(payloads, records: np.ndarray) -> None:
        for payload in payloads:
            if payload[0] == "failed":
                failed.append(payload[1:])
                continue
            _tag, job_no, items = payload
            for g, nodes, stats, n_columns, spilled in items:
                if spilled is None:
                    t, x = _read_slot(records[g], capacity, n_columns)
                else:
                    t, x = spilled
                    stats.setdefault("fallbacks", {})["pickled_records"] = 1
                stats["shard"] = job_no
                stats["n_shards"] = len(jobs)
                stats["shard_workers"] = n_workers
                results[g] = TransientResult(
                    circuit=circuits[g],
                    t=t,
                    x=x,
                    recorded_nodes=nodes,
                    stats=stats,
                )

    if lockstep and n_workers <= 1:
        state = {
            "circuits": circuits,
            "options": options,
            "records": np.empty(shape),
            "capacity": capacity,
        }
        merge([_job_worker(job, state) for job in jobs], state["records"])
    else:
        shm = _create_shared_block(shape)
        try:
            payloads = _drain_jobs(
                jobs,
                tasks,
                n_workers,
                (shm.name, shape, capacity, build, options),
                batch.task_timeout,
            )
            merge(payloads, np.ndarray(shape, dtype=np.float64, buffer=shm.buf))
        finally:
            _release_shared_block(shm)

    for job_no, g, message, cause, kind in failed:
        if batch.on_error == "raise":
            task = tasks[g] if 0 <= g < S else None
            raise BatchTaskError(
                f"campaign job failed on task {g} ({task!r}): {message}",
                index=g,
                task=task,
                cause_text=cause,
            )
        indices = jobs[job_no][1]
        if kind == "timeout":
            # A hung job's samples must NOT re-run solo in the parent —
            # whatever hung the worker would hang us.  They land as
            # structured timeout failures instead.
            for g_i in indices:
                results[g_i] = TaskFailure(
                    index=g_i,
                    task=tasks[g_i],
                    error=TimeoutError(message),
                    attempts=1,
                    kind="timeout",
                )
            continue
        _shard_solo_fallback(indices, tasks, build, options, batch, results)
    return results


def _drain_jobs(
    jobs: List[tuple],
    tasks: Sequence[object],
    n_workers: int,
    initargs: tuple,
    timeout: Optional[float],
) -> List[tuple]:
    """Run every job through one pool under the shared watchdog.

    A job the watchdog kills comes back as a ``("failed", ...,
    "timeout")`` payload for the parent's ``on_error`` policy.
    """
    payloads: List[tuple] = [None] * len(jobs)  # type: ignore[list-item]

    def submit(executor, job_no: int):
        return executor.submit(_job_worker, jobs[job_no])

    def on_done(job_no: int, future) -> bool:
        # _job_worker never raises; result() only fails on pool-level
        # trouble (a dead worker, an unpicklable task).
        try:
            payloads[job_no] = future.result()
        except Exception as exc:
            g = jobs[job_no][1][0]
            raise wrap_task_error(
                exc, g, tasks[g], action=f"worker pool failed job {job_no}"
            ) from exc
        return False

    def on_timeout(job_no: int) -> bool:
        payloads[job_no] = (
            "failed",
            job_no,
            -1,
            f"job watchdog fired after {timeout:.1f}s",
            f"TimeoutError: job {job_no} exceeded task_timeout={timeout!r}s",
            "timeout",
        )
        return False

    _drain_pool(
        range(len(jobs)),
        submit,
        on_done,
        on_timeout,
        max_workers=n_workers,
        timeout=timeout,
        initializer=_job_init,
        initargs=initargs,
    )
    return payloads


def _slot_capacity(options: TransientOptions) -> int:
    """Records one sample's slot holds.

    A fixed grid's record count is known up front, so its slot is
    exact and never overflows.  Adaptive runs reserve 4x the
    fixed-grid count at the *initial* dt: the controller shrinks below
    dt only transiently (near breakpoints or stiffness onsets), so a
    sample overflowing 4x is rare — and legal: that one sample's
    arrays come back pickled instead.
    """
    count = _fixed_record_count(options)
    return count if options.step_control == "fixed" else 4 * (count + 2)


def _write_slot(
    slot: np.ndarray, capacity: int, result: TransientResult
) -> Optional[tuple]:
    """Write one result into its slot; return ``(t, x)`` if it does not fit.

    A slot is ``[n_records, t[0:capacity], x.ravel()[0:capacity * width]]``
    — a length header, then the time grid and the row-major record
    matrix at fixed offsets, so record counts may differ per sample
    (adaptive grids) and so may column counts up to ``width``
    (heterogeneous full-state recording).
    """
    n = len(result.t)
    x = result.x
    if n > capacity or x.size > len(slot) - 1 - capacity:
        return result.t, x
    slot[0] = float(n)
    slot[1 : 1 + n] = result.t
    slot[1 + capacity : 1 + capacity + x.size].reshape(x.shape)[...] = x
    return None


def _read_slot(
    slot: np.ndarray, capacity: int, n_columns: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Copy one sample's ``(t, x)`` out of its slot."""
    n = int(slot[0])
    t = np.array(slot[1 : 1 + n])
    x = np.array(slot[1 + capacity : 1 + capacity + n * n_columns])
    return t, x.reshape(n, n_columns)


#: Worker-process state installed by :func:`_job_init`.
_WORKER_STATE: dict = {}


def _job_init(shm_name, shape, capacity, build, options) -> None:
    _pool_worker_init()
    shm = shared_memory.SharedMemory(name=shm_name)
    # Detach cleanly at worker exit; the parent owns the unlink.
    atexit.register(shm.close)
    _WORKER_STATE.update(
        shm=shm,
        records=np.ndarray(shape, dtype=np.float64, buffer=shm.buf),
        capacity=capacity,
        build=build,
        options=options,
    )


def _job_worker(job, state: dict = _WORKER_STATE):
    """Run one job; write each result into its slot; return a small payload.

    Never raises: a failed job comes back as a ``("failed", job_no,
    global index, message, rendered traceback, "error")`` payload so
    sibling jobs finish and the parent applies its ``on_error``
    policy.  ``state`` is the pool worker's, or — for in-process
    sharding — the parent's, which also hands over its prebuilt
    ``circuits``.
    """
    job_no, indices, tasks, lockstep = job
    options = state["options"]
    prebuilt = state.get("circuits")
    try:
        if prebuilt is not None:
            circuits = [prebuilt[g] for g in indices]
        else:
            circuits = [state["build"](task) for task in tasks]
        run = _run_one_shard if lockstep else _run_sequential
        results = run(circuits, tasks, indices, options)
    except Exception as exc:  # noqa: BLE001 — becomes a failure payload
        # Attribute to a *global* sample index when the error names
        # one: a per-sample failure carries it directly, a collective
        # lockstep failure names its job-local samples.
        g = -1
        if isinstance(exc, BatchTaskError):
            g = int(getattr(exc, "index", -1))
        else:
            samples = getattr(exc, "failed_samples", None)
            if samples is not None and len(samples):
                g = int(indices[int(samples[0])])
        cause = getattr(exc, "cause_text", None) or "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return ("failed", job_no, g, f"{type(exc).__name__}: {exc}", cause, "error")
    items = []
    for g, result in zip(indices, results):
        _globalize_quarantine(result.stats, indices)
        spilled = _write_slot(state["records"][g], state["capacity"], result)
        items.append(
            (
                g,
                result.recorded_nodes,
                dict(result.stats),
                result.x.shape[1],
                spilled,
            )
        )
    return ("ok", job_no, items)


# -- warm-started envelope campaigns ------------------------------------------


def run_envelope_campaign(
    tasks: Sequence[object],
    build: Callable[[object], Circuit],
    options: TransientOptions,
    envelope,
    params: Optional[Sequence] = None,
    start: int = 0,
) -> List[TransientResult]:
    """Envelope-following transients over a campaign, warm-started.

    Runs :func:`~repro.circuits.envelope_transient.
    run_transient_envelope` once per task, visiting the tasks in
    greedy nearest-neighbour order over ``params`` (one scalar or
    parameter vector per task — typically the Monte-Carlo draws) so
    that each sample's settled envelope state
    (``stats["envelope"]["final"]``) seeds the next sample's skip
    schedule via ``EnvelopeOptions.warm_start``.  Nearby draws settle
    to nearby envelopes, so a warm-started sample starts skipping at
    the neighbour's converged skip length instead of re-climbing from
    ``skip_initial``.

    The chain is self-correcting: the engine's correction burst
    measures every skip against the describing-function prediction, so
    a warm start carried across a parameter cliff is *rejected*
    (``stats["envelope"]["warm_start"] == "rejected"``) and that
    sample falls back to the cold ``skip_initial`` schedule — a bad
    seed costs resolved cycles, never accuracy.

    ``envelope`` is either one shared
    :class:`~repro.circuits.envelope_transient.EnvelopeOptions` or a
    callable ``task -> EnvelopeOptions`` — campaigns whose draws
    perturb the tank or limiter need a per-task describing-function
    model, and only the task knows the draw.  Without ``params`` the
    tasks run in the given order, still chaining warm starts.  Results
    are returned in task order, each with
    ``stats["envelope"]["chain_rank"]`` recording its position in the
    visiting chain.  ``skip == "off"`` degrades to plain
    carrier-resolved runs (no warm state to carry).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    env_for = (
        envelope
        if callable(envelope) and not isinstance(envelope, EnvelopeOptions)
        else (lambda _task: envelope)
    )
    if params is not None:
        params = list(params)
        if len(params) != len(tasks):
            raise SimulationError(
                f"params has {len(params)} entries for {len(tasks)} tasks"
            )
        order = nearest_neighbor_chain(params, start=start)
    else:
        order = list(range(len(tasks)))
    results: List[Optional[TransientResult]] = [None] * len(tasks)
    warm: Optional[dict] = None
    for rank, g in enumerate(order):
        base = env_for(tasks[g])
        if not isinstance(base, EnvelopeOptions):
            raise SimulationError(
                "envelope must be an EnvelopeOptions or a callable "
                f"returning one, got {type(base).__name__}"
            )
        env = replace(base, warm_start=warm)
        try:
            result = run_transient_envelope(build(tasks[g]), options, env)
        except BatchTaskError:
            raise
        except Exception as exc:
            raise wrap_task_error(
                exc, g, tasks[g], action="envelope campaign task failed"
            ) from exc
        stats = result.stats.get("envelope")
        if isinstance(stats, dict):
            stats["chain_rank"] = rank
            final = stats.get("final")
            warm = dict(final) if isinstance(final, dict) else None
        else:
            warm = None
        results[g] = result
    return results

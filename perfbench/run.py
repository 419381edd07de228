"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload startup --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another, each in
a fresh process.

Run from the root of a source checkout; the library is imported from
its ``src/`` directory, never from an installed copy, and the run
fails (non-zero exit, no result) when the sources are missing.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
The jobs run in ``WORKERS`` fresh processes, one after another, each
for an equal share of ``--seconds``; each worker sets up (import,
inputs, one warm-up job) and then runs jobs back to back.  Spreading a
run over several processes keeps one process's luck (memory layout,
the core it lands on) from setting the whole run.  Times are in
reference seconds: every job and every setup is bracketed by a
calibration kernel that scales its wall time to a host of fixed speed
(see :mod:`perfbench.hostspeed`), because the shared host's own speed
drifts by more than the metrics' bounds.

* ``cycles_per_s`` — carrier cycles simulated per reference second,
  summed over a job's samples (envelope-skipped cycles included), over
  the median job;
* ``job_p50_s`` — median reference seconds per job over all workers
  (``attempted`` is the count);
* ``amp_err`` — worst relative settled-amplitude error of the jobs
  against the untimed golden reference;
* ``setup_s`` — worker start to its first timed job, the median over
  the workers;
* ``peak_rss_mb`` — the largest peak resident memory of a worker.

``--trace 1`` runs a traced warm-up, then for ``--seconds`` alternates
a job with the layers' entry points wrapped (see
:mod:`perfbench.layers`) and one without (for ``trace.overhead``),
prints every per-layer metric and writes the spans to
``perfbench/out/spans-<workload>.npz``.

Every job's output is checked; a job that raises or misses its check
counts as failed.
"""

import argparse
import json
import math
import os
import pathlib
import pickle
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Fresh processes that run a workload's timed jobs, one after another.
WORKERS = 3
#: A worker that has not finished by then has hung.
WORKER_TIMEOUT_S = 50.0

WORKLOAD_NAMES = ("startup", "supply_loss", "mc_campaign", "envelope_campaign")

END_TO_END_UNITS = {
    "cycles_per_s": "cycles/s",
    "job_p50_s": "s",
    "amp_err": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_sources():
    """Put this checkout's ``src/`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def run_job(workload, inputs, tracer=None, job_id: int = 0):
    """Run one job: ``(seconds, output, error)``.

    A job that raised has output ``None`` and its traceback as
    ``error``; with a ``tracer``, its spans carry ``job_id``.
    """
    if tracer is not None:
        tracer.begin_job(job_id)
    start = time.perf_counter()
    try:
        output, error = workload.job(inputs), None
    except Exception:  # a failed job is counted, not fatal
        output, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_job()
    return seconds, output, error


def run_jobs(workload, inputs, seconds: float, tracer=None, scale=None):
    """Run jobs until ``seconds`` have passed (at least one).

    Returns ``(ids, seconds, outputs, errors)``; job ids count from 1.
    ``scale``, called right after each job with its wall seconds,
    converts them (to reference seconds, say).
    """
    ids, times, outputs, errors = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        ids.append(len(ids) + 1)
        elapsed, output, error = run_job(workload, inputs, tracer, ids[-1])
        times.append(elapsed if scale is None else scale(elapsed))
        outputs.append(output)
        errors.append(error)
    return ids, times, outputs, errors


def check_jobs(workload, outputs, errors, reference):
    """``(failed, worst amp_err)`` over the jobs' outputs (``amp_err``
    reads 1.0 when no job passed its check)."""
    from perfbench.workloads import CheckFailed

    failed, amp_errs = 0, []
    for output, error in zip(outputs, errors):
        if error is not None:
            failed += 1
            print(f"job raised:\n{error}", file=sys.stderr)
            continue
        try:
            amp_errs.append(workload.check(output, reference))
        except CheckFailed as exc:
            failed += 1
            print(f"job failed its check: {exc}", file=sys.stderr)
    return failed, max(amp_errs) if amp_errs else 1.0


def cycles_per_s(workload, times) -> float:
    # Per median job, so one job stalled by the host does not move it.
    return workload.cycles_per_job / statistics.median(times)


def describe_jobs(name: str, times, unit: str = "s") -> str:
    """Median, and with 20 jobs or more the highest percentile that
    still has 10 jobs beyond it."""
    n = len(times)
    text = f"{name}: {n} jobs, p50 {statistics.median(times):.4f} {unit}"
    if n >= 20:
        q = math.floor(100 * (n - 10) / n)
        tail = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
        text += f", p{q} {tail:.4f} {unit}"
    return text


def run_worker(args, index: int) -> dict:
    """Run one worker process to its end and return its results.

    ``setup_s`` runs from spawning the process to its "ready" line,
    bracketed by a calibration here before the spawn and the worker's
    own first one after it.
    """
    from perfbench.hostspeed import kernel_seconds, to_reference

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"worker-{args.workload}-{os.getpid()}-{index}.pkl"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS)]
    cmd += ["--worker", str(path)]
    before = kernel_seconds()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
            line = proc.stdout.readline() if ready else b""
            setup_wall = time.perf_counter() - start
            proc.communicate(timeout=WORKER_TIMEOUT_S)
            code = proc.returncode
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}, said {line!r})")
    with open(path, "rb") as f:
        result = pickle.load(f)
    path.unlink()
    result["setup_s"] = to_reference(setup_wall, before, result.pop("first_kernel"))
    return result


def worker(workload, inputs, args) -> None:
    """Set up, say "ready", run jobs for ``--seconds`` and pickle the
    results to the ``--worker`` path."""
    from perfbench.hostspeed import HostClock

    workload.job(inputs)  # warm-up
    print("ready", flush=True)
    clock = HostClock()
    walls = []

    def timed(elapsed: float) -> float:
        walls.append(elapsed)
        return clock.to_reference(elapsed)

    _, times, outputs, errors = run_jobs(workload, inputs, args.seconds, scale=timed)
    result = {
        "times": times,
        "walls": walls,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "first_kernel": clock.first,
    }
    with open(args.worker, "wb") as f:
        pickle.dump(result, f)


def emit(failed: int, attempted: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def untraced_run(workload, inputs, args) -> None:
    results = [run_worker(args, i) for i in range(WORKERS)]
    times, walls, outputs, errors = [], [], [], []
    for result in results:
        times += result["times"]
        walls += result["walls"]
        outputs += result["outputs"]
        errors += result["errors"]
    failed, amp_err = check_jobs(workload, outputs, errors, workload.reference(inputs))
    print(describe_jobs(workload.name, times, "ref-s"))
    print(describe_jobs(workload.name + " wall", walls))
    values = {
        "cycles_per_s": cycles_per_s(workload, times),
        "job_p50_s": statistics.median(times),
        "amp_err": amp_err,
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
    }
    emit(failed, len(times), {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})


def traced_run(workload, inputs, args) -> None:
    from perfbench import layers
    from perfbench.spans import Tracer

    tracer = Tracer(layers.TARGETS, end_job=layers.end_job)

    def traced_job(job_id: int):
        tracer.install()
        try:
            return run_job(workload, inputs, tracer, job_id)
        finally:
            tracer.uninstall()

    traced_job(0)  # warm-up
    # Traced and untraced jobs alternate, so host-speed drift during
    # the run reaches both series alike and ``trace.overhead`` stays
    # the cost of tracing.
    ids, traced, untraced, outputs, errors = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not ids or time.perf_counter() < deadline:
        ids.append(len(ids) + 1)
        results = [traced_job(ids[-1]), run_job(workload, inputs)]
        for series, (seconds, output, error) in zip((traced, untraced), results):
            series.append(seconds)
            outputs.append(output)
            errors.append(error)
    failed, _ = check_jobs(workload, outputs, errors, workload.reference(inputs))
    summaries = tracer.summarize()
    overhead = cycles_per_s(workload, traced) / cycles_per_s(workload, untraced)
    values = layers.per_layer_metrics(tracer, summaries, ids, traced, overhead)
    if not layers.counts_repeat(tracer, summaries, ids):
        print("note: per-job counts differ between traced jobs", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    print(describe_jobs(workload.name + " traced", traced))
    print(describe_jobs(workload.name + " untraced", untraced))
    for layer in layers.LAYERS + ["outside"]:
        print(f"  {layer:<13} {values[layer + '.share']:7.1%} of a traced job")
    units = {m.name: m.unit for m in layers.METRICS}
    emit(failed, len(traced) + len(untraced), {k: (v, units[k]) for k, v in values.items()})


def run_all(args) -> int:
    """Each workload in its own process, one result line apiece."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        code = max(code, subprocess.run(cmd + ["--trace", str(args.trace)], cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_sources()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    if args.worker:
        worker(workload, inputs, args)
    elif args.trace:
        traced_run(workload, inputs, args)
    else:
        untraced_run(workload, inputs, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

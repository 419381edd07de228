"""Benchmark self-tests: tracing is transparent, counts reconcile.

The workloads run here at reduced size; the benchmark itself runs them
at the sizes in ``perfbench.workloads``.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMALL = {
    "startup": lambda: workloads.startup(cycles=40),
    "supply_loss": lambda: workloads.supply_loss(cycles=40),
    "mc_campaign": lambda: workloads.mc_campaign(samples=4, cycles=40, checked=2, golden_draws=4),
    "envelope_campaign": lambda: workloads.envelope_campaign(draws=3, cycles=60),
}


def traced_job(workload, inputs):
    """One traced job: ``(output, per-layer metrics)``."""
    tracer = Tracer(layers.TARGETS, end_job=layers.end_job)
    tracer.install()
    try:
        ids, times, outputs, errors = run.run_jobs(workload, inputs, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert errors == [None]
    metrics = layers.per_layer_metrics(tracer, tracer.summarize(), ids, times, 1.0)
    return outputs[0], metrics


def assert_identical(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    else:
        assert np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_job_is_bit_identical_and_correct(name):
    workload = SMALL[name]()
    inputs = workload.inputs(3)
    plain = workload.job(inputs)
    traced, _ = traced_job(workload, inputs)
    assert_identical(traced, plain)
    assert workload.check(plain, workload.reference(inputs)) <= workloads.ACCURACY


def test_supply_loss_check_covers_the_settle_phase():
    workload = SMALL["supply_loss"]()
    output, ref = workload.job(None), workload.reference(None)
    workload.check(output, ref)
    with pytest.raises(workloads.CheckFailed, match="phase switches"):
        workload.check({**output, "phase_switches": 0}, ref)
    late = output["t"] > 0.5 * output["t"][-1]
    offset = 0.02 * ref["pre_fault"][0] * late
    with pytest.raises(workloads.CheckFailed, match="post-fault waveform"):
        workload.check({**output, "v": output["v"] + offset}, ref)


def test_uninstall_restores_every_entry_point():
    from repro.circuits import linsolve, transient

    before = (transient.run_transient, vars(linsolve.ReusableLU)["solve"])
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    assert transient.run_transient is not before[0]
    tracer.uninstall()
    assert (transient.run_transient, vars(linsolve.ReusableLU)["solve"]) == before


def test_step_control_counts_reconcile_with_stats():
    _, m = traced_job(SMALL["supply_loss"](), None)
    assert m["stepcontrol.accept.calls"] == m["transient.accepted_steps"] > 0
    assert m["stepcontrol.reject.calls"] == m["transient.rejected_steps"]
    assert m["stepcontrol.propose.calls"] == (
        m["stepcontrol.accept.calls"] + m["stepcontrol.reject.calls"]
    )
    # Linear adaptive runs report no Newton iterations but solve ~3x a step.
    assert m["transient.newton_iterations"] == 0
    assert m["linsolve.solves_per_step"] > 2


def test_fixed_step_counts_reconcile_with_stats():
    _, m = traced_job(SMALL["startup"](), None)
    assert m["assembly.step_rhs.calls"] == m["assembly.commit.calls"] == m["transient.accepted_steps"]
    assert m["transient.accepted_steps"] == 40 * workloads.POINTS_PER_CYCLE
    assert m["devices.linearize.calls"] >= m["transient.newton_iterations"] > 0
    assert m["stepcontrol.propose.calls"] == 0


def test_batched_sample_steps_cover_the_campaign():
    workload = SMALL["mc_campaign"]()
    _, m = traced_job(workload, workload.inputs(5))
    assert m["batched.sample_steps"] == 4 * 40 * workloads.POINTS_PER_CYCLE
    assert m["batched.quarantined"] == 0
    assert m["netlist.build.calls"] == 4
    assert m["transient.s"] == 0


def test_predictor_counts_repeat_for_one_seed():
    workload = SMALL["envelope_campaign"]()
    first = traced_job(workload, workload.inputs(11))[1]
    second = traced_job(workload, workload.inputs(11))[1]
    counts = [m.name for m in layers.METRICS if m.unit == "count"]
    assert first["predictor.fundamental.calls"] > 0
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["envelope_run.skipped_cycles"] > 0


def test_reference_seconds_scale_with_the_host():
    from perfbench.hostspeed import REFERENCE_S, to_reference

    usual = np.full(3, REFERENCE_S)
    assert to_reference(1.5, usual, usual) == pytest.approx(1.5)
    assert to_reference(1.5, usual, 3 * usual) == pytest.approx(0.75)


def test_worker_returns_checked_jobs_and_its_setup():
    from argparse import Namespace

    args = Namespace(workload="startup", seed=1, seconds=0.0)
    result = run.run_worker(args, 0)
    assert result["errors"] == [None] and len(result["times"]) == len(result["walls"]) == 1
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0
    workload = workloads.startup()
    workload.check(result["outputs"][0], workload.reference(None))


def test_benchmark_file_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.METRICS
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "startup", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

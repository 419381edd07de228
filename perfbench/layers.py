"""The per-layer breakdown: which calls are wrapped, what is reported.

``TARGETS`` names the public entry points of each ``repro`` layer the
traced run wraps; a span's layer is its name up to the first dot.
``METRICS`` lists every per-layer metric with the end-to-end metric
and workload it should move — the prediction a perf change states
before it claims a gain.  ``BENCHMARK.json``'s ``per_layer`` list is
this table without the ``moves`` column.

Counts are those of one timed job (jobs repeat the same inputs, so
they repeat exactly); times are medians over the traced jobs.  A ratio
whose denominator is zero on a workload — e.g. solves per step where
no per-sample transient runs — reads 0.
"""

from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Sequence

from .spans import JobSummary, Target, Tracer


def _count(state: dict, key: str, value) -> None:
    state[key] = state.get(key, 0) + value


def _after_transient(state, args, kwargs, result) -> None:
    stats = result.stats
    _count(state, "transient.accepted_steps", stats.get("accepted_steps", stats["steps"]))
    _count(state, "transient.rejected_steps", stats.get("rejected_steps", 0))
    _count(state, "transient.newton_iterations", stats["newton_iterations"])


def _after_set_dt(state, args, kwargs, result) -> None:
    # Assemblies are read once at job end (dt-cache entries and LU
    # factorizations are totals of the assembly's life).
    state.setdefault("_assemblies", {})[id(args[0])] = args[0]


def _after_batched(state, args, kwargs, result) -> None:
    for sample in result:
        _count(state, "batched.sample_steps", sample.stats["steps"])
        _count(state, "batched.quarantined", int(bool(sample.stats.get("quarantined"))))


def _after_envelope(state, args, kwargs, result) -> None:
    stats = result.stats["envelope"]
    envelope = kwargs["envelope"] if "envelope" in kwargs else args[2]
    _count(state, "envelope_run.resolved_cycles", stats["resolved_cycles"])
    _count(state, "envelope_run.skipped_cycles", stats["skipped_cycles"])
    history = stats.get("skip_history", [])
    _count(state, "envelope_run.skips", len(history))
    _count(
        state,
        "envelope_run.skips_accepted",
        sum(1 for h in history if h["mismatch"] <= envelope.tolerance),
    )
    warm = stats.get("warm_start")
    _count(state, "envelope_run.warm_tried", int(warm in ("accepted", "rejected")))
    _count(state, "envelope_run.warm_accepted", int(warm == "accepted"))


def end_job(state: dict) -> None:
    """Turn the job's assemblies into counts and drop the references."""
    assemblies = state.pop("_assemblies", {}).values()
    state["assembly.dt_entries"] = sum(a.n_dt_entries for a in assemblies)
    state["assembly.lu_factorizations"] = sum(a.lu_factorizations for a in assemblies)


_C = "repro.circuits."
TARGETS: List[Target] = [
    Target("transient.run", _C + "transient", "run_transient", _after_transient),
    Target("assembly.step_rhs", _C + "assembly", "TransientAssembly.step_rhs"),
    Target("assembly.commit", _C + "assembly", "TransientAssembly.commit"),
    Target("assembly.set_dt", _C + "assembly", "TransientAssembly.set_dt", _after_set_dt),
    Target("linsolve.factor", _C + "linsolve", "ReusableLU.factor"),
    Target("linsolve.solve", _C + "linsolve", "ReusableLU.solve"),
    Target("linsolve.solve", _C + "linsolve", "solve_dense"),
    Target("devices.linearize", _C + "controlled", "NonlinearVCCS.linearize"),
    Target("stepcontrol.propose", _C + "stepcontrol", "StepController.propose"),
    Target("stepcontrol.error_ratio", _C + "stepcontrol", "StepController.error_ratio"),
    Target("stepcontrol.accept", _C + "stepcontrol", "StepController.accept"),
    Target("stepcontrol.reject", _C + "stepcontrol", "StepController.reject"),
    Target("batched.run", _C + "batched", "run_transient_batched", _after_batched),
    Target("batched.step_rhs", _C + "batched", "BatchedTransientAssembly.step_rhs"),
    Target("batched.commit", _C + "batched", "BatchedTransientAssembly.commit"),
    Target("batched.solve", _C + "batched", "BatchedTransientAssembly.solve"),
    Target(
        "envelope_run.run",
        _C + "envelope_transient",
        "run_transient_envelope",
        _after_envelope,
    ),
    Target("predictor.advance", "repro.envelope.dynamics", "EnvelopeModel.advance"),
    Target(
        "predictor.fundamental",
        "repro.envelope.describing",
        "LimiterCharacteristic.fundamental",
    ),
    Target("campaigns.transient", "repro.campaigns.vectorized", "run_transient_campaign"),
    Target("campaigns.envelope", "repro.campaigns.vectorized", "run_envelope_campaign"),
    Target("campaigns.chain", "repro.campaigns.runner", "nearest_neighbor_chain"),
    Target("mc.run", "repro.mc.montecarlo", "run_monte_carlo"),
    Target("mc.sample", "repro.mc.mismatch", "MismatchProfile.sample_many"),
    Target("netlist.build", "repro.core.transient_system", "OscillatorNetlist.build"),
]

LAYERS = list(dict.fromkeys(t.span.split(".")[0] for t in TARGETS))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: The end-to-end metric and workload this one should move.
    moves: str


_STARTUP_SUPPLY = "cycles_per_s on startup and supply_loss; flat on mc_campaign"
_SUPPLY = "cycles_per_s on supply_loss"
_MC = "cycles_per_s on mc_campaign"
_ENVELOPE = "cycles_per_s on envelope_campaign only"


def _timed_calls(span: str, moves: str) -> List[Metric]:
    return [
        Metric(span + ".calls", "count", "lower", moves),
        Metric(span + ".s", "s", "lower", moves),
    ]


METRICS: List[Metric] = [
    Metric("transient.s", "s", "lower", _STARTUP_SUPPLY),
    Metric("transient.self_s", "s", "lower", _STARTUP_SUPPLY),
    Metric("transient.us_per_step", "us", "lower", _STARTUP_SUPPLY),
    Metric("transient.accepted_steps", "count", "lower", _STARTUP_SUPPLY),
    Metric("transient.rejected_steps", "count", "lower", _STARTUP_SUPPLY),
    Metric("transient.newton_iterations", "count", "lower", _STARTUP_SUPPLY),
    *_timed_calls("assembly.step_rhs", "cycles_per_s on startup and supply_loss"),
    *_timed_calls("assembly.commit", "cycles_per_s on startup and supply_loss"),
    Metric("assembly.set_dt.calls", "count", "lower", _SUPPLY),
    Metric("assembly.dt_entries", "count", "lower", _SUPPLY),
    Metric("assembly.lu_factorizations", "count", "lower", "cycles_per_s on startup and supply_loss"),
    *_timed_calls("linsolve.factor", _SUPPLY),
    *_timed_calls("linsolve.solve", _SUPPLY),
    Metric("linsolve.solves_per_step", "count", "lower", _SUPPLY),
    *_timed_calls("devices.linearize", "cycles_per_s on startup"),
    *_timed_calls("stepcontrol.propose", _SUPPLY),
    *_timed_calls("stepcontrol.error_ratio", _SUPPLY),
    *_timed_calls("stepcontrol.accept", _SUPPLY),
    *_timed_calls("stepcontrol.reject", _SUPPLY),
    Metric("stepcontrol.accept_ratio", "ratio", "higher", _SUPPLY),
    Metric("batched.s", "s", "lower", _MC),
    Metric("batched.self_s", "s", "lower", _MC),
    Metric("batched.sample_steps", "count", "lower", _MC),
    Metric("batched.us_per_sample_step", "us", "lower", _MC),
    Metric("batched.quarantined", "count", "lower", "failed on mc_campaign"),
    Metric("envelope_run.s", "s", "lower", _ENVELOPE),
    Metric("envelope_run.self_s", "s", "lower", _ENVELOPE),
    Metric("envelope_run.resolved_cycles", "count", "lower", _ENVELOPE),
    Metric("envelope_run.skipped_cycles", "count", "higher", _ENVELOPE),
    Metric("envelope_run.skip_accept_ratio", "ratio", "higher", _ENVELOPE),
    Metric("envelope_run.warm_accept_ratio", "ratio", "higher", _ENVELOPE),
    *_timed_calls("predictor.advance", _ENVELOPE),
    *_timed_calls("predictor.fundamental", _ENVELOPE),
    Metric("campaigns.self_s", "s", "lower", "job_p50_s on mc_campaign and envelope_campaign"),
    Metric("campaigns.chain.s", "s", "lower", "job_p50_s on envelope_campaign"),
    Metric("mc.self_s", "s", "lower", "job_p50_s on mc_campaign"),
    Metric("mc.sample.s", "s", "lower", "job_p50_s on mc_campaign; setup_s"),
    *_timed_calls("netlist.build", "job_p50_s on the campaigns; setup_s"),
    *[
        Metric(layer + ".share", "ratio", "lower", "self-time share of a job; explains the others")
        for layer in LAYERS
    ],
    Metric("outside.share", "ratio", "lower", "job time outside every wrapped call"),
    Metric("trace.spans", "count", "lower", "tracing cost per job"),
    Metric("trace.overhead", "ratio", "higher", "traced over untraced cycles_per_s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    summaries: Dict[int, JobSummary],
    jobs: Sequence[int],
    job_seconds: Sequence[float],
    overhead: float,
) -> Dict[str, float]:
    """Every ``METRICS`` value from the traced ``jobs``.

    ``summaries`` is ``tracer.summarize()``; ``job_seconds`` are the
    traced jobs' wall times; ``overhead`` is traced over untraced
    ``cycles_per_s``.
    """
    index = {name: i for i, name in enumerate(tracer.names)}
    layer_of = [name.split(".")[0] for name in tracer.names]
    first: JobSummary = summaries[jobs[0]]
    counts = tracer.job_states[jobs[0]]

    def seconds(span: str) -> float:
        return median(summaries[j].seconds[index[span]] for j in jobs)

    def layer_self(layer: str) -> float:
        ids = [i for i, owner in enumerate(layer_of) if owner == layer]
        return median(float(summaries[j].self_seconds[ids].sum()) for j in jobs)

    def calls(span: str) -> int:
        return int(first.calls[index[span]])

    job_s = median(job_seconds)
    steps = counts.get("transient.accepted_steps", 0)
    sample_steps = counts.get("batched.sample_steps", 0)
    values: Dict[str, float] = {
        "transient.s": seconds("transient.run"),
        "transient.self_s": layer_self("transient"),
        "transient.us_per_step": 1e6 * _ratio(seconds("transient.run"), steps),
        "transient.accepted_steps": steps,
        "transient.rejected_steps": counts.get("transient.rejected_steps", 0),
        "transient.newton_iterations": counts.get("transient.newton_iterations", 0),
        "assembly.set_dt.calls": calls("assembly.set_dt"),
        "assembly.dt_entries": counts["assembly.dt_entries"],
        "assembly.lu_factorizations": counts["assembly.lu_factorizations"],
        "linsolve.solves_per_step": _ratio(calls("linsolve.solve"), steps),
        "stepcontrol.accept_ratio": _ratio(
            calls("stepcontrol.accept"),
            calls("stepcontrol.accept") + calls("stepcontrol.reject"),
        ),
        "batched.s": seconds("batched.run"),
        "batched.self_s": layer_self("batched"),
        "batched.sample_steps": sample_steps,
        "batched.us_per_sample_step": 1e6 * _ratio(seconds("batched.run"), sample_steps),
        "batched.quarantined": counts.get("batched.quarantined", 0),
        "envelope_run.s": seconds("envelope_run.run"),
        "envelope_run.self_s": layer_self("envelope_run"),
        "envelope_run.resolved_cycles": counts.get("envelope_run.resolved_cycles", 0),
        "envelope_run.skipped_cycles": counts.get("envelope_run.skipped_cycles", 0),
        "envelope_run.skip_accept_ratio": _ratio(
            counts.get("envelope_run.skips_accepted", 0), counts.get("envelope_run.skips", 0)
        ),
        "envelope_run.warm_accept_ratio": _ratio(
            counts.get("envelope_run.warm_accepted", 0), counts.get("envelope_run.warm_tried", 0)
        ),
        "campaigns.self_s": layer_self("campaigns"),
        "campaigns.chain.s": seconds("campaigns.chain"),
        "mc.self_s": layer_self("mc"),
        "mc.sample.s": seconds("mc.sample"),
        "outside.share": _ratio(job_s - median(summaries[j].covered for j in jobs), job_s),
        "trace.spans": first.spans,
        "trace.overhead": overhead,
    }
    for span in (
        "assembly.step_rhs",
        "assembly.commit",
        "linsolve.factor",
        "linsolve.solve",
        "devices.linearize",
        "stepcontrol.propose",
        "stepcontrol.error_ratio",
        "stepcontrol.accept",
        "stepcontrol.reject",
        "predictor.advance",
        "predictor.fundamental",
        "netlist.build",
    ):
        values[span + ".calls"] = calls(span)
        values[span + ".s"] = seconds(span)
    for layer in LAYERS:
        values[layer + ".share"] = _ratio(layer_self(layer), job_s)
    return {m.name: float(values[m.name]) for m in METRICS}


def counts_repeat(tracer: Tracer, summaries: Dict[int, JobSummary], jobs: Sequence[int]) -> bool:
    """Whether every traced job made exactly the same calls and counts."""

    def signature(job: int) -> tuple:
        return (tuple(summaries[job].calls.tolist()), sorted(tracer.job_states[job].items()))

    return all(signature(j) == signature(jobs[0]) for j in jobs[1:])

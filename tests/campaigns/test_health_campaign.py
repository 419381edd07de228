"""The health layer at campaign scale: the ISSUE 8 acceptance story.

The headline scenario: a 64-sample sharded Monte-Carlo-shaped campaign
with one sample whose device data turns NaN mid-run must deliver 63
certified, finite waveforms plus one structured quarantine/health
record — no hang, no NaN in any survivor, no leaked shared-memory
segment.  Around it: health reports crossing the shard/process
boundary with globally remapped sample indices, the shard-pool
watchdog turning a hung shard into structured timeout failures, and
the Monte-Carlo front-end aggregating per-sample reports.

Everything a pool worker touches (build functions, source callables)
is module-level for pickling.
"""

import glob
import time

import numpy as np
import pytest

from repro.campaigns import BatchOptions, TaskFailure
from repro.campaigns.vectorized import run_transient_campaign
from repro.circuits import Circuit, TransientOptions
from repro.errors import BatchTaskError

T_STOP = 1e-6
DT = 1e-9
T_NAN = 5e-7
POISONED_SAMPLE = 13
N_SAMPLES = 64


def nan_after(t):
    return float("nan") if t > T_NAN else 1e-3


def hang_after(t):  # pragma: no cover - runs (and dies) in pool workers
    if t > T_NAN:
        time.sleep(300.0)
    return 1e-3


def build(task):
    """task = (r_scale, kind) with kind in (None, "nan", "hang")."""
    r_scale, kind = task
    circuit = Circuit("rc")
    circuit.resistor("R", "out", "0", 1e3 * r_scale)
    circuit.capacitor("C", "out", "0", 1e-9)
    source = {"nan": nan_after, "hang": hang_after}.get(kind, 1e-3)
    circuit.current_source("I", "0", "out", source)
    return circuit


def tasks_with(kind, where, n=N_SAMPLES):
    return [
        (1.0 + 0.01 * s, kind if s == where else None) for s in range(n)
    ]


def armed_options(**overrides):
    base = dict(
        t_stop=T_STOP,
        dt=DT,
        step_control="fixed",
        guards=True,
        certify=True,
        quarantine=True,
        on_abort="partial",
    )
    base.update(overrides)
    return TransientOptions(**base)


def shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestShardedNaNAcceptance:
    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_63_certified_plus_1_quarantine_no_leak(self, max_workers):
        before = shm_segments()
        results = run_transient_campaign(
            tasks_with("nan", POISONED_SAMPLE),
            build,
            armed_options(),
            BatchOptions(batch_mode="sharded", max_workers=max_workers),
        )
        assert len(results) == N_SAMPLES
        quarantined = []
        for g, result in enumerate(results):
            if result.stats.get("quarantined"):
                quarantined.append(g)
                record = result.stats["quarantine"]
                assert record["reason"] == "health"
                assert record["sample"] == POISONED_SAMPLE
                reports = result.stats["health"]
                assert reports
                # Shard-local indices must have been remapped to the
                # campaign's global sample index.
                assert all(r.sample == POISONED_SAMPLE for r in reports)
                assert all(r.kind == "nonfinite" for r in reports)
            else:
                assert np.isfinite(result.x).all(), f"NaN in survivor {g}"
                assert result.stats["health"] == []
                assert result.stats["certified_steps"] > 0
        assert quarantined == [POISONED_SAMPLE]
        assert shm_segments() - before == set()

    def test_sharded_armed_matches_lockstep_unarmed(self):
        """Healthy armed sharded run == unarmed single-batch, bitwise."""
        tasks = tasks_with(None, -1, n=16)
        reference = run_transient_campaign(
            tasks,
            build,
            TransientOptions(t_stop=T_STOP, dt=DT, step_control="fixed"),
            BatchOptions(batch_mode="vectorized"),
        )
        sharded = run_transient_campaign(
            tasks,
            build,
            armed_options(quarantine=False, on_abort="raise"),
            BatchOptions(batch_mode="sharded", max_workers=4),
        )
        for a, b in zip(reference, sharded):
            assert np.array_equal(a.x, b.x)
            assert b.stats["health"] == []


class TestShardWatchdog:
    # Process-mode jobs are chunksize tasks; chunksize=4 cuts the same
    # jobs as shard_size=4, so both modes lose the same hung job.
    @pytest.mark.parametrize("batch_mode", ["sharded", "process"])
    def test_hung_shard_becomes_timeout_failures(self, batch_mode):
        """A worker hung mid-solve is killed; its shard's samples land
        as ``TaskFailure(kind="timeout")`` and every other shard's
        results survive.  Must finish far faster than the hang."""
        t0 = time.monotonic()
        before = shm_segments()
        results = run_transient_campaign(
            tasks_with("hang", 7, n=16),
            build,
            TransientOptions(t_stop=T_STOP, dt=DT, step_control="fixed"),
            BatchOptions(
                batch_mode=batch_mode,
                max_workers=4,
                shard_size=4,
                chunksize=4,
                on_error="skip",
                task_timeout=3.0,
            ),
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        failures = [r for r in results if isinstance(r, TaskFailure)]
        assert len(failures) == 4  # the hung shard, whole
        assert {f.kind for f in failures} == {"timeout"}
        assert {f.index for f in failures} == {4, 5, 6, 7}
        for g, result in enumerate(results):
            if not isinstance(result, TaskFailure):
                assert np.isfinite(result.x).all()
        assert shm_segments() - before == set()

    @pytest.mark.parametrize("batch_mode", ["sharded", "process"])
    def test_hung_shard_raises_when_asked(self, batch_mode):
        with pytest.raises(BatchTaskError, match="watchdog"):
            run_transient_campaign(
                tasks_with("hang", 1, n=8),
                build,
                TransientOptions(t_stop=T_STOP, dt=DT, step_control="fixed"),
                BatchOptions(
                    batch_mode=batch_mode,
                    max_workers=4,
                    shard_size=2,
                    on_error="raise",
                    task_timeout=3.0,
                ),
            )


class TestMonteCarloAggregation:
    def test_health_reports_aggregate_with_global_samples(self):
        from repro.campaigns.vectorized import TransientMetricSpec
        from repro.mc import run_monte_carlo

        spec = TransientMetricSpec(
            name="v_final",
            build=_mc_build,
            options=armed_options(),
            evaluate=_mc_evaluate,
        )
        result = run_monte_carlo(
            spec,
            n_samples=8,
            batch=BatchOptions(batch_mode="vectorized"),
        )
        assert result.n == 8
        # Sample index == seed index; the poisoned seed draws the NaN.
        flagged = {r.sample for r in result.health}
        assert flagged == {_MC_POISONED}
        assert result.health_for(_MC_POISONED)
        assert result.health_for(0) == []


_MC_POISONED = 5


def _mc_build(profile):
    # Sample i draws with seed base_seed + i (bitwise reproducible in
    # isolation), so the poisoned sample is identified by comparing
    # against its deterministic draw — no side channel needed.
    from repro.mc.mismatch import DEFAULT_SIGMAS, MismatchProfile

    poisoned = MismatchProfile.sample(
        seed=12345 + _MC_POISONED, sigmas=DEFAULT_SIGMAS
    )
    return build((1.0, "nan" if profile == poisoned else None))


def _mc_evaluate(profile, result):
    return float(result.x[-1, 0])

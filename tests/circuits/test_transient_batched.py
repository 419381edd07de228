"""Batched lockstep engine vs the per-sample reference path.

The contract under test: for every netlist family the lockstep engine
accepts, ``run_transient_batched(circuits, options)[s]`` matches
``run_transient(circuits[s], options)`` at rtol 1e-9 — across all
per-sample solve strategies (``linear``/``rank1``/``woodbury``/
``general``), both integration methods, ragged Newton convergence,
and the recording options campaigns actually use.
"""

import inspect
import sys

import numpy as np
import pytest

from repro.circuits import (
    BatchIncompatible,
    Circuit,
    NewtonOptions,
    TransientOptions,
    run_transient,
    run_transient_batched,
    sine,
)
from repro.circuits.batched import (
    BatchedTransientAssembly,
    _BatchedStepSolver,
    _row_absmax,
)
from repro.core import OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import HardLimiter, RLCTank, TanhLimiter
from repro.envelope.describing import tanh_limiter_pair
from repro.errors import SimulationError


F0 = 4e6
T0 = 1.0 / F0


def build_rlc(r, amplitude=1.0):
    """Linear strategy: R + C + L + sources, no nonlinear devices."""
    circuit = Circuit("rlc")
    circuit.voltage_source("Vin", "in", "0", sine(amplitude, 1e5))
    circuit.resistor("R", "in", "out", r)
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.inductor("L", "out", "tail", 1e-6)
    circuit.resistor("R2", "tail", "0", 50.0)
    circuit.current_source("Ib", "out", "0", 1e-4)
    return circuit


def build_oscillator(gm_scale, q_scale=1.0, limiter_cls=TanhLimiter):
    """Rank-1 strategy: the Fig 1 startup netlist, one NonlinearVCCS."""
    tank = RLCTank.from_frequency_and_q(F0, 15.0 * q_scale, 1e-6)
    limiter = limiter_cls(gm=6e-3 * gm_scale, i_max=2e-3)
    return OscillatorNetlist(tank, vref=2.5).build(limiter)


def build_k_vccs(k, gm, vectorized=True):
    """k NonlinearVCCS devices: woodbury (k<=4) / general (k>4)."""
    circuit = Circuit(f"k{k}")
    circuit.voltage_source("Vin", "in", "0", sine(0.5, 1e5))
    circuit.resistor("R", "in", "a", 100.0)
    circuit.capacitor("C", "a", "0", 1e-9)
    circuit.resistor("RL", "a", "0", 1e3)
    for j in range(k):
        node = f"o{j}"
        gm_j = gm * (1.0 + 0.1 * j)
        circuit.resistor(f"Ro{j}", node, "0", 500.0)
        circuit.capacitor(f"Co{j}", node, "0", 1e-10)

        def func(v, g=gm_j):
            return 1e-3 * np.tanh(g * v / 1e-3)

        circuit.nonlinear_vccs(
            f"G{j}",
            node,
            "0",
            "a",
            "0",
            func,
            vector_pair=tanh_limiter_pair if vectorized else None,
            vector_params=(gm_j, 1e-3) if vectorized else (),
        )
    return circuit


def assert_batch_equivalent(builders, options, rtol=1e-9, atol=1e-15):
    per_sample = [run_transient(build(), options) for build in builders]
    batched = run_transient_batched([build() for build in builders], options)
    assert len(batched) == len(per_sample)
    for reference, stacked in zip(per_sample, batched):
        np.testing.assert_array_equal(stacked.t, reference.t)
        np.testing.assert_allclose(stacked.x, reference.x, rtol=rtol, atol=atol)
    return per_sample, batched


@pytest.mark.parametrize("method", ["trap", "be"])
class TestStrategyEquivalence:
    def options(self, method, **kw):
        kw.setdefault("t_stop", 2e-5)
        kw.setdefault("dt", 1e-8)
        kw.setdefault("use_dc_operating_point", True)
        return TransientOptions(method=method, **kw)

    def test_linear(self, method):
        builders = [lambda r=r: build_rlc(r) for r in (100.0, 150.0, 220.0)]
        per, bat = assert_batch_equivalent(builders, self.options(method))
        assert per[0].stats["strategy"] == "linear"
        assert bat[0].stats["strategy"] == "batched-linear"

    def test_rank1(self, method):
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            method=method,
            use_dc_operating_point=False,
        )
        builders = [
            lambda g=g: build_oscillator(g) for g in (0.9, 1.0, 1.15, 1.3)
        ]
        per, bat = assert_batch_equivalent(builders, options)
        assert per[0].stats["strategy"] == "rank1"
        assert bat[0].stats["strategy"] == "batched-rank1"

    def test_woodbury(self, method):
        builders = [
            lambda g=g: build_k_vccs(3, g) for g in (2e-3, 2.5e-3, 3e-3)
        ]
        per, bat = assert_batch_equivalent(
            builders, self.options(method), atol=1e-12
        )
        assert per[0].stats["strategy"] == "woodbury"
        assert bat[0].stats["strategy"] == "batched-woodbury"

    def test_general(self, method):
        # 5 devices put the per-sample engine on its general full-
        # Newton path; the lockstep engine stacks them as rank-k.
        builders = [
            lambda g=g: build_k_vccs(5, g) for g in (2e-3, 2.5e-3, 3e-3)
        ]
        per, bat = assert_batch_equivalent(
            builders, self.options(method), atol=1e-12
        )
        assert per[0].stats["strategy"] == "general"
        assert bat[0].stats["strategy"] == "batched-woodbury"

    def test_scalar_linearize_fallback(self, method):
        # Devices without a batchable family loop over linearize();
        # the results must not change.
        builders = [
            lambda g=g: build_k_vccs(2, g, vectorized=False)
            for g in (2e-3, 3e-3)
        ]
        assert_batch_equivalent(builders, self.options(method), atol=1e-12)

    def test_scalar_linearize_fallback_rank1(self, method):
        # The same scalar loop inside the rank-1 kernel (k=1).
        builders = [
            lambda g=g: build_k_vccs(1, g, vectorized=False)
            for g in (2e-3, 2.5e-3, 3e-3)
        ]
        per, bat = assert_batch_equivalent(
            builders, self.options(method), atol=1e-12
        )
        assert per[0].stats["strategy"] == "rank1"
        assert bat[0].stats["strategy"] == "batched-rank1"
        assert [r.stats["newton_iterations"] for r in bat] == [
            r.stats["newton_iterations"] for r in per
        ]


class TestRaggedConvergence:
    def test_samples_take_different_newton_counts(self):
        # Widely spread drive strengths: saturation onset differs per
        # sample, so Newton counts are ragged while results still pin
        # to the per-sample engine.
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            use_dc_operating_point=False,
        )
        scales = (0.8, 1.0, 1.4, 2.0)
        builders = [lambda g=g: build_oscillator(g) for g in scales]
        per, bat = assert_batch_equivalent(builders, options)
        per_counts = [r.stats["newton_iterations"] for r in per]
        bat_counts = [r.stats["newton_iterations"] for r in bat]
        # The convergence mask reproduces each sample's own count.
        assert bat_counts == per_counts
        assert len(set(bat_counts)) > 1, "spread should be ragged"


class TestRecordingOptions:
    def test_record_nodes_and_stride(self):
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            use_dc_operating_point=False,
            record_nodes=("lc1", "lc2"),
            record_stride=4,
        )
        builders = [lambda g=g: build_oscillator(g) for g in (0.9, 1.2)]
        per, bat = assert_batch_equivalent(builders, options)
        assert bat[0].recorded_nodes == ("lc1", "lc2")
        assert bat[0].x.shape[1] == 2
        # Unrecorded nodes still raise, like the per-sample result.
        with pytest.raises(SimulationError):
            bat[0].waveform("mid")

    def test_stats_carry_batch_info(self):
        options = TransientOptions(
            t_stop=5 * T0, dt=T0 / 40, use_dc_operating_point=False
        )
        bat = run_transient_batched(
            [build_oscillator(1.0), build_oscillator(1.1)], options
        )
        assert bat[0].stats["batch_samples"] == 2
        assert bat[0].stats["steps"] == 200


class TestAdaptiveLockstep:
    def test_shared_worst_sample_grid(self):
        circuits = [
            supply_loss_tank_circuit(F0, 10 * T0, q=q) for q in (12.0, 18.0)
        ]
        options = TransientOptions(
            t_stop=40 * T0,
            dt=T0 / 40,
            step_control="adaptive",
            use_dc_operating_point=False,
            dt_min=T0 / 640,
            dt_max=4 * T0,
        )
        results = run_transient_batched(circuits, options)
        # One shared (non-uniform) grid for every sample.
        np.testing.assert_array_equal(results[0].t, results[1].t)
        dts = np.diff(results[0].t)
        assert dts.min() < dts.max() / 2, "grid should actually adapt"
        # The fault breakpoint is landed on exactly.
        assert np.any(np.isclose(results[0].t, 10 * T0, rtol=0, atol=1e-18))
        assert results[0].stats["breakpoints_hit"] >= 1
        # Stats parity with the per-sample adaptive engine.
        assert results[0].stats["dt_cache_entries"] >= 1

    def test_adaptive_matches_fine_fixed_shape(self):
        circuits = lambda: [
            supply_loss_tank_circuit(F0, 10 * T0, q=q) for q in (12.0, 18.0)
        ]
        adaptive = run_transient_batched(
            circuits(),
            TransientOptions(
                t_stop=30 * T0,
                dt=T0 / 40,
                step_control="adaptive",
                use_dc_operating_point=False,
                dt_min=T0 / 640,
                dt_max=2 * T0,
                lte_reltol=2e-4,
            ),
        )
        fine = [
            run_transient(
                c,
                TransientOptions(
                    t_stop=30 * T0, dt=T0 / 320, use_dc_operating_point=False
                ),
            )
            for c in circuits()
        ]
        for a, f in zip(adaptive, fine):
            wa = a.differential("lc1", "lc2")
            wf = f.differential("lc1", "lc2")
            ya = np.interp(wf.t, wa.t, wa.y)
            mask = wf.t < 9 * T0  # driven phase
            scale = np.max(np.abs(wf.y[mask]))
            assert np.max(np.abs(ya[mask] - wf.y[mask])) < 0.02 * scale


class TestIncompatibility:
    def test_topology_mismatch(self):
        a = build_rlc(100.0)
        b = build_rlc(100.0)
        b.resistor("Rextra", "out", "0", 1e4)
        with pytest.raises(BatchIncompatible):
            run_transient_batched(
                [a, b], TransientOptions(t_stop=1e-6, dt=1e-9)
            )

    def test_unsupported_nonlinear_device(self):
        def diode_circuit():
            c = Circuit("d")
            c.voltage_source("V", "in", "0", 1.0)
            c.resistor("R", "in", "a", 1e3)
            c.diode("D", "a", "0")
            c.capacitor("C", "a", "0", 1e-9)
            return c

        with pytest.raises(BatchIncompatible):
            run_transient_batched(
                [diode_circuit(), diode_circuit()],
                TransientOptions(t_stop=1e-6, dt=1e-9),
            )

    def test_non_auto_jacobian(self):
        with pytest.raises(BatchIncompatible):
            run_transient_batched(
                [build_oscillator(1.0)],
                TransientOptions(t_stop=1e-6, dt=1e-9, jacobian="full"),
            )

    def test_empty_batch(self):
        with pytest.raises(SimulationError):
            run_transient_batched([], TransientOptions(t_stop=1e-6, dt=1e-9))


class TestVectorPairContract:
    def test_vector_pair_must_match_scalar_func(self):
        from repro.errors import NetlistError

        c = Circuit("bad")
        with pytest.raises(NetlistError):
            c.nonlinear_vccs(
                "G",
                "a",
                "0",
                "a",
                "0",
                lambda v: 1.0 + v,  # i(0) = 1
                vector_pair=tanh_limiter_pair,  # i(0) = 0
                vector_params=(1e-3, 1e-3),
            )

    def test_oscillator_driver_declares_family(self):
        circuit = build_oscillator(1.0)
        device = circuit["Gdrv"]
        assert device.vector_pair is not None
        # Structural equality across samples is what makes stacking
        # possible: two builds must compare equal.
        other = build_oscillator(2.0)["Gdrv"]
        assert device.vector_pair == other.vector_pair
        i, g = device.vector_pair(
            np.array([0.0, 0.1]), *[np.array([p, p]) for p in device.vector_params]
        )
        gm_ref, ieq_ref = device.linearize(0.1)
        np.testing.assert_allclose(g[1], gm_ref, rtol=1e-12)
        np.testing.assert_allclose(i[1] - g[1] * 0.1, ieq_ref, rtol=1e-12)


class TestVectorPairValidation:
    def test_sign_flipped_family_rejected(self):
        # An odd characteristic agrees with anything at v = 0; the
        # off-origin probes must catch a sign flip.
        from repro.errors import NetlistError

        import math

        def flipped(v, gm, i_max):
            i, g = tanh_limiter_pair(v, gm, i_max)
            return -i, -g

        c = Circuit("flip")
        with pytest.raises(NetlistError):
            c.nonlinear_vccs(
                "G",
                "a",
                "0",
                "a",
                "0",
                lambda v: 1e-3 * math.tanh(2e-3 * v / 1e-3),
                vector_pair=flipped,
                vector_params=(2e-3, 1e-3),
            )

    def test_wrong_scale_family_rejected(self):
        from repro.errors import NetlistError

        import math

        c = Circuit("scale")
        with pytest.raises(NetlistError):
            c.nonlinear_vccs(
                "G",
                "a",
                "0",
                "a",
                "0",
                lambda v: 1e-3 * math.tanh(2e-3 * v / 1e-3),
                vector_pair=tanh_limiter_pair,
                vector_params=(4e-3, 1e-3),  # double the real gm
            )


class TestMultistepLockstep:
    """BDF2/Gear through the batched engine: one shared order schedule,
    stacked multistep history, per-sample equivalence at rtol 1e-9."""

    def test_bdf2_fixed_grid_matches_per_sample(self):
        builders = [lambda r=r: build_rlc(r) for r in (100.0, 150.0, 220.0)]
        options = TransientOptions(
            t_stop=2e-5, dt=1e-8, method="bdf2", use_dc_operating_point=True
        )
        per, bat = assert_batch_equivalent(builders, options)
        assert bat[0].stats["strategy"] == "batched-linear"
        assert bat[0].stats["order_histogram"] == per[0].stats["order_histogram"]

    def test_gear3_fixed_grid_rank1_matches_per_sample(self):
        builders = [
            lambda s=s: build_oscillator(s) for s in (0.9, 1.0, 1.1)
        ]
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            method="gear",
            max_order=3,
            use_dc_operating_point=False,
        )
        per, bat = assert_batch_equivalent(builders, options)
        assert bat[0].stats["strategy"] == "batched-rank1"
        hist = bat[0].stats["order_histogram"]
        assert hist[3] > 0  # the batch reached order 3 together

    def test_gear_adaptive_lockstep_shared_order_schedule(self):
        builders = [lambda r=r: build_rlc(r) for r in (100.0, 220.0)]
        options = TransientOptions(
            t_stop=2e-5,
            dt=1e-8,
            method="gear",
            step_control="adaptive",
            use_dc_operating_point=True,
            dt_max=4e-7,
        )
        results = run_transient_batched(
            [build() for build in builders], options
        )
        stats = results[0].stats
        assert stats["accepted_steps"] > 0
        assert sum(stats["order_histogram"].values()) == stats["accepted_steps"]
        # One lockstep grid: both samples share it exactly.
        np.testing.assert_array_equal(results[0].t, results[1].t)

    def test_gear_adaptive_supply_loss_matches_per_sample_shape(self):
        def build(q):
            return supply_loss_tank_circuit(F0, 20 * T0, q=q, inductance=1e-6)

        options = TransientOptions(
            t_stop=80 * T0,
            dt=T0 / 40,
            method="bdf2",
            step_control="adaptive",
            use_dc_operating_point=False,
            dt_min=T0 / 640,
            dt_max=4 * T0,
        )
        batched = run_transient_batched([build(12.0), build(18.0)], options)
        fine = run_transient(
            build(12.0),
            TransientOptions(
                t_stop=80 * T0, dt=T0 / 160, use_dc_operating_point=False
            ),
        )
        wa = batched[0].differential("lc1", "lc2")
        wf = fine.differential("lc1", "lc2")
        pre = wa.window(10 * T0, 20 * T0).peak_to_peak()
        pre_f = wf.window(10 * T0, 20 * T0).peak_to_peak()
        assert pre == pytest.approx(pre_f, rel=0.05)


class TestSkipMask:
    """Per-sample skip masks: masked samples freeze (state held),
    unmasked samples are bit-identical to an unmasked run."""

    def _options(self, **kw):
        return TransientOptions(
            t_stop=2e-5, dt=1e-8, use_dc_operating_point=True, **kw
        )

    def test_fixed_masked_sample_freezes_others_identical(self):
        tasks = [100.0, 150.0, 220.0]
        circuits = [build_rlc(r) for r in tasks]
        options = self._options()

        def mask(t):
            m = np.zeros(3, dtype=bool)
            m[1] = 0.5e-5 <= t < 1.0e-5
            return m

        plain = run_transient_batched(
            [build_rlc(r) for r in tasks], options
        )
        masked = run_transient_batched(circuits, options, skip_mask=mask)
        # Unmasked samples: bit-identical.
        for s in (0, 2):
            np.testing.assert_allclose(
                masked[s].x, plain[s].x, rtol=0, atol=0
            )
            assert masked[s].stats["skipped_steps"] == 0
        # The masked sample froze for the window...
        assert masked[1].stats["skipped_steps"] > 0
        t = masked[1].t
        window = (t >= 0.5e-5) & (t < 1.0e-5)
        v = masked[1].waveform("out").y
        assert np.ptp(v[window]) == 0.0
        # ...and moved again afterwards.
        assert np.ptp(v[t >= 1.0e-5]) > 0.0

    def test_adaptive_mask_accepted(self):
        tasks = [100.0, 220.0]
        options = self._options(step_control="adaptive")

        def mask(t):
            return np.array([False, t < 0.4e-5])

        results = run_transient_batched(
            [build_rlc(r) for r in tasks], options, skip_mask=mask
        )
        assert results[0].stats["skipped_steps"] == 0
        assert results[1].stats["skipped_steps"] > 0
        assert np.isfinite(results[1].x).all()


def kernel_lines(run):
    """Source lines of the batched rank-1 kernel that ``run()`` executes.

    The rare branches below change no output a test could read, so
    the tests check that they ran by tracing the kernel's lines.
    """
    kernel = _BatchedStepSolver._step_rank1
    source, first = inspect.getsourcelines(kernel)
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is kernel.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return [source[line - first] for line in sorted(executed)]


def ran(lines, marker):
    return any(marker in line for line in lines)


#: Markers of the kernel's rare branches (first line of each).
ONLINE_DAMPING = "c_damped = "
OFFLINE_DAMPING = "over = (maxd > max_step)"
DENSE_FALLBACK = "denom = np.where(bad"


def assert_traced_equivalent(builders, options, rtol=1e-9, atol=1e-15):
    """Per-sample equivalence, equal iteration counts, kernel lines."""
    out = {}

    def run():
        out["pair"] = assert_batch_equivalent(builders, options, rtol, atol)

    lines = kernel_lines(run)
    per, bat = out["pair"]
    assert bat[0].stats["strategy"] == "batched-rank1"
    assert [r.stats["newton_iterations"] for r in bat] == [
        r.stats["newton_iterations"] for r in per
    ]
    return lines


def build_shunt_limiter(limiter):
    """A current-driven RC node shunted by a limiter of gm >> 1/R.

    Each time the drive leaves the limiter's linear band, an undamped
    landing step inside the band is followed by a large step into
    saturation: the on-line damping branch.
    """
    circuit = Circuit("shunt")
    circuit.current_source("I", "0", "a", sine(2e-3, 1e5))
    circuit.resistor("R", "a", "0", 1e3)
    circuit.capacitor("C", "a", "0", 1e-10)
    family, params = limiter.vector_pair_spec()
    circuit.nonlinear_vccs(
        "G",
        "a",
        "0",
        "a",
        "0",
        limiter,
        pair=limiter.value_and_slope,
        vector_pair=family,
        vector_params=params,
    )
    return circuit


def linear_pair(v, slope):
    """Batchable linear family ``i = slope * v``."""
    v = np.asarray(v, dtype=float)
    return slope * v, slope * np.ones_like(v)


R_SINGULAR = 1e3


def build_singular_slope(slope, vectorized):
    """An RC low-pass plus a decoupled node ``b`` whose VCCS conducts
    across its own control resistor.  At ``slope = -(1/R + gmin)`` the
    rank-1 denominator ``1 + gm*vw`` vanishes; ``b`` has no drive, so
    the dense fallback's answer there (``v_b = 0``) is well defined."""
    circuit = Circuit("singular")
    circuit.voltage_source("Vin", "in", "0", sine(1.0, 1e5))
    circuit.resistor("R", "in", "out", 100.0)
    circuit.capacitor("C", "out", "0", 1e-9)
    circuit.resistor("Rb", "b", "0", R_SINGULAR)
    circuit.nonlinear_vccs(
        "G",
        "b",
        "0",
        "b",
        "0",
        lambda v, s=slope: s * v,
        pair=lambda v, s=slope: (s * v, s),
        vector_pair=linear_pair if vectorized else None,
        vector_params=(slope,) if vectorized else (),
    )
    return circuit


@pytest.mark.parametrize("limiter_cls", [TanhLimiter, HardLimiter])
class TestForcedDamping:
    """A small ``max_step`` drives the rank-1 kernel through its damping
    branches; every sample must still iterate exactly as it would alone."""

    def test_oscillator_offline_damping(self, limiter_cls):
        options = TransientOptions(
            t_stop=20 * T0,
            dt=T0 / 40,
            use_dc_operating_point=False,
            newton=NewtonOptions(max_step=0.05),
        )
        builders = [
            lambda g=g: build_oscillator(g, limiter_cls=limiter_cls)
            for g in (0.8, 1.0, 1.4, 2.0)
        ]
        lines = assert_traced_equivalent(builders, options)
        assert ran(lines, OFFLINE_DAMPING)

    def test_shunt_limiter_online_damping(self, limiter_cls):
        options = TransientOptions(
            t_stop=2e-5,
            dt=1e-7,
            use_dc_operating_point=True,
            newton=NewtonOptions(max_step=0.01),
        )
        builders = [
            lambda g=g: build_shunt_limiter(limiter_cls(gm=g, i_max=1e-3))
            for g in (1.0, 1.2, 1.5)
        ]
        lines = assert_traced_equivalent(builders, options)
        assert ran(lines, ONLINE_DAMPING)
        assert ran(lines, OFFLINE_DAMPING)


@pytest.mark.parametrize("vectorized", [True, False])
def test_singular_denominator_dense_fallback(vectorized):
    # Samples 0 and 2 sit on the singular slope, sample 1 next to them
    # takes the Sherman-Morrison path in the same iterations.
    g = 1.0 / R_SINGULAR + NewtonOptions().gmin
    builders = [
        lambda s=s: build_singular_slope(s, vectorized) for s in (-g, g, -g)
    ]
    options = TransientOptions(t_stop=2e-6, dt=1e-8, use_dc_operating_point=True)
    lines = assert_traced_equivalent(builders, options)
    assert ran(lines, DENSE_FALLBACK)


def bits(a):
    """Bit pattern of a float array (NaN-exact comparisons)."""
    return np.ascontiguousarray(a).view(np.int64)


T_POISON = 6 * T0


def poison_after(t):
    return float("nan") if t > T_POISON else 0.0


def build_poisonable(gm_scale, poison):
    circuit = build_oscillator(gm_scale)
    circuit.current_source("Ip", "0", "lc1", poison_after if poison else 0.0)
    return circuit


class TestFrozenRows:
    """Quarantined and skipped samples next to live ones: the full-width
    kernel computes their rows but must never write them, nor warn
    about the non-finite values they may carry."""

    SCALES = (0.9, 1.0, 1.2, 1.4)

    @pytest.mark.filterwarnings("error")
    def test_quarantined_and_skipped_next_to_survivors(self):
        options = TransientOptions(
            t_stop=12 * T0,
            dt=T0 / 40,
            use_dc_operating_point=False,
            quarantine=True,
            guards=True,
        )

        def mask(t):
            return np.array([False, False, 3 * T0 <= t < 5 * T0, False])

        circuits = [
            build_poisonable(g, poison=(s == 1))
            for s, g in enumerate(self.SCALES)
        ]
        results = run_transient_batched(circuits, options, skip_mask=mask)
        t = results[0].t
        # Sample 1 dies on its first NaN stimulus; its iterate stays at
        # the last converged step for the rest of the run.
        assert results[1].stats["quarantine"]["reason"] == "health"
        last_good = np.flatnonzero(t <= T_POISON)[-1]
        x1 = results[1].x
        assert (bits(x1[last_good:]) == bits(x1[last_good])).all()
        # Sample 2 sits the window out with its iterate held.
        x2 = results[2].x
        window = np.flatnonzero((t >= 3 * T0) & (t < 5 * T0))
        held = bits(x2[window[0] - 1])
        assert (bits(x2[window]) == held).all()
        assert results[2].stats["skipped_steps"] == window.size
        # The survivors run as they would alone.
        for s in (0, 3):
            reference = run_transient(
                build_poisonable(self.SCALES[s], poison=False), options
            )
            np.testing.assert_allclose(
                results[s].x, reference.x, rtol=1e-9, atol=1e-15
            )
            assert (
                results[s].stats["newton_iterations"]
                == reference.stats["newton_iterations"]
            )

    @pytest.mark.filterwarnings("error")
    def test_kernel_never_writes_frozen_rows(self):
        options = TransientOptions(dt=T0 / 40, use_dc_operating_point=False)
        circuits = [build_oscillator(g) for g in self.SCALES]
        asm = BatchedTransientAssembly(
            circuits, options.dt, options.resolved_method(), options.newton.gmin
        )
        x = np.zeros((len(circuits), asm.size))
        asm.init_state(x)
        solver = _BatchedStepSolver(asm, options.newton, quarantine=True)
        for step in range(1, 41):
            time = step * options.dt
            x = solver.step(x, asm.step_rhs(time), time)
            asm.commit(x, time)
        time = 41 * options.dt
        before = solver.newton_per_sample.copy()
        plain = solver.step(x, asm.step_rhs(time), time)
        counts = solver.newton_per_sample.copy()

        # Sample 1: quarantined with a non-finite iterate (control
        # voltage +inf, the rest NaN) and a NaN companion state, so a
        # NaN stimulus; sample 2: skipped.
        solver.quarantine([1], time, "test")
        solver.set_skipped(np.array([False, False, True, False]))
        lc1, lc2 = (circuits[0].node_names.index(n) for n in ("lc1", "lc2"))
        x = x.copy()
        x[1] = np.nan
        x[1, lc1], x[1, lc2] = np.inf, 1.0
        asm.v[1] = np.nan
        asm.i[1] = np.nan
        v0, i0 = asm.v.copy(), asm.i.copy()
        frozen = solver.step(x, asm.step_rhs(time), time)
        assert (bits(frozen[1:3]) == bits(x[1:3])).all()
        assert (bits(frozen[[0, 3]]) == bits(plain[[0, 3]])).all()
        added = solver.newton_per_sample - counts
        assert added[1] == added[2] == 0
        assert (added[[0, 3]] == (counts - before)[[0, 3]]).all()
        asm.commit(frozen, time, freeze=solver.frozen)
        assert (bits(asm.v[1:3]) == bits(v0[1:3])).all()
        assert (bits(asm.i[1:3]) == bits(i0[1:3])).all()


class TestRowAbsMax:
    """``_row_absmax`` is ``np.abs(a).max(axis=1)``, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_random_rows(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((257, m)) * 10.0 ** rng.integers(
            -12, 12, (257, m)
        )
        assert (bits(_row_absmax(a)) == bits(np.abs(a).max(axis=1))).all()
        # Column slices of a wider array, as the engine passes them.
        wide = np.hstack([a, a])
        assert (
            bits(_row_absmax(wide[:, :m])) == bits(np.abs(a).max(axis=1))
        ).all()

    def test_special_values(self):
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.5]
        rows = [
            [p, q, r] for p in specials for q in specials for r in specials
        ]
        a = np.array(rows)
        assert (bits(_row_absmax(a)) == bits(np.abs(a).max(axis=1))).all()

    def test_zero_width(self):
        out = _row_absmax(np.empty((5, 0)))
        assert out.shape == (5,)
        assert (bits(out) == bits(np.zeros(5))).all()

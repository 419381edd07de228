"""Tests for envelope dynamics, incl. cross-validation against the MNA
transient of the same oscillator — the two substrates must agree."""

import math

import numpy as np
import pytest

from repro.analysis import envelope_by_peaks, oscillation_frequency
from repro.circuits import Circuit, TransientOptions, run_transient
from repro.envelope import (
    EnvelopeModel,
    HardLimiter,
    K_SQUARE_WAVE,
    RLCTank,
    TanhLimiter,
    small_signal_growth_rate,
    steady_state_amplitude,
)
from repro.errors import ConfigurationError, SimulationError


@pytest.fixture
def tank():
    return RLCTank.from_frequency_and_q(4e6, 50.0, 10e-6)


class TestGrowthRate:
    def test_sign(self, tank):
        critical = 1.0 / tank.parallel_resistance
        assert small_signal_growth_rate(tank, 2 * critical) > 0
        assert small_signal_growth_rate(tank, 0.5 * critical) < 0

    def test_value(self, tank):
        gm = 2.0 / tank.parallel_resistance
        expected = (gm - 1 / tank.parallel_resistance) / (
            2 * tank.differential_capacitance
        )
        assert small_signal_growth_rate(tank, gm) == pytest.approx(expected)

    def test_invalid_gm(self, tank):
        with pytest.raises(ConfigurationError):
            small_signal_growth_rate(tank, -1.0)


class TestSteadyState:
    def test_eq4_deep_limiting(self, tank):
        """RMS amplitude = k * Rp * IM (paper Eq 4)."""
        i_max = 1e-3
        lim = HardLimiter(gm=10e-3, i_max=i_max)
        a_pk = steady_state_amplitude(tank, lim)
        v_rms = a_pk / math.sqrt(2)
        expected = K_SQUARE_WAVE * tank.parallel_resistance * i_max
        assert v_rms == pytest.approx(expected, rel=1e-3)

    def test_amplitude_proportional_to_im(self, tank):
        """Eq 5: dV/V = dIM/IM."""
        a1 = steady_state_amplitude(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        a2 = steady_state_amplitude(tank, HardLimiter(gm=10e-3, i_max=1.05e-3))
        assert a2 / a1 == pytest.approx(1.05, rel=1e-3)

    def test_below_critical_gm_returns_zero(self, tank):
        weak = HardLimiter(gm=0.5 / tank.parallel_resistance, i_max=1e-3)
        assert steady_state_amplitude(tank, weak) == 0.0


class TestSimulation:
    def test_startup_reaches_steady_state(self, tank):
        model = EnvelopeModel(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        a_ss = model.steady_state()
        wave = model.simulate(20 * tank.ring_down_tau())
        assert wave.y[-1] == pytest.approx(a_ss, rel=1e-3)

    def test_decay_from_above(self, tank):
        model = EnvelopeModel(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        a_ss = model.steady_state()
        wave = model.simulate(20 * tank.ring_down_tau(), a0=3 * a_ss)
        assert wave.y[-1] == pytest.approx(a_ss, rel=1e-3)
        assert wave.y[0] > wave.y[-1]

    def test_startup_time_orders(self, tank):
        strong = EnvelopeModel(tank, HardLimiter(gm=20e-3, i_max=1e-3))
        weak = EnvelopeModel(tank, HardLimiter(gm=2e-3, i_max=1e-3))
        assert strong.startup_time() < weak.startup_time()

    def test_no_start_raises(self, tank):
        model = EnvelopeModel(
            tank, HardLimiter(gm=0.1 / tank.parallel_resistance, i_max=1e-3)
        )
        with pytest.raises(SimulationError):
            model.startup_time()

    def test_invalid_inputs(self, tank):
        model = EnvelopeModel(tank, HardLimiter(gm=10e-3, i_max=1e-3))
        with pytest.raises(SimulationError):
            model.simulate(0.0)
        with pytest.raises(SimulationError):
            model.startup_time(fraction=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("limiter", [HardLimiter, TanhLimiter])
    def test_advance_rejects_non_finite(self, tank, limiter, bad):
        # A NaN amplitude would otherwise come back as the cycle-skipping
        # engine's jump scale.
        model = EnvelopeModel(tank, limiter(gm=10e-3, i_max=1e-3))
        with pytest.raises(SimulationError):
            model.advance(bad, 1e-6)
        with pytest.raises(SimulationError):
            model.advance(0.1, bad)


class TestCrossValidationAgainstMNA:
    """The envelope model and the carrier-level MNA transient describe
    the same oscillator; their steady-state amplitude and frequency
    must agree within a few percent."""

    def test_amplitude_and_frequency(self):
        tank = RLCTank.from_frequency_and_q(3e6, 25.0, 5e-6)
        limiter = TanhLimiter(gm=8e-3, i_max=0.8e-3)

        # Envelope prediction.
        model = EnvelopeModel(tank, limiter)
        a_envelope = model.steady_state()

        # MNA transient of the identical circuit.
        circuit = Circuit("xval")
        circuit.inductor("L", "a", "m", tank.inductance, ic=1e-4)
        circuit.resistor("Rs", "m", "b", tank.series_resistance)
        circuit.capacitor("Ca", "a", "0", tank.capacitance, ic=0.0)
        circuit.capacitor("Cb", "b", "0", tank.capacitance, ic=0.0)
        circuit.nonlinear_vccs("G", "a", "b", "a", "b", lambda v: -limiter(v))
        period = 1.0 / tank.frequency
        res = run_transient(
            circuit,
            TransientOptions(
                t_stop=160 * period,
                dt=period / 60,
                use_dc_operating_point=False,
            ),
        )
        diff = res.differential("a", "b")
        tail = diff.window(120 * period, 160 * period)
        a_mna = 0.5 * tail.peak_to_peak()
        f_mna = oscillation_frequency(tail)

        assert a_mna == pytest.approx(a_envelope, rel=0.05)
        assert f_mna == pytest.approx(tank.frequency, rel=0.01)

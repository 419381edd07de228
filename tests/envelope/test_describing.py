"""Tests of the describing-function machinery (k-factor, I1, Gm_eff)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envelope import (
    HardLimiter,
    K_SQUARE_WAVE,
    LimiterCharacteristic,
    TanhLimiter,
    delivered_power,
    effective_gm,
    fundamental_current,
    k_factor,
    mean_abs_current,
)
from repro.envelope import describing
from repro.errors import ConfigurationError


class TestLimiterBasics:
    def test_hard_limiter_shape(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-4)
        assert lim(0.05) == pytest.approx(5e-5)
        assert lim(10.0) == pytest.approx(1e-4)
        assert lim(-10.0) == pytest.approx(-1e-4)
        assert lim.corner_voltage == pytest.approx(0.1)

    def test_tanh_limiter_asymptotes(self):
        lim = TanhLimiter(gm=1e-3, i_max=1e-4)
        assert lim(100.0) == pytest.approx(1e-4, rel=1e-6)
        # small-signal slope = gm
        assert lim(1e-6) / 1e-6 == pytest.approx(1e-3, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HardLimiter(gm=0.0, i_max=1.0)
        with pytest.raises(ConfigurationError):
            HardLimiter(gm=1.0, i_max=-1.0)


class TestFundamental:
    def test_linear_region(self):
        lim = HardLimiter(gm=2e-3, i_max=1.0)
        assert fundamental_current(lim, 0.5) == pytest.approx(1e-3, rel=1e-9)

    def test_square_wave_limit(self):
        lim = HardLimiter(gm=1.0, i_max=1e-3)
        # A >> corner: I1 -> 4 IM / pi
        assert fundamental_current(lim, 1000 * lim.corner_voltage) == pytest.approx(
            4e-3 / math.pi, rel=1e-4
        )

    def test_analytic_matches_quadrature(self):
        """The closed form must agree with brute-force integration."""
        lim = HardLimiter(gm=5e-3, i_max=1e-3)
        for amp in (0.05, 0.2, 0.5, 2.0, 20.0):
            analytic = lim.fundamental(amp)
            quad = super(HardLimiter, lim).fundamental(amp, n=8192)
            assert analytic == pytest.approx(quad, rel=1e-5)

    def test_zero_amplitude(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-3)
        assert fundamental_current(lim, 0.0) == 0.0

    def test_negative_amplitude_rejected(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-3)
        with pytest.raises(ConfigurationError):
            fundamental_current(lim, -1.0)


class TestMeanAbs:
    def test_linear_region(self):
        lim = HardLimiter(gm=2e-3, i_max=1.0)
        # mean |gm A sin| = (2/pi) gm A
        assert mean_abs_current(lim, 0.5) == pytest.approx(
            2 / math.pi * 1e-3, rel=1e-9
        )

    def test_square_limit(self):
        lim = HardLimiter(gm=1.0, i_max=1e-3)
        assert mean_abs_current(lim, 1000 * lim.corner_voltage) == pytest.approx(
            1e-3, rel=1e-3
        )

    def test_analytic_matches_quadrature(self):
        lim = HardLimiter(gm=5e-3, i_max=1e-3)
        for amp in (0.1, 0.3, 1.0, 10.0):
            analytic = lim.mean_abs(amp)
            quad = super(HardLimiter, lim).mean_abs(amp, n=8192)
            assert analytic == pytest.approx(quad, rel=1e-4)


class TestKFactor:
    def test_paper_value_deep_limiting(self):
        """k ≈ 0.9 for the hard-limited driver (paper Eq 3/4)."""
        lim = HardLimiter(gm=10e-3, i_max=1e-3)
        k = k_factor(lim, 200 * lim.corner_voltage)
        assert k == pytest.approx(K_SQUARE_WAVE, rel=1e-3)
        assert k == pytest.approx(0.90, abs=0.01)

    def test_k_square_wave_constant(self):
        assert K_SQUARE_WAVE == pytest.approx(2 * math.sqrt(2) / math.pi)

    def test_tanh_close_to_hard(self):
        hard = HardLimiter(gm=10e-3, i_max=1e-3)
        soft = TanhLimiter(gm=10e-3, i_max=1e-3)
        a = 50 * hard.corner_voltage
        assert k_factor(soft, a) == pytest.approx(k_factor(hard, a), rel=0.05)

    def test_requires_positive_amplitude(self):
        lim = HardLimiter(gm=1e-3, i_max=1e-3)
        with pytest.raises(ConfigurationError):
            k_factor(lim, 0.0)


class TestEffectiveGm:
    def test_small_signal_equals_gm(self):
        lim = HardLimiter(gm=3e-3, i_max=1.0)
        assert effective_gm(lim, 1e-6) == pytest.approx(3e-3, rel=1e-6)

    def test_falls_with_amplitude(self):
        lim = HardLimiter(gm=3e-3, i_max=1e-3)
        gms = [effective_gm(lim, a) for a in (0.1, 1.0, 10.0, 100.0)]
        assert all(g1 >= g2 for g1, g2 in zip(gms, gms[1:]))

    def test_inverse_amplitude_rolloff(self):
        lim = HardLimiter(gm=3e-3, i_max=1e-3)
        g10 = effective_gm(lim, 10.0)
        g100 = effective_gm(lim, 100.0)
        assert g10 / g100 == pytest.approx(10.0, rel=1e-2)


class TestDeliveredPower:
    def test_power_is_half_a_i1(self):
        lim = HardLimiter(gm=5e-3, i_max=1e-3)
        a = 3.0
        assert delivered_power(lim, a) == pytest.approx(
            0.5 * a * fundamental_current(lim, a), rel=1e-9
        )


@settings(max_examples=50)
@given(
    gm=st.floats(1e-4, 1e-1),
    i_max=st.floats(1e-5, 1e-1),
    amp=st.floats(1e-3, 100.0),
)
def test_property_fundamental_bounds(gm, i_max, amp):
    """0 <= I1 <= min(gm*A, 4 IM/pi): linear cap and square-wave cap."""
    lim = HardLimiter(gm=gm, i_max=i_max)
    i1 = fundamental_current(lim, amp)
    assert i1 >= 0.0
    assert i1 <= gm * amp * (1 + 1e-9)
    assert i1 <= 4 * i_max / math.pi * (1 + 1e-9)


@settings(max_examples=50)
@given(
    gm=st.floats(1e-4, 1e-1),
    i_max=st.floats(1e-5, 1e-1),
    amp=st.floats(1e-3, 100.0),
)
def test_property_tanh_fundamental_bounds(gm, i_max, amp):
    """0 <= I1 <= min(gm*A, 4 IM/pi) holds for the tanh table too."""
    lim = TanhLimiter(gm=gm, i_max=i_max)
    i1 = fundamental_current(lim, amp)
    assert i1 >= 0.0
    assert i1 <= gm * amp * (1 + 1e-9)
    assert i1 <= 4 * i_max / math.pi * (1 + 1e-9)


def _quadrature(lim, amp, n=2048):
    """The base-class quadrature of ``lim``'s fundamental."""
    return LimiterCharacteristic.fundamental(lim, amp, n=n)


class TestTanhTable:
    """The shared table of g(c) = I1/IM behind ``TanhLimiter.fundamental``."""

    UNIT = TanhLimiter(gm=1.0, i_max=1.0)  # I1(A) = g(A)

    def test_matches_converged_quadrature_over_all_branches(self):
        # c in [1e-6, 1e3] covers the small-c series, both table ends
        # and the large-c asymptotic series.  The reference uses 2**16
        # points: at c = 1e3 even n = 8192 is off by 2.5e-11.
        lim = TanhLimiter(gm=6e-3, i_max=2e-3)
        for c in np.geomspace(1e-6, 1e3, 181):
            amp = c * lim.i_max / lim.gm
            ref = _quadrature(lim, amp, n=1 << 16)
            assert lim.fundamental(amp) == pytest.approx(ref, rel=1e-11, abs=0.0)

    def test_midpoint_error_bound(self):
        """Checked error bound: <= 1e-12 of the n=2048 quadrature at
        every interval midpoint, where a cubic Hermite error peaks."""
        u0 = math.log(describing._TANH_SERIES_MAX)
        du = (math.log(describing._TANH_ASYMPTOTIC_MIN) - u0) / (
            describing._TANH_NODES - 1
        )
        mids = np.exp(u0 + du * (np.arange(describing._TANH_NODES - 1) + 0.5))
        table = np.array([self.UNIT.fundamental(c) for c in mids])
        quadrature = np.array([_quadrature(self.UNIT, c) for c in mids])
        assert np.max(np.abs(table - quadrature) / quadrature) <= 1e-12

    def test_ignores_n(self):
        for c in (1e-4, 0.5, 3.0, 100.0):
            assert self.UNIT.fundamental(c, n=64) == self.UNIT.fundamental(c)

    def test_monotone(self):
        c = np.geomspace(1e-6, 1e3, 20001)
        i1 = np.array([self.UNIT.fundamental(x) for x in c])
        assert np.all(np.diff(i1) > 0)
        assert i1[-1] < 4.0 / math.pi

    @pytest.mark.parametrize(
        "gm,i_max", [(6e-3, 2e-3), (1e-4, 1e-1), (0.1, 1e-5), (2.5, 3.0)]
    )
    def test_scaling(self, gm, i_max):
        """One table serves every limiter: I1(A) = IM g(gm A / IM)."""
        lim = TanhLimiter(gm=gm, i_max=i_max)
        for c in (3e-4, 0.02, 1.0, 7.5, 63.0, 500.0):
            amp = c * i_max / gm
            assert lim.fundamental(amp) == i_max * describing._tanh_fundamental(
                gm * amp / i_max
            )
            assert lim.fundamental(amp) == pytest.approx(
                i_max * self.UNIT.fundamental(c), rel=1e-13
            )


class TestQuadratureGrid:
    @pytest.mark.parametrize(
        "amp,n", [(0.01, 2048), (0.37, 2048), (2.0, 512), (25.0, 8192), (1.0, 7)]
    )
    def test_cached_grid_is_bit_identical(self, amp, n):
        lim = TanhLimiter(gm=5e-3, i_max=1e-3)
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        s = np.sin(theta)
        i1 = float(np.sum(lim.sample(amp * s) * s) * (2.0 * np.pi / n) / np.pi)
        mean_abs = float(np.mean(np.abs(lim.sample(amp * s))))
        assert _quadrature(lim, amp, n) == i1
        assert lim.mean_abs(amp, n=n) == mean_abs

    def test_grid_is_read_only(self):
        with pytest.raises(ValueError):
            describing._quadrature_sin(2048)[0] = 1.0


class TestNonFiniteAmplitude:
    ENTRY_POINTS = {
        "fundamental": lambda lim, a: lim.fundamental(a),
        "mean_abs": lambda lim, a: lim.mean_abs(a),
        "quadrature_fundamental": lambda lim, a: _quadrature(lim, a),
        "quadrature_mean_abs": lambda lim, a: LimiterCharacteristic.mean_abs(lim, a),
        "fundamental_current": fundamental_current,
        "mean_abs_current": mean_abs_current,
        "effective_gm": effective_gm,
        "delivered_power": delivered_power,
        "k_factor": k_factor,
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("limiter", [HardLimiter, TanhLimiter])
    def test_rejected(self, limiter, entry, bad):
        lim = limiter(gm=5e-3, i_max=1e-3)
        with pytest.raises(ConfigurationError):
            self.ENTRY_POINTS[entry](lim, bad)

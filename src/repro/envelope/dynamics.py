"""Averaged (envelope) dynamics of the driven LC oscillator.

Energy-balance averaging over one carrier cycle gives the amplitude
ODE::

    dA/dt = (I1(A) - A / Rp) / (2 C_diff)

where ``A`` is the peak differential tank voltage, ``I1`` the in-phase
fundamental of the limited driver current, ``Rp`` the tank's parallel
loss resistance, and ``C_diff = C/2`` the differential capacitance.
This reduces the 2–5 MHz problem to the millisecond time scale of the
regulation loop, and is cross-validated against the full MNA transient
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ..analysis.waveform import Waveform
from ..errors import ConfigurationError, SimulationError
from .describing import LimiterCharacteristic, fundamental_current
from .tank import RLCTank

__all__ = ["EnvelopeModel", "steady_state_amplitude", "small_signal_growth_rate"]

#: Default seed amplitude representing thermal noise / kick at enable.
DEFAULT_SEED_AMPLITUDE = 1e-4


def small_signal_growth_rate(tank: RLCTank, gm: float) -> float:
    """Exponential growth (or decay) rate of a small amplitude.

    ``A(t) = A0 * exp(lambda t)`` with
    ``lambda = (gm - 1/Rp) / (2 C_diff)``.  Positive iff the lumped
    differential transconductance exceeds the critical value ``1/Rp``.
    """
    if gm <= 0:
        raise ConfigurationError("gm must be positive")
    return (gm - 1.0 / tank.parallel_resistance) / (2.0 * tank.differential_capacitance)


def steady_state_amplitude(
    tank: RLCTank,
    limiter: LimiterCharacteristic,
    bracket_scale: float = 1e3,
) -> float:
    """Steady-state peak amplitude: solve ``I1(A) = A / Rp``.

    Returns 0 if the oscillation condition is not met (gm below
    critical).  For a hard limiter deep in limiting the result
    approaches ``(4/pi) Rp IM``, i.e. an RMS value of
    ``k * Rp * IM`` with ``k = 2 sqrt(2)/pi`` (the paper's Eq 4).
    """
    rp = tank.parallel_resistance
    if limiter.gm <= 1.0 / rp:
        return 0.0

    def balance(a: float) -> float:
        return fundamental_current(limiter, a) - a / rp

    a_low = limiter.corner_voltage * 1e-6
    a_high = max((4.0 / math.pi) * rp * limiter.i_max * 2.0, limiter.corner_voltage * bracket_scale)
    f_high = balance(a_high)
    # Expand the bracket if needed (very low-Q tanks).
    expansions = 0
    while f_high > 0 and expansions < 60:
        a_high *= 2.0
        f_high = balance(a_high)
        expansions += 1
    if f_high > 0:
        raise SimulationError("could not bracket the steady-state amplitude")
    return float(brentq(balance, a_low, a_high, xtol=1e-12, rtol=1e-10))


@dataclass
class EnvelopeModel:
    """Averaged amplitude dynamics of the driven tank.

    Parameters
    ----------
    tank:
        The external RLC network.
    limiter:
        Driver I–V characteristic (gm and current limit IM).
    seed_amplitude:
        Initial amplitude used when starting "from noise".
    """

    tank: RLCTank
    limiter: LimiterCharacteristic
    seed_amplitude: float = DEFAULT_SEED_AMPLITUDE

    def __post_init__(self) -> None:
        if self.seed_amplitude <= 0:
            raise ConfigurationError("seed_amplitude must be positive")

    # -- single-rate API -------------------------------------------------------

    def derivative(self, amplitude: float) -> float:
        """dA/dt at the given peak amplitude."""
        a = max(amplitude, 0.0)
        i1 = fundamental_current(self.limiter, a)
        rp = self.tank.parallel_resistance
        return (i1 - a / rp) / (2.0 * self.tank.differential_capacitance)

    def steady_state(self) -> float:
        """Steady-state peak amplitude (0 if it cannot oscillate)."""
        return steady_state_amplitude(self.tank, self.limiter)

    def advance(
        self,
        a0: float,
        duration: float,
        max_step: Optional[float] = None,
    ) -> float:
        """Amplitude after ``duration`` starting from ``a0``.

        Deterministic fixed-step RK4 on the scalar envelope ODE — the
        cycle-skipping transient engine calls this once per skip, so
        it must be cheap and bit-reproducible (no adaptive solver
        heuristics).  ``max_step`` caps the RK4 substep; the default
        resolves the interval with 64 substeps.  With the tabulated
        tanh fundamental (and the hard limiter's closed form) each
        derivative is a few microseconds, so the cost is the RK4 loop
        itself.  A non-finite ``a0`` or ``duration`` raises
        :class:`~repro.errors.SimulationError`.
        """
        if not (math.isfinite(a0) and math.isfinite(duration)):
            raise SimulationError(
                f"envelope advance needs a finite amplitude and duration, "
                f"got a0={a0}, duration={duration}"
            )
        if duration <= 0:
            return max(float(a0), 0.0)
        n = 64
        if max_step is not None and max_step > 0:
            n = max(n, int(math.ceil(duration / max_step)))
        h = duration / n
        a = max(float(a0), 0.0)
        for _ in range(n):
            k1 = self.derivative(a)
            k2 = self.derivative(a + 0.5 * h * k1)
            k3 = self.derivative(a + 0.5 * h * k2)
            k4 = self.derivative(a + h * k3)
            a = max(a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
        return a

    def simulate(
        self,
        t_stop: float,
        a0: Optional[float] = None,
        max_step: Optional[float] = None,
        n_points: int = 500,
    ) -> Waveform:
        """Integrate the envelope ODE from ``a0`` (default: seed) to t_stop."""
        if t_stop <= 0:
            raise SimulationError("t_stop must be positive")
        start = self.seed_amplitude if a0 is None else float(a0)
        if start < 0:
            raise SimulationError("initial amplitude must be non-negative")

        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            return np.array([self.derivative(float(y[0]))])

        t_eval = np.linspace(0.0, t_stop, n_points)
        solution = solve_ivp(
            rhs,
            (0.0, t_stop),
            [start],
            t_eval=t_eval,
            max_step=max_step if max_step is not None else t_stop / 50.0,
            rtol=1e-7,
            atol=1e-12,
        )
        if not solution.success:
            raise SimulationError(f"envelope integration failed: {solution.message}")
        return Waveform(solution.t, np.maximum(solution.y[0], 0.0), name="envelope")

    def startup_time(self, fraction: float = 0.9, a0: Optional[float] = None) -> float:
        """Time to reach ``fraction`` of the steady-state amplitude."""
        if not 0 < fraction < 1:
            raise SimulationError("fraction must be in (0, 1)")
        target_amp = fraction * self.steady_state()
        if target_amp <= 0:
            raise SimulationError("oscillator does not start (gm below critical)")
        # Estimate the horizon from the small-signal growth rate.
        rate = small_signal_growth_rate(self.tank, self.limiter.gm)
        start = self.seed_amplitude if a0 is None else a0
        if rate <= 0:
            raise SimulationError("oscillator does not start (gm below critical)")
        horizon = 5.0 * (math.log(max(target_amp / start, 2.0)) / rate + self.tank.ring_down_tau())
        wave = self.simulate(horizon, a0=a0, n_points=2000)
        above = np.where(wave.y >= target_amp)[0]
        if above.size == 0:
            raise SimulationError("startup did not reach the target within the horizon")
        idx = int(above[0])
        if idx == 0:
            return 0.0
        # Linear interpolation for sub-sample accuracy.
        t0, t1 = wave.t[idx - 1], wave.t[idx]
        y0, y1 = wave.y[idx - 1], wave.y[idx]
        return float(t0 + (target_amp - y0) / (y1 - y0) * (t1 - t0))

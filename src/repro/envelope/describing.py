"""Describing-function analysis of saturating driver characteristics.

The paper regulates amplitude by limiting the driver output current at
``±IM`` (Fig 2).  For a sinusoidal tank voltage ``v(t) = A sin(w t)``
the driver delivers a distorted current whose *fundamental, in-phase*
component is what sustains the oscillation; harmonics are filtered by
the high-Q tank.  This module computes:

* ``fundamental_current(A)`` — in-phase fundamental amplitude ``I1``,
* ``effective_gm(A) = I1 / A`` — the large-signal transconductance,
* ``k_factor(A)`` — the paper's ``k`` (Eq 3/4), defined through
  ``P_delivered = k * V_rms * IM``; for a fully-limited (square)
  current ``k = 2 sqrt(2) / pi ≈ 0.90``, matching the paper's
  "k ≈ 0.9 for linear approximation",
* ``mean_abs_current(A)`` — cycle-average of |i|, the dominant term of
  the driver supply-current model (§9).

:class:`HardLimiter` (the paper's Fig 2 characteristic) has closed
forms for all of these, which keeps the millisecond-scale regulation
simulation fast.

:class:`TanhLimiter`'s fundamental is ``I1(A) = IM * g(c)`` with
``c = gm A / IM`` and ``g(c) = (1/pi) ∮ tanh(c sin θ) sin θ dθ``, so one
process-wide table of ``g`` serves every tanh limiter whatever its gm
and IM.  ``g`` is evaluated as

* the odd series ``c - c³/4 + c⁵/12`` for ``c < 1e-3`` (truncation
  error below 1e-18 relative),
* a cubic Hermite interpolant on 4,096 nodes uniform in ``ln c`` for
  ``1e-3 <= c < 64``, built lazily on first use (tens of ms) from the
  2,048-point quadrature of ``g`` and of its exact slope
  ``g'(c) = (1/pi) ∮ sech²(c sin θ) sin²θ dθ``; its worst error against
  that quadrature, at the interval midpoints, is about 3e-13 relative
  (the test suite checks it stays below 1e-12),
* the large-``c`` asymptotic series
  ``(4/pi)(1 - h²/24 - 7h⁴/1920 - 31h⁶/21504 - 127h⁸/98304 -
  17885h¹⁰/8650752)``, ``h = pi/c``, for ``c >= 64``, exact to
  rounding there (a 2,048-point quadrature would be off by 2e-9 at
  ``c = 300`` and 4e-7 at ``c = 1000``: the tanh edge outgrows the
  grid).

So ``TanhLimiter.fundamental`` ignores its ``n`` argument, as
:class:`HardLimiter`'s closed forms do.  Other characteristics, and
every ``mean_abs`` but the hard limiter's, use quadrature on a cached
``sin θ`` grid.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "LimiterCharacteristic",
    "HardLimiter",
    "TanhLimiter",
    "hard_limiter_pair",
    "tanh_limiter_pair",
    "K_SQUARE_WAVE",
    "fundamental_current",
    "effective_gm",
    "k_factor",
    "delivered_power",
    "mean_abs_current",
]

#: k for a perfectly square (hard-limited) driver current, ``2*sqrt(2)/pi``.
K_SQUARE_WAVE = 2.0 * math.sqrt(2.0) / math.pi


def _check_amplitude(amplitude: float) -> float:
    """``amplitude`` as a float; rejects negative and non-finite values."""
    a = float(amplitude)
    if not math.isfinite(a):
        raise ConfigurationError(f"amplitude must be finite, got {a}")
    if a < 0:
        raise ConfigurationError("amplitude must be non-negative")
    return a


@functools.lru_cache(maxsize=8)
def _quadrature_sin(n: int) -> np.ndarray:
    """Read-only ``sin θ`` on the ``n``-point periodic quadrature grid."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    s = np.sin(theta)
    s.setflags(write=False)
    return s


@dataclass(frozen=True)
class LimiterCharacteristic:
    """Base class: a memoryless driver I–V characteristic ``i = f(v)``.

    Attributes
    ----------
    gm:
        Small-signal transconductance around v = 0.
    i_max:
        Output current limit ``IM`` (the regulated quantity).
    """

    gm: float
    i_max: float

    def __post_init__(self) -> None:
        if self.gm <= 0:
            raise ConfigurationError("gm must be positive")
        if self.i_max <= 0:
            raise ConfigurationError("i_max must be positive")

    @property
    def corner_voltage(self) -> float:
        """Voltage at which the linear region meets the limit."""
        return self.i_max / self.gm

    def __call__(self, v: float) -> float:
        raise NotImplementedError

    def value_and_slope(self, v: float) -> "tuple[float, float]":
        """``(i(v), di/dv)`` in one evaluation.

        Subclasses with a closed-form derivative override this; the
        MNA transient engine uses it to linearize the driver with a
        single characteristic evaluation per Newton iterate instead of
        three finite-difference ones.
        """
        raise NotImplementedError

    def sample(self, v: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (default: loop over scalars)."""
        return np.asarray([self(float(x)) for x in np.asarray(v).ravel()])

    def vector_pair_spec(self):
        """Batchable characteristic family, or ``None``.

        Returns ``(family, params)`` where ``family(v, *params)`` is a
        module-level callable evaluating ``(i, di/dv)`` elementwise on
        numpy arrays — the contract of ``NonlinearVCCS.vector_pair``.
        Two limiters of the same family differ only in ``params``, so
        the batched transient engine can stack many Monte-Carlo
        instances of a driver and linearize them in one call.  The
        base class has no closed-form slope, hence no family.
        """
        return None

    # -- describing-function quantities (quadrature defaults) ----------------

    def fundamental(self, amplitude: float, n: int = 2048) -> float:
        """In-phase fundamental amplitude ``I1(A)`` (quadrature)."""
        amplitude = _check_amplitude(amplitude)
        if amplitude == 0.0:
            return 0.0
        s = _quadrature_sin(n)
        i = self.sample(amplitude * s)
        dtheta = 2.0 * np.pi / n
        return float(np.sum(i * s) * dtheta / np.pi)

    def mean_abs(self, amplitude: float, n: int = 2048) -> float:
        """Cycle-average of |i(A sin θ)| (quadrature)."""
        amplitude = _check_amplitude(amplitude)
        if amplitude == 0.0:
            return 0.0
        i = self.sample(amplitude * _quadrature_sin(n))
        return float(np.mean(np.abs(i)))


def hard_limiter_pair(v, gm, i_max):
    """Elementwise ``(i, di/dv)`` of a hard limiter (batchable family).

    Matches :meth:`HardLimiter.value_and_slope` bit for bit on scalars
    (same strict-inequality clipping convention).
    """
    i_lin = gm * np.asarray(v, dtype=float)
    limited = (i_lin > i_max) | (i_lin < -i_max)
    i = np.clip(i_lin, -i_max, i_max)
    slope = np.where(limited, 0.0, gm)
    return i, slope


def tanh_limiter_pair(v, gm, i_max):
    """Elementwise ``(i, di/dv)`` of a tanh limiter (batchable family)."""
    t = np.tanh(gm * np.asarray(v, dtype=float) / i_max)
    return i_max * t, gm * (1.0 - t * t)


class HardLimiter(LimiterCharacteristic):
    """Piece-wise-linear limiter of Fig 2: linear slope gm clipped at ±IM.

    ``fundamental`` and ``mean_abs`` use the classic clipped-sine
    closed forms (exact, fast).
    """

    def __call__(self, v: float) -> float:
        return float(np.clip(self.gm * v, -self.i_max, self.i_max))

    def value_and_slope(self, v: float) -> "tuple[float, float]":
        i = self.gm * v
        if i > self.i_max:
            return self.i_max, 0.0
        if i < -self.i_max:
            return -self.i_max, 0.0
        return i, self.gm

    def sample(self, v: np.ndarray) -> np.ndarray:
        return np.clip(self.gm * np.asarray(v, dtype=float), -self.i_max, self.i_max)

    def vector_pair_spec(self):
        return hard_limiter_pair, (self.gm, self.i_max)

    def fundamental(self, amplitude: float, n: int = 2048) -> float:
        amplitude = _check_amplitude(amplitude)
        if amplitude == 0.0:
            return 0.0
        v0 = self.corner_voltage
        if amplitude <= v0:
            return self.gm * amplitude
        theta_c = math.asin(v0 / amplitude)
        return (4.0 / math.pi) * (
            self.gm * amplitude * (0.5 * theta_c - 0.25 * math.sin(2.0 * theta_c))
            + self.i_max * math.cos(theta_c)
        )

    def mean_abs(self, amplitude: float, n: int = 2048) -> float:
        amplitude = _check_amplitude(amplitude)
        if amplitude == 0.0:
            return 0.0
        v0 = self.corner_voltage
        if amplitude <= v0:
            return (2.0 / math.pi) * self.gm * amplitude
        theta_c = math.asin(v0 / amplitude)
        return (2.0 / math.pi) * (
            self.gm * amplitude * (1.0 - math.cos(theta_c))
            + self.i_max * (0.5 * math.pi - theta_c)
        )


#: Range and size of the tanh describing-function table (see module doc).
_TANH_SERIES_MAX = 1e-3
_TANH_ASYMPTOTIC_MIN = 64.0
_TANH_NODES = 4096
#: Quadrature points behind the table, and table rows built per chunk.
_TANH_QUADRATURE_N = 2048
_TANH_BUILD_ROWS = 16
#: ``-(4/pi) B_2j(1/2) F^(2j-1)(0) / (2j)!`` for ``F(b) = 1 - b/sqrt(1+b²)``
#: (and ``4/pi`` for j = 0): the Euler-Maclaurin expansion, in powers of
#: ``h² = (pi/c)²``, of ``g(c) = (4/c) sum_k F((k-1/2) pi/c)``, which is
#: ``g`` integrated term by term over the partial fractions of tanh.
_TANH_ASYMPTOTIC = tuple(
    (4.0 / math.pi) * k
    for k in (1.0, -1 / 24, -7 / 1920, -31 / 21504, -127 / 98304, -17885 / 8650752)
)


@functools.lru_cache(maxsize=1)
def _tanh_table() -> "tuple[float, float, array]":
    """``(ln c_0, 1/du, coefficients)`` of the Hermite table of ``g``.

    Interval ``i`` is the cubic ``a0 + t (a1 + t (a2 + t a3))`` in
    ``t = (ln c - ln c_i) / du``, with its four coefficients at
    ``4i .. 4i+3``: it matches ``g`` and ``dg/d(ln c)`` at both nodes.
    Rows are built ``_TANH_BUILD_ROWS`` at a time to keep the
    quadrature temporaries small.
    """
    n = _TANH_QUADRATURE_N
    s = _quadrature_sin(n)
    s2 = s * s
    weight = 2.0 / n
    u0 = math.log(_TANH_SERIES_MAX)
    du = (math.log(_TANH_ASYMPTOTIC_MIN) - u0) / (_TANH_NODES - 1)
    c = np.exp(u0 + du * np.arange(_TANH_NODES))
    g = np.empty(_TANH_NODES)
    slope = np.empty(_TANH_NODES)
    for k in range(0, _TANH_NODES, _TANH_BUILD_ROWS):
        rows = slice(k, k + _TANH_BUILD_ROWS)
        t = np.tanh(np.multiply.outer(c[rows], s))
        g[rows] = np.sum(t * s, axis=1) * weight
        np.multiply(t, t, out=t)
        np.subtract(1.0, t, out=t)
        # dg/d(ln c) * du = c g'(c) du: the slope in units of t.
        slope[rows] = np.sum(t * s2, axis=1) * weight * c[rows] * du
    g0, g1 = g[:-1], g[1:]
    d0, d1 = slope[:-1], slope[1:]
    coefficients = np.stack(
        [g0, d0, 3.0 * (g1 - g0) - 2.0 * d0 - d1, 2.0 * (g0 - g1) + d0 + d1],
        axis=1,
    )
    return u0, 1.0 / du, array("d", coefficients.ravel())


def _tanh_fundamental(c: float) -> float:
    """``g(c) = (1/pi) ∮ tanh(c sin θ) sin θ dθ`` for ``c >= 0``."""
    if c < _TANH_SERIES_MAX:
        c2 = c * c
        return c * (1.0 - c2 * (0.25 - c2 / 12.0))
    if c >= _TANH_ASYMPTOTIC_MIN:
        h2 = (math.pi / c) ** 2
        k0, k1, k2, k3, k4, k5 = _TANH_ASYMPTOTIC
        return k0 + h2 * (k1 + h2 * (k2 + h2 * (k3 + h2 * (k4 + h2 * k5))))
    u0, inv_du, coefficients = _tanh_table()
    x = (math.log(c) - u0) * inv_du
    i = int(x)
    if i > _TANH_NODES - 2:  # c just below 64 may round onto the last node
        i = _TANH_NODES - 2
    t = x - i
    j = 4 * i
    return coefficients[j] + t * (
        coefficients[j + 1] + t * (coefficients[j + 2] + t * coefficients[j + 3])
    )


class TanhLimiter(LimiterCharacteristic):
    """Smooth limiter ``IM * tanh(gm v / IM)`` (differential-pair-like).

    Used for transient simulation where a C1-continuous characteristic
    improves Newton convergence; its describing function is within a
    few percent of the hard limiter once well into limiting.

    ``fundamental`` reads the shared table of ``I1/IM`` as a function
    of ``c = gm A / IM`` (module doc): within about 3e-13 relative of
    the 2,048-point quadrature for ``1e-3 <= c < 64``, and exact to
    rounding below (odd series) and above (asymptotic series) that
    range, so it ignores ``n``.  ``mean_abs`` is quadrature.
    """

    def __call__(self, v: float) -> float:
        return float(self.i_max * math.tanh(self.gm * v / self.i_max))

    def value_and_slope(self, v: float) -> "tuple[float, float]":
        t = math.tanh(self.gm * v / self.i_max)
        return self.i_max * t, self.gm * (1.0 - t * t)

    def sample(self, v: np.ndarray) -> np.ndarray:
        return self.i_max * np.tanh(self.gm * np.asarray(v, dtype=float) / self.i_max)

    def vector_pair_spec(self):
        return tanh_limiter_pair, (self.gm, self.i_max)

    def fundamental(self, amplitude: float, n: int = 2048) -> float:
        amplitude = _check_amplitude(amplitude)
        if amplitude == 0.0:
            return 0.0
        return self.i_max * _tanh_fundamental(self.gm * amplitude / self.i_max)


def fundamental_current(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """In-phase fundamental amplitude ``I1`` of the driver current.

    ``I1 = (1/pi) * ∫ f(A sin θ) sin θ dθ`` over one period.
    """
    return limiter.fundamental(amplitude, n=n)


def effective_gm(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """Large-signal transconductance ``Gm_eff(A) = I1(A)/A``.

    Tends to ``gm`` for small amplitudes and falls off as ``~1/A`` once
    limiting dominates — this is the mechanism that stabilizes the
    oscillation amplitude.
    """
    if math.isfinite(amplitude) and amplitude <= 0:
        return limiter.gm
    return limiter.fundamental(amplitude, n=n) / amplitude


def delivered_power(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """Average power delivered to the tank at peak amplitude ``A``.

    Only the in-phase fundamental delivers net power into a high-Q
    resonant load: ``P = A * I1 / 2``.
    """
    return 0.5 * amplitude * limiter.fundamental(amplitude, n=n)


def mean_abs_current(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """Cycle-average |i| — the driver's signal-path supply current."""
    return limiter.mean_abs(amplitude, n=n)


def k_factor(limiter: LimiterCharacteristic, amplitude: float, n: int = 2048) -> float:
    """The paper's ``k``: ``P_delivered = k * V_rms * IM`` (Eq 3).

    For a hard limiter deep in limiting this approaches
    :data:`K_SQUARE_WAVE` ≈ 0.9003.
    """
    if amplitude <= 0:
        raise ConfigurationError("k_factor needs a positive amplitude")
    v_rms = amplitude / math.sqrt(2.0)
    return delivered_power(limiter, amplitude, n=n) / (v_rms * limiter.i_max)

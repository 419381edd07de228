"""The benchmark's four workloads: one user job each, plus its check.

Every workload is a question a user asks the simulator about the
paper's LC-oscillator driver, sized so one job takes a fraction of a
second to a few seconds on a small host:

* ``startup`` — the Fig 16 carrier-resolved startup (per-sample
  engine, rank-1 Newton kernel);
* ``supply_loss`` — the §8 supply-loss corner, adaptive with a live
  trap -> Gear/BDF3 phase switch (step control, linear solves);
* ``mc_campaign`` — a mismatch Monte-Carlo campaign through the
  lockstep batched engine;
* ``envelope_campaign`` — a warm-started cycle-skipping campaign over
  drive-strength draws (describing-function predictor).

A job returns the small set of numbers a user reads off the run
(settled amplitude and frequency, per-sample amplitudes).  ``check``
compares them with a golden reference — a fine fixed-step
(160 points/cycle) carrier-resolved run, computed once per process and
never timed — and returns the worst relative amplitude error, or
raises :class:`CheckFailed`.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.analysis import oscillation_frequency
from repro.campaigns import BatchOptions, TransientMetricSpec, run_envelope_campaign
from repro.circuits import (
    EnvelopeOptions,
    PhaseSchedule,
    TransientOptions,
    run_transient,
    run_transient_batched,
)
from repro.core import OscillatorNetlist, supply_loss_tank_circuit
from repro.envelope import EnvelopeModel, RLCTank, TanhLimiter
from repro.mc import MismatchProfile, run_monte_carlo

#: Carrier of the Fig 16 bench tank; every workload's grid derives
#: from it.
F0 = 4e6
PERIOD = 1.0 / F0
TANK_Q = 15.0
INDUCTANCE = 1e-6
GM = 6e-3
I_MAX = 2e-3
#: Drive-strength draws sit uniformly within this share of ``I_MAX``.
I_MAX_SPREAD = 0.05

#: Carrier resolution of the jobs and of their golden references.
POINTS_PER_CYCLE = 40
GOLDEN_POINTS_PER_CYCLE = 160

#: A job's amplitude and frequency must sit within 1% of the golden.
ACCURACY = 0.01
#: The lockstep engine is pinned to the per-sample engine at this rtol.
LOCKSTEP_RTOL = 1e-9
#: Settled quantities are fitted over the last cycles of a run.
SETTLE_CYCLES = 10


class CheckFailed(Exception):
    """A job's output missed its correctness check."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``inputs(seed)`` generates the job's inputs (the only place the
    seed enters); ``job(inputs)`` is the timed user action;
    ``reference(inputs)`` is the untimed golden; ``check(output,
    reference)`` returns the worst relative amplitude error or raises
    :class:`CheckFailed`.  ``cycles_per_job`` counts the carrier
    cycles a job simulates, summed over its samples.
    """

    name: str
    cycles_per_job: int
    inputs: Callable[[int], object]
    job: Callable[[object], object]
    reference: Callable[[object], object]
    check: Callable[[object, object], float]


def tank(q: float = TANK_Q) -> RLCTank:
    return RLCTank.from_frequency_and_q(F0, q, INDUCTANCE)


def oscillator(q: float = TANK_Q, gm: float = GM, i_max: float = I_MAX):
    return OscillatorNetlist(tank(q), vref=2.5).build(TanhLimiter(gm=gm, i_max=i_max))


def fixed_options(cycles: int, points_per_cycle: int = POINTS_PER_CYCLE) -> TransientOptions:
    return TransientOptions(
        t_stop=cycles * PERIOD,
        dt=PERIOD / points_per_cycle,
        method="trap",
        use_dc_operating_point=False,
        record_nodes=("lc1", "lc2"),
    )


def fitted_tone(wave, frequency: Optional[float] = None) -> Tuple[float, float]:
    """``(amplitude, frequency)`` of a carrier by least-squares fit.

    Raw peak-to-peak under-reads a carrier sampled at 40 points per
    cycle by up to 0.3%, which would charge sampling density to the
    integrator; the sinusoid fit is exact at any density.  Without a
    known ``frequency`` the fit uses the measured zero-crossing one.
    """
    if frequency is None:
        frequency = oscillation_frequency(wave)
    phase = 2.0 * np.pi * frequency * wave.t
    basis = np.column_stack([np.sin(phase), np.cos(phase), np.ones_like(phase)])
    coef, *_ = np.linalg.lstsq(basis, wave.y, rcond=None)
    return float(np.hypot(coef[0], coef[1])), float(frequency)


def settled_tone(result, cycles: int) -> Tuple[float, float]:
    """Fitted tank carrier over the last ``SETTLE_CYCLES`` of a run."""
    wave = result.differential("lc1", "lc2").window(
        (cycles - SETTLE_CYCLES) * PERIOD, cycles * PERIOD
    )
    return fitted_tone(wave)


def relative_error(value, reference):
    return np.abs(np.asarray(value) / np.asarray(reference) - 1.0)


def check_tone(output: Tuple[float, float], reference: Tuple[float, float]) -> float:
    amp_err, freq_err = relative_error(output, reference)
    if not (amp_err <= ACCURACY and freq_err <= ACCURACY):
        raise CheckFailed(
            f"amplitude error {amp_err:.3%}, frequency error {freq_err:.3%} "
            f"(limit {ACCURACY:.0%})"
        )
    return float(amp_err)


def check_amplitudes(amplitudes: np.ndarray) -> None:
    if not (np.all(np.isfinite(amplitudes)) and np.all(amplitudes > 0)):
        raise CheckFailed("non-finite or non-positive amplitude in the campaign")


def startup(cycles: int = 400) -> Workload:
    """Fig 16 startup: per-sample fixed-step trap, no random inputs."""

    def job(_inputs):
        return settled_tone(run_transient(oscillator(), fixed_options(cycles)), cycles)

    def reference(_inputs):
        options = fixed_options(cycles, GOLDEN_POINTS_PER_CYCLE)
        return settled_tone(run_transient(oscillator(), options), cycles)

    return Workload("startup", cycles, lambda seed: None, job, reference, check_tone)


def supply_loss(cycles: int = 400) -> Workload:
    """§8 supply-loss corner: drive lost after a tenth of the run.

    Adaptive at ``lte_reltol`` 1e-6 under the trap-carrier then
    Gear/BDF3-settle phase schedule; there are no random inputs.  The
    check covers both phases: the pre-fault carrier (amplitude fitted
    at the drive frequency, which forces it), the ring-down amplitude
    fitted over cycles 4-9 after the fault, the whole post-fault
    waveform's deviation from the golden (relative to the carrier
    amplitude, since the tail decays to nothing), and exactly one live
    phase switch.
    """
    t_fault = (cycles // 10) * PERIOD
    options = TransientOptions(
        t_stop=cycles * PERIOD,
        dt=PERIOD / POINTS_PER_CYCLE,
        step_control="adaptive",
        use_dc_operating_point=False,
        dt_min=PERIOD / 81920,
        dt_max=8 * PERIOD,
        lte_reltol=1e-6,
        lte_abstol=1e-9,
        phases=PhaseSchedule.carrier_then_settle(
            t_fault,
            carrier_dt=PERIOD / POINTS_PER_CYCLE,
            settle_dt=PERIOD / 4,
            settle_method="gear",
            max_order=3,
        ),
    )
    golden = TransientOptions(
        t_stop=cycles * PERIOD,
        dt=PERIOD / GOLDEN_POINTS_PER_CYCLE,
        use_dc_operating_point=False,
    )

    def circuit():
        return supply_loss_tank_circuit(F0, t_fault, q=40.0, inductance=INDUCTANCE)

    def observe(result) -> Dict[str, object]:
        wave = result.differential("lc1", "lc2")
        carrier = wave.window(0.6 * t_fault, t_fault)
        ring_down = wave.window(t_fault + 4 * PERIOD, t_fault + 9 * PERIOD)
        return {
            "pre_fault": (fitted_tone(carrier, F0)[0], oscillation_frequency(carrier)),
            "ring_down": fitted_tone(ring_down)[0],
            "t": wave.t,
            "v": wave.y,
            "phase_switches": result.stats.get("phase_switches", 0),
        }

    def check(output, ref) -> float:
        if output["phase_switches"] != 1:
            raise CheckFailed(f"{output['phase_switches']} phase switches, expected 1")
        pre_err = check_tone(output["pre_fault"], ref["pre_fault"])
        ring_err = float(relative_error(output["ring_down"], ref["ring_down"]))
        if not ring_err <= ACCURACY:
            raise CheckFailed(f"ring-down amplitude error {ring_err:.3%}")
        after = output["t"] > t_fault
        golden_v = np.interp(output["t"][after], ref["t"], ref["v"])
        deviation = np.max(np.abs(output["v"][after] - golden_v)) / ref["pre_fault"][0]
        if not deviation <= ACCURACY:
            raise CheckFailed(f"post-fault waveform off by {deviation:.3%} of the carrier")
        return max(pre_err, ring_err)

    return Workload(
        "supply_loss",
        cycles,
        lambda seed: None,
        lambda _inputs: observe(run_transient(circuit(), options)),
        lambda _inputs: observe(run_transient(circuit(), golden)),
        check,
    )


def mc_campaign(
    samples: int = 256, cycles: int = 100, checked: int = 4, golden_draws: int = 32
) -> Workload:
    """Mismatch Monte-Carlo through ``run_monte_carlo``, lockstep.

    Draw ``i`` is ``MismatchProfile.sample_many(samples, base_seed=
    seed)`` row ``i``; its tank Q and driver gm carry the draw's
    prescaler and gm-stage errors.  ``checked`` draws, spread evenly
    over the campaign, are re-run through the per-sample engine and
    must agree at ``LOCKSTEP_RTOL``.  ``golden_draws`` evenly spread
    draws are re-run at golden resolution — in lockstep, which that
    agreement pins to the per-sample engine — so the worst error is
    taken over enough draws to be a property of the campaign rather
    than of the few draws checked.
    """
    options = fixed_options(cycles)
    golden = fixed_options(cycles, GOLDEN_POINTS_PER_CYCLE)

    def spread_indices(n: int) -> np.ndarray:
        return np.unique(np.linspace(0, samples - 1, n).round().astype(int))

    per_sample_indices = spread_indices(checked)
    golden_indices = spread_indices(golden_draws)

    def build(profile: MismatchProfile):
        return oscillator(
            q=TANK_Q * (1.0 + profile.prescale_errors[0]),
            gm=GM * (1.0 + profile.gm_stage_errors[0]),
        )

    def evaluate(_profile, result) -> float:
        return settled_tone(result, cycles)[0]

    spec = TransientMetricSpec("settled_amplitude", build, options, evaluate)
    batch = BatchOptions(batch_mode="vectorized")

    def job(seed: int) -> np.ndarray:
        return run_monte_carlo(spec, samples, base_seed=seed, batch=batch).values

    def reference(seed: int) -> Dict[str, np.ndarray]:
        profiles = MismatchProfile.sample_many(samples, base_seed=seed).profiles()
        fine = run_transient_batched([build(profiles[i]) for i in golden_indices], golden)
        return {
            "per_sample": np.array(
                [
                    evaluate(profiles[i], run_transient(build(profiles[i]), options))
                    for i in per_sample_indices
                ]
            ),
            "golden": np.array([evaluate(None, result) for result in fine]),
        }

    def check(values: np.ndarray, ref: Dict[str, np.ndarray]) -> float:
        check_amplitudes(values)
        subset = values[per_sample_indices]
        if not np.allclose(subset, ref["per_sample"], rtol=LOCKSTEP_RTOL, atol=0.0):
            raise CheckFailed("lockstep amplitudes differ from the per-sample engine")
        errors = relative_error(values[golden_indices], ref["golden"])
        if not np.all(errors <= ACCURACY):
            raise CheckFailed(f"amplitude error {errors.max():.3%} vs golden")
        return float(errors.max())

    return Workload("mc_campaign", samples * cycles, lambda seed: seed, job, reference, check)


def envelope_campaign(draws: int = 8, cycles: int = 400) -> Workload:
    """Warm-started cycle-skipping campaign over drive-strength draws.

    ``i_max`` is drawn uniformly within ``±I_MAX_SPREAD`` of 2 mA from
    ``np.random.default_rng(seed)``; the campaign chains warm starts
    along the nearest-neighbour order of the draws.  The weakest and
    strongest draws are checked against a carrier-resolved golden.
    """
    options = fixed_options(cycles)
    golden = fixed_options(cycles, GOLDEN_POINTS_PER_CYCLE)

    def envelope(i_max: float) -> EnvelopeOptions:
        model = EnvelopeModel(tank(), TanhLimiter(gm=GM, i_max=i_max))
        return EnvelopeOptions(period=PERIOD, nodes=("lc1", "lc2"), model=model)

    def build(i_max: float):
        return oscillator(i_max=i_max)

    def inputs(seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [float(v) for v in I_MAX * (1.0 + rng.uniform(-I_MAX_SPREAD, I_MAX_SPREAD, draws))]

    def job(i_maxes: list) -> Tuple[np.ndarray, np.ndarray]:
        results = run_envelope_campaign(i_maxes, build, options, envelope, params=i_maxes)
        stats = [r.stats["envelope"] for r in results]
        return (
            np.array([s["final"]["amplitude"] for s in stats]),
            np.array([s["total_cycles"] for s in stats]),
        )

    def reference(i_maxes: list) -> Dict[str, np.ndarray]:
        indices = sorted({int(np.argmin(i_maxes)), int(np.argmax(i_maxes))})
        return {
            "indices": np.array(indices),
            "golden": np.array(
                [
                    settled_tone(run_transient(build(i_maxes[i]), golden), cycles)[0]
                    for i in indices
                ]
            ),
        }

    def check(output, ref: Dict[str, np.ndarray]) -> float:
        amplitudes, totals = output
        check_amplitudes(amplitudes)
        if not np.all(totals == cycles):
            raise CheckFailed(f"a draw covered {totals.min()} of {cycles} cycles")
        errors = relative_error(amplitudes[ref["indices"]], ref["golden"])
        if not np.all(errors <= ACCURACY):
            raise CheckFailed(f"envelope amplitude error {errors.max():.3%} vs golden")
        return float(errors.max())

    return Workload("envelope_campaign", draws * cycles, inputs, job, reference, check)


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "startup": startup,
    "supply_loss": supply_loss,
    "mc_campaign": mc_campaign,
    "envelope_campaign": envelope_campaign,
}

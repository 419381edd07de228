"""Batched lockstep transient engine: one time loop for S netlists.

The paper's headline claims are statistical — mismatch Monte-Carlo
and corner campaigns over the startup / supply-loss scenarios — and a
campaign is the same small MNA system solved S times with slightly
different element values.  Running the per-sample engine S times pays
the whole Python interpreter cost S times: S time loops, S Newton
drivers, S companion-state updates per step, for systems with a dozen
unknowns where the arithmetic itself is nearly free.

This module stacks the campaign instead: the S per-sample systems
become arrays ``G_base[S, n, n]`` / ``rhs[S, n]`` and **one** lockstep
time loop advances every sample together,

* batched linear algebra — ``numpy.linalg.inv`` on the ``(S, n, n)``
  stack once per step size, then every step's solve is one batched
  mat-vec (the ``linear`` strategy's cached-LU path, S-wide);
* the rank-1 Sherman–Morrison and rank-k Woodbury Newton fast paths
  of the per-sample engine, vectorized across the sample axis, with a
  **per-sample convergence mask**: a converged sample's iterate is
  never written again while stragglers continue, so each sample does
  exactly its own iteration count.  The rank-1 kernel iterates full
  width — every row computes, masks decide what is written — because
  at 4 unknowns the gathers and scatters of a compacted working set
  cost more than the arithmetic they skip (10-cycle startup on a
  2-vCPU Xeon: ~2.4–2.8 µs per sample-step at S = 64, ~1.0–1.2 at
  S = 256, ~0.6–0.8 at S = 1,024, ~0.5–0.6 at S = 4,096); the
  rank-k kernel still compacts;
* vectorized companion-state updates: capacitor/inductor integrator
  state lives in ``(S, m)`` arrays and one gather/scatter advances
  all samples;
* device linearization across samples in one call when the nonlinear
  devices declare a *batchable characteristic family*
  (``NonlinearVCCS.vector_pair`` — e.g. every Monte-Carlo instance of
  the tanh driver differs only in its ``(gm, IM)`` parameters).

Lockstep requires a shared time grid: fixed mode uses the common
``t_k = k*dt`` grid, adaptive mode drives one
:class:`~repro.circuits.stepcontrol.StepController` by the
**worst-sample** LTE (every sample meets tolerance on every accepted
step; the grid is simply as fine as the most demanding sample needs).

The per-sample engine (:func:`~repro.circuits.transient.run_transient`)
stays the reference: :func:`run_transient_batched` mirrors its solve
formulas elementwise, and the equivalence tests pin the two paths to
each other at rtol 1e-9.  Netlists the lockstep engine cannot stack —
differing topologies, nonlinear devices other than
:class:`~repro.circuits.controlled.NonlinearVCCS`, chord/full Jacobian
modes — raise :class:`BatchIncompatible`, which the campaign layer
(:mod:`repro.campaigns.vectorized`) catches to fall back to the
per-sample path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConvergenceError, SimulationError
from .assembly import DtCache, _HistoryRing, _ReactiveSet
from .backend import BlockDiagLU, KrylovBackend, resolve_backend
from .component import MNASystem, Component, StampContext, StampPattern, TripletSystem
from .controlled import NonlinearVCCS
from .dcop import NewtonOptions, OperatingPoint, solve_dc
from .elements import Capacitor, Inductor
from .health import (
    CONDITION_LIMIT,
    HealthReport,
    check_grid_invariants,
    nonfinite_sample_rows,
)
from .integration import IntegrationMethod, resolve_method
from .linsolve import damp_voltage_delta, solve_dense
from .netlist import Circuit
from .preflight import apply_preflight
from .sources import CurrentSource, VoltageSource
from .stepcontrol import StepController, collect_breakpoints
from .transient import (
    TransientOptions,
    TransientResult,
    _fixed_record_count,
    _resolve_recording,
    _RunAbort,
    _RunBudget,
)

__all__ = [
    "BatchIncompatible",
    "BatchedTransientAssembly",
    "BatchedOperatingPoints",
    "probe_stiffness_ratios",
    "run_transient_batched",
    "solve_dc_batched",
]


class BatchIncompatible(SimulationError):
    """The netlists cannot be executed as one lockstep batch.

    Structural problems (topology mismatch, unsupported devices,
    non-``"auto"`` Jacobian) raise during batched-assembly
    construction, before any stepping; a singular stacked base matrix
    raises when its step size's entry is built — at construction for
    the initial step size, but an *adaptive* run that walks onto a new
    step size whose system is singular raises mid-run.  The campaign
    layer catches either case and falls back to the per-sample engine
    (discarding any partial lockstep work)."""


def _bsolve(inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched ``x = G^-1 rhs``: ``(S, n, n) @ (S, n) -> (S, n)``."""
    return np.matmul(inv, rhs[..., np.newaxis])[..., 0]


def _row_absmax(a: np.ndarray) -> np.ndarray:
    """Per-row ``max |a|`` of an ``(S, m)`` array; zeros when ``m == 0``.

    Exactly ``np.abs(a).max(axis=1)``, NaN propagation included, but
    reduced over the short axis of a transposed copy: numpy reduces a
    length-4 row several times slower than it takes the elementwise
    maximum of four length-S rows.
    """
    if a.shape[1] == 0:
        return np.zeros(a.shape[0])
    return np.abs(a.T.copy()).max(axis=0)


# -- lockstep compatibility ---------------------------------------------------


def _check_lockstep(circuits: Sequence[Circuit]) -> None:
    """Validate that all samples share one MNA structure.

    Lockstep stacking requires identical topology: same components
    (names, types, node wiring, branch numbering) and same unknown
    ordering.  Element *values* are free to differ per sample — that
    is the whole point.
    """
    first = circuits[0]
    for s, circuit in enumerate(circuits[1:], start=1):
        if circuit.component_names != first.component_names:
            raise BatchIncompatible(
                f"sample {s} has different components than sample 0"
            )
        if circuit.node_names != first.node_names or circuit.size != first.size:
            raise BatchIncompatible(
                f"sample {s} has a different node space than sample 0"
            )
        for name in first.component_names:
            a, b = first[name], circuit[name]
            if type(a) is not type(b):
                raise BatchIncompatible(
                    f"component {name!r}: type differs between samples"
                )
            if a._n != b._n or a._b != b._b:
                raise BatchIncompatible(
                    f"component {name!r}: wiring differs between samples"
                )


class BatchedOperatingPoints:
    """DC operating points of S same-topology circuits, stacked.

    ``x`` is the ``(S, size)`` solution stack and ``iterations`` the
    per-sample Newton iteration counts — ragged, exactly as the
    per-sample :func:`~repro.circuits.dcop.solve_dc` calls they
    replace would report them.
    """

    def __init__(
        self,
        circuits: List[Circuit],
        x: np.ndarray,
        iterations: np.ndarray,
    ):
        self.circuits = circuits
        self.x = x
        self.iterations = iterations

    def __len__(self) -> int:
        return len(self.circuits)

    def op(self, s: int) -> OperatingPoint:
        """Sample ``s`` as a standard :class:`OperatingPoint`."""
        return OperatingPoint(
            self.circuits[s], self.x[s], int(self.iterations[s])
        )


def _bsolve_dc(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched dense solve with the scalar path's singular fallback.

    ``np.linalg.solve`` rejects the whole stack when any one matrix is
    singular; degrading to per-sample :func:`~repro.circuits.linsolve.
    solve_dense` keeps the scalar semantics — least-squares for the
    singular samples only.
    """
    try:
        return np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.stack(
            [solve_dense(G[k], rhs[k]) for k in range(G.shape[0])]
        )


def solve_dc_batched(
    circuits: Sequence[Circuit],
    options: Optional[NewtonOptions] = None,
    x0: Optional[np.ndarray] = None,
    backend: object = "auto",
) -> BatchedOperatingPoints:
    """DC operating points of S same-topology circuits, stacked.

    The batched counterpart of :func:`~repro.circuits.dcop.solve_dc`:
    one Newton loop drives all S samples as ``(S, n, n)`` / ``(S, n)``
    stacks with a per-sample convergence mask, so the per-iteration
    work is the x-*dependent* stamps (the nonlinear devices) plus one
    batched linear solve — the x-independent stamps are assembled once
    per sample up front instead of on every iteration of every sample.

    Per-sample semantics are preserved exactly: each sample's damping,
    tolerance, and stopping decisions evaluate the same expressions as
    the scalar Newton, a converged sample's iterate freezes (its count
    is the iteration it converged on, ragged across the batch), and a
    sample that exhausts ``max_iterations`` falls back to the scalar
    :func:`solve_dc` continuation ladder from the original seed — so
    its ``(x, iterations)`` is the ladder's by construction.  Batches
    the lockstep vocabulary cannot stack (topology mismatch, nonlinear
    devices other than :class:`~repro.circuits.controlled.
    NonlinearVCCS`, sparse backends) degrade to per-sample
    :func:`solve_dc` calls wholesale.
    """
    options = options or NewtonOptions()
    circuits = list(circuits)
    if not circuits:
        raise SimulationError("solve_dc_batched requires at least one circuit")
    size = circuits[0].prepare()
    for circuit in circuits[1:]:
        circuit.prepare()
    resolved = resolve_backend(backend, size)
    S = len(circuits)

    def _seed(s: int) -> Optional[np.ndarray]:
        return None if x0 is None else np.asarray(x0[s], dtype=float)

    def _per_sample(indices) -> List[OperatingPoint]:
        return [
            solve_dc(
                circuits[s], options=options, x0=_seed(s), backend=backend
            )
            for s in indices
        ]

    nl_names: List[str] = []
    lockstep = resolved.is_dense
    if lockstep:
        try:
            _check_lockstep(circuits)
        except BatchIncompatible:
            lockstep = False
    if lockstep:
        nl_names = [
            name
            for name in circuits[0].component_names
            if circuits[0][name].is_nonlinear()
        ]
        if any(
            not isinstance(circuits[0][name], NonlinearVCCS)
            for name in nl_names
        ):
            lockstep = False
    if not lockstep:
        ops = _per_sample(range(S))
        return BatchedOperatingPoints(
            circuits,
            np.stack([op.x for op in ops]),
            np.array([op.iterations for op in ops], dtype=np.intp),
        )

    n_nodes = circuits[0].n_nodes
    nl_set = set(nl_names)
    lin_names = [
        name for name in circuits[0].component_names if name not in nl_set
    ]
    # The x-independent stamps: once per sample, not once per Newton
    # iteration.  The gmin diagonal is re-added per iteration *after*
    # the nonlinear stamps so the accumulation order tracks the
    # scalar path (components first, gmin last).
    G_lin = np.empty((S, size, size))
    rhs_lin = np.empty((S, size))
    x_probe = np.zeros(size)
    for s, circuit in enumerate(circuits):
        system = MNASystem(size)
        ctx = StampContext(system=system, x=x_probe, gmin=options.gmin)
        for name in lin_names:
            circuit[name].stamp(ctx)
        G_lin[s] = system.G
        rhs_lin[s] = system.rhs
    diag = np.arange(n_nodes)

    x = (
        np.array(x0, dtype=float, copy=True)
        if x0 is not None
        else np.zeros((S, size))
    )
    if x.shape != (S, size):
        raise SimulationError(
            f"x0 must have shape ({S}, {size}), got {x.shape}"
        )

    if not nl_names:
        G = G_lin.copy()
        G[:, diag, diag] += options.gmin
        solution = _bsolve_dc(G, rhs_lin)
        return BatchedOperatingPoints(
            circuits, solution, np.ones(S, dtype=np.intp)
        )

    # Per-device stacked linearization plans: vectorized across the
    # batch when every sample shares one characteristic family
    # (``vector_pair``), scalar per sample otherwise.
    plans = []
    for name in nl_names:
        devices = [circuit[name] for circuit in circuits]
        op_, on_, cp_, cn_ = devices[0]._n
        vp = devices[0].vector_pair
        if vp is not None and all(d.vector_pair is vp for d in devices):
            params = np.array([d.vector_params for d in devices])
            plans.append((op_, on_, cp_, cn_, vp, params, devices))
        else:
            plans.append((op_, on_, cp_, cn_, None, None, devices))

    iterations = np.zeros(S, dtype=np.intp)
    converged = np.zeros(S, dtype=bool)
    for it in range(options.max_iterations):
        idx = np.flatnonzero(~converged)
        if idx.size == 0:
            break
        G = G_lin[idx].copy()
        rhs = rhs_lin[idx].copy()
        xa = x[idx]
        for op_, on_, cp_, cn_, vp, params, devices in plans:
            v_ctrl = (xa[:, cp_] if cp_ >= 0 else 0.0) - (
                xa[:, cn_] if cn_ >= 0 else 0.0
            )
            if vp is not None:
                i_now, gm = vp(v_ctrl, *params[idx].T)
                gm = np.asarray(gm, dtype=float)
                i_eq = np.asarray(i_now, dtype=float) - gm * v_ctrl
            else:
                gm = np.empty(idx.size)
                i_eq = np.empty(idx.size)
                for k, s in enumerate(idx):
                    gm[k], i_eq[k] = devices[s].linearize(float(v_ctrl[k]))
            if op_ >= 0:
                if cp_ >= 0:
                    G[:, op_, cp_] += gm
                if cn_ >= 0:
                    G[:, op_, cn_] -= gm
                rhs[:, op_] -= i_eq
            if on_ >= 0:
                if cp_ >= 0:
                    G[:, on_, cp_] -= gm
                if cn_ >= 0:
                    G[:, on_, cn_] += gm
                rhs[:, on_] += i_eq
        G[:, diag, diag] += options.gmin
        x_new = _bsolve_dc(G, rhs)
        # Damping and convergence, vectorized but expression-for-
        # expression the scalar Newton's: scale by the largest node-
        # voltage move, compare against abstol + reltol * max|v|.
        delta = x_new - xa
        max_delta = _row_absmax(delta[:, :n_nodes])
        over = max_delta > options.max_step
        if over.any():
            delta[over] *= (options.max_step / max_delta[over])[:, None]
            max_delta = np.minimum(max_delta, options.max_step)
        x[idx] = xa + delta
        tol = options.abstol_v + options.reltol * _row_absmax(
            x[idx][:, :n_nodes]
        )
        done = max_delta < tol
        hit = idx[done]
        converged[hit] = True
        iterations[hit] = it + 1

    stuck = np.flatnonzero(~converged)
    if stuck.size:
        # The lockstep loop *is* the scalar plain-Newton attempt; a
        # sample that exhausted it gets the scalar continuation ladder
        # from its original seed, exactly as solve_dc would.
        for op_point, s in zip(_per_sample(stuck), stuck):
            x[s] = op_point.x
            iterations[s] = op_point.iterations
    return BatchedOperatingPoints(circuits, x, iterations)


class _SourceColumn:
    """One independent source, stacked across samples.

    Evaluates the per-sample stimulus values at a step time and
    scatters them into the stacked RHS.  When every sample shares the
    *same* value function object (common for fixed supplies), the
    stimulus is evaluated once and broadcast.
    """

    def __init__(self, components: List[object]):
        self.components = components
        first = components[0]
        self.is_voltage = isinstance(first, VoltageSource)
        if self.is_voltage:
            self.row = first._b[0]
        else:
            self.a, self.b = first._n[0], first._n[1]
        funcs = [c._func for c in components]
        self.shared = all(f is funcs[0] for f in funcs)
        #: Stacked values of a DC stimulus, hoisted out of the loop
        #: (``dc()`` annotates its functions with ``constant``).
        self.constant: Optional[np.ndarray] = None
        if all(hasattr(f, "constant") for f in funcs):
            self.constant = np.array([f.constant for f in funcs])

    def add_rhs(self, rhs: np.ndarray, time: float) -> None:
        if self.constant is not None:
            values: object = self.constant
        elif self.shared:
            values = self.components[0].value_at(time)
        else:
            values = np.array([c.value_at(time) for c in self.components])
        if self.is_voltage:
            rhs[:, self.row] += values
        else:
            if self.a >= 0:
                rhs[:, self.a] -= values
            if self.b >= 0:
                rhs[:, self.b] += values


class _DeviceColumn:
    """One :class:`NonlinearVCCS` position, stacked across samples.

    Linearizes the device at a vector of per-sample control voltages.
    When every sample's device declares the same batchable
    ``vector_pair`` family, one vectorized call covers the whole
    working set; otherwise a per-sample loop over ``linearize`` keeps
    arbitrary scalar characteristics correct (just slower).
    """

    def __init__(self, devices: List[NonlinearVCCS]):
        self.devices = devices
        first = devices[0]
        self.vectorized = first.vector_pair is not None and all(
            d.vector_pair == first.vector_pair
            and len(d.vector_params) == len(first.vector_params)
            for d in devices
        )
        if self.vectorized:
            self.family = first.vector_pair
            # One (S,) array per family parameter.
            self.params = tuple(
                np.array([d.vector_params[j] for d in devices])
                for j in range(len(first.vector_params))
            )

    def linearize(
        self, v_ctrl: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(gm, i_eq)`` arrays for the sample subset ``rows``."""
        if self.vectorized:
            i_now, gm = self.family(v_ctrl, *(p[rows] for p in self.params))
            return np.asarray(gm, dtype=float), np.asarray(i_now - gm * v_ctrl)
        gm = np.empty(rows.size)
        ieq = np.empty(rows.size)
        for j, s in enumerate(rows):
            gm[j], ieq[j] = self.devices[s].linearize(float(v_ctrl[j]))
        return gm, ieq

    def linearize_full(
        self, v_ctrl: np.ndarray, active: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full-width ``(gm, i_eq)`` at ``v_ctrl[S]``.

        The family runs on the stacked parameters as they are (no
        gather); the scalar loop visits only the ``active`` rows
        (every row when ``None``) and leaves zeros elsewhere.
        """
        if self.vectorized:
            i_now, gm = self.family(v_ctrl, *self.params)
            return np.asarray(gm, dtype=float), np.asarray(i_now - gm * v_ctrl)
        rows = np.arange(len(v_ctrl)) if active is None else np.flatnonzero(active)
        gm = np.zeros(len(v_ctrl))
        ieq = np.zeros(len(v_ctrl))
        for s in rows:
            gm[s], ieq[s] = self.devices[s].linearize(float(v_ctrl[s]))
        return gm, ieq


class _StackedCoeffs:
    """Stacked multistep companion data for one ``(dt, method, order)``.

    ``gcol`` is the ``(S, m)`` stack of per-sample companion
    conductances/resistances; the spacing-dependent history weights
    are scalars shared by the whole lockstep batch (one shared time
    grid) and recomputed per step from the method.
    """

    __slots__ = ("gcol", "method", "dt", "order")

    def __init__(
        self, gcol: np.ndarray, method: IntegrationMethod, dt: float, order: int
    ):
        self.gcol = gcol
        self.method = method
        self.dt = dt
        self.order = order


class _BatchedDtEntry:
    """Everything cached for one quantized step size, stacked.

    Dense backend: ``G_base`` is the frozen ``(S, n, n)`` stack and
    ``inv`` its batched inverse.  Sparse backend: ``blocks`` holds the
    per-sample CSR matrices and ``lu`` one splu factorization of
    their block-diagonal — a single sparse solve advances the whole
    campaign, and its cost grows with ``S * nnz`` instead of
    ``S * n^2``.
    """

    __slots__ = (
        "dt",
        "G_base",
        "coeffs",
        "inv",
        "blocks",
        "lu",
        "rank1",
        "woodbury",
        "cond",
    )

    def __init__(self, dt: float, coeffs: tuple):
        self.dt = dt
        self.coeffs = coeffs  # (alpha[S,m], beta[S,m], upd_g[S,m], upd_m)
        self.G_base: Optional[np.ndarray] = None  # dense: (S, n, n), frozen
        self.inv: Optional[np.ndarray] = None  # dense: (S, n, n)
        self.blocks: Optional[list] = None  # sparse: S CSR matrices
        self.lu: Optional[BlockDiagLU] = None  # sparse: per-block splu
        self.rank1: Optional[tuple] = None  # lazy (w[S,n], vw[S], w_vmax[S])
        self.woodbury: Optional[tuple] = None  # lazy (WU[S,n,k], VWU[S,k,k])
        self.cond: Optional[np.ndarray] = None  # lazy (S,) condition estimates


class BatchedTransientAssembly:
    """Stacked linear system(s) for one lockstep transient run.

    The batched counterpart of :class:`~repro.circuits.assembly.
    TransientAssembly`: the same assembly tiers (static once per step
    size, RHS once per step, nonlinear devices once per Newton
    iteration), with every product carrying a leading sample axis and
    the ``dt``-keyed products living in a small LRU of per-step-size
    entries.
    """

    def __init__(
        self,
        circuits: Sequence[Circuit],
        dt: float,
        method: object,
        gmin: float,
        max_dt_entries: int = 8,
        backend: object = "auto",
    ):
        circuits = list(circuits)
        if not circuits:
            raise SimulationError("batched run needs at least one circuit")
        for circuit in circuits:
            circuit.prepare()
        _check_lockstep(circuits)
        self.circuits = circuits
        self.n_samples = len(circuits)
        self.method = resolve_method(method)
        self.method_name = self.method.name
        self._order = self.method.usable_order(self.method.max_order, 1)
        self.gmin = gmin
        self.size = circuits[0].size
        self.n_nodes = circuits[0].n_nodes
        # Auto selection keys on the *per-sample* unknown count, like
        # the per-sample engine: the dense stack costs O(S n^3) to
        # invert and O(S n^2) per solve, the block-diagonal CSR path
        # O(S nnz)-ish for both.
        self.backend = resolve_backend(backend, self.size)
        #: Shared static-stamp structure (identical across samples by
        #: the lockstep topology check), captured on first build.
        self._pattern: Optional[StampPattern] = None

        split0, full0 = circuits[0].partition_components()
        full_names = [c.name for c in full0]
        for name in full_names:
            if type(circuits[0][name]) is not NonlinearVCCS:
                raise BatchIncompatible(
                    f"component {name!r} ({type(circuits[0][name]).__name__}) "
                    "is outside the lockstep engine's stamp vocabulary"
                )
        self._split_names = [c.name for c in split0]

        # Vectorized reactive state: plain caps/inductors only (the
        # same restriction as the per-sample engine's fast path).
        caps0 = [c for c in split0 if type(c) is Capacitor]
        inds0 = [c for c in split0 if type(c) is Inductor]
        vectorized = set(c.name for c in caps0 + inds0)
        # Topology (gather indices, scatter matrix) is shared; only
        # the per-sample element values differ.  One _ReactiveSet per
        # sample keeps the companion-coefficient formulas in exactly
        # one place (_ReactiveSet.coeffs); _coeffs just stacks rows.
        self._reactive_names = [c.name for c in caps0 + inds0]
        self._sample_reactives = [
            _ReactiveSet(
                [circuit[c.name] for c in caps0],
                [circuit[c.name] for c in inds0],
                self.size,
            )
            for circuit in circuits
        ]
        self._topology = self._sample_reactives[0]
        self.n_caps = len(caps0)
        m = len(self._reactive_names)
        self.v = np.zeros((self.n_samples, m))
        self.i = np.zeros((self.n_samples, m))
        # Stacked multistep history ring (newest first), shared times:
        # the lockstep grid is one grid for every sample.  The ring
        # logic and weight memo are the per-sample engine's
        # :class:`~repro.circuits.assembly._HistoryRing`, just with
        # ``(S, m)`` state rows.
        self.ring = _HistoryRing((self.n_samples, m))
        if self.method.is_multistep:
            self.ring.enable(self.method.history_depth(self.method.max_order))
            self.ring.set_current(self.v, self.i, self.n_caps)
        # Single-slot companion-term memo (same policy as the
        # per-sample _ReactiveSet._cterm): step RHS and commit of one
        # candidate share the identical term.
        self._cterm: Optional[tuple] = None

        # Per-step RHS work: stacked source columns.  Anything else
        # with a dynamic stamp is outside the lockstep vocabulary.
        self.sources: List[_SourceColumn] = []
        for comp in split0:
            if comp.name in vectorized:
                continue
            if type(comp).stamp_dynamic is Component.stamp_dynamic:
                continue
            if not isinstance(comp, (VoltageSource, CurrentSource)):
                raise BatchIncompatible(
                    f"component {comp.name!r} has a dynamic stamp the "
                    "lockstep engine cannot vectorize"
                )
            self.sources.append(
                _SourceColumn([c[comp.name] for c in circuits])
            )

        # Nonlinear device columns + constant rank-k structure.
        self.devices: List[_DeviceColumn] = [
            _DeviceColumn([c[name] for c in circuits]) for name in full_names
        ]
        self.k = len(self.devices)
        if self.k:
            U = np.zeros((self.size, self.k))
            V = np.zeros((self.size, self.k))
            cp_idx = np.empty(self.k, dtype=np.intp)
            cn_idx = np.empty(self.k, dtype=np.intp)
            for j, name in enumerate(full_names):
                op, on, cp, cn = circuits[0][name]._n
                if op >= 0:
                    U[op, j] += 1.0
                if on >= 0:
                    U[on, j] -= 1.0
                if cp >= 0:
                    V[cp, j] += 1.0
                if cn >= 0:
                    V[cn, j] -= 1.0
                cp_idx[j], cn_idx[j] = cp, cn
            self.U, self.V = U, V
            self._cp_idx, self._cn_idx = cp_idx, cn_idx

        # Padded iterate buffer for ground-safe gathers on commit.
        self._xp = np.zeros((self.n_samples, self.size + 1))

        self.n_factorizations = 0
        #: Shared fill-reducing column ordering for the sparse blocks
        #: (False = not yet probed; None = probe failed, let each
        #: block's splu analyse itself).
        self._sparse_perm: object = False
        self._cache = DtCache(self._build_entry, max_entries=max_dt_entries)
        self._active: _BatchedDtEntry
        self.set_dt(dt)

    # -- dt-keyed cache -------------------------------------------------------

    def _build_entry(
        self, key: Tuple[float, IntegrationMethod, int]
    ) -> _BatchedDtEntry:
        dt, _method, order = key
        S, n = self.n_samples, self.size
        base_coeffs = self.method.base_coeffs(order)
        streams = []
        for circuit in self.circuits:
            tri = TripletSystem(n)
            ctx = StampContext(
                system=tri,
                x=np.zeros(n),
                time=0.0,
                dt=dt,
                method=self.method_name,
                gmin=self.gmin,
                coeffs=base_coeffs,
            )
            for name in self._split_names:
                circuit[name].stamp_static(ctx)
            for i in range(self.n_nodes):
                tri.add_G(i, i, self.gmin)
            streams.append(tri)
        if self._pattern is None or not self._pattern.matches(streams[0]):
            self._pattern = streams[0].pattern()
        pattern = self._pattern
        entry = _BatchedDtEntry(dt, self._coeffs(dt, order))
        # Factor eagerly (dense: batched inverse, sparse: one splu of
        # the block-diagonal): every strategy solves against this
        # entry on its first step anyway, and a singular sample then
        # surfaces as BatchIncompatible *here* — at construction for
        # the initial step size — rather than from inside the time
        # loop.
        if self.backend.is_dense:
            G = np.empty((S, n, n))
            for s, tri in enumerate(streams):
                G[s] = pattern.dense(tri.values())
            G.setflags(write=False)
            entry.G_base = G
            try:
                entry.inv = np.linalg.inv(G)
            except np.linalg.LinAlgError as exc:
                raise BatchIncompatible(
                    "singular base matrix in batch; the per-sample "
                    "engine's least-squares fallback is required"
                ) from exc
        elif isinstance(self.backend, KrylovBackend):
            entry.blocks = [
                self.backend.finalize(pattern, tri.values()) for tri in streams
            ]
            # Per-sample *stale* preconditioners, BlockDiagLU style:
            # the first entry factors every sample (symbolic-once
            # ordering shared); later entries ride each sample's stale
            # LU iteratively and refresh per sample only when its
            # iteration counts degrade.
            lu = self.backend.factor_blocks(entry.blocks)
            if lu.is_singular:
                raise BatchIncompatible(
                    "singular base matrix in batch; the per-sample "
                    "engine's least-squares fallback is required"
                )
            entry.lu = lu
        else:
            entry.blocks = [
                self.backend.finalize(pattern, tri.values()) for tri in streams
            ]
            # Symbolic-once: the fill-reducing ordering is structural,
            # so one probe covers every sample and every later dt
            # entry; only the numeric phase runs per block.
            if self._sparse_perm is False:
                self._sparse_perm = BlockDiagLU.column_ordering(
                    entry.blocks[0]
                )
            lu = BlockDiagLU(entry.blocks, perm_c=self._sparse_perm)
            if lu.is_singular:
                raise BatchIncompatible(
                    "singular base matrix in batch; the per-sample "
                    "engine's least-squares fallback is required"
                )
            entry.lu = lu
        self.n_factorizations += 1
        return entry

    def _coeffs(self, dt: float, order: int):
        """Stacked companion coefficients for one ``(dt, method, order)``.

        Each row is the per-sample :meth:`_ReactiveSet.coeffs` result
        — the companion formulas live only there.
        """
        rows = [
            reactive.coeffs(dt, self.method, order)
            for reactive in self._sample_reactives
        ]
        m = len(self._reactive_names)
        if self.method.is_multistep:
            gcol = np.stack([r.gcol for r in rows]) if m else np.zeros(
                (self.n_samples, 0)
            )
            return _StackedCoeffs(gcol, self.method, dt, order)
        alpha = np.stack([r.alpha for r in rows]) if m else np.zeros(
            (self.n_samples, 0)
        )
        beta = np.stack([r.beta for r in rows]) if m else np.zeros(
            (self.n_samples, 0)
        )
        upd_g = np.stack([r.upd_g for r in rows]) if m else np.zeros(
            (self.n_samples, 0)
        )
        return alpha, beta, upd_g, rows[0].upd_m

    def set_dt(
        self, dt: float, ephemeral: bool = False, order: Optional[int] = None
    ) -> None:
        """Make ``(dt, order)`` the active setup (the shared
        :class:`~repro.circuits.assembly.DtCache` policy, keyed by the
        full ``(dt, method, order)`` setup)."""
        if order is not None:
            self._order = int(order)
        # Method-object key, matching the per-sample assembly.
        key = (float(dt), self.method, self._order)
        self._active = self._cache.get(key, ephemeral=ephemeral)

    @property
    def order(self) -> int:
        """The active integration order."""
        return self._order

    @property
    def history_points(self) -> int:
        """Committed states available, including the current one."""
        return self.ring.points

    def history_times(self) -> tuple:
        return self.ring.times()

    def reset_history(self) -> None:
        """Invalidate multistep history (used across breakpoints)."""
        self.ring.reset()

    @property
    def dt(self) -> float:
        return self._active.dt

    @property
    def n_dt_entries(self) -> int:
        return len(self._cache)

    def inv(self) -> np.ndarray:
        """Batched inverse of the active base matrices (dense only).

        Mirrors the per-sample :class:`~repro.circuits.linsolve.
        ReusableLU` small-system strategy (explicit inverse, one
        LAPACK call for the whole stack); built eagerly with the
        entry, where a singular sample raises
        :class:`BatchIncompatible` — the per-sample path has the
        least-squares fallback such a netlist needs.
        """
        return self._active.inv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Backend-agnostic base solve of a stacked ``(S, n)`` RHS.

        Dense: one batched mat-vec against the cached inverses.
        Sparse: one triangular solve against the block-diagonal splu —
        the stacked RHS *is* the block-diagonal system's RHS.
        """
        entry = self._active
        if entry.inv is not None:
            return _bsolve(entry.inv, rhs)
        return entry.lu.solve(rhs.reshape(-1)).reshape(rhs.shape)

    def solve_columns(self, U: np.ndarray) -> np.ndarray:
        """Base solve of shared ``(n, k)`` columns -> ``(S, n, k)``.

        Every sample shares the same rank-k injection columns ``U``
        (the lockstep topology check guarantees it), so the sparse
        path tiles them down the block diagonal and solves all
        samples' columns in one call.
        """
        entry = self._active
        if entry.inv is not None:
            return np.matmul(entry.inv, U)
        stacked = np.tile(U, (self.n_samples, 1))
        return entry.lu.solve(stacked).reshape(
            self.n_samples, self.size, U.shape[1]
        )

    def base_dense(self, s: int) -> np.ndarray:
        """Sample ``s``'s base matrix as a dense array (fallbacks only)."""
        entry = self._active
        if entry.G_base is not None:
            return entry.G_base[s]
        return entry.blocks[s].toarray()

    def condest_samples(self) -> Optional[np.ndarray]:
        """Per-sample 1-norm condition estimates of the active entry.

        Dense: exact ``||G||_1 * ||G^-1||_1`` from the cached batched
        inverse (one vectorized reduction, no new factorizations).
        Sparse: Hager estimation against the block-diagonal splu, one
        block per sample.  Cached on the entry; read-only.  Returns
        ``None`` when the active solver keeps no direct factorization
        to estimate against (the Krylov block solver's stale
        preconditioner may belong to a *different* matrix, so Hager
        estimation through it would certify the wrong operator).
        """
        entry = self._active
        if entry.cond is not None:
            return entry.cond
        if entry.inv is not None:
            norm_g = np.abs(entry.G_base).sum(axis=-2).max(axis=-1)
            norm_inv = np.abs(entry.inv).sum(axis=-2).max(axis=-1)
            cond = norm_g * norm_inv
        else:
            condest_blocks = getattr(entry.lu, "condest_blocks", None)
            if condest_blocks is None:
                return None
            cond = condest_blocks()
        entry.cond = np.asarray(cond, dtype=float)
        return entry.cond

    def residual_norms(
        self, x: np.ndarray, rhs_lin: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-sample residual data for post-step certification.

        Returns ``(res, norm_g, scale)``: the inf-norm residual of the
        full nonlinear system ``G_base x + U i_dev(x) - rhs_lin`` per
        sample, the inf-norm of each sample's base matrix, and the
        magnitude scale ``max(|G x|, |rhs|)`` the relative margin
        applies to.  Pure recomputation at the committed iterate.
        """
        entry = self._active
        if entry.G_base is not None:
            gx = np.matmul(entry.G_base, x[..., None])[..., 0]
            norm_g = np.abs(entry.G_base).sum(axis=-1).max(axis=-1)
        else:
            gx = np.stack(
                [entry.blocks[s].dot(x[s]) for s in range(self.n_samples)]
            )
            norm_g = np.array(
                [np.abs(b).sum(axis=1).max() for b in entry.blocks]
            )
        r = gx - rhs_lin
        if self.k:
            v_ctrl = self.ctrl_project(x)
            i_now = np.empty((self.n_samples, self.k))
            for j, column in enumerate(self.devices):
                gm, ieq = column.linearize_full(v_ctrl[:, j])
                i_now[:, j] = ieq + gm * v_ctrl[:, j]
            r = r + i_now @ self.U.T
        res = _row_absmax(r)
        scale = np.maximum(_row_absmax(gx), _row_absmax(rhs_lin))
        return res, norm_g, np.maximum(scale, 1e-30)

    # -- rank-k structure ------------------------------------------------------

    def ctrl_project(self, vec: np.ndarray) -> np.ndarray:
        """``V^T vec`` per sample: ``(S, size) -> (S, k)``."""
        cp, cn = self._cp_idx, self._cn_idx
        vp = np.where(cp >= 0, vec[:, np.maximum(cp, 0)], 0.0)
        vn = np.where(cn >= 0, vec[:, np.maximum(cn, 0)], 0.0)
        return vp - vn

    def rank1_data(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked Sherman–Morrison data ``(w[S,n], vw[S], w_vmax[S])``."""
        entry = self._active
        if entry.rank1 is None:
            w = self.solve_columns(self.U[:, :1])[..., 0]  # (S, n)
            vw = self.ctrl_project(w)[:, 0]
            w_vmax = _row_absmax(w[:, : self.n_nodes])
            entry.rank1 = (w, vw, w_vmax)
        return entry.rank1

    def woodbury_data(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked Woodbury data ``(WU[S,n,k], VWU[S,k,k])``."""
        entry = self._active
        if entry.woodbury is None:
            WU = self.solve_columns(self.U)  # (S, n, k)
            # VWU[s, j, l] = v_j^T W u_l, batched over samples.
            VWU = np.matmul(self.V.T[np.newaxis, :, :], WU)
            entry.woodbury = (WU, VWU)
        return entry.woodbury

    # -- state ----------------------------------------------------------------

    def init_state(self, x: np.ndarray) -> None:
        """Seed integrator state per sample (honours per-element ic)."""
        for s, circuit in enumerate(self.circuits):
            for j, name in enumerate(self._reactive_names):
                st = circuit[name].init_state(x[s])
                self.v[s, j], self.i[s, j] = st.v, st.i
        self.ring.restart()
        if self.ring.depth:
            self.ring.set_current(self.v, self.i, self.n_caps)
        self._cterm = None

    def snapshot_state(self) -> tuple:
        return self.v.copy(), self.i.copy(), self.ring.snapshot()

    def restore_state(self, snapshot: tuple) -> None:
        v, i, ring_snap = snapshot
        self.v = v.copy()
        self.i = i.copy()
        self.ring.restore(ring_snap)
        if self.ring.depth:
            self.ring.set_current(self.v, self.i, self.n_caps)

    def _val_now(self) -> np.ndarray:
        return self.ring.val_now(self.v, self.i, self.n_caps)

    def step_weights(self, co: _StackedCoeffs) -> tuple:
        """Memoized ``(wv, wd)`` — the shared :class:`_HistoryRing`
        relative-offset memo; weights are scalars shared by the whole
        lockstep batch (one shared time grid)."""
        return self.ring.step_weights(co)

    def _companion_term(self, co: _StackedCoeffs) -> np.ndarray:
        """Stacked ``(S, m)`` multistep companion term (cap ``ieq`` /
        inductor branch RHS); weights shared across the batch."""
        ring = self.ring
        memo = self._cterm
        if (
            memo is not None
            and memo[0] == co.dt
            and memo[1] == co.order
            and memo[2] == ring.t_now
            and memo[3] == ring.fill
        ):
            return memo[4]
        wv, wd = self.step_weights(co)
        term = ring.companion_term(wv, wd, co.gcol)
        self._cterm = (co.dt, co.order, ring.t_now, ring.fill, term)
        return term

    # -- once per step ---------------------------------------------------------

    def step_rhs(self, time: float) -> np.ndarray:
        """Stacked linear right-hand side for one step."""
        co = self._active.coeffs
        if self.v.shape[1]:
            if isinstance(co, _StackedCoeffs):
                term = self._companion_term(co)  # (S, m)
            else:
                alpha, beta, _upd_g, _upd_m = co
                term = alpha * self.v + beta * self.i  # (S, m)
            topo = self._topology
            if topo.scatter_csr is not None:
                rhs = np.ascontiguousarray(topo.scatter_csr.dot(term.T).T)
            else:
                rhs = term @ topo.scatter.T  # (S, n)
        else:
            rhs = np.zeros((self.n_samples, self.size))
        for source in self.sources:
            source.add_rhs(rhs, time)
        return rhs

    # -- after a converged step ------------------------------------------------

    def commit(
        self, x: np.ndarray, time: float, freeze: Optional[np.ndarray] = None
    ) -> None:
        """Advance every sample's integrator state after one step.

        ``freeze`` (boolean ``(S,)``) marks quarantined samples whose
        companion state must stay exactly where their last converged
        step left it: recomputing it from their frozen iterate rows
        through the companion formulas would drift it instead.
        """
        if not self.v.shape[1]:
            self.ring.t_now = time
            return
        co = self._active.coeffs
        topo = self._topology
        xp = self._xp
        xp[:, : self.size] = x
        v_new = xp[:, topo.a_idx] - xp[:, topo.b_idx]
        if isinstance(co, _StackedCoeffs):
            i_new = co.gcol * v_new + self._companion_term(co)
        else:
            _alpha, _beta, upd_g, upd_m = co
            i_new = upd_g * (v_new - self.v)
            if upd_m:
                i_new -= self.i
        if topo.br_idx.size:
            i_new[:, self.n_caps :] = x[:, topo.br_idx]
        if freeze is not None:
            v_new[freeze] = self.v[freeze]
            i_new[freeze] = self.i[freeze]
        self.ring.push()
        self.v = v_new
        self.i = i_new
        if self.ring.depth:
            self.ring.set_current(v_new, i_new, self.n_caps)
        self.ring.t_now = time


class _BatchedStepSolver:
    """Per-run lockstep Newton driver with a sample convergence mask.

    Two masks with different lifetimes: the per-iteration ``active``
    mask (a converged sample stops counting iterations and is never
    written again within the step; the rank-1 kernel still computes
    its row, full width, and discards it) and the per-run
    ``quarantined`` mask — samples the engine has given up on.
    Quarantined samples are never active again, their iterate rows
    stay frozen at the last converged step, and their companion state
    is frozen on commit; the rest of the batch integrates on
    untouched.
    """

    def __init__(
        self,
        assembly: BatchedTransientAssembly,
        options: NewtonOptions,
        quarantine: bool = False,
        guards: bool = False,
        condition_limit: float = CONDITION_LIMIT,
        health: Optional[list] = None,
    ):
        self.assembly = assembly
        self.options = options
        self.n_nodes = assembly.n_nodes
        S = assembly.n_samples
        #: Per-sample Newton-solve counters (ragged convergence shows
        #: up here: converged samples stop accumulating).
        self.newton_per_sample = np.zeros(S, dtype=np.int64)
        self.quarantine_enabled = bool(quarantine)
        self.quarantined = np.zeros(S, dtype=bool)
        #: Per-step *skip* mask (envelope campaigns): samples masked
        #: here sit this step out exactly like quarantined ones —
        #: frozen iterate, frozen companion state — but the mask is
        #: re-evaluated every step, so a sample in a skipped envelope
        #: phase coexists in the stack with carrier-resolved
        #: neighbours and resumes when its mask clears.
        self.skipped = np.zeros(S, dtype=bool)
        self.skipped_steps = np.zeros(S, dtype=np.int64)
        #: One record per quarantined sample: sample index, the time
        #: the sample died, and why.
        self.quarantine_records: List[Dict[str, object]] = []
        self.guards = bool(guards)
        self.condition_limit = condition_limit
        self.health = health if health is not None else []
        self._cond_checked: set = set()
        self._condest_skip_noted = False
        if assembly.k == 0:
            self.strategy = "batched-linear"
        elif assembly.k == 1:
            self.strategy = "batched-rank1"
            self._cp = int(assembly._cp_idx[0])
            self._cn = int(assembly._cn_idx[0])
        else:
            self.strategy = "batched-woodbury"

    @property
    def frozen(self) -> np.ndarray:
        """Samples sitting this step out (quarantined or skipped)."""
        if not np.count_nonzero(self.skipped):
            return self.quarantined
        return self.quarantined | self.skipped

    def set_skipped(self, mask: Optional[np.ndarray]) -> None:
        """Install this step's skip mask (``None`` clears it)."""
        if mask is None:
            self.skipped[:] = False
            return
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.skipped.shape:
            raise SimulationError(
                f"skip mask shape {mask.shape} != ({len(self.skipped)},)"
            )
        np.copyto(self.skipped, mask)

    def _ctrl1(self, vec: np.ndarray) -> np.ndarray:
        """k=1 control projection ``(S, size) -> (S,)`` without the
        generic gather machinery (this sits in the hot loop)."""
        cp, cn = self._cp, self._cn
        if cp >= 0 and cn >= 0:
            return vec[:, cp] - vec[:, cn]
        if cp >= 0:
            return vec[:, cp].copy()
        if cn >= 0:
            return -vec[:, cn]
        return np.zeros(len(vec))

    # -- shared helpers -------------------------------------------------------

    def _tol(self, x: np.ndarray) -> np.ndarray:
        """Per-sample convergence tolerance from the node voltages."""
        options = self.options
        return options.abstol_v + options.reltol * _row_absmax(
            x[:, : self.n_nodes]
        )

    def _fail(self, time: float, active: np.ndarray) -> ConvergenceError:
        rows = np.nonzero(active)[0]
        # failed_samples names the still-unconverged samples: the
        # quarantine loops mask exactly these out, and the campaign
        # layer uses them to attribute a collective lockstep failure.
        return ConvergenceError(
            f"batched transient Newton failed at t={time:.4e} for "
            f"sample(s) {rows.tolist()}",
            iterations=self.options.max_iterations,
            time=time,
            dt=self.assembly.dt,
            phase="step",
            failed_samples=rows.tolist(),
        )

    def _fail_health(self, time: float, rows: np.ndarray, why: str) -> ConvergenceError:
        """A health-guard failure for specific samples.

        ``phase="health"`` routes it through the same quarantine loops
        as a Newton failure, but with the ``"health"`` reason and —
        in the adaptive loop — without pointless dt shrinking (the
        same NaN reappears at any step size).
        """
        rows = [int(s) for s in rows]
        return ConvergenceError(
            f"{why} at t={time:.4e} for sample(s) {rows}",
            time=time,
            dt=self.assembly.dt,
            phase="health",
            failed_samples=rows,
        )

    def _guard_conditioning(self, time: float) -> None:
        """One-time per-dt-entry condition screen of the batch.

        Ill-conditioned samples get a warning
        :class:`~repro.circuits.health.HealthReport`; when quarantine
        is enabled they are additionally masked out of the batch via a
        health-phase failure (their waveforms would be numerically
        meaningless).
        """
        entry = self.assembly._active
        key = id(entry)
        if key in self._cond_checked:
            return
        self._cond_checked.add(key)
        cond = self.assembly.condest_samples()
        if cond is None:
            if not self._condest_skip_noted:
                self._condest_skip_noted = True
                self.health.append(
                    HealthReport(
                        "condest_skipped",
                        "condition estimation skipped: the active "
                        "solver keeps no direct factorization of the "
                        "stepping matrices; NaN/Inf screening stays "
                        "armed",
                        severity="info",
                        time=time,
                    )
                )
            return
        bad = (~np.isfinite(cond) | (cond > self.condition_limit)) & (
            ~self.quarantined
        )
        rows = np.flatnonzero(bad)
        if rows.size == 0:
            return
        for s in rows:
            self.health.append(
                HealthReport(
                    "ill_conditioned",
                    f"sample {int(s)} condition estimate {cond[s]:.3e} "
                    f"exceeds limit {self.condition_limit:.1e} at "
                    f"t={time:.4e}",
                    severity="warning",
                    time=time,
                    sample=int(s),
                    value=float(cond[s]),
                )
            )
        if self.quarantine_enabled:
            raise self._fail_health(time, rows, "ill-conditioned factorization")

    def quarantine(self, rows, time: float, reason: str) -> None:
        """Mask samples out of the batch; record what died and why."""
        for s in rows:
            s = int(s)
            if not self.quarantined[s]:
                self.quarantined[s] = True
                self.quarantine_records.append(
                    {"sample": s, "time": float(time), "reason": reason}
                )

    def _injected(self, time: float) -> Optional[np.ndarray]:
        """Fault-injection mask from the test-only fail hook."""
        hook = self.options.fail_hook
        if hook is None:
            return None
        circuits = self.assembly.circuits
        inject = np.array(
            [
                not self.quarantined[s] and bool(hook(time, "step", circuits[s]))
                for s in range(self.assembly.n_samples)
            ],
            dtype=bool,
        )
        return inject if inject.any() else None

    def _dense_fallback(
        self,
        s: int,
        x: np.ndarray,
        rhs_lin: np.ndarray,
        gms: np.ndarray,
        ieqs: np.ndarray,
    ) -> Tuple[np.ndarray, float]:
        """One damped dense Newton step for a single stuck sample.

        Mirrors the per-sample engine's singular-denominator escape:
        assemble the full Jacobian for this sample at its current
        linearization and take one damped dense-solve step.
        """
        asm = self.assembly
        G = asm.base_dense(s) + asm.U @ (gms[:, None] * asm.V.T)
        rhs = rhs_lin[s] - asm.U @ ieqs
        x_new = solve_dense(G, rhs)
        delta = x_new - x[s]
        v_delta = delta[: self.n_nodes]
        max_delta = float(np.abs(v_delta).max()) if v_delta.size else 0.0
        if max_delta > self.options.max_step:
            delta = delta * (self.options.max_step / max_delta)
            max_delta = self.options.max_step
        return x[s] + delta, max_delta

    # -- one lockstep time step ------------------------------------------------

    def step(self, x: np.ndarray, rhs_lin: np.ndarray, time: float) -> np.ndarray:
        inject = self._injected(time)
        if inject is not None:
            raise self._fail(time, inject)
        if self.guards:
            self._guard_conditioning(time)
            # Screen the stimulus before burning Newton iterations on
            # samples whose RHS is already poisoned.
            rows = nonfinite_sample_rows(rhs_lin, eligible=~self.frozen)
            if rows.size:
                self._record_nonfinite(rows, time, "non-finite step RHS")
                raise self._fail_health(time, rows, "non-finite step RHS")
        if self.strategy == "batched-linear":
            x_new = self.assembly.solve(rhs_lin)
            frozen = self.frozen
            if np.count_nonzero(frozen):
                x_new[frozen] = x[frozen]
        elif self.strategy == "batched-rank1":
            x_new = self._step_rank1(x, rhs_lin, time)
        else:
            x_new = self._step_woodbury(x, rhs_lin, time)
        if self.guards:
            rows = nonfinite_sample_rows(x_new, eligible=~self.frozen)
            if rows.size:
                self._record_nonfinite(rows, time, "non-finite step solution")
                raise self._fail_health(time, rows, "non-finite step solution")
        return x_new

    def _record_nonfinite(self, rows: np.ndarray, time: float, why: str) -> None:
        for s in rows:
            self.health.append(
                HealthReport(
                    "nonfinite",
                    f"{why} for sample {int(s)} at t={time:.4e}",
                    time=time,
                    sample=int(s),
                )
            )

    def _step_rank1(
        self, x: np.ndarray, rhs_lin: np.ndarray, time: float
    ) -> np.ndarray:
        """Vectorized mirror of the per-sample Sherman–Morrison step.

        Every sample runs exactly the scalarized iteration of
        ``_StepSolver._step_rank1`` — same on-the-line shortcut, same
        damping rule, same convergence estimate (``|c - q| * w_vmax``
        is the exact node-voltage delta on the line) — just stacked.

        Each iteration runs full width: the arithmetic covers all S
        rows and masks decide what is written back, so converged and
        frozen samples cost a few flops instead of the gathers and
        scatters a compacted working set would pay on every iteration.
        A sample converged on its ``z_lin - c*w`` line keeps ``c`` and
        gets its iterate written once, after the loop.  At 4 unknowns
        full width is the faster layout at every S measured, 64 to
        4,096 samples: 1.1–1.3x per sample-step over compaction at
        S = 64, growing to 1.5–1.9x at S = 4,096.
        """
        asm = self.assembly
        options = self.options
        device = asm.devices[0]
        w, vw, w_vmax = asm.rank1_data()
        n = self.n_nodes
        max_step = options.max_step
        S = asm.n_samples
        frozen = self.frozen
        n_frozen = np.count_nonzero(frozen)
        active = ~frozen
        z_lin = asm.solve(rhs_lin)
        x_in = x
        x = x.copy()
        tol = self._tol(x)
        if n_frozen:
            # Quarantined and skipped samples are never written; zeroing
            # their lanes keeps possibly non-finite state out of the
            # full-width arithmetic whose results they discard.
            z_lin[frozen] = 0.0
            x[frozen] = 0.0
        zl_c = self._ctrl1(z_lin)
        v_ctrl = self._ctrl1(x)
        on_line = np.zeros(S, dtype=bool)
        c = np.zeros(S)
        for _iteration in range(options.max_iterations):
            n_live = np.count_nonzero(active)
            if not n_live:
                break
            gm, ieq = device.linearize_full(v_ctrl, active)
            self.newton_per_sample += active
            denom = 1.0 + gm * vw
            bad = np.abs(denom) < 1e-12
            live = active
            if np.count_nonzero(bad):
                denom = np.where(bad, 1.0, denom)
                bad &= active
                live = active & ~bad
                n_live = np.count_nonzero(live)
                # Jacobian momentarily singular along the rank-1
                # direction for these samples: dense fallback step.
                for s in np.flatnonzero(bad):
                    if on_line[s]:
                        x[s] = z_lin[s] - c[s] * w[s]
                        on_line[s] = False
                    x[s], last = self._dense_fallback(
                        s, x, rhs_lin, gm[s : s + 1], ieq[s : s + 1]
                    )
                    v_ctrl[s] = asm.ctrl_project(x[s : s + 1])[0, 0]
                    if last < tol[s]:
                        active[s] = False
            q = ieq + gm * (zl_c - ieq * vw) / denom
            # ``live`` may be ``active`` itself, which the updates below
            # clear bit by bit: split it before either branch runs.
            on = on_line & live
            n_on = np.count_nonzero(on)
            off = live & ~on_line if n_on < n_live else None

            # -- samples already on the z_lin - c*w line: scalar update.
            if n_on:
                last = np.abs(c - q) * w_vmax
                damped = (last > max_step) & on
                if np.count_nonzero(damped):
                    c_damped = c + (max_step / np.where(damped, last, 1.0)) * (
                        q - c
                    )
                    np.copyto(c, np.where(damped, c_damped, q), where=on)
                    last = np.where(damped, max_step, last)
                else:
                    np.copyto(c, q, where=on)
                np.copyto(v_ctrl, zl_c - c * vw, where=on)
                active ^= on & (last < tol)
            # -- samples still off the line: full-vector damped update.
            if off is not None:
                delta = (z_lin - q[:, None] * w) - x
                maxd = _row_absmax(delta[:, :n])
                hit = (maxd >= max_step) & off  # damped (or exactly at
                # the cap): stays off the line, like the per-sample branch.
                if np.count_nonzero(hit):
                    over = (maxd > max_step) & hit
                    scale = np.where(
                        over, max_step / np.where(over, maxd, 1.0), 1.0
                    )
                    np.copyto(x, x + delta * scale[:, None], where=hit[:, None])
                    np.copyto(v_ctrl, self._ctrl1(x), where=hit)
                    maxd = np.minimum(maxd, max_step)
                    landed = off ^ hit
                else:
                    landed = off
                # A landed sample's iterate is z_lin - c*w: written
                # with the on-line ones after the loop.
                on_line |= landed
                np.copyto(c, q, where=landed)
                np.copyto(v_ctrl, zl_c - q * vw, where=landed)
                active ^= off & (maxd < tol)
        if np.count_nonzero(active):
            raise self._fail(time, active)
        np.copyto(x, z_lin - c[:, None] * w, where=on_line[:, None])
        if n_frozen:
            np.copyto(x, x_in, where=frozen[:, None])
        return x

    def _step_woodbury(
        self, x: np.ndarray, rhs_lin: np.ndarray, time: float
    ) -> np.ndarray:
        """Vectorized mirror of the per-sample Woodbury Newton step."""
        asm = self.assembly
        options = self.options
        k = asm.k
        n = self.n_nodes
        eye_k = np.eye(k)
        WU, VWU = asm.woodbury_data()
        z_lin = asm.solve(rhs_lin)
        x = x.copy()
        v_ctrl = asm.ctrl_project(x)
        active = ~self.frozen
        for _iteration in range(options.max_iterations):
            rows = np.nonzero(active)[0]
            if rows.size == 0:
                return x
            gms = np.empty((rows.size, k))
            ieqs = np.empty((rows.size, k))
            for j, column in enumerate(asm.devices):
                gms[:, j], ieqs[:, j] = column.linearize(v_ctrl[rows, j], rows)
            self.newton_per_sample[rows] += 1
            Wb = z_lin[rows] - np.matmul(WU[rows], ieqs[..., None])[..., 0]
            VWb = asm.ctrl_project(Wb)
            M = eye_k + VWU[rows] * gms[:, None, :]
            try:
                s_sol = np.linalg.solve(M, VWb[..., None])[..., 0]
                x_new = Wb - np.matmul(WU[rows], (gms * s_sol)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # A sample's small matrix is singular along the rank-k
                # directions: dense fallback per affected sample, the
                # rest proceed through the same dense path this
                # iteration (matches the per-sample engine, which also
                # falls back for the whole iterate).
                x_new = np.empty_like(Wb)
                for j, s in enumerate(rows):
                    try:
                        sj = np.linalg.solve(M[j], VWb[j])
                        x_new[j] = Wb[j] - WU[s] @ (gms[j] * sj)
                    except np.linalg.LinAlgError:
                        G = asm.base_dense(s) + asm.U @ (
                            gms[j][:, None] * asm.V.T
                        )
                        x_new[j] = solve_dense(G, rhs_lin[s] - asm.U @ ieqs[j])
            delta = x_new - x[rows]
            maxd = _row_absmax(delta[:, :n])
            over = maxd > options.max_step
            scale = np.where(over, options.max_step / np.where(over, maxd, 1.0), 1.0)
            x[rows] += delta * scale[:, None]
            maxd = np.minimum(maxd, options.max_step)
            v_ctrl[rows] = asm.ctrl_project(x[rows])
            conv = maxd < self._tol(x[rows])
            active[rows[conv]] = False
        if active.any():
            raise self._fail(time, active)
        return x


class _BatchedCertifier:
    """Post-step certification, S samples wide.

    The lockstep counterpart of the per-sample engine's certifier:
    every accepted step's full nonlinear residual is recomputed at the
    committed iterate (base matrix product plus device currents) and
    checked per sample against the same Newton-tolerance-derived
    threshold.  Quarantined samples are exempt — their rows are
    frozen, not solved.  Pure recomputation; never mutates the run.
    """

    def __init__(
        self,
        assembly: BatchedTransientAssembly,
        options: TransientOptions,
        health: list,
    ):
        self.assembly = assembly
        self.newton = options.newton
        self.rtol = options.certify_rtol
        self.health = health
        self.checked = 0

    def check_step(
        self,
        x: np.ndarray,
        rhs_lin: np.ndarray,
        time: float,
        eligible: Optional[np.ndarray] = None,
    ) -> None:
        self.checked += 1
        asm = self.assembly
        res, norm_g, scale = asm.residual_norms(x, rhs_lin)
        v_max = _row_absmax(x[:, : asm.n_nodes])
        tol_v = self.newton.abstol_v + self.newton.reltol * v_max
        threshold = 10.0 * norm_g * tol_v + self.rtol * scale
        bad = ~np.isfinite(res) | (res > threshold)
        if eligible is not None:
            bad &= eligible
        for s in np.flatnonzero(bad):
            self.health.append(
                HealthReport(
                    "residual",
                    f"sample {int(s)} accepted-step residual "
                    f"{res[s]:.3e} exceeds the certification threshold "
                    f"{threshold[s]:.3e} at t={time:.4e}",
                    time=time,
                    sample=int(s),
                    value=float(res[s]),
                )
            )

    def check_grid(self, times: np.ndarray, options: TransientOptions) -> None:
        check_grid_invariants(times, options.t_stop, self.health)


class _BatchedRecording:
    """Growable stacked ``(t, x[S])`` recording buffer."""

    def __init__(
        self,
        n_samples: int,
        n_columns: int,
        capacity: int,
        record_indices: Optional[np.ndarray],
    ):
        capacity = max(int(capacity), 4)
        self._t = np.empty(capacity)
        self._x = np.empty((capacity, n_samples, n_columns))
        self._indices = record_indices
        self._n = 0

    def append(self, time: float, x: np.ndarray) -> None:
        if self._n == self._t.size:
            self._t = np.concatenate([self._t, np.empty(self._t.size)])
            grown = np.empty((self._t.size,) + self._x.shape[1:])
            grown[: self._n] = self._x
            self._x = grown
        self._t[self._n] = time
        self._x[self._n] = x if self._indices is None else x[:, self._indices]
        self._n += 1

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._t[: self._n].copy(), self._x[: self._n]


def run_transient_batched(
    circuits: Sequence[Circuit],
    options: Optional[TransientOptions] = None,
    skip_mask=None,
) -> List[TransientResult]:
    """Integrate S same-topology circuits in one lockstep time loop.

    Returns one :class:`~repro.circuits.transient.TransientResult` per
    input circuit, in order, equivalent to running
    :func:`~repro.circuits.transient.run_transient` per sample (the
    equivalence tests pin this at rtol 1e-9 for the strategies the
    lockstep engine covers).  ``step_control="adaptive"`` integrates
    every sample on one shared grid sized by the worst sample's LTE.

    Raises :class:`BatchIncompatible` when the netlists cannot be
    stacked: differing topology, nonlinear devices other than
    :class:`~repro.circuits.controlled.NonlinearVCCS`, a non-``"auto"``
    Jacobian mode, components outside the stamp split's vectorizable
    vocabulary, or a singular stacked base matrix (see the exception's
    docstring for when each case fires).

    Fault tolerance mirrors the per-sample engine's options:
    ``options.quarantine`` masks a sample whose Newton fails (fixed
    grid: on any step; adaptive: at the dt floor, or on LTE underflow)
    out of the lockstep batch — its iterate and companion state freeze
    at the last converged step, its stats gain ``quarantined=True``
    and a ``quarantine`` record, and the survivors finish.
    ``max_steps`` / ``max_wall_time`` budgets and ``on_abort``
    ("raise" vs "partial") behave exactly as in
    :func:`~repro.circuits.transient.run_transient`; an all-samples
    quarantine aborts with reason ``"all_quarantined"``.

    ``skip_mask(time) -> (S,) bool array or None`` is the per-sample
    envelope skip hook: samples masked at a step keep their iterate
    and companion state frozen for that step (exactly the quarantine
    freeze, but re-evaluated every step), so samples in skipped
    envelope phases coexist in one stack with carrier-resolved
    neighbours.  Per-sample ``stats["skipped_steps"]`` counts the
    steps each sample sat out.
    """
    options = options or TransientOptions()
    if options.jacobian != "auto":
        raise BatchIncompatible(
            f"jacobian={options.jacobian!r} has no lockstep equivalent"
        )
    # Lockstep batches share one topology; linting the first sample
    # covers the structural findings for all of them.  Empty batches
    # fall through to the assembly's own BatchIncompatible.
    preflight_diags = (
        apply_preflight(circuits[0], options.preflight, options, analysis="tran")
        if circuits
        else []
    )
    assembly = BatchedTransientAssembly(
        circuits,
        options.dt,
        options.resolved_method(),
        options.newton.gmin,
        max_dt_entries=options.dt_cache_size,
        backend=options.backend,
    )
    circuits = assembly.circuits
    S = assembly.n_samples
    size = assembly.size

    if options.use_dc_operating_point:
        x = solve_dc_batched(
            circuits, options=options.newton, backend=options.backend
        ).x
    else:
        x = np.zeros((S, size))
    assembly.init_state(x)

    health: List[HealthReport] = []
    solver = _BatchedStepSolver(
        assembly,
        options.newton,
        quarantine=options.quarantine,
        guards=options.guards,
        condition_limit=options.condition_limit,
        health=health,
    )
    certifier = (
        _BatchedCertifier(assembly, options, health)
        if options.certify
        else None
    )

    record_indices, recorded_nodes, n_columns = _resolve_recording(
        circuits[0], options
    )
    if options.step_control == "fixed":
        capacity = _fixed_record_count(options)
    else:
        capacity = int(options.t_stop / options.dt) // options.record_stride + 2
    recorder = _BatchedRecording(S, n_columns, capacity, record_indices)

    try:
        if options.step_control == "fixed":
            run_stats = _run_fixed_lockstep(
                options, assembly, solver, x, recorder, certifier, skip_mask
            )
        else:
            run_stats = _run_adaptive_lockstep(
                circuits,
                options,
                assembly,
                solver,
                x,
                recorder,
                certifier,
                skip_mask,
            )
    except _RunAbort as abort:
        if options.on_abort == "raise":
            if abort.error is not None:
                raise abort.error
            raise SimulationError(
                f"batched transient aborted: {abort.reason} budget "
                f"exhausted at t={abort.stats.get('t_abort', 0.0):.4e}"
            )
        run_stats = dict(abort.stats)
        run_stats["abort_reason"] = abort.reason
        run_stats["completed"] = False
        if abort.error is not None:
            run_stats["abort_error"] = str(abort.error)

    quarantine_by_sample: Dict[int, Dict[str, object]] = {}
    if solver.quarantine_enabled:
        run_stats["quarantined_samples"] = np.nonzero(solver.quarantined)[
            0
        ].tolist()
        quarantine_by_sample = {
            int(record["sample"]): record for record in solver.quarantine_records
        }

    times, records = recorder.arrays()
    if certifier is not None:
        certifier.check_grid(times, options)
    results: List[TransientResult] = []
    for s, circuit in enumerate(circuits):
        stats: Dict[str, object] = {
            "strategy": solver.strategy,
            "backend": assembly.backend.name,
            "step_control": options.step_control,
            "newton_iterations": int(solver.newton_per_sample[s]),
            "lu_refactorizations": assembly.n_factorizations,
            "batch_samples": S,
        }
        if skip_mask is not None:
            stats["skipped_steps"] = int(solver.skipped_steps[s])
        stats.update(run_stats)
        if solver.quarantine_enabled:
            stats["quarantined"] = bool(solver.quarantined[s])
            if s in quarantine_by_sample:
                stats["quarantine"] = quarantine_by_sample[s]
        if options.guards or options.certify:
            stats["health"] = [
                r for r in health if r.sample in (None, s)
            ]
            if certifier is not None:
                stats["certified_steps"] = certifier.checked
        if options.preflight != "off":
            stats["preflight"] = preflight_diags
        results.append(
            TransientResult(
                circuit=circuit,
                t=times,
                x=records[:, s, :].copy(),
                recorded_nodes=recorded_nodes,
                stats=stats,
            )
        )
    return results


def probe_stiffness_ratios(
    circuits: Sequence[Circuit],
    options: Optional[TransientOptions] = None,
) -> Optional[np.ndarray]:
    """Rank samples by stiffness: per-sample probe-step LTE ratios.

    A lockstep probe — a full step of ``options.dt`` and the same
    step as two halves, both from the DC operating point — yields each
    sample's Richardson LTE estimate over tolerance
    (:meth:`~repro.circuits.stepcontrol.StepController.
    error_ratio_samples`).  A large ratio means the sample needs a
    small step to hold tolerance: it is *stiff* relative to its batch
    peers.  When the stimuli declare breakpoints (pulse/pwl sources),
    a second probe runs just past the *earliest* breakpoint and the
    rankings combine by elementwise max: a pulse-driven netlist is
    electrically inert at t=0, so a first-step-only probe would rank
    every sample identically and the clustering would be noise.  The
    sharded campaign layer feeds this ranking to
    :func:`~repro.circuits.stepcontrol.stiffness_bins` so sub-batches
    group samples of similar stiffness.

    The probe is advisory: any failure — netlists the lockstep engine
    cannot stack, a diverging DC or probe Newton solve — returns
    ``None`` and the caller proceeds unclustered.  Probe state is
    thrown away; the actual campaign re-runs from its own DC seed.
    """
    options = options or TransientOptions()
    if options.jacobian != "auto":
        return None
    try:
        assembly = BatchedTransientAssembly(
            circuits,
            options.dt,
            options.resolved_method(),
            options.newton.gmin,
            max_dt_entries=options.dt_cache_size,
            backend=options.backend,
        )
        S = assembly.n_samples
        if options.use_dc_operating_point:
            x = solve_dc_batched(
                assembly.circuits, options=options.newton, backend=options.backend
            ).x
        else:
            x = np.zeros((S, assembly.size))
        assembly.init_state(x)
        solver = _BatchedStepSolver(assembly, options.newton, quarantine=False)
        method = assembly.method
        controller = StepController(
            t_stop=options.t_stop,
            dt_initial=options.dt,
            dt_min=options.resolved_dt_min(),
            dt_max=options.resolved_dt_max(),
            method=method,
            reltol=options.lte_reltol,
            abstol=options.lte_abstol,
            safety=options.lte_safety,
            max_growth=options.max_step_growth,
        )
        dt = options.dt
        half = 0.5 * dt
        order = (
            controller.candidate_order(assembly.history_points)
            if method.is_multistep
            else None
        )

        def probe_at(t0: float) -> np.ndarray:
            """One full/half Richardson probe starting at ``t0``.

            Companion state is snapshotted and restored so probes are
            independent; every probe steps from the same DC iterate.
            """
            snapshot = assembly.snapshot_state()
            try:
                assembly.set_dt(dt, order=order)
                x_full = solver.step(x, assembly.step_rhs(t0 + dt), t0 + dt)
                assembly.set_dt(half, ephemeral=True, order=order)
                x_mid = solver.step(x, assembly.step_rhs(t0 + half), t0 + half)
                assembly.commit(x_mid, t0 + half)
                x_half = solver.step(
                    x_mid, assembly.step_rhs(t0 + dt), t0 + dt
                )
            finally:
                assembly.restore_state(snapshot)
            return controller.error_ratio_samples(
                x_full, x_half, assembly.n_nodes
            )

        ratios = probe_at(0.0)
        bp: set = set()
        for circuit in circuits:
            bp.update(collect_breakpoints(circuit, options.t_stop))
        inside = sorted(t for t in bp if t + dt <= options.t_stop)
        if inside:
            ratios = np.maximum(ratios, probe_at(inside[0]))
    except (BatchIncompatible, ConvergenceError, SimulationError):
        return None
    return ratios


def _run_fixed_lockstep(
    options: TransientOptions,
    assembly: BatchedTransientAssembly,
    solver: _BatchedStepSolver,
    x: np.ndarray,
    recorder: _BatchedRecording,
    certifier: Optional[_BatchedCertifier] = None,
    skip_mask=None,
) -> Dict[str, object]:
    """The classic uniform grid, S samples wide.

    With ``options.quarantine`` a sample whose Newton fails is masked
    out of the batch (iterate and companion state frozen) and the step
    is retried with the survivors; the loop only aborts when every
    sample is dead.  Budgets charge once per grid step.

    ``skip_mask(time) -> (S,) bool`` (or ``None``) marks samples that
    sit this step out with frozen state — the per-sample envelope
    skip: samples in skipped phases coexist with resolved neighbours.
    """
    n_steps = int(round(options.t_stop / options.dt))
    stride = options.record_stride
    recorder.append(0.0, x)
    method = assembly.method
    multistep = method.is_multistep
    order_histogram: Dict[int, int] = {}
    budget = _RunBudget.for_options(options)

    def partial_stats(step: int) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "steps": step - 1,
            "t_abort": (step - 1) * options.dt,
        }
        if multistep:
            stats["order_histogram"] = order_histogram
        return stats

    for step in range(1, n_steps + 1):
        time = step * options.dt
        if budget is not None:
            exhausted = budget.charge()
            if exhausted is not None:
                raise _RunAbort(exhausted, stats=partial_stats(step))
        if skip_mask is not None:
            solver.set_skipped(skip_mask(time))
            solver.skipped_steps += solver.skipped
        if multistep:
            # Gear startup ramp: the whole batch shares one order
            # schedule, clamped by the shared committed history.
            order = method.usable_order(
                method.max_order, assembly.history_points
            )
            if order != assembly.order:
                assembly.set_dt(options.dt, order=order)
            order_histogram[order] = order_histogram.get(order, 0) + 1
        rhs_lin = assembly.step_rhs(time)
        while True:
            try:
                x = solver.step(x, rhs_lin, time)
                break
            except ConvergenceError as exc:
                failed = getattr(exc, "failed_samples", None)
                health_failure = getattr(exc, "phase", None) == "health"
                if not solver.quarantine_enabled or not failed:
                    if health_failure:
                        raise _RunAbort(
                            "health", error=exc, stats=partial_stats(step)
                        )
                    raise
                solver.quarantine(
                    failed, time, "health" if health_failure else "newton"
                )
                if solver.quarantined.all():
                    raise _RunAbort(
                        "all_quarantined", error=exc, stats=partial_stats(step)
                    )
                # Retry the same step with the survivors only.
        frozen = solver.frozen
        freeze = frozen if np.count_nonzero(frozen) else None
        if certifier is not None:
            certifier.check_step(
                x, rhs_lin, time, eligible=None if freeze is None else ~freeze
            )
        assembly.commit(x, time, freeze=freeze)
        if step % stride == 0:
            recorder.append(time, x)
    stats: Dict[str, object] = {"steps": n_steps}
    if multistep:
        stats["order_histogram"] = order_histogram
    return stats


def _run_adaptive_lockstep(
    circuits: Sequence[Circuit],
    options: TransientOptions,
    assembly: BatchedTransientAssembly,
    solver: _BatchedStepSolver,
    x: np.ndarray,
    recorder: _BatchedRecording,
    certifier: Optional[_BatchedCertifier] = None,
    skip_mask=None,
) -> Dict[str, object]:
    """Worst-sample LTE control on one shared adaptive grid.

    The step-doubling structure matches the per-sample adaptive loop;
    the acceptance test is :meth:`StepController.error_ratio_many` —
    a candidate step commits only when *every* sample's Richardson
    estimate meets tolerance, so the shared grid is as fine as the
    most demanding sample requires.  Breakpoints are the union of all
    samples' stimulus discontinuities.
    """
    breakpoints = sorted(
        set(
            t
            for circuit in circuits
            for t in collect_breakpoints(
                circuit, options.t_stop, options.breakpoints or ()
            )
        )
    )
    method = assembly.method
    controller = StepController(
        t_stop=options.t_stop,
        dt_initial=options.dt,
        dt_min=options.resolved_dt_min(),
        dt_max=options.resolved_dt_max(),
        method=method,
        reltol=options.lte_reltol,
        abstol=options.lte_abstol,
        safety=options.lte_safety,
        max_growth=options.max_step_growth,
        breakpoints=breakpoints,
        order_control=options.resolved_order_control(method),
    )
    multistep = method.is_multistep
    n_nodes = assembly.n_nodes
    stride = options.record_stride
    recorder.append(0.0, x)
    budget = _RunBudget.for_options(options)

    def abort(reason: str, error: Optional[BaseException] = None) -> _RunAbort:
        stats = controller.stats()
        stats["steps"] = controller.accepted
        stats["dt_cache_entries"] = assembly.n_dt_entries
        stats["t_abort"] = controller.t
        return _RunAbort(reason, error=error, stats=stats)

    while not controller.finished:
        t = controller.t
        if budget is not None:
            exhausted = budget.charge()
            if exhausted is not None:
                raise abort(exhausted)
        t_target, dt = controller.propose()
        if skip_mask is not None:
            # One skip decision per candidate step (evaluated at the
            # step's landing time), shared by the probe and halves so
            # the Richardson pair sees one consistent working set.
            solver.set_skipped(skip_mask(t_target))
        # One order schedule for the whole batch: the controller's
        # target clamped by the shared committed history.
        order = (
            controller.candidate_order(assembly.history_points)
            if multistep
            else None
        )
        ephemeral = dt != controller.dt
        snapshot = assembly.snapshot_state()
        frozen = solver.frozen
        freeze = frozen if np.count_nonzero(frozen) else None
        try:
            assembly.set_dt(dt, ephemeral=ephemeral, order=order)
            rhs_lin = assembly.step_rhs(t_target)
            x_full = solver.step(x, rhs_lin, t_target)
            half = 0.5 * dt
            t_mid = t + half
            assembly.set_dt(half, ephemeral=ephemeral, order=order)
            rhs_lin = assembly.step_rhs(t_mid)
            x_mid = solver.step(x, rhs_lin, t_mid)
            assembly.commit(x_mid, t_mid, freeze=freeze)
            rhs_lin = assembly.step_rhs(t_target)
            x_half = solver.step(x_mid, rhs_lin, t_target)
        except ConvergenceError as exc:
            assembly.restore_state(snapshot)
            health_failure = getattr(exc, "phase", None) == "health"
            # A non-finite sample fails identically at any step size:
            # skip the dt shrinking and quarantine it directly.
            if not controller.at_dt_floor and not health_failure:
                controller.reject_nonconvergence()
                continue
            # Newton is dead at the dt floor.  Quarantine the failed
            # samples (when enabled) so the survivors keep going, or
            # propagate — the seed behaviour.
            failed = getattr(exc, "failed_samples", None)
            if not solver.quarantine_enabled or not failed:
                if health_failure:
                    raise abort("health", error=exc)
                raise
            solver.quarantine(
                failed, t, "health" if health_failure else "newton_dt_min"
            )
            controller.reset_floor_rejections()
            if solver.quarantined.all():
                raise abort("all_quarantined", error=exc)
            continue
        mask = None if freeze is None else ~frozen
        ratio = controller.error_ratio_many(x_full, x_half, n_nodes, mask=mask)
        if ratio <= 1.0:
            if certifier is not None:
                certifier.check_step(x_half, rhs_lin, t_target, eligible=mask)
            assembly.commit(x_half, t_target, freeze=freeze)
            x = x_half
            if skip_mask is not None:
                solver.skipped_steps += solver.skipped
            controller.accept(t_target, dt, ratio)
            if multistep and controller.crossed_breakpoint:
                assembly.reset_history()
            if controller.accepted % stride == 0:
                recorder.append(t_target, x)
        else:
            assembly.restore_state(snapshot)
            try:
                controller.reject(ratio)
            except SimulationError as exc:
                # LTE underflow: dt cannot shrink further.  Quarantine
                # the samples whose Richardson estimate is still over
                # tolerance; the shared grid then answers only to the
                # survivors.
                if not solver.quarantine_enabled:
                    raise abort("step_underflow", error=exc)
                ratios = controller.error_ratio_samples(x_full, x_half, n_nodes)
                culprits = np.nonzero((ratios > 1.0) & ~solver.frozen)[0]
                if culprits.size == 0:
                    raise abort("step_underflow", error=exc)
                solver.quarantine(culprits, t, "lte_underflow")
                controller.reset_floor_rejections()
                if solver.quarantined.all():
                    raise abort("all_quarantined", error=exc)
    stats = controller.stats()
    stats["steps"] = controller.accepted
    stats["dt_cache_entries"] = assembly.n_dt_entries
    return stats

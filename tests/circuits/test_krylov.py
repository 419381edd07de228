"""The Krylov iterative backend and its stale-LU preconditioner.

Pinned claims:

* waveform equivalence: ``backend="krylov"`` reproduces the direct
  sparse path well under the rtol 1e-6 the mesh benches assert, on
  fixed and adaptive grids, linear circuits, DC, AC, and the batched
  lockstep engine; nonlinear circuits, whose Newton steps take the
  same low-rank update around the cached base solver as the sparse
  backend (there is no matrix-free path), meet the sparse-vs-dense
  contract of rtol 1e-9 with no direct fallback;
* refresh policy: the stale preconditioner re-anchors proactively
  when the previous solve of a matrix crossed the iteration
  threshold, and unconditionally when the iteration fails to
  converge — and never re-factors while riding the fast path;
* degradation: scipy-less environments fail fast for an explicit
  ``"krylov"`` and fall back to dense for ``"auto"``; health guards
  skip condition estimation (with an info-severity note) instead of
  crashing on the factorization-less solver;
* per-sample isolation: one singular sample in a batch degrades to
  least-squares without touching its shard-mates, for both the direct
  :class:`BlockDiagLU` and the Krylov block solver.
"""

import numpy as np
import pytest

import repro.circuits.backend as backend_mod
from repro.circuits import (
    Circuit,
    TransientOptions,
    resolve_backend,
    run_ac,
    run_transient,
    run_transient_batched,
    sine,
    solve_dc,
)
from repro.circuits.backend import (
    KRYLOV_AUTO_THRESHOLD,
    SPARSE_AUTO_THRESHOLD,
    BlockDiagLU,
    KrylovBackend,
    SparseBackend,
)
from repro.circuits.batched import probe_stiffness_ratios
from repro.envelope import RLCTank
from repro.errors import SimulationError
from repro.sensor.coils import CoilMesh, coil_mesh_array

pytestmark = pytest.mark.skipif(
    not backend_mod._HAVE_SCIPY, reason="krylov backend requires scipy"
)

TANK = RLCTank(inductance=10e-6, capacitance=1e-9, series_resistance=2.0)
MESH = CoilMesh(tank=TANK, nx=4, ny=4)
F0 = TANK.frequency


def _mesh_options(backend, drive="pulse", step_control="adaptive"):
    return TransientOptions(
        t_stop=3.0 / F0,
        dt=0.02 / F0,
        backend=backend,
        step_control=step_control,
    )


def _nonlinear_circuit():
    c = Circuit("nl")
    c.voltage_source("vin", "in", "0", sine(2.0, 2e6, offset=1.5))
    c.resistor("r1", "in", "a", 200.0)
    c.capacitor("c1", "a", "0", 1e-9)
    c.diode("d1", "a", "b")
    c.resistor("r2", "b", "0", 1e3)
    c.capacitor("c2", "b", "0", 5e-10)
    return c


def _diode_ladder(segments):
    """A peak detector fed through a ``segments``-cell RLC ladder
    (``3 * segments + 5`` unknowns)."""
    c = Circuit("diode_ladder")
    c.voltage_source("vin", "in", "0", sine(2.0, 2e6, offset=1.5))
    c.resistor("rs", "in", "a", 50.0)
    c.rlc_ladder("lad_", "a", "out", segments, 1e-9, 0.05, 1e-12)
    c.diode("d1", "out", "b")
    c.resistor("rl", "b", "0", 1e3)
    c.resistor("rf", "b", "f", 100.0)
    c.capacitor("cf", "f", "0", 5e-10)
    return c


def _csr(dense):
    return backend_mod._sparse.csr_matrix(np.asarray(dense, dtype=float))


class TestResolution:
    def test_auto_promotes_by_unknown_count(self):
        assert resolve_backend("auto", KRYLOV_AUTO_THRESHOLD).name == "krylov"
        assert resolve_backend("auto", KRYLOV_AUTO_THRESHOLD - 1).name == "sparse"
        assert resolve_backend("auto", SPARSE_AUTO_THRESHOLD - 1).is_dense

    def test_explicit_krylov(self):
        backend = resolve_backend("krylov", 10)
        assert isinstance(backend, KrylovBackend)
        # Stateful: every resolution must construct a fresh instance.
        assert resolve_backend("krylov", 10) is not backend

    def test_unknown_method_raises(self):
        with pytest.raises(SimulationError, match="unknown Krylov method"):
            KrylovBackend(method="cg")

    def test_options_accept_krylov(self):
        options = TransientOptions(t_stop=1e-6, dt=1e-9, backend="krylov")
        assert options.backend == "krylov"


class TestNoScipyDegradation:
    """Mirrors the sparse backend's optional-scipy contract."""

    def test_explicit_krylov_raises_clearly(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_SCIPY", False)
        with pytest.raises(SimulationError, match="requires scipy"):
            resolve_backend("krylov", 100_000)

    def test_constructor_raises(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_SCIPY", False)
        with pytest.raises(SimulationError, match="requires scipy"):
            KrylovBackend()

    def test_auto_falls_back_to_dense_past_krylov_threshold(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_SCIPY", False)
        assert resolve_backend("auto", 10 * KRYLOV_AUTO_THRESHOLD).is_dense

    def test_run_transient_explicit_krylov_raises(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_HAVE_SCIPY", False)
        circuit = _nonlinear_circuit()
        options = TransientOptions(t_stop=1e-7, dt=1e-9, backend="krylov")
        with pytest.raises(SimulationError, match="requires scipy"):
            run_transient(circuit, options)


class TestRefreshPolicy:
    """The stale-preconditioner triggers, pinned deterministically."""

    def _matrices(self, n=12, scale=40.0):
        rng = np.random.default_rng(7)
        a = np.eye(n) * 4.0 + rng.uniform(-0.5, 0.5, (n, n))
        # Far enough from A that refinement stalls and GMRES needs
        # several preconditioned iterations.
        b = a + scale * np.diag(rng.uniform(0.5, 1.0, n))
        return _csr(a), _csr(b)

    def test_fast_path_never_refactors(self):
        a, _ = self._matrices()
        backend = KrylovBackend()
        solver = backend.factor(a)
        rhs = np.arange(a.shape[0], dtype=float)
        first = solver.solve(rhs)
        assert backend.n_refreshes == 1  # the initial anchoring only
        for _ in range(5):
            again = solver.solve(rhs)
        assert backend.n_refreshes == 1
        # The fast path is a plain direct solve: bitwise stable.
        assert np.array_equal(first, again)

    def test_proactive_refresh_on_iteration_threshold(self):
        a, b = self._matrices()
        backend = KrylovBackend(refresh_iterations=1, refresh_cooldown=0)
        rhs = np.ones(a.shape[0])
        backend.factor(a).solve(rhs)  # anchor the stale LU on A
        solver_b = backend.factor(b)
        solver_b.solve(rhs)  # iterates against the stale-A LU
        assert solver_b._last_applies > backend.refresh_iterations
        refreshes = backend.n_refreshes
        solver_b.solve(rhs)  # previous solve was expensive: re-anchor
        assert backend.n_refreshes == refreshes + 1
        assert backend._precond_matrix is b

    def test_cooldown_suppresses_proactive_refresh(self):
        a, b = self._matrices()
        backend = KrylovBackend(refresh_iterations=1, refresh_cooldown=100)
        rhs = np.ones(a.shape[0])
        backend.factor(a).solve(rhs)
        solver_b = backend.factor(b)
        solver_b.solve(rhs)
        assert solver_b._last_applies > backend.refresh_iterations
        refreshes = backend.n_refreshes
        solver_b.solve(rhs)  # hysteresis: inside the cooldown window
        assert backend.n_refreshes == refreshes
        assert backend._precond_matrix is a

    def test_forced_refresh_on_nonconvergence(self):
        a, b = self._matrices(scale=400.0)
        # An iteration budget too small to converge from the stale LU.
        backend = KrylovBackend(
            refresh_cooldown=10_000, max_refine=1, restart=2, max_iterations=2
        )
        rhs = np.ones(a.shape[0])
        backend.factor(a).solve(rhs)
        refreshes = backend.n_refreshes
        solver_b = backend.factor(b)
        x = solver_b.solve(rhs)
        # Non-convergence must force a refresh despite the cooldown,
        # and the answer comes from the fresh (exact) factorization.
        assert backend.n_refreshes == refreshes + 1
        assert backend._precond_matrix is b
        np.testing.assert_allclose(b.dot(x), rhs, rtol=1e-9, atol=1e-12)

    def test_refreshes_counted_in_solver_factorizations(self):
        a, b = self._matrices()
        backend = KrylovBackend(refresh_iterations=1, refresh_cooldown=0)
        rhs = np.ones(a.shape[0])
        solver_a = backend.factor(a)
        solver_a.solve(rhs)
        assert solver_a.n_factorizations == 1
        solver_b = backend.factor(b)
        solver_b.solve(rhs)
        solver_b.solve(rhs)  # proactive refresh charged to solver_b
        assert solver_b.n_factorizations == 1


class TestAnchorPool:
    """The multi-slot stale-LU pool: retention, eviction, adoption."""

    def _matrices(self, count, n=12, scale=40.0):
        rng = np.random.default_rng(7)
        base = np.eye(n) * 4.0 + rng.uniform(-0.5, 0.5, (n, n))
        return [
            _csr(base + k * scale * np.diag(rng.uniform(0.5, 1.0, n)))
            for k in range(count)
        ]

    def _anchor_all(self, backend, matrices, rhs):
        """Drive each matrix through iterate -> proactive refresh."""
        solvers = [backend.factor(m) for m in matrices]
        for solver in solvers:
            solver.solve(rhs)
            solver.solve(rhs)
        return solvers

    def test_pool_retains_multiple_anchors(self):
        a, b = self._matrices(2)
        backend = KrylovBackend(refresh_iterations=1, refresh_cooldown=0)
        rhs = np.ones(a.shape[0])
        solver_a, solver_b = self._anchor_all(backend, [a, b], rhs)
        refreshes = backend.n_refreshes
        iterations = backend.n_iterations
        # Both matrices are pooled: alternating solves all take the
        # direct fast path — no iterations, no further refreshes.
        for _ in range(3):
            solver_a.solve(rhs)
            solver_b.solve(rhs)
        assert backend.n_refreshes == refreshes
        assert backend.n_iterations == iterations
        assert len(backend._anchors) == 2

    def test_eviction_beyond_pool_size(self):
        matrices = self._matrices(3)
        backend = KrylovBackend(
            refresh_iterations=1, refresh_cooldown=0, pool_size=2
        )
        rhs = np.ones(matrices[0].shape[0])
        self._anchor_all(backend, matrices, rhs)
        assert len(backend._anchors) == 2
        # LRU eviction: the first-anchored matrix lost its slot.
        pooled = [anchor.matrix for anchor in backend._anchors]
        assert not any(m is matrices[0] for m in pooled)
        assert any(m is matrices[2] for m in pooled)

    def test_pool_size_validated(self):
        with pytest.raises(SimulationError, match="pool_size"):
            KrylovBackend(pool_size=0)

    def test_rebuilt_matrix_adopted_without_iterating(self):
        (a,) = self._matrices(1)
        backend = KrylovBackend()
        rhs = np.ones(a.shape[0])
        backend.factor(a).solve(rhs)  # anchor on A
        iterations = backend.n_iterations
        refreshes = backend.n_refreshes
        # A value-identical rebuild (a dt-cache entry reconstructed
        # after eviction) must be adopted by A's anchor: direct solve,
        # zero iterations, zero refreshes.
        rebuilt = a.copy()
        backend.factor(rebuilt).solve(rhs)
        assert backend.n_iterations == iterations
        assert backend.n_refreshes == refreshes
        assert any(
            anchor.matrix is rebuilt for anchor in backend._anchors
        )

    def test_sketch_fingerprint_picks_nearest_anchor(self):
        a, b, c = self._matrices(3, scale=40.0)
        backend = KrylovBackend(refresh_iterations=1, refresh_cooldown=0)
        rhs = np.ones(a.shape[0])
        solver_a, _, solver_c = self._anchor_all(backend, [a, b, c], rhs)
        # A slight perturbation of A must rank A's anchor nearest (and
        # C's for a C-like matrix) — the sketch fingerprint is a
        # faithful ordering coordinate within one sparsity pattern.
        near_a = _csr(a.toarray() * (1.0 + 1e-6))
        near_c = _csr(c.toarray() * (1.0 + 1e-6))
        sa = backend.factor(near_a)
        sc = backend.factor(near_c)
        assert backend._anchor_for(near_a, sa._scale_proxy()).matrix is a
        assert backend._anchor_for(near_c, sc._scale_proxy()).matrix is c


class TestWaveformEquivalence:
    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    @pytest.mark.parametrize("drive", ["sine", "pulse"])
    def test_mesh_matches_sparse(self, step_control, drive):
        sparse = run_transient(
            MESH.build_circuit(drive=drive),
            _mesh_options("sparse", step_control=step_control),
        )
        krylov = run_transient(
            MESH.build_circuit(drive=drive),
            _mesh_options("krylov", step_control=step_control),
        )
        assert krylov.stats["backend"] == "krylov"
        assert np.array_equal(sparse.t, krylov.t)
        scale = max(float(np.abs(sparse.x).max()), 1e-12)
        np.testing.assert_allclose(
            krylov.x, sparse.x, rtol=1e-6, atol=1e-6 * scale
        )
        counters = krylov.stats["krylov"]
        assert counters["solves"] > 0

    def test_nonlinear_newton_matches_dense(self):
        """Newton steps solve through the cached low-rank update and
        match the dense waveform at the sparse-vs-dense contract."""
        options = dict(t_stop=2e-6, dt=5e-9, step_control="adaptive")
        dense = run_transient(
            _nonlinear_circuit(), TransientOptions(backend="dense", **options)
        )
        krylov = run_transient(
            _nonlinear_circuit(), TransientOptions(backend="krylov", **options)
        )
        assert np.array_equal(krylov.t, dense.t)
        scale = max(float(np.abs(dense.x).max()), 1e-12)
        np.testing.assert_allclose(
            krylov.x, dense.x, rtol=1e-9, atol=1e-9 * scale
        )

    def test_nonlinear_ladder_matches_sparse(self):
        """A diode behind a 200-cell ladder (605 unknowns): the Krylov
        Newton steps agree with sparse to 1e-9 of max |x| without a
        single direct fallback."""
        options = dict(t_stop=0.5e-6, dt=5e-9)
        sparse = run_transient(
            _diode_ladder(200), TransientOptions(backend="sparse", **options)
        )
        krylov = run_transient(
            _diode_ladder(200), TransientOptions(backend="krylov", **options)
        )
        assert krylov.x.shape == (sparse.t.size, 605)
        assert krylov.stats["krylov"]["fallbacks"] == 0
        assert krylov.stats["newton_iterations"] == (
            sparse.stats["newton_iterations"]
        )
        scale = float(np.abs(sparse.x).max())
        np.testing.assert_allclose(
            krylov.x, sparse.x, rtol=1e-9, atol=1e-9 * scale
        )

    def test_solve_dc_equivalence(self):
        dense = solve_dc(_nonlinear_circuit(), backend="dense")
        krylov = solve_dc(_nonlinear_circuit(), backend="krylov")
        np.testing.assert_allclose(krylov.x, dense.x, rtol=1e-8, atol=1e-10)

    def test_run_ac_equivalence(self):
        """Complex AC systems ride the real stale LU (split solves)."""
        freqs = np.linspace(0.5 * F0, 1.5 * F0, 11)
        circuit_d = MESH.build_circuit()
        dense = run_ac(circuit_d, freqs, backend="dense")
        circuit_k = MESH.build_circuit()
        krylov = run_ac(circuit_k, freqs, backend="krylov")
        np.testing.assert_allclose(
            krylov.x, dense.x, rtol=1e-6, atol=1e-6 * np.abs(dense.x).max()
        )

    @pytest.mark.parametrize("step_control", ["fixed", "adaptive"])
    def test_batched_matches_sparse(self, step_control):
        options = dict(
            t_stop=2.0 / F0, dt=0.05 / F0, step_control=step_control
        )
        sparse = run_transient_batched(
            coil_mesh_array(MESH, 4, spread=0.1),
            TransientOptions(backend="sparse", **options),
        )
        krylov = run_transient_batched(
            coil_mesh_array(MESH, 4, spread=0.1),
            TransientOptions(backend="krylov", **options),
        )
        for rs, rk in zip(sparse, krylov):
            scale = max(float(np.abs(rs.x).max()), 1e-12)
            # Iterative solves can flip an adaptive accept decision,
            # so the step sequences need not be identical; compare on
            # the shared time points (the quantized dt ladder makes
            # accepted times exactly representable, so shared points
            # match bit-for-bit).
            _, is_, ik = np.intersect1d(
                np.round(rs.t * F0, 9),
                np.round(rk.t * F0, 9),
                return_indices=True,
            )
            # A single flip desynchronizes the cumulative grid until
            # the controllers re-converge, so require broad (not
            # near-total) overlap.
            assert is_.size >= 0.5 * rs.t.size
            # Divergent step sequences accumulate differences bounded
            # by the controller's LTE budget (lte_reltol=1e-3), not by
            # the linear-solver tolerance; 1e-4 is an order tighter
            # than that budget.  Identical sequences stay at 1e-6.
            rtol = 1e-6 if np.array_equal(rs.t, rk.t) else 1e-4
            np.testing.assert_allclose(
                rk.x[ik], rs.x[is_], rtol=rtol, atol=rtol * scale
            )


class TestHealthGuardDegradation:
    """Satellite: guards skip condest gracefully without a direct LU."""

    def test_transient_guards_note_condest_skip(self):
        options = _mesh_options("krylov")
        options.guards = True
        result = run_transient(MESH.build_circuit(), options)
        kinds = [r.kind for r in result.stats["health"]]
        assert "condest_skipped" in kinds
        note = next(
            r for r in result.stats["health"] if r.kind == "condest_skipped"
        )
        assert note.severity == "info"
        # The note appears once, not once per dt-cache entry.
        assert kinds.count("condest_skipped") == 1
        assert not any(r.severity == "error" for r in result.stats["health"])

    def test_sparse_guards_unaffected(self):
        options = _mesh_options("sparse")
        options.guards = True
        result = run_transient(MESH.build_circuit(), options)
        kinds = [r.kind for r in result.stats["health"]]
        assert "condest_skipped" not in kinds

    def test_batched_guards_note_condest_skip(self):
        options = TransientOptions(
            t_stop=2.0 / F0, dt=0.05 / F0, backend="krylov", guards=True
        )
        results = run_transient_batched(
            coil_mesh_array(MESH, 3, spread=0.1), options
        )
        kinds = [r.kind for r in results[0].stats["health"]]
        assert "condest_skipped" in kinds
        assert kinds.count("condest_skipped") == 1


class TestBlockIsolation:
    """Satellite: a singular sample never poisons its shard-mates."""

    def _blocks(self):
        # Same 3x3 pattern; the middle sample's values are exactly
        # singular (duplicate rows survive any shared column
        # ordering's pivoting with a zero pivot).
        good = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
        bad = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 2.0]]
        good2 = [[5.0, 2.0, 0.0], [2.0, 6.0, 1.0], [0.0, 1.0, 3.0]]
        return [_csr(good), _csr(bad), _csr(good2)]

    def test_blockdiaglu_heterogeneous_zero_pivot(self):
        blocks = self._blocks()
        lu = BlockDiagLU(blocks)
        assert lu.is_singular
        rhs = np.arange(1.0, 10.0)
        out = lu.solve(rhs)
        assert np.isfinite(out).all()
        # Shard-mates get their exact direct solutions...
        np.testing.assert_allclose(
            out[:3], np.linalg.solve(blocks[0].toarray(), rhs[:3]), rtol=1e-12
        )
        np.testing.assert_allclose(
            out[6:], np.linalg.solve(blocks[2].toarray(), rhs[6:]), rtol=1e-12
        )
        # ...and the singular sample its minimum-norm fallback.
        expected, *_ = np.linalg.lstsq(
            blocks[1].toarray(), rhs[3:6], rcond=None
        )
        np.testing.assert_allclose(out[3:6], expected, rtol=1e-10, atol=1e-12)
        cond = lu.condest_blocks()
        assert np.isinf(cond[1]) and np.isfinite(cond[0]) and np.isfinite(cond[2])

    def test_krylov_blockdiag_heterogeneous_zero_pivot(self):
        blocks = self._blocks()
        backend = KrylovBackend()
        lu = backend.factor_blocks(blocks)
        assert lu.is_singular
        rhs = np.arange(1.0, 10.0)
        out = lu.solve(rhs)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(
            out[:3], np.linalg.solve(blocks[0].toarray(), rhs[:3]), rtol=1e-12
        )
        np.testing.assert_allclose(
            out[6:], np.linalg.solve(blocks[2].toarray(), rhs[6:]), rtol=1e-12
        )
        expected, *_ = np.linalg.lstsq(
            blocks[1].toarray(), rhs[3:6], rcond=None
        )
        np.testing.assert_allclose(out[3:6], expected, rtol=1e-10, atol=1e-12)
        # And deliberately no condest hook: that is what the guards'
        # graceful-skip path keys on.
        assert not hasattr(lu, "condest_blocks")

    def test_krylov_blockdiag_matches_blockdiaglu_per_sample(self):
        """Same shared-ordering factorization path: the fast-path
        solves are identical to BlockDiagLU's, sample for sample."""
        good = self._blocks()[::2]  # both nonsingular samples
        rhs = np.arange(1.0, 7.0)
        direct = BlockDiagLU(good).solve(rhs)
        backend = KrylovBackend()
        iterative = backend.factor_blocks(good).solve(rhs)
        assert np.array_equal(direct, iterative)


class TestStiffnessReprobe:
    """Satellite: the stiffness probe re-probes past the first
    stimulus breakpoint, so delayed-pulse batches rank nontrivially."""

    def _circuits(self):
        return coil_mesh_array(MESH, 4, spread=0.3, drive="pulse")

    def _options(self):
        return TransientOptions(t_stop=16.0 / F0, dt=0.05 / F0)

    def test_pulse_batch_ranks_nonzero(self):
        # The pulse is delayed: at t=0 every sample sits exactly at
        # its DC point, so without the post-breakpoint re-probe every
        # ratio would be identically zero and clustering would be
        # noise.
        ratios = probe_stiffness_ratios(self._circuits(), self._options())
        assert ratios is not None
        assert np.all(ratios > 0.0)
        assert np.ptp(ratios) > 0.0  # spread samples rank differently

    def test_reprobe_deterministic(self):
        first = probe_stiffness_ratios(self._circuits(), self._options())
        second = probe_stiffness_ratios(self._circuits(), self._options())
        np.testing.assert_array_equal(first, second)

    def test_sine_batch_unchanged_contract(self):
        # No breakpoints: single-probe behaviour, still advisory.
        circuits = coil_mesh_array(MESH, 4, spread=0.3, drive="sine")
        ratios = probe_stiffness_ratios(circuits, self._options())
        assert ratios is not None and ratios.shape == (4,)

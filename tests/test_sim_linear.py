"""Tests for the sparse linear solver wrappers."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.sim.linear as linear
from repro.errors import ConvergenceError, SolverError
from repro.sim.linear import (
    ConjugateGradientSolver,
    DirectSolver,
    clear_pattern_cache,
    factorization_counters,
    make_solver,
    resolve_solver,
    sparse_lu,
)


def laplacian_spd(n: int) -> sp.csr_matrix:
    """A small SPD matrix (1-D Laplacian plus identity)."""
    main = 2.0 * np.ones(n) + 0.5
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


class TestDirectSolver:
    def test_solves_exactly(self):
        A = laplacian_spd(50)
        x_true = np.linspace(-1, 1, 50)
        solver = DirectSolver(A)
        x = solver.solve(A @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-12)

    def test_solve_many(self):
        A = laplacian_spd(20)
        solver = DirectSolver(A)
        B = np.random.default_rng(0).normal(size=(20, 3))
        X = solver.solve_many(B)
        np.testing.assert_allclose(A @ X, B, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(SolverError):
            DirectSolver(sp.csr_matrix(np.ones((3, 4))))

    def test_rejects_singular(self):
        singular = sp.csr_matrix(np.zeros((4, 4)))
        with pytest.raises(SolverError):
            DirectSolver(singular)

    def test_rejects_wrong_rhs_length(self):
        solver = DirectSolver(laplacian_spd(10))
        with pytest.raises(SolverError):
            solver.solve(np.ones(5))

    def test_factors_reused(self):
        A = laplacian_spd(30)
        solver = DirectSolver(A)
        for _ in range(3):
            b = np.random.default_rng(1).normal(size=30)
            np.testing.assert_allclose(A @ solver.solve(b), b, atol=1e-10)


def grid_laplacian(side: int) -> sp.csc_matrix:
    """A 2-D mesh Laplacian plus a diagonal shift: a symmetric grid pattern."""
    path = sp.diags([-np.ones(side - 1), -np.ones(side - 1)], [-1, 1])
    chain = sp.diags([-np.ones(side - 1), 4.5 * np.ones(side), -np.ones(side - 1)], [-1, 0, 1])
    eye = sp.identity(side)
    return (sp.kron(eye, chain) + sp.kron(path, eye)).tocsc()


class TestSparseLU:
    def test_symmetric_pattern_gets_minimum_degree_ordering(self):
        matrix = grid_laplacian(6)
        symmetric = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        colamd = spla.splu(matrix, permc_spec="COLAMD")
        assert np.any(symmetric.perm_c != colamd.perm_c)
        np.testing.assert_array_equal(sparse_lu(matrix).perm_c, symmetric.perm_c)
        factors = sparse_lu(matrix)
        assert factors.L.nnz + factors.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_unsymmetric_pattern_falls_back_to_colamd(self):
        lil = grid_laplacian(6).tolil()
        lil[0, 20] = 0.3
        lil[7, 33] = -0.2
        matrix = lil.tocsc()
        colamd = spla.splu(matrix, permc_spec="COLAMD")
        symmetric = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        assert np.any(symmetric.perm_c != colamd.perm_c)
        factors = sparse_lu(matrix)
        np.testing.assert_array_equal(factors.perm_c, colamd.perm_c)
        x_true = np.linspace(-1.0, 1.0, matrix.shape[0])
        np.testing.assert_allclose(factors.solve(matrix @ x_true), x_true, atol=1e-13)

    @pytest.mark.parametrize("fmt", ["csc", "csr"])
    def test_unsorted_symmetric_pattern_detected(self, fmt):
        matrix = grid_laplacian(4).asformat(fmt)
        # Same matrix, indices of every column (CSC) or row (CSR) reversed.
        data, indices = [], []
        for start, stop in zip(matrix.indptr[:-1], matrix.indptr[1:]):
            data.append(matrix.data[start:stop][::-1])
            indices.append(matrix.indices[start:stop][::-1])
        shuffled = type(matrix)(
            (np.concatenate(data), np.concatenate(indices), matrix.indptr), shape=matrix.shape
        )
        assert not shuffled.has_sorted_indices
        clear_pattern_cache()
        np.testing.assert_array_equal(sparse_lu(shuffled).perm_c, sparse_lu(matrix).perm_c)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_csr_input_takes_symmetry_from_the_pattern_cache(self, symmetric, monkeypatch):
        lil = grid_laplacian(6).tolil()
        if not symmetric:
            lil[0, 20] = 0.3
            lil[7, 33] = -0.2
        matrix = lil.tocsc()
        expected = sparse_lu(matrix).perm_c
        clear_pattern_cache()

        def no_structural_check(matrix):
            raise AssertionError("CSR input must not re-check its pattern")

        monkeypatch.setattr(linear, "_pattern_is_symmetric", no_structural_check)
        reused = factorization_counters()["symbolic_reuse"]
        for scale in (1.0, 2.0):
            factors = sparse_lu((scale * matrix).tocsr())
            np.testing.assert_array_equal(factors.perm_c, expected)
        assert factorization_counters()["symbolic_reuse"] == reused + 1


class TestConjugateGradientSolver:
    def test_matches_direct(self):
        A = laplacian_spd(80)
        b = np.sin(np.arange(80))
        reference = DirectSolver(A).solve(b)
        for preconditioner in (None, "jacobi"):
            solver = ConjugateGradientSolver(A, preconditioner=preconditioner, rtol=1e-12)
            np.testing.assert_allclose(solver.solve(b), reference, atol=1e-8)

    def test_raises_on_non_convergence(self):
        A = laplacian_spd(100)
        solver = ConjugateGradientSolver(A, preconditioner=None, rtol=1e-14, maxiter=1)
        with pytest.raises(ConvergenceError):
            solver.solve(np.ones(100))

    def test_rejects_unknown_preconditioner(self):
        with pytest.raises(SolverError):
            ConjugateGradientSolver(laplacian_spd(5), preconditioner="magic")

    def test_rejects_non_square(self):
        with pytest.raises(SolverError):
            ConjugateGradientSolver(sp.csr_matrix(np.ones((3, 4))))

    def test_jacobi_requires_positive_diagonal(self):
        bad = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SolverError):
            ConjugateGradientSolver(bad, preconditioner="jacobi")


class TestMakeSolver:
    def test_direct_default(self):
        solver = make_solver(laplacian_spd(5))
        assert isinstance(solver, DirectSolver)

    def test_cg_variants(self):
        assert isinstance(make_solver(laplacian_spd(5), "cg"), ConjugateGradientSolver)

    def test_unknown_method(self):
        with pytest.raises(SolverError):
            make_solver(laplacian_spd(5), "quantum")

    def test_grid_conductance_solvable_by_all_methods(self, small_stamped):
        rhs = small_stamped.rhs(0.0)
        reference = make_solver(small_stamped.conductance).solve(rhs)
        solution = make_solver(small_stamped.conductance, "cg").solve(rhs)
        np.testing.assert_allclose(solution, reference, rtol=1e-6, atol=1e-9)


class TestResolveSolver:
    def test_default_follows_the_form(self):
        assert resolve_solver(None, galerkin=True) == "mean-block-cg"
        assert resolve_solver(None, galerkin=False) == "direct"

    def test_named_backend_kept_where_it_runs(self):
        for name in ("direct", "cg", "mean-block-cg"):
            assert resolve_solver(name, galerkin=True) == name
        assert resolve_solver("cg", galerkin=False) == "cg"

    def test_operator_only_backend_on_n_by_n_runs_direct(self):
        import repro.linalg  # noqa: F401  (registers mean-block-cg)

        assert resolve_solver("mean-block-cg", galerkin=False) == "direct"

    def test_options_for_a_replaced_backend_raise(self):
        import repro.linalg  # noqa: F401  (registers mean-block-cg)
        from repro.sim.dc import solve_dc
        from repro.sim.transient import TransientConfig, run_transient
        from repro.stepping import DecoupledSystemAdapter

        options = {"rtol": 1e-12}
        with pytest.raises(SolverError, match="mean-block-cg.*direct"):
            resolve_solver("mean-block-cg", galerkin=False, options=options)
        # Options a kept backend takes pass through.
        assert resolve_solver("cg", galerkin=False, options=options) == "cg"
        assert resolve_solver("mean-block-cg", galerkin=True, options=options) == "mean-block-cg"

        matrix = laplacian_spd(4)
        rhs = np.ones(4)
        with pytest.raises(SolverError, match="rtol"):
            solve_dc(matrix, rhs, solver="mean-block-cg", **options)
        config = TransientConfig(t_stop=1e-9, dt=0.5e-9, solver="mean-block-cg")
        with pytest.raises(SolverError, match="rtol"):
            run_transient(matrix, matrix, lambda t: rhs, config, solver_options=options)
        with pytest.raises(SolverError, match="rtol"):
            DecoupledSystemAdapter(
                matrix, matrix, 1, None, solver="mean-block-cg", solver_options=options
            )
        # Without options the replacement runs.
        np.testing.assert_allclose(
            solve_dc(matrix, rhs, solver="mean-block-cg"), solve_dc(matrix, rhs), atol=1e-14
        )

    def test_unknown_name_left_for_the_registry(self):
        assert resolve_solver("no-such-solver", galerkin=False) == "no-such-solver"
        with pytest.raises(SolverError, match="direct"):
            make_solver(laplacian_spd(3), resolve_solver("no-such-solver", galerkin=False))


class TestConjugateGradientStats:
    def test_stats_track_iterations_and_residual(self):
        matrix = laplacian_spd(60)
        solver = ConjugateGradientSolver(matrix, rtol=1e-12)
        assert solver.stats["solves"] == 0
        rhs = np.arange(60, dtype=float)
        solver.solve(rhs)
        assert solver.stats["solves"] == 1
        assert solver.stats["last_iterations"] > 0
        assert solver.stats["total_iterations"] == solver.stats["last_iterations"]
        assert solver.stats["last_relative_residual"] < 1e-10
        solver.solve(2.0 * rhs)
        assert solver.stats["solves"] == 2
        assert solver.stats["total_iterations"] >= solver.stats["last_iterations"]

    def test_solve_many_matches_direct_and_warm_starts(self):
        matrix = laplacian_spd(80)
        rhs = np.linspace(0.0, 1.0, 80)
        # Correlated columns, as produced by consecutive transient steps.
        columns = np.column_stack([rhs * (1.0 + 0.01 * j) for j in range(5)])
        solver = ConjugateGradientSolver(matrix, rtol=1e-12)
        expected = DirectSolver(matrix).solve_many(columns)
        assert np.allclose(solver.solve_many(columns), expected, rtol=0, atol=1e-8)
        assert solver.stats["solves"] == 5
        # The warm-started later columns converge faster than the cold first.
        total = solver.stats["total_iterations"]
        first_share = total / 5.0
        assert solver.stats["last_iterations"] < first_share

    def test_solve_many_rejects_wrong_length(self):
        solver = ConjugateGradientSolver(laplacian_spd(10))
        with pytest.raises(SolverError):
            solver.solve_many(np.ones((4, 3)))

    def test_operator_preconditioner_accepted(self):
        import scipy.sparse.linalg as spla

        matrix = laplacian_spd(40)
        inverse_diagonal = 1.0 / matrix.diagonal()
        operator = spla.LinearOperator(matrix.shape, matvec=lambda x: inverse_diagonal * x)
        solver = ConjugateGradientSolver(matrix, preconditioner=operator, rtol=1e-12)
        rhs = np.ones(40)
        assert np.allclose(solver.solve(rhs), DirectSolver(matrix).solve(rhs), rtol=0, atol=1e-9)

    def test_callable_preconditioner_accepted(self):
        matrix = laplacian_spd(40)
        inverse_diagonal = 1.0 / matrix.diagonal()
        solver = ConjugateGradientSolver(
            matrix, preconditioner=lambda x: inverse_diagonal * x, rtol=1e-12
        )
        rhs = np.ones(40)
        assert np.allclose(solver.solve(rhs), DirectSolver(matrix).solve(rhs), rtol=0, atol=1e-9)

    def test_rejects_non_operator_preconditioner(self):
        with pytest.raises(SolverError):
            ConjugateGradientSolver(laplacian_spd(10), preconditioner=3.14)


class TestPatternCacheExposure:
    def test_counters_report_cache_occupancy(self):
        from repro.sim.linear import clear_pattern_cache, factorization_counters

        clear_pattern_cache()
        before = factorization_counters()
        assert before["pattern_cache_entries"] == 0
        assert before["pattern_cache_limit"] >= 1
        make_solver(sp.identity(8, format="csr") * 2.0)
        assert factorization_counters()["pattern_cache_entries"] == 1

    def test_limit_setter_evicts_and_restores(self):
        from repro.sim.linear import (
            clear_pattern_cache,
            factorization_counters,
            set_pattern_cache_limit,
        )

        clear_pattern_cache()
        for size in (5, 6, 7):
            make_solver(sp.identity(size, format="csr") * 3.0)
        assert factorization_counters()["pattern_cache_entries"] == 3
        previous = set_pattern_cache_limit(2)
        try:
            counters = factorization_counters()
            assert counters["pattern_cache_entries"] == 2
            assert counters["pattern_cache_limit"] == 2
            with pytest.raises(SolverError):
                set_pattern_cache_limit(0)
        finally:
            set_pattern_cache_limit(previous)
        assert factorization_counters()["pattern_cache_limit"] == previous

"""The matrix-free linalg subsystem: KronSumOperator + mean-block-cg.

Property-style equivalence suite: every lazy operation (matvec, matmat,
diagonal, mean block, composition, explicit fallback) must match the
explicitly assembled ``sum_m kron(T_m, A_m)`` CSR to near machine precision
across chaos orders 1-3, several germ counts and non-symmetric coefficient
patterns -- plus engine-level checks that the matrix-free ``mean-block-cg``
transient and DC paths reproduce the explicit direct solve.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Analysis
from repro.chaos import PolynomialChaosBasis
from repro.chaos.galerkin import (
    assemble_augmented_matrix,
    assemble_augmented_operator,
)
from repro.chaos.triples import triple_product_tensors
from repro.errors import AnalysisError, SolverError
from repro.linalg import KronSumOperator, MeanBlockCGSolver, is_operator, kron_sum_csr
from repro.opera.engine import build_galerkin_system
from repro.sim.linear import (
    ConjugateGradientSolver,
    make_solver,
    matrix_fingerprint,
    solver_accepts_operator,
    solver_names,
)


def random_sparse(rng: np.random.Generator, n: int, density: float = 0.2) -> sp.csr_matrix:
    """A random (generally non-symmetric) sparse matrix with a full diagonal."""
    mask = rng.random((n, n)) < density
    values = rng.standard_normal((n, n)) * mask
    values[np.arange(n), np.arange(n)] = 1.0 + rng.random(n)
    return sp.csr_matrix(values)


def explicit_sum(terms) -> sp.csr_matrix:
    total = None
    for left, right in terms:
        term = sp.kron(left, right, format="csr")
        total = term if total is None else total + term
    return total.tocsr()


def make_terms(rng, basis_size: int, n: int, num_terms: int):
    """Random kron terms whose first left factor is the identity (the m=0 term)."""
    terms = [(sp.identity(basis_size, format="csr"), random_sparse(rng, n))]
    for _ in range(num_terms - 1):
        left = random_sparse(rng, basis_size, density=0.4)
        terms.append((left, random_sparse(rng, n)))
    return terms


class TestKronSumOperator:
    @pytest.mark.parametrize("basis_size,n,num_terms", [(3, 7, 2), (6, 11, 3), (10, 5, 4)])
    def test_matvec_matches_explicit(self, basis_size, n, num_terms):
        rng = np.random.default_rng(basis_size * 100 + n)
        terms = make_terms(rng, basis_size, n, num_terms)
        operator = KronSumOperator(terms)
        explicit = explicit_sum(terms)
        for trial in range(3):
            x = rng.standard_normal(basis_size * n)
            assert np.allclose(operator.matvec(x), explicit @ x, rtol=0, atol=1e-12)

    def test_matvec_out_buffer(self):
        rng = np.random.default_rng(5)
        terms = make_terms(rng, 4, 6, 2)
        operator = KronSumOperator(terms)
        x = rng.standard_normal(24)
        out = np.full(24, 123.0)  # stale contents must be overwritten
        result = operator.matvec(x, out=out)
        assert result is out
        assert np.allclose(out, explicit_sum(terms) @ x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matmat_matches_explicit(self, k):
        rng = np.random.default_rng(17)
        terms = make_terms(rng, 6, 9, 3)
        operator = KronSumOperator(terms)
        explicit = explicit_sum(terms)
        block = rng.standard_normal((54, k))
        assert np.allclose(operator.matmat(block), explicit @ block, rtol=0, atol=1e-12)
        # The @ operator dispatches on dimensionality.
        assert np.allclose(operator @ block, explicit @ block, rtol=0, atol=1e-12)

    def test_diagonal_matches_explicit(self):
        rng = np.random.default_rng(23)
        terms = make_terms(rng, 5, 8, 3)
        operator = KronSumOperator(terms)
        assert np.allclose(
            operator.diagonal(), explicit_sum(terms).diagonal(), rtol=0, atol=1e-13
        )

    def test_to_csr_matches_explicit(self):
        rng = np.random.default_rng(29)
        terms = make_terms(rng, 4, 10, 3)
        operator = KronSumOperator(terms)
        delta = (operator.to_csr() - explicit_sum(terms)).tocoo()
        assert np.max(np.abs(delta.data)) < 1e-13 if delta.nnz else True
        # Cached: second call returns the same object.
        assert operator.to_csr() is operator.to_csr()

    def test_scalar_and_additive_composition(self):
        rng = np.random.default_rng(31)
        terms_a = make_terms(rng, 4, 7, 2)
        terms_b = make_terms(rng, 4, 7, 3)
        op_a, op_b = KronSumOperator(terms_a), KronSumOperator(terms_b)
        explicit = 2.5 * explicit_sum(terms_a) - 0.5 * explicit_sum(terms_b)
        combined = 2.5 * op_a - 0.5 * op_b
        x = rng.standard_normal(28)
        assert np.allclose(combined @ x, explicit @ x, rtol=0, atol=1e-12)
        assert np.allclose((op_a / 4.0) @ x, (explicit_sum(terms_a) / 4.0) @ x, atol=1e-12)

    def test_identity_terms_merge(self):
        rng = np.random.default_rng(37)
        op_a = KronSumOperator(make_terms(rng, 3, 5, 1))
        op_b = KronSumOperator(make_terms(rng, 3, 5, 1))
        combined = op_a + 2.0 * op_b
        # Both inputs are single identity-left terms: the sum folds to one.
        assert combined.num_terms == 1

    def test_mean_block(self):
        rng = np.random.default_rng(41)
        terms = make_terms(rng, 5, 6, 3)
        operator = KronSumOperator(terms)
        explicit = explicit_sum(terms)[:6, :6].toarray()
        assert np.allclose(operator.mean_block().toarray(), explicit, rtol=0, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(43)
        op_a = KronSumOperator(make_terms(rng, 3, 5, 1))
        op_b = KronSumOperator(make_terms(rng, 5, 3, 1))
        # Same total dimension (15) but incompatible block structure.
        with pytest.raises(SolverError):
            op_a + op_b

    def test_fingerprint_distinguishes_content(self):
        rng = np.random.default_rng(47)
        terms = make_terms(rng, 3, 6, 2)
        op_a = KronSumOperator(terms)
        op_b = KronSumOperator(terms)
        assert op_a.fingerprint() == op_b.fingerprint()
        assert (2.0 * op_a).fingerprint() != op_a.fingerprint()
        assert matrix_fingerprint(op_a) == op_a.fingerprint()

    def test_is_operator(self):
        rng = np.random.default_rng(53)
        operator = KronSumOperator(make_terms(rng, 3, 4, 1))
        assert is_operator(operator)
        assert not is_operator(sp.identity(5, format="csr"))

    def test_kron_sum_csr_weights(self):
        rng = np.random.default_rng(59)
        terms = make_terms(rng, 3, 5, 2)
        weighted = kron_sum_csr(terms, weights=[2.0, -1.0])
        explicit = 2.0 * sp.kron(*terms[0]) - sp.kron(*terms[1])
        delta = (weighted - explicit.tocsr()).tocoo()
        assert np.max(np.abs(delta.data)) < 1e-13 if delta.nnz else True


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("num_vars", [2, 3])
class TestGalerkinOperatorEquivalence:
    """Lazy Galerkin assembly vs the explicit kron across orders and germs."""

    def _coefficients(self, basis, rng, n):
        coefficients = {0: random_sparse(rng, n)}
        for var in range(basis.num_vars):
            coefficients[basis.first_order_index(var)] = random_sparse(rng, n)
        return coefficients

    def test_operator_matches_matrix(self, order, num_vars):
        basis = PolynomialChaosBasis("hermite", order=order, num_vars=num_vars)
        rng = np.random.default_rng(1000 * order + num_vars)
        n = 9
        coefficients = self._coefficients(basis, rng, n)
        explicit = assemble_augmented_matrix(basis, coefficients)
        operator = assemble_augmented_operator(basis, coefficients)
        assert operator.shape == explicit.shape
        for trial in range(3):
            x = rng.standard_normal(basis.size * n)
            assert np.allclose(operator @ x, explicit @ x, rtol=0, atol=1e-12)
        block = rng.standard_normal((basis.size * n, 4))
        assert np.allclose(operator.matmat(block), explicit @ block, rtol=0, atol=1e-12)
        assert np.allclose(operator.diagonal(), explicit.diagonal(), rtol=0, atol=1e-12)
        delta = (operator.to_csr() - explicit).tocoo()
        assert np.max(np.abs(delta.data)) < 1e-12 if delta.nnz else True


class TestTripleProductCache:
    def test_tensors_cached_per_basis(self):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        first = triple_product_tensors(basis, [0, 1, 2])
        second = triple_product_tensors(basis, [1, 2])
        for m in (1, 2):
            assert first[m] is second[m]

    def test_shared_tensors_enable_merging(self, small_system):
        """G and C operators assembled on one basis share left factors."""
        session_basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        galerkin = build_galerkin_system(small_system, session_basis)
        h = 2.0e-10
        stepping = galerkin.conductance_operator + galerkin.capacitance_operator * (1.0 / h)
        separate = (
            galerkin.conductance_operator.num_terms
            + galerkin.capacitance_operator.num_terms
        )
        assert stepping.num_terms < separate  # identity terms folded


class TestGalerkinSystemModes:
    def test_lazy_mode_materialises_on_demand(self, small_system):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        lazy = build_galerkin_system(small_system, basis)
        assert not lazy._matrices  # operators only until the CSR form is asked for
        for which in ("conductance", "capacitance"):
            reference = assemble_augmented_matrix(basis, getattr(lazy, f"{which}_coefficients"))
            delta = (getattr(lazy, which) - reference).tocoo()
            assert (np.max(np.abs(delta.data)) < 1e-12) if delta.nnz else True
        x = np.random.default_rng(3).standard_normal(lazy.size)
        assert np.allclose(lazy.conductance_operator @ x, lazy.conductance @ x, atol=1e-12)

    def test_solver_picks_the_form(self, small_system):
        basis = PolynomialChaosBasis("hermite", order=1, num_vars=2)
        galerkin = build_galerkin_system(small_system, basis)
        for solver in ("mean-block-cg", "cg"):
            assert is_operator(galerkin.for_solver("conductance", solver))
        assert not galerkin._matrices
        assert sp.issparse(galerkin.for_solver("capacitance", "direct"))
        assert set(galerkin._matrices) == {"capacitance"}

    def test_rhs_out_buffer(self, small_system):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        galerkin = build_galerkin_system(small_system, basis)
        reference = galerkin.rhs(1.0e-9)
        buffer = np.full(galerkin.size, 7.0)
        result = galerkin.rhs(1.0e-9, out=buffer)
        assert result is buffer
        assert np.array_equal(result, reference)
        with pytest.raises(AnalysisError):
            galerkin.rhs(0.0, out=np.zeros(galerkin.size + 1))

    def test_rhs_series_matches_pointwise_rhs(self, small_system, fast_transient):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        galerkin = build_galerkin_system(small_system, basis)
        times = fast_transient.times()
        series = galerkin.rhs_series(times)
        buffer = np.empty(galerkin.size)
        for step, t in enumerate(times):
            assert np.array_equal(series.fill(step, buffer), galerkin.rhs(float(t)))
        assert series.active_indices  # the excitation drives at least one block
        assert np.array_equal(series.dense()[3], galerkin.rhs(float(times[3])))


class TestMeanBlockCGSolver:
    def _stepping_operator(self, system, order=2):
        basis = PolynomialChaosBasis("hermite", order=order, num_vars=system.num_variables)
        galerkin = build_galerkin_system(system, basis)
        h = 2.0e-10
        operator = galerkin.conductance_operator + galerkin.capacitance_operator * (1.0 / h)
        return galerkin, operator

    def test_registered_and_operator_aware(self):
        assert "mean-block-cg" in solver_names()
        assert solver_accepts_operator("mean-block-cg")
        assert not solver_accepts_operator("direct")

    def test_matches_direct_solve(self, small_system):
        galerkin, operator = self._stepping_operator(small_system)
        rhs = galerkin.rhs(0.0)
        reference = make_solver(operator.to_csr(), method="direct").solve(rhs)
        solver = make_solver(operator, method="mean-block-cg")
        solution = solver.solve(rhs)
        assert np.max(np.abs(solution - reference)) <= 1e-10 * np.max(np.abs(reference))
        assert solver.stats["solves"] == 1
        assert solver.stats["last_relative_residual"] < 1e-12

    def test_solve_many_warm_start(self, small_system):
        galerkin, operator = self._stepping_operator(small_system)
        rhs = galerkin.rhs(0.0)
        columns = np.column_stack([rhs, 1.01 * rhs, 0.99 * rhs])
        solver = make_solver(operator, method="mean-block-cg")
        expected = make_solver(operator.to_csr(), method="direct").solve_many(columns)
        assert np.allclose(solver.solve_many(columns), expected, rtol=0, atol=1e-9)

    def test_explicit_matrix_rejected(self, small_system):
        _, operator = self._stepping_operator(small_system)
        with pytest.raises(SolverError, match="KronSumOperator"):
            MeanBlockCGSolver(operator.to_csr())

    def test_direct_backend_materialises_operator(self, small_system):
        galerkin, operator = self._stepping_operator(small_system, order=1)
        rhs = galerkin.rhs(0.0)
        direct = make_solver(operator, method="direct")  # auto to_csr()
        reference = make_solver(operator.to_csr(), method="direct").solve(rhs)
        assert np.allclose(direct.solve(rhs), reference, rtol=0, atol=1e-13)

    def test_cg_backend_accepts_operator(self, small_system):
        galerkin, operator = self._stepping_operator(small_system, order=1)
        rhs = galerkin.rhs(0.0)
        solver = make_solver(operator, method="cg", rtol=1e-12)
        assert isinstance(solver, ConjugateGradientSolver)
        reference = make_solver(operator.to_csr(), method="direct").solve(rhs)
        assert np.allclose(solver.solve(rhs), reference, rtol=0, atol=1e-8)


class TestMatrixFreeEngine:
    """Engine-level accuracy contract: matrix-free vs explicit direct."""

    @pytest.fixture(scope="class")
    def session(self):
        return Analysis.from_spec(300, seed=11).with_transient(t_stop=2.0e-9, dt=0.2e-9)

    def test_transient_mean_std_match_direct(self, session):
        direct = session.run("opera", order=2, solver="direct")
        matrix_free = session.run("opera", order=2, solver="mean-block-cg")
        assert (direct.solver, matrix_free.solver) == ("direct", "mean-block-cg")
        mean_scale = np.max(np.abs(direct.mean()))
        std_scale = np.max(np.abs(direct.std()))
        assert np.max(np.abs(matrix_free.mean() - direct.mean())) <= 1e-10 * mean_scale
        assert np.max(np.abs(matrix_free.std() - direct.std())) <= 1e-10 * std_scale

    def test_transient_order3(self, session):
        direct = session.run("opera", order=3, solver="direct")
        matrix_free = session.run("opera", order=3, solver="mean-block-cg")
        assert np.max(np.abs(matrix_free.mean() - direct.mean())) <= 1e-10 * np.max(
            np.abs(direct.mean())
        )
        assert np.max(np.abs(matrix_free.std() - direct.std())) <= 1e-10 * np.max(
            np.abs(direct.std())
        )

    def test_dc_matches_direct(self, session):
        direct = session.run("opera", mode="dc", order=2, solver="direct")
        matrix_free = session.run("opera", mode="dc", order=2, solver="mean-block-cg")
        assert np.max(np.abs(matrix_free.mean() - direct.mean())) <= 1e-10 * np.max(
            np.abs(direct.mean())
        )
        assert np.max(np.abs(matrix_free.std() - direct.std())) <= 1e-10 * np.max(
            np.abs(direct.std())
        )

    def test_mixed_representations_rejected(self, session):
        from repro.sim.transient import TransientConfig, run_transient

        galerkin = session.galerkin(2)
        config = TransientConfig(t_stop=1e-9, dt=0.5e-9)
        with pytest.raises(SolverError, match="both"):
            run_transient(
                galerkin.conductance_operator,
                galerkin.capacitance,  # explicit CSR: incompatible mix
                galerkin.rhs,
                config,
            )

    def test_dc_rejects_bad_assemble(self, session):
        # The solver picks the Galerkin form; ``assemble`` is no option.
        for mode in ("dc", "transient"):
            with pytest.raises(AnalysisError, match="unknown option.*assemble"):
                session.run("opera", mode=mode, order=2, assemble="lazy")

    def test_operator_solver_never_builds_the_kron_sum(self):
        session = Analysis.from_spec(60, seed=5).with_transient(t_stop=1.0e-9, dt=0.2e-9)
        session.run("opera", order=2, solver="mean-block-cg")
        session.run("opera", mode="dc", order=2, solver="mean-block-cg")
        assert session.galerkin(2)._matrices == {}
        session.run("opera", order=2, solver="direct")
        assert set(session.galerkin(2)._matrices) == {"conductance", "capacitance"}

    def test_solver_stats_report_mean_block_cg(self, session):
        result = session.run("opera", order=2, solver="mean-block-cg")
        assert result.solver_stats is not None
        assert "mean-block-cg" in result.solver_stats
        assert result.solver_stats["mean-block-cg"]["solves"] > 0

    def test_session_caches_operator_solvers(self, session):
        before = session.cache_info()["solver"]["size"]
        session.run("opera", order=2, solver="mean-block-cg")
        session.run("opera", order=2, solver="mean-block-cg")
        after = session.cache_info()["solver"]["size"]
        # Second run reuses the cached operator-backed factorisations.
        assert after == before


class TestSweepSolverField:
    def test_case_name_and_key(self):
        from repro.sweep import SweepCase

        case = SweepCase(engine="opera", nodes=100, order=2, solver="mean-block-cg")
        assert case.name == "opera-n100-o2-mean-block-cg-paper"
        assert case.key() == ("opera", 100, 2, None, "paper", "mean-block-cg")
        assert case.run_options()["solver"] == "mean-block-cg"
        plain = SweepCase(engine="opera", nodes=100, order=2)
        assert plain.key() == ("opera", 100, 2, None, "paper")

    def test_seed_identity_matches_grid_convention(self):
        from repro.sweep import SweepCase, SweepPlan, case_seed_for

        plan = SweepPlan.grid([120], engines=("opera",), orders=(2,), base_seed=9)
        (case,) = plan.cases
        # The grid builder derives seeds exactly from seed_identity().
        assert case.seed == case_seed_for(9, case.seed_identity())
        # Optional fields join the identity only when set.
        assert case.seed_identity() == ("opera", 120, 2, None, "paper")
        solver_case = SweepCase(engine="opera", nodes=120, order=2, solver="mean-block-cg")
        assert solver_case.seed_identity() == (
            "opera",
            120,
            2,
            None,
            "paper",
            "mean-block-cg",
        )

    def test_sweep_runs_matrix_free_case(self):
        import dataclasses

        from repro.sweep import SweepCase, SweepPlan, SweepRunner, case_seed_for

        base_seed = 5
        matrix_free = SweepCase(
            engine="opera", nodes=120, order=2, grid_seed=1, solver="mean-block-cg"
        )
        cases = (
            SweepCase(engine="opera", nodes=120, order=2, grid_seed=1, seed=17),
            dataclasses.replace(
                matrix_free,
                seed=case_seed_for(base_seed, matrix_free.seed_identity()),
            ),
        )
        plan = SweepPlan.grid([120], engines=("opera",), orders=(2,), base_seed=base_seed)
        plan = type(plan)(cases=cases, transient=plan.transient, base_seed=base_seed)
        outcome = SweepRunner(keep_statistics=True).run(plan)
        direct, matrix_free = outcome.results
        assert matrix_free.solver == "mean-block-cg"
        assert matrix_free.to_record()["solver"] == "mean-block-cg"
        assert np.allclose(matrix_free.mean, direct.mean, rtol=0, atol=1e-10)
        assert np.allclose(matrix_free.std, direct.std, rtol=0, atol=1e-10)

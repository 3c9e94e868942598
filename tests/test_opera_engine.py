"""Tests for the OPERA engine: DC, transient, special case, config, report."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.opera.config import OperaConfig
from repro.opera.engine import (
    build_basis,
    build_galerkin_system,
    run_opera_dc,
    run_opera_transient,
)
from repro.opera.report import summarize
from repro.opera.special_case import run_decoupled_transient
from repro.sim.dc import dc_operating_point
from repro.sim.transient import TransientConfig, transient_analysis


class TestOperaConfig:
    def test_defaults(self, fast_transient):
        config = OperaConfig(transient=fast_transient)
        assert config.order == 2
        assert config.store_coefficients
        # No solver named anywhere: the run resolves one from the system's form.
        assert config.solver is None
        assert config.effective_transient.solver is None

    def test_solver_override(self, fast_transient):
        config = OperaConfig(transient=fast_transient, solver="cg")
        assert config.effective_transient.solver == "cg"

    def test_rejects_negative_order(self, fast_transient):
        with pytest.raises(AnalysisError):
            OperaConfig(transient=fast_transient, order=-1)


class TestBasisAndGalerkinConstruction:
    def test_basis_matches_variables(self, small_system):
        basis = build_basis(small_system, order=2)
        assert basis.num_vars == small_system.num_variables
        assert basis.size == 6  # 2 vars, order 2 -> the paper's six terms

    def test_galerkin_dimensions(self, small_system):
        basis = build_basis(small_system, order=2)
        galerkin = build_galerkin_system(small_system, basis)
        n = small_system.num_nodes
        assert galerkin.conductance.shape == (6 * n, 6 * n)
        assert galerkin.capacitance.shape == (6 * n, 6 * n)
        assert galerkin.rhs(0.0).shape == (6 * n,)

    def test_augmented_matrix_symmetric(self, small_system):
        basis = build_basis(small_system, order=2)
        galerkin = build_galerkin_system(small_system, basis)
        assert abs(galerkin.conductance - galerkin.conductance.T).max() < 1e-12

    def test_order_one_and_three_sizes(self, small_system):
        assert build_basis(small_system, order=1).size == 3
        assert build_basis(small_system, order=3).size == 10


class TestOperaDC:
    def test_mean_matches_nominal_dc(self, small_system, small_stamped):
        """With symmetric germs and a first-order model the mean response is
        very close to the nominal DC solution (difference is second order)."""
        field = run_opera_dc(small_system, order=2, t=0.3e-9)
        nominal = dc_operating_point(small_stamped, t=0.3e-9)
        worst = np.max(nominal.drops)
        assert np.max(np.abs(field.mean - nominal.voltages)) < 0.02 * worst

    def test_variance_positive_where_drop_exists(self, small_system):
        field = run_opera_dc(small_system, order=2, t=0.3e-9)
        drops = field.vdd - field.mean
        significant = drops > 0.25 * drops.max()
        assert np.all(field.variance[significant] > 0)

    def test_order_zero_has_no_variance(self, small_system):
        field = run_opera_dc(small_system, order=0, t=0.3e-9)
        np.testing.assert_allclose(field.variance, 0.0)

    def test_node_names_carried(self, small_system):
        field = run_opera_dc(small_system, order=1)
        assert field.node_names == small_system.node_names


class TestOperaTransient:
    def test_result_shapes(self, small_system, fast_opera_config):
        result = run_opera_transient(small_system, fast_opera_config)
        assert result.num_times == fast_opera_config.transient.num_steps + 1
        assert result.num_nodes == small_system.num_nodes
        assert result.coefficients.shape == (result.num_times, 6, result.num_nodes)
        assert result.wall_time is not None and result.wall_time > 0

    def test_initial_condition_is_stochastic_dc(self, small_system, fast_opera_config):
        result = run_opera_transient(small_system, fast_opera_config)
        dc_field = run_opera_dc(small_system, order=2, t=0.0)
        np.testing.assert_allclose(result.coefficients[0], dc_field.coefficients, atol=1e-9)

    def test_mean_close_to_nominal_transient(self, small_system, small_stamped, fast_opera_config):
        """The paper observes mu with variations ~= nominal mu0; check it."""
        result = run_opera_transient(small_system, fast_opera_config)
        nominal = transient_analysis(small_stamped, fast_opera_config.transient)
        worst = nominal.worst_drop()
        assert np.max(np.abs(result.mean_voltage - nominal.voltages)) < 0.03 * worst

    def test_variance_nonnegative_everywhere(self, small_system, fast_opera_config):
        result = run_opera_transient(small_system, fast_opera_config)
        assert np.all(result.variance >= 0)

    def test_statistics_only_mode_matches_full(self, small_system, fast_transient):
        full = run_opera_transient(small_system, OperaConfig(transient=fast_transient, order=2))
        stats = run_opera_transient(
            small_system,
            OperaConfig(transient=fast_transient, order=2, store_coefficients=False),
        )
        assert not stats.has_coefficients
        np.testing.assert_allclose(stats.mean_voltage, full.mean_voltage, atol=1e-12)
        np.testing.assert_allclose(stats.variance, full.variance, atol=1e-15)

    def test_cg_solver_matches_direct(self, small_system, fast_transient):
        direct = run_opera_transient(small_system, OperaConfig(transient=fast_transient, order=2))
        iterative = run_opera_transient(
            small_system, OperaConfig(transient=fast_transient, order=2, solver="cg")
        )
        np.testing.assert_allclose(
            iterative.mean_voltage, direct.mean_voltage, rtol=1e-6, atol=1e-8
        )

    def test_trapezoidal_method_supported(self, small_system):
        transient = TransientConfig(t_stop=1.0e-9, dt=0.2e-9, method="trapezoidal")
        result = run_opera_transient(small_system, OperaConfig(transient=transient, order=2))
        assert np.all(np.isfinite(result.mean_voltage))

    def test_order_one_less_accurate_than_order_two_variance(self, small_system, fast_transient):
        """Order-1 and order-2 variances agree to leading order but are not
        identical; order-2 adds the quadratic correction terms."""
        order1 = run_opera_transient(small_system, OperaConfig(transient=fast_transient, order=1))
        order2 = run_opera_transient(small_system, OperaConfig(transient=fast_transient, order=2))
        sigma1 = order1.std_drop.max()
        sigma2 = order2.std_drop.max()
        assert sigma1 == pytest.approx(sigma2, rel=0.15)
        assert sigma1 != pytest.approx(sigma2, rel=1e-9)


class TestSpecialCase:
    def test_decoupled_rejects_matrix_variation(self, small_system, fast_opera_config):
        with pytest.raises(AnalysisError):
            run_decoupled_transient(small_system, fast_opera_config)

    def test_decoupled_matches_forced_coupled_solution(self, small_leakage_system, fast_transient):
        """Eq. (27): the decoupled path equals the full Galerkin solve."""
        decoupled = run_opera_transient(
            small_leakage_system, OperaConfig(transient=fast_transient, order=2)
        )
        coupled = run_opera_transient(
            small_leakage_system,
            OperaConfig(transient=fast_transient, order=2, force_coupled=True),
        )
        np.testing.assert_allclose(decoupled.coefficients, coupled.coefficients, atol=1e-10)

    def test_engine_dispatches_to_decoupled_path(self, small_leakage_system, fast_opera_config):
        result = run_opera_transient(small_leakage_system, fast_opera_config)
        assert result.has_coefficients
        assert np.all(result.variance >= 0)

    def test_decoupled_statistics_only_mode(self, small_leakage_system, fast_transient):
        config = OperaConfig(transient=fast_transient, order=2, store_coefficients=False)
        result = run_opera_transient(small_leakage_system, config)
        assert not result.has_coefficients
        assert np.all(result.variance >= 0)

    def test_leakage_variance_grows_with_vth_sigma(
        self, small_stamped, small_grid_spec, fast_transient
    ):
        from repro.variation import LeakageVariationSpec, RegionPartition, build_leakage_system

        partition = RegionPartition(
            nx=small_grid_spec.nx, ny=small_grid_spec.ny, region_rows=2, region_cols=1
        )
        small = build_leakage_system(small_stamped, partition, LeakageVariationSpec(vth_sigma=0.01))
        large = build_leakage_system(small_stamped, partition, LeakageVariationSpec(vth_sigma=0.05))
        config = OperaConfig(transient=fast_transient, order=2)
        sigma_small = run_opera_transient(small, config).std_drop.max()
        sigma_large = run_opera_transient(large, config).std_drop.max()
        assert sigma_large > 3.0 * sigma_small

    def test_trapezoidal_decoupled(self, small_leakage_system):
        transient = TransientConfig(t_stop=1.0e-9, dt=0.2e-9, method="trapezoidal")
        result = run_opera_transient(
            small_leakage_system, OperaConfig(transient=transient, order=2)
        )
        assert np.all(np.isfinite(result.mean_voltage))


class TestReport:
    def test_summary_fields(self, small_system, small_stamped, fast_opera_config):
        result = run_opera_transient(small_system, fast_opera_config)
        nominal = transient_analysis(small_stamped, fast_opera_config.transient)
        report = summarize(result, nominal)
        assert report.vdd == pytest.approx(small_stamped.vdd)
        assert 0 < report.peak_mean_drop_percent_vdd < 10.0
        assert 10.0 < report.average_three_sigma_percent < 60.0
        assert len(report.node_summaries) == 10
        assert report.worst_node.peak_mean_drop >= max(
            s.peak_mean_drop for s in report.node_summaries[1:]
        )

    def test_summary_without_nominal(self, small_system, fast_opera_config):
        result = run_opera_transient(small_system, fast_opera_config)
        report = summarize(result)
        assert report.average_three_sigma_percent > 0

    def test_summary_string_rendering(self, small_system, fast_opera_config):
        result = run_opera_transient(small_system, fast_opera_config)
        text = str(summarize(result))
        assert "worst node" in text
        assert "% of the nominal drop" in text

    def test_summary_rejects_streaming_nominal(
        self, small_system, small_stamped, fast_opera_config
    ):
        result = run_opera_transient(small_system, fast_opera_config)
        nominal = transient_analysis(small_stamped, fast_opera_config.transient, store=False)
        with pytest.raises(AnalysisError):
            summarize(result, nominal)

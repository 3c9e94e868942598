"""Tests for the extension modules: spatial intra-die variation and Sobol'
variance decomposition."""

import numpy as np
import pytest

from repro.analysis.sobol import sobol_indices, transient_total_indices
from repro.chaos.basis import PolynomialChaosBasis
from repro.chaos.response import StochasticField
from repro.errors import AnalysisError, VariationModelError
from repro.grid import GridSpec, generate_power_grid, stamp
from repro.montecarlo import MonteCarloConfig, run_monte_carlo_transient
from repro.opera import OperaConfig, run_opera_transient
from repro.sim import TransientConfig
from repro.variation import (
    RegionPartition,
    SpatialVariationSpec,
    VariationSpec,
    build_spatial_stochastic_system,
    build_stochastic_system,
)


# ---------------------------------------------------------------------------
# Spatial intra-die variation
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def spatial_setup():
    spec = GridSpec(nx=10, ny=10, num_layers=2, num_blocks=4, pad_spacing=2, seed=3)
    netlist = generate_power_grid(spec)
    stamped = stamp(netlist)
    partition = RegionPartition(nx=10, ny=10, region_rows=2, region_cols=2)
    return spec, netlist, stamped, partition


class TestSpatialVariationSpec:
    def test_defaults_valid(self):
        spec = SpatialVariationSpec()
        assert spec.sigma_g > 0
        assert spec.correlation_length > 0

    def test_validation(self):
        with pytest.raises(VariationModelError):
            SpatialVariationSpec(sigma_w=0.5)
        with pytest.raises(VariationModelError):
            SpatialVariationSpec(correlation_length=0.0)
        with pytest.raises(VariationModelError):
            SpatialVariationSpec(energy_fraction=0.0)
        with pytest.raises(VariationModelError):
            SpatialVariationSpec(node_pitch=-1.0)
        with pytest.raises(VariationModelError):
            SpatialVariationSpec(max_components=0)


class TestBuildSpatialSystem:
    def test_germ_count_bounded_by_regions(self, spatial_setup):
        _, netlist, stamped, partition = spatial_setup
        system = build_spatial_stochastic_system(
            netlist, partition, SpatialVariationSpec(), stamped=stamped
        )
        # at most one germ per region per field (two fields: G and L)
        assert 2 <= system.num_variables <= 2 * partition.num_regions
        assert all(name.startswith("xi_") for name in system.variable_names())

    def test_max_components_cap(self, spatial_setup):
        _, netlist, stamped, partition = spatial_setup
        system = build_spatial_stochastic_system(
            netlist, partition, SpatialVariationSpec(max_components=1), stamped=stamped
        )
        assert system.num_variables == 2  # one G germ + one L germ

    def test_single_field_selection(self, spatial_setup):
        _, netlist, stamped, partition = spatial_setup
        system = build_spatial_stochastic_system(
            netlist,
            partition,
            SpatialVariationSpec(vary_channel_length=False, max_components=2),
            stamped=stamped,
        )
        assert all(name.startswith("xi_G") for name in system.variable_names())
        assert system.c_sensitivities == {}

    def test_no_fields_rejected(self, spatial_setup):
        _, netlist, stamped, partition = spatial_setup
        with pytest.raises(VariationModelError):
            build_spatial_stochastic_system(
                netlist,
                partition,
                SpatialVariationSpec(vary_conductance=False, vary_channel_length=False),
                stamped=stamped,
            )

    def test_region_sensitivities_cover_whole_conductance(self, spatial_setup):
        """With full correlation the per-region pieces sum to the inter-die model."""
        _, netlist, stamped, partition = spatial_setup
        spec = SpatialVariationSpec(
            correlation_length=1.0e9,  # effectively fully correlated die
            energy_fraction=1.0 - 1e-15,
            vary_channel_length=False,
        )
        system = build_spatial_stochastic_system(netlist, partition, spec, stamped=stamped)
        # One dominant germ should carry (almost) the entire inter-die sensitivity.
        total = sum(abs(m).sum() for m in system.g_sensitivities.values())
        inter_die = build_stochastic_system(
            stamped, VariationSpec(pads_vary=True, vary_capacitance=False, vary_currents=False)
        )
        expected = abs(list(inter_die.g_sensitivities.values())[0]).sum()
        assert total == pytest.approx(expected, rel=0.02)

    def test_long_correlation_recovers_inter_die_sigma(self, spatial_setup):
        """With an effectively infinite correlation length the spatial model
        must reproduce the inter-die (single-germ) response sigma."""
        _, netlist, stamped, partition = spatial_setup
        transient = TransientConfig(t_stop=1.0e-9, dt=0.2e-9)
        spatial = build_spatial_stochastic_system(
            netlist,
            partition,
            SpatialVariationSpec(correlation_length=1.0e9),
            stamped=stamped,
        )
        inter = build_stochastic_system(stamped, VariationSpec.paper_defaults())
        spatial_result = run_opera_transient(spatial, OperaConfig(transient=transient, order=2))
        inter_result = run_opera_transient(inter, OperaConfig(transient=transient, order=2))
        hot = inter_result.std_drop > 0.25 * inter_result.std_drop.max()
        np.testing.assert_allclose(
            spatial_result.std_drop[hot], inter_result.std_drop[hot], rtol=0.05
        )

    def test_short_correlation_reduces_sigma(self, spatial_setup):
        """Uncorrelated local variation partially averages out, so the response
        sigma must be smaller than in the fully correlated (inter-die) case."""
        _, netlist, stamped, partition = spatial_setup
        transient = TransientConfig(t_stop=1.0e-9, dt=0.2e-9)
        correlated = build_spatial_stochastic_system(
            netlist, partition, SpatialVariationSpec(correlation_length=1.0e9), stamped=stamped
        )
        local = build_spatial_stochastic_system(
            netlist, partition, SpatialVariationSpec(correlation_length=1.0), stamped=stamped
        )
        sigma_correlated = run_opera_transient(
            correlated, OperaConfig(transient=transient, order=2)
        ).std_drop.max()
        sigma_local = run_opera_transient(
            local, OperaConfig(transient=transient, order=2)
        ).std_drop.max()
        assert sigma_local < 0.9 * sigma_correlated

    def test_spatial_opera_matches_monte_carlo(self, spatial_setup):
        _, netlist, stamped, partition = spatial_setup
        transient = TransientConfig(t_stop=1.0e-9, dt=0.2e-9)
        system = build_spatial_stochastic_system(
            netlist,
            partition,
            SpatialVariationSpec(correlation_length=100.0, max_components=2),
            stamped=stamped,
        )
        opera = run_opera_transient(system, OperaConfig(transient=transient, order=2))
        mc = run_monte_carlo_transient(
            system,
            MonteCarloConfig(transient=transient, num_samples=80, seed=3, antithetic=True),
        )
        from repro.analysis import compare_to_monte_carlo

        metrics = compare_to_monte_carlo(opera, mc)
        assert metrics.average_mean_error_percent < 0.5
        assert metrics.average_sigma_error_percent < 25.0

    def test_requires_generator_style_names(self):
        from repro.grid.netlist import PowerGridNetlist

        netlist = PowerGridNetlist()
        netlist.add_pad("top", 0.1, 1.0)
        netlist.add_resistor("top", "other", 1.0)
        netlist.add_current_source("other", 1e-3)
        partition = RegionPartition(nx=2, ny=2)
        with pytest.raises(VariationModelError):
            build_spatial_stochastic_system(netlist, partition)


# ---------------------------------------------------------------------------
# Sobol' indices
# ---------------------------------------------------------------------------
class TestSobolIndices:
    @pytest.fixture(scope="class")
    def basis(self):
        return PolynomialChaosBasis("hermite", order=2, num_vars=2)

    def test_pure_single_variable_field(self, basis):
        """A response depending only on germ 0 has S_0 = 1, S_1 = 0."""
        coefficients = np.zeros((basis.size, 1))
        coefficients[0] = 1.0
        coefficients[basis.first_order_index(0)] = 0.3
        coefficients[basis.index_of((2, 0))] = 0.1
        indices = sobol_indices(StochasticField(basis, coefficients))
        assert indices.first_order[0, 0] == pytest.approx(1.0)
        assert indices.first_order[1, 0] == pytest.approx(0.0)
        assert indices.total_effect[0, 0] == pytest.approx(1.0)
        assert indices.interaction[0] == pytest.approx(0.0)

    def test_interaction_term_counted_in_both_totals(self, basis):
        coefficients = np.zeros((basis.size, 1))
        coefficients[basis.index_of((1, 1))] = 0.2  # pure interaction
        indices = sobol_indices(StochasticField(basis, coefficients))
        assert indices.first_order[0, 0] == pytest.approx(0.0)
        assert indices.total_effect[0, 0] == pytest.approx(1.0)
        assert indices.total_effect[1, 0] == pytest.approx(1.0)
        assert indices.interaction[0] == pytest.approx(1.0)

    def test_partition_of_variance(self, basis, rng):
        """First-order indices plus the interaction fraction must equal one."""
        coefficients = rng.normal(size=(basis.size, 4))
        indices = sobol_indices(StochasticField(basis, coefficients))
        total = indices.first_order.sum(axis=0) + indices.interaction
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_zero_variance_entries_get_zero_indices(self, basis):
        coefficients = np.zeros((basis.size, 2))
        coefficients[0] = [1.0, 1.0]
        coefficients[1, 1] = 0.5
        indices = sobol_indices(StochasticField(basis, coefficients))
        assert indices.first_order[0, 0] == 0.0
        assert indices.total_effect[1, 0] == 0.0

    def test_variable_names_validated(self, basis):
        field = StochasticField(basis, np.zeros((basis.size, 1)))
        with pytest.raises(AnalysisError):
            sobol_indices(field, variable_names=["only-one"])

    def test_ranked_ordering(self, basis):
        coefficients = np.zeros((basis.size, 1))
        coefficients[basis.first_order_index(0)] = 0.1
        coefficients[basis.first_order_index(1)] = 0.4
        indices = sobol_indices(StochasticField(basis, coefficients), ["a", "b"])
        ranked = indices.ranked(0)
        assert ranked[0][0] == "b"
        assert ranked[0][1] > ranked[1][1]

    def test_transient_wrapper_names_and_sum(self, small_system, fast_opera_config):
        result = run_opera_transient(small_system, fast_opera_config)
        worst = result.worst_node()
        indices = transient_total_indices(
            result, worst, variable_names=small_system.variable_names()
        )
        assert set(indices.keys()) == set(small_system.variable_names())
        # total-effect indices each lie in [0, 1] and jointly cover the variance
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in indices.values())
        assert sum(indices.values()) >= 0.99

    def test_transient_wrapper_requires_coefficients(self, small_system, fast_transient):
        config = OperaConfig(transient=fast_transient, order=2, store_coefficients=False)
        result = run_opera_transient(small_system, config)
        with pytest.raises(AnalysisError):
            transient_total_indices(result, 0)

"""Tests for the stochastic-system builders (Eq. (13)-(14)) and the leakage model."""

import math
import pickle

import numpy as np
import pytest

from repro.chaos.basis import PolynomialChaosBasis
from repro.errors import VariationModelError
from repro.grid.netlist import PowerGridNetlist
from repro.grid.stamping import StampedSystem, stamp
from repro.variation.leakage import LeakageVariationSpec, RegionLeakageExcitation
from repro.variation.model import (
    AffineExcitation,
    GermVariable,
    StochasticSystem,
    SummedExcitation,
    VariationSpec,
    build_stochastic_system,
)
from repro.variation.regions import RegionPartition
from repro.variation.spatial import (
    SpatialVariationSpec,
    _region_conductances,
    _spatial_germs,
    build_spatial_stochastic_system,
)


class TestVariationSpec:
    def test_paper_defaults_match_section6(self):
        spec = VariationSpec.paper_defaults()
        assert spec.sigma_w == pytest.approx(0.20 / 3.0)
        assert spec.sigma_t == pytest.approx(0.15 / 3.0)
        assert spec.sigma_l == pytest.approx(0.20 / 3.0)
        assert spec.gate_cap_fraction == pytest.approx(0.40)

    def test_combined_conductance_sigma_is_25_percent_at_3sigma(self):
        """20% W and 15% T at 3-sigma combine to 25% in xi_G (Eq. (14))."""
        spec = VariationSpec.paper_defaults()
        assert 3.0 * spec.sigma_g * 100.0 == pytest.approx(25.0)

    def test_from_three_sigma_percent(self):
        spec = VariationSpec.from_three_sigma_percent(w=30.0, t=0.0, l=12.0)
        assert spec.sigma_w == pytest.approx(0.10)
        assert spec.sigma_t == 0.0
        assert spec.sigma_l == pytest.approx(0.04)

    def test_rejects_unphysical_sigmas(self):
        with pytest.raises(VariationModelError):
            VariationSpec(sigma_w=0.5)
        with pytest.raises(VariationModelError):
            VariationSpec(sigma_l=-0.1)

    def test_rejects_bad_gate_fraction(self):
        with pytest.raises(VariationModelError):
            VariationSpec(gate_cap_fraction=1.2)


class TestAffineExcitation:
    def test_sample_is_affine_in_germs(self):
        nominal = lambda t: np.array([1.0, 2.0])
        sensitivity = lambda t: np.array([0.1, -0.2])
        excitation = AffineExcitation(nominal, {1: sensitivity}, num_variables=2)
        np.testing.assert_allclose(excitation.sample(0.0, np.array([5.0, 0.0])), [1.0, 2.0])
        np.testing.assert_allclose(
            excitation.sample(0.0, np.array([0.0, 2.0])), [1.2, 1.6]
        )

    def test_pc_coefficients_use_first_order_indices(self):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        excitation = AffineExcitation(
            lambda t: np.array([1.0]), {0: lambda t: np.array([0.5])}, num_variables=2
        )
        coefficients = excitation.pc_coefficients(basis, 0.0)
        assert set(coefficients.keys()) == {0, basis.first_order_index(0)}
        np.testing.assert_allclose(coefficients[basis.first_order_index(0)], [0.5])

    def test_nominal_equals_zero_germ_sample(self):
        excitation = AffineExcitation(
            lambda t: np.array([3.0]), {0: lambda t: np.array([1.0])}, num_variables=1
        )
        np.testing.assert_allclose(excitation.nominal(0.0), [3.0])

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(VariationModelError):
            AffineExcitation(lambda t: np.zeros(1), {3: lambda t: np.zeros(1)}, num_variables=2)

    def test_summed_excitation(self):
        a = AffineExcitation(lambda t: np.array([1.0]), {}, num_variables=1)
        b = AffineExcitation(
            lambda t: np.array([2.0]), {0: lambda t: np.array([1.0])}, num_variables=1
        )
        total = SummedExcitation([a, b])
        np.testing.assert_allclose(total.sample(0.0, np.array([1.0])), [4.0])
        basis = PolynomialChaosBasis("hermite", order=1, num_vars=1)
        coefficients = total.pc_coefficients(basis, 0.0)
        np.testing.assert_allclose(coefficients[0], [3.0])

    def test_summed_requires_consistent_germs(self):
        a = AffineExcitation(lambda t: np.zeros(1), {}, num_variables=1)
        b = AffineExcitation(lambda t: np.zeros(1), {}, num_variables=2)
        with pytest.raises(VariationModelError):
            SummedExcitation([a, b])
        with pytest.raises(VariationModelError):
            SummedExcitation([])


class TestDrainWeightedExcitation:
    """The builders' excitations evaluate the drain currents once per call
    and reproduce the per-germ formulas they replaced."""

    TIMES = (0.0, 0.35e-9, 1.1e-9)

    @pytest.fixture()
    def drain_calls(self, monkeypatch):
        calls = []
        original = StampedSystem.drain_current_vector

        def counting(stamped, t, include_leakage=True):
            calls.append(t)
            return original(stamped, t, include_leakage)

        monkeypatch.setattr(StampedSystem, "drain_current_vector", counting)
        return calls

    @pytest.fixture(scope="class")
    def spatial(self, small_netlist, small_stamped, small_grid_spec):
        partition = RegionPartition(
            nx=small_grid_spec.nx, ny=small_grid_spec.ny, region_rows=2, region_cols=2
        )
        spec = SpatialVariationSpec(correlation_length=150.0, energy_fraction=0.98)
        system = build_spatial_stochastic_system(
            small_netlist, partition, spec, stamped=small_stamped
        )
        return partition, spec, system

    @staticmethod
    def _spatial_rows(netlist, stamped, partition, spec, system, t):
        """The per-germ rows as the per-region closures computed them."""
        transform = _spatial_germs(partition, spec.node_pitch, spec)
        components = transform.shape[1]
        region_currents = [np.zeros(stamped.num_nodes) for _ in range(partition.num_regions)]
        for source in netlist.current_sources:
            row, col = (int(part) for part in source.node.split("_")[1:])
            region = partition.region_of(row, col)
            region_currents[region][netlist.node_index(source.node)] += float(source.waveform(t))
        _, region_pads = _region_conductances(netlist, partition, include_pads=spec.pads_vary)
        rows = {}
        for component in range(components):
            pad_vector = np.zeros(stamped.num_nodes)
            for region in range(partition.num_regions):
                weight = spec.sigma_g * transform[region, component]
                if weight != 0.0:
                    pad_vector = pad_vector + weight * region_pads[region]
            rows[component] = pad_vector
            weights = spec.sigma_l * transform[:, component]
            current = np.zeros(stamped.num_nodes)
            for region, weight in enumerate(weights):
                if weight:
                    current -= spec.current_leff_sensitivity * weight * region_currents[region]
            rows[components + component] = current
        assert len(rows) == system.num_variables
        return rows

    def test_one_drain_evaluation_per_call(self, small_system, spatial, drain_calls):
        _, _, spatial_system = spatial
        for system in (small_system, spatial_system):
            basis = PolynomialChaosBasis("hermite", order=2, num_vars=system.num_variables)
            xi = np.linspace(-1.0, 1.0, system.num_variables)
            for t in self.TIMES:
                drain_calls.clear()
                system.excitation.sample(t, xi)
                assert drain_calls == [t]
                drain_calls.clear()
                system.excitation.pc_coefficients(basis, t)
                assert drain_calls == [t]

    def test_inter_die_bit_identical_to_per_germ_formulas(self, small_system, small_stamped):
        spec = VariationSpec.paper_defaults()
        excitation = small_system.excitation
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        xi = np.array([0.8, -1.7])
        for t in self.TIMES:
            pad_row = spec.sigma_g * small_stamped.pad_current
            scale = spec.current_leff_sensitivity * spec.sigma_l
            leff_row = -scale * small_stamped.drain_current_vector(t)
            expected = np.array(small_stamped.rhs(t), copy=True)
            expected += xi[0] * pad_row
            expected += xi[1] * leff_row
            assert excitation.sample(t, xi).tobytes() == expected.tobytes()
            coefficients = excitation.pc_coefficients(basis, t)
            assert set(coefficients) == {0, basis.first_order_index(0), basis.first_order_index(1)}
            assert coefficients[0].tobytes() == small_stamped.rhs(t).tobytes()
            assert coefficients[basis.first_order_index(0)].tobytes() == pad_row.tobytes()
            assert coefficients[basis.first_order_index(1)].tobytes() == leff_row.tobytes()

    def test_spatial_matches_per_region_formulas(self, small_netlist, small_stamped, spatial):
        partition, spec, system = spatial
        assert partition.num_regions == 4
        basis = PolynomialChaosBasis("hermite", order=1, num_vars=system.num_variables)
        xi = np.linspace(-1.5, 1.2, system.num_variables)
        for t in self.TIMES:
            rows = self._spatial_rows(small_netlist, small_stamped, partition, spec, system, t)
            expected = np.array(small_stamped.rhs(t), copy=True)
            for var, row in rows.items():
                expected += xi[var] * row
            # Equal up to the sign of zeros: ``0 - x`` became ``-x``.
            np.testing.assert_array_equal(system.excitation.sample(t, xi), expected)
            coefficients = system.excitation.pc_coefficients(basis, t)
            np.testing.assert_array_equal(coefficients[0], small_stamped.rhs(t))
            for var, row in rows.items():
                np.testing.assert_array_equal(
                    coefficients.get(basis.first_order_index(var), 0.0 * row), row
                )

    def test_spatial_system_pickles(self, spatial):
        _, _, system = spatial
        restored = pickle.loads(pickle.dumps(system))
        basis = PolynomialChaosBasis("hermite", order=1, num_vars=system.num_variables)
        xi = np.linspace(-1.0, 1.0, system.num_variables)
        for t in self.TIMES:
            np.testing.assert_array_equal(
                restored.excitation.sample(t, xi), system.excitation.sample(t, xi)
            )
            original = system.excitation.pc_coefficients(basis, t)
            copied = restored.excitation.pc_coefficients(basis, t)
            assert set(copied) == set(original)
            for index, vector in original.items():
                np.testing.assert_array_equal(copied[index], vector)

    def test_drain_form_validation(self, small_stamped):
        with pytest.raises(VariationModelError, match="exactly one"):
            AffineExcitation(None, {}, 1)
        with pytest.raises(VariationModelError, match="exactly one"):
            AffineExcitation(small_stamped.rhs, {}, 1, drain=small_stamped)
        with pytest.raises(VariationModelError, match="drain system"):
            AffineExcitation(small_stamped.rhs, {}, 1, drain_weights={0: 1.0})
        with pytest.raises(VariationModelError, match="shape"):
            AffineExcitation(None, {}, 1, drain=small_stamped, drain_weights={0: np.ones(3)})
        with pytest.raises(VariationModelError, match="variable 2"):
            AffineExcitation(None, {}, 2, drain=small_stamped, drain_weights={2: 1.0})
        with pytest.raises(VariationModelError, match="not both"):
            AffineExcitation(
                None,
                {0: lambda t: small_stamped.pad_current},
                1,
                drain=small_stamped,
                drain_weights={0: 1.0},
            )


class TestBuildStochasticSystem:
    def test_paper_model_has_two_germs(self, small_stamped):
        system = build_stochastic_system(small_stamped, VariationSpec.paper_defaults())
        assert system.variable_names() == ("xi_G", "xi_L")
        assert all(family == "hermite" for family in system.variable_families())

    def test_separate_wtl_has_three_germs(self, small_stamped):
        system = build_stochastic_system(small_stamped, VariationSpec(combine_wt=False))
        assert system.variable_names() == ("xi_W", "xi_T", "xi_L")

    def test_conductance_sensitivity_is_scaled_nominal(self, small_stamped):
        """Gg = sigma_G * Ga when pads vary (the Gb = d*Ga structure of Sec. 5)."""
        spec = VariationSpec.paper_defaults()
        system = build_stochastic_system(small_stamped, spec)
        g_index = system.variable_names().index("xi_G")
        expected = (spec.sigma_g * small_stamped.conductance).toarray()
        np.testing.assert_allclose(system.g_sensitivities[g_index].toarray(), expected, atol=1e-15)

    def test_pads_not_varying_excludes_package(self, small_stamped):
        spec = VariationSpec(pads_vary=False)
        system = build_stochastic_system(small_stamped, spec)
        g_index = system.variable_names().index("xi_G")
        expected = (spec.sigma_g * small_stamped.g_wire).toarray()
        np.testing.assert_allclose(system.g_sensitivities[g_index].toarray(), expected, atol=1e-15)

    def test_capacitance_sensitivity_uses_gate_caps(self, small_stamped):
        spec = VariationSpec.paper_defaults()
        system = build_stochastic_system(small_stamped, spec)
        l_index = system.variable_names().index("xi_L")
        expected = (spec.sigma_l * small_stamped.c_gate).toarray()
        np.testing.assert_allclose(system.c_sensitivities[l_index].toarray(), expected, atol=1e-25)

    def test_untagged_caps_fall_back_to_fraction(self):
        netlist = PowerGridNetlist()
        netlist.add_pad("a", 0.1, 1.0)
        netlist.add_resistor("a", "b", 1.0)
        netlist.add_capacitor("b", "0", 1e-12)  # not tagged as gate load
        netlist.add_current_source("b", 1e-3)
        stamped = stamp(netlist)
        spec = VariationSpec.paper_defaults()
        system = build_stochastic_system(stamped, spec)
        l_index = system.variable_names().index("xi_L")
        expected = spec.sigma_l * spec.gate_cap_fraction * 1e-12
        assert system.c_sensitivities[l_index].toarray()[1, 1] == pytest.approx(expected)

    def test_excitation_sensitivities(self, small_stamped):
        """dU/dxi_G = sigma_G * pad current; dU/dxi_L = -k * sigma_l * i(t)."""
        spec = VariationSpec.paper_defaults()
        system = build_stochastic_system(small_stamped, spec)
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        t = 0.3e-9
        coefficients = system.excitation.pc_coefficients(basis, t)
        g_term = coefficients[basis.first_order_index(0)]
        l_term = coefficients[basis.first_order_index(1)]
        np.testing.assert_allclose(g_term, spec.sigma_g * small_stamped.pad_current)
        np.testing.assert_allclose(
            l_term,
            -spec.current_leff_sensitivity * spec.sigma_l * small_stamped.drain_current_vector(t),
        )

    def test_realize_matrices_at_zero_is_nominal(self, small_system, small_stamped):
        G, C = small_system.realize_matrices(np.zeros(small_system.num_variables))
        np.testing.assert_allclose(G.toarray(), small_stamped.conductance.toarray())
        np.testing.assert_allclose(C.toarray(), small_stamped.capacitance.toarray())

    def test_realize_matrices_affine_in_germ(self, small_system):
        xi = np.array([1.5, -0.5])
        G, _ = small_system.realize_matrices(xi)
        g_index = small_system.variable_names().index("xi_G")
        expected = (small_system.g_nominal + 1.5 * small_system.g_sensitivities[g_index]).toarray()
        np.testing.assert_allclose(G.toarray(), expected)

    def test_realize_rejects_wrong_shape(self, small_system):
        with pytest.raises(VariationModelError):
            small_system.realize_matrices(np.zeros(5))

    def test_disabling_everything_raises(self, small_stamped):
        spec = VariationSpec(vary_conductance=False, vary_capacitance=False, vary_currents=False)
        with pytest.raises(VariationModelError):
            build_stochastic_system(small_stamped, spec)

    def test_has_matrix_variation_flag(self, small_system, small_leakage_system):
        assert small_system.has_matrix_variation
        assert not small_leakage_system.has_matrix_variation

    def test_system_validation(self, small_stamped):
        with pytest.raises(VariationModelError):
            StochasticSystem(
                variables=(GermVariable("xi"),),
                g_nominal=small_stamped.conductance,
                c_nominal=small_stamped.capacitance,
                g_sensitivities={5: small_stamped.conductance},
                c_sensitivities={},
                excitation=AffineExcitation(small_stamped.rhs, {}, num_variables=1),
                vdd=small_stamped.vdd,
            )


class TestLeakageSpec:
    def test_lognormal_sigma(self):
        spec = LeakageVariationSpec(vth_sigma=0.03, subthreshold_factor=1.5, thermal_voltage=0.0259)
        assert spec.lognormal_sigma == pytest.approx(0.03 / (1.5 * 0.0259))

    def test_hermite_coefficients_mean_preserving(self):
        spec = LeakageVariationSpec(vth_sigma=0.02)
        coefficients = spec.hermite_coefficients(4)
        assert coefficients[0] == pytest.approx(1.0)
        s = spec.lognormal_sigma
        assert coefficients[2] == pytest.approx(s**2 / math.sqrt(2.0))

    def test_factor_statistics(self, rng):
        spec = LeakageVariationSpec(vth_sigma=0.03)
        factors = spec.factor(rng.standard_normal(200000))
        assert np.mean(factors) == pytest.approx(1.0, rel=0.01)
        assert np.all(factors > 0)

    def test_non_mean_preserving_inflates_mean(self, rng):
        spec = LeakageVariationSpec(vth_sigma=0.03, mean_preserving=False)
        s = spec.lognormal_sigma
        factors = spec.factor(rng.standard_normal(200000))
        assert np.mean(factors) == pytest.approx(math.exp(0.5 * s * s), rel=0.01)

    def test_validation(self):
        with pytest.raises(VariationModelError):
            LeakageVariationSpec(vth_sigma=-0.01)
        with pytest.raises(VariationModelError):
            LeakageVariationSpec(subthreshold_factor=0.0)


class TestRegionLeakageExcitation:
    def test_number_of_variables_matches_regions(self, small_leakage_system):
        assert small_leakage_system.num_variables == 2
        assert small_leakage_system.variable_names() == ("xi_vth_r0", "xi_vth_r1")

    def test_mean_excitation_matches_nominal_rhs(self, small_stamped, small_leakage_system):
        """With the mean-preserving lognormal, E[U] equals the nominal RHS."""
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        coefficients = small_leakage_system.excitation.pc_coefficients(basis, 0.0)
        np.testing.assert_allclose(coefficients[0], small_stamped.rhs(0.0), atol=1e-15)

    def test_zero_germ_sample_below_mean_for_lognormal(self, small_stamped, small_leakage_system):
        """The lognormal is right-skewed: the xi=0 sample draws less leakage
        than the mean-preserving average, so the RHS at xi=0 is larger (less
        negative) than the nominal RHS wherever leakage is attached."""
        at_zero = small_leakage_system.excitation.sample(0.0, np.zeros(2))
        nominal = small_stamped.rhs(0.0)
        assert np.all(at_zero - nominal >= -1e-18)
        assert np.any(at_zero - nominal > 0)

    def test_positive_germ_increases_leakage_draw(self, small_leakage_system):
        zero = small_leakage_system.excitation.sample(0.0, np.zeros(2))
        plus = small_leakage_system.excitation.sample(0.0, np.array([3.0, 3.0]))
        # more leakage -> more current drawn -> smaller (more negative) RHS entries
        assert np.sum(plus) < np.sum(zero)

    def test_region_germs_act_only_on_their_region(self, small_stamped, small_grid_spec):
        partition = RegionPartition(
            nx=small_grid_spec.nx, ny=small_grid_spec.ny, region_rows=2, region_cols=1
        )
        excitation = RegionLeakageExcitation(small_stamped, partition)
        base = excitation.sample(0.0, np.zeros(2))
        bumped = excitation.sample(0.0, np.array([2.0, 0.0]))
        changed = np.nonzero(np.abs(bumped - base) > 1e-18)[0]
        region_map = partition.region_map(small_stamped.node_names)
        assert len(changed) > 0
        assert np.all(region_map[changed] == 0)

    def test_pc_coefficients_reconstruct_samples(self, small_stamped, small_grid_spec, rng):
        """The chaos expansion of the excitation converges to exact samples."""
        partition = RegionPartition(
            nx=small_grid_spec.nx, ny=small_grid_spec.ny, region_rows=2, region_cols=1
        )
        spec = LeakageVariationSpec(vth_sigma=0.02)
        excitation = RegionLeakageExcitation(small_stamped, partition, spec)
        basis = PolynomialChaosBasis("hermite", order=4, num_vars=2)
        coefficients = excitation.pc_coefficients(basis, 0.0)
        xi = rng.standard_normal((50, 2))
        psi = basis.evaluate(xi)
        stacked = np.zeros((basis.size, small_stamped.num_nodes))
        for index, vector in coefficients.items():
            stacked[index] = vector
        reconstructed = psi @ stacked
        exact = np.vstack([excitation.sample(0.0, point) for point in xi])
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(reconstructed - exact)) / scale < 1e-4

    def test_requires_tagged_leakage_sources(self):
        netlist = PowerGridNetlist()
        netlist.add_pad("n0_0_0", 0.1, 1.0)
        netlist.add_resistor("n0_0_0", "n0_1_0", 1.0)
        netlist.add_current_source("n0_1_0", 1e-3)  # not tagged as leakage
        stamped = stamp(netlist)
        partition = RegionPartition(nx=2, ny=2, region_rows=2, region_cols=1)
        with pytest.raises(VariationModelError):
            RegionLeakageExcitation(stamped, partition)

    def test_sample_rejects_wrong_shape(self, small_leakage_system):
        with pytest.raises(VariationModelError):
            small_leakage_system.excitation.sample(0.0, np.zeros(5))

    def test_build_leakage_system_is_rhs_only(self, small_leakage_system):
        assert small_leakage_system.g_sensitivities == {}
        assert small_leakage_system.c_sensitivities == {}
        assert not small_leakage_system.has_matrix_variation

    def test_region_leakage_vectors_cover_all_leakage(self, small_stamped, small_grid_spec):
        partition = RegionPartition(
            nx=small_grid_spec.nx, ny=small_grid_spec.ny, region_rows=2, region_cols=2
        )
        excitation = RegionLeakageExcitation(small_stamped, partition)
        total = sum(v.sum() for v in excitation.region_leakage_vectors)
        leak = small_stamped.drain_current_vector(0.0) - small_stamped.drain_current_vector(
            0.0, include_leakage=False
        )
        assert total == pytest.approx(leak.sum(), rel=1e-12)

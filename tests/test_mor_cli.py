"""Tests for the PRIMA model-order-reduction extension and the CLI."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.cli import build_parser, main
from repro.mor.prima import prima_reduce
from repro.sim.dc import solve_dc
from repro.sim.transient import TransientConfig


class TestPrimaReduction:
    @pytest.fixture(scope="class")
    def reduced(self, small_stamped):
        ports = np.array(
            sorted(
                set(small_stamped.source_nodes[:4].tolist())
                | set(small_stamped.pad_nodes[:2].tolist())
            )
        )
        model = prima_reduce(
            small_stamped.conductance, small_stamped.capacitance, ports, num_moments=3
        )
        return model, ports

    def test_reduced_dimensions(self, reduced, small_stamped):
        model, ports = reduced
        assert model.order <= 3 * ports.size
        assert model.order < small_stamped.num_nodes
        assert model.projection.shape == (small_stamped.num_nodes, model.order)
        assert model.num_ports == ports.size

    def test_projection_is_orthonormal(self, reduced):
        model, _ = reduced
        gram = model.projection.T @ model.projection
        np.testing.assert_allclose(gram, np.eye(model.order), atol=1e-10)

    def test_reduced_matrices_symmetric_positive(self, reduced):
        model, _ = reduced
        np.testing.assert_allclose(model.conductance, model.conductance.T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(model.conductance)
        assert eigenvalues.min() > 0

    def test_dc_port_response_preserved(self, reduced, small_stamped):
        """PRIMA matches the zeroth moment: DC response to port injections."""
        model, ports = reduced
        injection = np.zeros(ports.size)
        injection[0] = 1e-3
        full_rhs = np.zeros(small_stamped.num_nodes)
        full_rhs[ports[0]] = 1e-3
        full = solve_dc(small_stamped.conductance, full_rhs)
        reduced_states = np.linalg.solve(model.conductance, model.input_map @ injection)
        approx = model.expand(reduced_states)
        np.testing.assert_allclose(approx[ports], full[ports], rtol=1e-6, atol=1e-12)

    def test_transient_runs_on_reduced_model(self, reduced):
        model, ports = reduced
        config = TransientConfig(t_stop=1e-9, dt=0.2e-9)
        result = model.transient(lambda t: 1e-3 * np.ones(ports.size), config)
        assert result.voltages.shape[1] == model.order

    def test_input_matrix_form(self, small_stamped):
        n = small_stamped.num_nodes
        B = np.zeros((n, 2))
        B[0, 0] = 1.0
        B[1, 1] = 1.0
        model = prima_reduce(small_stamped.conductance, small_stamped.capacitance, B, num_moments=2)
        assert model.num_ports == 2

    def test_validation(self, small_stamped):
        with pytest.raises(SolverError):
            prima_reduce(
                small_stamped.conductance,
                small_stamped.capacitance,
                np.array([0]),
                num_moments=0,
            )
        with pytest.raises(SolverError):
            prima_reduce(
                small_stamped.conductance,
                small_stamped.capacitance,
                np.array([small_stamped.num_nodes + 5]),
            )


class TestCLI:
    def test_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "out.sp", "--nodes", "100"])
        assert args.command == "generate"
        args = parser.parse_args(["analyze", "--synthetic-nodes", "100"])
        assert args.command == "analyze"
        args = parser.parse_args(["compare", "--synthetic-nodes", "100", "--samples", "10"])
        assert args.samples == 10

    def test_analyze_rejects_removed_assemble_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--synthetic-nodes", "60", "--assemble", "lazy"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --assemble lazy" in err

    def test_generate_writes_deck(self, tmp_path, capsys):
        output = tmp_path / "grid.sp"
        code = main(["generate", str(output), "--nodes", "80", "--seed", "3"])
        assert code == 0
        assert output.exists()
        assert "wrote" in capsys.readouterr().out

    def test_analyze_synthetic_grid(self, capsys):
        code = main(
            [
                "analyze",
                "--synthetic-nodes",
                "80",
                "--seed",
                "2",
                "--t-stop",
                "1e-9",
                "--dt",
                "0.25e-9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst node" in out
        assert "3sigma" in out

    def test_analyze_spice_deck(self, tmp_path, capsys):
        output = tmp_path / "grid.sp"
        main(["generate", str(output), "--nodes", "80", "--seed", "3"])
        code = main(["analyze", "--spice", str(output), "--t-stop", "1e-9", "--dt", "0.25e-9"])
        assert code == 0
        assert "VDD" in capsys.readouterr().out

    def test_compare_prints_table_row(self, capsys):
        code = main(
            [
                "compare",
                "--synthetic-nodes",
                "60",
                "--seed",
                "4",
                "--samples",
                "8",
                "--t-stop",
                "1e-9",
                "--dt",
                "0.25e-9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Speedup" in out
        assert "OPERA vs Monte Carlo" in out

    def test_custom_three_sigma_option(self, capsys):
        code = main(
            [
                "analyze",
                "--synthetic-nodes",
                "60",
                "--three-sigma",
                "10",
                "5",
                "10",
                "--t-stop",
                "1e-9",
                "--dt",
                "0.5e-9",
            ]
        )
        assert code == 0

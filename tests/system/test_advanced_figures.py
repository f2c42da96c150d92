"""SVG figure generation from the Fig. 9/Fig. 10 sweeps."""

import pytest

from repro.errors import ConfigurationError
from repro.figures import FIGURES, generate_figures, render_chart
from repro.sweeps import forward_stage_sweep


class TestFigures:
    def test_chart_is_valid_svg(self):
        svg = render_chart(forward_stage_sweep(), "test chart")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        for name in ("ARM", "NEON", "FPGA"):
            assert name in svg
        assert "polyline" in svg

    def test_generate_all_figures(self, tmp_path):
        paths = generate_figures(tmp_path)
        assert len(paths) == len(FIGURES)
        for path in paths:
            assert path.exists()
            assert path.read_text().startswith("<svg")

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            generate_figures(tmp_path, names=("fig99",))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            render_chart([], "empty")

    def test_cli_figures_command(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["figures", "--output", str(tmp_path / "figs")]) == 0
        assert (tmp_path / "figs" / "fig9a.svg").exists()

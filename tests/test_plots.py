"""SVG rendering and CSV writing."""

from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from overfly import DroneParams, average_density, segment_energy
from overfly.plots import Series, render_svg, write_csv


class TestSeries:
    def test_style_validated(self):
        with pytest.raises(ValueError):
            Series(label="a", points=((0.0, 1.0),), style="dots")

    def test_points_shape_validated(self):
        with pytest.raises(ValueError):
            Series(label="a", points=((1.0,),))


class TestRenderSvg:
    def test_scatter_structure(self):
        svg = render_svg(
            [Series(label="runs", points=((0.0, 1.0), (1.0, 2.0), (2.0, 0.5)))],
            title="demo",
            x_label="xs",
            y_label="ys",
        )
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "demo" in svg and "xs" in svg and "ys" in svg
        # three data markers plus one legend swatch
        assert svg.count('class="marker"') == 4
        assert 'class="legend-entry"' in svg

    def test_line_series_renders_polyline(self):
        svg = render_svg(
            [Series(label="trace", points=((0.0, 0.0), (1.0, 1.0)), style="line")],
            title="t", x_label="x", y_label="y",
        )
        assert 'class="trace"' in svg

    def test_annotation_rendered(self):
        svg = render_svg(
            [Series(label="s", points=((0.0, 0.0),))],
            title="t", x_label="x", y_label="y", annotation="r=0.812",
        )
        assert "r=0.812" in svg and 'class="annotation"' in svg

    def test_empty_input_warns_but_renders(self):
        with pytest.warns(UserWarning, match="no points"):
            svg = render_svg([], title="t", x_label="x", y_label="y")
        assert svg.startswith("<svg")

    def test_degenerate_range_still_finite(self):
        svg = render_svg(
            [Series(label="s", points=((5.0, 5.0), (5.0, 5.0)))],
            title="t", x_label="x", y_label="y",
        )
        assert "NaN" not in svg and "inf" not in svg

    def test_multiple_series_get_distinct_colors(self):
        svg = render_svg(
            [
                Series(label="a", points=((0.0, 0.0),)),
                Series(label="b", points=((1.0, 1.0),)),
            ],
            title="t", x_label="x", y_label="y",
        )
        assert svg.count('class="legend-entry"') == 2

    def test_markup_escaped_as_saxutils_does(self):
        texts = ['a & b <c> "d"', "'e' &amp; >f<", "&&<<>>", '"', ""]
        for text in texts:
            svg = render_svg(
                [Series(label=f"label {text}", points=((0.0, 0.0),))],
                title=f"title {text}", x_label=f"x {text}", y_label=f"y {text}",
                annotation=f"note {text}",
            )
            for kind in ("label", "title", "x", "y", "note"):
                assert f">{sax_escape(f'{kind} {text}')}</text>" in svg, (kind, text)
            assert "<c>" not in svg and ">f<" not in svg


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [(1, 2.5), (3, 0.1)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert len(lines) == 3

    def test_numpy_energy_writes_as_a_float(self, tmp_path):
        # A drone mass given as a numpy scalar gives the same energy, written
        # as the same digits.
        rows = []
        for mass in (np.float64(1.5), 1.5):
            params = DroneParams(weight_kg=mass)
            energy = segment_energy(10.0, 10.0, average_density(0.0, 10.0, params), params)
            write_csv(tmp_path / "out.csv", ["energy_j"], [(energy,)])
            rows.append((tmp_path / "out.csv").read_text(encoding="utf-8"))
        assert rows[0] == rows[1]
        assert "np." not in rows[0]

    def test_float_repr_preserves_precision(self, tmp_path):
        path = tmp_path / "out.csv"
        value = 0.1 + 0.2  # 0.30000000000000004
        write_csv(path, ["v"], [(value,)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert float(lines[1]) == value

"""Tests for result containers and their serialization."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.suite.results import ResultSet, Series, SeriesPoint

FIGURES_DIR = Path(__file__).resolve().parent.parent / "results" / "figures"


def sample_set() -> ResultSet:
    result = ResultSet(
        name="figX", title="Test Figure", x_label="Ratio", metadata={"d": 1}
    )
    a = Series(label="4870 Pixel Float")
    a.add(SeriesPoint(x=0.5, seconds=1.0, gprs=17, bound="fetch"))
    a.add(SeriesPoint(x=1.0, seconds=1.2, gprs=17, bound="alu"))
    b = Series(label="4870 Pixel Float4")
    b.add(SeriesPoint(x=0.5, seconds=4.0))
    result.add_series(a)
    result.add_series(b)
    return result


class TestSeries:
    def test_accessors(self):
        series = sample_set().get("4870 Pixel Float")
        assert series.xs() == [0.5, 1.0]
        assert series.ys() == [1.0, 1.2]
        assert len(series) == 2

    def test_unknown_label(self):
        with pytest.raises(KeyError, match="no series"):
            sample_set().get("nope")

    def test_labels(self):
        assert sample_set().labels() == [
            "4870 Pixel Float",
            "4870 Pixel Float4",
        ]


class TestSerialization:
    def test_json_roundtrip(self):
        original = sample_set()
        restored = ResultSet.from_json(original.to_json())
        assert restored.name == original.name
        assert restored.metadata == original.metadata
        assert restored.get("4870 Pixel Float").points == original.get(
            "4870 Pixel Float"
        ).points

    def test_save_load(self, tmp_path):
        original = sample_set()
        path = tmp_path / "fig.json"
        original.save(path)
        assert ResultSet.load(path).to_json() == original.to_json()

    def test_csv_header_and_rows(self):
        csv = sample_set().to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "Ratio,4870 Pixel Float,4870 Pixel Float4"
        assert lines[1].startswith("0.5,1.000000,4.000000")
        assert lines[2].startswith("1,1.200000,")  # missing cell empty

    def test_format_table(self):
        table = sample_set().format_table()
        assert "Test Figure" in table
        assert "0.5" in table
        assert "4.000" in table

    @settings(max_examples=25, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.1, 100, allow_nan=False),
                st.floats(0.001, 1000, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_json_roundtrip_property(self, points):
        result = ResultSet(name="p", title="t", x_label="x")
        series = Series(label="s")
        for x, y in points:
            series.add(SeriesPoint(x=x, seconds=y))
        result.add_series(series)
        restored = ResultSet.from_json(result.to_json())
        assert restored.get("s").xs() == series.xs()
        assert restored.get("s").ys() == series.ys()


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


class TestPortableArtifacts:
    def test_saved_figure_holds_no_absolute_path(self, tmp_path):
        from repro.arch import RV770
        from repro.suite import run_suite

        run_suite(
            figures=["fig13"],
            gpus=(RV770,),
            fast=True,
            out_dir=tmp_path,
            telemetry_out=tmp_path / "manifest.jsonl",
        )
        saved = json.loads((tmp_path / "fig13.json").read_text())
        assert saved["manifest"] == "manifest.jsonl"
        assert not any(os.path.isabs(s) for s in _strings(saved))

    def test_committed_figures_hold_no_absolute_path(self):
        paths = sorted(FIGURES_DIR.glob("*.json"))
        assert paths
        for path in paths:
            saved = json.loads(path.read_text())
            assert not any(os.path.isabs(s) for s in _strings(saved)), path

"""The HTML dashboard: data assembly and self-contained rendering."""

import pytest

from repro.obs.registry import RunRegistry
from repro.obs.report import (
    _sparkline_svg,
    build_report,
    render_report,
    write_report,
)

from .conftest import PAIRED_POINTS


@pytest.fixture(autouse=True)
def _pinned_sha(monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbeef")


@pytest.fixture
def populated(tmp_path, fabricate):
    """Three runs of one sweep; in the latest, LB loses to noLB."""
    registry = RunRegistry(tmp_path / "registry")
    for i in range(2):
        spec, result = fabricate("smoke", PAIRED_POINTS)
        registry.ingest_sweep(spec, result, created_utc=f"2026-08-06T1{i}:00:00Z")
    slow_lb = [dict(p) for p in PAIRED_POINTS]
    slow_lb[1] = {**slow_lb[1], "app_time": 4.5}  # LB slower than noLB
    spec, result = fabricate("smoke", slow_lb)
    registry.ingest_sweep(spec, result, created_utc="2026-08-06T12:00:00Z")
    return registry


def test_build_report_assembles_everything(populated):
    data = build_report(populated.root)
    assert len(data["runs"]) == 3
    assert data["total_points"] == 9
    assert data["latest_sha"] == "feedbeef"

    # figure validation judges the latest run's interfered pair only
    (row,) = data["figure_rows"]
    assert row["sweep"] == "smoke"
    assert row["nolb_s"] == 2.0 and row["lb_s"] == 4.5
    assert row["holds"] is False


def test_render_report_is_self_contained_html(populated):
    data = build_report(populated.root)
    html = render_report(data)
    assert html.startswith("<!DOCTYPE html>")
    # strictly self-contained: no external fetches of any kind
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html
    assert "<link" not in html
    # content made it in
    assert data["runs"][-1]["run_id"] in html
    # status is icon + label, never color alone
    assert "▲ violated" in html
    assert "prefers-color-scheme: dark" in html


def test_render_report_empty_registry(tmp_path):
    data = build_report(tmp_path / "registry")
    html = render_report(data)
    assert "The registry is empty." in html
    assert "No interfered LB/noLB pairs" in html


def test_report_escapes_untrusted_strings(tmp_path, fabricate):
    registry = RunRegistry(tmp_path / "registry")
    spec, result = fabricate("x<script>alert(1)</script>",
                             [{"label": "<b>&nasty"}])
    registry.ingest_sweep(spec, result, created_utc="2026-08-06T10:00:00Z")
    html = render_report(build_report(registry.root))
    assert "<script>" not in html
    assert "&lt;script&gt;" in html


def test_write_report(populated, tmp_path):
    out = tmp_path / "nested" / "report.html"
    data = write_report(out, populated.root)
    assert out.is_file()
    assert out.read_text().startswith("<!DOCTYPE html>")
    assert len(data["runs"]) == 3


def test_sparkline_needs_two_points():
    assert "n/a" in _sparkline_svg([1.0])
    svg = _sparkline_svg([1.0, 2.0, 1.5])
    assert svg.startswith("<svg") and "polyline" in svg
    # flat series must not divide by zero
    assert "<svg" in _sparkline_svg([3.0, 3.0])

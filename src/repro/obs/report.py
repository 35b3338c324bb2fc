"""``repro report``: a self-contained HTML observability dashboard.

One static file — inline CSS, inline SVG sparklines, **zero external
JavaScript or assets** — summarising everything the registry knows:

* headline stat tiles (runs registered, points simulated, current SHA);
* paper-figure validation: for the latest run of each sweep, every
  matched (noLB, LB) interfered pair and whether the Fig. 2 directional
  claim held;
* the run table (``repro runs list`` in HTML);
* time attribution for runs recorded with ``sweep --ledger``: one
  stacked compute/stolen/overhead/idle bar per point, with its
  conservation verdict (see :mod:`repro.obs.ledger`);
* load imbalance for runs recorded with ``sweep --lineage``: one
  per-iteration λ sparkline and one Sankey-style migration-flow strip
  per point, with the run's counterfactual LB efficiency
  (see :mod:`repro.obs.lineage`).

Self-containment is the deployment story: CI uploads the single file as
an artifact and it renders anywhere — no server, no CDN, no build step.
Colors follow the project dataviz conventions: one series hue for data
marks, reserved status colors that always ship with a text label (never
color alone), and a ``prefers-color-scheme`` dark mode re-stepped from
the same hues rather than inverted.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from repro.obs.registry import RunRegistry

__all__ = ["build_report", "render_report", "write_report"]

# Light/dark surfaces and the series hue come from the project palette;
# status colors are the reserved set and are always paired with a label.
_CSS = """
:root {
  --surface: #fcfcfb; --ink: #1f1f1e; --ink-2: #5c5c58; --line: #e4e4e0;
  --series: #2a78d6; --good: #0ca30c; --warning: #b97f00; --error: #d03b3b;
  --tile: #f3f3f0;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ececea; --ink-2: #a3a39e; --line: #353532;
    --series: #3987e5; --good: #2dc22d; --warning: #fab219; --error: #e06c6c;
    --tile: #242423;
  }
}
html { background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, sans-serif; }
body { max-width: 64rem; margin: 2rem auto; padding: 0 1rem; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
  border-bottom: 1px solid var(--line);
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
.num { text-align: right; }
.tiles { display: flex; gap: 0.8rem; flex-wrap: wrap; margin: 1rem 0; }
.tile { background: var(--tile); border-radius: 6px; padding: 0.6rem 1rem; }
.tile .v { font-size: 1.4rem; font-weight: 700;
  font-variant-numeric: tabular-nums; }
.tile .k { color: var(--ink-2); font-size: 0.8rem; }
.sev-error { color: var(--error); font-weight: 600; }
.sev-warning { color: var(--warning); font-weight: 600; }
.muted { color: var(--ink-2); }
.ok { color: var(--good); font-weight: 600; }
code { background: var(--tile); padding: 0 0.25rem; border-radius: 3px; }
.spark { vertical-align: middle; }
footer { margin-top: 2.5rem; color: var(--ink-2); font-size: 0.8rem; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _sparkline_svg(
    values: Sequence[float], *, width: int = 120, height: int = 28
) -> str:
    """Inline single-series SVG sparkline (no legend needed for one
    series; the row label names it)."""
    if len(values) < 2:
        return '<span class="muted">n/a</span>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 3.0
    n = len(values)
    pts = []
    for i, v in enumerate(values):
        x = pad + i * (width - 2 * pad) / (n - 1)
        y = height - pad - (v - lo) / span * (height - 2 * pad)
        pts.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = pts[-1].split(",")
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend of {n} values">'
        f'<polyline fill="none" stroke="var(--series)" stroke-width="2" '
        f'stroke-linecap="round" points="{" ".join(pts)}"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="3" fill="var(--series)"/>'
        f"</svg>"
    )


def _migration_flow_svg(
    steps: Sequence[Mapping[str, Any]],
    cores: Sequence[int],
    *,
    width: int = 240,
    row_h: int = 16,
) -> str:
    """Sankey-style migration-flow strip: source cores on the left,
    destination cores on the right, one band per (src, dst) flow with
    thickness scaled by migration count (count also in the <title>)."""
    flows: Dict[Any, int] = {}
    for step in steps:
        for m in step.get("migrations", ()):
            pair = (int(m["src"]), int(m["dst"]))
            flows[pair] = flows.get(pair, 0) + 1
    if not flows:
        return '<span class="muted">no migrations</span>'
    core_ids = sorted(int(c) for c in cores)
    index = {c: i for i, c in enumerate(core_ids)}
    pad, label_w = 4, 30
    height = row_h * len(core_ids) + pad
    x0, x1 = label_w, width - label_w
    mid = (x0 + x1) / 2
    max_count = max(flows.values())

    def y(core: int) -> float:
        return pad / 2 + index[core] * row_h + row_h / 2

    parts = [
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="migration flow between {len(core_ids)} cores">'
    ]
    for c in core_ids:
        parts.append(
            f'<text x="2" y="{y(c) + 4:.1f}" font-size="10" '
            f'fill="var(--ink-2)">c{c}</text>'
        )
        parts.append(
            f'<text x="{x1 + 4:.1f}" y="{y(c) + 4:.1f}" font-size="10" '
            f'fill="var(--ink-2)">c{c}</text>'
        )
    for (src, dst), count in sorted(flows.items()):
        stroke = 1.5 + 4.5 * count / max_count
        parts.append(
            f'<path d="M {x0} {y(src):.1f} C {mid:.1f} {y(src):.1f}, '
            f'{mid:.1f} {y(dst):.1f}, {x1} {y(dst):.1f}" fill="none" '
            f'stroke="var(--series)" stroke-width="{stroke:.1f}" '
            f'opacity="0.7" stroke-linecap="round">'
            f"<title>core {src} &rarr; core {dst}: {count} "
            f"migration(s)</title></path>"
        )
    parts.append("</svg>")
    return "".join(parts)


#: Ledger bucket fills. The row's <title> and the legend carry the same
#: information as text, so color never stands alone.
_BUCKET_FILL = {
    "compute": "var(--series)",
    "stolen": "var(--error)",
    "overhead": "var(--warning)",
    "idle": "var(--line)",
}


def _ledger_bar(fractions: Mapping[str, Any]) -> str:
    """One stacked compute/stolen/overhead/idle bar (CSS-width divs)."""
    parts = ['<div style="display:flex;height:12px;border-radius:4px;overflow:hidden">']
    title = ", ".join(
        f"{b} {float(fractions.get(b, 0.0)) * 100.0:.1f}%"
        for b in ("compute", "stolen", "overhead", "idle")
    )
    for bucket, fill in _BUCKET_FILL.items():
        frac = float(fractions.get(bucket, 0.0))
        if frac <= 0.0:
            continue
        parts.append(
            f'<div style="background:{fill};width:{frac * 100.0:.2f}%" '
            f'role="img" aria-label="{_esc(bucket)} {frac * 100.0:.1f}%">'
            f"<title>{_esc(title)}</title></div>"
        )
    parts.append("</div>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------


def _lb_pairs(record: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """(noLB point, LB point) pairs: identical params except balancer."""
    by_key: Dict[str, List[Mapping[str, Any]]] = {}
    for point in record.get("points", ()):
        params = point.get("params")
        if not isinstance(params, Mapping):
            continue
        rest = {k: v for k, v in params.items() if k != "balancer"}
        key = repr(sorted(rest.items()))
        by_key.setdefault(key, []).append(point)
    pairs: List[Dict[str, Any]] = []
    for group in by_key.values():
        nolb = [p for p in group if p["params"].get("balancer") in (None, "none")]
        balanced = [p for p in group if p["params"].get("balancer") not in (None, "none")]
        for base in nolb:
            for lb in balanced:
                pairs.append({"nolb": base, "lb": lb})
    return pairs


def build_report(registry_dir: Union[str, Path]) -> Dict[str, Any]:
    """Assemble everything the dashboard renders into one plain dict.

    Separated from :func:`render_report` so tests (and future JSON
    output) can assert on the data without parsing HTML.
    """
    registry = RunRegistry(registry_dir)
    index = registry.list()

    # latest full record per sweep name
    latest_by_name: Dict[str, Dict[str, Any]] = {}
    total_points = 0
    for line in index:
        total_points += int(line.get("points", 0) or 0)
        if line.get("kind") != "sweep":
            continue
        try:
            record = registry.load(line["run_id"])
        except (ValueError, OSError):
            continue
        latest_by_name[record["name"]] = record

    # figure validation: interfered LB-vs-noLB pairs of each latest run
    figure_rows: List[Dict[str, Any]] = []
    for name, record in sorted(latest_by_name.items()):
        for pair in _lb_pairs(record):
            if not pair["nolb"]["params"].get("bg"):
                continue
            t_nolb = float(pair["nolb"]["summary"]["app_time"])
            t_lb = float(pair["lb"]["summary"]["app_time"])
            figure_rows.append(
                {
                    "sweep": name,
                    "run_id": record["run_id"],
                    "label": pair["lb"]["label"],
                    "nolb_s": t_nolb,
                    "lb_s": t_lb,
                    "holds": t_lb <= t_nolb,
                }
            )

    # time-attribution ledgers of the latest run of each sweep
    ledger_rows: List[Dict[str, Any]] = []
    for name, record in sorted(latest_by_name.items()):
        for point in record.get("points", ()):
            ledger = point.get("ledger")
            if not isinstance(ledger, Mapping):
                continue
            ledger_rows.append(
                {
                    "sweep": name,
                    "run_id": record["run_id"],
                    "label": point.get("label", "?"),
                    "wall_s": ledger.get("wall_s"),
                    "conserved": bool(ledger.get("conserved")),
                    "fractions": dict(ledger.get("fractions", {})),
                }
            )

    # load imbalance of the latest run of each sweep
    lineage_rows: List[Dict[str, Any]] = []
    for name, record in sorted(latest_by_name.items()):
        for point in record.get("points", ()):
            lineage = point.get("lineage")
            if not isinstance(lineage, Mapping):
                continue
            run = lineage.get("run", {})
            lineage_rows.append(
                {
                    "sweep": name,
                    "run_id": record["run_id"],
                    "label": point.get("label", "?"),
                    "lambdas": [
                        float(row["lambda"])
                        for row in lineage.get("per_iteration", ())
                    ],
                    "steps": list(lineage.get("steps", ())),
                    "cores": list(lineage.get("cores", ())),
                    "migrations": run.get("migrations", 0),
                    "efficiency": run.get("efficiency"),
                    "sane": bool(run.get("sane", True)),
                }
            )

    git_shas = [line.get("git_sha", "") for line in index]
    return {
        "runs": index,
        "total_points": total_points,
        "latest_sha": git_shas[-1] if git_shas else "unknown",
        "figure_rows": figure_rows,
        "ledger_rows": ledger_rows,
        "lineage_rows": lineage_rows,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_report(data: Mapping[str, Any]) -> str:
    """The dashboard dict -> one self-contained HTML document."""
    runs: Sequence[Mapping[str, Any]] = data.get("runs", ())
    figure_rows: Sequence[Mapping[str, Any]] = data.get("figure_rows", ())
    ledger_rows: Sequence[Mapping[str, Any]] = data.get("ledger_rows", ())
    lineage_rows: Sequence[Mapping[str, Any]] = data.get("lineage_rows", ())

    out: List[str] = []
    out.append("<!DOCTYPE html>")
    out.append('<html lang="en"><head><meta charset="utf-8">')
    out.append("<title>repro observability report</title>")
    out.append(f"<style>{_CSS}</style></head><body>")
    out.append("<h1>repro observability report</h1>")
    out.append(
        '<p class="muted">Cross-run registry, paper-figure validation, '
        "time attribution and load imbalance — one static page, no "
        "external assets.</p>"
    )

    # stat tiles
    out.append('<div class="tiles">')
    for value, label in (
        (len(runs), "runs registered"),
        (data.get("total_points", 0), "points recorded"),
        (str(data.get("latest_sha", "unknown"))[:12], "latest git sha"),
    ):
        out.append(
            f'<div class="tile"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(label)}</div></div>'
        )
    out.append("</div>")

    # paper-figure validation
    out.append("<h2>Paper-figure validation (Fig. 2 directional claim)</h2>")
    if figure_rows:
        out.append(
            "<table><thead><tr><th>sweep</th><th>point</th>"
            '<th class="num">noLB app_time (s)</th>'
            '<th class="num">LB app_time (s)</th>'
            "<th>LB &le; noLB</th></tr></thead><tbody>"
        )
        for row in figure_rows:
            status = (
                '<span class="ok">✓ holds</span>'
                if row["holds"]
                else '<span class="sev-warning">▲ violated</span>'
            )
            out.append(
                f"<tr><td>{_esc(row['sweep'])}</td>"
                f"<td><code>{_esc(row['label'])}</code></td>"
                f'<td class="num">{row["nolb_s"]:.6f}</td>'
                f'<td class="num">{row["lb_s"]:.6f}</td>'
                f"<td>{status}</td></tr>"
            )
        out.append("</tbody></table>")
    else:
        out.append(
            '<p class="muted">No interfered LB/noLB pairs in the latest '
            "registered runs.</p>"
        )

    # time attribution
    out.append("<h2>Time attribution (sweep --ledger)</h2>")
    if ledger_rows:
        out.append(
            '<p class="muted">Every core-second of every point, '
            "attributed: compute / stolen / overhead / idle "
            "(conservation is bit-exact — <code>repro explain</code> "
            "shows the per-core waterfall).</p>"
        )
        out.append(
            "<table><thead><tr><th>sweep</th><th>point</th>"
            '<th style="width:40%">compute / stolen / overhead / idle</th>'
            '<th class="num">wall (s)</th><th>conserved</th>'
            "</tr></thead><tbody>"
        )
        for row in ledger_rows:
            status = (
                '<span class="ok">✓ exact</span>'
                if row["conserved"]
                else '<span class="sev-error">✖ violated</span>'
            )
            wall = row.get("wall_s")
            wall_txt = f"{float(wall):.6f}" if isinstance(wall, (int, float)) else "-"
            out.append(
                f"<tr><td>{_esc(row['sweep'])}</td>"
                f"<td><code>{_esc(row['label'])}</code></td>"
                f"<td>{_ledger_bar(row.get('fractions', {}))}</td>"
                f'<td class="num">{wall_txt}</td>'
                f"<td>{status}</td></tr>"
            )
        out.append("</tbody></table>")
    else:
        out.append(
            '<p class="muted">No ledger-carrying runs registered (run '
            "<code>repro sweep --ledger</code>).</p>"
        )

    # load imbalance
    out.append("<h2>Load imbalance (sweep --lineage)</h2>")
    if lineage_rows:
        out.append(
            '<p class="muted">Per-iteration λ = max/avg load and the '
            "migration flow between cores, with each run's "
            "counterfactual LB efficiency — recovered / recoverable "
            "imbalance against the oracle fractional balance "
            "(<code>repro lineage</code> shows the per-step detail).</p>"
        )
        out.append(
            "<table><thead><tr><th>sweep</th><th>point</th>"
            "<th>λ per iteration</th><th>migration flow</th>"
            '<th class="num">migrations</th>'
            '<th class="num">LB efficiency</th><th>sane</th>'
            "</tr></thead><tbody>"
        )
        for row in lineage_rows:
            efficiency = row.get("efficiency")
            eff_txt = (
                f"{float(efficiency) * 100.0:.0f}%"
                if isinstance(efficiency, (int, float))
                else "-"
            )
            status = (
                '<span class="ok">✓ sane</span>'
                if row.get("sane", True)
                else '<span class="sev-warning">▲ not sane</span>'
            )
            out.append(
                f"<tr><td>{_esc(row['sweep'])}</td>"
                f"<td><code>{_esc(row['label'])}</code></td>"
                f"<td>{_sparkline_svg(row.get('lambdas', []))}</td>"
                f"<td>{_migration_flow_svg(row.get('steps', ()), row.get('cores', ()))}</td>"
                f'<td class="num">{_esc(row.get("migrations", 0))}</td>'
                f'<td class="num">{_esc(eff_txt)}</td>'
                f"<td>{status}</td></tr>"
            )
        out.append("</tbody></table>")
    else:
        out.append(
            '<p class="muted">No lineage-carrying runs registered (run '
            "<code>repro sweep --lineage</code>).</p>"
        )

    # run table
    out.append("<h2>Registered runs</h2>")
    if runs:
        out.append(
            "<table><thead><tr><th>run id</th><th>kind</th><th>name</th>"
            '<th>created (UTC)</th><th>git sha</th><th class="num">points'
            "</th></tr></thead><tbody>"
        )
        for line in runs:
            out.append(
                f"<tr><td><code>{_esc(line.get('run_id', '?'))}</code></td>"
                f"<td>{_esc(line.get('kind', '?'))}</td>"
                f"<td>{_esc(line.get('name', '?'))}</td>"
                f"<td>{_esc(line.get('created_utc', ''))}</td>"
                f"<td><code>{_esc(str(line.get('git_sha', ''))[:12])}</code></td>"
                f'<td class="num">{_esc(line.get("points", 0))}</td></tr>'
            )
        out.append("</tbody></table>")
    else:
        out.append('<p class="muted">The registry is empty.</p>')

    out.append(
        "<footer>Generated by <code>repro report</code> from the run "
        "registry (<code>repro runs list</code>).</footer>"
    )
    out.append("</body></html>")
    return "\n".join(out)


def write_report(
    path: Union[str, Path], registry_dir: Union[str, Path]
) -> Dict[str, Any]:
    """Build and write the dashboard; returns the underlying data dict."""
    data = build_report(registry_dir)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_report(data))
    return data

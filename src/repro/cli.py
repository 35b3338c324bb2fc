"""Command-line interface.

Regenerate any of the paper's figures without writing code::

    python -m repro fig1
    python -m repro fig2 --scale 0.5 --cores 8 16 --apps jacobi2d
    python -m repro fig3 --width 100
    python -m repro fig4 --iterations 100
    python -m repro headline
    python -m repro sweep --preset fig2 --workers 4
    python -m repro sweep --spec my_sweep.json -j 4 --jsonl progress.jsonl

and read back what a sweep recorded: the LB audit trail, the time
ledger and the chare lineage of its points, and the run registry::

    python -m repro sweep --preset smoke --audit audit/ --ledger --lineage
    python -m repro inspect audit/
    python -m repro explain latest
    python -m repro lineage latest
    python -m repro runs list
    python -m repro report

The figure commands print the regenerated table/timeline to stdout;
``--output DIR`` additionally writes it to ``DIR/<figure>.txt``. The
heavy commands accept ``--scale`` (problem-size multiplier) and
``--iterations`` so a laptop can spot-check at a fraction of the
paper-scale cost.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.version import __version__

__all__ = ["build_parser", "main"]


def _add_sweep_source_args(p: argparse.ArgumentParser) -> None:
    """The spec-source options of ``sweep``."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--spec", type=Path, metavar="FILE", help="sweep spec JSON file"
    )
    src.add_argument(
        "--preset",
        choices=["fig2", "abl-eps", "abl-period", "smoke"],
        help="a built-in sweep (fig2 = the full Figure 2/4 matrix)",
    )
    p.add_argument(
        "--apps",
        nargs="+",
        choices=["jacobi2d", "wave2d", "mol3d"],
        default=None,
        help="applications for the fig2 preset (default: all three)",
    )
    p.add_argument(
        "--cores",
        type=int,
        nargs="+",
        default=None,
        help="core counts for the fig2 preset (default: 8 16 24 32)",
    )
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="problem-size multiplier for presets (1.0 = paper scale)",
    )
    p.add_argument(
        "--iterations", type=int, default=200,
        help="application iterations for presets",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    from repro.experiments.runner import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Cloud Friendly Load Balancing for HPC Applications' "
            "(ICPP 2012): regenerate the paper's figures on the simulated "
            "testbed."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="enable diagnostic logging at this level (default: off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, iterations_default=200):
        p.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="problem-size multiplier (1.0 = paper scale)",
        )
        p.add_argument(
            "--iterations",
            type=int,
            default=iterations_default,
            help="application iterations per run",
        )
        p.add_argument(
            "--output",
            type=Path,
            default=None,
            metavar="DIR",
            help="also write the result into DIR/<figure>.txt",
        )

    p1 = sub.add_parser("fig1", help="Figure 1: interference timeline")
    add_common(p1, iterations_default=12)
    p1.add_argument("--width", type=int, default=72, help="timeline columns")

    for name, desc in (
        ("fig2", "Figure 2: timing penalties"),
        ("fig4", "Figure 4: power and energy overhead"),
        ("headline", "the paper's >=5%% reduction claim"),
    ):
        p = sub.add_parser(name, help=desc)
        add_common(p)
        p.add_argument(
            "--cores",
            type=int,
            nargs="+",
            default=None,
            help="core counts to sweep (default: 8 16 24 32)",
        )
        p.add_argument(
            "--apps",
            nargs="+",
            default=None,
            choices=["jacobi2d", "wave2d", "mol3d"],
            help="applications to evaluate (default: all three)",
        )

    p3 = sub.add_parser("fig3", help="Figure 3: dynamic rebalancing timeline")
    add_common(p3)
    p3.add_argument("--width", type=int, default=72, help="timeline columns")
    p3.add_argument(
        "--lb-period", type=int, default=4, help="LB period in iterations"
    )

    psw = sub.add_parser(
        "sweep",
        help="run a scenario sweep in parallel with on-disk result caching",
    )
    _add_sweep_source_args(psw)
    psw.add_argument(
        "--workers", "-j", type=int, default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    psw.add_argument(
        "--backend",
        choices=BACKENDS,
        default="fast",
        help="simulation backend: 'events' = discrete-event engine, "
        "'fast' (default) = analytic fast path "
        "(bit-identical results and audit traces)",
    )
    psw.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="result cache location (default: .repro-cache/sweeps, "
        "or $REPRO_CACHE_DIR)",
    )
    psw.add_argument(
        "--no-cache", action="store_true",
        help="run every scenario even if a cached result exists",
    )
    psw.add_argument(
        "--jsonl", type=Path, default=None, metavar="FILE",
        help="append structured progress events to FILE as JSON lines",
    )
    psw.add_argument(
        "--audit", type=Path, default=None, metavar="DIR",
        help="audit every point: write per-point LB audit JSONL (and "
        "Chrome/Perfetto traces for executed points) into DIR",
    )
    psw.add_argument(
        "--ledger", action="store_true",
        help="run every point with a time-attribution ledger "
        "(repro.obs.ledger): conservation-checked summaries ride the "
        "results, the cache and the registry; inspect them with "
        "'repro explain'",
    )
    psw.add_argument(
        "--lineage", action="store_true",
        help="run every point with a chare-lineage recorder "
        "(repro.obs.lineage): per-chare load samples, migration "
        "residencies, imbalance metrics and counterfactual LB bounds "
        "ride the results, the cache and the registry; inspect them "
        "with 'repro lineage'",
    )
    psw.add_argument(
        "--registry", type=Path, default=None, metavar="DIR",
        help="run registry location (default: results/registry, or "
        "$REPRO_REGISTRY_DIR)",
    )
    psw.add_argument(
        "--no-registry", action="store_true",
        help="do not record this sweep in the run registry",
    )
    psw.add_argument(
        "--output", type=Path, default=None, metavar="DIR",
        help="also write the result table into DIR/sweep_<name>.txt",
    )

    prep = sub.add_parser(
        "report",
        help="write the self-contained HTML observability dashboard",
    )
    prep.add_argument(
        "--registry", type=Path, default=None, metavar="DIR",
        help="run registry location (default: results/registry, or "
        "$REPRO_REGISTRY_DIR)",
    )
    prep.add_argument(
        "--output", type=Path, default=Path("results/report.html"),
        metavar="FILE",
        help="where to write the HTML (default: results/report.html)",
    )

    pruns = sub.add_parser("runs", help="query the cross-run registry")
    pruns.add_argument(
        "--registry", type=Path, default=None, metavar="DIR",
        help="run registry location (default: results/registry, or "
        "$REPRO_REGISTRY_DIR)",
    )
    runs_sub = pruns.add_subparsers(dest="runs_command", required=True)
    prl = runs_sub.add_parser("list", help="list every registered run")
    prl.add_argument(
        "--json", action="store_true",
        help="emit the index lines as JSON instead of a table",
    )
    prs = runs_sub.add_parser("show", help="print one run record as JSON")
    prs.add_argument(
        "ref", metavar="REF",
        help="run id, unique prefix, 'latest', or 'latest:<name>'",
    )
    prd = runs_sub.add_parser("diff", help="compare two runs point by point")
    prd.add_argument("ref_a", metavar="REF_A", help="baseline run ref")
    prd.add_argument("ref_b", metavar="REF_B", help="candidate run ref")
    prd.add_argument(
        "--json", action="store_true",
        help="emit the structured diff as JSON instead of text",
    )

    pex = sub.add_parser(
        "explain",
        help="per-core time-attribution waterfall (compute / stolen / "
        "overhead / idle + energy split) for a registered run",
    )
    pex.add_argument(
        "ref", nargs="?", default="latest", metavar="REF",
        help="run id, unique prefix, 'latest', or 'latest:<name>' "
        "(default: latest)",
    )
    pex.add_argument(
        "--registry", type=Path, default=None, metavar="DIR",
        help="run registry location (default: results/registry, or "
        "$REPRO_REGISTRY_DIR)",
    )
    pex.add_argument(
        "--point", default=None, metavar="SUBSTR",
        help="only explain points whose label contains SUBSTR "
        "(default: every point of the run)",
    )
    pex.add_argument(
        "--top", type=int, default=8, metavar="N",
        help="top chare contributors listed per point (default: 8)",
    )
    pex.add_argument(
        "--backend",
        choices=BACKENDS,
        default="fast",
        help="backend used when a point's ledger must be recomputed "
        "(runs recorded without 'sweep --ledger'; ledgers are "
        "bit-identical across backends)",
    )
    pex.add_argument(
        "--json", action="store_true",
        help="emit the ledger + energy payload as JSON instead of text",
    )
    pex.add_argument(
        "--perfetto", type=Path, default=None, metavar="DIR",
        help="also write one Chrome/Perfetto trace per point (stacked "
        "per-iteration attribution counter track) into DIR",
    )
    pex.add_argument(
        "--output", type=Path, default=None, metavar="DIR",
        help="also write the waterfall into DIR/explain.txt "
        "(DIR/explain.json with --json)",
    )

    pln = sub.add_parser(
        "lineage",
        help="per-chare load lineage: migration flow, imbalance metrics "
        "and counterfactual LB bounds for a registered run",
    )
    pln.add_argument(
        "ref", nargs="?", default="latest", metavar="REF",
        help="run id, unique prefix, 'latest', or 'latest:<name>' "
        "(default: latest)",
    )
    pln.add_argument(
        "--registry", type=Path, default=None, metavar="DIR",
        help="run registry location (default: results/registry, or "
        "$REPRO_REGISTRY_DIR)",
    )
    pln.add_argument(
        "--point", default=None, metavar="SUBSTR",
        help="only show points whose label contains SUBSTR "
        "(default: every point of the run)",
    )
    pln.add_argument(
        "--backend",
        choices=BACKENDS,
        default="fast",
        help="backend used when a point's lineage must be recomputed "
        "(runs recorded without 'sweep --lineage'; payloads are "
        "bit-identical across backends)",
    )
    ln_fmt = pln.add_mutually_exclusive_group()
    ln_fmt.add_argument(
        "--json", action="store_true",
        help="emit the lineage payloads as JSON instead of text",
    )
    ln_fmt.add_argument(
        "--dot", action="store_true",
        help="emit the migration-flow graph(s) as GraphViz DOT "
        "instead of text",
    )
    pln.add_argument(
        "--perfetto", type=Path, default=None, metavar="DIR",
        help="also write one Chrome/Perfetto trace per point (λ/CoV/"
        "Gini + per-core load counter tracks) into DIR",
    )
    pln.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every LB step is sane (oracle bound <= "
        "observed <= no-LB replay) — the CI counterfactual gate",
    )
    pln.add_argument(
        "--output", type=Path, default=None, metavar="DIR",
        help="also write the result into DIR/lineage.txt "
        "(DIR/lineage.json with --json, DIR/lineage.dot with --dot)",
    )

    pin = sub.add_parser(
        "inspect",
        help="analyse LB audit trails written by 'sweep --audit'",
    )
    pin.add_argument(
        "path", type=Path, metavar="DIR_OR_FILE",
        help="audit directory (or one .jsonl file) to analyse",
    )
    pin.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of tables",
    )
    pin.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many top migrations to list (default: 10)",
    )
    pin.add_argument(
        "--output", type=Path, default=None, metavar="DIR",
        help="also write the report into DIR/inspect.txt",
    )
    return parser


def _emit(text: str, name: str, output: Optional[Path]) -> None:
    print(text)
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        path = output / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"[written to {path}]", file=sys.stderr)


def _cmd_fig1(args) -> int:
    from repro.experiments import fig1

    res = fig1(scale=args.scale, iterations=args.iterations, width=args.width)
    _emit(res.text(), "fig1", args.output)
    return 0


def _cmd_fig3(args) -> int:
    from repro.experiments import fig3

    res = fig3(scale=args.scale, lb_period=args.lb_period, width=args.width)
    _emit(res.text(), "fig3", args.output)
    return 0


def _fig2_spec_kwargs(args) -> dict:
    """``fig2_sweep_spec`` keywords from ``--apps/--cores/--scale/--iterations``."""
    return dict(
        apps=args.apps,
        core_counts=args.cores,
        scale=args.scale,
        iterations=args.iterations,
    )


def _cmd_fig2(args) -> int:
    from repro.experiments import fig2

    res = fig2(**_fig2_spec_kwargs(args))
    _emit(res.text(), "fig2", args.output)
    return 0


def _cmd_fig4(args) -> int:
    from repro.experiments import fig4

    res = fig4(**_fig2_spec_kwargs(args))
    _emit(res.text(), "fig4", args.output)
    return 0


def _cmd_headline(args) -> int:
    from repro.experiments import format_table, headline_reductions, run_sweep
    from repro.experiments.figures import PAPER_CLAIM_PERCENT
    from repro.experiments.sweep_presets import fig2_sweep_spec

    rows = headline_reductions(run_sweep(fig2_sweep_spec(**_fig2_spec_kwargs(args))))
    text = format_table(
        ["app", "min penalty reduction %", "min energy reduction %", "claim met"],
        [
            (r.app_name, r.min_penalty_reduction, r.min_energy_reduction, r.meets_claim)
            for r in rows
        ],
        title=f"Worst-case reductions (paper claims >= {PAPER_CLAIM_PERCENT:.0f}%)",
    )
    _emit(text, "headline", args.output)
    return 0 if all(r.meets_claim for r in rows) else 1


def _sweep_spec_from_args(args):
    """The ``--spec``/``--preset`` sweep; raises ValueError or OSError
    before any point runs on a bad parameter or an incomplete fig2 cell."""
    from repro.experiments.sweep import SweepSpec
    from repro.experiments.sweep_presets import (
        ablation_epsilon_spec,
        ablation_period_spec,
        fig2_cells,
        fig2_sweep_spec,
        smoke_spec,
    )

    if args.spec is not None:
        spec = SweepSpec.from_file(args.spec)
    elif args.preset == "fig2":
        spec = fig2_sweep_spec(**_fig2_spec_kwargs(args))
    elif args.preset == "abl-eps":
        spec = ablation_epsilon_spec(scale=args.scale)
    elif args.preset == "abl-period":
        spec = ablation_period_spec(scale=args.scale)
    else:
        spec = smoke_spec()
    labels = [p.label for p in spec.expand()]
    if spec.name == "fig2":
        fig2_cells(labels)
    return spec


def _sweep_text(spec, result) -> str:
    """A sweep's table, plus the Figure 2 and 4 tables for a fig2 sweep."""
    from repro.experiments import fig2, fig4

    text = result.text()
    if spec.name == "fig2":
        text += "\n\n" + fig2(sweep=result).text()
        text += "\n\n" + fig4(sweep=result).text()
    return text


def _cmd_sweep(args) -> int:
    from repro.experiments.cache import ResultCache, default_cache_dir
    from repro.experiments.progress import EventLog
    from repro.experiments.sweep import run_sweep

    try:
        spec = _sweep_spec_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(
            f"repro sweep: error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())

    registry = None
    if not args.no_registry:
        from repro.obs.registry import RunRegistry, default_registry_dir

        registry = RunRegistry(args.registry or default_registry_dir())

    jsonl_stream = None
    try:
        if args.jsonl is not None:
            args.jsonl.parent.mkdir(parents=True, exist_ok=True)
            jsonl_stream = open(args.jsonl, "a")
        log = EventLog(stream=jsonl_stream)
        result = run_sweep(
            spec,
            workers=args.workers,
            cache=cache,
            log=log,
            audit_dir=args.audit,
            registry=registry,
            backend=args.backend,
            ledger=args.ledger,
            lineage=args.lineage,
        )
    except ValueError as exc:
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if jsonl_stream is not None:
            jsonl_stream.close()

    for event in log.of_type("run_registered"):
        print(f"[registered as run {event['run_id']}]", file=sys.stderr)

    _emit(_sweep_text(spec, result), f"sweep_{spec.name}", args.output)
    return 0


def _cmd_inspect(args) -> int:
    import json

    from repro.telemetry.inspect import format_inspect_text, inspect_audit

    if args.top < 0:
        print(
            f"repro inspect: error: --top must be >= 0, got {args.top}",
            file=sys.stderr,
        )
        return 2
    try:
        report = inspect_audit(args.path, top=args.top)
    except (ValueError, OSError) as exc:
        # missing dir, empty dir, unreadable files, malformed JSONL —
        # all are one clean line on stderr, never a traceback
        print(f"repro inspect: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        text = json.dumps(report, indent=1, sort_keys=True)
    else:
        text = format_inspect_text(report)
    _emit(text, "inspect", args.output)
    return 0


def _cmd_report(args) -> int:
    from repro.obs.registry import default_registry_dir
    from repro.obs.report import write_report

    try:
        data = write_report(args.output, args.registry or default_registry_dir())
    except (ValueError, OSError) as exc:
        print(f"repro report: error: {exc}", file=sys.stderr)
        return 2
    print(f"[report written to {args.output}: {len(data['runs'])} run(s)]")
    return 0


def _format_diff_text(diff: dict) -> str:
    lines = [f"diff {diff['a']} .. {diff['b']}"]
    for label in diff["only_a"]:
        lines.append(f"  - {label} (only in {diff['a']})")
    for label in diff["only_b"]:
        lines.append(f"  + {label} (only in {diff['b']})")
    for label, deltas in diff["changed"].items():
        lines.append(f"  ~ {label}")
        for field, (va, vb, rel) in deltas.items():
            rel_txt = f" ({rel * 100.0:+.1f}%)" if rel is not None else ""
            lines.append(f"      {field}: {va} -> {vb}{rel_txt}")
    lines.append(
        f"  {len(diff['identical'])} identical point(s), "
        f"{len(diff['changed'])} changed"
    )
    return "\n".join(lines)


def _cmd_runs(args) -> int:
    import json

    from repro.experiments.tables import format_table
    from repro.obs.registry import RunRegistry, default_registry_dir, diff_runs

    registry = RunRegistry(args.registry or default_registry_dir())

    if args.runs_command == "list":
        runs = registry.list()
        if args.json:
            print(json.dumps(runs, indent=1, sort_keys=True))
            return 0
        if not runs:
            print(f"registry at {registry.root} is empty")
            return 0
        print(
            format_table(
                ["run id", "kind", "name", "created (UTC)", "git sha", "points"],
                [
                    (
                        r["run_id"],
                        r.get("kind", "?"),
                        r.get("name", "?"),
                        r.get("created_utc", ""),
                        str(r.get("git_sha", ""))[:12],
                        r.get("points", 0),
                    )
                    for r in runs
                ],
                title=f"{len(runs)} registered run(s) in {registry.root}",
            )
        )
        return 0

    try:
        if args.runs_command == "show":
            record = registry.load(args.ref)
            print(json.dumps(record, indent=1, sort_keys=True))
            return 0

        # diff
        diff = diff_runs(registry.load(args.ref_a), registry.load(args.ref_b))
    except (ValueError, OSError) as exc:
        print(f"repro runs: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff, indent=1, sort_keys=True))
    else:
        print(_format_diff_text(diff))
    return 0


#: What each probe's payload is called in a refusal of a non-sweep run.
_PAYLOAD_NOUNS = {"ledger": "ledgers", "lineage": "lineage"}


def _probed_points(args, probe: str):
    """The run and points that ``explain`` (``probe="ledger"``) and
    ``lineage`` (``probe="lineage"``) read.

    Loads the registry record ``args.ref`` names, refuses a run that is
    not a sweep, keeps the points whose label contains ``--point``, and
    pairs each with its ``probe`` payload. A point whose sweep ran
    without that probe is re-executed on ``--backend`` with it attached
    (identical summary, bit-identical payload on either backend).
    Returns ``(record, [(point, payload, recomputed), ...])``, or None
    after printing the command's one-line error.
    """
    from repro.experiments.sweep import run_point_probed
    from repro.obs.registry import RunRegistry, default_registry_dir

    try:
        record = RunRegistry(args.registry or default_registry_dir()).load(
            args.ref
        )
        if record.get("kind") != "sweep":
            raise ValueError(
                f"run {record['run_id']} is a {record.get('kind', '?')} "
                f"run; only sweep runs carry per-point {_PAYLOAD_NOUNS[probe]}"
            )
        points = [
            p
            for p in record.get("points", ())
            if args.point is None or args.point in p.get("label", "")
        ]
        if not points:
            raise ValueError(
                f"no point of run {record['run_id']} matches {args.point!r}"
            )
        probed = []
        for p in points:
            payload = p.get(probe)
            recomputed = payload is None
            if recomputed:
                payload = run_point_probed(
                    p["params"], (probe,), backend=args.backend
                )[1][probe]
            probed.append((p, payload, recomputed))
    except (ValueError, OSError, KeyError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return None
    return record, probed


def _cmd_explain(args) -> int:
    import json

    from repro.experiments.sweep import build_scenario
    from repro.obs.ledger import format_ledger_text
    from repro.power.meter import decompose_energy
    from repro.power.model import PowerModel

    if args.top < 0:
        print(
            f"repro explain: error: --top must be >= 0, got {args.top}",
            file=sys.stderr,
        )
        return 2
    loaded = _probed_points(args, "ledger")
    if loaded is None:
        return 2
    record, points = loaded

    sections: List[str] = []
    payload: List[dict] = []
    violations: List[str] = []
    for p, ledger, recomputed in points:
        scenario = build_scenario(p["params"])
        nodes = len(
            {cid // scenario.cores_per_node for cid in scenario.app_core_ids}
        )
        summary = p["summary"]
        energy = decompose_energy(
            PowerModel(cores_per_node=scenario.cores_per_node),
            duration_s=summary["app_time"],
            busy_core_seconds=summary["busy_core_seconds"],
            nodes=nodes,
            busy_by_bucket=ledger["busy"],
        )
        if not ledger["conserved"]:
            violations.append(
                f"{p['label']}: conservation violated "
                f"(residual {ledger['residual_s']} s)"
            )
        if energy["energy_j"] != summary["energy_j"]:
            violations.append(
                f"{p['label']}: energy decomposition does not reconcile "
                f"({energy['energy_j']} != {summary['energy_j']} J)"
            )
        sections.append(
            format_ledger_text(
                ledger, label=p["label"], energy=energy, top=args.top
            )
        )
        payload.append(
            {
                "label": p["label"],
                "params": p["params"],
                "recomputed": recomputed,
                "ledger": ledger,
                "energy": energy,
            }
        )
        if args.perfetto is not None:
            from repro.projections.export import write_chrome_trace
            from repro.runtime.tracing import TraceLog

            args.perfetto.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(
                TraceLog(enabled=False),
                str(args.perfetto / f"{p['label']}.ledger.trace.json"),
                job_name=p["label"],
                ledger=ledger,
            )

    doc = {
        "run_id": record["run_id"],
        "name": record.get("name"),
        "points": payload,
        "violations": violations,
    }
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        if args.output is not None:
            from repro.telemetry import write_json_artifact

            args.output.mkdir(parents=True, exist_ok=True)
            path = write_json_artifact(doc, args.output / "explain.json")
            print(f"[written to {path}]", file=sys.stderr)
    else:
        text = f"run {record['run_id']} ({record.get('name')})\n\n"
        text += "\n\n".join(sections)
        _emit(text, "explain", args.output)
    for v in violations:
        print(f"repro explain: VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_lineage(args) -> int:
    import json

    from repro.obs.lineage import format_lineage_text, lineage_dot

    loaded = _probed_points(args, "lineage")
    if loaded is None:
        return 2
    record, points = loaded

    sections: List[str] = []
    dots: List[str] = []
    payload: List[dict] = []
    violations: List[str] = []
    insane: List[str] = []
    for p, lineage, recomputed in points:
        for step in lineage["steps"]:
            # oracle <= observed holds by construction (mean <= max);
            # a violation is a library bug, not a bad balancer
            if step["oracle_max_s"] > step["observed_max_s"]:
                violations.append(
                    f"{p['label']} step {step['step']}: oracle bound "
                    f"{step['oracle_max_s']} > observed "
                    f"{step['observed_max_s']}"
                )
            if not step["sane"]:
                insane.append(
                    f"{p['label']} step {step['step']}: observed "
                    f"{step['observed_max_s']} > no-LB replay "
                    f"{step['nolb_max_s']}"
                )
        sections.append(format_lineage_text(lineage, label=p["label"]))
        dots.append(lineage_dot(lineage))
        payload.append(
            {
                "label": p["label"],
                "params": p["params"],
                "recomputed": recomputed,
                "lineage": lineage,
            }
        )
        if args.perfetto is not None:
            from repro.projections.export import write_chrome_trace
            from repro.runtime.tracing import TraceLog

            args.perfetto.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(
                TraceLog(enabled=False),
                str(args.perfetto / f"{p['label']}.lineage.trace.json"),
                job_name=p["label"],
                lineage=lineage,
            )

    doc = {
        "run_id": record["run_id"],
        "name": record.get("name"),
        "points": payload,
        "violations": violations,
        "insane_steps": insane,
    }
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        if args.output is not None:
            from repro.telemetry import write_json_artifact

            args.output.mkdir(parents=True, exist_ok=True)
            path = write_json_artifact(doc, args.output / "lineage.json")
            print(f"[written to {path}]", file=sys.stderr)
    elif args.dot:
        text = "\n".join(dots)
        print(text)
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            path = args.output / "lineage.dot"
            path.write_text(text + "\n")
            print(f"[written to {path}]", file=sys.stderr)
    else:
        text = f"run {record['run_id']} ({record.get('name')})\n\n"
        text += "\n\n".join(sections)
        _emit(text, "lineage", args.output)
    for v in violations:
        print(f"repro lineage: VIOLATION: {v}", file=sys.stderr)
    if args.check:
        for s in insane:
            print(f"repro lineage: NOT SANE: {s}", file=sys.stderr)
    if violations:
        return 1
    return 1 if args.check and insane else 0


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "headline": _cmd_headline,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "runs": _cmd_runs,
    "explain": _cmd_explain,
    "lineage": _cmd_lineage,
    "inspect": _cmd_inspect,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        import logging

        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
        )
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

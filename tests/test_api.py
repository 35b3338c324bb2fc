"""Public API surface tests.

Guards the top-level exports users depend on: everything in
``repro.__all__`` must be importable, and the README's quickstart snippet
must keep working verbatim.
"""

import pytest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_version_string():
    assert isinstance(repro.__version__, str)
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_readme_quickstart_snippet():
    """The exact flow from README.md, at reduced size."""
    from repro import (
        BackgroundSpec,
        Jacobi2D,
        LBPolicy,
        RefineVMInterferenceLB,
        Scenario,
        Wave2D,
        run_scenario,
    )

    app = Jacobi2D(grid_size=512)
    noisy_neighbour = BackgroundSpec(
        model=Wave2D.background(grid_size=181), core_ids=(0, 1), iterations=50
    )
    result = run_scenario(
        Scenario(
            app=app,
            num_cores=8,
            iterations=20,
            bg=noisy_neighbour,
            balancer=RefineVMInterferenceLB(epsilon=0.05),
            policy=LBPolicy(period_iterations=5),
        )
    )
    assert result.app_time > 0
    assert result.avg_power_w > 0
    assert result.app.total_migrations >= 0


def test_balancer_family_all_constructible():
    from repro import (
        GreedyLB,
        MigrationCostAwareLB,
        NetworkModel,
        NoLB,
        RefineLB,
        RefineVMInterferenceLB,
    )
    from repro.core import AdaptiveLBPolicy, CommAwareRefineLB, HierarchicalLB

    strategies = [
        NoLB(),
        RefineLB(),
        GreedyLB(),
        GreedyLB(aware=True),
        RefineVMInterferenceLB(),
        CommAwareRefineLB(),
        MigrationCostAwareLB(RefineVMInterferenceLB(), NetworkModel.native()),
        HierarchicalLB.by_node(4),
    ]
    names = [s.name for s in strategies]
    assert len(set(names)) == len(names)  # distinct, identifying names
    AdaptiveLBPolicy()  # constructible with defaults


def test_subpackages_importable():
    import repro.ampi
    import repro.apps
    import repro.cli
    import repro.cluster
    import repro.core
    import repro.experiments
    import repro.power
    import repro.projections
    import repro.runtime
    import repro.sim
    import repro.util


def test_a_stencil_sweep_point_never_imports_numpy():
    """NumPy is imported where arrays are made (Mol3D's density field,
    the validation kernels, power series, RNG), not by ``import repro``:
    an ABL-EPS point runs without it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "from repro.experiments.sweep import run_point\n"
        "from repro.experiments.sweep_presets import ablation_epsilon_spec\n"
        "(point, *_) = ablation_epsilon_spec().expand()\n"
        "assert run_point(point.params).iterations == 100\n"
        "print('numpy' in sys.modules)\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_the_probes_import_neither_the_registry_nor_the_report():
    """``repro.obs`` imports nothing at package level: a run that loads
    the ledger and lineage probes does not load the read-side registry
    and report modules."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "import repro.obs.ledger, repro.obs.lineage\n"
        "print([m for m in ('repro.obs.registry', 'repro.obs.report')"
        " if m in sys.modules])\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"

"""HEADLINE — the paper's abstract claim.

"We demonstrate that our scheme reduces the timing penalty and energy
overhead associated with interfering jobs by at least 5%." (Abstract;
restated in §VI as "more than 5% compared to the case where there is no
load balancing".) Our reproduction typically exceeds the claim by an
order of magnitude at the larger core counts.
"""

from benchmarks.conftest import write_artifact
from repro.experiments import format_table, headline_reductions
from repro.experiments.figures import PAPER_CLAIM_PERCENT


def test_headline_reductions(fig24_sweep, benchmark):
    rows = benchmark.pedantic(
        headline_reductions, args=(fig24_sweep,), rounds=1, iterations=1
    )
    text = format_table(
        ["app", "min penalty reduction %", "min energy reduction %", "claim met"],
        [
            (r.app_name, r.min_penalty_reduction, r.min_energy_reduction, r.meets_claim)
            for r in rows
        ],
        title=(
            "Headline — worst-case reduction across core counts "
            f"(paper claims >= {PAPER_CLAIM_PERCENT:.0f}%)"
        ),
    )
    write_artifact("headline_claim", text)
    assert len(rows) == 3
    for row in rows:
        assert row.meets_claim, f"{row.app_name} misses the paper's claim"

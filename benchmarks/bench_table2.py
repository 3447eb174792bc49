"""Benchmark: regenerate Table 2.

Accuracy of the Pre-trained / Re-trained / PILOTE strategies on all five
"new class" scenarios (mean ± std over rounds).  The printed table mirrors the
paper's Table 2.  At bench scale with seed 7 the run shows PILOTE ≥
Re-trained on 5 of 5 scenarios.  It does not show both above the
Pre-trained baseline: on Still neither beats it (pre-trained 0.8631,
re-trained 0.7413, PILOTE 0.8569), and on Walk re-trained does not
(pre-trained 0.8640, re-trained 0.8400).  The asserts below check only that
PILOTE wins at least half the scenarios and that every method beats chance.
"""

from repro.experiments import table2


def test_table2_reproduction(benchmark, settings, report):
    result = benchmark.pedantic(lambda: table2.run(settings), rounds=1, iterations=1)
    wins = result.method_wins("pilote", "re-trained")
    text = result.to_text() + (
        f"\n\nPILOTE >= Re-trained on {wins} of {len(result.per_scenario)} scenarios"
    )
    report("table2", text)
    # Shape check: handling forgetting should not lose to plain re-training overall.
    assert wins >= len(result.per_scenario) // 2
    # Every method stays above chance level (0.2 for five classes).
    for aggregates in result.per_scenario.values():
        for aggregate in aggregates.values():
            assert aggregate.mean > 0.2

"""The adaptive trigger-policy ablation (docs/adaptive-policy.md).

One full fixed-vs-adaptive sweep over the 15 evaluated benchmarks plus
the promoted ``fz*`` fuzz finds: per-workload speedup under each trigger
policy, the operating point the epoch controller converged to, and the
fill-timeliness movement that explains it.  The adaptive-epoch geomean
can never fall below fixed by construction (epoch 0 *is* the fixed run
and a move is adopted only when IPC does not drop), so the assertion
here pins an invariant, not a tuning outcome.
"""

from repro.harness import ablate_policy

from .conftest import emit, once


def test_policy_ablation(benchmark, runner, out_dir):
    result = once(benchmark, lambda: ablate_policy(runner))
    table = result.table()
    fixed = result.geomean("fixed")
    epoch = result.geomean("adaptive-epoch")
    assert epoch >= fixed, (epoch, fixed)
    # Per-workload, too: adaptive-epoch never loses to fixed.
    for row in result.rows:
        assert row["adaptive-epoch"] >= row["fixed"] - 1e-12, row
    emit(out_dir, "ablation_policy", table.render())

"""The ``adaptive-epoch`` policy: per-workload convergence across runs.

Repeated whole-run epochs, each re-decided from the previous epoch's
end-of-run fill attribution, with a measured guard — a move is adopted
only if the epoch's IPC did not drop.  Epoch 0 *is* the fixed run, so
the converged result can never be worse than fixed (the ablation's
no-regression guarantee).  The ``fixed`` policy needs no code here: a
fixed run is *the same code path* as a run with no policy layer at all,
which is what keeps it byte-identical to the pre-policy tree (and keeps
its cache/journal keys unchanged).

See ``docs/adaptive-policy.md`` for the full specification.
"""

from __future__ import annotations

import dataclasses

from .base import LEVELS, PolicySignals, propose, start_level

#: Upper bound on adaptive-epoch convergence runs beyond the fixed one.
MAX_EPOCHS = 4


def converge(run_fn, config, max_epochs: int = MAX_EPOCHS):
    """Run epochs until the control law holds, a move is rejected, a
    rung repeats, or the epoch budget runs out.

    ``run_fn(config) -> PipelineResult`` executes one plain fixed run
    (memoized by the harness, so epoch 0 shares the ordinary results
    cache).  Returns ``(result, summary)`` where ``result`` is the best
    epoch's result tagged with the policy summary.
    """
    level = start_level(config)
    point = (config.trigger_occupancy_fraction, config.chaining)
    best = run_fn(config)
    baseline_ipc = best.ipc
    trajectory = [f"L{level}"]
    seen = {level}
    epochs = 1
    reason = "hold"
    while epochs <= max_epochs:
        fills = best.memory["fills"]["pthread"]
        signals = PolicySignals(fills=fills["fills"],
                                timely=fills["timely"],
                                late=fills["late"],
                                unused=fills["unused"],
                                redundant=fills["redundant"])
        nxt, reason = propose(level, signals)
        if nxt == level:
            break
        if nxt in seen:
            reason = "revisit"
            break
        seen.add(nxt)
        frac, chain = LEVELS[nxt]
        cand_cfg = dataclasses.replace(
            config, trigger_occupancy_fraction=frac, chaining=chain)
        cand = run_fn(cand_cfg)
        epochs += 1
        if cand.ipc >= best.ipc:
            best, level, point = cand, nxt, (frac, chain)
            trajectory.append(f"L{level}")
        else:
            reason = "rejected:ipc-drop"
            break
    frac, chain = point
    summary = {
        "name": "adaptive-epoch",
        "epochs": epochs,
        "final_level": level,
        "final_fraction": frac,
        "final_chaining": chain,
        "baseline_ipc": baseline_ipc,
        "final_ipc": best.ipc,
        "trajectory": "->".join(trajectory),
        "stop_reason": reason,
        "label": (f"adaptive-epoch level=L{level} frac={frac:g} "
                  f"chain={'on' if chain else 'off'} epochs={epochs} "
                  f"path={'->'.join(trajectory)}"),
    }
    return dataclasses.replace(best, policy=summary), summary

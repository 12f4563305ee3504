"""Policy surface: names, the aggressiveness ladder, and the control law.

The paper fixes SPEAR's trigger at half-IFQ occupancy and leaves
chaining as a related-work aside.  PR 3's fill-attribution counters
(timely / late / unused / redundant) measure exactly what that choice
trades off — lead time against wasted pre-execution — so this module
closes the loop: a small *ladder* of operating points ordered by
aggressiveness, and a pure decision function :func:`propose` that maps
observed timeliness onto a ladder move.  The stateful epoch convergence
(:mod:`~repro.policy.adaptive`) builds on these two pieces; see
``docs/adaptive-policy.md`` for the full specification.

Everything here is deterministic and side-effect-free: the same signals
always produce the same proposal, which is what makes adaptive runs
byte-reproducible across job counts, backends and crash/resume.
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Policy names
# ---------------------------------------------------------------------------

#: The policy used when none is requested — the paper's fixed half-IFQ
#: trigger, byte-identical to a run with no policy layer at all.
DEFAULT_POLICY = "fixed"

#: Names accepted wherever a policy knob appears (CLI, runner, cells).
POLICIES = ("fixed", "adaptive-epoch")


def resolve_policy(name: str | None) -> str:
    """Validate a policy name (None means the default)."""
    if name is None:
        return DEFAULT_POLICY
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; "
                         f"known: {', '.join(POLICIES)}")
    return name


# ---------------------------------------------------------------------------
# The aggressiveness ladder
# ---------------------------------------------------------------------------

#: Operating points ``(trigger_occupancy_fraction, chaining)`` ordered
#: from least to most aggressive.  L1 is the paper's default (half-IFQ
#: gate, no chaining) and the starting rung for the standard SPEAR
#: configs; L3/L4 add Collins-style chaining, which waives the occupancy
#: gate on retrigger and therefore buys coverage at the price of
#: possibly-wasted p-threads.
LEVELS: tuple[tuple[float, bool], ...] = (
    (0.75, False),   # L0: conservative — demand a deep queue
    (0.50, False),   # L1: the paper's empirical choice (start here)
    (0.25, False),   # L2: trigger earlier for more lead time
    (0.25, True),    # L3: + chaining retriggers
    (0.00, True),    # L4: maximal — trigger on any d-load, chain freely
)


def start_level(config) -> int:
    """The ladder rung closest to ``config``'s own operating point.

    An exact ``(fraction, chaining)`` match wins; otherwise the nearest
    fraction among rungs with the same chaining setting, falling back to
    plain nearest-fraction.  Deterministic ties resolve to the lower
    (less aggressive) rung.
    """
    point = (config.trigger_occupancy_fraction, config.chaining)
    for i, lvl in enumerate(LEVELS):
        if lvl == point:
            return i
    same_chain = [i for i, (_, c) in enumerate(LEVELS) if c == point[1]]
    candidates = same_chain or list(range(len(LEVELS)))
    return min(candidates, key=lambda i: (abs(LEVELS[i][0] - point[0]), i))


# ---------------------------------------------------------------------------
# Feedback signals
# ---------------------------------------------------------------------------

#: Minimum p-thread fills an epoch must carry before the counters are
#: considered signal rather than noise.  Below this the policy holds —
#: the "balanced counters fall back to fixed behaviour" rule.
MIN_FILLS = 8


@dataclass(frozen=True)
class PolicySignals:
    """One epoch's worth of p-thread fill attribution.

    ``timely`` fills fully hid their latency, ``late`` fills only
    shortened a miss, ``unused`` fills were evicted untouched and
    ``redundant`` attempts targeted already-resident/in-flight blocks.
    """

    fills: int = 0
    timely: int = 0
    late: int = 0
    unused: int = 0
    redundant: int = 0


def propose(level: int, signals: PolicySignals) -> tuple[int, str]:
    """The control law: map one epoch's signals to a ladder move.

    Returns ``(next_level, reason)``.  The rules, in priority order:

    * **hold** when ``fills < MIN_FILLS`` — too little signal to act on;
      the policy stays at the config's own operating point, i.e. fixed
      behaviour (the no-regression fallback).
    * **de-escalate** when ``unused > timely + late`` — most speculative
      fills were never touched, so pre-execution is wasting bandwidth
      and cache space; back down one rung.
    * **escalate** when ``late > timely`` — speculation helps but fires
      too late to hide the full latency; a lower gate (or chaining)
      starts p-threads earlier.
    * **hold** otherwise — the counters are balanced.
    """
    if signals.fills < MIN_FILLS:
        return level, "hold:insufficient-signal"
    if signals.unused > signals.timely + signals.late:
        return max(level - 1, 0), "de-escalate:unused-heavy"
    if signals.late > signals.timely:
        return min(level + 1, len(LEVELS) - 1), "escalate:late-heavy"
    return level, "hold:balanced"

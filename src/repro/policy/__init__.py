"""Trigger policies: closing the loop from fill timeliness to the trigger.

The paper fixes SPEAR's trigger at half-IFQ occupancy (§3.2, chosen
"empirically") and mentions chaining only as related work.  This package
turns both knobs into a *policy* decided from the observe/ subsystem's
fill-attribution counters:

* :mod:`~repro.policy.base` — the policy registry, the aggressiveness
  ladder (:data:`LEVELS`), the feedback signals and the pure control law
  (:func:`propose`).
* :mod:`~repro.policy.adaptive` — :func:`converge`, the between-run
  epoch loop behind ``adaptive-epoch``.

Specification (control law, determinism and cache-key contracts):
``docs/adaptive-policy.md``.
"""

from .adaptive import MAX_EPOCHS, converge
from .base import (DEFAULT_POLICY, LEVELS, MIN_FILLS, POLICIES,
                   PolicySignals, propose, resolve_policy, start_level)

__all__ = [
    "DEFAULT_POLICY", "POLICIES", "LEVELS", "MIN_FILLS", "MAX_EPOCHS",
    "PolicySignals", "propose", "resolve_policy", "start_level",
    "converge",
]

"""Re-pin ``pins.json``: the output digests every benchmark pass is
checked against.

Run from the root of a checkout after a deliberate change of output::

    python3 perfbench/pin.py

One pass of each workload is run with the checkout's program; the fuzz
campaign is pinned for each of :data:`FUZZ_SEEDS`.  A pass that reports a
problem (a failed cell, a fuzz divergence) is not pinned: the script
stops with an error instead.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

#: campaign seeds whose fuzz outputs are pinned
FUZZ_SEEDS = range(20)


def main() -> int:
    work = run.ROOT / ".perfbench" / f"pin-{os.getpid()}"
    if not run.use_checkout_program(work):
        return 2
    from workloads import WORKLOADS
    jobs = run.jobs_for_box()
    pins: dict = {}
    try:
        for name, cls in WORKLOADS.items():
            for seed in (FUZZ_SEEDS if cls.seeded else [0]):
                wl = cls(seed)
                p = wl.run(wl.setup(work, jobs), work, jobs)
                if p.problems:
                    run.log(f"{name} seed {seed}: not pinned:",
                            "; ".join(p.problems))
                    return 1
                if cls.seeded:
                    pins.setdefault(name, {})[str(seed)] = p.digests
                else:
                    pins[name] = p.digests
                run.log(f"pinned {name} seed {seed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    run.log(f"wrote {run.PINS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Records the pinned reference outputs in reference.json: every workload's
outputs at seeds 0-31, with the parameters they were made with.

    python3 perfbench/record.py

Run it only at a commit whose outputs are known to be right: from then on
an operation whose output at a pinned seed differs counts as failed.
"""

import json
import sys

import run

PINNED_SEEDS = range(32)


def record(wl) -> dict:
    """``wl``'s outputs at the pinned seeds, checked against everything but
    a reference."""
    seeds = {}
    for seed in PINNED_SEEDS:
        inputs = wl.build(seed)
        output = wl.job(inputs, [])
        if not all(wl.check(inputs, output, wl.expected(inputs, None))):
            raise SystemExit(f"record: {wl.name} seed {seed} fails its own check")
        seeds[str(seed)] = wl.record(inputs, output)
        print(f"{wl.name} seed {seed}", file=sys.stderr)
    return {"params": vars(wl), "seeds": seeds}


def main() -> int:
    run.pin_environment()
    import workloads

    doc = {name: record(cls()) for name, cls in workloads.WORKLOADS.items()}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Recompute ``reference.json``: the values the output checks compare to.

Run from the repository root with ``python3 perfbench/make_reference.py``.
Do this only when a change alters the program's outputs on purpose, and
say so in the change: the benchmark's correctness checks are only as good
as the reference they compare to.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def campaign_reference(workload: str, size: str):
    """Seed-1 first-repetition rows digest and the cells' model probabilities."""
    from repro.simulator.campaign import run_campaign

    ctx = workloads.Context(HERE.parent, workloads.DEFAULT_SEED, 1.0, size, False, {})
    cells, params, trials = workloads.campaign_spec(ctx, workload)
    base_seed = int(ctx.rng(workload).integers(0, 2**31 - 1))
    rows = run_campaign(
        cells, **params, trials=trials, base_seed=base_seed, engine="auto", workers=1
    )
    return workloads.rows_digest(rows), workloads.model_probabilities(rows)


def main() -> int:
    reference = {}
    for workload in ("campaign-iid", "campaign-scrub"):
        reference[workload] = {}
        for size in workloads.SIZES:
            digest, models = campaign_reference(workload, size)
            reference[workload][size] = {workloads.DIGEST_KEY: digest}
            # Model probabilities depend on the cells only, not on the size.
            reference[workload]["model"] = models
    curves = {
        label: workloads.compute_curve(label, None).tolist()
        for label, *_rest in workloads.UNIFORMIZATION_CURVES
    }
    reference["analytic-curves"] = {
        size: {
            label: values[: workloads.SIZES[size]["curve_points"]]
            for label, values in curves.items()
        }
        for size in workloads.SIZES
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

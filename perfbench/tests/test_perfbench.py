"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Every workload runs at ``--size tiny`` here, so the suite takes about a
minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from repro.obs import trace  # noqa: E402
from tracer import SpanIndex, Tracer  # noqa: E402

WORKLOADS = ("campaign-iid", "campaign-scrub", "analytic-curves", "service-jobs")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace=0, seed=1, reference=None, cwd=ROOT, script=None):
    cmd = [
        sys.executable,
        str(script or BENCH / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", str(trace),
        "--size", "tiny",
    ]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else None
    return proc, summary


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload):
    proc, summary = bench(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(summary["metrics"]) == sorted(names)
    for name, entry in summary["metrics"].items():
        assert entry["value"] > 0, name
    # the workload-specific metrics are printed with units and sample counts
    assert "failed_ops_ratio" in proc.stdout and "setup_s" in proc.stdout


def test_metric_names_follow_the_grammar():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert layers.NAME_RE.match(name), name


def test_benchmark_json_lists_the_per_layer_metrics():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == [(n, u, b) for n, u, b, _what in layers.PER_LAYER]


def test_child_self_times_fit_inside_parents():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        for _ in range(3):
            # A span of the program's own sits between two layers.
            with trace.span("program_region"):
                traced_leaf()
        time.sleep(0.001)

    traced_leaf = tracer.wrap(leaf, "rs.leaf")
    traced_middle = tracer.wrap(middle, "simulator.middle")
    with tracer.collecting(), tracer.request("r1"), tracer.span("bench.root"):
        traced_middle()
        traced_leaf()
    index = tracer.index()
    root = index.named("bench.root")[0]
    assert len(tracer.collector.spans("program_region")) == 3
    assert {s["name"] for s in index.spans} == {"bench.root", "simulator.middle", "rs.leaf"}
    assert {s["attrs"]["request"] for s in index.spans} == {"r1"}
    assert len(index.named("rs.leaf")) == 4
    # each leaf hangs under its nearest layer ancestor, not the program span
    assert sorted(index.parent_name(s) for s in index.named("rs.leaf")) == [
        "bench.root"] + ["simulator.middle"] * 3
    for span in index.spans:
        children = [s for s in index.spans if index.parent.get(s["span_id"]) is span]
        assert sum(index.self_time(c) for c in children) <= index.duration(span)
        assert index.self_time(span) >= 0.0
    total_self = sum(index.self_time(s) for s in index.spans)
    assert total_self == pytest.approx(index.duration(root), rel=1e-9)


def test_traced_run_spans_nest():
    proc, summary = bench("campaign-scrub", trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(BENCH / "out" / "trace-campaign-scrub.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    index = SpanIndex(records)
    assert index.named("rs.decode") and index.named("simulator.scrub")
    # the program's own spans are in the same file
    assert any("layer" not in r["attrs"] for r in records if r["kind"] == "span")
    for span in index.spans:
        assert index.self_time(span) >= -1e-9, span
    # every span inside a repetition carries a request id
    assert all(s["attrs"]["request"] for s in index.spans)


COUNTS = {
    "campaign-iid": ["rs.words_decoded", "rs.fallback_decode_calls"],
    "analytic-curves": ["markov.uniformization_terms", "markov.states"],
    "service-jobs": ["service.cache_hit_ratio", "service.cache_lookups"],
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_per_layer_counts_repeat_for_one_seed(workload):
    runs = []
    for _ in range(2):
        proc, summary = bench(workload, trace=1, seed=3)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert sorted(summary["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
        runs.append(summary["metrics"])
    for name in COUNTS[workload]:
        assert runs[0][name]["value"] > 0, name
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def _perturbed(tmp_path, edit):
    reference = json.loads((BENCH / "reference.json").read_text())
    edit(reference)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    return path


def test_perturbed_curve_reference_fails_the_check(tmp_path):
    def edit(ref):
        values = ref["analytic-curves"]["tiny"]["duplex-rs18-16-scrub-1y"]
        values[-1] *= 1.0 + 1e-6

    proc, summary = bench("analytic-curves", reference=_perturbed(tmp_path, edit))
    assert proc.returncode == 1
    assert summary["correct"] is False and summary["failed"] >= 1
    assert "CHECK FAILED: duplex-rs18-16-scrub-1y" in proc.stdout


def test_perturbed_campaign_digest_fails_the_check(tmp_path):
    def edit(ref):
        entry = ref["campaign-iid"]["tiny"]
        entry["seed1_rep0_digest"] = "0" * 64

    proc, summary = bench("campaign-iid", reference=_perturbed(tmp_path, edit))
    assert proc.returncode == 1
    assert summary["correct"] is False and summary["failed"] == 8


def test_perturbed_model_probability_fails_the_check(tmp_path):
    def edit(ref):
        models = ref["campaign-iid"]["model"]
        label = next(iter(models))
        models[label] *= 1.0 + 1e-6

    proc, summary = bench("campaign-iid", reference=_perturbed(tmp_path, edit))
    assert proc.returncode == 1
    assert summary["correct"] is False and summary["failed"] >= 1
    assert "model probability" in proc.stdout


def test_curve_tolerance_accepts_solver_roundoff_only():
    import workloads

    ref = [0.0, 1e-12, 3e-7]
    assert workloads.curve_matches([0.0, 1e-12 * (1 + 5e-13), 3e-7], ref)
    assert not workloads.curve_matches([0.0, 1e-12 * (1 + 1e-8), 3e-7], ref)
    assert not workloads.curve_matches([0.0, 1e-12], ref)


def test_compare_refuses_different_backends(tmp_path):
    record = {"workload": "campaign-iid", "metadata": {"backend": "numpy"},
              "metrics": {"trials_per_s": {"value": 1.0}}, "per_layer": {}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record))
    record["metadata"]["backend"] = "compiled"
    b.write_text(json.dumps(record))
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "refusing to compare" in proc.stderr
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--compare", str(a), str(a)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "trials_per_s" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, summary = bench("campaign-iid", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode not in (0, None)
    assert summary is None

"""Bit-level fault-injection simulator — the "physical" validation substrate.

Public surface:

* :class:`~repro.simulator.word.MemoryWord` — bit-level storage with SEU
  and stuck-at faults.
* :mod:`~repro.simulator.faults` — Poisson event streams and scrub
  schedules.
* :class:`~repro.simulator.systems.SimplexSystem` /
  :class:`~repro.simulator.systems.DuplexSystem` — executable arrangements
  using the real codec and arbiter.
* :func:`~repro.simulator.arbiter.arbitrate` — the Section 3 decision
  procedure.
* :mod:`~repro.simulator.montecarlo` — SSA and fault-injection estimators.
* :mod:`~repro.simulator.patterns` — correlated fault-pattern grammar
  and time-varying rate schedules.
* :mod:`~repro.simulator.scenarios` — named, seeded campaign presets.
"""

from .._lazy import attach

# Submodules load on first use: importing the chunk path
# (repro.simulator.montecarlo) must not drag in campaign -> memory -> scipy.
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "arbiter": (
            "ArbiterDecision",
            "ArbiterResult",
            "arbitrate",
            "decide_from_decodes",
            "recover_erasures",
        ),
        "campaign": (
            "FINGERPRINT_SCHEMA",
            "CampaignCell",
            "CampaignRow",
            "campaign_fingerprint",
            "campaign_summary",
            "canonical_fingerprint_json",
            "cell_model_probability",
            "default_validation_campaign",
            "fingerprint_digest",
            "run_campaign",
            "stopping_fingerprint",
            "upgrade_fingerprint",
        ),
        "controller": ("ControllerStats", "simulate_controller"),
        "faults": (
            "FaultEvent",
            "FaultKind",
            "event_sort_key",
            "merge_event_streams",
            "sample_permanent_events",
            "sample_seu_events",
            "scrub_schedule",
            "sort_events",
        ),
        "mbu": ("sample_mbu_strikes", "simulate_mbu_read_unreliability"),
        "montecarlo": (
            "FailureEstimate",
            "chunk_sizes",
            "gillespie_fail_probability",
            "simulate_fail_probability",
            "simulate_fail_probability_batched",
            "simulate_read_outcome",
            "spawn_chunk_seeds",
            "wilson_interval",
        ),
        "patterns": (
            "IID_1BIT",
            "FaultPattern",
            "PatternKind",
            "PatternTerm",
            "RateSchedule",
            "format_pattern",
            "format_schedule",
            "parse_pattern",
            "parse_schedule",
            "sample_pattern_events",
        ),
        "policies": ("ARBITER_POLICIES", "compare_policies"),
        "scenarios": (
            "SCENARIOS",
            "Scenario",
            "get_scenario",
            "render_catalog",
            "scenario_names",
        ),
        "systems": ("DuplexSystem", "ReadOutcome", "SimplexSystem"),
        "voting": ("NMRSystem", "simulate_nmr_read_unreliability"),
        "word": ("MemoryWord",),
    },
)

"""Tests for the differential-target registry in repro.verify.diff.

Every registered target runs a batch of seeded trials and must report no
mismatch (the implementations genuinely agree), while its induced-bug
check must fire on generated cases (the detector detects).  Registry
plumbing and mismatch serialization get direct unit tests.
"""

import json

import numpy as np
import pytest

from repro.verify import (
    Mismatch,
    Target,
    all_targets,
    case_rng,
    get_target,
    register_target,
)
from repro.verify.diff import _REGISTRY

EXPECTED_TARGETS = {
    "gf-mul",
    "rs-decode",
    "rs-solver-parity",
    "rs-batch-scalar",
    "rs-compiled-scalar",
    "rs-compiled-batch",
    "markov-transient",
    "memory-analytic",
    "memory-mc-ber",
    "journal-roundtrip",
    "mc-streaming-vs-final",
    "scenario-analytic-parity",
}

# Trial counts tuned so the whole module stays in the seconds range:
# the expensive targets (exhaustive-oracle decode, Monte-Carlo) get
# fewer trials here; the nightly fuzz job gives them depth.
TRIALS = {
    "gf-mul": 40,
    "rs-decode": 12,
    "rs-solver-parity": 30,
    "rs-batch-scalar": 10,
    "rs-compiled-scalar": 10,
    "rs-compiled-batch": 10,
    "markov-transient": 20,
    "memory-analytic": 8,
    "memory-mc-ber": 3,
    "journal-roundtrip": 3,
    "mc-streaming-vs-final": 3,
    "scenario-analytic-parity": 3,
}


class TestRegistry:
    def test_expected_targets_registered(self):
        assert {t.name for t in all_targets()} == EXPECTED_TARGETS

    def test_at_least_six_targets_spanning_layers(self):
        targets = all_targets()
        assert len(targets) >= 6
        layers = {layer for t in targets for layer in t.layers}
        assert {"gf", "rs", "markov", "memory"} <= layers

    def test_all_targets_sorted(self):
        names = [t.name for t in all_targets()]
        assert names == sorted(names)

    def test_get_target_unknown_name(self):
        with pytest.raises(KeyError):
            get_target("no-such-target")

    def test_duplicate_registration_rejected(self):
        existing = all_targets()[0]
        with pytest.raises(ValueError):
            register_target(existing)
        assert _REGISTRY[existing.name] is existing

    def test_targets_have_descriptions(self):
        for t in all_targets():
            assert t.description.strip()
            assert t.layers


class TestMismatch:
    def test_as_dict_json_serializable(self):
        import numpy as np

        m = Mismatch(
            "demo", {"arr": np.arange(3), "x": np.float64(1.5), "s": "ok"}
        )
        payload = m.as_dict()
        text = json.dumps(payload)  # must not raise
        assert "demo" in text

    def test_target_dataclass_frozen(self):
        t = all_targets()[0]
        assert isinstance(t, Target)
        with pytest.raises(AttributeError):
            t.name = "other"


@pytest.mark.parametrize("name", sorted(EXPECTED_TARGETS))
def test_target_agrees_on_seeded_trials(name):
    """The differential pair genuinely agrees on a seeded trial batch."""
    target = get_target(name)
    for trial in range(TRIALS[name]):
        rng = case_rng(1234, trial)
        case = target.generate(rng)
        mismatch = target.check(case)
        assert mismatch is None, (
            f"{name} trial {trial}: {mismatch.description} "
            f"{json.dumps(mismatch.as_dict())[:400]}"
        )


@pytest.mark.parametrize("name", sorted(EXPECTED_TARGETS))
def test_induced_check_fires(name):
    """Each target's deliberately buggy self-test check detects something.

    The induced predicates are monotone, so among a handful of generated
    cases at least one must trip (most trip immediately).
    """
    target = get_target(name)
    fired = False
    for trial in range(20):
        case = target.generate(case_rng(99, trial))
        if target.induced_check(case) is not None:
            fired = True
            break
    assert fired, f"{name}: induced bug never detected in 20 cases"


@pytest.mark.parametrize("name", sorted(EXPECTED_TARGETS))
def test_shrink_candidates_stay_checkable(name):
    """Shrink candidates are structurally valid cases for the checker.

    (The harness tolerates exceptions from invalid candidates, but the
    built-in shrinkers should not produce any on well-formed input.)
    """
    target = get_target(name)
    case = target.generate(case_rng(55, 0))
    for i, candidate in enumerate(target.shrink(case)):
        if i >= 10:
            break
        target.check(candidate)  # must not raise


def _stepped_solver(step):
    """A step-to-step transient solver whose interval update is ``step``."""

    def solve(chain, times, rtol=1e-14, max_terms=2_000_000):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((len(times), chain.num_states))
        p, t_prev = chain.p0, 0.0
        for pos in np.argsort(times, kind="stable"):
            t = float(times[pos])
            p = step(chain.rate_matrix, p, t, t_prev)
            out[pos] = p
            t_prev = t
        return out

    return solve


#: Erlang(6) deep tail: P(absorbed) ~ (1e-6 t)^6 / 720, 1e-39 .. 1e-31.
DEEP_TAIL_CASE = {
    "kind": "ctmc",
    "num_states": 7,
    "transitions": [[i, i + 1, 1e-6] for i in range(6)],
    "initial": 0,
    "times": [10.0, 1.0, 30.0, 10.0, 0.0],
}


class TestMarkovTransientStepping:
    """The markov-transient target must catch a broken stepped solve."""

    def test_generated_grids_are_multi_point_unsorted(self):
        target = get_target("markov-transient")
        grids = [target.generate(case_rng(1234, t))["times"] for t in range(60)]
        assert any(len(g) > 1 and g != sorted(g) for g in grids)
        assert any(len(set(g)) < len(g) or 0.0 in g for g in grids)

    def test_real_solver_passes_deep_tail_case(self):
        assert get_target("markov-transient").check(DEEP_TAIL_CASE) is None

    def test_step_by_t_instead_of_dt_is_caught(self, monkeypatch):
        from repro.markov import solvers

        wrong = _stepped_solver(
            lambda rates, p, t, t_prev: solvers.uniformization_propagate(rates, p, t)
        )
        monkeypatch.setattr(solvers, "transient_uniformization", wrong)
        target = get_target("markov-transient")
        assert target.check(DEEP_TAIL_CASE) is not None
        caught = sum(
            target.check(target.generate(case_rng(1234, t))) is not None
            for t in range(20)
        )
        assert caught > 0

    def test_deep_tail_only_error_is_caught_relatively(self, monkeypatch):
        """A per-step truncation that drops only the 1e-33 absorbing mass
        passes every absolute gate; the from-zero comparison catches it."""
        from repro.markov import solvers

        truncated = _stepped_solver(
            lambda rates, p, t, t_prev: solvers.uniformization_propagate(
                rates, p, t - t_prev, rtol=1e-3, min_terms=1
            )
        )
        monkeypatch.setattr(solvers, "transient_uniformization", truncated)
        mismatch = get_target("markov-transient").check(DEEP_TAIL_CASE)
        assert mismatch is not None
        assert mismatch.description == "stepped and from-zero uniformization diverge"
        assert mismatch.detail["stepped"] < mismatch.detail["from_zero"]


def _mutant(module, name, old, new):
    """``module.name`` recompiled with one source fragment replaced."""
    import inspect
    import textwrap

    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"mutation site {old!r} not found once"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


class TestBatchScalarCatchesBrokenBerlekampMassey:
    """rs-batch-scalar must catch a broken vectorized Berlekamp-Massey.

    The batch codec decodes dirty words with its own vectorized decoder,
    so the target compares two independent implementations; these
    mutants of the decoder's Berlekamp-Massey loop must be detected on
    generated cases and shrunk to a smaller repro.
    """

    MUTATIONS = {
        "length-update": (
            "np.where(change, r + 1 - length, length)",
            "np.where(change, r - length, length)",
        ),
        "shift-off-by-one": (
            "np.where(change, 1, shift + 1)",
            "np.where(change, 0, shift + 1)",
        ),
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutant_is_caught_and_shrunk(self, monkeypatch, mutation):
        from repro.rs import batch_decode
        from repro.verify.harness import fuzz_target

        old, new = self.MUTATIONS[mutation]
        monkeypatch.setattr(
            batch_decode,
            "_berlekamp_massey",
            _mutant(batch_decode, "_berlekamp_massey", old, new),
        )
        target = get_target("rs-batch-scalar")
        report = fuzz_target(target, seed=1, max_trials=40)
        assert report.failed, f"{mutation} survived 40 trials"
        assert report.mismatch.description.startswith("batch")
        shrunk, original = report.shrunk_case, report.case
        assert report.shrink_steps > 0
        assert len(shrunk["words"]) < len(original["words"])
        assert target.check(shrunk) is not None

    def test_unmutated_decoder_passes_the_same_trials(self):
        from repro.verify.harness import fuzz_target

        assert not fuzz_target("rs-batch-scalar", seed=1, max_trials=40).failed

"""Unit tests for the three transient solvers and their agreement."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.stats import erlang

from repro.markov import CTMC
from repro.memory import simplex_model
from repro.memory.analytic import simplex_fail_probability
from repro.markov.solvers import (
    TRANSIENT_SOLVERS,
    transient_expm,
    transient_ode,
    transient_uniformization,
    uniformization_propagate,
)
from repro.obs import trace


def erlang_chain(stages: int, rate: float) -> CTMC:
    """A pure birth chain: 0 -> 1 -> ... -> stages, all at ``rate``."""
    states = list(range(stages + 1))
    transitions = [(i, i + 1, rate) for i in range(stages)]
    return CTMC(states, transitions, 0)


def random_chain(rng: np.random.Generator, n: int) -> CTMC:
    states = list(range(n))
    transitions = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.uniform() < 0.5:
                transitions.append((i, j, float(rng.uniform(0.1, 2.0))))
    return CTMC(states, transitions, 0)


class TestSolverRegistry:
    def test_three_methods_registered(self):
        assert set(TRANSIENT_SOLVERS) == {"uniformization", "expm", "ode"}


class TestAgainstClosedForms:
    @pytest.mark.parametrize("solver", [transient_uniformization, transient_expm])
    def test_erlang_absorption(self, solver):
        """Absorbing-state probability equals the Erlang CDF."""
        stages, rate = 4, 1.5
        chain = erlang_chain(stages, rate)
        times = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        probs = solver(chain, times)
        expected = erlang.cdf(times, stages, scale=1.0 / rate)
        assert np.allclose(probs[:, stages], expected, rtol=1e-9)

    def test_ode_erlang_absorption(self):
        stages, rate = 4, 1.5
        chain = erlang_chain(stages, rate)
        times = np.array([0.5, 2.0])
        probs = transient_ode(chain, times)
        expected = erlang.cdf(times, stages, scale=1.0 / rate)
        assert np.allclose(probs[:, stages], expected, rtol=1e-6)

    def test_uniformization_deep_tail_relative_accuracy(self):
        """The headline property: tiny absorption probabilities keep
        relative accuracy (this is what resolves the paper's Figs. 8-10)."""
        stages, rate = 6, 1e-6
        chain = erlang_chain(stages, rate)
        t = 10.0  # rate * t = 1e-5 per hop -> P ~ (1e-5)^6 / 6! ~ 1e-33
        probs = transient_uniformization(chain, np.array([t]))
        expected = erlang.cdf(t, stages, scale=1.0 / rate)
        assert expected < 1e-30  # confirm we are genuinely deep in the tail
        # abs=0: approx's default abs=1e-12 would accept any value here
        assert probs[0, stages] == pytest.approx(expected, rel=1e-10, abs=0)

    def test_uniformization_deep_tail_multi_point_grid(self):
        """Stepping p(t_i) -> p(t_{i+1}) keeps the relative accuracy of
        every point of a deep-tail grid (P from ~1e-39 to ~1e-23)."""
        stages, rate = 6, 1e-6
        chain = erlang_chain(stages, rate)
        times = np.array([1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0])
        probs = transient_uniformization(chain, times)
        expected = erlang.cdf(times, stages, scale=1.0 / rate)
        assert expected.max() < 1e-20
        assert probs[:, stages] == pytest.approx(expected, rel=1e-10, abs=0)

    def test_rs3616_permanent_grid_relative_accuracy(self):
        """A stepped 5-point grid down to P ~ 1e-69 against the
        log-domain closed form, relatively (no absolute floor)."""
        model = simplex_model(36, 16, erasure_per_symbol_day=1e-6)
        times = np.linspace(0.0, 24 * 730.0, 5)
        closed = simplex_fail_probability(model, times)
        chain = model.fail_probability(times, method="uniformization")
        assert closed[1] < 1e-60
        assert chain[0] == closed[0] == 0.0
        assert np.allclose(chain[1:], closed[1:], rtol=1e-12, atol=0.0)

    def test_unsorted_grid_with_repeats_matches_sorted_solve(self):
        rng = np.random.default_rng(11)
        chain = random_chain(rng, 6)
        times = np.array([2.5, 0.0, 1.0, 2.5, 0.4, 0.0, 7.0])
        order = np.argsort(times, kind="stable")
        unsorted = transient_uniformization(chain, times)
        in_order = transient_uniformization(chain, times[order])
        assert np.array_equal(unsorted[order], in_order)
        assert np.array_equal(unsorted[1], chain.p0)
        assert np.array_equal(unsorted[0], unsorted[3])


class TestSolverCrossAgreement:
    def test_all_solvers_agree_on_random_chains(self):
        rng = np.random.default_rng(123)
        for trial in range(5):
            chain = random_chain(rng, n=int(rng.integers(3, 8)))
            times = np.array([0.3, 1.7])
            uni = transient_uniformization(chain, times)
            exp = transient_expm(chain, times)
            ode = transient_ode(chain, times)
            assert np.allclose(uni, exp, atol=1e-10), f"trial {trial}"
            assert np.allclose(uni, ode, atol=1e-7), f"trial {trial}"

    def test_rows_remain_distributions(self):
        rng = np.random.default_rng(7)
        chain = random_chain(rng, 6)
        for method in TRANSIENT_SOLVERS:
            probs = chain.transient(np.linspace(0, 4, 5), method=method)
            assert np.all(probs >= -1e-12)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-8)


class TestUniformizationInternals:
    def test_propagate_zero_time_is_identity(self):
        rates = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        p0 = np.array([0.3, 0.7])
        out = uniformization_propagate(rates, p0, 0.0)
        assert np.allclose(out, p0)

    def test_propagate_negative_time_rejected(self):
        rates = sparse.csr_matrix((2, 2))
        with pytest.raises(ValueError):
            uniformization_propagate(rates, np.array([1.0, 0.0]), -1.0)

    def test_propagate_no_rates_is_static(self):
        rates = sparse.csr_matrix((3, 3))
        p0 = np.array([0.2, 0.3, 0.5])
        assert np.allclose(uniformization_propagate(rates, p0, 10.0), p0)

    def test_large_lt_fallback(self):
        """Exercise the log-domain windowed path (L*t > ~709)."""
        chain = CTMC(["A", "B"], [("A", "B", 1.0), ("B", "A", 1.0)], "A")
        probs = transient_uniformization(chain, np.array([800.0]))
        # equilibrium of the symmetric chain is (1/2, 1/2)
        assert probs[0, 0] == pytest.approx(0.5, rel=1e-6)
        assert probs[0].sum() == pytest.approx(1.0, rel=1e-9)

    def test_large_lt_fallback_matches_expm_off_equilibrium(self):
        """Pin the windowed fallback against the independent Padé solver
        on a *stiff* chain that has NOT relaxed to equilibrium at
        L*t ~ 800 (the equilibrium check above would pass even for a
        subtly wrong window): a fast A<->B oscillation sets L high while
        absorption into C stays slow."""
        chain = CTMC(
            ["A", "B", "C"],
            [("A", "B", 1000.0), ("B", "A", 1000.0), ("A", "C", 1e-3)],
            "A",
        )
        t = 0.8  # L*t ~ 800 -> e^{-Lt} underflows -> fallback path
        uni = transient_uniformization(chain, np.array([t]))
        exp = transient_expm(chain, np.array([t]))
        assert 0.0 < uni[0, 2] < 1e-3  # genuinely mid-transient
        assert np.allclose(uni, exp, atol=1e-10)

    def test_large_lt_window_honours_rtol(self):
        """A stricter rtol must widen the summation window (the old code
        ignored the caller's rtol and always used the fixed k=10 width)."""
        rates = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p0 = np.array([1.0, 0.0])
        windows = {}
        for rtol in (1e-14, 1e-40):
            collector = trace.TraceCollector()
            with trace.use_collector(collector):
                uniformization_propagate(rates, p0, 800.0, rtol=rtol)
            [span] = collector.spans("uniformization_propagate")
            assert span["attrs"]["fallback"] is True
            attrs = span["attrs"]
            windows[rtol] = attrs["window_hi"] - attrs["window_lo"]
            # the discarded Poisson tail must stay below ~exp(-k^2/2)
            assert attrs["tail_bound"] < 1e-21
        assert windows[1e-40] > windows[1e-14]

    def test_fallback_terms_reach_the_counter(self):
        """The windowed path counts its j_lo jump plus its window."""
        from repro.obs.metrics import MetricsRegistry, set_registry

        rates = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        collector = trace.TraceCollector()
        try:
            with trace.use_collector(collector):
                uniformization_propagate(rates, np.array([1.0, 0.0]), 800.0)
        finally:
            set_registry(previous)
        [span] = collector.spans("uniformization_propagate")
        attrs = span["attrs"]
        assert attrs["fallback"] is True
        assert attrs["terms_used"] == attrs["window_hi"] + 1
        assert fresh.counter("repro.solver.uniformization.terms").value == (
            attrs["terms_used"]
        )

    def test_span_reports_terms_per_interval(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        chain = CTMC(
            ["A", "B", "C"],
            [("A", "B", 1000.0), ("B", "A", 1000.0), ("A", "C", 1e-3)],
            "A",
        )
        # 0 and the repeat are zero-length steps; 0.8 -> 1.6 (L*dt ~ 800)
        # takes the windowed fallback
        times = np.array([0.8, 0.0, 0.01, 1.6, 0.8])
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        collector = trace.TraceCollector()
        try:
            with trace.use_collector(collector):
                transient_uniformization(chain, times)
        finally:
            set_registry(previous)
        [span] = collector.spans("transient_uniformization")
        attrs = span["attrs"]
        per_interval = attrs["terms_per_interval"]
        assert len(per_interval) == attrs["n_times"] == len(times)
        terms = fresh.counter("repro.solver.uniformization.terms").value
        assert sum(per_interval) == attrs["terms_total"] == terms
        # sorted grid: 0, 0.01, 0.8, 0.8, 1.6
        assert per_interval[0] == 0 and per_interval[3] == 0
        assert min(per_interval[1], per_interval[2], per_interval[4]) > 0
        fallbacks = fresh.counter("repro.solver.uniformization.fallbacks").value
        assert attrs["fallback_intervals"] == fallbacks == 2

    def test_composition_property(self):
        """Propagating t1 then t2 equals propagating t1 + t2."""
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 5)
        rates = chain.rate_matrix
        direct = uniformization_propagate(rates, chain.p0, 1.3)
        stepped = uniformization_propagate(
            rates, uniformization_propagate(rates, chain.p0, 0.9), 0.4
        )
        assert np.allclose(direct, stepped, atol=1e-12)


class TestInputHandling:
    def test_negative_times_rejected_everywhere(self):
        chain = erlang_chain(2, 1.0)
        for solver in (transient_uniformization, transient_expm, transient_ode):
            with pytest.raises(ValueError):
                solver(chain, np.array([-0.5]))

    def test_expm_caches_uniform_grid(self):
        chain = erlang_chain(3, 1.0)
        times = np.linspace(0, 5, 6)
        probs = transient_expm(chain, times)
        # spot-check against uniformization
        uni = transient_uniformization(chain, times)
        assert np.allclose(probs, uni, atol=1e-11)


class TestExpmStepCache:
    @staticmethod
    def _cache_stats(chain, times):
        collector = trace.TraceCollector()
        with trace.use_collector(collector):
            transient_expm(chain, times)
        [span] = collector.spans("transient_expm")
        return span["attrs"]["pade_evals"], span["attrs"]["cache_hits"]

    def test_uniform_grid_costs_one_pade_evaluation(self):
        chain = erlang_chain(3, 1.0)
        pade_evals, cache_hits = self._cache_stats(
            chain, np.linspace(0.5, 5.0, 10)
        )
        assert pade_evals == 1
        assert cache_hits == 9

    def test_fp_drift_does_not_defeat_cache(self):
        """A grid built by repeated ``t += 0.1`` carries sub-ulp drift in
        its differences; keying the cache on the exact float would
        silently re-run Padé for every step."""
        t, grid = 0.0, []
        for _ in range(50):
            t += 0.1
            grid.append(t)
        diffs = np.diff(np.array(grid))
        assert len(set(diffs.tolist())) > 1  # drift genuinely present
        pade_evals, cache_hits = self._cache_stats(
            erlang_chain(3, 1.0), np.array(grid)
        )
        assert pade_evals == 1
        assert cache_hits == 49

    def test_distinct_steps_are_not_conflated(self):
        chain = erlang_chain(3, 1.0)
        pade_evals, _ = self._cache_stats(chain, np.array([0.5, 1.5, 2.0]))
        assert pade_evals == 2  # dt = 0.5 (x2, cached) and dt = 1.0

    def test_cache_misses_accumulate_in_metrics_registry(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            transient_expm(erlang_chain(2, 1.0), np.linspace(0.5, 2.0, 4))
        finally:
            set_registry(previous)
        assert fresh.counter("repro.solver.expm.pade_evals").value == 1
        assert fresh.counter("repro.solver.expm.cache_hits").value == 3

    def test_ode_all_zero_times(self):
        chain = erlang_chain(2, 1.0)
        probs = transient_ode(chain, np.array([0.0, 0.0]))
        assert np.allclose(probs, np.tile(chain.p0, (2, 1)))

    def test_scalar_like_single_time(self):
        chain = erlang_chain(2, 2.0)
        probs = chain.transient([1.0])
        assert probs.shape == (1, 3)
        assert probs[0, 0] == pytest.approx(math.exp(-2.0), rel=1e-10)

"""Integration tests: independent derivations must agree.

Three computational paths exist for the paper's models — the CTMC
transient solvers (uniformization / expm / ODE), the closed-form
per-symbol decompositions, and stochastic simulation (Gillespie on the
chain, bit-level fault injection through the codec).  These tests pin the
agreements that make the reproduction trustworthy.
"""

import numpy as np
import pytest

from repro.analysis import SEU_RATES_PER_BIT_DAY
from repro.memory import duplex_model, simplex_model
from repro.memory.analytic import (
    duplex_fail_probability,
    simplex_fail_probability,
)
from repro.simulator import gillespie_fail_probability

TIMES_48H = np.linspace(0.0, 48.0, 5)
MONTHS_24 = np.linspace(0.0, 24 * 730.0, 5)


class TestAnalyticVsCTMC:
    @pytest.mark.parametrize("lam", SEU_RATES_PER_BIT_DAY)
    def test_simplex_transient_all_paper_rates(self, lam):
        model = simplex_model(18, 16, seu_per_bit_day=lam)
        an = simplex_fail_probability(model, TIMES_48H)
        uni = model.fail_probability(TIMES_48H)
        assert np.allclose(an, uni, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("lam", SEU_RATES_PER_BIT_DAY)
    def test_duplex_transient_all_paper_rates(self, lam):
        model = duplex_model(18, 16, seu_per_bit_day=lam)
        an = duplex_fail_probability(model, TIMES_48H)
        uni = model.fail_probability(TIMES_48H)
        assert np.allclose(an, uni, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("rate", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_simplex_permanent_deep_tails(self, rate):
        model = simplex_model(18, 16, erasure_per_symbol_day=rate)
        an = simplex_fail_probability(model, MONTHS_24)
        uni = model.fail_probability(MONTHS_24)
        mask = an > 1e-290  # above the double-precision floor
        assert np.allclose(an[mask], uni[mask], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("rate", [1e-4, 1e-6, 1e-8])
    def test_duplex_permanent_deep_tails(self, rate):
        model = duplex_model(18, 16, erasure_per_symbol_day=rate)
        an = duplex_fail_probability(model, MONTHS_24)
        uni = model.fail_probability(MONTHS_24)
        mask = an > 1e-290
        assert np.allclose(an[mask], uni[mask], rtol=1e-9, atol=0)

    def test_rs3616_permanent_deep_tail(self):
        model = simplex_model(36, 16, erasure_per_symbol_day=1e-6)
        an = simplex_fail_probability(model, MONTHS_24)
        uni = model.fail_probability(MONTHS_24)
        mask = an > 1e-290
        assert np.allclose(an[mask], uni[mask], rtol=1e-9, atol=0)


class TestSolverTriangle:
    """uniformization / expm / ODE agree where all are in range."""

    def test_simplex_with_scrubbing(self):
        model = simplex_model(
            18, 16, seu_per_bit_day=1e-3, scrub_period_seconds=1800.0
        )
        uni = model.fail_probability(TIMES_48H, method="uniformization")
        exp = model.fail_probability(TIMES_48H, method="expm")
        ode = model.fail_probability(TIMES_48H, method="ode")
        assert np.allclose(uni, exp, rtol=1e-8, atol=1e-13)
        assert np.allclose(uni, ode, rtol=1e-5, atol=1e-10)

    def test_duplex_with_scrubbing(self):
        model = duplex_model(
            18, 16, seu_per_bit_day=1e-3, scrub_period_seconds=1800.0
        )
        uni = model.fail_probability(TIMES_48H, method="uniformization")
        exp = model.fail_probability(TIMES_48H, method="expm")
        assert np.allclose(uni, exp, rtol=1e-8, atol=1e-13)

    def test_mixed_fault_environment(self):
        """Both fault classes active (outside the analytic scope): the
        general solvers still agree with each other."""
        model = duplex_model(
            18, 16, seu_per_bit_day=1e-3, erasure_per_symbol_day=1e-4
        )
        uni = model.fail_probability(TIMES_48H)
        exp = model.fail_probability(TIMES_48H, method="expm")
        assert np.allclose(uni, exp, rtol=1e-8, atol=1e-13)


class TestStochasticAgreement:
    def test_gillespie_simplex_mixed_environment(self):
        model = simplex_model(
            18, 16, seu_per_bit_day=1e-3, erasure_per_symbol_day=5e-3
        )
        p = model.fail_probability([48.0])[0]
        est = gillespie_fail_probability(
            model, 48.0, trials=2000, rng=np.random.default_rng(77)
        )
        assert est.consistent_with(p)

    def test_gillespie_duplex_mixed_environment(self):
        model = duplex_model(
            18, 16, seu_per_bit_day=1e-3, erasure_per_symbol_day=5e-3
        )
        p = model.fail_probability([48.0])[0]
        est = gillespie_fail_probability(
            model, 48.0, trials=2000, rng=np.random.default_rng(78)
        )
        assert est.consistent_with(p)

"""Transient CTMC solvers.

Three independent solution methods for ``p(t) = p0 · exp(Q t)``:

* :func:`transient_uniformization` — Jensen's method (randomization), a
  series of *positive* terms.  Because no cancellation occurs, each state
  probability retains near machine *relative* accuracy, which is what lets
  the deep-tail BER curves of the paper's Figs. 8-10 (down to 1e-200) come
  out clean.  This is the default solver.
* :func:`transient_expm` — scipy's Padé matrix exponential with per-step
  propagation; absolute accuracy ~1e-15, used as an independent check.
* :func:`transient_ode` — RK45 integration of the Kolmogorov forward
  equations, the third cross-check.

Every solver is traced (:mod:`repro.obs.trace`): the span attributes
record each truncation decision — terms used, ``L·t``, the Poisson tail
bound at exit, whether the large-``L·t`` fallback ran, expm cache
hits/misses — so cross-solver differential tests can assert on *why*
answers agree, not just that they do.  Aggregate counts also land in the
process metrics registry (:mod:`repro.obs.metrics`) under
``repro.solver.*``.
"""

from __future__ import annotations

import math
import sys
import threading
from typing import Callable, Dict, Tuple

import numpy as np
from scipy import sparse

from ..obs import metrics, trace
from .chain import CTMC


#: ``(terms, fallback)`` of this thread's latest
#: :func:`uniformization_propagate` call, read back per grid interval by
#: :func:`transient_uniformization` (thread-local, so concurrent solves
#: in service job threads cannot mix their counts).
_last_call = threading.local()


def uniformization_propagate(
    rates: sparse.spmatrix,
    p0: np.ndarray,
    t: float,
    rtol: float = 1e-14,
    max_terms: int = 2_000_000,
    min_terms: int | None = None,
) -> np.ndarray:
    """Advance a distribution ``p0`` by time ``t`` via uniformization.

    ``rates`` is the off-diagonal rate matrix (CSR); the generator's
    diagonal is implied by its row sums.  This is the low-level primitive
    shared by :func:`transient_uniformization` (one call per grid
    interval) and the deterministic scrubbing and mission solvers.

    The DTMC kernel ``P = I + Q/L`` is built once per call, already
    transposed to CSR, so every series term is one ``P^T @ v`` sparse
    matvec; the sums run in the same order as ``v @ P`` would.

    Truncation preserves *relative* accuracy of small entries: the series
    runs for at least ``min_terms`` terms (default ``min(n + 1, 10000)``
    for ``n`` states, so every reachable state of a model of up to 10,000
    states receives its leading-order contribution) and then until the
    remaining Poisson mass is below ``rtol`` times the smallest positive
    accumulated entry.  This is what lets absorbing-state probabilities of
    1e-200 come out with full significance instead of being lost against
    the O(1) bulk.

    The span recorded under the name ``"uniformization_propagate"``
    carries the truncation decision: ``terms_used``, ``lt``,
    ``tail_bound`` at exit, and ``fallback`` (whether the windowed
    large-``L·t`` path ran).  ``terms_used`` is also added to the
    ``repro.solver.uniformization.terms`` counter on both paths.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    registry = metrics.get_registry()
    with trace.span(
        "uniformization_propagate",
        n_states=rates.shape[0],
        t=float(t),
        rtol=rtol,
    ) as sp:
        registry.counter("repro.solver.uniformization.calls").inc()
        out_rates = np.asarray(rates.sum(axis=1)).ravel()
        lam = float(out_rates.max(initial=0.0))
        # subnormal rates make the kernel division meaningless; any total
        # rate below ~1e-250 cannot move representable probability mass
        if lam < 1e-250 or t == 0.0:
            sp.set_attrs(lt=0.0, terms_used=0, tail_bound=0.0, fallback=False)
            _last_call.work = (0, False)
            return np.asarray(p0, dtype=float).copy()
        # row-stochastic kernel, transposed once: ``v @ P`` == ``kernel_t @ v``
        kernel_t = ((rates + sparse.diags(lam - out_rates)) / lam).T.tocsr()
        n_states = rates.shape[0]
        if min_terms is None:
            # every state is first reached within num_states terms; cap to
            # keep very large models affordable (their callers can raise it)
            min_terms = min(n_states + 1, 10_000)
        lt = lam * t
        sp.set_attr("lt", lt)
        v = np.asarray(p0, dtype=float).copy()
        weight = math.exp(-lt)
        if weight < sys.float_info.min:
            # e^{-Lt} underflowed to zero OR landed in the subnormal range
            # (Lt in ~(708, 745)), where the starting weight keeps only a
            # handful of mantissa bits and the upward recursion inherits
            # that error for every term: use the windowed fallback, whose
            # relative weights never leave the normal range.
            sp.set_attr("fallback", True)
            registry.counter("repro.solver.uniformization.fallbacks").inc()
            acc, j = _uniformization_large_lt(v, kernel_t, lt, rtol, sp)
            registry.counter("repro.solver.uniformization.terms").inc(j)
            _last_call.work = (j, True)
            return acc
        acc = weight * v
        j = 0
        tail_bound = float("inf")
        while j < max_terms:
            j += 1
            v = kernel_t @ v
            weight *= lt / j
            acc += weight * v
            if weight == 0.0:
                tail_bound = 0.0
                break
            if j < min_terms:
                continue
            ratio = lt / (j + 2)
            if ratio >= 1.0:
                continue  # Poisson weights still growing / not yet decaying
            tail_bound = weight * ratio / (1.0 - ratio)
            positive = acc[acc > 0.0]
            floor = positive.min() if positive.size else 1.0
            if tail_bound < max(rtol * floor, 1e-305):
                break
        sp.set_attrs(terms_used=j, tail_bound=tail_bound, fallback=False)
        registry.counter("repro.solver.uniformization.terms").inc(j)
        _last_call.work = (j, False)
        return acc


def transient_uniformization(
    chain: CTMC,
    times: np.ndarray,
    rtol: float = 1e-14,
    max_terms: int = 2_000_000,
) -> np.ndarray:
    """Transient solution by uniformization (Jensen's method).

    With uniformization rate ``L = max_i |Q_ii|`` and DTMC kernel
    ``P = I + Q / L``,

        p(t) = sum_{j>=0} Poisson(j; L t) * p0 P^j.

    All quantities are nonnegative, so the summation never cancels; each
    state probability keeps near machine *relative* accuracy — which is
    what resolves the deep-tail BER curves of the paper's Figs. 8-10.

    The grid is walked in sorted order, and each point is reached from
    the previous one: ``p(t_i) = uniformization_propagate(p(t_{i-1}),
    t_i - t_{i-1})``.  Every step is again a nonnegative series, so the
    relative accuracy carries over from step to step; duplicate times and
    ``t = 0`` are zero-length steps.  Rows come back in the caller's
    order.  Poisson weights are generated in the linear domain by upward
    recursion from ``e^{-L·dt}``; a windowed fallback covers steps where
    that start weight underflows.

    The span ``"transient_uniformization"`` reports the work per grid
    interval: ``terms_per_interval`` (aligned with the sorted grid),
    ``terms_total`` and ``fallback_intervals``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    with trace.span(
        "transient_uniformization",
        n_states=chain.num_states,
        n_times=len(times),
    ) as sp:
        result = np.empty((len(times), chain.num_states))
        terms_per_interval = []
        fallback_intervals = 0
        p = chain.p0
        t_prev = 0.0
        for pos in np.argsort(times, kind="stable"):
            t = float(times[pos])
            p = uniformization_propagate(
                chain.rate_matrix, p, t - t_prev, rtol=rtol, max_terms=max_terms
            )
            terms, fallback = _last_call.work
            terms_per_interval.append(terms)
            fallback_intervals += fallback
            result[pos] = p
            t_prev = t
        sp.set_attrs(
            terms_per_interval=terms_per_interval,
            terms_total=sum(terms_per_interval),
            fallback_intervals=fallback_intervals,
        )
        return result


def _uniformization_large_lt(
    p0: np.ndarray,
    kernel_t: sparse.csr_matrix,
    lt: float,
    rtol: float,
    sp: trace.Span | None = None,
) -> Tuple[np.ndarray, int]:
    """Uniformization fallback when ``e^{-Lt}`` underflows.

    Sums the series inside a window of Poisson-significant terms around
    ``j = L·t``, rescaling the running weight when it grows large, and
    normalizes by the accumulated Poisson mass at the end (the common
    scale of numerator and denominator cancels, so no log-domain
    bookkeeping is needed).  ``kernel_t`` is the transposed kernel
    ``P^T``.  Returns the solution and the terms used: the ``j_lo`` jump
    to the window plus the window itself.
    """
    # The Poisson(lt) mass beyond +-k*sqrt(lt) decays like exp(-k^2/2),
    # so choose k from the caller's rtol (the discarded tail is below it)
    # with a floor of 10 (~1e-22) preserving the historical safety margin.
    k = math.sqrt(-2.0 * math.log(max(rtol, 1e-300)))
    centre = int(lt)
    half = int(max(k, 10.0) * math.sqrt(lt)) + 10
    j_lo = max(0, centre - half)
    j_hi = centre + half
    terms_used = j_hi + 1  # j_lo jump + (j_hi - j_lo + 1) window terms
    if sp is not None:
        sp.set_attrs(window_lo=j_lo, window_hi=j_hi, terms_used=terms_used)
    v = p0.copy()
    if j_lo > 4096:
        # jump to the window with dense repeated squaring instead of j_lo
        # individual matvecs (j_lo can be 1e7+ when L*t is extreme)
        v = v @ np.linalg.matrix_power(kernel_t.T.toarray(), j_lo)
    else:
        for _ in range(j_lo):
            v = kernel_t @ v
    acc = np.zeros_like(p0)
    total = 0.0
    w = 1.0  # relative weight; overall scale cancels in acc / total
    for j in range(j_lo, j_hi + 1):
        acc += w * v
        total += w
        v = kernel_t @ v
        w *= lt / (j + 1)
        if w > 1e200:
            acc /= w
            total /= w
            w = 1.0
    if sp is not None:
        # relative mass outside the window, bounded by the Gaussian tail
        sp.set_attr("tail_bound", math.exp(-0.5 * max(k, 10.0) ** 2))
    return acc / total, terms_used


def transient_expm(chain: CTMC, times: np.ndarray) -> np.ndarray:
    """Transient solution by stepping with scipy's matrix exponential.

    Sorts the time grid and propagates ``p`` across each interval with
    ``expm(Q * dt)``; exponentials are cached per distinct ``dt`` so a
    uniform grid costs a single Padé evaluation.  Cache keys are ``dt``
    rounded to 12 significant digits, so the accumulated floating-point
    drift of a nominally uniform grid (``0.1 + 0.1 + ...``) cannot
    silently defeat the cache; reusing a step across a sub-ulp ``dt``
    difference perturbs the result far below the method's own ~1e-15
    accuracy.

    The span ``"transient_expm"`` reports ``pade_evals`` (cache misses)
    and ``cache_hits``; the same counts accumulate in the metrics
    registry under ``repro.solver.expm.*``.
    """
    from scipy.linalg import expm

    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    registry = metrics.get_registry()
    with trace.span(
        "transient_expm", n_states=chain.num_states, n_times=len(times)
    ) as sp:
        q = chain.generator(dense=True)
        order = np.argsort(times)
        result = np.empty((len(times), chain.num_states))
        cache: Dict[float, np.ndarray] = {}
        pade_evals = 0
        cache_hits = 0
        p = chain.p0.copy()
        t_prev = 0.0
        for pos in order:
            dt = times[pos] - t_prev
            if dt > 0:
                key = float(np.format_float_scientific(dt, precision=12))
                step = cache.get(key)
                if step is None:
                    step = expm(q * dt)
                    cache[key] = step
                    pade_evals += 1
                else:
                    cache_hits += 1
                p = p @ step
                t_prev = times[pos]
            result[pos] = p
        sp.set_attrs(pade_evals=pade_evals, cache_hits=cache_hits)
        registry.counter("repro.solver.expm.pade_evals").inc(pade_evals)
        registry.counter("repro.solver.expm.cache_hits").inc(cache_hits)
        return result


def transient_ode(
    chain: CTMC,
    times: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-14,
) -> np.ndarray:
    """Transient solution by integrating ``dp/dt = p Q`` with RK45."""
    from scipy.integrate import solve_ivp

    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    qt = chain.generator().transpose().tocsr()

    def rhs(_t: float, p: np.ndarray) -> np.ndarray:
        return qt @ p

    t_max = float(times.max())
    if t_max == 0.0:
        return np.tile(chain.p0, (len(times), 1))
    with trace.span(
        "transient_ode", n_states=chain.num_states, n_times=len(times)
    ) as sp:
        sol = solve_ivp(
            rhs,
            (0.0, t_max),
            chain.p0,
            t_eval=np.unique(np.concatenate([[0.0], times])),
            rtol=rtol,
            atol=atol,
            method="RK45",
        )
        if not sol.success:
            raise RuntimeError(f"ODE transient solve failed: {sol.message}")
        sp.set_attrs(rhs_evaluations=int(sol.nfev))
        lookup = {t: sol.y[:, i] for i, t in enumerate(sol.t)}
        return np.array([lookup[t] for t in times])


TRANSIENT_SOLVERS: Dict[str, Callable[..., np.ndarray]] = {
    "uniformization": transient_uniformization,
    "expm": transient_expm,
    "ode": transient_ode,
}

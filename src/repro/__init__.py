"""repro — Reed-Solomon coded fault-tolerant memory analysis.

A full reproduction of *"On the Analysis of Reed Solomon Coding for
Resilience to Transient/Permanent Faults in Highly Reliable Memories"*
(Schiano, Ottavi, Lombardi, Pontarelli, Salsano — DATE 2005): the simplex
and duplex memory-system Markov models, a from-scratch RS(n, k)
errors-and-erasures codec over GF(2^m), transient CTMC solvers replacing
the NASA SURE tool, closed-form deep-tail solutions, a bit-level
fault-injection simulator with the paper's arbiter, and a benchmark
harness regenerating every figure and table of the evaluation.

Quick start::

    from repro import duplex_model, ber_curve

    model = duplex_model(18, 16, seu_per_bit_day=1.7e-5,
                         scrub_period_seconds=3600)
    print(ber_curve(model, [12, 24, 48]).final)   # BER after 2 days

See ``examples/`` for full walkthroughs and ``benchmarks/`` for the
figure-by-figure reproduction.
"""

from ._lazy import attach

__version__ = "1.0.0"

# Subpackages and re-exports load on first use, so importing the package
# (or repro.cli) pulls in neither scipy nor the layers a command skips.
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "gf": ("GF2m",),
        "rs": ("RSCode", "RSDecodingError"),
        "markov": ("CTMC", "build_chain"),
        "memory": (
            "FaultRates",
            "SimplexMarkovModel",
            "DuplexMarkovModel",
            "simplex_model",
            "duplex_model",
            "BERCurve",
            "ber_curve",
        ),
        "simulator": ("SimplexSystem", "DuplexSystem"),
        "reliability": (),
        "analysis": (),
        "runtime": (),
        "obs": (),
    },
)

__all__ += [
    "gf",
    "rs",
    "markov",
    "memory",
    "simulator",
    "reliability",
    "analysis",
    "runtime",
    "obs",
    "__version__",
]

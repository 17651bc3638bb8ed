"""The ``scalar`` engine: pure-python kernels behind the batch contract.

:class:`ScalarRSCodec` wraps the existing pure-python codec
(:class:`~repro.rs.codec.RSCode` and :func:`~repro.rs.syndromes.compute_syndromes`)
in the shared :class:`~repro.rs.batch.BatchRSCodec` harness: validation,
clean-word fast path, counters and report objects are all inherited —
only the three kernel hooks run per-row python loops instead of
vectorized numpy, and dirty words are decoded one at a time by
``RSCode.decode``.

This is the slowest engine by far, but it is *registered* like the
others for three reasons: it is the always-available floor of the
capability matrix, it is the oracle behind the exact same interface
that the vectorized dirty-word decoder of the other engines is checked
against, and it proves the engine axis is a pure execution hint — a
campaign run with ``--engine scalar`` is bit-identical to ``numpy`` and
``compiled``.
"""

from __future__ import annotations

import numpy as np

from ..batch import BatchRSCodec
from ..codec import RSDecodingError
from ..syndromes import compute_syndromes


class DecodedWords(list):
    """Per-word outcomes, with the ``ok`` mask the batch harness reads."""

    def __init__(self, outcomes):
        super().__init__(outcomes)
        self.ok = np.asarray(
            [not isinstance(o, RSDecodingError) for o in outcomes], dtype=bool
        )


class ScalarRSCodec(BatchRSCodec):
    """Batch-contract codec whose kernels loop the pure-python codec."""

    backend_name = "scalar"

    def _parity_kernel(self, data: np.ndarray) -> np.ndarray:
        rows = [
            self.scalar.encode(row)[: self.nsym] for row in data.tolist()
        ]
        return np.asarray(rows, dtype=np.int64).reshape(-1, self.nsym)

    def _syndromes_kernel(self, rec: np.ndarray) -> np.ndarray:
        rows = [
            compute_syndromes(self.scalar.gf, row, self.nsym, self.fcr)
            for row in rec.tolist()
        ]
        return np.asarray(rows, dtype=np.int64).reshape(-1, self.nsym)

    def _decode_dirty(self, rec, syndromes, erasures):
        outcomes = []
        for row, ers in zip(rec.tolist(), erasures):
            try:
                outcomes.append(self.scalar.decode(row, erasure_positions=ers))
            except RSDecodingError as exc:
                outcomes.append(exc)
        return DecodedWords(outcomes)

"""Batch Reed-Solomon codec: vectorized encode and vectorized decode.

:class:`BatchRSCodec` processes whole ``(B, k)``/``(B, n)`` ndarrays of
words through the same RS(n, k) code as the scalar :class:`~repro.rs.codec.RSCode`,
with a strict bit-identity contract enforced by the differential suite in
``tests/test_batch_differential.py``:

* ``encode_batch`` runs the systematic LFSR division across the batch
  dimension — ``k`` vectorized steps instead of ``B`` polynomial
  divisions — and is symbol-identical to ``RSCode.encode`` per row.
* ``decode_batch`` computes all syndromes in one vectorized Horner pass
  (:meth:`~repro.gf.batch.BatchGF.poly_eval_batch`).  Words whose
  syndromes are all zero take the *clean fast path*: they are returned
  with the exact :class:`~repro.rs.codec.DecodeResult` the scalar
  decoder would produce.  Dirty words go, all at once, through the
  vectorized errors-and-erasures decoder of :mod:`repro.rs.batch_decode`
  (Berlekamp-Massey, Chien, Forney over the batch syndromes), which
  follows ``RSCode.decode`` step for step: every correction, every
  mis-correction and every :class:`~repro.rs.codec.RSDecodingError`
  message is the one the scalar decoder produces for that word.

The scalar codec stays the oracle: the ``scalar`` engine decodes dirty
words one at a time through ``RSCode.decode``, and the differential
suite, the conformance suite and the ``rs-batch-scalar`` verify target
compare the vectorized decoder against it word for word.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ..gf.batch import BatchGF, batch_field
from ..perf import PerfCounters
from .batch_decode import WordOutcome, decode_errata_batch
from .codec import DecodeResult, RSCode, RSDecodingError


class BatchDecodeReport:
    """Outcome of one ``decode_batch`` call.

    Per-word result objects are built lazily, on first access.  Clean
    words (all syndromes zero) are *proved* clean during
    ``decode_batch``; dirty words are decoded there into arrays (the
    corrected codewords, error counts, corrected positions and failure
    classes).  Most bulk consumers (the Monte-Carlo engine, throughput
    benchmarks) never need a :class:`DecodeResult` for most words; the
    laziness never changes *what* any index returns, only when its
    result object gets allocated.

    Attributes
    ----------
    ok: boolean mask of words that decoded successfully.
    clean: boolean mask of words that took the all-zero-syndrome fast
        path (a subset of ``ok``).
    results: per-word outcomes, index-aligned with the input batch; each
        entry is a :class:`DecodeResult` or the :class:`RSDecodingError`
        raised for that word (materialized on first access).
    """

    def __init__(
        self,
        ok: np.ndarray,
        clean: np.ndarray,
        received: np.ndarray,
        erasure_counts: List[int],
        dirty_index: np.ndarray,
        dirty: Sequence[WordOutcome],
        nsym: int,
    ):
        self.ok = ok
        self.clean = clean
        self._received = received
        self._erasure_counts = erasure_counts
        # Word index -> slot in ``dirty`` (-1 for clean words).
        slots = np.full(len(ok), -1, dtype=np.int64)
        slots[dirty_index] = np.arange(len(dirty_index))
        self._slot = slots.tolist()
        self._dirty = dirty
        self._nsym = nsym
        self._results: Optional[List[WordOutcome]] = None

    def _materialize(self, idx: int) -> WordOutcome:
        slot = self._slot[idx]
        if slot >= 0:
            return self._dirty[slot]
        row = self._received[idx].tolist()
        return DecodeResult(
            data=row[self._nsym :],
            codeword=row,
            num_errors=0,
            num_erasures=self._erasure_counts[idx],
            corrected=False,
        )

    @property
    def results(self) -> List[WordOutcome]:
        if self._results is None:
            self._results = [
                self._materialize(i) for i in range(len(self.ok))
            ]
        return self._results

    def __len__(self) -> int:
        return len(self.ok)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, idx: int) -> WordOutcome:
        if self._results is not None:
            return self._results[idx]
        if not -len(self.ok) <= idx < len(self.ok):
            raise IndexError(idx)
        return self._materialize(idx % len(self.ok))

    @property
    def num_clean(self) -> int:
        return int(self.clean.sum())

    @property
    def num_fallback(self) -> int:
        return len(self.ok) - self.num_clean

    @property
    def num_failures(self) -> int:
        return len(self.ok) - int(self.ok.sum())

    def result(self, idx: int) -> DecodeResult:
        """The :class:`DecodeResult` at ``idx``, re-raising its error."""
        out = self[idx]
        if isinstance(out, RSDecodingError):
            raise out
        return out

    def data_rows(self) -> List[Optional[List[int]]]:
        """Per-word recovered data (``None`` where decoding failed)."""
        return [
            None if isinstance(r, RSDecodingError) else r.data
            for r in self.results
        ]


class BatchRSCodec:
    """Batch-mode systematic RS(n, k) codec over GF(2^m).

    Parameters mirror :class:`RSCode`; a prebuilt scalar codec may be
    supplied to guarantee both views share one generator/field.  The
    batch layer decodes with Berlekamp-Massey only: a supplied scalar
    codec configured with ``key_solver="euclid"`` is rejected.  An
    optional :class:`~repro.perf.PerfCounters` records words encoded,
    words decoded, fast-path hits, dirty words (``scalar_fallbacks``),
    uncorrectable words, and kernel busy time (``kernel_seconds``).

    This class is also the ``numpy`` engine of the backend registry
    (:mod:`repro.rs.backends`).  The *validation, counter and fast-path
    logic* lives here and is shared by every engine; subclasses override
    only the kernel hooks — :meth:`_parity_kernel`,
    :meth:`_syndromes_kernel` and :meth:`_decode_dirty` — with their own
    arithmetic (pure-python loops and the per-word ``RSCode.decode`` for
    the ``scalar`` engine, bit-sliced jitted encode/syndrome kernels for
    ``compiled``, which shares this class's vectorized dirty-word
    decoder).  Because every hook computes exact field arithmetic, every
    engine is bit-identical by construction; the conformance suite and
    the ``rs-batch-scalar`` / ``rs-compiled-*`` differential targets
    enforce it.
    """

    #: Registry name of this engine; subclasses override.
    backend_name = "numpy"

    def __init__(
        self,
        n: int,
        k: int,
        m: int = 8,
        fcr: int = 1,
        scalar: Optional[RSCode] = None,
        counters: Optional[PerfCounters] = None,
    ):
        if scalar is None:
            scalar = RSCode(n, k, m=m, fcr=fcr)
        elif (scalar.n, scalar.k, scalar.m, scalar.fcr) != (n, k, m, fcr):
            raise ValueError(
                f"supplied scalar codec {scalar!r} does not match "
                f"(n={n}, k={k}, m={m}, fcr={fcr})"
            )
        elif scalar.key_solver != "bm":
            raise ValueError(
                f"the batch codec decodes with Berlekamp-Massey only; the "
                f"supplied scalar codec uses key_solver={scalar.key_solver!r}"
            )
        self.scalar = scalar
        self.n = n
        self.k = k
        self.m = m
        self.fcr = fcr
        self.nsym = scalar.nsym
        self.t = scalar.t
        self.bgf: BatchGF = batch_field(m, scalar.gf.prim_poly)
        self.counters = counters
        # Generator tail g[0..nsym-1] (g is monic of degree nsym) drives the
        # vectorized LFSR encode step.
        self._gen_tail = np.asarray(scalar.generator[: self.nsym], dtype=np.int64)
        # Syndrome evaluation points alpha^fcr .. alpha^(fcr+nsym-1).
        self._synd_points = np.asarray(
            [scalar.gf.exp(fcr + j) for j in range(self.nsym)], dtype=np.int64
        )
        # Chien search points alpha^{-p} for every codeword position p.
        self._chien_points = self.bgf.exp(-np.arange(n))

    # -- kernel hooks --------------------------------------------------------

    def _parity_kernel(self, data: np.ndarray) -> np.ndarray:
        """``(B, nsym)`` parity of a validated ``(B, k)`` data batch.

        The numpy engine runs the systematic LFSR division across the
        batch dimension — ``k`` vectorized steps instead of ``B``
        polynomial divisions.
        """
        B = data.shape[0]
        parity = np.zeros((B, self.nsym), dtype=np.int64)
        for j in range(self.k - 1, -1, -1):
            feedback = data[:, j] ^ parity[:, -1]
            shifted = np.empty_like(parity)
            shifted[:, 1:] = parity[:, :-1]
            shifted[:, 0] = 0
            parity = shifted ^ self.bgf.mul(
                feedback[:, np.newaxis], self._gen_tail[np.newaxis, :]
            )
        return parity

    def _syndromes_kernel(self, rec: np.ndarray) -> np.ndarray:
        """``(B, nsym)`` syndromes of a validated ``(B, n)`` batch."""
        return self.bgf.poly_eval_batch(rec, self._synd_points)

    def _decode_dirty(
        self,
        rec: np.ndarray,
        syndromes: np.ndarray,
        erasures: List[List[int]],
    ) -> Sequence[WordOutcome]:
        """Per-word outcomes of the dirty words of a batch.

        ``rec`` holds the ``(D, n)`` words that are not proved clean,
        ``syndromes`` their batch syndromes and ``erasures`` their sorted,
        duplicate-free erasure positions.  The result is index-aligned
        with ``rec`` and carries an ``ok`` mask.  The numpy engine runs
        the vectorized errors-and-erasures decoder across all ``D``
        words at once, verifying corrections with :meth:`_syndromes_kernel`.
        """
        return decode_errata_batch(
            self.bgf,
            rec,
            syndromes,
            erasures,
            self.fcr,
            self._chien_points,
            lambda rows: self._timed_kernel(self._syndromes_kernel, rows),
        )

    def _timed_kernel(self, kernel, *args) -> np.ndarray:
        """Run a kernel hook, accounting busy time to ``kernel_seconds``."""
        if self.counters is None:
            return kernel(*args)
        t0 = time.perf_counter()
        try:
            return kernel(*args)
        finally:
            self.counters.kernel_seconds += time.perf_counter() - t0

    # -- encoding -----------------------------------------------------------

    def encode_batch(self, words: Sequence[Sequence[int]]) -> np.ndarray:
        """Systematically encode a ``(B, k)`` batch into ``(B, n)`` codewords.

        Row-identical to ``RSCode.encode``: data lands unchanged in
        positions ``n-k ..``, parity in ``0 .. n-k-1``.
        """
        data = self.bgf.validate_elements(np.atleast_2d(np.asarray(words)))
        if data.ndim != 2 or (data.size and data.shape[1] != self.k):
            raise ValueError(
                f"expected a (B, {self.k}) batch, got shape {data.shape}"
            )
        B = data.shape[0]
        if B == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        parity = self._timed_kernel(self._parity_kernel, data)
        out = np.concatenate([parity, data], axis=1)
        if self.counters is not None:
            self.counters.words_encoded += B
        return out

    # -- syndromes ----------------------------------------------------------

    def syndromes_batch(self, received: Sequence[Sequence[int]]) -> np.ndarray:
        """``(B, nsym)`` syndrome matrix of a ``(B, n)`` received batch.

        Inputs are range-checked like every other entry point: a word
        containing values outside ``[0, 2^m)`` — e.g. a full-length
        n=255 byte batch handed over as a *signed* ``int8`` array, whose
        values >= 128 silently wrapped negative — used to flow into the
        log-table gather, where numpy's negative indexing made it a
        silently *wrong* syndrome instead of an error.  A wrong syndrome
        can prove a dirty word "clean", which is the worst possible
        failure mode for the fast path; now it raises ``ValueError``.
        """
        rec = self.bgf.validate_elements(np.atleast_2d(np.asarray(received)))
        if rec.ndim != 2 or (rec.size and rec.shape[1] != self.n):
            raise ValueError(
                f"expected a (B, {self.n}) batch, got shape {rec.shape}"
            )
        if rec.shape[0] == 0:
            return np.zeros((0, self.nsym), dtype=np.int64)
        return self._timed_kernel(self._syndromes_kernel, rec)

    def is_codeword_mask(self, received: Sequence[Sequence[int]]) -> np.ndarray:
        """Boolean mask of rows whose syndromes are all zero."""
        return np.all(self.syndromes_batch(received) == 0, axis=1)

    # -- decoding -----------------------------------------------------------

    def decode_batch(
        self,
        received: Sequence[Sequence[int]],
        erasure_positions: Optional[Sequence[Sequence[int]]] = None,
    ) -> BatchDecodeReport:
        """Decode a ``(B, n)`` batch with optional per-word erasures.

        ``erasure_positions`` is ``None`` (no erasures anywhere) or a
        length-``B`` sequence of per-word position lists.  Uncorrectable
        words do not raise; their :class:`RSDecodingError` is recorded at
        the word's index in the report, carrying exactly the message the
        scalar decoder produced.
        """
        rec = self.bgf.validate_elements(np.atleast_2d(np.asarray(received)))
        if rec.ndim != 2 or (rec.size and rec.shape[1] != self.n):
            raise ValueError(
                f"expected a (B, {self.n}) batch, got shape {rec.shape}"
            )
        B = rec.shape[0]
        if erasure_positions is not None and len(erasure_positions) != B:
            raise ValueError(
                f"erasure_positions has {len(erasure_positions)} entries "
                f"for a batch of {B}"
            )
        if B == 0:
            empty = np.zeros(0, dtype=bool)
            return BatchDecodeReport(
                ok=empty,
                clean=empty,
                received=rec,
                erasure_counts=[],
                dirty_index=np.zeros(0, dtype=np.int64),
                dirty=(),
                nsym=self.nsym,
            )

        erasures: List[List[int]] = (
            [[] for _ in range(B)]
            if erasure_positions is None
            else [sorted(set(e)) for e in erasure_positions]
        )
        for ers in erasures:
            if any(not 0 <= p < self.n for p in ers):
                raise ValueError("erasure position out of range")
        erasure_counts = [len(e) for e in erasures]

        syndromes = self.syndromes_batch(rec)
        clean = np.all(syndromes == 0, axis=1)
        # The scalar decoder rejects rho > nsym before looking at the
        # syndromes, so over-erased words can never take the fast path.
        clean &= np.asarray(erasure_counts) <= self.nsym

        # Clean words are proved clean here and materialized lazily by
        # the report; dirty words are decoded together by the engine.
        ok = clean.copy()
        dirty_index = np.flatnonzero(~clean)
        dirty: Sequence[WordOutcome] = ()
        if dirty_index.size:
            dirty = self._decode_dirty(
                rec[dirty_index],
                syndromes[dirty_index],
                [erasures[i] for i in dirty_index],
            )
            ok[dirty_index] = dirty.ok

        if self.counters is not None:
            self.counters.words_decoded += B
            self.counters.clean_fast_path += int(clean.sum())
            self.counters.scalar_fallbacks += int(dirty_index.size)
            self.counters.decode_failures += B - int(ok.sum())
        return BatchDecodeReport(
            ok=ok,
            clean=clean,
            received=rec,
            erasure_counts=erasure_counts,
            dirty_index=dirty_index,
            dirty=dirty,
            nsym=self.nsym,
        )

    # -- single-word passthrough (backend contract) -------------------------

    def encode(self, data: Sequence[int]) -> List[int]:
        """Encode one data word via the shared scalar codec."""
        return self.scalar.encode(data)

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Sequence[int] = (),
    ) -> DecodeResult:
        """Full errors-and-erasures decode of one word.

        Every engine decodes single words with the scalar
        errors-and-erasures pipeline — the oracle the vectorized
        dirty-word decoder is checked against word for word.
        """
        return self.scalar.decode(received, erasure_positions=erasure_positions)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, m={self.m}, "
            f"fcr={self.fcr})"
        )

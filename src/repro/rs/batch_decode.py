"""Vectorized errors-and-erasures decoding of a batch's dirty words.

:func:`decode_errata_batch` is :meth:`repro.rs.codec.RSCode.decode`
lifted to whole ``(D, n)`` batches: every stage of the scalar pipeline —
Forney syndromes, Berlekamp-Massey, errata locator, Chien search,
Forney magnitudes, verification — runs as a handful of numpy table
gathers across all ``D`` words at once instead of ``D`` Python loops.

It follows the scalar decoder step for step, so outcomes are
bit-identical word for word: the corrected codeword, the correction
metadata, every undetected miscorrection, and the exact
:class:`~repro.rs.codec.RSDecodingError` message of each failure class.
Per-word branches become per-word masks:

* erasure counts ``rho`` differ per word, so the erasure locator
  ``Gamma(x)`` multiplies in one padded factor per erasure column (a pad
  factor is 1) and each word reads its Forney syndromes at its own
  offset ``rho``;
* Berlekamp-Massey runs ``max(nsym - rho)`` steps; a word whose
  ``nsym - rho`` steps are done is frozen, and the scalar's ``d == 0``
  and ``2L <= r`` branches are taken per word;
* a word leaves the pipeline at the first check it fails, in the scalar
  order (capability, Chien root count, vanishing derivative,
  post-correction syndromes), and its error message is formatted only
  when someone reads it.

Result objects are built lazily by :class:`ErrataDecode`, and the
corrected positions of all words come from one array pass.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..gf.batch import BatchGF
from .codec import DecodeResult, RSDecodingError

#: A per-word decode outcome: the result, or the decoding error raised
#: for that word.
WordOutcome = Union[DecodeResult, RSDecodingError]

# Failure classes, in the order the scalar decoder checks them.
_OK = 0
_OVER_ERASED = 1
_CAPABILITY = 2
_ROOT_COUNT = 3
_DERIVATIVE = 4
_POST_SYNDROMES = 5


class ErrataDecode:
    """Per-word outcomes of :func:`decode_errata_batch`, built on access.

    Attributes
    ----------
    ok: ``(D,)`` mask of words that decoded successfully.
    """

    def __init__(
        self,
        nsym: int,
        codewords: np.ndarray,
        num_errors: np.ndarray,
        num_erasures: np.ndarray,
        status: np.ndarray,
        detail: np.ndarray,
        changed_offsets: np.ndarray,
        changed_positions: np.ndarray,
    ):
        self.ok = status == _OK
        self._nsym = nsym
        self._codewords = codewords
        self._arrays = (
            num_errors, num_erasures, status, detail, changed_offsets,
            changed_positions,
        )
        self._lists: Optional[tuple] = None

    def __getitem__(self, j: int) -> WordOutcome:
        if self._lists is None:
            # One conversion per array instead of numpy scalar reads per word.
            self._lists = tuple(a.tolist() for a in self._arrays)
        num_errors, rho, status, detail, offsets, positions = self._lists
        if status[j] != _OK:
            return _error(status[j], num_errors[j], rho[j], detail[j], self._nsym)
        lo, hi = offsets[j], offsets[j + 1]
        codeword = self._codewords[j].tolist()
        return DecodeResult(
            data=codeword[self._nsym :],
            codeword=codeword,
            num_errors=num_errors[j],
            num_erasures=rho[j],
            corrected=hi > lo,
            error_positions=positions[lo:hi],
        )


def _error(
    status: int, num_errors: int, rho: int, detail: List[int], nsym: int
) -> RSDecodingError:
    """The scalar decoder's exception for one failed word.

    ``detail`` holds the failure parameters: (locator degree, root count)
    or the position whose derivative vanished.
    """
    if status == _OVER_ERASED:
        return RSDecodingError(
            f"{rho} erasures exceed correction capability n-k={nsym}"
        )
    if status == _CAPABILITY:
        return RSDecodingError(
            f"error locator degree {num_errors} with {rho} erasures "
            f"exceeds capability n-k={nsym}"
        )
    if status == _ROOT_COUNT:
        return RSDecodingError(
            f"errata locator of degree {detail[0]} has {detail[1]} roots "
            "in the codeword: uncorrectable"
        )
    if status == _DERIVATIVE:
        return RSDecodingError(
            f"locator derivative vanishes at position {detail[0]}; "
            "inconsistent errata locator"
        )
    return RSDecodingError("post-correction syndromes nonzero")


def _poly_mul_trunc(
    bgf: BatchGF, a: np.ndarray, b: np.ndarray, width: int, a_terms: int
) -> np.ndarray:
    """Row-wise ``a(x) * b(x) mod x^width`` for ``(D, *)`` coefficient rows.

    Only the first ``a_terms`` coefficients of ``a`` may be nonzero.
    """
    out = np.zeros((a.shape[0], width), dtype=np.int64)
    for i in range(min(a_terms, width)):
        span = min(width - i, b.shape[1])
        out[:, i : i + span] ^= bgf.mul(a[:, i : i + 1], b[:, :span])
    return out


def _erasure_locators(
    bgf: BatchGF, erasures: Sequence[Sequence[int]], rho: np.ndarray, width: int
) -> np.ndarray:
    """``(D, width)`` rows of ``Gamma(x) = prod_l (1 + alpha^{p_l} x)``."""
    D = len(erasures)
    gamma = np.zeros((D, width), dtype=np.int64)
    gamma[:, 0] = 1
    rho_max = int(rho.max()) if D else 0
    if rho_max == 0:
        return gamma
    # Padded (D, rho_max) matrix of alpha^p; a pad factor (1 + 0 x) is 1.
    flat = np.fromiter(
        (p for ers in erasures for p in ers), dtype=np.int64, count=int(rho.sum())
    )
    rows = np.repeat(np.arange(D), rho)
    starts = np.cumsum(rho) - rho
    cols = np.arange(flat.size) - starts[rows]
    x = np.zeros((D, rho_max), dtype=np.int64)
    x[rows, cols] = bgf.exp(flat)
    for e in range(rho_max):
        gamma[:, 1:] ^= bgf.mul(gamma[:, :-1], x[:, e : e + 1])
    return gamma


def _berlekamp_massey(
    bgf: BatchGF, t_synd: np.ndarray, steps: np.ndarray, width: int
) -> np.ndarray:
    """Per-word Berlekamp-Massey over ``steps[w]`` Forney syndromes.

    Mirrors :func:`repro.rs.berlekamp.berlekamp_massey` step for step;
    returns ``(D, width)`` locator rows.  A word whose steps are done
    sees a zero discrepancy from then on, which leaves its locator
    unchanged.
    """
    D = t_synd.shape[0]
    c = np.zeros((D, width), dtype=np.int64)
    c[:, 0] = 1
    b = c.copy()
    length = np.zeros(D, dtype=np.int64)
    shift = np.ones(D, dtype=np.int64)
    b_disc = np.ones(D, dtype=np.int64)
    cols = np.arange(width)
    for r in range(int(steps.max()) if D else 0):
        # Discrepancy sum_{i<=L} c_i T_{r-i}; c_i is zero above L
        # (deg c <= L is a Berlekamp-Massey invariant), so summing to r
        # adds nothing.
        d = np.bitwise_xor.reduce(
            bgf.mul(c[:, : r + 1], t_synd[:, r::-1]), axis=1
        )
        d[steps <= r] = 0
        nonzero = d != 0
        if nonzero.any():
            coef = bgf.div(d, b_disc)
            idx = cols[np.newaxis, :] - shift[:, np.newaxis]
            shifted_b = np.where(
                idx >= 0, np.take_along_axis(b, np.maximum(idx, 0), axis=1), 0
            )
            new_c = c ^ bgf.mul(shifted_b, coef[:, np.newaxis])
            change = nonzero & (2 * length <= r)
            b[change] = c[change]
            length = np.where(change, r + 1 - length, length)
            b_disc = np.where(change, d, b_disc)
            shift = np.where(change, 1, shift + 1)
            c = new_c
        else:
            shift += 1
    return c


def _degree(rows: np.ndarray) -> np.ndarray:
    """Per-row polynomial degree of ``(D, W)`` rows with a nonzero row."""
    W = rows.shape[1]
    return W - 1 - np.argmax(rows[:, ::-1] != 0, axis=1)


def decode_errata_batch(
    bgf: BatchGF,
    received: np.ndarray,
    syndromes: np.ndarray,
    erasures: Sequence[Sequence[int]],
    fcr: int,
    chien_points: np.ndarray,
    verify: Callable[[np.ndarray], np.ndarray],
) -> ErrataDecode:
    """Errors-and-erasures decode of ``(D, n)`` words with nonzero syndromes.

    Parameters
    ----------
    received: the words; ``syndromes`` their ``(D, nsym)`` syndromes.
        A word may have all-zero syndromes only if it is over-erased.
    erasures: per-word sorted, duplicate-free erasure positions.
    chien_points: ``alpha^{-p}`` for ``p = 0 .. n-1``.
    verify: the codec's syndrome kernel, run on the corrected words.
    """
    D = received.shape[0]
    nsym = syndromes.shape[1]
    width = nsym + 1
    rho = np.fromiter((len(e) for e in erasures), dtype=np.int64, count=D)
    status = np.full(D, _OK, dtype=np.int64)
    status[rho > nsym] = _OVER_ERASED
    num_errors = np.zeros(D, dtype=np.int64)
    detail = np.zeros((D, 2), dtype=np.int64)
    codewords = received.copy()

    # Stage 1: Forney syndromes T_j = (Gamma * S)_{j + rho}, then BM.
    live = np.flatnonzero(status == _OK)
    rho_l = rho[live]
    synd = syndromes[live]
    gamma = _erasure_locators(bgf, [erasures[i] for i in live], rho_l, width)
    rho_max = int(rho_l.max()) if live.size else 0
    xi = _poly_mul_trunc(bgf, gamma, synd, nsym, rho_max + 1)
    idx = np.arange(nsym)[np.newaxis, :] + rho_l[:, np.newaxis]
    t_synd = np.where(
        idx < nsym, np.take_along_axis(xi, np.minimum(idx, nsym - 1), axis=1), 0
    )
    lam = _berlekamp_massey(bgf, t_synd, nsym - rho_l, width)
    ne = _degree(lam)
    num_errors[live] = ne
    over = 2 * ne + rho_l > nsym
    status[live[over]] = _CAPABILITY

    # Stage 2: errata locator Psi = Lambda * Gamma and Chien search.
    keep = ~over
    live, rho_l, synd = live[keep], rho_l[keep], synd[keep]
    psi = _poly_mul_trunc(bgf, gamma[keep], lam[keep], width, rho_max + 1)
    roots = bgf.poly_eval_batch(psi, chien_points) == 0
    root_count = roots.sum(axis=1)
    degree = ne[keep] + rho_l
    bad = root_count != degree
    status[live[bad]] = _ROOT_COUNT
    detail[live[bad]] = np.stack([degree[bad], root_count[bad]], axis=1)

    # Stage 3: Forney magnitudes Y = X^{1-fcr} Omega(X^-1) / Psi'(X^-1),
    # evaluated only at each word's roots (one flat Horner pass).
    keep = ~bad
    live, synd, psi = live[keep], synd[keep], psi[keep]
    word, pos = np.nonzero(roots[keep])
    omega = _poly_mul_trunc(bgf, psi, synd, nsym, width)
    dpsi = np.zeros_like(omega)
    dpsi[:, 0 : width - 1 : 2] = psi[:, 1::2]
    coeffs = np.stack([omega[word], dpsi[word]], axis=1)  # (K, 2, nsym)
    x_inv = chien_points[pos][:, np.newaxis]
    acc = np.zeros((pos.size, 2), dtype=np.int64)
    for j in range(nsym - 1, -1, -1):
        acc = bgf.mul(acc, x_inv) ^ coeffs[:, :, j]
    num, den = acc[:, 0], acc[:, 1]
    # A vanishing derivative needs a repeated root, which a matching root
    # count rules out; the check mirrors the scalar decoder's anyway,
    # which stops at the first (lowest) vanishing position.
    vanish = den == 0
    bad_words, first = np.unique(word[vanish], return_index=True)
    status[live[bad_words]] = _DERIVATIVE
    detail[live[bad_words], 0] = pos[vanish][first]
    mag = bgf.div(num, np.where(vanish, 1, den))
    if fcr != 1:
        mag = bgf.mul(mag, bgf.exp(pos * (1 - fcr)))
    good = np.ones(live.size, dtype=bool)
    good[bad_words] = False
    changed = good[word] & (mag != 0)
    owner = live[word]
    codewords[owner[changed], pos[changed]] ^= mag[changed]

    # Stage 4: the corrected words must be codewords.
    checked = live[good]
    if checked.size:
        post = verify(codewords[checked])
        status[checked[np.any(post != 0, axis=1)]] = _POST_SYNDROMES

    # Corrected positions of every successful word in one pass: np.nonzero
    # is row-major, so they come grouped by word and ascending within it.
    changed &= status[owner] == _OK
    counts = np.bincount(owner[changed], minlength=D)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return ErrataDecode(
        nsym, codewords, num_errors, rho, status, detail, offsets, pos[changed]
    )

"""Differential suite: the batch codec is bit-identical to the scalar codec.

Every supported configuration drives random batches through
:class:`repro.rs.batch.BatchRSCodec` and the scalar
:class:`repro.rs.codec.RSCode` side by side and demands *symbol-identical*
outcomes for encode, clean decode, random-error decode and erasure decode
— including capability-boundary patterns ``2*re + er == n - k`` and
uncorrectable words, which must surface the same
:class:`~repro.rs.RSDecodingError` on both paths.  This is the lockdown
that lets every later performance PR trust the batch layer.
"""

import numpy as np
import pytest

from repro.perf import PerfCounters
from repro.rs import BatchRSCodec, RSCode, RSDecodingError

# (n, k, m) spanning all supported symbol widths of the batch layer.
CONFIGS = [
    (7, 3, 3),
    (7, 5, 3),
    (15, 9, 4),
    (15, 11, 4),
    (18, 16, 8),
    (36, 16, 8),
    (255, 223, 8),
]


@pytest.fixture(params=CONFIGS, ids=lambda c: f"RS({c[0]},{c[1]})m{c[2]}")
def pair(request):
    n, k, m = request.param
    scalar = RSCode(n, k, m=m)
    return scalar, BatchRSCodec(n, k, m=m, scalar=scalar)


def random_batch(rng, code, batch):
    return rng.integers(0, code.gf.order, size=(batch, code.k))


def assert_same_result(batch_outcome, scalar_call):
    """Batch entry and scalar call must agree result-for-result."""
    try:
        expected = scalar_call()
    except RSDecodingError as exc:
        assert isinstance(batch_outcome, RSDecodingError), (
            f"scalar raised {exc!r} but batch returned {batch_outcome!r}"
        )
        assert str(batch_outcome) == str(exc)
        return
    assert not isinstance(batch_outcome, RSDecodingError), (
        f"batch raised {batch_outcome!r} but scalar decoded"
    )
    assert batch_outcome.data == expected.data
    assert batch_outcome.codeword == expected.codeword
    assert batch_outcome.num_errors == expected.num_errors
    assert batch_outcome.num_erasures == expected.num_erasures
    assert batch_outcome.corrected == expected.corrected
    assert batch_outcome.error_positions == expected.error_positions


class TestEncodeDifferential:
    def test_encode_batch_matches_scalar(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(101)
        words = random_batch(rng, scalar, 40)
        encoded = batch.encode_batch(words)
        assert encoded.shape == (40, scalar.n)
        for row, data in zip(encoded, words):
            assert row.tolist() == scalar.encode(data.tolist())

    def test_encoded_rows_are_codewords(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(102)
        encoded = batch.encode_batch(random_batch(rng, scalar, 16))
        assert batch.is_codeword_mask(encoded).all()
        assert all(scalar.is_codeword(row.tolist()) for row in encoded)


class TestCleanDecodeDifferential:
    def test_clean_decode_takes_fast_path_and_matches(self, pair):
        scalar, batch = pair
        counters = PerfCounters()
        batch.counters = counters
        rng = np.random.default_rng(103)
        encoded = batch.encode_batch(random_batch(rng, scalar, 24))
        report = batch.decode_batch(encoded)
        assert report.clean.all() and report.ok.all()
        assert counters.clean_fast_path == 24
        assert counters.scalar_fallbacks == 0
        for i, row in enumerate(encoded):
            assert_same_result(
                report[i], lambda row=row: scalar.decode(row.tolist())
            )

    def test_clean_decode_with_benign_erasures(self, pair):
        """Erased positions that happen to hold correct values."""
        scalar, batch = pair
        rng = np.random.default_rng(104)
        encoded = batch.encode_batch(random_batch(rng, scalar, 12))
        erasures = [
            sorted(
                rng.choice(scalar.n, size=min(i % 4, scalar.nsym), replace=False)
                .astype(int)
                .tolist()
            )
            for i in range(12)
        ]
        report = batch.decode_batch(encoded, erasures)
        for i, row in enumerate(encoded):
            assert_same_result(
                report[i],
                lambda row=row, e=erasures[i]: scalar.decode(
                    row.tolist(), erasure_positions=e
                ),
            )
            assert report.result(i).num_erasures == len(erasures[i])


def corrupt(rng, code, codeword, num_errors, num_erasures):
    """Apply distinct-position random errors + erasures; return word, erasures."""
    word = list(codeword)
    positions = rng.choice(
        code.n, size=num_errors + num_erasures, replace=False
    ).astype(int)
    error_pos = positions[:num_errors]
    erasure_pos = sorted(int(p) for p in positions[num_errors:])
    for p in positions:  # corrupt erased positions too (worst case)
        word[p] ^= int(rng.integers(1, code.gf.order))
    return word, erasure_pos, error_pos


class TestErrorDecodeDifferential:
    def test_random_correctable_errors(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(105)
        words = random_batch(rng, scalar, 30)
        encoded = batch.encode_batch(words)
        received = []
        for row in encoded:
            re = int(rng.integers(0, scalar.t + 1))
            word, _, _ = corrupt(rng, scalar, row.tolist(), re, 0)
            received.append(word)
        report = batch.decode_batch(np.asarray(received))
        for i, word in enumerate(received):
            assert_same_result(
                report[i], lambda w=word: scalar.decode(w)
            )

    def test_error_erasure_mixes_at_capability_boundary(self, pair):
        """Every boundary pattern 2*re + er == n - k must decode identically."""
        scalar, batch = pair
        rng = np.random.default_rng(106)
        received, erasures = [], []
        patterns = [
            (re, scalar.nsym - 2 * re) for re in range(scalar.t + 1)
        ]
        for re, er in patterns * 3:
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_uncorrectable_words_raise_identically(self, pair):
        """Beyond-capability patterns: same error type, same message."""
        scalar, batch = pair
        rng = np.random.default_rng(107)
        received, erasures = [], []
        for _ in range(20):
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            re = scalar.t + 1 + int(rng.integers(0, max(1, scalar.t)))
            re = min(re, scalar.n)
            word, _, _ = corrupt(rng, scalar, codeword, re, 0)
            received.append(word)
            erasures.append([])
        # Also: too many erasures must be rejected identically.
        data = random_batch(rng, scalar, 1)[0]
        codeword = scalar.encode(data.tolist())
        word, erasure_pos, _ = corrupt(rng, scalar, codeword, 0, scalar.nsym)
        received.append(word)
        erasures.append(sorted(set(erasure_pos) | {0, 1, scalar.n - 1}))
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_mixed_batch_masks_are_consistent(self, pair):
        """ok/clean masks agree with the per-word outcomes."""
        scalar, batch = pair
        rng = np.random.default_rng(108)
        encoded = batch.encode_batch(random_batch(rng, scalar, 9))
        received = []
        for i, row in enumerate(encoded):
            word = row.tolist()
            if i % 3 == 1:  # correctable
                word, _, _ = corrupt(rng, scalar, word, 1, 0)
            elif i % 3 == 2:  # very likely uncorrectable
                word, _, _ = corrupt(
                    rng, scalar, word, min(scalar.n, scalar.nsym + 1), 0
                )
            received.append(word)
        report = batch.decode_batch(np.asarray(received))
        assert len(report) == 9
        for i in range(9):
            outcome = report[i]
            assert report.ok[i] == (not isinstance(outcome, RSDecodingError))
            if report.clean[i]:
                assert report.ok[i]
                assert not outcome.corrected
        assert report.num_clean + report.num_fallback == 9


class TestErasureHeavyDifferential:
    """Words where erasures dominate or exhaust the budget entirely."""

    def test_full_erasure_budget_no_errors(self, pair):
        """er == n - k with zero errors is exactly at capability: every
        word must decode, identically, through the erasure-only path."""
        scalar, batch = pair
        rng = np.random.default_rng(110)
        received, erasures = [], []
        for _ in range(12):
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(
                rng, scalar, codeword, 0, scalar.nsym
            )
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        assert report.ok.all()
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )
            assert report.result(i).num_erasures == scalar.nsym

    def test_erasure_dominated_mixes(self, pair):
        """Mixes with er > 2*re (erasure-heavy but within capability)."""
        scalar, batch = pair
        rng = np.random.default_rng(111)
        received, erasures = [], []
        for _ in range(15):
            er = int(rng.integers(1, scalar.nsym + 1))
            re = int(rng.integers(0, (scalar.nsym - er) // 2 + 1))
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        assert report.ok.all()
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_over_erased_words_rejected_identically(self, pair):
        """er > n - k must fail on both paths before the syndrome stage."""
        scalar, batch = pair
        rng = np.random.default_rng(112)
        received, erasures = [], []
        for extra in (1, 2):
            er = min(scalar.nsym + extra, scalar.n)
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, 0, er)
            received.append(word)
            erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        assert not report.ok.any()
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )


class TestBeyondCapacityDifferential:
    """Patterns one or more units past 2*re + er == n - k."""

    def test_one_beyond_capacity_mixes(self, pair):
        """Every (re, er) with 2*re + er == n - k + 1: the outcome —
        detection or identical miscorrection — must match word-for-word."""
        scalar, batch = pair
        rng = np.random.default_rng(113)
        budget = scalar.nsym + 1
        received, erasures = [], []
        for re in range(budget // 2 + 1):
            er = budget - 2 * re
            if re + er > scalar.n:
                continue
            for _ in range(3):
                data = random_batch(rng, scalar, 1)[0]
                codeword = scalar.encode(data.tolist())
                word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
                received.append(word)
                erasures.append(erasure_pos)
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )

    def test_far_beyond_capacity_saturated_errors(self, pair):
        """Heavily corrupted words (every symbol flipped) still agree."""
        scalar, batch = pair
        rng = np.random.default_rng(114)
        received = []
        for _ in range(6):
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, _, _ = corrupt(rng, scalar, codeword, scalar.n, 0)
            received.append(word)
        report = batch.decode_batch(np.asarray(received))
        for i, word in enumerate(received):
            assert_same_result(report[i], lambda w=word: scalar.decode(w))

    def test_beyond_capacity_with_erasures_and_errors_mixed_batch(self, pair):
        """A single batch mixing within-capability, boundary and beyond:
        masks and outcomes must be per-word independent."""
        scalar, batch = pair
        rng = np.random.default_rng(115)
        specs = [
            (0, 0),
            (scalar.t, 0),
            (0, scalar.nsym),
            ((scalar.nsym + 1) // 2, 1 - (scalar.nsym % 2) + 1),
            (0, min(scalar.nsym + 1, scalar.n)),
        ]
        received, erasures, within = [], [], []
        for re, er in specs:
            data = random_batch(rng, scalar, 1)[0]
            codeword = scalar.encode(data.tolist())
            word, erasure_pos, _ = corrupt(rng, scalar, codeword, re, er)
            received.append(word)
            erasures.append(erasure_pos)
            within.append(2 * re + er <= scalar.nsym)
        report = batch.decode_batch(np.asarray(received), erasures)
        for i, word in enumerate(received):
            assert_same_result(
                report[i],
                lambda w=word, e=erasures[i]: scalar.decode(
                    w, erasure_positions=e
                ),
            )
            if within[i]:
                assert report.ok[i]


class TestBatchValidation:
    def test_wrong_shapes_rejected(self, pair):
        scalar, batch = pair
        with pytest.raises(ValueError, match="batch"):
            batch.encode_batch(np.zeros((2, scalar.k + 1), dtype=int))
        with pytest.raises(ValueError, match="batch"):
            batch.decode_batch(np.zeros((2, scalar.n + 1), dtype=int))

    def test_erasure_list_length_must_match(self, pair):
        scalar, batch = pair
        rng = np.random.default_rng(109)
        encoded = batch.encode_batch(random_batch(rng, scalar, 3))
        with pytest.raises(ValueError, match="erasure_positions"):
            batch.decode_batch(encoded, [[0]])

    def test_out_of_range_symbols_rejected(self, pair):
        scalar, batch = pair
        bad = np.zeros((1, scalar.n), dtype=int)
        bad[0, 0] = scalar.gf.order
        with pytest.raises(ValueError, match="outside"):
            batch.decode_batch(bad)

    def test_empty_batch(self, pair):
        scalar, batch = pair
        assert batch.encode_batch(np.zeros((0, scalar.k), dtype=int)).shape == (
            0,
            scalar.n,
        )
        report = batch.decode_batch(np.zeros((0, scalar.n), dtype=int))
        assert len(report) == 0
        assert report.num_clean == 0 and report.num_failures == 0

    def test_mismatched_scalar_codec_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            BatchRSCodec(18, 16, m=8, scalar=RSCode(18, 14, m=8))


class TestSyndromeOverflowRegression:
    """Regression: n=255 GF(2^8) batches in a signed narrow dtype.

    A full-length byte codeword handed over as ``int8`` wraps every
    symbol >= 128 negative.  The syndrome path used to feed those values
    straight into the log-table gather, where numpy's negative indexing
    silently produced a *wrong* syndrome — capable of proving a dirty
    word "clean" and skipping decode entirely.  The entry point now
    range-checks (raising ``ValueError``), and well-typed full-length
    batches must agree symbol-for-symbol with the scalar codec.
    """

    N, K, M = 255, 223, 8

    @pytest.fixture()
    def pair255(self):
        scalar = RSCode(self.N, self.K, m=self.M)
        return scalar, BatchRSCodec(self.N, self.K, m=self.M, scalar=scalar)

    def _high_symbol_batch(self, scalar, rng, rows=4):
        """Encoded words guaranteed to contain symbols >= 128."""
        data = rng.integers(128, 256, size=(rows, self.K))
        codewords = np.array([scalar.encode(row.tolist()) for row in data])
        assert (codewords >= 128).any(axis=1).all()  # int8 would wrap these
        return codewords

    def test_signed_int8_batch_rejected_not_silently_wrong(self, pair255):
        scalar, batch = pair255
        rng = np.random.default_rng(255)
        wrapped = self._high_symbol_batch(scalar, rng).astype(np.int8)
        assert (wrapped < 0).any()  # the hazard is real for this input
        with pytest.raises(ValueError, match="outside"):
            batch.syndromes_batch(wrapped)
        with pytest.raises(ValueError, match="outside"):
            batch.is_codeword_mask(wrapped)
        with pytest.raises(ValueError, match="outside"):
            batch.decode_batch(wrapped)

    def test_uint8_full_length_syndromes_match_scalar(self, pair255):
        from repro.rs.syndromes import compute_syndromes

        scalar, batch = pair255
        rng = np.random.default_rng(256)
        received = self._high_symbol_batch(scalar, rng)
        # Corrupt one high-value symbol per word so syndromes are nonzero.
        for row in received:
            row[int(rng.integers(0, self.N))] ^= 0xFF
        got = batch.syndromes_batch(received.astype(np.uint8))
        for i, word in enumerate(received):
            expected = compute_syndromes(
                scalar.gf, word.tolist(), scalar.nsym, scalar.fcr
            )
            assert got[i].tolist() == expected

    def test_uint8_clean_words_stay_clean_and_decode(self, pair255):
        scalar, batch = pair255
        rng = np.random.default_rng(257)
        codewords = self._high_symbol_batch(scalar, rng).astype(np.uint8)
        assert batch.is_codeword_mask(codewords).all()
        report = batch.decode_batch(codewords)
        assert report.ok.all() and report.clean.all()
        for i in range(len(codewords)):
            assert report[i].codeword == codewords[i].astype(int).tolist()


#: (n, k, m, fcr) of the large mixed-batch differential: the paper's
#: RS(18,16) and RS(36,16), a full-length byte code, and two narrow
#: fields with non-default first consecutive roots.
MIXED_CODES = [
    (18, 16, 8, 1),
    (36, 16, 8, 1),
    (255, 223, 8, 1),
    (15, 9, 4, 0),
    (31, 25, 5, 3),
]

#: Failure classes the Berlekamp-Massey decoder can reach.  (A vanishing
#: Forney denominator cannot follow a matching Chien root count: n
#: distinct roots make the derivative nonzero at each of them.)
REACHABLE_FAILURES = {
    "over-erased": "erasures exceed correction capability",
    "capability": "error locator degree",
    "root-count": "errata locator of degree",
    "post-syndromes": "post-correction syndromes nonzero",
}


def mixed_batch(code, rng, words):
    """Words cycling through every stratum, erasure counts mixed freely."""
    nsym, t, n = code.nsym, code.t, code.n

    def mix(stratum):
        if stratum == "clean":
            return 0, 0
        if stratum == "below":
            re = int(rng.integers(0, t + 1))
            return re, int(rng.integers(0, max(1, nsym - 2 * re)))
        if stratum == "at":
            re = int(rng.integers(0, t + 1))
            return re, nsym - 2 * re
        if stratum == "erasure-only":
            return 0, int(rng.integers(1, nsym + 1))
        if stratum == "over-erased":
            return 0, min(n, nsym + int(rng.integers(1, 3)))
        budget = nsym + int(rng.integers(1, 4))  # beyond
        re = int(rng.integers(0, budget // 2 + 1))
        return re, min(budget - 2 * re, nsym)

    strata = ["clean", "below", "at", "beyond", "beyond", "erasure-only",
              "over-erased"]
    data = rng.integers(0, code.gf.order, size=(words, code.k))
    received, erasures = [], []
    for i, row in enumerate(data):
        re, er = mix(strata[i % len(strata)])
        word = code.encode(row.tolist())
        positions = rng.choice(n, size=min(n, re + er), replace=False)
        for p in positions:
            # ~1 in 8 faults is benign: flagged or hit, value unchanged.
            if rng.random() >= 0.125:
                word[p] ^= int(rng.integers(1, code.gf.order))
        received.append(word)
        erasures.append(sorted(int(p) for p in positions[re:]))
    return data, np.asarray(received), erasures


@pytest.fixture(
    scope="module",
    params=MIXED_CODES,
    ids=lambda c: f"RS({c[0]},{c[1]})m{c[2]}fcr{c[3]}",
)
def mixed_decode(request):
    """One large mixed batch per code, decoded by batch and scalar."""
    n, k, m, fcr = request.param
    scalar = RSCode(n, k, m=m, fcr=fcr)
    counters = PerfCounters()
    batch = BatchRSCodec(n, k, m=m, fcr=fcr, scalar=scalar, counters=counters)
    rng = np.random.default_rng(1000 + n + fcr)
    data, received, erasures = mixed_batch(scalar, rng, 700 if n > 100 else 2100)
    report = batch.decode_batch(received, erasures)
    expected = []
    for word, ers in zip(received, erasures):
        try:
            expected.append(scalar.decode(word.tolist(), erasure_positions=ers))
        except RSDecodingError as exc:
            expected.append(exc)
    return data, report, expected, counters


class TestVectorizedDecodeLargeMixedBatch:
    """The vectorized dirty-word decoder against ``RSCode.decode``."""

    def test_word_for_word_identical(self, mixed_decode):
        _data, report, expected, _counters = mixed_decode
        for i, scalar_outcome in enumerate(expected):
            def replay(outcome=scalar_outcome):
                if isinstance(outcome, RSDecodingError):
                    raise outcome
                return outcome

            assert_same_result(report[i], replay)
        assert report.ok.tolist() == [
            not isinstance(e, RSDecodingError) for e in expected
        ]

    def test_batch_covers_every_stratum(self, mixed_decode):
        data, report, expected, _counters = mixed_decode
        decoded = [e for e in expected if not isinstance(e, RSDecodingError)]
        assert report.clean.any()
        assert any(e.corrected and e.num_errors for e in decoded)
        assert any(e.num_erasures and not e.num_errors for e in decoded)
        miscorrected = [
            i for i, e in enumerate(expected)
            if not isinstance(e, RSDecodingError)
            and e.data != data[i].tolist()
        ]
        assert miscorrected, "no miscorrection in the batch"
        messages = {str(e) for e in expected if isinstance(e, RSDecodingError)}
        for name in ("over-erased", "capability", "root-count"):
            fragment = REACHABLE_FAILURES[name]
            assert any(fragment in msg for msg in messages), name

    def test_counters_count_dirty_and_failed_words(self, mixed_decode):
        _data, report, _expected, counters = mixed_decode
        assert counters.words_decoded == len(report)
        assert counters.clean_fast_path == int(report.clean.sum())
        assert counters.scalar_fallbacks == int((~report.clean).sum())
        assert counters.decode_failures == int((~report.ok).sum())


def test_mixed_batches_reach_every_failure_class():
    """Across the codes, every reachable error message occurs and matches."""
    seen = set()
    for n, k, m, fcr in MIXED_CODES:
        scalar = RSCode(n, k, m=m, fcr=fcr)
        batch = BatchRSCodec(n, k, m=m, fcr=fcr, scalar=scalar)
        rng = np.random.default_rng(2000 + n + fcr)
        _data, received, erasures = mixed_batch(scalar, rng, 350 if n > 100 else 1400)
        report = batch.decode_batch(received, erasures)
        for i in np.flatnonzero(~report.ok):
            with pytest.raises(RSDecodingError) as exc:
                scalar.decode(received[i].tolist(), erasure_positions=erasures[i])
            assert str(report[i]) == str(exc.value)
            seen |= {
                name for name, fragment in REACHABLE_FAILURES.items()
                if fragment in str(exc.value)
            }
    assert seen == set(REACHABLE_FAILURES)


class TestBatchLayerIsBerlekampMasseyOnly:
    def test_euclid_scalar_codec_rejected(self):
        with pytest.raises(ValueError, match="Berlekamp-Massey"):
            BatchRSCodec(18, 16, m=8, scalar=RSCode(18, 16, key_solver="euclid"))

    def test_backends_reject_euclid_scalar_codec(self):
        from repro.rs.backends import create_backend

        for name in ("numpy", "scalar"):
            with pytest.raises(ValueError, match="Berlekamp-Massey"):
                create_backend(
                    name, 18, 16, scalar=RSCode(18, 16, key_solver="euclid")
                )

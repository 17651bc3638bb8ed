"""Batch codec kernels vs the scalar codec: measured speedups.

Acceptance gate of the batch execution layer: on a clean-word batch
(the dominant case in every memory-reliability regime the paper
studies) ``BatchRSCodec.decode_batch`` must be at least 10x faster than
looping the scalar decoder, and batch encode must beat scalar encode.
The numbers land in ``benchmarks/results/batch_codec.txt``.
"""

import numpy as np

from repro.analysis.tables import _render  # reuse the aligner
from repro.perf import timed
from repro.rs import BatchRSCodec, RSCode

N, K, M = 18, 16, 8
BATCH = 4096


def make_inputs():
    code = RSCode(N, K, m=M)
    codec = BatchRSCodec(N, K, m=M, scalar=code)
    rng = np.random.default_rng(2005)
    data = rng.integers(0, code.gf.order, size=(BATCH, K))
    clean = codec.encode_batch(data)
    noisy = clean.copy()
    # one random symbol error in every word: worst case for the batch
    # layer (every word dirty), measures the vectorized dirty-word decoder.
    rows = np.arange(BATCH)
    cols = rng.integers(0, N, size=BATCH)
    noisy[rows, cols] ^= rng.integers(1, code.gf.order, size=BATCH)
    return code, codec, data, clean, noisy


def test_clean_decode_speedup(benchmark, save_table):
    code, codec, data, clean, noisy = make_inputs()
    clean_lists = [row.tolist() for row in clean]

    report = benchmark(codec.decode_batch, clean)
    assert report.clean.all()

    _, t_batch = timed(codec.decode_batch, clean)
    _, t_scalar = timed(lambda: [code.decode(w) for w in clean_lists])
    speedup = t_scalar / t_batch

    _, t_enc_batch = timed(codec.encode_batch, data)
    _, t_enc_scalar = timed(
        lambda: [code.encode(d) for d in data.tolist()]
    )
    enc_speedup = t_enc_scalar / t_enc_batch

    noisy_lists = [row.tolist() for row in noisy]

    def scalar_noisy():
        out = []
        for w in noisy_lists:
            out.append(code.decode(w))
        return out

    _, t_noisy_batch = timed(codec.decode_batch, noisy)
    _, t_noisy_scalar = timed(scalar_noisy)
    noisy_speedup = t_noisy_scalar / t_noisy_batch

    rows = [
        [
            "decode, all words clean",
            f"{BATCH / t_scalar:,.0f}",
            f"{BATCH / t_batch:,.0f}",
            f"{speedup:.1f}x",
        ],
        [
            "decode, 1 error/word (100% dirty)",
            f"{BATCH / t_noisy_scalar:,.0f}",
            f"{BATCH / t_noisy_batch:,.0f}",
            f"{noisy_speedup:.1f}x",
        ],
        [
            "encode",
            f"{BATCH / t_enc_scalar:,.0f}",
            f"{BATCH / t_enc_batch:,.0f}",
            f"{enc_speedup:.1f}x",
        ],
    ]
    save_table(
        "batch_codec",
        f"Batch vs scalar RS({N},{K}) codec, batch of {BATCH} words (words/sec)",
        _render(["operation", "scalar w/s", "batch w/s", "speedup"], rows),
    )
    assert speedup >= 10.0, (
        f"clean-word batch decode only {speedup:.1f}x faster than scalar"
    )
    assert enc_speedup > 1.0
    # the dirty-word decoder must not cost materially more than scalar decoding
    assert noisy_speedup > 0.5


def test_backend_matrix_speedups(benchmark, save_table):
    """Clean-word decode/encode across every registered backend.

    The registry's promise is "same bits, different speed": this bench
    measures the speed axis, one row per backend, against the scalar
    codec loop as the common reference.  The compiled backend runs its
    jitted kernels when numba is present; otherwise the numpy fallback
    forms of the same bit-sliced algorithm are measured (and labeled).
    """
    import os

    from repro.rs.backends import create_backend
    from repro.rs.backends.kernels import KERNELS_ENV, kernel_mode

    code, _codec, data, clean, _noisy = make_inputs()
    clean_lists = [row.tolist() for row in clean]

    def best(fn, *args, repeats=3):
        return min(timed(fn, *args)[1] for _ in range(repeats))

    t_loop_dec = best(lambda: [code.decode(w) for w in clean_lists])
    t_loop_enc = best(lambda: [code.encode(d) for d in data.tolist()])

    mode, _detail = kernel_mode()
    forced_env = False
    prior = os.environ.get(KERNELS_ENV)
    if mode == "unavailable":
        # No numba here: measure the compiled backend's numpy kernel
        # forms instead of silently skipping the row.
        os.environ[KERNELS_ENV] = "python"
        forced_env = True
        mode = "python"
    try:
        backends = {
            name: create_backend(name, N, K, m=M)
            for name in ("scalar", "numpy", "compiled")
        }
        rows, speedups = [], {}
        for name, backend in backends.items():
            report = backend.decode_batch(clean)
            assert report.clean.all(), name  # same bits before timing speed
            t_dec = best(backend.decode_batch, clean)
            t_enc = best(backend.encode_batch, data)
            speedups[name] = t_loop_dec / t_dec
            label = f"compiled [{mode} kernels]" if name == "compiled" else name
            rows.append(
                [
                    label,
                    f"{BATCH / t_dec:,.0f}",
                    f"{t_loop_dec / t_dec:.1f}x",
                    f"{BATCH / t_enc:,.0f}",
                    f"{t_loop_enc / t_enc:.1f}x",
                ]
            )
        benchmark.pedantic(
            backends["compiled"].decode_batch,
            args=(clean,),
            rounds=3,
            iterations=1,
        )
    finally:
        if forced_env:
            if prior is None:
                os.environ.pop(KERNELS_ENV, None)
            else:
                os.environ[KERNELS_ENV] = prior
    save_table(
        "batch_codec_backends",
        f"RS({N},{K}) backend matrix, clean batch of {BATCH} words "
        f"(vs scalar codec loop)",
        _render(
            ["backend", "decode w/s", "speedup", "encode w/s", "speedup"],
            rows,
        ),
    )
    # The registry's speed promise: vectorized backends land the 10-50x
    # clean-word window (the jitted compiled kernels must clear it; the
    # numpy fallback forms of the same algorithm get a softer floor),
    # and the scalar backend — the contract floor — must not be
    # materially slower than the raw loop it wraps.
    assert speedups["numpy"] >= 8.0, speedups
    assert speedups["compiled"] >= (10.0 if mode == "numba" else 3.0), (
        mode,
        speedups,
    )
    assert speedups["scalar"] > 0.3, speedups


def test_batch_results_identical_to_scalar(benchmark):
    """The timed configurations really are bit-identical (spot check)."""
    code, codec, data, clean, noisy = make_inputs()
    report = benchmark.pedantic(
        codec.decode_batch, args=(noisy,), rounds=1, iterations=1
    )
    for i in (0, 1, BATCH // 2, BATCH - 1):
        assert report.result(i).codeword == clean[i].tolist()
        assert report.result(i).data == data[i].tolist()

"""Set-up probe: one fresh process that imports the CLI and builds a codec.

Run as ``python3 perfbench/setup_probe.py SRC_DIR``.  Prints one JSON
line with the two stage times and the backend ``--engine auto``
resolves to.  The parent measures the process's whole wall time.
"""

import json
import sys
import time
import warnings


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import repro.cli  # noqa: F401

    imported = time.perf_counter()
    from repro.rs import RSCode
    from repro.rs.backends import create_backend, resolve_engine

    with warnings.catch_warnings():
        # `auto` announces a missing compiled backend; the probe only
        # records which backend it resolved to.
        warnings.simplefilter("ignore")
        _family, backend = resolve_engine("auto")
    code = RSCode(18, 16, m=8)
    codec = create_backend(backend, 18, 16, m=8, scalar=code)
    codec.encode_batch([[0] * 16])
    built = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "codec_build_s": built - imported,
                "backend": backend,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

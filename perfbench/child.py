"""One run of the mfldproj CLI entry point in a fresh process.

Usage: ``python3 child.py REQUEST_JSON``.  The request holds a RunConfig
dict, whether to trace, and whether to stop once set up.  The process
imports the package from the checkout's ``src``, validates the config,
reports when it was ready (on the system-wide monotonic clock, so the
parent can subtract its spawn time) and the numpy, scipy and BLAS facts,
runs ``harness.run`` once and prints one JSON line: run time, exit status,
peak RSS and, when traced, the spans.  A config that fails validation gets
the same structured stderr record as the CLI and exit status 2.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _blas_facts() -> dict:
    import numpy as np

    facts = {"vendor": None, "threads": None}
    try:
        facts["vendor"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        import ctypes
        import glob

        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
        if libs:
            lib = ctypes.CDLL(libs[0])
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["threads"] = int(fn())
                    break
    except OSError:
        pass
    return facts


def main(argv) -> int:
    request = json.loads(argv[1])
    sys.path.insert(0, str(SRC))
    from mfldproj import harness

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        print(json.dumps({"code": "ImportError", "message": f"mfldproj imported from {harness.__file__}"}),
              file=sys.stderr)
        return 3
    try:
        cfg = harness.RunConfig.from_dict(request["config"])
    except (ValueError, KeyError) as exc:
        print(json.dumps({"code": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    ready = time.monotonic()
    import numpy
    import scipy

    out = {"ready": ready, "host": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                                    "blas": _blas_facts()}}
    if request.get("setup_only"):
        print(json.dumps(out))
        return 0

    if request.get("trace"):
        from dataclasses import asdict

        from spans import tracing

        with tracing(request.get("run_id", "run")) as spans:
            t0 = time.perf_counter()
            rc = harness.run(cfg)
            out["run_s"] = time.perf_counter() - t0
        out["spans"] = [asdict(s) for s in spans]
    else:
        t0 = time.perf_counter()
        rc = harness.run(cfg)
        out["run_s"] = time.perf_counter() - t0
    out["rc"] = rc
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

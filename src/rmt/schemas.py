"""Structural schemas for the CLI's JSON outputs.

Deliberately small: each schema maps required keys to allowed types (lists
carry their element type), and :func:`validate` raises ``ValueError`` on the
first mismatch.  Outputs are validated before they are written.
"""

from __future__ import annotations

NUMBER = (int, float)
COUNT_OR_NONE = (int, type(None))  # a count that may be missing, e.g. an unpinned BLAS thread count
TEXT_OR_NONE = (str, type(None))  # a build string that may be missing, e.g. where numpy bundles no OpenBLAS

SCHEMAS: dict = {
    "estimate": {
        "P_hat": (list, NUMBER),
        "method": str,
        "N": int,
        "n": int,
        "warnings": (list, str),
    },
    "detect": {
        "signal": bool,
        "statistic": NUMBER,
        "standardized": NUMBER,
        "threshold": NUMBER,
        "far": NUMBER,
    },
    "doa": {
        "angles_deg": (list, NUMBER),
        "method": str,
        "complete": bool,
    },
    "localize": {
        "k_hat": int,
        "scores": (list, NUMBER),
        "extreme_eigenvalue": NUMBER,
        "side": str,
        "skipped_hypotheses": (list, int),
    },
    "summary": {
        "kind": str,
        "aggregates": dict,
        "runtime_s": NUMBER,
        "seed_manifest": dict,
    },
    # the summary's seed_manifest
    "seed_manifest": {
        "seed": int,
        "streams": str,
        "blas_threads": COUNT_OR_NONE,
        "workers": int,
        "numpy": str,  # numpy's version
        "openblas": TEXT_OR_NONE,  # the build string of numpy's bundled OpenBLAS
        "scipy": TEXT_OR_NONE,  # scipy's installed version, from package metadata
    },
    # the manifest ``rmt reproduce`` writes beside the curve files
    "manifest": {
        "figure": str,
        "seed": int,
        "scale": str,
        "workers": int,
        "blas_threads": COUNT_OR_NONE,
        "numpy": str,
        "openblas": TEXT_OR_NONE,
        "scipy": TEXT_OR_NONE,
        "specs": (list, dict),  # one scenario JSON per Monte-Carlo run, in run order
        "bindings": (list, str),  # the class name of each run's binding, in the same order
        "build": str,
        "files": (list, str),
    },
}


def validate(name: str, obj: dict) -> dict:
    schema = SCHEMAS[name]
    if not isinstance(obj, dict):
        raise ValueError(f"{name}: expected an object")
    for key, want in schema.items():
        if key not in obj:
            raise ValueError(f"{name}: missing key {key!r}")
        value = obj[key]
        if isinstance(want, tuple) and want and want[0] is list:
            if not isinstance(value, list):
                raise ValueError(f"{name}.{key}: expected a list")
            elem = want[1]
            for v in value:
                if isinstance(v, bool) or not isinstance(v, elem):
                    raise ValueError(f"{name}.{key}: bad element {v!r}")
        else:
            if want in (int, NUMBER, COUNT_OR_NONE) and isinstance(value, bool):
                raise ValueError(f"{name}.{key}: expected a number, got bool")
            if not isinstance(value, want):
                raise ValueError(f"{name}.{key}: expected {want}, got {type(value)}")
    return obj

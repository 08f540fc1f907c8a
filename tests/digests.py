"""Digests of golden results that every BLAS kernel reproduces.

OpenBLAS picks its kernels by CPU (`OPENBLAS_CORETYPE` overrides it), and
two kernels may round the last bits of a float differently while every
status, count, rank, null dimension, cut and twist stays the same.  So a
golden digest hashes those exactly and each float at a stated precision:
10 significant digits in a report, 10 decimal places for the amplitudes
of a unit vector.  A different twist or cut moves amplitudes by far more.
"""

import hashlib
import json

import numpy as np

SIGNIFICANT_DIGITS = 10
AMPLITUDE_DECIMALS = 10


def _rounded(value):
    """`value` with every float written to SIGNIFICANT_DIGITS digits."""
    if isinstance(value, float):
        return f"{value:.{SIGNIFICANT_DIGITS - 1}e}"
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def report_digest(text):
    """sha256 of a JSON document, its floats rounded by `_rounded`."""
    rounded = json.dumps(_rounded(json.loads(text)), indent=2, sort_keys=True)
    return hashlib.sha256(rounded.encode()).hexdigest()


def amplitude_digest(amplitudes):
    """sha256 of the real and imaginary parts of `amplitudes`, each rounded
    to AMPLITUDE_DECIMALS decimal places (-0.0 read as 0.0)."""
    parts = np.round(np.asarray(amplitudes).view(float), AMPLITUDE_DECIMALS)
    return hashlib.sha256((parts + 0.0).tobytes()).hexdigest()

"""Laguerre polynomials and the displacement-transform kernels built from them.

Evaluation uses the stable three-term forward recurrence, carried out in
extended precision (x86 80-bit long double) and rounded to double once at
the end.  In the physical regime the argument is x = 4*lambda^2 with
|lambda| <= 1, so neither overflow nor cancellation is a concern, but the
recurrence itself is valid for any x >= 0 and degrees up to MAX_DEGREE.
Where long double is no wider than double (MSVC, arm64 macOS) the
polynomials refuse to run: float64 misses the 1e-12 oracle accuracy.
"""

import math

import numpy as np

MAX_DEGREE = 10_000
LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
EXTENDED_PRECISION = LONGDOUBLE_EPS < float(np.finfo(np.float64).eps)


def _check_degree(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"polynomial degree must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds supported maximum {MAX_DEGREE}")
    return n


def _check_argument(x) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"argument must be finite and >= 0, got {x}")
    return x


def _genlaguerre(n: int, k: int, x: float) -> float:
    # forward recurrence for L_n^k, in long double
    if not EXTENDED_PRECISION:
        raise RuntimeError(
            f"long double eps is {LONGDOUBLE_EPS:.3e}, no finer than double: the "
            "Laguerre recurrence needs x86 80-bit extended precision"
        )
    if n == 0:
        return 1.0
    xl = np.longdouble(x)
    prev = np.longdouble(1.0)
    cur = np.longdouble(1 + k) - xl
    for j in range(1, n):
        prev, cur = cur, ((2 * j + k + 1 - xl) * cur - (j + k) * prev) / (j + 1)
    return float(cur)


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x)."""
    return _genlaguerre(_check_degree(n), 0, _check_argument(x))


def assoc_laguerre1(n: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^1(x) (superscript fixed to one)."""
    return _genlaguerre(_check_degree(n), 1, _check_argument(x))


def _check_shift(lam) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or abs(lam) > 1.0:
        raise ValueError(f"displacement parameter must satisfy |lambda| <= 1, got {lam}")
    return lam


def g0(n: int, lam: float) -> float:
    """Diagonal displacement kernel L_n(4 lam^2) * exp(-2 lam^2).

    Equals <n| cosh[2 lam (a^dag - a)] |n>.
    """
    lam = _check_shift(lam)
    return laguerre(n, 4.0 * lam * lam) * float(np.exp(-2.0 * lam * lam))


def f1(n: int, lam: float) -> float:
    """Ladder displacement kernel 2 lam L_n^1(4 lam^2) exp(-2 lam^2) / (n + 1).

    This is the coefficient multiplying a^dag in the sinh expansion; the bare
    matrix element <n+1| sinh[2 lam (a^dag - a)] |n> carries one extra bosonic
    factor sqrt(n+1).
    """
    lam = _check_shift(lam)
    n = _check_degree(n)
    return 2.0 * lam * assoc_laguerre1(n, 4.0 * lam * lam) * float(np.exp(-2.0 * lam * lam)) / (n + 1)

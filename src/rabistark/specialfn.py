"""Laguerre polynomials and the displacement-transform kernels built from them.

Evaluation uses the stable three-term forward recurrence (Abramowitz &
Stegun 22.7.12), carried out in extended precision (x86 80-bit long double)
and rounded to double once at the end.  The recurrence runs over lanes: one
pass over a (lane x degree) array serves many arguments and degrees at once,
and the scalar functions are batches of one lane.  In the physical regime
the argument is x = 4*lambda^2 with |lambda| <= 1, so neither overflow nor
cancellation is a concern, but the recurrence itself is valid for any
x >= 0 and degrees up to MAX_DEGREE.  Where long double is no wider than
double (MSVC, arm64 macOS) the polynomials refuse to run: float64 misses the
1e-12 oracle accuracy.
"""

import numpy as np

MAX_DEGREE = 10_000
LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
EXTENDED_PRECISION = LONGDOUBLE_EPS < float(np.finfo(np.float64).eps)

_ORDERS = np.array([[0.0], [1.0]], dtype=np.longdouble)  # k of L_n^k, one row each


def _check_degrees(n) -> np.ndarray:
    arr = np.asarray(n)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"polynomial degree must be an integer, got {n!r}")
    arr = arr.astype(np.int64).ravel()
    if arr.size and arr.min() < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {arr.min()}")
    return arr


def _check_arguments(x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"argument must be finite and >= 0, got {x[bad][0]}")
    return x


def laguerre_lanes(n, x, span: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """L_{n+s}(x) and L^1_{n+s}(x) for s = 0 .. span-1, lane by lane.

    n and x are per-lane degrees and arguments.  One long-double recurrence
    runs both orders up to the largest degree asked for, and each lane's
    values are taken when the recurrence reaches its own degrees.  Returns
    two float64 arrays of shape (span, lanes).  Arguments and the precision
    guard are checked once for the whole batch.
    """
    n = _check_degrees(n)
    x = _check_arguments(x)
    if n.shape != x.shape:
        raise ValueError(f"{n.size} degrees for {x.size} arguments")
    if n.size and n.max() + span - 1 > MAX_DEGREE:
        raise ValueError(
            f"degree {n.max() + span - 1} exceeds supported maximum {MAX_DEGREE}"
        )
    if not EXTENDED_PRECISION:
        raise RuntimeError(
            f"long double eps is {LONGDOUBLE_EPS:.3e}, no finer than double: the "
            "Laguerre recurrence needs x86 80-bit extended precision"
        )
    out = np.empty((2, span, n.size))
    if not n.size:
        return out[0], out[1]
    xl = x.astype(np.longdouble)
    k = _ORDERS
    wanted = n + np.arange(span)[:, None]  # (span, lanes) degrees to record
    present = set(wanted.ravel().tolist())

    def record(degree, values):
        if degree in present:
            hit = wanted == degree
            out[:, hit] = values[:, hit.nonzero()[1]]

    prev = np.ones((2, n.size), dtype=np.longdouble)
    cur = (1 + k) - xl
    record(0, prev)
    top = int(n.max()) + span - 1
    if top >= 1:
        record(1, cur)
    steps = np.arange(top)[:, None, None]
    diagonal, lower = 2 * steps + 1 + k, steps + k  # 2j + 1 + k and j + k, exact
    for j in range(1, top):
        nxt = diagonal[j] - xl
        nxt *= cur
        nxt -= lower[j] * prev
        nxt /= j + 1
        prev, cur = cur, nxt
        record(j + 1, cur)
    return out[0], out[1]


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x)."""
    return float(laguerre_lanes([n], [x])[0][0, 0])


def assoc_laguerre1(n: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^1(x) (superscript fixed to one)."""
    return float(laguerre_lanes([n], [x])[1][0, 0])


def _check_shifts(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float).ravel()
    bad = ~(np.abs(lam) <= 1.0)
    if bad.any():
        raise ValueError(
            f"displacement parameter must satisfy |lambda| <= 1, got {lam[bad][0]}"
        )
    return lam


def displacement_kernels(n, lam) -> tuple[np.ndarray, np.ndarray]:
    """g0 and f1 for each lane (n, lam), from one recurrence pass."""
    lam = _check_shifts(lam)
    ln, l1n = laguerre_lanes(n, 4.0 * lam * lam)
    e = np.exp(-2.0 * lam * lam)
    return ln[0] * e, 2.0 * lam * l1n[0] * e / (np.asarray(n).ravel() + 1)


def g0(n: int, lam: float) -> float:
    """Diagonal displacement kernel L_n(4 lam^2) * exp(-2 lam^2).

    Equals <n| cosh[2 lam (a^dag - a)] |n>.
    """
    return float(displacement_kernels([n], [lam])[0][0])


def f1(n: int, lam: float) -> float:
    """Ladder displacement kernel 2 lam L_n^1(4 lam^2) exp(-2 lam^2) / (n + 1).

    This is the coefficient multiplying a^dag in the sinh expansion; the bare
    matrix element <n+1| sinh[2 lam (a^dag - a)] |n> carries one extra bosonic
    factor sqrt(n+1).
    """
    return float(displacement_kernels([n], [lam])[1][0])

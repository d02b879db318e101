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
    arr = arr.astype(np.int64, copy=False).ravel()
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
    runs both orders, each lane only up to its top degree n + span - 1 (the
    lanes sorted by it, a step runs over a prefix), so a lane's bits do not
    depend on the others; equal n and span = top - n + 1 make a table of
    degrees n..top per argument.  Returns two float64 arrays of shape
    (span, lanes).  Arguments and the precision guard are checked once.
    """
    n = _check_degrees(n)
    x = _check_arguments(x)
    if n.shape != x.shape:
        raise ValueError(f"{n.size} degrees for {x.size} arguments")
    if not EXTENDED_PRECISION:
        raise RuntimeError(
            f"long double eps is {LONGDOUBLE_EPS:.3e}, no finer than double: the "
            "Laguerre recurrence needs x86 80-bit extended precision"
        )
    top = int(n.max()) + span - 1 if n.size else -1
    if top > MAX_DEGREE:
        raise ValueError(f"degree {top} exceeds supported maximum {MAX_DEGREE}")
    out = np.empty((2, span, n.size))
    if not out.size:  # no lanes, or span 0
        return out[0], out[1]
    # lanes by top degree n + span - 1, descending
    order = np.argsort(-n, kind="stable")
    n, xl = n[order], x[order].astype(np.longdouble)
    # reach[i] lanes have n >= i + 1 - span: degree d runs over lanes
    # [0, reach[d]), and lanes [reach[d + span], reach[d]) record it in row d - n
    counts = np.bincount(n, minlength=top + 1)
    reach = [n.size] * (span - 1) + np.cumsum(counts[::-1])[::-1].tolist() + [0]
    k = _ORDERS

    def record(degree, values):
        lo, hi = reach[degree + span], reach[degree]
        out[:, degree - n[lo:hi], order[lo:hi]] = values[:, lo:hi]

    prev = np.ones((2, n.size), dtype=np.longdouble)
    record(0, prev)
    if top >= 1:
        cur = (1 + k) - xl[: reach[1]]
        record(1, cur)
    steps = np.arange(top)[:, None, None]
    diagonal, lower = 2 * steps + (1 + k), steps + k  # 2j + 1 + k and j + k, exact
    for j in range(1, top):
        if reach[j + 1] < xl.size:  # lanes whose top degree is j are done
            xl, prev, cur = xl[: reach[j + 1]], prev[:, : reach[j + 1]], cur[:, : reach[j + 1]]
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


def kernels_from_laguerre(n, lam, ln, l1n) -> tuple[np.ndarray, np.ndarray]:
    """g0 and f1 for each lane (n, lam) from its L_n(4 lam^2) and L^1_n(4 lam^2)."""
    e = np.exp(-2.0 * lam * lam)
    return ln * e, 2.0 * lam * l1n * e / (n + 1)


def displacement_kernels(n, lam) -> tuple[np.ndarray, np.ndarray]:
    """g0 and f1 for each lane (n, lam), from one recurrence pass."""
    lam = _check_shifts(lam)
    ln, l1n = laguerre_lanes(n, 4.0 * lam * lam)
    return kernels_from_laguerre(np.asarray(n).ravel(), lam, ln[0], l1n[0])


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

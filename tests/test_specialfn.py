"""Laguerre kernels against an exact rational series oracle and the
displacement-operator matrix elements they are supposed to reproduce."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import rabistark.specialfn as specialfn
from rabistark.specialfn import assoc_laguerre1, f1, g0, laguerre

X_GRID = [0.0, 0.01, 0.1, 1.0, 4.0]


def series_oracle(n: int, k: int, x: float) -> float:
    """Exact finite series sum_j (-1)^j C(n+k, n-j) x^j / j! in rational
    arithmetic; the float argument is converted exactly."""
    xf = Fraction(x)
    total = Fraction(0)
    for j in range(n + 1):
        total += Fraction((-1) ** j * math.comb(n + k, n - j), math.factorial(j)) * xf**j
    return float(total)


def test_laguerre_trivial_values():
    assert laguerre(0, 0.37) == 1.0
    assert laguerre(1, 0.5) == 0.5
    assert laguerre(0, 0.0) == 1.0


def test_laguerre_degree7_series_oracle():
    expected = series_oracle(7, 0, 0.04)
    assert laguerre(7, 0.04) == pytest.approx(expected, rel=1e-12)


def test_assoc_laguerre_trivial_values():
    assert assoc_laguerre1(5, 0.0) == 6.0
    assert assoc_laguerre1(0, 2.0) == 1.0


def test_assoc_laguerre_degree4_series_oracle():
    expected = series_oracle(4, 1, 0.16)
    assert assoc_laguerre1(4, 0.16) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x", X_GRID)
def test_recurrence_matches_series_up_to_degree_60(x):
    for n in range(61):
        for k, fn in ((0, laguerre), (1, assoc_laguerre1)):
            expected = series_oracle(n, k, x)
            got = fn(n, x)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (n, k, x)


def test_laguerre_zero_argument_identities():
    for n in range(0, 40):
        assert laguerre(n, 0.0) == 1.0
        assert assoc_laguerre1(n, 0.0) == float(n + 1)


@pytest.mark.parametrize(
    "fn, bad",
    [
        (laguerre, (-1, 0.5)),
        (laguerre, (2.5, 0.5)),
        (laguerre, (3, -0.1)),
        (laguerre, (3, float("nan"))),
        (laguerre, (20_000, 0.5)),
        (assoc_laguerre1, (-2, 1.0)),
    ],
)
def test_domain_errors(fn, bad):
    n, x = bad
    with pytest.raises(ValueError):
        fn(n, x)


def test_degree_bound_counts_the_span():
    # the top degree n + span - 1 is refused before any lane array is built
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        specialfn.laguerre_lanes([1, 0], [0.5, 0.5], span=10**12)
    ln, l1n = specialfn.laguerre_lanes([1, 0], [0.5, 0.5], span=specialfn.MAX_DEGREE)
    assert ln.shape == l1n.shape == (specialfn.MAX_DEGREE, 2)
    # span 0 asks for no degree, so a degree-0 lane's top degree is -1
    ln, l1n = specialfn.laguerre_lanes([0], [0.5], span=0)
    assert ln.shape == l1n.shape == (0, 1)


def test_kernel_trivial_values():
    assert g0(3, 0.0) == 1.0
    assert g0(0, 0.1) == pytest.approx(math.exp(-0.02), rel=1e-15)
    assert f1(2, 0.0) == 0.0
    assert f1(0, 0.1) == pytest.approx(0.2 * math.exp(-0.02), rel=1e-15)


def test_kernel_shift_domain():
    with pytest.raises(ValueError):
        g0(1, 1.5)
    with pytest.raises(ValueError):
        f1(1, -1.0001)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            g0(1, bad)
        with pytest.raises(ValueError):
            f1(1, bad)


def test_recurrence_refuses_without_extended_precision(monkeypatch):
    # where long double is plain double (MSVC, arm64 macOS) the float64
    # recurrence would miss the 1e-12 oracle gate, so it must not run
    monkeypatch.setattr(specialfn, "EXTENDED_PRECISION", False)
    monkeypatch.setattr(specialfn, "LONGDOUBLE_EPS", 2.220446049250313e-16)
    for fn in (laguerre, assoc_laguerre1):
        with pytest.raises(RuntimeError, match="2.220e-16"):
            fn(3, 0.5)
    with pytest.raises(RuntimeError):
        g0(2, 0.1)


def test_precision_guard_refuses_a_batch(monkeypatch):
    monkeypatch.setattr(specialfn, "EXTENDED_PRECISION", False)
    with pytest.raises(RuntimeError, match="extended precision"):
        specialfn.laguerre_lanes([0, 3, 7], [0.1, 0.5, 2.0], span=3)
    with pytest.raises(RuntimeError, match="extended precision"):
        specialfn.displacement_kernels([1, 2], [-0.1, -0.2])


def scalar_recurrence(n: int, k: int, x: float) -> float:
    """L_n^k(x) by the forward recurrence, one long-double value at a time."""
    if n == 0:
        return 1.0
    xl = np.longdouble(x)
    prev, cur = np.longdouble(1.0), np.longdouble(1 + k) - xl
    for j in range(1, n):
        prev, cur = cur, ((2 * j + k + 1 - xl) * cur - (j + k) * prev) / (j + 1)
    return float(cur)


def test_lane_recurrence_matches_scalar_calls_bit_for_bit():
    # one batch of mixed degrees 0..60 and arguments in [0, 4] against
    # one-lane calls and a plain scalar recurrence
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.0, 4.0], rng.uniform(0.0, 4.0, 8)])
    degrees = np.repeat(np.arange(61), len(xs))
    args = np.tile(xs, 61)
    order = rng.permutation(degrees.size)
    degrees, args = degrees[order], args[order]
    ln, l1n = specialfn.laguerre_lanes(degrees, args, span=2)
    for i, (n, x) in enumerate(zip(degrees.tolist(), args.tolist())):
        for s in (0, 1):
            assert ln[s, i].hex() == float.hex(laguerre(n + s, x))
            assert ln[s, i].hex() == float.hex(scalar_recurrence(n + s, 0, x))
            assert l1n[s, i].hex() == float.hex(assoc_laguerre1(n + s, x))
            assert l1n[s, i].hex() == float.hex(scalar_recurrence(n + s, 1, x))


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@settings(max_examples=80, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(st.integers(0, 60), st.floats(0.0, 4.0, allow_subnormal=False)),
        min_size=1, max_size=30,
    ),
    span=st.integers(1, 3),
    data=st.data(),
)
def test_lane_values_do_not_depend_on_the_batch(lanes, span, data):
    # the recurrence sorts lanes by top degree and stops each at its own, so a
    # lane's bits must not move with lane order or with the other lanes
    n = np.array([lane[0] for lane in lanes])
    x = np.array([lane[1] for lane in lanes])
    whole = specialfn.laguerre_lanes(n, x, span)
    perm = np.array(data.draw(st.permutations(range(n.size))))
    permuted = specialfn.laguerre_lanes(n[perm], x[perm], span)
    assert _bits(*permuted) == _bits(*(v[:, perm] for v in whole))
    subset = np.array(data.draw(
        st.lists(st.integers(0, n.size - 1), min_size=1, max_size=n.size, unique=True)
    ))
    part = specialfn.laguerre_lanes(n[subset], x[subset], span)
    assert _bits(*part) == _bits(*(v[:, subset] for v in whole))
    for i in data.draw(st.lists(st.integers(0, n.size - 1), max_size=4)):
        alone = specialfn.laguerre_lanes(n[i:i + 1], x[i:i + 1], span)
        assert _bits(*alone) == _bits(*(v[:, i:i + 1] for v in whole))


@settings(max_examples=80, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 60), min_size=1, max_size=12),
    steps=st.lists(st.integers(0, 256), min_size=1, max_size=8, unique=True),
    from_zero=st.booleans(),
)
def test_table_kernels_equal_displacement_kernels(degrees, steps, from_zero):
    # a table call (one lane per grid point, every degree first..top) read
    # with the float64 expressions of displacement_kernels gives its bits
    grid = -np.array(steps) / 256
    first, top = (0 if from_zero else min(degrees)), max(degrees)
    ln, l1n = specialfn.laguerre_lanes(np.full(grid.size, first), 4.0 * grid * grid,
                                       span=top - first + 1)
    n = np.repeat(degrees, grid.size)
    cols = np.tile(np.arange(grid.size), len(degrees))
    lam = grid[cols]
    e = np.exp(-2.0 * lam * lam)
    kern0 = ln[n - first, cols] * e
    kern1 = 2.0 * lam * l1n[n - first, cols] * e / (n + 1)
    assert _bits(kern0, kern1) == _bits(*specialfn.displacement_kernels(n, lam))


def test_extended_precision_flag_reads_longdouble():
    assert specialfn.LONGDOUBLE_EPS == float(np.finfo(np.longdouble).eps)
    assert specialfn.EXTENDED_PRECISION == (
        np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    )


def _ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def test_g0_displacement_matrix_oracle():
    # <n| cosh[2 lam (a^dag - a)] |n> in a 200-dim Fock space
    n, lam, dim = 6, 0.2, 200
    a = _ladder(dim)
    m = expm(2.0 * lam * (a.T - a))
    cosh_part = 0.5 * (m + m.T)
    assert g0(n, lam) == pytest.approx(cosh_part[n, n], abs=1e-13)


def test_f1_displacement_matrix_oracle():
    # f1 is the coefficient of a^dag: the bare matrix element
    # <n+1| sinh |n> carries one extra sqrt(n+1)
    n, lam, dim = 5, 0.25, 200
    a = _ladder(dim)
    m = expm(2.0 * lam * (a.T - a))
    sinh_part = 0.5 * (m - m.T)
    assert f1(n, lam) * math.sqrt(n + 1) == pytest.approx(sinh_part[n + 1, n], abs=1e-13)


@given(
    n=st.integers(min_value=0, max_value=40),
    lam=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_kernel_parity_in_lambda(n, lam):
    # g0 even, f1 odd; exact because (-lam)^2 == lam^2 bitwise
    assert g0(n, -lam) == g0(n, lam)
    assert f1(n, -lam) == -f1(n, lam)


@given(
    n=st.integers(min_value=0, max_value=10),
    lam=st.floats(min_value=-0.15, max_value=0.15, allow_nan=False),
)
@settings(max_examples=200)
def test_zero_order_expansion_bounds(n, lam):
    # zeroth Laguerre order: L_n(4 lam^2) ~ 1, L_n^1(4 lam^2) ~ n + 1
    envelope = math.exp(-2.0 * lam * lam)
    assert abs(g0(n, lam) - envelope) <= 8.0 * n * lam * lam * envelope + 1e-15


def test_f1_ratio_tends_to_one():
    for n in range(0, 11):
        lam = 1e-4
        ratio = f1(n, lam) / (2.0 * lam * math.exp(-2.0 * lam * lam))
        assert abs(ratio - 1.0) <= 1e-6

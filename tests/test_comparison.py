"""The pair function f = f1 - f2, its expansion, and the constant schedule."""

import math

import numpy as np
import pytest

from dpplab.comparison import (
    OUTSIDE,
    ComparisonParams,
    DESK_SCHEDULE,
    annulus_index,
    default_params,
    error2_bound,
    eval_f,
    f_axes,
    f_terms_on_grid,
    eval_f1,
    eval_f2,
    f1_difference,
    pair_function,
    f1_oscillation_bound,
    taylor_f1,
    _staircase,
)
from dpplab.rng import substream


def _toy_params():
    return ComparisonParams(n=2, delta=0.5, C=2.0, N=5, epsilon=0.1)


def _ball_points(rng, m, n=2, radius=1.0):
    g = rng.standard_normal((m, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return radius * g * rng.uniform(size=(m, 1)) ** (1.0 / n)


# -- f1 ------------------------------------------------------------------------


def test_f1_worked_values():
    assert math.isclose(eval_f1((0.5, 0.0), (-0.5, 0.0), 10.0, 0.5), 10.0)
    assert math.isclose(eval_f1((0.3, 0.0), (0.3, 0.0), 10.0, 0.5), 0.36)


def test_f1_duplicate_formula():
    rng = substream(101)
    X = _ball_points(rng, 500)
    Z = _ball_points(rng, 500)
    C = 10.0 ** rng.uniform(0, 14, 500)
    d = rng.uniform(0.01, 0.99, 500)
    for i in range(500):
        direct = C[i] * np.linalg.norm(X[i] - Z[i]) ** d[i] + np.linalg.norm(X[i] + Z[i]) ** 2
        assert math.isclose(eval_f1(X[i], Z[i], C[i], d[i]), direct, rel_tol=1e-15)


def test_f1_symmetric():
    rng = substream(103)
    X = _ball_points(rng, 1000)
    Z = _ball_points(rng, 1000)
    assert np.allclose(eval_f1(X, Z, 7.0, 0.3), eval_f1(Z, X, 7.0, 0.3), rtol=1e-15)


def test_f1_at_least_one_outside_unit_product():
    # on (B2 x B2) \ (B1 x B1): |x-z|^2 + |x+z|^2 = 2|x|^2 + 2|z|^2 >= 2,
    # so one of the two f1 pieces is >= 1 whenever C >= 1
    rng = substream(107)
    m = 100_000
    X = _ball_points(rng, m, radius=2.0)
    Z = _ball_points(rng, m, radius=2.0)
    keep = np.maximum(np.linalg.norm(X, axis=1), np.linalg.norm(Z, axis=1)) >= 1.0
    p = default_params(2, "strict")
    vals = eval_f1(X[keep], Z[keep], p.C, p.delta)
    assert keep.sum() > 50_000
    assert vals.min() >= 1.0


# -- annuli and f2 ---------------------------------------------------------------


def test_annulus_index_cases():
    assert annulus_index((0.3, 0.0), (0.3, 0.0), 0.1, 5) == 0
    assert annulus_index((0.015, 0.0), (0.0, 0.0), 0.1, 5) == 2
    assert annulus_index((0.02, 0.0), (0.0, 0.0), 0.1, 5) == 2  # closed edge
    assert annulus_index((0.9, 0.0), (0.0, 0.0), 0.1, 5) == OUTSIDE


def test_annulus_index_vectorized():
    x = np.array([[0.0, 0.0], [0.015, 0.0], [0.9, 0.0]])
    z = np.zeros((3, 2))
    got = annulus_index(x, z, 0.1, 5)
    assert list(got) == [0, 2, OUTSIDE]


def test_f2_worked_values():
    p = _toy_params()
    peak = p.C ** (2 * p.N) * p.epsilon**p.delta
    assert math.isclose(eval_f2((0.3, 0.1), (0.3, 0.1), p), peak, rel_tol=1e-12)
    assert math.isclose(
        eval_f2((0.015, 0.0), (0.0, 0.0), p), 2**6 * math.sqrt(0.1), rel_tol=1e-12
    )
    assert eval_f2((0.9, 0.0), (0.0, 0.0), p) == 0.0


def test_f2_peak_property():
    p = _toy_params()
    assert math.isclose(p.f2_peak(), 2.0**10 * math.sqrt(0.1), rel_tol=1e-12)


def test_f2_inter_annulus_ratio_is_C_squared():
    p = _toy_params()
    for i in range(2, p.N + 1):
        t_in = (i - 1.5) * p.epsilon / 10.0  # inside A_{i-1}
        t_out = (i - 0.5) * p.epsilon / 10.0  # inside A_i
        a = eval_f2((t_in, 0.0), (0.0, 0.0), p)
        b = eval_f2((t_out, 0.0), (0.0, 0.0), p)
        assert math.isclose(a / b, p.C**2, rel_tol=1e-12)


def test_f_is_f1_minus_f2():
    p = _toy_params()
    rng = substream(109)
    X = _ball_points(rng, 2000)
    Z = _ball_points(rng, 2000)
    lhs = eval_f(X, Z, p)
    rhs = eval_f1(X, Z, p.C, p.delta) - eval_f2(X, Z, p)
    assert np.allclose(lhs, rhs, rtol=1e-15, atol=0)


def test_f_at_diagonal_origin():
    p = _toy_params()
    assert math.isclose(eval_f((0.0, 0.0), (0.0, 0.0), p), -p.f2_peak(), rel_tol=1e-12)


def test_pair_function_matches_eval_f():
    # the fused pair function reads f2 from a table by annulus index; it
    # must agree with f1 - f2 bit for bit
    rng = substream(113)
    X = _ball_points(rng, 300)
    Z = _ball_points(rng, 300)
    toy = _toy_params()
    e = np.array([0.6, 0.8])
    steps = np.arange(toy.N + 3) * toy.epsilon / 10.0  # annulus edges and beyond
    cases = [
        (toy, X, Z),
        (toy, X[:, None, :], Z[None, :40, :]),               # broadcast block
        (toy, X, X),                                         # the diagonal
        (toy, 0.1 + steps[:, None] * e, np.full((1, 2), 0.1)),
        (toy, steps[:, None] * [1.0, 0.0], np.zeros((1, 2))),
        (toy, X, 0.4 * Z + 0.03),                            # beyond N eps/10
        (default_params(2), X, X + 0.01 * Z),
        (default_params(2), X, Z),
    ]
    for n in (3, 4):   # one squared norm serves eval_f, eval_f1, annulus_index
        Xn, Zn = _ball_points(rng, 300, n), _ball_points(rng, 300, n)
        for p in (ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05),
                  ComparisonParams(n=n, delta=0.5, C=2.0, N=5, epsilon=0.1)):
            cases += [(p, Xn, Zn), (p, Xn, Xn + 0.02 * Zn), (p, Xn, Xn),
                      (p, Xn[:, None, :], Zn[None, :30, :])]
    for p, A, B in cases:
        want = eval_f1(A, B, p.C, p.delta) - eval_f2(A, B, p)
        assert np.array_equal(pair_function(p)(A, B), want)
        assert np.array_equal(eval_f(A, B, p), want)
    assert np.any(annulus_index(X, 0.4 * Z + 0.03, 0.1, toy.N) == OUTSIDE)
    # strict schedule: f2 overflows to inf on every annulus in reach
    strict = default_params(2, "strict")
    want = eval_f1(X, Z, strict.C, strict.delta) - eval_f2(X, Z, strict)
    assert np.all(want == -np.inf)
    assert np.array_equal(pair_function(strict)(X, Z), want)
    assert eval_f((0.3, 0.1), (0.3, 0.1), toy) == \
        eval_f1((0.3, 0.1), (0.3, 0.1), toy.C, toy.delta) - toy.f2_peak()


def test_strict_f2_is_never_tabulated(monkeypatch):
    # the strict schedule's annulus indices run to N, about 2.6e18: no table
    # of them can be allocated, so f2 comes from _staircase, which _f2_at
    # evaluates past _TABLE_MAX, with eval_f2's bits
    from dpplab import comparison

    def refuse(p):  # fails before a regression allocates its table
        raise AssertionError("strict f2 read from a table")

    monkeypatch.setattr(comparison, "_f2_table", refuse)
    strict = default_params(2, "strict")
    split = strict.near_far_split
    t = np.array([1e-3, 0.5, 1e3, 3e4, split * (1 - 1e-9), split, 2 * split])
    X, Z = t[:, None] * [1.0, 0.0], np.zeros((len(t), 2))
    want = eval_f1(X, Z, strict.C, strict.delta) - eval_f2(X, Z, strict)
    assert np.array_equal(eval_f(X, Z, strict), want)
    for k in range(len(t)):
        assert np.array_equal(eval_f(X[k:k + 1], Z[k:k + 1], strict), want[k:k + 1])
    i = annulus_index(X, Z, strict.epsilon, strict.N)
    assert i[-2] == strict.N and i[-1] == OUTSIDE and i[3] > 1 << 28
    P, F, S = f_terms_on_grid(X[3], X[3], np.zeros(1), strict)
    assert np.array_equal(F.reshape(-1), eval_f2(X[3:4], Z[3:4], strict))


def _staircase_f2(X, Z, p):
    """f2 by the staircase formula at every annulus index: the oracle of
    the table eval_f2 reads."""
    i = np.atleast_1d(annulus_index(X, Z, p.epsilon, p.N))
    return np.where(i == OUTSIDE, 0.0, _staircase(p, i.astype(float)))


def test_eval_f2_has_the_staircase_bits():
    rng = substream(127)
    for p in (default_params(2),
              ComparisonParams(n=2, delta=0.2, C=3.0, N=900, epsilon=0.01),
              default_params(2, "strict"), default_params(3, "strict")):
        X, Z = _ball_points(rng, 400, p.n), _ball_points(rng, 400, p.n)
        e = np.eye(p.n)[0]
        split = p.near_far_split
        t = np.concatenate([
            np.arange(min(p.N, 2000) + 3) * p.epsilon / 10.0,  # annulus edges
            (np.arange(min(p.N, 2000) + 3) + 0.5) * p.epsilon / 10.0,
            split * np.array([1 - 1e-9, 1.0, 1 + 1e-9, 2.0])])
        for A, B in ((X, Z), (X, X + 0.01 * Z), (X, X),
                     (t[:, None] * e, np.zeros((1, p.n)))):
            assert np.array_equal(eval_f2(A, B, p), _staircase_f2(A, B, p))
        for k in (0, 5, len(t) - 1):
            assert eval_f2(t[k] * e, 0 * e, p) == \
                _staircase_f2(t[k] * e, 0 * e, p)[0]


@pytest.mark.parametrize("n, mode, t", [
    (2, "desk", [1e17]),
    (2, "strict", [9e14, 9.3e14, 1e15]),
    (3, "strict", [1e15]),
])
def test_pairs_past_int64_annuli_are_outside(n, mode, t):
    # 10 |x - z| / eps passes 2^63 at these distances: the index is found
    # beyond N before any cast, so f is f1 and numpy warns of nothing
    p = default_params(n, mode)
    X = np.array(t)[:, None] * np.eye(n)[0]
    Z = np.zeros_like(X)
    with np.errstate(invalid="raise"):
        i = annulus_index(X, Z, p.epsilon, p.N)
        f, f1 = eval_f(X, Z, p), eval_f1(X, Z, p.C, p.delta)
        assert np.all(i == OUTSIDE)
        assert np.array_equal(f, f1)
        for x, z in zip(X, Z):
            assert annulus_index(x, z, p.epsilon, p.N) == OUTSIDE
            assert eval_f(x, z, p) == eval_f1(x, z, p.C, p.delta)


def test_an_n_past_int64_keeps_its_staircase():
    # the strict schedule at n = 4 has N of about 5.5e19, past int64: pairs
    # beyond its split are outside, and an index past 2^63 inside it reads
    # f2 = inf, with no cast warning
    p = default_params(4, "strict")
    assert p.N > 2**63
    e = np.eye(4)[0]
    t = np.array([0.5, 1e15, 2 * p.near_far_split])
    with np.errstate(invalid="raise"):
        i = annulus_index(t[:, None] * e, np.zeros(4), p.epsilon, p.N)
        f = eval_f(t[:, None] * e, np.zeros(4), p)
    assert i[0] == 5000 and i[1] > 2**62 and i[2] == OUTSIDE
    assert f[0] == f[1] == -np.inf
    assert f[2] == eval_f1(t[2] * e, np.zeros(4), p.C, p.delta)


@pytest.mark.parametrize("n", [2, 3])
def test_f_terms_on_grid_follow_eval_f(n):
    # at z = 0 a node's pair is x = d + c, so (P + S) - F there is eval_f's
    # value bit for bit: the certifier's lattice reads the same numbers
    rng = substream(127, n)
    nodes = 0.01 * np.arange(-6, 7)
    for p in (ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05),
              ComparisonParams(n=n, delta=0.5, C=2.0, N=5, epsilon=0.1)):
        for d in (rng.uniform(-0.05, 0.05, n), rng.uniform(-0.5, 0.5, n),
                  np.zeros(n)):
            P, F, S = f_terms_on_grid(d, d, nodes, p)
            assert P.shape == F.shape == S.shape == (len(nodes),) * n
            idx = np.stack(np.meshgrid(*[np.arange(len(nodes))] * n,
                                       indexing="ij"), -1).reshape(-1, n)
            x = d + nodes[idx]
            got = ((P + S) - F).reshape(-1)
            assert np.array_equal(got, eval_f(x, np.zeros_like(x), p))
            assert np.array_equal(F.reshape(-1), eval_f2(x, np.zeros_like(x), p))


@pytest.mark.parametrize("n", [2, 3])
def test_f_axes_product_block_matches_eval_f_rows(n):
    # the certifier's blocks: rows of x against rows of z broadcast axis by
    # axis, never repeated; each value is eval_f's on the repeated and tiled
    # rows, bit for bit, on the desk schedule and on the strict one (whose
    # staircase is inf), with pairs on the diagonal (annulus 0) and on
    # annulus edges
    rng = substream(131, n)
    desk = ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05)
    strict = default_params(n, "strict")
    e = np.eye(n)[0]
    for p in (desk, strict):
        A = _ball_points(rng, 23, n, 0.8)
        B = np.vstack([_ball_points(rng, 17, n, 0.8),
                       A[:3],                                  # x' = y exactly
                       A[3] + np.arange(1, 6)[:, None] * (p.epsilon / 10.0) * e,
                       A[4] + min(p.near_far_split, 1.0) * e])  # desk: split edge
        block = f_axes([a[:, None] for a in A.T], [b[None, :] for b in B.T], p)
        rows = eval_f(np.repeat(A, len(B), axis=0), np.tile(B, (len(A), 1)), p)
        assert block.shape == (len(A), len(B))
        assert np.array_equal(block.reshape(-1), rows)
        assert np.array_equal(block[:3, 17:20].diagonal(),
                              eval_f(A[:3], A[:3], p))
        # leading axes broadcast too: a (2, 5, 1) by (2, 1, 7) stack of blocks
        XA, ZB = np.stack([A[:5], A[5:10]]), np.stack([B[:7], B[7:14]])
        stack = f_axes([XA[:, :, None, k] for k in range(n)],
                       [ZB[:, None, :, k] for k in range(n)], p)
        for k in range(2):
            assert np.array_equal(stack[k], f_axes(
                [a[:, None] for a in XA[k].T], [b[None, :] for b in ZB[k].T], p))
        i = annulus_index(np.repeat(A, len(B), axis=0), np.tile(B, (len(A), 1)),
                          p.epsilon, p.N)
        assert {0, 1, 2, 3, 4, 5} <= set(i.tolist())
        assert (OUTSIDE in i) == (p is desk)


# -- differences and the expansion ------------------------------------------------


def test_f1_difference_matches_naive_when_safe():
    rng = substream(127)
    m = 5000
    X = _ball_points(rng, m)
    Z = _ball_points(rng, m)
    HX = _ball_points(rng, m, radius=0.05)
    HZ = _ball_points(rng, m, radius=0.05)
    got = f1_difference(X, Z, HX, HZ, 3.0, 0.4)
    naive = eval_f1(X + HX, Z + HZ, 3.0, 0.4) - eval_f1(X, Z, 3.0, 0.4)
    assert np.allclose(got, naive, rtol=1e-7, atol=1e-12)


def test_f1_difference_survives_large_C():
    # naive subtraction at C ~ 1e14 loses most digits; the factored form must
    # keep the quadratic part visible
    C = 6.4e14
    x, z = np.array([0.5, 0.0]), np.array([-0.5, 0.0])
    hx = hz = np.array([0.01, 0.0])  # pure shift: power part exactly 0
    got = f1_difference(x, z, hx, hz, C, 0.025)
    assert math.isclose(got, 2 * (x + z + hx) @ (hx + hz), rel_tol=1e-12)


def test_taylor_zero_displacement():
    approx, bound = taylor_f1((0.4, 0.1), (0.1, -0.2), (0.0, 0.0), (0.0, 0.0), 5.0, 0.3)
    assert math.isclose(approx, eval_f1((0.4, 0.1), (0.1, -0.2), 5.0, 0.3), rel_tol=1e-14)
    assert bound == 0.0


def test_taylor_equal_shift_is_exact():
    # hx = hz = v: the |x-z| part is unchanged and the quadratic part is exact
    x, z, v = np.array([0.4, 0.1]), np.array([0.1, -0.2]), np.array([0.02, -0.05])
    approx, _ = taylor_f1(x, z, v, v, 5.0, 0.3)
    truth = eval_f1(x + v, z + v, 5.0, 0.3)
    assert math.isclose(approx, truth, rel_tol=1e-13)


def test_taylor_sign_flip_symmetry():
    # odd part of the expansion is the first-order term; even part is the rest
    rng = substream(131)
    for _ in range(200):
        x, z = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        if np.linalg.norm(x - z) < 1e-3:
            continue
        hx, hz = rng.uniform(-0.01, 0.01, 2), rng.uniform(-0.01, 0.01, 2)
        f1 = eval_f1(x, z, 4.0, 0.6)
        ap, _ = taylor_f1(x, z, hx, hz, 4.0, 0.6)
        am, _ = taylor_f1(x, z, -hx, -hz, 4.0, 0.6)
        t = np.linalg.norm(x - z)
        V = (x - z) / t
        first = 4.0 * 0.6 * t ** (0.6 - 1) * (hx - hz) @ V + 2 * (x + z) @ (hx + hz)
        assert math.isclose(ap - am, 2 * first, rel_tol=1e-13, abs_tol=1e-13)
        assert math.isclose(ap + am, 2 * (f1 + (ap - f1 - first)), rel_tol=1e-13)


def test_taylor_diagonal_rejected():
    with pytest.raises(ValueError):
        taylor_f1((0.1, 0.1), (0.1, 0.1), (0.0, 0.0), (0.0, 0.0), 2.0, 0.5)


def test_taylor_remainder_bound_holds_in_regime():
    # acceptance-scale check lives in test_acceptance; this is a fast slice
    rng = substream(137)
    m = 20_000
    X = _ball_points(rng, m)
    Z = _ball_points(rng, m)
    HX = _ball_points(rng, m, radius=0.05)
    HZ = _ball_points(rng, m, radius=0.05)
    eps_eff = np.maximum(np.linalg.norm(HX, axis=1), np.linalg.norm(HZ, axis=1))
    t = np.linalg.norm(X - Z, axis=1)
    keep = t > 2 * eps_eff
    X, Z, HX, HZ = X[keep], Z[keep], HX[keep], HZ[keep]
    approx, bound = taylor_f1(X, Z, HX, HZ, 250.0, 0.2)
    truth = eval_f1(X + HX, Z + HZ, 250.0, 0.2)
    assert np.all(np.isfinite(bound))
    assert np.all(np.abs(truth - approx) <= bound)


def test_taylor_out_of_regime_bound_is_none():
    _, bound = taylor_f1((0.1, 0.0), (0.0, 0.0), (0.09, 0.0), (0.0, 0.0), 2.0, 0.5)
    assert bound is None


# -- coarse error bound ------------------------------------------------------------


def test_error2_bound_value_and_regime():
    p = ComparisonParams(n=2, delta=0.2, C=2.0, N=1000, epsilon=0.01)
    # split at N*eps/10 = 1; t = 1.5 is in regime
    got = error2_bound((1.5, 0.0), (0.0, 0.0), 0.01, p)
    assert math.isclose(got, 10 * 0.01**2 * 1.5 ** (0.2 - 2.0), rel_tol=1e-12)
    with pytest.raises(ValueError):
        error2_bound((0.5, 0.0), (0.0, 0.0), 0.01, p)  # t below the split


def test_error2_bound_needs_schedule_relation():
    p = ComparisonParams(n=2, delta=0.2, C=2.0, N=5, epsilon=0.01)  # N too small
    with pytest.raises(ValueError):
        error2_bound((1.5, 0.0), (0.0, 0.0), 0.01, p)


def test_error2_strict_schedule_finite_positive():
    p = default_params(2, "strict")
    t = p.near_far_split * 1.001
    got = error2_bound((t, 0.0), (0.0, 0.0), p.epsilon, p)
    assert got > 0 and math.isfinite(got)


# -- one-step oscillation bound ----------------------------------------------


def test_oscillation_bound_worked_values():
    p = ComparisonParams(n=2, delta=0.5, C=10.0, N=5, epsilon=0.01)
    sharp, coarse = f1_oscillation_bound(p)
    assert math.isclose(sharp, 2.16)
    assert math.isclose(coarse, 3.0)


def test_oscillation_bound_rejects_epsilon_ge_one():
    p = ComparisonParams(n=2, delta=0.5, C=10.0, N=5, epsilon=1.0)
    with pytest.raises(ValueError):
        f1_oscillation_bound(p)


def test_oscillation_bound_sampled_no_violations():
    p = ComparisonParams(**DESK_SCHEDULE)
    rng = substream(139)
    m = 200_000  # the full-size run lives in test_acceptance
    X = _ball_points(rng, m)
    Z = _ball_points(rng, m)
    HX = _ball_points(rng, m, radius=p.epsilon)
    HZ = _ball_points(rng, m, radius=p.epsilon)
    diff = np.abs(
        eval_f1(X + HX, Z + HZ, p.C, p.delta) - eval_f1(X, Z, p.C, p.delta)
    )
    sharp, _ = f1_oscillation_bound(p)
    assert np.all(diff <= sharp)


# -- the constant schedule ----------------------------------------------------------


def test_strict_schedule_n2():
    p = default_params(2, "strict")
    assert math.isclose(p.delta, 0.025)
    assert math.isclose(p.omega, 0.025)
    assert math.isclose(p.C, 6.4e14)
    assert math.isclose(p.N, 2.56e18, rel_tol=1e-9)
    assert p.N >= 100 * p.C / p.delta
    assert p.theta == 0.1


def test_strict_schedule_n3():
    p = default_params(3, "strict")
    assert math.isclose(p.delta, 0.02)
    assert math.isclose(p.omega, 1.0 / 64.0)
    assert math.isclose(p.C, 1.6e15)


def test_strict_schedule_omega_alpha_override():
    p = default_params(2, "strict", omega_alpha=0.01)
    assert math.isclose(p.C, 1e10 / (0.025**2 * 0.01))
    with pytest.raises(ValueError):
        default_params(2, "strict", omega_alpha=1.0)


def test_strict_peak_overflows_to_inf():
    # C^(2N) at the strict schedule exceeds float range; reported honestly
    assert math.isinf(default_params(2, "strict").f2_peak())


def test_desk_schedule():
    p = default_params(2)
    assert p.mode == "desk"
    assert p.as_dict() == {**DESK_SCHEDULE, "omega": None, "mode": "desk"}


def test_desk_schedule_other_dimension_rejected():
    with pytest.raises(ValueError):
        default_params(3, "desk")


def test_params_validation():
    with pytest.raises(ValueError):
        ComparisonParams(n=2, delta=1.5, C=2.0, N=5, epsilon=0.1)
    with pytest.raises(ValueError):
        ComparisonParams(n=2, delta=0.5, C=0.5, N=5, epsilon=0.1)
    with pytest.raises(ValueError):
        ComparisonParams(n=2, delta=0.5, C=2.0, N=0, epsilon=0.1)
    with pytest.raises(ValueError):
        # strict mode pins delta
        ComparisonParams(n=2, delta=0.5, C=2.0, N=5, epsilon=0.1, omega=0.1,
                         mode="strict")
    for theta in (0.0, 1.0):   # the far regime's rotation budget
        with pytest.raises(ValueError):
            ComparisonParams(n=2, delta=0.5, C=2.0, N=5, epsilon=0.1,
                             theta=theta)


def test_near_far_split():
    p = _toy_params()
    assert math.isclose(p.near_far_split, 5 * 0.1 / 10.0)

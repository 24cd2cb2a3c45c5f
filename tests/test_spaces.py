import numpy as np
import pytest
from scipy.optimize import minimize

from heavytail.spaces import (
    DenseOp,
    DimensionError,
    DomainError,
    EmbeddingOp,
    ScalarOp,
    identity_op,
    lp_norm,
    max_norm,
    op_norm_bound,
    op_power,
    restricted_norm_bound,
    weighted_l1_norm,
)

RNG = np.random.default_rng(1901)


def test_norm_examples():
    assert max_norm(2).norm([3.0, -4.0]) == 4.0
    assert weighted_l1_norm([1.0, 0.5]).norm([2.0, 2.0]) == 3.0
    assert lp_norm(3, 2).norm([0.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 128])
def test_max_norm_equals_the_reduction_bit_for_bit(d):
    rng = np.random.default_rng(d)
    batch = rng.standard_cauchy((501, d))
    batch[0] = -0.0
    batch[1, 0], batch[2, -1] = np.inf, -np.inf
    cases = [batch, batch[7], np.empty((0, d)), rng.standard_normal((5, 3, d)),
             batch[::3]]
    for x in cases:
        got = max_norm(d).norm(x)
        want = np.max(np.abs(x), axis=-1)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


BALL_SPACES = [max_norm(3), lp_norm(3, 2), lp_norm(3, 1.5), lp_norm(3, 1),
               weighted_l1_norm([1.0, 0.5, 0.25]), lp_norm(1, 3)]


@pytest.mark.parametrize("space", BALL_SPACES,
                         ids=["max", "l2", "l1.5", "l1", "weighted_l1", "l3_dim1"])
def test_ball_interval_ends_cross_x(space):
    # {r : ||r w + v|| <= x} is [lo, hi]: ||r w + v|| = x at both ends and
    # <= x between them; an empty set (inf, inf) stays above x on a fine grid
    rng = np.random.default_rng(5)
    w, v = rng.normal(size=(2, 300, space.dim))
    v *= 3.0
    if space.dim > 1:
        w[:100, 1:] = 0.0  # one moving coordinate
        w[100:120, 0] = 0.0
    xs = [2.0, 4.0]
    lo, hi = space.ball_interval(w, v, xs)
    assert lo.shape == hi.shape == (2, 300)
    for i, x in enumerate(xs):
        ok = np.isfinite(lo[i])
        assert ok.any() and ok.all() == (space.dim == 1)  # in 1-d, r w + v = 0 for some r
        for end in (lo[i, ok], hi[i, ok]):
            np.testing.assert_allclose(space.norm(end[:, None] * w[ok] + v[ok]), x, rtol=1e-9)
        mid = 0.5 * (lo[i, ok] + hi[i, ok])
        assert np.all(space.norm(mid[:, None] * w[ok] + v[ok]) <= x)
        assert np.all(hi[i, ~ok] == np.inf)
        reach = (x + space.norm(v[~ok])) / space.norm(w[~ok])
        grid = np.linspace(-1.0, 1.0, 4001)[:, None] * reach
        f = space.norm(grid[..., None] * w[~ok] + v[~ok])
        assert np.all(f.min(axis=0) > x)


@pytest.mark.parametrize("space", [max_norm(3), lp_norm(3, 2)], ids=["max", "l2"])
def test_ball_interval_bisection_matches_closed_form(space):
    rng = np.random.default_rng(6)
    w, v = rng.normal(size=(2, 200, 3))
    xs = [1.5, 3.0]
    want = space.ball_interval(w, v, xs)
    got = space._bisect_ball_interval(w, v, np.reshape(xs, (-1, 1)))
    finite = np.isfinite(want[0])
    assert finite.any() and not finite.all()
    for a, b in zip(got, want):
        assert np.array_equal(np.isfinite(a), finite)
        np.testing.assert_allclose(a[finite], b[finite], rtol=1e-10, atol=1e-12)


def test_norm_dimension_mismatch():
    with pytest.raises(DimensionError):
        max_norm(2).norm([1.0, 2.0, 3.0])


def test_project_sphere_examples():
    np.testing.assert_allclose(max_norm(2).unit([0.0, -2.0]), [0.0, -1.0])
    np.testing.assert_allclose(max_norm(2).unit([1.0, 1.0]), [1.0, 1.0])
    np.testing.assert_allclose(
        weighted_l1_norm([1.0, 0.5]).unit([2.0, 2.0]), [2 / 3, 2 / 3]
    )
    with pytest.raises(DomainError):
        max_norm(2).unit([0.0, 0.0])


def test_project_sphere_recovers_direction():
    # unit theta scaled by r > 0 projects back to theta
    for space in (max_norm(4), lp_norm(4, 2), weighted_l1_norm([1, 0.5, 2, 0.25])):
        x = RNG.standard_normal((100, 4))
        theta = space.unit(x)
        r = RNG.uniform(0.1, 50.0, size=(100, 1))
        np.testing.assert_allclose(space.unit(r * theta), theta, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "space",
    [max_norm(5), lp_norm(5, 1), lp_norm(5, 2), lp_norm(5, 3.5),
     weighted_l1_norm([1.0, 0.2, 3.0, 0.5, 1.5])],
    ids=["max", "l1", "l2", "l3.5", "wl1"],
)
def test_norm_axioms_random(space):
    rng = np.random.default_rng(77)
    u = rng.standard_normal((1000, 5)) * 10
    v = rng.standard_normal((1000, 5)) * 10
    c = rng.standard_normal(1000) * 5
    assert np.all(space.norm(u + v) <= space.norm(u) + space.norm(v) + 1e-12)
    np.testing.assert_allclose(
        space.norm(c[:, None] * u), np.abs(c) * space.norm(u), rtol=1e-12
    )
    assert np.all(space.norm(u[np.abs(u).sum(axis=1) > 0]) > 0)


def test_apply_examples():
    np.testing.assert_allclose(ScalarOp(2.0, 2).apply([1.0, -1.0]), [2.0, -2.0])
    np.testing.assert_allclose(EmbeddingOp(1, 3).apply([5.0]), [0.0, 5.0, 0.0])


def _random_ops(rng, dim):
    return [
        ScalarOp(rng.normal(), dim),
        DenseOp(np.diag(rng.normal(size=dim))),
        DenseOp(rng.normal(size=(dim, dim))),
        DenseOp(np.eye(dim, k=-2)),
        DenseOp(np.eye(dim, k=-1) @ np.diag(rng.normal(size=dim))),
    ]


def test_apply_is_linear():
    rng = np.random.default_rng(5)
    for op in _random_ops(rng, 4):
        u = rng.standard_normal((50, 4))
        v = rng.standard_normal((50, 4))
        a, b = 1.7, -0.3
        lhs = op.apply(a * u + b * v)
        rhs = a * op.apply(u) + b * op.apply(v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_apply_matches_matrix():
    rng = np.random.default_rng(6)
    for op in _random_ops(rng, 4):
        x = rng.standard_normal((20, 4))
        np.testing.assert_allclose(op.apply(x), x @ op.as_matrix().T, atol=1e-12)


def test_op_power_structure():
    assert isinstance(op_power(ScalarOp(0.5, 3), 4), ScalarOp)
    assert op_power(ScalarOp(0.5, 3), 4).a == 0.5**4
    np.testing.assert_array_equal(op_power(DenseOp(np.eye(5, k=-1)), 3).as_matrix(),
                                  np.eye(5, k=-3))
    np.testing.assert_allclose(op_power(ScalarOp(2.0, 2), 0).as_matrix(), np.eye(2))


def test_op_norm_bound_examples():
    b = op_norm_bound(DenseOp(np.diag([2.0, 3.0])), max_norm(2), max_norm(2))
    assert b.value == 3.0 and b.exact
    b = op_norm_bound(ScalarOp(-2.5, 3), lp_norm(3, 2), lp_norm(3, 2))
    assert b.value == 2.5 and b.exact
    # max -> max dense: max absolute row sum
    b = op_norm_bound(DenseOp([[1.0, -2.0], [0.5, 0.5]]), max_norm(2), max_norm(2))
    assert b.value == 3.0 and b.exact


def test_restricted_norm_bound_examples():
    w = [0.8**n for n in range(6)]
    w[0] = 1.0
    space = weighted_l1_norm(w)
    # shift^m restricted to the first coordinate has norm w_m
    b = restricted_norm_bound(DenseOp(np.eye(6, k=-2)), {0}, space, space)
    assert b.exact and np.isclose(b.value, w[2])
    full = restricted_norm_bound(DenseOp(np.eye(6, k=-2)), range(6), space, space)
    assert full.value == op_norm_bound(DenseOp(np.eye(6, k=-2)), space, space).value
    zero = restricted_norm_bound(DenseOp(np.zeros((6, 6))), {1, 3}, space, space)
    assert zero.value == 0.0 and zero.exact
    with pytest.raises(DomainError):
        restricted_norm_bound(DenseOp(np.eye(6, k=-1)), set(), space, space)


def test_restricted_bound_never_exceeds_full():
    rng = np.random.default_rng(8)
    spaces = [max_norm(5), lp_norm(5, 1), lp_norm(5, 2), lp_norm(5, 3),
              weighted_l1_norm([1, 0.3, 2, 0.7, 1.1])]
    for dom in spaces:
        for cod in spaces:
            for op in _random_ops(rng, 5):
                full = op_norm_bound(op, dom, cod)
                sub = restricted_norm_bound(op, {0, 2}, dom, cod)
                assert sub.value <= full.value, (dom, cod, op)
    # The masked matrix diag(2, 2, 0) has one nonzero per row and column.
    l3 = lp_norm(3, 3)
    b = restricted_norm_bound(ScalarOp(2.0, 3), {0, 1}, l3, l3)
    assert b.value == 2.0 and b.exact


def test_closed_form_bounds_are_exact():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(5, 5))
    op = DenseOp(m)
    for cod in (max_norm(5), lp_norm(5, 2), lp_norm(5, 3), weighted_l1_norm([1, 0.3, 2, 0.7, 1.1])):
        # l^1 domain: the largest column norm, attained at a unit vector
        b = op_norm_bound(op, lp_norm(5, 1), cod)
        assert b.exact and b.value == np.max(cod.norm(m.T))
    b = op_norm_bound(op, lp_norm(5, 2), lp_norm(5, 2))
    assert b.exact and b.value == np.linalg.norm(m, 2)
    b = op_norm_bound(op, lp_norm(5, 3), lp_norm(5, 3))
    assert not b.exact and b.value == lp_norm(5, 3).dual_norm(lp_norm(5, 3).norm(m.T))
    # At most one nonzero per row and column (a scaled permutation with rows
    # dropped): between lp spaces of one p the norm is the largest ||M e_j||.
    mono = np.eye(5)[[3, 0, 4, 1, 2]] * rng.normal(size=(5, 1))
    mono[[1, 3]] = 0.0
    for space in (lp_norm(5, 1.5), lp_norm(5, 2), lp_norm(5, 3)):
        b = op_norm_bound(DenseOp(mono), space, space)
        assert b.exact and b.value == np.max(np.abs(mono))
        assert b.value == pytest.approx(np.max(space.norm(mono.T)), rel=1e-15)


def _nelder_mead_max(m, dom, cod):
    """A local maximum of ||m x|| / ||x||: Nelder-Mead from the top right
    singular vector, with a fixed evaluation budget."""
    x0 = np.linalg.svd(m)[2][0]
    res = minimize(lambda x: -cod.norm(m @ x) / dom.norm(x), x0, method="Nelder-Mead",
                   options={"maxfev": 300 * len(x0)})
    return -res.fun


# (seed, d, p, q): Gaussian d x d matrices on which ``_nelder_mead_max`` beats
# the maximum over 1e5 sphere samples, inflated by 5%, by 3-9%: a sampled
# estimate is not an upper bound.
_OPTIMIZER_CASES = [
    (0, 12, 4, 4), (2, 11, 1.5, 1.5), (0, 11, 4, 1.5), (0, 12, 3, 1.5),
    (2, 10, 3, 3), (0, 12, 2, 2), (3, 10, 1.5, 4),
]


def test_bounds_dominate_sphere_samples():
    rng = np.random.default_rng(9)
    spaces = [max_norm(4), lp_norm(4, 1), lp_norm(4, 2), lp_norm(4, 3),
              weighted_l1_norm([1, 0.5, 2, 0.1])]
    ops = _random_ops(np.random.default_rng(10), 4) + [identity_op(4)]
    for dom in spaces:
        for cod in spaces:
            for op in ops:
                bound = op_norm_bound(op, dom, cod)
                g = rng.standard_normal((10_000, 4))
                theta = dom.unit(g)
                values = cod.norm(op.apply(theta))
                assert np.all(values <= bound.value + 1e-9), (dom.kind, cod.kind, op)
    for seed, d, p, q in _OPTIMIZER_CASES:
        m = np.random.default_rng(seed).normal(size=(d, d))
        dom, cod = lp_norm(d, p), lp_norm(d, q)
        bound = op_norm_bound(DenseOp(m), dom, cod)
        assert _nelder_mead_max(m, dom, cod) <= bound.value * (1 + 1e-12), (seed, d, p, q)


def test_embedding_bound_is_codomain_unit_norm():
    w = [1.0, 0.5, 0.25]
    space = weighted_l1_norm(w)
    for n in range(3):
        b = op_norm_bound(EmbeddingOp(n, 3), weighted_l1_norm((1.0,)), space)
        assert b.exact and np.isclose(b.value, w[n])


def test_weighted_l1_requires_normalized_leading_weight():
    with pytest.raises(DomainError):
        weighted_l1_norm([2.0, 1.0])
    with pytest.raises(DomainError):
        weighted_l1_norm([1.0, -0.5])

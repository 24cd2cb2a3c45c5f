import numpy as np
import pytest
from scipy.integrate import quad

from heavytail.rv import Atomic, Rademacher, RegVarDist, SphereUniform, pareto_sample
from heavytail.spaces import DomainError, lp_norm, max_norm, weighted_l1_norm


class FixedUniform:
    """rng stub returning preset uniforms, for inverse-CDF arithmetic checks."""

    def __init__(self, values):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))

    def random(self, size=None):
        if size is None:
            return float(self.values[0])
        return self.values[:size].copy()  # a new array, as Generator.random returns


def test_pareto_inverse_cdf_arithmetic():
    assert pareto_sample(2.0, FixedUniform([0.75])) == pytest.approx(2.0)
    assert pareto_sample(5.0, FixedUniform([0.0])) == 1.0
    with pytest.raises(DomainError):
        pareto_sample(0.0, FixedUniform([0.5]))


def test_pareto_mean_alpha3():
    # oracle: E Y = int_1^inf y * 3 y^-4 dy = 3/2, by quadrature
    oracle, err = quad(lambda y: y * 3.0 * y**-4.0, 1.0, np.inf)
    assert oracle == pytest.approx(1.5, abs=1e-9)
    rng = np.random.default_rng(42)
    y = pareto_sample(3.0, rng, 10**6)
    se = y.std(ddof=1) / np.sqrt(len(y))
    assert abs(y.mean() - 1.5) < 3 * se


def test_rv_sample_deterministic_cases():
    # rademacher(1), alpha=1, U=0.5 -> radius 2, angle +1
    dist = RegVarDist(1.0, 1.0, Rademacher(1.0))
    rng = FixedUniform([0.5, 0.0])  # radius uniform then angle uniform
    x = dist.sample(1, rng)
    assert x.shape == (1, 1) and x[0, 0] == pytest.approx(2.0)
    atom = RegVarDist(2.0, 1.0, Atomic([[1.0, 0.0]], [1.0], max_norm(2)))

    class OneAtomRng(FixedUniform):
        def choice(self, k, size=None, p=None):
            return np.zeros(size, dtype=int)

    draws = atom.sample(5, np.random.default_rng(3))
    assert np.all(draws[:, 1] == 0.0) and np.all(draws[:, 0] >= 1.0)


def test_rv_tail_ratio_exact_pareto():
    dist = RegVarDist(1.0, 1.0, Rademacher(0.5))
    rng = np.random.default_rng(7)
    norms = np.abs(dist.sample(10**6, rng)[:, 0])
    n2 = int((norms > 2).sum())
    n4 = int((norms > 4).sum())
    # conditionally on n2, n4 ~ Binomial(n2, 1/2) under the exact Pareto law
    se = np.sqrt(0.25 / n2)
    assert abs(n4 / n2 - 0.5) < 3 * se


def test_exceedance_law():
    dist = RegVarDist(3.0, 1.0, Rademacher(1.0))
    rng = np.random.default_rng(11)
    x = dist.sample_exceedance(10.0, 10**6, rng)
    ratio = np.abs(x[:, 0]) / 10.0
    se = ratio.std(ddof=1) / np.sqrt(len(ratio))
    assert abs(ratio.mean() - 1.5) < 3 * se  # Pareto(3) mean = 3/2
    with pytest.raises(DomainError):
        dist.sample_exceedance(0.5, 1, rng)


def test_exceedance_scale_invariance():
    # conditional law of ||X||/u does not depend on u under the exact Pareto radius
    dist = RegVarDist(2.0, 1.0, Rademacher(1.0))
    a = np.abs(dist.sample_exceedance(10.0, 200_000, np.random.default_rng(1))[:, 0]) / 10.0
    b = np.abs(dist.sample_exceedance(100.0, 200_000, np.random.default_rng(2))[:, 0]) / 100.0
    fa, fb = np.minimum(a, 5.0), np.minimum(b, 5.0)
    se = np.sqrt(fa.var(ddof=1) / len(fa) + fb.var(ddof=1) / len(fb))
    assert abs(fa.mean() - fb.mean()) < 3 * se


def test_tail_prob_examples():
    assert RegVarDist(1.0, 1.0, Rademacher(1.0)).tail_prob(100.0) == pytest.approx(0.01)
    assert RegVarDist(2.0, 2.0, Rademacher(1.0)).tail_prob(2.0) == 1.0
    assert RegVarDist(2.0, 2.0, Rademacher(1.0)).tail_prob(4.0) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        RegVarDist(1.0, 1.0, Rademacher(1.0)).tail_prob(0.0)


@pytest.mark.parametrize(
    "sampler",
    [
        Rademacher(0.3),
        SphereUniform(max_norm(3)),
        SphereUniform(lp_norm(3, 2)),
        SphereUniform(weighted_l1_norm([1.0, 0.5, 2.0])),
        Atomic([[1.0, 0.0], [0.5, 1.0]], [0.5, 0.5], max_norm(2)),
    ],
    ids=["rademacher", "sphere_max", "sphere_l2", "sphere_wl1", "atomic"],
)
def test_spectral_samplers_emit_unit_vectors(sampler):
    draws = sampler.sample(5000, np.random.default_rng(13))
    assert np.all(np.abs(sampler.space.norm(draws) - 1.0) < 1e-9)


def test_atomic_validation():
    with pytest.raises(DomainError):
        Atomic([[2.0, 0.0]], [1.0], max_norm(2))  # not unit
    with pytest.raises(DomainError):
        Atomic([[1.0, 0.0]], [0.7], max_norm(2))  # weights do not sum to 1


def test_angle_radius_independence():
    # bounded angle functional is uncorrelated with the (clipped) radius
    dist = RegVarDist(3.0, 1.0, SphereUniform(lp_norm(3, 2)))
    rng = np.random.default_rng(17)
    x = dist.sample(200_000, rng)
    r = dist.space.norm(x)
    g = x[:, 0] / r
    corr = np.corrcoef(np.minimum(r, 10.0), g)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(len(r))


def test_tail_homogeneity():
    dist = RegVarDist(2.0, 1.0, SphereUniform(max_norm(2)))
    rng = np.random.default_rng(23)
    norms = dist.space.norm(dist.sample(10**6, rng))
    for r in (2.0, 4.0):
        hits_u = norms > 1.5
        hits_ru = norms > 1.5 * r
        n_u = hits_u.sum()
        frac = hits_ru.sum() / n_u
        se = np.sqrt(frac * (1 - frac) / n_u)
        assert abs(frac - r**-2.0) < 3 * max(se, 1e-6)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
@pytest.mark.parametrize("scale", [1.0, 2.5])
@pytest.mark.parametrize("angle", [Rademacher(0.3), Rademacher(1.0), SphereUniform(lp_norm(3, 2))],
                         ids=["rademacher0.3", "rademacher1", "sphere"])
def test_in_place_draws_equal_the_plain_expressions(alpha, scale, angle):
    def plain(radius_scale, n, rng):
        radius = radius_scale * (1.0 - rng.random(n)) ** (-1.0 / alpha)
        return radius[:, None] * angle.sample(n, rng)

    dist = RegVarDist(alpha, scale, angle)
    n = 20_000
    got = dist.sample(n, np.random.default_rng(91))
    assert got.tobytes() == plain(scale, n, np.random.default_rng(91)).tobytes()
    got = dist.sample_exceedance(3.0 * scale, n, np.random.default_rng(92))
    assert got.tobytes() == plain(3.0 * scale, n, np.random.default_rng(92)).tobytes()
    want = (1.0 - np.random.default_rng(93).random(n)) ** (-1.0 / alpha)
    assert pareto_sample(alpha, np.random.default_rng(93), n).tobytes() == want.tobytes()


@pytest.mark.parametrize("p_plus", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("bit_gen", [np.random.PCG64, np.random.MT19937])
def test_sign_kernel_equals_drawn_signs_and_keeps_the_stream(p_plus, bit_gen):
    # the signs as they were drawn before the kernel: one uniform per row
    alpha, scale, n = 1.5, 2.0, 10_001
    dist = RegVarDist(alpha, scale, Rademacher(p_plus))
    rng, ref = (np.random.Generator(bit_gen(41)) for _ in range(2))
    got = dist.sample(n, rng)
    radius = scale * (1.0 - ref.random(n)) ** (-1.0 / alpha)
    want = (np.where(ref.random(n) < p_plus, 1, -1) * radius)[:, None]
    assert got.shape == (n, 1) and got.tobytes() == want.tobytes()
    assert rng.random() == ref.random()
    signs = Rademacher(p_plus).sample(n, rng)
    assert signs.tobytes() == np.where(ref.random(n) < p_plus, 1.0, -1.0)[:, None].tobytes()
    assert rng.random() == ref.random()


def test_skipped_signs_keep_a_buffered_32_bit_half():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for g in (rng, ref):
        g.integers(0, 2**32, dtype=np.uint32)  # buffers the other half of 64 bits
    assert rng.bit_generator.state["has_uint32"] == 1
    Rademacher(1.0).sample(100, rng)
    ref.random(100)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == \
        ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist()

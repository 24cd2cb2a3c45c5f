import io

import numpy as np
import pytest

from heavytail.config import load_config
from heavytail.rv import Atomic, Rademacher, RegVarDist, SphereUniform
from heavytail.simulate import (
    _AR1_BLOCK,
    _CSV_CHUNK_ROWS,
    Path,
    PathConfig,
    _ar1_recursion,
    _innovation_block,
    read_path_csv,
    simulate_ar1,
    simulate_linear,
    simulate_sequence_space,
    write_path_csv,
)
from heavytail.spaces import ContractionCertificate, DenseOp, DomainError, ScalarOp, max_norm
from heavytail.spectral import family_from_coeffs

R1 = max_norm(1)
POS1 = RegVarDist(1.0, 1.0, Rademacher(1.0))


def test_identity_family_reproduces_innovations():
    fam = family_from_coeffs([1.0], 1.0, R1)
    cfg = PathConfig(1000, 0, 0, seed=5)
    path = simulate_linear(fam, POS1, cfg)
    z = _innovation_block(POS1, 1000, 5)
    np.testing.assert_array_equal(path.values, z)


def test_ma2_is_sum_of_adjacent_innovations():
    fam = family_from_coeffs([1.0, 1.0], 1.0, R1)
    cfg = PathConfig(500, 1, 1, seed=6)
    path = simulate_linear(fam, POS1, cfg)
    z = _innovation_block(POS1, 501, 6)  # indices 0..L, time j = t - 1 + ... offset
    manual = z[1:] + z[:-1]
    np.testing.assert_allclose(path.values, manual)


def test_linear_path_determinism():
    fam = family_from_coeffs([1.0, 0.5], 1.5, R1)
    cfg = PathConfig(2000, 1, 1, seed=7)
    a = simulate_linear(fam, RegVarDist(1.5, 1.0, Rademacher(0.4)), cfg)
    b = simulate_linear(fam, RegVarDist(1.5, 1.0, Rademacher(0.4)), cfg)
    assert np.array_equal(a.values, b.values)


def test_linear_validates_window_sizes():
    fam = family_from_coeffs([1.0, 1.0, 1.0], 1.0, R1)
    with pytest.raises(DomainError):
        simulate_linear(fam, POS1, PathConfig(100, 2, 1, seed=1))
    with pytest.raises(DomainError):
        simulate_linear(fam, POS1, PathConfig(100, 1, 2, seed=1))


def test_linear_tail_ratio_matches_series_constant():
    # oracle: Pr(||X|| > x) / V(x) -> sum c_n = 2 for coefficients (1, 1);
    # finite-x correction for Pareto(1) sums is +2 ln(x-1)/x relative to 2/x
    fam = family_from_coeffs([1.0, 1.0], 1.0, R1)
    cfg = PathConfig(2_000_000, 1, 1, seed=8)
    path = simulate_linear(fam, POS1, cfg)
    x = 10_000.0  # 99.99% innovation quantile at alpha=1
    ratio = (path.norms() > x).mean() / POS1.tail_prob(x)
    assert abs(ratio - 2.0) < 0.2


def test_stationarity_halves_agree():
    fam = family_from_coeffs([1.0, 0.8, 0.6], 1.0, R1)
    path = simulate_linear(fam, POS1, PathConfig(400_000, 2, 2, seed=9))
    clipped = np.minimum(path.norms(), 50.0)
    a, b = clipped[:200_000], clipped[200_000:]
    se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    assert abs(a.mean() - b.mean()) < 3 * se


def test_ar1_zero_operator_is_iid():
    cfg = PathConfig(1000, 0, 0, seed=10)
    path = simulate_ar1(ScalarOp(0.0, 1), POS1, cfg)
    z = _innovation_block(POS1, 1000, 10)
    np.testing.assert_allclose(path.values, z)


def test_ar1_degenerate_innovations_converge_to_fixed_point():
    # near-deterministic innovations (huge alpha): X_t -> 1 / (1 - 0.5) = 2
    degenerate = RegVarDist(1e12, 1.0, Rademacher(1.0))
    path = simulate_ar1(ScalarOp(0.5, 1), degenerate, PathConfig(200, 100, 0, seed=11))
    np.testing.assert_allclose(path.values[-50:], 2.0, atol=1e-6)


def test_ar1_requires_contraction():
    with pytest.raises(DomainError):
        simulate_ar1(ScalarOp(1.01, 1), POS1, PathConfig(100, 10, 0, seed=12))


def test_ar1_tail_ratio():
    # oracle: sum_n c^(n*alpha) = 1 / (1 - 0.5) = 2 at alpha=1
    path = simulate_ar1(ScalarOp(0.5, 1), POS1, PathConfig(2_000_000, 64, 64, seed=13))
    x = 10_000.0
    ratio = (path.norms() > x).mean() / POS1.tail_prob(x)
    assert abs(ratio - 2.0) < 0.2


def test_ar1_matches_linear_representation():
    # same innovation stream (burn_in == truncation): recursion equals the
    # truncated moving-average sum up to the geometric tail bound
    M = 40
    coeffs = [0.5**n for n in range(M + 1)]
    fam = family_from_coeffs(coeffs, 1.0, R1)
    cfg = PathConfig(5000, M, M, seed=14)
    lin = simulate_linear(fam, POS1, cfg)
    rec = simulate_ar1(ScalarOp(0.5, 1), POS1, cfg)
    z = _innovation_block(POS1, 5000 + M, 14)
    bound = rec.meta["truncation_error_bound"] * np.abs(z).max()
    assert np.max(np.abs(lin.values - rec.values)) <= bound + 1e-12


def test_sequence_space_shape_and_shift():
    weights = [0.9**n for n in range(6)]
    cfg = PathConfig(300, 5, 5, seed=15)
    path = simulate_sequence_space(weights, POS1, cfg)
    assert path.values.shape == (300, 6)
    # lag structure: X_t[n] = X_{t-1}[n-1]
    np.testing.assert_array_equal(path.values[1:, 1:], path.values[:-1, :-1])
    # weighted-l1 norm identity
    manual = np.abs(path.values) @ np.asarray(weights)
    np.testing.assert_allclose(path.norms(), manual)


def test_sequence_space_one_dimensional():
    cfg = PathConfig(100, 0, 0, seed=16)
    path = simulate_sequence_space([1.0], POS1, cfg)
    z = _innovation_block(POS1, 100, 16)
    np.testing.assert_array_equal(path.values, z)


def test_csv_round_trip():
    fam = family_from_coeffs([1.0, 0.5], 1.0, R1)
    path = simulate_linear(fam, POS1, PathConfig(200, 1, 1, seed=17))
    buf = io.StringIO()
    write_path_csv(path, buf)
    buf.seek(0)
    again = read_path_csv(buf, R1)
    np.testing.assert_array_equal(again.values, path.values)  # %.17g round-trips


def test_csv_determinism_bytes():
    fam = family_from_coeffs([1.0], 2.0, R1)
    out = []
    for _ in range(2):
        path = simulate_linear(fam, RegVarDist(2.0, 1.0, Rademacher(0.5)),
                               PathConfig(100, 0, 0, seed=18))
        buf = io.StringIO()
        write_path_csv(path, buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_two_sided_family():
    # lags {-1, 0}: X_t = Z_{t+1} + Z_t, reconstructed from the raw stream
    fam = family_from_coeffs([1.0, 1.0], 1.0, R1, start=-1)
    cfg = PathConfig(400, 1, 1, seed=19)
    path = simulate_linear(fam, POS1, cfg)
    z = _innovation_block(POS1, 401, 19)
    np.testing.assert_allclose(path.values, z[1:] + z[:-1])


# ---------------------------------------------------------------------------
# blocked matrix AR(1) recursion against the per-step loop


def _ar1_reference(T, innovations):
    """The per-step loop X_t = T X_{t-1} + Z_t that the blocked recursion replaced."""
    out = np.empty_like(innovations)
    state = np.zeros(innovations.shape[1])
    for t in range(innovations.shape[0]):
        state = T.apply(state) + innovations[t]
        out[t] = state
    return out


def _max_row_rel_err(values, reference):
    return np.max(np.abs(values - reference).max(axis=1) / np.abs(reference).max(axis=1))


BENCH_MATRIX = [[0.4, 0.2, -0.1], [0.1, 0.3, 0.2], [-0.2, 0.1, 0.35]]
# max-norm 2 > 1, but T^4 has max-norm about 0.62
NON_NORMAL = [[0.5, 1.5], [0.0, 0.4]]


def test_contraction_certificate_scalar():
    cert = ContractionCertificate(ScalarOp(0.5, 1), R1, 8)
    assert (cert.lag, cert.q, cert.lead) == (1, 0.5, 1.0)
    assert cert.tail(64) == 0.5**64


@pytest.mark.parametrize("exponent", [1.0, 1.5])
def test_contraction_certificate_tail_dominates_norm_sums(exponent):
    cert = ContractionCertificate(DenseOp(NON_NORMAL), max_norm(2), 16)
    m = np.asarray(NON_NORMAL)
    norms = [np.abs(np.linalg.matrix_power(m, n)).sum(axis=1).max() for n in range(700)]
    assert cert.lag == 4 and cert.q == pytest.approx(norms[4]) and cert.q < 1.0
    assert cert.lead == pytest.approx(max(norms[:4])) == 2.0
    for after in (0, 3, 4, 17, 64):
        partial = sum(norms[n] ** exponent for n in range(after + 1, after + 501))
        assert cert.tail(after, exponent) >= partial


def test_contraction_certificate_refuses_non_contracting():
    with pytest.raises(DomainError, match="no power of the operator"):
        ContractionCertificate(ScalarOp(1.0, 1), R1, 16)


AR1_LENGTHS = [1, _AR1_BLOCK - 1, _AR1_BLOCK, _AR1_BLOCK + 1, 3 * _AR1_BLOCK + 17]


@pytest.mark.parametrize("length", AR1_LENGTHS)
@pytest.mark.parametrize("matrix", [BENCH_MATRIX, NON_NORMAL], ids=["bench3", "nonnormal2"])
def test_ar1_blocked_recursion_matches_per_step_loop(matrix, length):
    T = DenseOp(matrix)
    innov = RegVarDist(1.5, 1.0, SphereUniform(max_norm(T.in_dim)))
    z = _innovation_block(innov, length, 20 + length)
    ref = _ar1_reference(T, z)
    assert _max_row_rel_err(_ar1_recursion(T, z), ref) <= 1e-12


def _chain_ar1_config():
    # shift after dense: max-norm 1.6 > 1, spectral radius about 0.81
    return load_config({
        "version": 1,
        "alpha": 1.0,
        "seed": 21,
        "norm": {"kind": "max", "dim": 3},
        "innovation": {"scale": 1.0, "angle": {"kind": "sphere_uniform"}},
        "model": {
            "type": "ar1",
            "operator": {"kind": "chain", "parts": [
                {"kind": "dense",
                 "matrix": [[0.9, 0.5, 0.2], [-0.4, 0.8, 0.3], [0.1, 0.2, 0.7]]},
                {"kind": "shift_power", "m": 1},
            ]},
            "horizon": 64,
        },
        "mc": {"n_samples": 1000, "max_rejection_trials": 100000},
        "path": {"length": 100, "burn_in": 0, "truncation": 0},
    })


@pytest.mark.parametrize("length", AR1_LENGTHS)
def test_ar1_chain_config_path_matches_per_step_loop(length):
    cfg = _chain_ar1_config()
    path = cfg.simulate(length=length)
    T = DenseOp([[0.0, 0.0, 0.0], [0.9, 0.5, 0.2], [-0.4, 0.8, 0.3]])
    ref = _ar1_reference(T, _innovation_block(cfg.innovation(), length, cfg.seed))
    assert _max_row_rel_err(path.values, ref) <= 1e-12


def test_ar1_dense_degenerate_innovations_converge_to_fixed_point():
    # innovations R * (1, 1, 1) with R = 1 up to 1e-10: X_t -> (I - T)^{-1} 1
    ones = Atomic([[1.0, 1.0, 1.0]], [1.0], max_norm(3))
    degenerate = RegVarDist(1e12, 1.0, ones)
    cfg = PathConfig(3 * _AR1_BLOCK + 17, 100, 0, seed=22)
    path = simulate_ar1(DenseOp(BENCH_MATRIX), degenerate, cfg)
    fixed = np.linalg.solve(np.eye(3) - np.asarray(BENCH_MATRIX), np.ones(3))
    np.testing.assert_allclose(path.values, np.broadcast_to(fixed, path.values.shape),
                               rtol=1e-9)


# ---------------------------------------------------------------------------
# chunked CSV writer against np.savetxt


def _savetxt_reference(path):
    """The path CSV as ``np.savetxt`` wrote it before the chunked writer."""
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x{j}" for j in range(path.dim)) + "\n")
    t = np.arange(1, len(path) + 1, dtype=float)[:, None]
    np.savetxt(buf, np.hstack([t, path.values]), fmt=["%d"] + ["%.17g"] * path.dim,
               delimiter=",")
    return buf.getvalue()


CSV_SPECIALS = [1e-300, -1e-300, 1e300, -1e300, -0.0, 0.0, 3.0, -7.0, 2.0**52, 1e16, 0.1]


@pytest.mark.parametrize("length", [1, 7, 2 * _CSV_CHUNK_ROWS + 5])
def test_path_csv_bytes_match_savetxt(length):
    rng = np.random.default_rng(23)
    values = rng.standard_cauchy((length, 3)) * 10.0 ** rng.integers(-20, 20, (length, 3))
    flat = values.ravel()
    flat[::2] = np.resize(CSV_SPECIALS, flat[::2].size)
    path = Path(values, max_norm(3), {})
    buf = io.StringIO()
    write_path_csv(path, buf)
    assert buf.getvalue() == _savetxt_reference(path)

"""Property test: every schema-valid config runs through the CLI or fails cleanly.

Generated configs cover every norm kind, angle kind, model type and operator
kind (chains nested), at small Monte Carlo and path sizes.  Each one runs
one CLI command: a window suite of ``verify``, ``simulate``, ``spectral`` or
``summarize``.  The big-jump suite is left out; it draws at least 4e6 sums.
"""

import contextlib
import io
import json
import tempfile

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail.cli import STATS, main
from heavytail.config import SCHEMA

WINDOW_SUITES = ("time-change", "mixture", "empirical-vs-closed", "limit-measure")

coefficient = st.sampled_from([-1.2, -0.5, 0.0, 0.3, 0.5, 0.9, 1.0, 1.5])
contraction = st.sampled_from([-0.6, -0.3, 0.0, 0.2, 0.4])


def _rows(dim, entry):
    """``dim`` rows of ``dim`` entries; one time in five one row is ragged."""
    row = st.lists(entry, min_size=dim, max_size=dim)
    square = st.lists(row, min_size=dim, max_size=dim)
    short = st.lists(entry, min_size=dim - 1, max_size=dim - 1)
    return st.one_of(square, square, square, square, st.tuples(square, short).map(
        lambda t: t[0][:-1] + [t[1]]))


def operators(dim, entry):
    leaf = st.one_of(
        st.fixed_dictionaries({"kind": st.just("scalar"), "a": entry}),
        st.fixed_dictionaries({"kind": st.just("diagonal"), "entries": st.lists(
            entry, min_size=dim, max_size=dim)}),
        st.fixed_dictionaries({"kind": st.just("dense"), "matrix": _rows(dim, entry)}),
        st.fixed_dictionaries({"kind": st.just("shift_power"), "m": st.integers(0, 3)}),
        st.fixed_dictionaries({"kind": st.just("embedding"), "index": st.integers(0, dim)}),
    )
    return st.recursive(
        leaf,
        lambda parts: st.fixed_dictionaries(
            {"kind": st.just("chain"), "parts": st.lists(parts, min_size=1, max_size=2)}),
        max_leaves=3,
    )


def norms(dim):
    return st.one_of(
        st.just({"kind": "max", "dim": dim}),
        st.fixed_dictionaries({"kind": st.just("lp"), "dim": st.just(dim),
                               "p": st.sampled_from([1, 1.5, 2, 3])}),
        st.lists(st.sampled_from([0.25, 0.5, 2.0]), min_size=dim - 1, max_size=dim - 1).map(
            lambda w: {"kind": "weighted_l1", "weights": [1.0] + w}),
        st.fixed_dictionaries({"kind": st.just("weighted_l1"), "dim": st.just(dim),
                               "decay": st.sampled_from([0.5, 0.9])}),
    )


def angles(dim):
    # Signed unit vectors +-e_j have norm 1 in max and lp norms, and e_0 in
    # weighted l1 too (other e_j are off its sphere there: exit 2).
    units = [[float(s * (i == j)) for i in range(dim)] for j in range(dim) for s in (1, -1)]
    unit_points = st.lists(st.sampled_from(units), min_size=1, max_size=3)
    points = st.one_of(unit_points, unit_points, unit_points, _rows(dim, st.just(1.0)))
    atomic = points.flatmap(lambda pts: st.fixed_dictionaries({
        "kind": st.just("atomic"),
        "points": st.just(pts),
        "weights": st.sampled_from([[1.0 / len(pts)] * len(pts), [0.5] * len(pts)]),
    }))
    kinds = [st.just({"kind": "sphere_uniform"}), atomic]
    if dim == 1:
        kinds.append(st.fixed_dictionaries({"kind": st.just("rademacher"),
                                            "p_plus": st.sampled_from([0.0, 0.3, 1.0])}))
    return st.one_of(kinds)


def models(dim, norm):
    return st.one_of(
        st.just({"type": "iid"}),
        st.fixed_dictionaries({"type": st.just("linear"),
                               "coeffs": st.lists(coefficient, min_size=1, max_size=3)},
                              optional={"start": st.integers(-2, 2)}),
        st.fixed_dictionaries({"type": st.just("linear_ops"), "operators": st.lists(
            st.fixed_dictionaries({"index": st.integers(0, 3),
                                   "op": operators(dim, coefficient)}),
            min_size=1, max_size=3)}),
        st.fixed_dictionaries({"type": st.just("ar1"), "operator": operators(dim, contraction)},
                              optional={"horizon": st.integers(1, 8)}),
        *[st.just({"type": "seqspace"})] * (norm["kind"] == "weighted_l1"),
    )


def _config(dim, norm, model):
    angle = angles(1 if model["type"] == "seqspace" else dim)
    truncation = st.integers(0, 3)
    return st.fixed_dictionaries({
        "version": st.just(1),
        "alpha": st.sampled_from([1e-3, 0.5, 1.0, 1.5, 3.0]),
        "seed": st.integers(0, 2**16),
        "norm": st.just(norm),
        "innovation": st.fixed_dictionaries({"scale": st.sampled_from([0.5, 1.0]),
                                             "angle": angle}),
        "model": st.just(model),
        "mc": st.fixed_dictionaries({"n_samples": st.integers(20, 300),
                                     "max_rejection_trials": st.sampled_from([200, 20_000])}),
        "path": st.fixed_dictionaries({"length": st.integers(1, 400),
                                       "burn_in": st.integers(3, 5) | truncation,
                                       "truncation": truncation}),
    })


configs = st.integers(1, 3).flatmap(lambda dim: norms(dim).flatmap(
    lambda norm: models(dim, norm).flatmap(lambda model: _config(dim, norm, model))))

commands = st.one_of(
    st.sampled_from(WINDOW_SUITES).map(lambda s: ["verify", "--suite", s, "--workers", "1"]),
    st.just(["simulate"]),
    st.sampled_from(["0", "1", "2"]).map(lambda t: ["spectral", "--n", "20", "--window", "1", t]),
    st.sampled_from(STATS).map(lambda s: ["summarize", "--stat", s, "--n", "200"]),
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=configs, command=commands)
def test_schema_valid_configs_exit_cleanly(data, command):
    jsonschema.validate(data, SCHEMA)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/cfg.json"
        with open(cfg, "w") as fh:
            json.dump(data, fh)
        out = "--report" if command[0] == "verify" else "--out"
        argv = command[:1] + ["--config", cfg] + command[1:] + [out, f"{tmp}/out"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err.getvalue()

"""Config file schema, presets, and builders tying configs to model objects.

A run is described by a single JSON document (versioned schema): tail index,
innovation law, norm, model family, Monte Carlo sizes, path sizes, and a
master seed.  Presets for the worked examples (iid, two- and three-term
moving averages, scalar AR(1), lagged sequence space) ship with the package.
"""

from __future__ import annotations

import json
from importlib import resources

import jsonschema
import numpy as np

from .rv import Atomic, Rademacher, RegVarDist, SphereUniform
from .simulate import PathConfig, simulate_ar1, simulate_linear, simulate_sequence_space
from .spaces import (
    ChainOp,
    ContractionCertificate,
    DenseOp,
    DiagonalOp,
    EmbeddingOp,
    NormSpec,
    ScalarOp,
    ShiftPowerOp,
    identity_op,
    max_norm,
    weighted_l1_norm,
)
from .spectral import (
    AR1Spectral,
    LinearProcessSpectral,
    OperatorFamily,
    family_from_coeffs,
    sequence_space_family,
)

__all__ = ["ConfigError", "SCHEMA", "ModelConfig", "load_config", "list_presets"]

PRESETS = ("iid", "ma2", "ma3_positive", "ar1_scalar", "seqspace")


class ConfigError(ValueError):
    """Config file failed parsing, schema validation, or semantic checks."""


# Referenced as #/definitions/operator, so chain parts are validated like
# top-level operators.
_OPERATOR_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "scalar"}, "a": {"type": "number"}},
            "required": ["kind", "a"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "diagonal"},
                "entries": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
            "required": ["kind", "entries"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "dense"},
                "matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                    "minItems": 1,
                },
            },
            "required": ["kind", "matrix"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "shift_power"},
                "m": {"type": "integer", "minimum": 0},
            },
            "required": ["kind", "m"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "embedding"},
                "index": {"type": "integer", "minimum": 0},
            },
            "required": ["kind", "index"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "chain"},
                "parts": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/operator"},
                    "minItems": 1,
                },
            },
            "required": ["kind", "parts"],
            "additionalProperties": False,
        },
    ]
}

SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "alpha", "seed", "norm", "innovation", "model", "mc", "path"],
    "additionalProperties": False,
    "definitions": {"operator": _OPERATOR_SCHEMA},
    "properties": {
        "version": {"const": 1},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "norm": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "max"},
                        "dim": {"type": "integer", "minimum": 1},
                    },
                    "required": ["kind", "dim"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "lp"},
                        "dim": {"type": "integer", "minimum": 1},
                        "p": {"type": "number", "minimum": 1},
                    },
                    "required": ["kind", "dim", "p"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "weighted_l1"},
                        "weights": {
                            "type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1,
                        },
                    },
                    "required": ["kind", "weights"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "weighted_l1"},
                        "decay": {"type": "number", "exclusiveMinimum": 0},
                        "dim": {"type": "integer", "minimum": 1},
                    },
                    "required": ["kind", "decay", "dim"],
                    "additionalProperties": False,
                },
            ]
        },
        "innovation": {
            "type": "object",
            "required": ["scale", "angle"],
            "additionalProperties": False,
            "properties": {
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "angle": {
                    "oneOf": [
                        {
                            "type": "object",
                            "properties": {
                                "kind": {"const": "rademacher"},
                                "p_plus": {"type": "number", "minimum": 0, "maximum": 1},
                            },
                            "required": ["kind", "p_plus"],
                            "additionalProperties": False,
                        },
                        {
                            "type": "object",
                            "properties": {"kind": {"const": "sphere_uniform"}},
                            "required": ["kind"],
                            "additionalProperties": False,
                        },
                        {
                            "type": "object",
                            "properties": {
                                "kind": {"const": "atomic"},
                                "points": {
                                    "type": "array",
                                    "items": {"type": "array", "items": {"type": "number"}},
                                    "minItems": 1,
                                },
                                "weights": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                    "minItems": 1,
                                },
                            },
                            "required": ["kind", "points", "weights"],
                            "additionalProperties": False,
                        },
                    ]
                },
            },
        },
        "model": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {"type": {"const": "iid"}},
                    "required": ["type"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "linear"},
                        "coeffs": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 1,
                        },
                        "start": {"type": "integer"},
                    },
                    "required": ["type", "coeffs"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "linear_ops"},
                        "operators": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "object",
                                "properties": {
                                    "index": {"type": "integer"},
                                    "op": {"$ref": "#/definitions/operator"},
                                },
                                "required": ["index", "op"],
                                "additionalProperties": False,
                            },
                        },
                    },
                    "required": ["type", "operators"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "ar1"},
                        "operator": {"$ref": "#/definitions/operator"},
                        "horizon": {"type": "integer", "minimum": 1},
                    },
                    "required": ["type", "operator"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {"type": {"const": "seqspace"}},
                    "required": ["type"],
                    "additionalProperties": False,
                },
            ]
        },
        "mc": {
            "type": "object",
            "required": ["n_samples"],
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 1},
                "max_rejection_trials": {"type": "integer", "minimum": 1},
            },
        },
        "path": {
            "type": "object",
            "required": ["length", "burn_in", "truncation"],
            "additionalProperties": False,
            "properties": {
                "length": {"type": "integer", "minimum": 1},
                "burn_in": {"type": "integer", "minimum": 0},
                "truncation": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def _rows(rows, field):
    """``rows`` as given; a ragged list of rows is a ConfigError naming ``field``."""
    if len({len(r) for r in rows}) > 1:
        raise ConfigError(f"{field} rows must all have the same length")
    return rows


def _build_operator(spec, dim):
    kind = spec["kind"]
    if kind == "scalar":
        return ScalarOp(spec["a"], dim)
    if kind == "diagonal":
        return DiagonalOp(spec["entries"])
    if kind == "dense":
        return DenseOp(_rows(spec["matrix"], "dense operator matrix"))
    if kind == "shift_power":
        return ShiftPowerOp(spec["m"], dim)
    if kind == "embedding":
        return EmbeddingOp(spec["index"], dim)
    if kind == "chain":
        return ChainOp([_build_operator(p, dim) for p in spec["parts"]])
    raise ConfigError(f"unknown operator kind {kind!r}")


class ModelConfig:
    """Parsed, schema-validated run description with object builders."""

    def __init__(self, data):
        self.data = data

    # -- plain fields -------------------------------------------------
    @property
    def alpha(self):
        return float(self.data["alpha"])

    @property
    def seed(self):
        return int(self.data["seed"])

    @property
    def n_samples(self):
        return int(self.data["mc"]["n_samples"])

    @property
    def max_rejection_trials(self):
        return int(self.data["mc"].get("max_rejection_trials", 10**6))

    @property
    def model_type(self):
        return self.data["model"]["type"]

    # -- builders -----------------------------------------------------
    def space(self) -> NormSpec:
        norm = self.data["norm"]
        if norm["kind"] == "max":
            return max_norm(norm["dim"])
        if norm["kind"] == "lp":
            return NormSpec("lp", norm["dim"], p=float(norm["p"]))
        if "weights" in norm:
            return weighted_l1_norm(norm["weights"])
        w = [norm["decay"] ** n for n in range(norm["dim"])]
        return weighted_l1_norm(w)

    def innovation_space(self) -> NormSpec:
        if self.model_type == "seqspace":
            return weighted_l1_norm((1.0,))
        return self.space()

    def innovation(self) -> RegVarDist:
        spec = self.data["innovation"]
        angle_spec = spec["angle"]
        space = self.innovation_space()
        kind = angle_spec["kind"]
        if kind == "rademacher":
            if space.dim != 1:
                raise ConfigError("rademacher innovations need a 1-d space")
            angle = Rademacher(angle_spec["p_plus"])
        elif kind == "sphere_uniform":
            angle = SphereUniform(space)
        else:
            angle = Atomic(_rows(angle_spec["points"], "atomic angle points"),
                           angle_spec["weights"], space)
        return RegVarDist(self.alpha, float(spec["scale"]), angle)

    def family(self) -> OperatorFamily:
        """Finite operator family of the model.

        AR(1) gives the power family {T^n : n <= horizon} of its contraction
        certificate, so a non-contracting operator raises DomainError.
        """
        model = self.data["model"]
        space = self.space()
        if model["type"] == "iid":
            return OperatorFamily({0: identity_op(space.dim)}, space, space, self.alpha)
        if model["type"] == "linear":
            return family_from_coeffs(
                model["coeffs"], self.alpha, space, start=model.get("start", 0)
            )
        if model["type"] == "linear_ops":
            ops = {
                int(entry["index"]): _build_operator(entry["op"], space.dim)
                for entry in model["operators"]
            }
            return OperatorFamily(ops, space, space, self.alpha)
        if model["type"] == "seqspace":
            return sequence_space_family(space.weights, self.alpha)
        if model["type"] == "ar1":
            T = _build_operator(model["operator"], space.dim)
            cert = ContractionCertificate(T, space, self.ar1_horizon)
            return OperatorFamily.powers(cert, self.alpha)
        raise ConfigError(f"unknown model type {model['type']!r}")

    @property
    def ar1_horizon(self):
        return int(self.data["model"].get("horizon", 64))

    def window_sampler(self, rng=None):
        """Spectral-window sampler for the configured model.  Without ``rng``,
        Monte Carlo tail constants draw from stream 0xC0 of the seed."""
        innov = self.innovation()
        if rng is None and innov.angle.atoms() is None:  # atoms give closed forms
            rng = np.random.default_rng([self.seed, 0xC0])
        if self.model_type == "ar1":
            T = _build_operator(self.data["model"]["operator"], self.space().dim)
            return AR1Spectral(T, innov, self.ar1_horizon, rng=rng,
                               max_trials=self.max_rejection_trials)
        return LinearProcessSpectral(
            self.family(), innov, rng=rng, max_trials=self.max_rejection_trials
        )

    def path_config(self, length=None) -> PathConfig:
        p = self.data["path"]
        return PathConfig(
            int(length if length is not None else p["length"]),
            int(p["burn_in"]),
            int(p["truncation"]),
            self.seed,
        )

    def simulate(self, length=None):
        cfg = self.path_config(length)
        innov = self.innovation()
        if self.model_type == "ar1":
            T = _build_operator(self.data["model"]["operator"], self.space().dim)
            return simulate_ar1(T, innov, cfg, horizon=self.ar1_horizon)
        if self.model_type == "seqspace":
            return simulate_sequence_space(self.space().weights, innov, cfg)
        return simulate_linear(self.family(), innov, cfg)

    def closed_norm_extremal_index(self):
        """Closed-form norm extremal index when the family is a scaled isometry
        family with exact norm bounds, else None."""
        from .summaries import isometry_family_extremal_index

        model = self.data["model"]
        if model["type"] == "linear":
            return isometry_family_extremal_index(model["coeffs"], self.alpha)
        if model["type"] == "iid":
            return 1.0
        if model["type"] == "seqspace":
            return isometry_family_extremal_index(self.space().weights, self.alpha)
        if model["type"] == "ar1" and model["operator"]["kind"] == "scalar":
            q = abs(model["operator"]["a"])
            if q >= 1:
                return None
            return 1.0 - q**self.alpha
        return None

    def ma_specials(self):
        """Closed forms (``MARealSpecials``) when the model is a real moving
        average (or iid) with sign innovations, else None."""
        from .summaries import ma_real_specials

        model = self.data["model"]
        angle = self.data["innovation"]["angle"]
        if model["type"] not in ("linear", "iid") or angle["kind"] != "rademacher":
            return None
        return ma_real_specials(model.get("coeffs", [1.0]), self.alpha, angle["p_plus"])

    def canonical_json(self):
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"


def _validate(data):
    try:
        jsonschema.validate(data, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc


def list_presets():
    return list(PRESETS)


def _preset_text(name):
    return resources.files("heavytail.presets").joinpath(f"{name}.json").read_text()


def load_config(source, overrides=None) -> ModelConfig:
    """Load a config from a dict, a JSON file path, or a preset name.

    ``overrides`` is a shallow key -> value merge applied before validation
    (used for seed/alpha/size overrides).
    """
    if isinstance(source, dict):
        data = json.loads(json.dumps(source))
    else:
        name = str(source)
        try:
            if name in PRESETS:
                text = _preset_text(name)
            else:
                with open(name, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {name!r}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
                f"{exc.msg}"
            ) from exc
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if isinstance(value, dict):
                merged = dict(data.get(key, {}))
                merged.update(value)
                data[key] = merged
            else:
                data[key] = value
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _validate(data)
    if data["model"]["type"] == "seqspace" and data["norm"]["kind"] != "weighted_l1":
        raise ConfigError("seqspace model requires a weighted_l1 norm")
    return ModelConfig(data)

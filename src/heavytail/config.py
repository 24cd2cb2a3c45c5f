"""Config file schema, presets, and builders tying configs to model objects.

A run is described by a single JSON document (versioned schema): tail index,
innovation law, norm, model family, Monte Carlo sizes, path sizes, and a
master seed.  Presets for the worked examples (iid, two- and three-term
moving averages, scalar AR(1), lagged sequence space) ship with the package.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .rv import Atomic, Rademacher, RegVarDist, SphereUniform
from .simulate import PathConfig, simulate_ar1, simulate_linear, simulate_sequence_space
from .spaces import (
    ContractionCertificate,
    DenseOp,
    DimensionError,
    EmbeddingOp,
    NormSpec,
    ScalarOp,
    identity_op,
    lp_norm,
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
    """Scalar and embedding kinds keep their own operator; every other kind
    is the DenseOp of its matrix."""
    kind = spec["kind"]
    if kind == "scalar":
        return ScalarOp(spec["a"], dim)
    if kind == "diagonal":
        return DenseOp(np.diag(spec["entries"]))
    if kind == "dense":
        return DenseOp(_rows(spec["matrix"], "dense operator matrix"))
    if kind == "shift_power":  # (x_0, x_1, ...) -> (0, .., 0, x_0, ...), truncated at dim
        return DenseOp(np.eye(dim, k=-int(spec["m"])))
    if kind == "embedding":
        return EmbeddingOp(spec["index"], dim)
    if kind == "chain":  # parts[0] acts first
        parts = [_build_operator(p, dim) for p in spec["parts"]]
        mat = parts[0].as_matrix()
        for a, b in zip(parts, parts[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionError("chained operator dimensions do not match")
            mat = b.as_matrix() @ mat
        return DenseOp(mat)
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
            return lp_norm(norm["dim"], norm["p"])
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

    def window_sampler(self):
        """Spectral-window sampler for the configured model.  Monte Carlo tail
        constants draw from stream 0xC0 of the seed."""
        innov = self.innovation()
        rng = None
        if innov.angle.atoms() is None:  # atoms give closed forms
            rng = np.random.default_rng([self.seed, 0xC0])
        if self.model_type == "ar1":
            T = _build_operator(self.data["model"]["operator"], self.space().dim)
            return AR1Spectral(T, innov, self.ar1_horizon, rng=rng,
                               max_trials=self.max_rejection_trials)
        return LinearProcessSpectral(
            self.family(), innov, rng=rng, max_trials=self.max_rejection_trials
        )

    def path_config(self) -> PathConfig:
        p = self.data["path"]
        return PathConfig(int(p["length"]), int(p["burn_in"]), int(p["truncation"]), self.seed)

    def simulate(self):
        cfg = self.path_config()
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


# Draft-07 keywords that ``_schema_error`` implements, and the ones it skips
# (``$ref`` reads ``definitions``).  ``additionalProperties`` is implemented for
# ``false`` only and ``const`` for scalar values only: SCHEMA uses nothing else.
_KEYWORDS = frozenset({
    "type", "const", "required", "properties", "additionalProperties", "items",
    "minItems", "minimum", "maximum", "exclusiveMinimum", "oneOf", "$ref",
})
_SKIPPED = frozenset({"$schema", "definitions"})

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}

_BOUNDS = {
    "minimum": (lambda v, b: v >= b, "is less than the minimum of"),
    "maximum": (lambda v, b: v <= b, "is greater than the maximum of"),
    "exclusiveMinimum": (lambda v, b: v > b, "is less than or equal to the minimum of"),
}


def _same(value, const):
    """JSON equality of a scalar: a bool equals only a bool, and 1 == 1.0."""
    return isinstance(value, bool) == isinstance(const, bool) and value == const


def _names_branch(value, branch):
    """Whether ``value`` carries every ``const`` property of a ``oneOf`` branch
    (its ``kind`` or ``type``), so the branch is the one it means."""
    consts = {k: s["const"] for k, s in branch.get("properties", {}).items() if "const" in s}
    return (isinstance(value, dict) and bool(consts)
            and all(k in value and _same(value[k], c) for k, c in consts.items()))


def _schema_error(value, schema=SCHEMA, path=()):
    """First ``(path, message)`` at which ``value`` fails ``schema``, or None.

    A walker over the draft-07 keywords in ``_KEYWORDS``, checked in the
    schema's key order, with jsonschema's semantics and messages: a bool is
    not a number, 3.0 is an integer, 1 == 1.0 for ``const``, and ``oneOf``
    needs exactly one passing branch.  A failed ``oneOf`` reports the deepest
    error among the branches that ``value`` names by its const properties,
    else that no branch matched.  One deliberate difference: a non-finite
    number (NaN, Infinity, 1e999 in JSON) fails every numeric type, where
    jsonschema accepts it.
    """
    for key, arg in schema.items():
        msg, children = None, ()
        if key == "type":
            if (arg in ("number", "integer") and isinstance(value, float)
                    and not math.isfinite(value)):
                msg = f"{value!r} is not a finite number"
            elif not _TYPES[arg](value):
                msg = f"{value!r} is not of type {arg!r}"
        elif key == "const":
            if not _same(value, arg):
                msg = f"{arg!r} was expected"
        elif key in _BOUNDS:
            holds, text = _BOUNDS[key]
            if _TYPES["number"](value) and not holds(value, arg):
                msg = f"{value!r} {text} {arg!r}"
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                msg = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "required":
            missing = [k for k in arg if k not in value] if isinstance(value, dict) else []
            if missing:
                msg = f"{missing[0]!r} is a required property"
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extra = sorted((k for k in value if k not in known), key=str) \
                if isinstance(value, dict) else []
            if extra:
                names = ", ".join(repr(k) for k in extra)
                msg = (f"Additional properties are not allowed "
                       f"({names} {'was' if len(extra) == 1 else 'were'} unexpected)")
        elif key == "properties":
            if isinstance(value, dict):
                children = [(value[k], sub, path + (k,)) for k, sub in arg.items() if k in value]
        elif key == "items":
            if isinstance(value, list):
                children = [(item, arg, path + (i,)) for i, item in enumerate(value)]
        elif key == "$ref":  # "#/definitions/..." within SCHEMA
            target = SCHEMA
            for part in arg.removeprefix("#/").split("/"):
                target = target[part]
            children = [(value, target, path)]
        elif key == "oneOf":
            errors = [_schema_error(value, branch, path) for branch in arg]
            passed = errors.count(None)
            if passed > 1:
                msg = f"{value!r} is valid under more than one of the given schemas"
            elif passed == 0:
                named = [e for e, b in zip(errors, arg) if _names_branch(value, b)]
                if named:
                    return max(named, key=lambda e: len(e[0]))  # the first on ties
                msg = f"{value!r} is not valid under any of the given schemas"
        elif key not in _SKIPPED:
            raise NotImplementedError(f"schema keyword {key!r}")
        if msg is not None:
            return path, msg
        for child in children:
            err = _schema_error(*child)
            if err:
                return err
    return None


def _validate(data):
    err = _schema_error(data)
    if err:
        path = "/".join(str(p) for p in err[0]) or "<root>"
        raise ConfigError(f"config invalid at {path}: {err[1]}")


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

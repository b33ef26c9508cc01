"""The CLI's config checker against jsonschema, run as an oracle.

Every case is a valid config with one fault in it. Both validators must give
the same verdict and name the same key path. The checker is stricter than JSON
Schema in two ways, tested on their own: an integral float is not an integer,
and a number is finite.
"""

import copy
import math
import re

import pytest

from aggnoise.cli import CONFIG_SCHEMA, validate_config
from aggnoise.errors import ConfigError

jsonschema = pytest.importorskip("jsonschema")

# a valid config that sets every key the schema knows
FULL_CONFIG = {
    "seed": 5,
    "rounds": 3,
    "dataset": {"kind": "synthetic", "task": "regression", "features": 4, "per_user": 50,
                "noise": 0.2, "iid": True, "shift": 1.0, "eval_size": 100,
                "path": "data.csv", "has_header": False},
    "users": {"total": 4, "sensitive": 1},
    "scheme": {"kind": "gaussian_sampled", "batch": 10, "learning_rate": 0.2,
               "fedavg_samples": 0, "local_steps": 1},
    "mechanism": {"kind": "wfdp", "sigma2": 0.005},
    "accountant": {"route": "closed_form", "mode": "general", "composition": "simple",
                   "delta": 1e-3, "delta0": 0.0, "clip": 1.0},
}

WRONG_TYPE = {"integer": "1", "number": "1", "boolean": 1, "string": 1, "object": []}


def schema_keys(schema=CONFIG_SCHEMA, path=()):
    """(path, subschema) for every key, parents before their children."""
    for name, sub in schema.get("properties", {}).items():
        yield path + (name,), sub
        yield from schema_keys(sub, path + (name,))


def value_at(config, path):
    for name in path:
        config = config[name]
    return config


def with_value(path, value):
    config = copy.deepcopy(FULL_CONFIG)
    value_at(config, path[:-1])[path[-1]] = value
    return config


def without(path):
    config = copy.deepcopy(FULL_CONFIG)
    del value_at(config, path[:-1])[path[-1]]
    return config


def bound_values(sub):
    """Values at each bound's edge, just outside it and just inside it."""
    integer = sub["type"] == "integer"
    for keyword in ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"):
        if keyword not in sub:
            continue
        edge = sub[keyword]
        outward = -math.inf if "inimum" in keyword else math.inf
        if integer:
            step = -1 if outward < 0 else 1
            yield f"{keyword}-edge", edge
            yield f"{keyword}-past", edge + step
            yield f"{keyword}-inside", edge - step
        else:
            yield f"{keyword}-edge", float(edge)
            yield f"{keyword}-past", math.nextafter(edge, outward)
            yield f"{keyword}-inside", math.nextafter(edge, -outward)


def single_fault_cases():
    yield "valid-full", FULL_CONFIG
    yield "valid-minimal", {name: FULL_CONFIG[name] for name in CONFIG_SCHEMA["required"]}
    yield "<root>:wrong-type", []
    for path, sub in [((), CONFIG_SCHEMA), *schema_keys()]:
        key = "/".join(path) or "<root>"
        if sub.get("type") == "object":
            yield f"{key}:unknown-key", with_value(path + ("wat",), 1)
            for name in sub.get("required", ()):
                yield f"{key}:missing-{name}", without(path + (name,))
        if "type" in sub and path:
            yield f"{key}:wrong-type", with_value(path, WRONG_TYPE[sub["type"]])
            yield f"{key}:null", with_value(path, None)
        if sub.get("type") in ("integer", "number"):
            yield f"{key}:bool", with_value(path, True)
            for label, value in bound_values(sub):
                yield f"{key}:{label}", with_value(path, value)
        if "enum" in sub:
            yield f"{key}:enum-miss", with_value(path, "bogus")
            yield f"{key}:enum-wrong-type", with_value(path, 7)
            for value in sub["enum"]:
                yield f"{key}:enum-{value}", with_value(path, value)


CASES = dict(single_fault_cases())


def oracle_verdict(config):
    """None if jsonschema accepts the config, else the key path it names."""
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        return "/".join(str(p) for p in exc.absolute_path) or "<root>"
    return None


def checker_verdict(config):
    try:
        validate_config(config)
    except ConfigError as exc:
        return re.match(r"config key '([^']*)': ", str(exc)).group(1)
    return None


def test_full_config_sets_every_key():
    def config_keys(node, path=()):
        for name, value in node.items():
            yield path + (name,)
            if isinstance(value, dict):
                yield from config_keys(value, path + (name,))

    assert set(config_keys(FULL_CONFIG)) == {path for path, _ in schema_keys()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_checker_agrees_with_jsonschema(case):
    assert checker_verdict(CASES[case]) == oracle_verdict(CASES[case])


def test_cases_cover_both_verdicts():
    verdicts = [oracle_verdict(config) for config in CASES.values()]
    assert sum(v is None for v in verdicts) >= 20
    assert sum(v is not None for v in verdicts) >= 100


@pytest.mark.parametrize(
    "path", [path for path, sub in schema_keys() if sub.get("type") == "integer"],
    ids="/".join,
)
def test_integral_float_rejected_by_checker_only(path):
    config = with_value(path, float(value_at(FULL_CONFIG, path)))
    assert oracle_verdict(config) is None
    assert checker_verdict(config) == "/".join(path)


@pytest.mark.parametrize(
    "path", [path for path, sub in schema_keys() if sub.get("type") == "number"],
    ids="/".join,
)
def test_non_finite_number_rejected_by_checker(path):
    # jsonschema lets NaN past every bound; the infinities only past the open side
    assert oracle_verdict(with_value(path, math.nan)) is None
    for value in (math.nan, math.inf, -math.inf):
        assert checker_verdict(with_value(path, value)) == "/".join(path)



# keys older configs set that the schema has dropped: refused at any value,
# the old default included, so a config never silently loses a setting
RETIRED_KEYS = [("accountant", "sampling_ratio"), ("mechanism", "blocks")]


@pytest.mark.parametrize("value", [1.0, 1, 0.5, 2, None, "1.0", True, math.nan],
                         ids=["default", "int-default", "below-one", "above-one", "null", "string",
                              "bool", "nan"])
@pytest.mark.parametrize("path", RETIRED_KEYS, ids="/".join)
def test_retired_key_rejected_at_any_value(path, value):
    assert path not in {p for p, _ in schema_keys()}
    config = with_value(path, value)
    assert checker_verdict(config) == oracle_verdict(config) == "/".join(path[:-1])

"""Configs drawn from the shipped schema, run through every command.

Every config that the schema accepts must either run or fail with a
`MagsuperError`: exit 0, 1 or 2, never an escaped exception or a
warning. The strategies are built from `cli.CONFIG_SCHEMA` itself, so a
key added there is drawn here too. Field parameters and energies range
over all finite doubles; the keys that set how much work a run does are
held small, and so is |field| * t_end of a trajectory.

The accept tests that `cli` compiles from the schema must agree with
jsonschema's validator on the drawn configs, on the same configs with
one value replaced, one key deleted or one key added, and on the values
of each flag.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magsuper as ms
from magsuper import cli

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

SCHEMA = cli.CONFIG_SCHEMA
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

#: the keys that set the amount of work, by their path in a config
WORK = {
    "t_end": st.floats(1e-3, 1.0),
    "integrator.dt": st.floats(1e-2, 1.0),
    "integrator.max_step": st.floats(1e-2, 10.0),
    "grid.n": st.integers(16, 200),
    "n_points": st.integers(1, 4),
    "n_levels": st.integers(1, 4),
    "r_max": st.integers(1, 3),
    # positions off the origin and momenta of order one: |x| >= 0.5 bounds
    # the monopole's field on the orbit's start
    "state0.x": st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).filter(
        lambda x: math.hypot(*x) >= 0.5),
    "state0.p": st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
}

#: top-level keys drawn every time for each command, so that runs get past
#: the checks for missing keys
NEEDS = {
    "simulate": {"state0", "t_end"},
    "trajectory": {"state0", "t_end"},
    "verify": set(),
    "algebra": set(),
    "spectrum": {"grid", "K", "E"},
    "fields-check": set(),
}


def _number(schema: dict):
    """Finite doubles within the schema's bounds, often with magnitudes near 1e300."""
    lo = schema.get("minimum", schema.get("exclusiveMinimum"))
    open_lo = "exclusiveMinimum" in schema
    full = st.floats(min_value=lo, max_value=schema.get("maximum"), exclude_min=open_lo,
                     allow_nan=False, allow_infinity=False)
    huge = st.floats(1e299, 1e301)
    if lo is None:
        huge = huge | huge.map(lambda v: -v)
    small = st.integers(min_value=None if lo is None else math.floor(lo) + open_lo)
    return full | huge | small


def from_schema(schema: dict, path: str = "", needs=frozenset()):
    """A strategy for the JSON values that `schema` accepts.

    Covers the keywords the config schema uses: type, const, enum, oneOf,
    not, required, additionalProperties (false), the numeric bounds and
    fixed-length arrays. `WORK` replaces the strategy at its paths;
    `needs` names optional top-level keys that are always drawn.
    """
    if path in WORK:
        return WORK[path]
    if "oneOf" in schema:
        return st.one_of([from_schema(sub, path) for sub in schema["oneOf"]])
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        assert schema.get("additionalProperties") is False
        required = set(schema.get("required", ())) | set(needs)
        parts = {key: from_schema(sub, f"{path}.{key}".lstrip("."))
                 for key, sub in schema["properties"].items()}
        strategy = st.fixed_dictionaries(
            {k: s for k, s in parts.items() if k in required},
            optional={k: s for k, s in parts.items() if k not in required})
    elif kind == "array":
        strategy = st.lists(from_schema(schema["items"], path),
                            min_size=schema["minItems"], max_size=schema["maxItems"])
    elif kind == "number":
        strategy = _number(schema)
    elif kind == "integer":
        strategy = st.integers(schema.get("minimum"), schema.get("maximum"))
    else:
        raise AssertionError(f"schema type {kind!r} has no strategy")
    if "not" in schema:
        excluded = jsonschema.Draft202012Validator(schema["not"])
        strategy = strategy.filter(lambda v: not excluded.is_valid(v))
    return strategy


def _field_scale(system: dict) -> float:
    """An upper bound on |B| (and on the monopole's Coulomb pull) at |x| >= 0.5;
    inf where the products overflow."""
    if system["model"] == "constant_b":
        return abs(system["B"])
    if system["model"] == "helical":
        amp, beta = system["A_amp"], abs(system["beta"])
        return amp * max(1.0, amp) * max(1.0, 1.0 / beta)
    g, q = abs(system["g"]), abs(system.get("Q", 0.0))
    return 4.0 * max(g * max(1.0, g), q)


@st.composite
def runs(draw, command: str):
    cfg = draw(from_schema(SCHEMA, needs=NEEDS[command]))
    if "t_end" in cfg:
        # at most about ten turns of the orbit; 5e-324 keeps t_end > 0
        cfg["t_end"] = max(5e-324, min(cfg["t_end"], 10.0 / _field_scale(cfg["system"])))
    flags = []
    if command == "trajectory" and draw(st.booleans()):
        flags.append("--closed-form")
    if command == "verify":
        flags += ["--mode", draw(st.sampled_from(["classical", "quantum"]))]
    return cfg, flags


@pytest.mark.parametrize("command", sorted(NEEDS))
def test_every_schema_config_exits_0_1_or_2(tmp_path_factory, command):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"

    @SETTINGS
    @given(runs(command))
    def check(run):
        cfg, flags = run
        VALIDATOR.validate(cfg)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            # the one documented warning: RK45 raises a tiny rel_tol to its floor
            warnings.filterwarnings("ignore", r"rel_tol \S+ is below", UserWarning)
            rc = cli.main([command, "--config", str(path), *flags])
        assert rc in (0, 1, 2)
        if rc == 1:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("magsuper: error: ")

    check()


@SETTINGS
@given(from_schema(SCHEMA["properties"]["system"], "system"))
def test_model_from_config_takes_every_schema_system(system):
    VALIDATOR.validate({"system": system})
    assert isinstance(ms.model_from_config(system), ms.fields.FieldModel)


CONFIGS = from_schema(SCHEMA)


def _paths(value, path=()):
    """The path of each value inside `value`, as a tuple of keys and indices."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield path + (key,)
        yield from _paths(sub, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


#: the limits of the schema's numeric bounds
LIMITS = sorted({_at(SCHEMA, path) for path in _paths(SCHEMA)
                 if path[-1] in ("minimum", "maximum", "exclusiveMinimum")})
#: values on the edges of JSON Schema's types, and at or just past each limit
EDGES = [True, False, None, 0, -0.0, 16.0, 15.5, "x", "", [], [1, 2], [1.0, 2.0, 3.0], {},
         {"model": "constant_b"}, *LIMITS, *(limit + step for limit in LIMITS for step in (-1, 1)),
         *(math.nextafter(limit, side) for limit in LIMITS for side in (-math.inf, math.inf))]


def _mutant(draw, cfg):
    """cfg with one value replaced by an edge, one key deleted or one key added."""
    cfg = copy.deepcopy(cfg)
    paths = list(_paths(cfg))
    kind = draw(st.sampled_from(["replace", "delete", "add"]))
    if kind == "add":
        objects = [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        _at(cfg, draw(st.sampled_from(objects)))["extra"] = draw(st.sampled_from(EDGES))
        return cfg
    if kind == "delete":
        paths = [p for p in paths if isinstance(_at(cfg, p[:-1]), dict)]
    path = draw(st.sampled_from(paths))
    parent = _at(cfg, path[:-1])
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(EDGES)))
    return cfg


@st.composite
def mutants(draw, count=10):
    """A drawn config and `count` mutants of it."""
    cfg = draw(CONFIGS)
    return [cfg, *(_mutant(draw, cfg) for _ in range(count))]


def _agree(cfg):
    """The compiled test accepts cfg exactly when jsonschema does, and words
    a refusal as the first error that jsonschema finds, by path."""
    accepted = cli._ACCEPTS_CONFIG(cfg)
    assert accepted == VALIDATOR.is_valid(cfg), cfg
    if not accepted:
        err = sorted(VALIDATOR.iter_errors(cfg), key=lambda e: str(e.json_path))[0]
        with pytest.raises(ms.ConfigError) as refusal:
            cli.validate_config(cfg)
        assert str(refusal.value) == f"config schema violation at {err.json_path}: {err.message}"


@settings(SETTINGS, max_examples=60)
@given(mutants())
def test_compiled_test_agrees_with_jsonschema_on_drawn_and_mutated_configs(cfgs):
    assert cli._ACCEPTS_CONFIG(cfgs[0])
    for cfg in cfgs:
        _agree(cfg)


@pytest.mark.parametrize("key", sorted(SCHEMA["properties"]))
def test_compiled_flag_tests_agree_with_jsonschema(key):
    schema = SCHEMA["properties"][key]
    validator = jsonschema.Draft202012Validator(schema)

    @settings(SETTINGS, max_examples=20)
    @given(from_schema(schema, key) | st.sampled_from(EDGES))
    def check(value):
        assert cli._ACCEPTS_KEY[key](value) == validator.is_valid(value), value

    check()


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"anyOf": [{"type": "number"}, {"type": "array"}]},
    {"$ref": "#/$defs/x", "$defs": {"x": {"type": "number"}}},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "string"},
    {"type": ["number", "array"]},
    {"const": [1]},
], ids=["pattern", "anyOf", "$ref", "additionalProperties-schema", "type-string",
        "type-list", "const-array"])
def test_compiler_refuses_keywords_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="has no compiled test"):
        cli._accepts(schema)
    with pytest.raises(ValueError, match="has no compiled test"):
        cli._accepts({"properties": {"x": schema}})


def test_compiler_ignores_the_schema_and_title_annotations():
    accepts = cli._accepts({"$schema": SCHEMA["$schema"], "title": "a number",
                            "type": "number"})
    assert accepts(1.5) and accepts(0) and not accepts(True) and not accepts("1")
    assert cli._accepts({"$schema": SCHEMA["$schema"], "title": "anything"})([{}])


@pytest.mark.parametrize("schema", [
    {"const": 0}, {"const": True}, {"const": "a"}, {"enum": [1, "a", None]}, {"enum": [False]},
    {"not": {"const": 0}}, {"type": "integer"}, {"type": "number"},
    {"type": "integer", "minimum": 16, "maximum": 1000},
    {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 2},
    {"oneOf": [{"type": "integer"}, {"type": "number", "maximum": 0}]},
])
def test_compiler_tells_bools_from_numbers_as_jsonschema_does(schema):
    accepts = cli._accepts(schema)
    validator = jsonschema.Draft202012Validator(schema)
    for value in [*EDGES, 1, 1.0, -1, True, "a", [True], [16.0, 0], [1, 2, 3]]:
        assert accepts(value) == validator.is_valid(value), (schema, value)

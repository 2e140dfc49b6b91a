"""Configs drawn from the shipped schema, run through every command.

Every config that the schema accepts must either run or fail with a
`MagsuperError`: exit 0, 1 or 2, never an escaped exception or a
warning. The strategies are built from `cli.CONFIG_SCHEMA` itself, so a
key added there is drawn here too. Field parameters and energies range
over all finite doubles; the keys that set how much work a run does are
held small, and so is |field| * t_end of a trajectory.
"""

import contextlib
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

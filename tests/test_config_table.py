"""The schema is the one config table: loading and `to_dict` both follow it.

Properties over schema-valid edits of the bundled configs: `to_dict`
is a fixed point of loading, and it emits exactly the schema's leaves.
Plus: the schema is the one declaration of each ScenarioConfig default,
each nested parameter class's library default equals the schema's, and
every default passes its own leaf's check, bounds included.
"""

import dataclasses
import json

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from catchsim.harness import _NESTED, ConfigError, ScenarioConfig, _check_leaf, config_from_dict
from conftest import LEAVES, edited_raw


def dict_leaves(d, path=()):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from dict_leaves(value, path + (key,))
        else:
            yield path + (key,)


@st.composite
def edited_configs(draw):
    try:
        return config_from_dict(draw(edited_raw()))
    except ConfigError:
        reject()


@settings(max_examples=150, deadline=None)
@given(cfg=edited_configs())
def test_to_dict_is_a_fixed_point(cfg):
    d = cfg.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert config_from_dict(d).to_dict() == d


@settings(max_examples=150, deadline=None)
@given(cfg=edited_configs())
def test_to_dict_emits_exactly_the_schema_leaves(cfg):
    expected = {path for path in LEAVES if path[0] != "plane" or cfg.scenario_id.value == "planar2d"}
    emitted = list(dict_leaves(cfg.to_dict()))
    assert len(emitted) == len(set(emitted))
    assert set(emitted) == expected


def dataclass_default(attr: str):
    """The default a dataclass declares for a ScenarioConfig attribute path (MISSING if none)."""
    *owner, name = attr.split(".")
    cls = _NESTED[owner[0]] if owner else ScenarioConfig
    return {f.name: f for f in dataclasses.fields(cls)}[name].default


@pytest.mark.parametrize(
    "path", [path for path, node in LEAVES.items() if "default" in node], ids=".".join
)
def test_schema_default_equals_dataclass_default(path):
    """A nested parameter class keeps its library default, which must equal the
    schema's; a ScenarioConfig field declares none, so the schema's is the only one."""
    node = LEAVES[path]
    expected = node["default"] if "." in node["attr"] else dataclasses.MISSING
    assert dataclass_default(node["attr"]) == expected


@pytest.mark.parametrize(
    "path", [path for path, node in LEAVES.items() if "default" in node], ids=".".join
)
def test_schema_default_lies_within_the_bounds(path):
    node = LEAVES[path]
    assert _check_leaf(node["default"], node, ".".join(path)) == node["default"]


def test_scenario_config_declares_no_default():
    for f in dataclasses.fields(ScenarioConfig):
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING, f.name

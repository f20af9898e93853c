"""The config schema: every typed key refuses a value of another type."""
import re
from pathlib import Path

import pytest

from nprox.cli import COMMANDS
from nprox.config import REQUIRED, SCHEMA, read_config
from nprox.experiments import ExperimentConfig
from nprox.zoo import projector_from_spec

# a value of each type that the reader takes, and values it must refuse
GOOD = {"float": 1.0, "bool": False, "str": "x", "json": {}}
BAD = {"int": [True, 1.5, 64.0, "1"], "float": [True, "1.0"], "bool": ["no", 1]}


def _good(key):
    value = max(1, key.low or 0) if key.type == "int" else GOOD[key.type]
    return [value] if key.many else value


def _minimal(keys):
    return {name: _good(key) for name, key in keys.items() if key.default is REQUIRED}


TYPED = [(entry, name) for entry, keys in SCHEMA.items()
         for name, key in keys.items() if key.type in BAD]


@pytest.mark.parametrize("entry,name", TYPED, ids=[f"{e}-{n}" for e, n in TYPED])
def test_typed_keys_refuse_other_types(entry, name):
    keys = SCHEMA[entry]
    key = keys[name]
    base = _minimal(keys)
    read_config(entry, base)
    bad = list(BAD[key.type])
    if key.low is not None:
        bad.append(key.low - 1)
    for value in bad:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            read_config(entry, {**base, name: [value] if key.many else value})
    if key.many:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            read_config(entry, {**base, name: []})


def test_readme_table_lists_the_schema_keys():
    # each row of the README's subcommand table names that command's keys,
    # the required ones in bold
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", text, re.M)
    assert sorted(command for command, _ in rows) == sorted(COMMANDS)
    for command, cell in rows:
        keys = SCHEMA[command]
        assert set(re.findall(r"`(\w+)`", cell)) == set(keys), command
        assert set(re.findall(r"\*\*`(\w+)`\*\*", cell)) == {
            name for name, key in keys.items() if key.default is REQUIRED}, command


LAGRANGE = {"kind": "lagrange", "nodes": "real_leja"}


@pytest.mark.parametrize("degree", [4.6, True, "4", -1])
def test_projector_from_spec_refuses_a_bad_degree(degree):
    # 4.6 used to build a degree-4 projector and True a degree-1 one
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        projector_from_spec(LAGRANGE, degree)
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        projector_from_spec({"kind": "newton_product", "factors": [LAGRANGE, LAGRANGE]},
                            degree)


def test_projector_from_spec_needs_a_degree_unless_nodes_are_explicit():
    for spec in (LAGRANGE, {"kind": "taylor"},
                 {"kind": "orthogonal", "measure": {"kind": "chebyshev", "mnodes": 8}}):
        with pytest.raises(ValueError, match="missing config key 'degree'"):
            projector_from_spec(spec)
    assert projector_from_spec({"kind": "lagrange", "nodes": [[0], [1]]}).degree == 1
    assert projector_from_spec({**LAGRANGE, "degree": 3}).degree == 3


@pytest.mark.parametrize("fields,key", [
    ({"degrees": [2.7, 4.2]}, "degrees"),
    ({"grid": 64.9}, "grid"),
    ({"expected_rho": "3"}, "expected_rho"),
    ({"name": 5}, "name"),
    ({"grid": 32}, "grid"),
], ids=["degrees", "grid", "expected_rho", "name", "grid-range"])
def test_experiment_config_reads_like_a_json_config(fields, key):
    # the constructor used to floor degrees and grid to [2, 4] and 64
    base = dict(name="unit", projector=LAGRANGE, function=["exp", ["affine", [1.0], 0.0]],
                compact="interval", degrees=[2, 4], grid=64)
    ExperimentConfig(**base)
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{**base, **fields})
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_json({**base, **fields})

"""The config schema: every key a JSON config or spec may carry, and its reader.

``SCHEMA`` has one entry per ``nprox`` subcommand and one per nested spec
kind, named ``family.kind`` (``"projector.taylor"``, ``"measure.custom"``,
...).  An entry maps each of its keys to a ``Key``: the value's type, its
default (``REQUIRED`` when it must be given) and its least value.
``read_config`` checks an object against one entry and returns every key's
value, typed, with the defaults filled in; ``read_spec`` picks the entry
from a spec's ``kind``.  No key's value is coerced: a bool, a float (even
64.0) or a string where an int is meant raises ``ValueError`` naming the
key, and so do a bool or a string where a number is meant, anything but
true or false for a flag, and a value below the key's least one.

A range sits here only when no library function checks it already:
``polya_run`` keeps 3 <= dmax <= 60, the measures keep mnodes >= 1.

The values a spec hands to its own parser are read here too: ``read_value``
reads one value as a ``Key`` describes it, ``read_scalar`` one number and
``read_points`` a point list, so a string or a bool is refused wherever a
number is meant.  ``read_index`` reads a library argument that must be an
integer, such as a polynomial's degree bound.
"""
from __future__ import annotations

import copy
import operator
from functools import partial
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

REQUIRED = object()


class Key(NamedTuple):
    """How one config key is read.

    ``type`` is "int", "float", "bool", "str", or "json" for a value handed
    whole to its own parser (a spec, a function tree, a node list).  With
    ``many`` the value is a non-empty list of such values.  ``low`` is the
    least value of an int.  Null reads as None where the default is None,
    or where ``nullable`` says null means something of its own.
    ``excludes`` names a key that may not be given together with this one.
    """

    type: str
    default: object = REQUIRED
    low: int | None = None
    many: bool = False
    nullable: bool = False
    excludes: str | None = None


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _int(name, value, low):
    is_int = isinstance(value, Integral) and not isinstance(value, bool)
    if is_int and (low is None or value >= low):
        return int(value)
    if low == 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    if is_int:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _float(name, value, low):
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _bool(name, value, low):
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _str(name, value, low):
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _json(name, value, low):
    return value


_READERS = {"int": _int, "float": _float, "bool": _bool, "str": _str, "json": _json}


def read_value(name: str, key: Key, value):
    """``value`` read as ``key`` describes it; ValueError naming ``name`` if it does not fit."""
    read = _READERS[key.type]
    if not key.many:
        return read(name, value, key.low)
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    return [read(name, v, key.low) for v in value]


def read_index(name: str, value) -> int:
    """``value`` as an int by ``operator.index``; TypeError naming ``name`` otherwise.

    A bool is refused; a numpy integer is read.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def read_scalar(name: str, value) -> complex:
    """A number that is not a bool, or an ``[re, im]`` pair of such numbers, as a complex."""
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ValueError(f"{name} must be a number or an [re, im] pair, got {value!r}")


def read_points(name: str, value, real: bool = False) -> np.ndarray:
    """A non-empty point list as an ``(m, n)`` array, complex or, with ``real``, float.

    A point is a list of ``n`` coordinates, the same ``n`` for every point,
    or a lone number for a point of one coordinate.  A coordinate is read by
    ``read_scalar``, or with ``real`` as a number only.
    """
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list of points, got {value!r}")
    where = f"{name} coordinate"
    read = partial(_float, where, low=None) if real else partial(read_scalar, where)
    rows = [[read(c) for c in p] if isinstance(p, (list, tuple)) else [read(p)]
            for p in value]
    if not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{name} points must all have the same, nonzero number "
                         f"of coordinates, got {value!r}")
    return np.array(rows, dtype=np.float64 if real else np.complex128)


def read_config(entry: str, obj) -> dict:
    """``obj`` checked against ``SCHEMA[entry]``: every key's typed value, defaults filled.

    Unknown keys, a missing required key, two keys that exclude each other
    and a value that does not fit its key raise ``ValueError`` naming them.
    """
    keys = SCHEMA[entry]
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    out = {}
    for name, key in keys.items():
        if name not in obj:
            if key.default is REQUIRED:
                raise ValueError(f"missing config key {name!r}")
            value = copy.deepcopy(key.default)
        else:
            value = obj[name]
            if key.excludes in obj:
                raise ValueError(f"config keys {name!r} and {key.excludes!r} "
                                 f"exclude each other")
        if value is None and (key.default is None or key.nullable):
            out[name] = None
        else:
            out[name] = read_value(name, key, value)
    return out


def read_spec(family: str, obj) -> dict:
    """A nested spec read against the entry ``family.kind`` its kind names.

    A kind with no entry of its own falls back to the entry ``family`` if
    there is one (compact models, whose kinds ``CompactModel`` checks).
    """
    kind = obj.get("kind") if isinstance(obj, dict) else None
    entry = f"{family}.{kind}"
    if entry not in SCHEMA:
        if family not in SCHEMA:
            raise ValueError(f"unknown {family} kind {kind!r}")
        entry = family
    return read_config(entry, obj)


def check_exactness(exactness) -> int:
    """``exactness`` as an int, or ValueError if it is not a nonnegative integer.

    A bool, a float (even an integral one) or a negative value raises rather
    than being rounded or clamped into some other rule.
    """
    return read_value("exactness", _EXACTNESS, exactness)


_EXACTNESS = Key("int", None, low=0)
_DEGREE = Key("int", None, low=0)
_KIND = Key("str")
_PRODUCT = {"kind": _KIND, "factors": Key("json", many=True)}
_THRESHOLD = Key("float", 1e12, nullable=True)
_PROJECTOR = {"kind": _KIND, "degree": _DEGREE, "cond_threshold": _THRESHOLD}
_NODES = {**_PROJECTOR, "nodes": Key("json"), "planar": Key("bool", False)}
_ONE_D_MEASURE = {"kind": _KIND, "mnodes": Key("int")}
_NVARS = Key("int", 1, low=1)
_LP_NORM = {"kind": _KIND, "nvars": _NVARS}

SCHEMA = {
    # subcommands
    "points": {"family": Key("str", "leja_disk"), "count": Key("int", 16, low=1),
               "name": Key("str", None)},
    "ortho": {"measure": Key("json"), "degree": Key("int", low=0),
              "name": Key("str", "ortho")},
    "project": {"projector": Key("json"), "function": Key("json"), "degree": _DEGREE,
                "exactness": _EXACTNESS, "name": Key("str", "project")},
    # also the fields of ExperimentConfig
    "converge": {"projector": Key("json"), "function": Key("json"), "compact": Key("json"),
                 "degrees": Key("int", low=0, many=True), "name": Key("str", "experiment"),
                 "grid": Key("int", 128, low=64), "exactness": _EXACTNESS,
                 "expected_rho": Key("float", None)},
    "cylinder": {"name": Key("str", "cylinder"),
                 "degrees": Key("int", list(range(2, 11)), low=0, many=True),
                 "grid": Key("int", 64, low=64),
                 "function": Key("json", ["exp", ["affine", [1.0, 1.0, 1.0], 0.0]]),
                 "exactness": _EXACTNESS},
    "polya": {"lambdas": Key("float", None, many=True),
              "lambda": Key("float", 0.5, excludes="lambdas"),
              "dmax": Key("int", 40), "bisect": Key("bool", False),
              "name": Key("str", "polya")},
    "gelfond": {"omegas": Key("float", None, many=True),
                "omega": Key("float", 1.0, excludes="omegas"),
                "name": Key("str", "gelfond")},
    "rho": {"compact": Key("json"), "function": Key("json"), "measure": Key("json"),
            "dmax": Key("int", 24, low=0), "grid": Key("int", 256, low=1),
            "expected_rho": Key("float", None), "name": Key("str", "rho")},
    "density": {"sequence": Key("json"), "norm": Key("json", None),
                "omega": Key("float", 1.0), "rmax": Key("float", None),
                "expected": Key("float", None), "name": Key("str", "density")},
    # nested specs
    "sequence": {"kind": Key("str", "integers"), "count": Key("int", 256, low=1),
                 "step": Key("float", 1.0)},
    # a "poly" function leaf, as Polynomial.to_json writes it
    "poly": {"nvars": Key("int", low=1), "degree": Key("int", low=0),
             "coeffs": Key("json", many=True)},
    "projector.taylor": {**_PROJECTOR, "nvars": _NVARS,
                         "center": Key("float", None, many=True)},
    "projector.lagrange": _NODES,
    "projector.kergin": _NODES,
    "projector.orthogonal": {**_PROJECTOR, "measure": Key("json")},
    "projector.newton_product": {**_PRODUCT, "cond_threshold": _THRESHOLD},
    "measure.circle": _ONE_D_MEASURE,
    "measure.chebyshev": _ONE_D_MEASURE,
    "measure.product": _PRODUCT,
    "measure.custom": {"kind": _KIND, "nodes": Key("json"), "weights": Key("float", many=True),
                       "exactness": Key("int", low=0), "domain": Key("str", "custom")},
    "compact": {"kind": _KIND},
    "compact.product": _PRODUCT,
    "norm.l1": _LP_NORM,
    "norm.l2": _LP_NORM,
    "norm.linf": _LP_NORM,
    "norm.combined": {**_PRODUCT, "weights": Key("float", [1.0, 1.0], many=True),
                      "omega": Key("float", None)},
}

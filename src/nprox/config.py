"""Key checking for the JSON configs and specs that nprox parses."""
from __future__ import annotations


def check_config_keys(obj, required, optional):
    """Raise ValueError naming unknown keys or the first missing required key."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing config key {key!r}")

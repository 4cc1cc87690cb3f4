"""Run configuration: flat ``key = value`` text, strict and fully checked.

Unknown keys, duplicate keys and unparsable values are hard errors naming
the offending key.  Out-of-domain values are caught by GridSpec and
SolverConfig, which check themselves when built, and re-raised here as
ConfigError; so a config that parses is ready to run.  ``#`` starts a
comment, full-line or trailing.

Required: nu, R, Lz, nr, nz, cfl, t_end, scenario.
Optional: output_every, forcing, amplitude, mode_k, width, r_center,
z_center, passed on only when given: SolverConfig and Scenario own every
default, and the ring and swirl geometry defaults scale with the cylinder.
"""

from __future__ import annotations

from .dynamics import SolverConfig
from .grid import GridSpec
from .scenarios import Scenario


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


_SWITCH = {"on": True, "true": True, "off": False, "false": False}

# key: (parser, what its error message expects); the first eight are
# required, and the last five are fields of Scenario
_KEYS = {
    "nu": (float, "a number"),
    "R": (float, "a number"),
    "Lz": (float, "a number"),
    "nr": (int, "an integer"),
    "nz": (int, "an integer"),
    "cfl": (float, "a number"),
    "t_end": (float, "a number"),
    "scenario": (str, "a scenario name"),
    "output_every": (int, "an integer"),
    "forcing": (lambda raw: _SWITCH[raw.lower()], "on or off"),
    "amplitude": (float, "a number"),
    "width": (float, "a number"),
    "r_center": (float, "a number"),
    "z_center": (float, "a number"),
    "mode_k": (int, "an integer"),
}
_REQUIRED, _SHAPE = tuple(_KEYS)[:8], tuple(_KEYS)[-5:]


def parse_config(text: str) -> SolverConfig:
    seen: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"key {key}: empty value")
        parser, expected = _KEYS[key]
        try:
            seen[key] = parser(raw)
        except (ValueError, KeyError):
            raise ConfigError(f"key {key}: expected {expected}, got {raw!r}") from None

    missing = [k for k in _REQUIRED if k not in seen]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))

    if "forcing" in seen:
        seen["forcing_enabled"] = seen.pop("forcing")
    shape = {key: seen.pop(key) for key in _SHAPE if key in seen}
    try:
        grid = GridSpec(seen.pop("R"), seen.pop("Lz"), seen.pop("nr"), seen.pop("nz"))
        return SolverConfig(grid=grid, scenario=Scenario(seen.pop("scenario"), **shape), **seen)
    except ValueError as err:
        raise ConfigError(str(err)) from None

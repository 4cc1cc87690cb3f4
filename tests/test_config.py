"""Config-file parsing: happy path, defaults, and error reporting."""

import math

import pytest

from axns.config import ConfigError, parse_config
from axns.scenarios import Scenario

GOOD = """
# steady ring spin-down
nu      = 0.05
R       = 1.0
Lz      = 1.0
nr      = 64
nz      = 64
cfl     = 0.5
t_end   = 1.0
scenario = gaussian_ring
"""


def test_minimal_config():
    cfg = parse_config(GOOD)
    assert cfg.nu == 0.05
    assert cfg.grid.R == 1.0 and cfg.grid.nr == 64
    assert cfg.cfl == 0.5 and cfg.t_end == 1.0
    assert cfg.scenario.name == "gaussian_ring"
    assert cfg.output_every == 10
    assert cfg.forcing_enabled is False


def test_scenario_geometry_defaults():
    cfg = parse_config(GOOD.replace("R       = 1.0", "R       = 2.0"))
    sc = cfg.scenario
    # the parser passes on no default: Scenario owns them, relative to R and Lz
    assert sc == Scenario(name="gaussian_ring")
    width, r_center, z_center = sc.geometry(cfg.grid)
    assert math.isclose(width, 0.5)      # R / 4
    assert math.isclose(r_center, 1.0)   # R / 2
    assert math.isclose(z_center, 0.5)   # Lz / 2
    assert sc.mode_k == 1


# forcing = on is only valid with the manufactured scenario
MANUFACTURED = GOOD.replace("scenario = gaussian_ring", "scenario = manufactured")


def test_optional_overrides():
    text = MANUFACTURED + "width = 0.3\nr_center = 0.4\namplitude = 2.5\nmode_k = 2\n"
    text += "output_every = 3\nforcing = on\n"
    cfg = parse_config(text)
    assert cfg.scenario.width == 0.3
    assert cfg.scenario.amplitude == 2.5
    assert cfg.scenario.mode_k == 2
    assert cfg.output_every == 3
    assert cfg.forcing_enabled is True


def test_trailing_comments_and_blank_lines():
    text = GOOD.replace("nu      = 0.05", "nu = 0.05  # viscosity\n\n")
    assert parse_config(text).nu == 0.05


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError) as err:
        parse_config("nu = 0.1\nR = 1.0\n")
    msg = str(err.value)
    for key in ("Lz", "nr", "nz", "cfl", "t_end", "scenario"):
        assert key in msg


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD + "wombat = 3\n")
    assert "wombat" in str(err.value)


def test_s_is_not_a_key():
    # a run samples ualpha_s at s = 4; axns criteria --s recomputes it at
    # another s from the snapshots, so s is not a run input
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD + "s = 4\n")
    assert "unknown key 's'" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD + "nu = 0.2\n")
    assert "nu" in str(err.value)


def test_bad_number_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD.replace("0.05", "zebra"))
    assert "nu" in str(err.value)


def test_bad_line_shape_rejected():
    with pytest.raises(ConfigError):
        parse_config(GOOD + "just some words\n")


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("nu      = 0.05", "nu = -1.0", "nu"),
        ("nr      = 64", "nr = 3", "nr"),
        ("nz      = 64", "nz = 63", "nz"),
        ("cfl     = 0.5", "cfl = 0.0", "cfl"),
        ("t_end   = 1.0", "t_end = -2.0", "t_end"),
        ("scenario = gaussian_ring", "scenario = vortex_soup", "scenario"),
    ],
)
def test_semantic_validation_names_key(old, new, key):
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD.replace(old, new))
    assert key in str(err.value)


def test_t_end_zero_accepted():
    assert parse_config(GOOD.replace("t_end   = 1.0", "t_end = 0.0")).t_end == 0.0


def test_forcing_spellings():
    for word, want in (("on", True), ("true", True), ("off", False), ("false", False)):
        cfg = parse_config(MANUFACTURED + f"forcing = {word}\n")
        assert cfg.forcing_enabled is want
    with pytest.raises(ConfigError):
        parse_config(MANUFACTURED + "forcing = maybe\n")


def test_forcing_needs_manufactured_scenario():
    assert parse_config(GOOD + "forcing = off\n").forcing_enabled is False
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD + "forcing = on\n")
    assert "forcing" in str(err.value) and "manufactured" in str(err.value)

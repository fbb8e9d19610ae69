"""Property tests of config parsing: every real value survives its text."""

import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowshell import config
from shallowshell.config import DEFAULT_CONFIG, ConfigError, default_config, parse_config_text
from shallowshell.energy import _LOADS, ForceDensity
from shallowshell.grid import Grid
from shallowshell.solver import SolverConfig

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = FINITE.filter(lambda v: v >= 0.0)  # keeps -0.0
OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
OPEN_HALF = st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True)
COEFFS = st.lists(FINITE, min_size=1, max_size=6).map(tuple)
# the window config puts the [domain] sides and [material] coefficients in
SCALE = st.floats(min_value=config._SCALES[0], max_value=config._SCALES[1])
LAMBDA = st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=config._SCALES[1]))
# distinct as printed: config refuses two t whose solution files share a name
T_LISTS = st.tuples(
    st.lists(POSITIVE, max_size=4, unique_by=lambda t: f"{t:g}").map(
        lambda ts: sorted(ts, reverse=True)),
    st.sampled_from((0.0, -0.0)),
).map(lambda parts: tuple(parts[0]) + (parts[1],))


def _bits(value):
    """The float64 bit patterns of a value or of a tuple of them."""
    values = value if isinstance(value, tuple) else (value,)
    return tuple(struct.pack("<d", v) for v in values)


def _text(values: dict, kinds: dict) -> str:
    """Config text: a str value as written, a float (or each of a tuple's)
    by repr; kinds adds the kind = lines."""
    lines = []
    for section in ("domain", "material", "immersion", "force", "solver", "study"):
        lines.append(f"[{section}]")
        if section in kinds:
            lines.append(f"kind = {kinds[section]}")
        for (sec, key), value in values.items():
            if sec == section:
                if not isinstance(value, str):
                    value = ",".join(map(repr, value if isinstance(value, tuple) else (value,)))
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _parsed(cfg, section: str, key: str):
    if section == "immersion":
        return cfg.immersion_params[key]
    if section == "force":
        return cfg.force_params[key]
    return {
        ("domain", "l1"): cfg.L1,
        ("domain", "l2"): cfg.L2,
        ("material", "lambda"): cfg.material.lam,
        ("material", "mu"): cfg.material.mu,
        ("material", "eps"): cfg.material.eps,
        ("solver", "grad_tol"): cfg.solver.grad_tol,
        ("solver", "ls_shrink"): cfg.solver.ls_shrink,
        ("solver", "ls_c1"): cfg.solver.ls_c1,
        ("study", "t_list"): tuple(cfg.t_list),
    }[(section, key)]


COMMON = {
    ("domain", "l1"): SCALE,
    ("domain", "l2"): SCALE,
    ("material", "lambda"): LAMBDA,
    ("material", "mu"): SCALE,
    ("material", "eps"): SCALE,
    ("solver", "grad_tol"): POSITIVE,
    ("solver", "ls_shrink"): OPEN_UNIT,
    ("solver", "ls_c1"): OPEN_HALF,
    ("study", "t_list"): T_LISTS,
}

# Per immersion and force kind, the real-valued keys that kind accepts.
KINDED = {
    "paraboloid/constant": ({"immersion": "paraboloid", "force": "constant"}, {
        ("immersion", "t"): FINITE, ("immersion", "kappa1"): FINITE,
        ("immersion", "kappa2"): FINITE, ("force", "p1"): FINITE,
        ("force", "p2"): FINITE, ("force", "p3"): FINITE}),
    "bump/polynomial": ({"immersion": "sinusoidal_bump", "force": "polynomial"}, {
        ("immersion", "t"): FINITE, ("immersion", "m1"): FINITE,
        ("immersion", "m2"): FINITE, ("force", "p1_coeffs"): COEFFS,
        ("force", "p2_coeffs"): COEFFS, ("force", "p3_coeffs"): COEFFS}),
    "cylinder/gaussian": ({"immersion": "cylinder_patch", "force": "gaussian_bump"}, {
        ("immersion", "t"): NONNEGATIVE, ("force", "sigma"): POSITIVE,
        **{("force", k): FINITE for k in ("amp1", "amp2", "amp3", "center1", "center2")}}),
}


@pytest.mark.parametrize("kinds, keys", KINDED.values(), ids=KINDED.keys())
@given(data=st.data())
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
def test_every_real_key_parses_back_bit_for_bit(kinds, keys, data):
    values = data.draw(st.fixed_dictionaries({**COMMON, **keys}))
    cfg = parse_config_text(_text(values, kinds))
    for (section, key), value in values.items():
        assert _bits(_parsed(cfg, section, key)) == _bits(value), (section, key)


NON_FINITE_KEYS = {
    ("domain", "l1"): "{}", ("domain", "l2"): "{}",
    ("material", "lambda"): "{}", ("material", "mu"): "{}", ("material", "eps"): "{}",
    ("immersion", "t"): "{}", ("immersion", "kappa2"): "{}",
    ("force", "p1"): "{}", ("force", "p3_coeffs"): "1.0,{}", ("force", "sigma"): "{}",
    ("solver", "grad_tol"): "{}", ("solver", "ls_shrink"): "{}", ("solver", "ls_c1"): "{}",
    ("study", "t_list"): "0.2,{},0",
}
FORCE_KIND = {"p1": "constant", "p3_coeffs": "polynomial", "sigma": "gaussian_bump"}
VALID = {("material", "lambda"): "1.0", ("material", "mu"): "1.0", ("material", "eps"): "0.1"}


@pytest.mark.parametrize("raw", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("where", NON_FINITE_KEYS, ids=lambda w: f"{w[0]}.{w[1]}")
def test_non_finite_value_named_by_section_and_key(where, raw):
    section, key = where
    kinds = {"force": FORCE_KIND[key]} if section == "force" else {}
    text = _text({**VALID, where: NON_FINITE_KEYS[where].format(raw)}, kinds)
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert str(exc.value).startswith(f"[{section}] {key}: not finite")


LOAD_KEYS = [(kind, key) for kind, keys in _LOADS.items() for key in keys]


def _load_value(key: str):
    """A value every catalog load key accepts, a tuple for *_coeffs."""
    return (0.25, -0.5) if key.endswith("_coeffs") else 0.25


@pytest.mark.parametrize("kind, key", LOAD_KEYS, ids=[f"{k}.{key}" for k, key in LOAD_KEYS])
def test_every_load_key_is_read_hashed_and_built(kind, key):
    """Each key of each catalog load kind parses, lands in force_params and
    canonical(), and gives make_force the bytes of from_catalog; a key of
    another kind is refused by name.  A kind added to the table is covered
    with no edit here or in config."""
    value = _load_value(key)
    cfg = parse_config_text(_text({**VALID, ("force", key): value}, {"force": kind}))
    assert cfg.force_params == {key: value}
    assert f"force.{key}={value!r}" in cfg.canonical().splitlines()
    grid = Grid(1.0, 1.0, 9, 9)
    made, built = cfg.make_force(grid), ForceDensity.from_catalog(grid, kind, {key: value})
    for p, q in zip(made.components(), built.components()):
        assert p.tobytes() == q.tobytes()
    other = next(k for keys in _LOADS.values() for k in keys if k not in _LOADS[kind])
    with pytest.raises(ConfigError) as exc:
        parse_config_text(_text({**VALID, ("force", other): _load_value(other)}, {"force": kind}))
    assert str(exc.value) == f"[force] {other}: unknown key for kind {kind!r}"


def test_default_config_hash_is_pinned():
    """Every output's meta line carries this hash, so a change to
    canonical() that moves it shows here."""
    assert default_config().config_hash() == "5a85410db4d45042"


def test_solver_keys_are_the_solver_config_fields(monkeypatch):
    """[solver] reads and hashes every SolverConfig field, as an integer or
    a real by its declared type: a new field is a key with no other edit."""

    @dataclass
    class Extended(SolverConfig):
        extra_int: int = 3
        extra_real: float = 0.25

    monkeypatch.setattr(config, "SolverConfig", Extended)
    cfg = parse_config_text(DEFAULT_CONFIG + "[solver]\nextra_int = 4\nextra_real = 0.5\n")
    assert type(cfg.solver.extra_int) is int and cfg.solver.extra_int == 4
    assert cfg.solver.extra_real == 0.5
    lines = cfg.canonical().splitlines()
    assert lines[-3:-1] == ["solver.extra_int=4", "solver.extra_real=0.5"]
    with pytest.raises(ConfigError) as exc:
        parse_config_text(DEFAULT_CONFIG + "[solver]\nextra_int = 0.5\n")
    assert str(exc.value) == "[solver] extra_int: not an integer: '0.5'"

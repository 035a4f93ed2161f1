"""Experiment configuration: a strict flat `section.key = value` text format.

Every key has a documented default (the wideband reference scenario:
256-element random linear array, 100 GHz center, 10 GHz band, 3-bit phase
shifters, user at [2, -2] m). Unknown keys are rejected; `auto` marks the
few values derived from the rest of the configuration at build time.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields

from .channel import SystemConfig, flat_amplitude_rho, near_field_channel
from .combiner import PhaseCodebook
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    UePosition,
    distances,
    random_geometry,
    uniform_geometry,
)


class ConfigError(ValueError):
    """Configuration file problem; the message names the offending key."""


def _key(key: str, default, choices: tuple = (), least=None):
    """A field read from the config text's `key`.

    Its value is limited to `choices` if given, and to at least `least`
    if given (`auto` always passes).
    """
    return field(default=default, metadata={"key": key, "choices": choices, "least": least})


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key, in the order of the canonical text form.

    A field's type selects its parser (`X | None` fields also take `auto`).
    """

    num_antennas: int = _key("system.M", 256, least=2)
    num_td_units: int = _key("system.N", 16, least=1)
    num_subcarriers: int = _key("system.K", 2048)
    center_freq_hz: float = _key("system.center_freq_hz", 100e9)
    bandwidth_hz: float = _key("system.bandwidth_hz", 10e9)
    ps_bits: int = _key("system.ps_bits", 3)
    tau_max_s: float | None = _key("system.tau_max_s", None)  # auto: aperture / c
    tx_power_w: float = _key("system.tx_power_w", 1.0)
    noise_power_w: float = _key("system.noise_power_w", 0.0)
    geometry_kind: str = _key("geometry.kind", "random", choices=("uniform", "random"))
    geometry_seed: int = _key("geometry.seed", 1)
    aperture_m: float | None = _key("geometry.aperture_m", None)  # auto: (M - 1) * lambda_c / 2
    ue_x_m: float = _key("ue.x_m", 2.0)
    ue_y_m: float = _key("ue.y_m", -2.0)
    rho_mode: str = _key("channel.rho", "unit", choices=("unit", "flat_amplitude"))
    total_measurements: int = _key("learner.total_measurements", 5000, least=1)
    perturb_count: int | None = _key("learner.perturb_count", None, least=0)  # auto: M // 4
    critic_refit_period: int = _key("learner.critic_refit_period", 1000, least=1)
    exploit_start: int = _key("learner.exploit_start", 2000, least=1)
    critic_rank: int = _key("learner.critic_rank", 4, least=1)
    train_iters: int = _key("learner.train_iters", 1500, least=1)
    learner_seed: int = _key("learner.seed", 0, least=0)
    ax_points: int = _key("grid.ax_points", 9, least=1)
    ay_points: int = _key("grid.ay_points", 17, least=1)
    b_points: int = _key("grid.b_points", 17, least=1)
    noise_mode: str = _key("noise.mode", "noiseless", choices=("noiseless", "snapshots"))
    snapshots: int = _key("noise.snapshots", 10000, least=1)
    n_sweep: tuple = _key("profile.n_sweep", (0, 8, 16))
    search_subcarriers: int = _key("profile.search_subcarriers", 128, least=1)
    heatmap_x_min_m: float = _key("heatmap.x_min_m", 0.5)
    heatmap_x_max_m: float = _key("heatmap.x_max_m", 4.0)
    heatmap_y_min_m: float = _key("heatmap.y_min_m", -4.0)
    heatmap_y_max_m: float = _key("heatmap.y_max_m", 4.0)
    heatmap_resolution_m: float = _key("heatmap.resolution_m", 0.05)
    output_dir: str = _key("output.dir", "out")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


_PARSERS = {"int": int, "float": _parse_float, "str": str, "tuple": _parse_int_list}


def _parse_value(f: Field, text: str):
    kind, _, optional = f.type.partition(" | ")
    if optional and text == "auto":
        return None
    return _PARSERS[kind](text)


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# dotted key -> ExperimentConfig field
KEY_TABLE = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def validate(ec: ExperimentConfig) -> ExperimentConfig:
    """Return ec if every command can run on it; else raise ConfigError."""
    for key, f in KEY_TABLE.items():
        allowed, least = f.metadata["choices"], f.metadata["least"]
        value = getattr(ec, f.name)
        if allowed and value not in allowed:
            raise ConfigError(f"{key}: '{value}' is not one of {allowed}")
        if least is not None and value is not None and value < least:
            raise ConfigError(f"{key}: must be at least {least}, not {value}")
    if ec.exploit_start > ec.total_measurements:
        raise ConfigError("learner.exploit_start: must lie within learner.total_measurements")
    if not ec.n_sweep:
        raise ConfigError("profile.n_sweep: needs at least one entry")
    if any(n < 0 for n in ec.n_sweep):
        raise ConfigError("profile.n_sweep: entries must be nonnegative")
    if len(set(ec.n_sweep)) < len(ec.n_sweep):
        raise ConfigError("profile.n_sweep: entries must be distinct")
    if not ec.heatmap_x_min_m > 0.0:
        raise ConfigError("heatmap.x_min_m: must be positive (in front of the array)")
    if ec.heatmap_x_max_m < ec.heatmap_x_min_m or ec.heatmap_y_max_m < ec.heatmap_y_min_m:
        raise ConfigError("heatmap.x_max_m/y_max_m: extent must be nonempty")
    if not ec.heatmap_resolution_m > 0.0:
        raise ConfigError("heatmap.resolution_m: must be positive")
    if not ec.center_freq_hz > 0.0:
        raise ConfigError("system.center_freq_hz: must be positive")
    # build the objects whose own checks would otherwise fail at run time,
    # among them M = N*P for system.N and for every sweep entry
    for key, build in (
        ("geometry.*", build_geometry),
        ("ue.*", lambda ec: distances(build_geometry(ec), build_ue(ec))),
        ("system.*", build_system),
        *(("profile.n_sweep", lambda ec, n=n: build_system(ec, n)) for n in ec.n_sweep),
        ("system.ps_bits", build_codebook),
    ):
        try:
            build(ec)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return ec


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        if key not in KEY_TABLE:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        f = KEY_TABLE[key]
        try:
            values[f.name] = _parse_value(f, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: bad value '{value}'") from exc
    return validate(ExperimentConfig(**values))


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def emit_config(ec: ExperimentConfig) -> str:
    """Canonical text form; parse_config_text(emit_config(ec)) == ec."""
    lines = [f"{key} = {_fmt(getattr(ec, f.name))}" for key, f in KEY_TABLE.items()]
    return "\n".join(lines) + "\n"


def stamp_lines(ec: ExperimentConfig, **extra) -> str:
    """`#`-prefixed reproducibility header embedding the resolved config."""
    out = [f"# {ln}" for ln in emit_config(ec).splitlines()]
    for key, value in extra.items():
        out.append(f"# {key} = {value}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# builders resolving `auto` values into concrete simulation objects


def resolved_aperture(ec: ExperimentConfig) -> float:
    if ec.aperture_m is not None:
        return ec.aperture_m
    lam_c = SPEED_OF_LIGHT / ec.center_freq_hz
    return (ec.num_antennas - 1) * lam_c / 2.0


def resolved_tau_max(ec: ExperimentConfig) -> float:
    # the distance difference across the array never exceeds the aperture,
    # so aperture/c delays always suffice
    if ec.tau_max_s is not None:
        return ec.tau_max_s
    return resolved_aperture(ec) / SPEED_OF_LIGHT


def build_geometry(ec: ExperimentConfig) -> ArrayGeometry:
    aperture = resolved_aperture(ec)
    if ec.geometry_kind == "uniform":
        return uniform_geometry(ec.num_antennas, aperture)
    return random_geometry(ec.num_antennas, aperture, seed=ec.geometry_seed)


def build_ue(ec: ExperimentConfig) -> UePosition:
    return UePosition(x=ec.ue_x_m, y=ec.ue_y_m)


def build_codebook(ec: ExperimentConfig) -> PhaseCodebook:
    return PhaseCodebook(bits=ec.ps_bits)


def build_system(ec: ExperimentConfig, num_td_units: int | None = None) -> SystemConfig:
    """SystemConfig for the given TD-unit count (defaults to system.N).

    A sweep entry of 0 (phase shifters only) is modeled as a single TD unit
    that is never given a nonzero delay.
    """
    n = ec.num_td_units if num_td_units is None else num_td_units
    if n == 0:
        n = 1
    return SystemConfig(
        num_antennas=ec.num_antennas,
        num_td_units=n,
        ps_per_td=ec.num_antennas // n,
        num_subcarriers=ec.num_subcarriers,
        center_freq_hz=ec.center_freq_hz,
        bandwidth_hz=ec.bandwidth_hz,
        tau_max_s=resolved_tau_max(ec),
        tx_power_w=ec.tx_power_w,
        noise_power_w=ec.noise_power_w if ec.noise_mode == "snapshots" else 0.0,
    )


def build_channel(ec: ExperimentConfig, geom: ArrayGeometry, cfg: SystemConfig):
    rho = flat_amplitude_rho(cfg) if ec.rho_mode == "flat_amplitude" else None
    return near_field_channel(geom, build_ue(ec), cfg, rho=rho)

"""Experiment configuration: a strict flat `section.key = value` text format.

Every key has a documented default (the wideband reference scenario:
256-element random linear array, 100 GHz center, 10 GHz band, 3-bit phase
shifters, user at [2, -2] m). Unknown keys are rejected; `auto` marks the
few values derived from the rest of the configuration at build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .channel import SystemConfig, flat_amplitude_rho, near_field_channel
from .combiner import PhaseCodebook
from .delay_search import DelayGrid
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    UePosition,
    distances,
    random_geometry,
    uniform_geometry,
)
from .phase_learning import LearnerOptions


class ConfigError(ValueError):
    """Configuration file problem; the message names the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    num_antennas: int = 256
    num_td_units: int = 16
    num_subcarriers: int = 2048
    center_freq_hz: float = 100e9
    bandwidth_hz: float = 10e9
    ps_bits: int = 3
    tau_max_s: float | None = None  # auto: aperture / c
    tx_power_w: float = 1.0
    noise_power_w: float = 0.0
    geometry_kind: str = "random"
    geometry_seed: int = 1
    aperture_m: float | None = None  # auto: (M - 1) * lambda_c / 2
    ue_x_m: float = 2.0
    ue_y_m: float = -2.0
    rho_mode: str = "unit"
    total_measurements: int = 5000
    perturb_count: int | None = None  # auto: M // 4
    critic_refit_period: int = 1000
    exploit_start: int = 2000
    critic_rank: int = 4
    train_iters: int = 1500
    train_lr: float = 0.5
    train_batch: int = 1024
    learner_seed: int = 0
    ax_points: int = 9
    ay_points: int = 17
    b_points: int = 17
    noise_mode: str = "noiseless"
    snapshots: int = 10000
    n_sweep: tuple = (0, 8, 16)
    search_subcarriers: int = 128
    heatmap_x_min_m: float = 0.5
    heatmap_x_max_m: float = 4.0
    heatmap_y_min_m: float = -4.0
    heatmap_y_max_m: float = 4.0
    heatmap_resolution_m: float = 0.05
    output_dir: str = "out"


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_auto_float(text: str):
    return None if text == "auto" else _parse_float(text)


def _parse_auto_int(text: str):
    return None if text == "auto" else int(text)


def _parse_str(text: str) -> str:
    return text


def _parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# dotted key -> (dataclass field, parser)
KEY_TABLE = {
    "system.M": ("num_antennas", _parse_int),
    "system.N": ("num_td_units", _parse_int),
    "system.K": ("num_subcarriers", _parse_int),
    "system.center_freq_hz": ("center_freq_hz", _parse_float),
    "system.bandwidth_hz": ("bandwidth_hz", _parse_float),
    "system.ps_bits": ("ps_bits", _parse_int),
    "system.tau_max_s": ("tau_max_s", _parse_auto_float),
    "system.tx_power_w": ("tx_power_w", _parse_float),
    "system.noise_power_w": ("noise_power_w", _parse_float),
    "geometry.kind": ("geometry_kind", _parse_str),
    "geometry.seed": ("geometry_seed", _parse_int),
    "geometry.aperture_m": ("aperture_m", _parse_auto_float),
    "ue.x_m": ("ue_x_m", _parse_float),
    "ue.y_m": ("ue_y_m", _parse_float),
    "channel.rho": ("rho_mode", _parse_str),
    "learner.total_measurements": ("total_measurements", _parse_int),
    "learner.perturb_count": ("perturb_count", _parse_auto_int),
    "learner.critic_refit_period": ("critic_refit_period", _parse_int),
    "learner.exploit_start": ("exploit_start", _parse_int),
    "learner.critic_rank": ("critic_rank", _parse_int),
    "learner.train_iters": ("train_iters", _parse_int),
    "learner.train_lr": ("train_lr", _parse_float),
    "learner.train_batch": ("train_batch", _parse_int),
    "learner.seed": ("learner_seed", _parse_int),
    "grid.ax_points": ("ax_points", _parse_int),
    "grid.ay_points": ("ay_points", _parse_int),
    "grid.b_points": ("b_points", _parse_int),
    "noise.mode": ("noise_mode", _parse_str),
    "noise.snapshots": ("snapshots", _parse_int),
    "profile.n_sweep": ("n_sweep", _parse_int_list),
    "profile.search_subcarriers": ("search_subcarriers", _parse_int),
    "heatmap.x_min_m": ("heatmap_x_min_m", _parse_float),
    "heatmap.x_max_m": ("heatmap_x_max_m", _parse_float),
    "heatmap.y_min_m": ("heatmap_y_min_m", _parse_float),
    "heatmap.y_max_m": ("heatmap_y_max_m", _parse_float),
    "heatmap.resolution_m": ("heatmap_resolution_m", _parse_float),
    "output.dir": ("output_dir", _parse_str),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in KEY_TABLE.items()}

_CHOICES = {
    "geometry.kind": ("uniform", "random"),
    "channel.rho": ("unit", "flat_amplitude"),
    "noise.mode": ("noiseless", "snapshots"),
}


def validate(ec: ExperimentConfig) -> ExperimentConfig:
    """Return ec if every command can run on it; else raise ConfigError."""
    for key, allowed in _CHOICES.items():
        field_name, _ = KEY_TABLE[key]
        value = getattr(ec, field_name)
        if value not in allowed:
            raise ConfigError(f"{key}: '{value}' is not one of {allowed}")
    if ec.num_td_units < 1:
        raise ConfigError("system.N: need at least one TD unit")
    if ec.num_antennas % ec.num_td_units != 0:
        raise ConfigError(
            f"system.N: M = N*P violated (M={ec.num_antennas} is not a "
            f"multiple of N={ec.num_td_units})"
        )
    if any(n < 0 for n in ec.n_sweep):
        raise ConfigError("profile.n_sweep: entries must be nonnegative")
    for n in ec.n_sweep:
        if n > 0 and ec.num_antennas % n != 0:
            raise ConfigError(
                f"profile.n_sweep: M = N*P violated for sweep entry N={n}"
            )
    if not ec.heatmap_x_min_m > 0.0:
        raise ConfigError("heatmap.x_min_m: must be positive (in front of the array)")
    if ec.heatmap_x_max_m < ec.heatmap_x_min_m or ec.heatmap_y_max_m < ec.heatmap_y_min_m:
        raise ConfigError("heatmap.x_max_m/y_max_m: extent must be nonempty")
    if not ec.heatmap_resolution_m > 0.0:
        raise ConfigError("heatmap.resolution_m: must be positive")
    if ec.snapshots < 1:
        raise ConfigError("noise.snapshots: need at least one snapshot")
    if not ec.center_freq_hz > 0.0:
        raise ConfigError("system.center_freq_hz: must be positive")
    if ec.num_antennas < 2:
        raise ConfigError("system.M: need at least two array elements")
    # build the objects whose own checks would otherwise fail at run time
    for key, build in (
        ("geometry.*", build_geometry),
        ("ue.*", lambda ec: distances(build_geometry(ec), build_ue(ec))),
        ("system.*", build_system),
        ("system.ps_bits", build_codebook),
        ("grid.*", build_grid),
    ):
        try:
            build(ec)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    build_learner_options(ec)
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
        field_name, parser = KEY_TABLE[key]
        try:
            values[field_name] = parser(value)
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
    lines = []
    for f in fields(ExperimentConfig):
        key = _FIELD_TO_KEY[f.name]
        lines.append(f"{key} = {_fmt(getattr(ec, f.name))}")
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
    if ec.num_antennas % n != 0:
        raise ConfigError(f"system.N: M = N*P violated (M={ec.num_antennas}, N={n})")
    return SystemConfig(
        num_antennas=ec.num_antennas,
        num_td_units=n,
        ps_per_td=ec.num_antennas // n,
        num_subcarriers=ec.num_subcarriers,
        center_freq_hz=ec.center_freq_hz,
        bandwidth_hz=ec.bandwidth_hz,
        ps_bits=ec.ps_bits,
        tau_max_s=resolved_tau_max(ec),
        tx_power_w=ec.tx_power_w,
        noise_power_w=ec.noise_power_w if ec.noise_mode == "snapshots" else 0.0,
    )


def build_channel(ec: ExperimentConfig, geom: ArrayGeometry, cfg: SystemConfig):
    rho = flat_amplitude_rho(cfg) if ec.rho_mode == "flat_amplitude" else None
    return near_field_channel(geom, build_ue(ec), cfg, rho=rho)


def build_learner_options(ec: ExperimentConfig) -> LearnerOptions:
    try:
        return LearnerOptions(
            total_measurements=ec.total_measurements,
            perturb_count=ec.perturb_count,
            critic_refit_period=ec.critic_refit_period,
            exploit_start=ec.exploit_start,
            seed=ec.learner_seed,
            critic_rank=ec.critic_rank,
            train_iters=ec.train_iters,
            train_lr=ec.train_lr,
            train_batch=ec.train_batch,
        )
    except ValueError as exc:
        raise ConfigError(f"learner.*: {exc}") from exc


def build_grid(ec: ExperimentConfig) -> DelayGrid:
    return DelayGrid(
        ax_points=ec.ax_points, ay_points=ec.ay_points, b_points=ec.b_points
    )

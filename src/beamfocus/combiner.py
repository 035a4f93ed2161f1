"""Quantized phase codebook and the hybrid TD-PS effective combiner.

The combiner at frequency f is (1/sqrt(M)) * exp(j(theta - 2 pi f tau_rep))
where theta holds the M phase-shifter settings and tau_rep repeats each of
the N delays over its P-element sub-array. Changing delays perturbs the
center-frequency beam, so phases are re-quantized ("recompensated") to keep
the center-frequency gain intact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig

TWO_PI = 2.0 * np.pi


def wrap_angle(x):
    """Wrap angles to the interval (-pi, pi]."""
    return np.asarray(x) - TWO_PI * np.ceil((np.asarray(x) - np.pi) / TWO_PI)


@dataclass(frozen=True)
class PhaseCodebook:
    """The 2^bits admissible phase-shifter values, uniform over (-pi, pi].

    Anchored so that both 0 and pi are members (identity configurations are
    representable).
    """

    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("need at least one bit")

    @property
    def size(self) -> int:
        return 2**self.bits

    @property
    def values(self) -> np.ndarray:
        """Codebook members -pi + i * 2pi/2^bits for i = 1..2^bits, ascending."""
        n = self.size
        return -np.pi + TWO_PI * np.arange(1, n + 1) / n


def quantize_phase(phi, cb: PhaseCodebook):
    """Nearest codebook member in wrapped angular distance.

    Ties are broken toward the larger codebook value. Accepts scalars or
    arrays; 2pi-periodic and idempotent.
    """
    phi_arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi_arr)):
        raise ValueError("phase must be finite")
    values = cb.values
    dist = np.abs(wrap_angle(phi_arr[..., None] - values))
    min_d = dist.min(axis=-1, keepdims=True)
    # last index among exact ties = largest tied codebook value
    tied = dist == min_d
    idx = values.size - 1 - np.argmax(tied[..., ::-1], axis=-1)
    out = values[idx]
    return float(out) if np.isscalar(phi) else out


def phase_indices(theta, cb: PhaseCodebook) -> np.ndarray:
    """Map codebook phases to their integer indices 0..2^bits-1.

    Errors if any phase is not a codebook member (1e-9 tolerance).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    dist = np.abs(wrap_angle(theta[:, None] - cb.values))
    idx = np.argmin(dist, axis=1)
    if np.any(dist[np.arange(theta.size), idx] > 1e-9):
        raise ValueError("phase is not a codebook member")
    return idx


# digits for base-2^bits phase strings
_DIGITS = "0123456789abcdefghijklmnopqrstuv"
DIGIT_STRING_MAX_BITS = 5


def indices_to_digits(idx: np.ndarray, cb: PhaseCodebook) -> str:
    if cb.bits > DIGIT_STRING_MAX_BITS:
        raise ValueError(f"digit-string export supports at most {DIGIT_STRING_MAX_BITS} bits")
    return "".join(_DIGITS[i] for i in idx)


@dataclass(frozen=True)
class CombinerConfig:
    """One analog configuration: M phase settings and N delays.

    Phases are wrapped to (-pi, pi] at construction; delays are seconds and
    must be nonnegative (the per-config upper bound tau_max is checked where
    a SystemConfig is in scope).
    """

    theta: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if not np.all(np.isfinite(theta)) or not np.all(np.isfinite(tau)):
            raise ValueError("configuration must be finite")
        if np.any(tau < 0.0):
            raise ValueError("delays must be nonnegative")
        theta = wrap_angle(theta)
        theta.setflags(write=False)
        tau.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "tau", tau)


def repeat_delays(tau: np.ndarray, ps_per_td: int) -> np.ndarray:
    """Expand the N TD delays to the M phase-shifter branches."""
    return np.repeat(np.asarray(tau, dtype=float), ps_per_td)


def effective_combiner(cc: CombinerConfig, cfg: SystemConfig, f: float) -> np.ndarray:
    """The length-M combining vector at frequency f (Hz).

    Element m is (1/sqrt(M)) * exp(j(theta_m - 2 pi f tau_n)) with n the
    sub-array of m; every element has magnitude 1/sqrt(M).
    """
    if cc.theta.size != cfg.num_antennas or cc.tau.size != cfg.num_td_units:
        raise ValueError("configuration does not match the system dimensions")
    if not f > 0.0:
        raise ValueError("frequency must be positive")
    tau_full = repeat_delays(cc.tau, cfg.ps_per_td)
    return np.exp(1j * (cc.theta - TWO_PI * f * tau_full)) / np.sqrt(cfg.num_antennas)


def recompensate_phases(theta_star, tau, cfg: SystemConfig, cb) -> np.ndarray:
    """Re-quantize phases so delays leave the center-frequency beam intact.

    Each branch m in sub-array n gets the codebook value nearest
    theta_star[m] + 2 pi f_c tau[n]. At f = f_c the resulting combiner then
    equals the delay-free one up to per-element quantization error. Passing
    cb=None skips quantization (continuous-phase mode) and only wraps.
    """
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    shifted = theta_star + TWO_PI * cfg.center_freq_hz * repeat_delays(
        tau, cfg.ps_per_td
    )
    if cb is None:
        return wrap_angle(shifted)
    return quantize_phase(shifted, cb)


def combiner_to_text(cc: CombinerConfig, cb: PhaseCodebook) -> str:
    """Serialize a configuration: phases as codebook indices, delays in ps.

    Indices make the phase round-trip bit-exact; delays carry 6 decimal
    digits of a picosecond.
    """
    idx = phase_indices(cc.theta, cb)
    lines = [
        f"ps_bits {cb.bits}",
        "theta_idx " + " ".join(str(i) for i in idx),
        "tau_ps " + " ".join(f"{t * 1e12:.6f}" for t in cc.tau),
    ]
    return "\n".join(lines) + "\n"


def combiner_from_text(text: str):
    """Parse `combiner_to_text` output; returns (CombinerConfig, PhaseCodebook)."""
    fields = {}
    for ln in text.splitlines():
        if not ln.strip() or ln.startswith("#"):
            continue
        key, _, rest = ln.partition(" ")
        fields[key] = rest.split()
    try:
        cb = PhaseCodebook(bits=int(fields["ps_bits"][0]))
        idx = np.array([int(tok) for tok in fields["theta_idx"]])
        tau = np.array([float(tok) * 1e-12 for tok in fields["tau_ps"]])
    except KeyError as exc:
        raise ValueError(f"missing combiner field {exc}") from exc
    if np.any(idx < 0) or np.any(idx >= cb.size):
        raise ValueError("phase index out of codebook range")
    return CombinerConfig(theta=cb.values[idx], tau=tau), cb


def save_combiner(
    cc: CombinerConfig, cb: PhaseCodebook, path, header_comment: str = ""
) -> None:
    with open(path, "w") as fh:
        if header_comment:
            fh.write(header_comment)
        fh.write(combiner_to_text(cc, cb))


def load_combiner(path):
    with open(path) as fh:
        return combiner_from_text(fh.read())

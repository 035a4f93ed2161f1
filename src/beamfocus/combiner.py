"""Quantized phase codebook and the hybrid TD-PS effective combiner.

The codebook and its quantizer, combiner configurations and their file
format, and phase recompensation. The combiner at frequency f is
(1/sqrt(M)) * exp(j(theta - 2 pi f tau_rep)), where theta holds the M
phase-shifter settings and tau_rep repeats each of the N delays over its
P-element sub-array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import SystemConfig
from .files import write_atomic

TWO_PI = 2.0 * np.pi
# the most phase-shifter bits a codebook supports: each index fits one byte
MAX_BITS = 8


def wrap_angle(x):
    """Wrap angles to the interval (-pi, pi]."""
    return np.asarray(x) - TWO_PI * np.ceil((np.asarray(x) - np.pi) / TWO_PI)


@dataclass(frozen=True)
class PhaseCodebook:
    """The 2^bits admissible phase-shifter values, uniform over (-pi, pi].

    Anchored so that both 0 and pi are members (identity configurations are
    representable). At most MAX_BITS bits. `values`, read-only, holds member
    -pi + (i + 1) * 2pi/2^bits at index i, for i = 0..2^bits - 1, ascending.
    """

    bits: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"need 1 to {MAX_BITS} bits, got {self.bits}")
        n = 2**self.bits
        values = -np.pi + TWO_PI * np.arange(1, n + 1) / n
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return 2**self.bits

    @property
    def phasors(self) -> np.ndarray:
        """e^{j v} of each member v, in index order."""
        return np.exp(1j * self.values)

    def index(self, phases):
        """Each phase's codebook index, same shape; every phase must equal its
        member exactly, else ValueError (NaN, inf and -pi never do).
        """
        # member i times 2^b / 2 pi is i + 1 - 2^(b-1); adding 2^(b-1) - 1 and
        # 1.5 * 2^52 rounds a double below 2^51 in magnitude to the nearest
        # integer (half to even) in the sum's low bits, masked to b bits: the
        # index. NaN and inf give some index and no warning
        phases = np.asarray(phases, dtype=float)
        n = self.values.size
        shifted = phases * (n / TWO_PI)
        shifted += 1.5 * 2.0**52 + n // 2 - 1
        idx = shifted.view(np.int64)
        idx &= n - 1
        if (self.values[idx] != phases).any():
            raise ValueError("phase is not a codebook member")
        return idx


def quantize_phase(phi, cb: PhaseCodebook):
    """Nearest codebook member in wrapped angular distance.

    Ties are broken toward the larger codebook value. Accepts scalars or
    arrays; 2pi-periodic and idempotent. ValueError for a non-finite phase.
    """
    phi_arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi_arr)):
        raise ValueError("phase must be finite")
    # a running minimum over the members in ascending order, so memory
    # does not grow with the codebook; <= hands ties to the later member
    best = np.full(phi_arr.shape, np.inf)
    out = np.empty(phi_arr.shape)
    for v in cb.values:
        dist = np.abs(wrap_angle(phi_arr - v))
        np.copyto(out, v, where=dist <= best)
        np.minimum(best, dist, out=best)
    return float(out) if np.isscalar(phi) else out


@dataclass(frozen=True)
class CombinerConfig:
    """One configuration or a stack: M phase settings and N delays each.

    `theta` has shape (..., M) and `tau` shape (..., N) with the same
    leading batch dims; a stack holds one configuration per batch index.
    Phases are wrapped to (-pi, pi] at construction; delays are seconds and
    must be nonnegative. The upper bound system.tau_max_s is not checked
    here: the delay search and the oracles clip to it, and the CLI rejects
    a `--combiner` file that exceeds it.
    """

    theta: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if theta.shape[:-1] != tau.shape[:-1]:
            raise ValueError("phases and delays have different batch shapes")
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
    """Expand the N TD delays (last axis) to the M phase-shifter branches."""
    return np.repeat(np.asarray(tau, dtype=float), ps_per_td, axis=-1)


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


def recompensate_phases(theta_star, tau, cfg: SystemConfig, cb: PhaseCodebook) -> np.ndarray:
    """Re-quantize phases so delays leave the center-frequency beam intact.

    Each branch m in sub-array n gets the codebook value nearest
    theta_star[m] + 2 pi f_c tau[n]; a stack of delay vectors (..., N) gives
    one row of phases per vector. At f = f_c the combiner then equals the
    delay-free one up to per-element quantization error. Memory does not
    grow with the codebook.
    """
    theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    shifted = theta_star + TWO_PI * cfg.center_freq_hz * repeat_delays(
        tau, cfg.ps_per_td
    )
    return quantize_phase(shifted, cb)


def save_combiner(
    cc: CombinerConfig, cb: PhaseCodebook, path, header_comment: str = ""
) -> None:
    """Write the header comment, then phases as codebook indices and delays in ps.

    Indices make the phase round-trip bit-exact; delays carry 6 decimal
    digits of a picosecond.
    """
    idx = cb.index(cc.theta)
    with write_atomic(path) as fh:
        fh.write(header_comment)
        fh.write(f"ps_bits {cb.bits}\n")
        fh.write("theta_idx " + " ".join(str(i) for i in idx) + "\n")
        fh.write("tau_ps " + " ".join(f"{t * 1e12:.6f}" for t in cc.tau) + "\n")


def load_combiner(path):
    """Read a `save_combiner` file; returns (CombinerConfig, PhaseCodebook).

    Each of the fields ps_bits (one value), theta_idx and tau_ps must
    appear exactly once, and no other field may.
    """
    fields = {}
    with open(path) as fh:
        for ln in fh.read().splitlines():
            if not ln.strip() or ln.startswith("#"):
                continue
            key, _, rest = ln.partition(" ")
            if key not in ("ps_bits", "theta_idx", "tau_ps"):
                raise ValueError(f"unknown combiner field '{key}'")
            if key in fields:
                raise ValueError(f"repeated combiner field '{key}'")
            fields[key] = rest.split()
    try:
        bits = fields["ps_bits"]
        idx = np.array([int(tok) for tok in fields["theta_idx"]])
        tau = np.array([float(tok) * 1e-12 for tok in fields["tau_ps"]])
    except KeyError as exc:
        raise ValueError(f"missing combiner field {exc}") from exc
    if len(bits) != 1:
        raise ValueError("combiner field 'ps_bits' needs exactly one value")
    cb = PhaseCodebook(bits=int(bits[0]))
    if np.any(idx < 0) or np.any(idx >= cb.size):
        raise ValueError("phase index out of codebook range")
    return CombinerConfig(theta=cb.values[idx], tau=tau), cb

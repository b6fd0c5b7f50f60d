"""Shrinking cusp domains and their gauge machinery.

A cusp domain is the space-time region

    Theta = { (x, t) : |x| < zeta(t), t0 < t < 0 },

with a positive continuous width zeta on (t0, 0) that shrinks to the origin.
Three profile kinds are supported: exact power laws zeta = K (-t)^q, the
classical heat-equation double-log width K sqrt(-t) sqrt(log|log(-t)|)
(qualitative use only), and tabulated samples interpolated monotonically.

For p > 2 the width is re-expressed through the gauge

    delta(t) = ( zeta(t) / (-t)^(1/lam) )^(p/(p-1)),      lam = n(p-2)+p,

so that Theta = { (|x|/(-t)^(1/lam))^(p/(p-1)) < delta(t) }.  The barrier
family construction needs a smooth gauge whose weighted form
(-t)^(-beta) delta(t), beta = n(p-2)/lam, is nondecreasing; this module
provides the running-sup monotonization and a C^1 envelope delta_hat with
delta_tilde < delta_hat < 2 delta_tilde built by shifting a shape-preserving
cubic interpolant in log-log coordinates (which keeps both the sandwich and
the monotonicity by construction, and gives a closed-form derivative per
piece).  The envelope is C^1 rather than C-infinity; all downstream uses
only consume delta_hat and its first derivative.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .calculus import Params
from .errors import DomainError

__all__ = [
    "DomainProfile",
    "Gauge",
    "make_profile",
    "profile_from_csv",
    "profile_from_samples",
    "gauge_of",
    "running_sup",
    "monotone_smooth_envelope",
    "envelope_gauge",
    "scale_domain",
    "geometric_times",
]


def _power_law(amp: float, expo: float):
    """f(t) = amp (-t)^expo and its derivative f', elementwise on arrays;
    the solver reads both over its whole time grid in one call each."""

    def f(t):
        return amp * (-np.asarray(t, dtype=float)) ** expo

    def df(t):
        return -amp * expo * (-np.asarray(t, dtype=float)) ** (expo - 1.0)

    return f, df


def geometric_times(t0: float) -> np.ndarray:
    """Geometric sample times t_k = t0 * 0.9^k, k = 1..200, increasing toward 0."""
    if t0 >= 0:
        raise DomainError("t0 must be negative")
    return t0 * 0.9 ** np.arange(1, 201)


@dataclass(frozen=True)
class DomainProfile:
    """Width function zeta(t) of a cusp domain on (t0, 0)."""

    kind: str
    t0: float
    zeta: Callable
    dzeta: Optional[Callable] = None
    K: Optional[float] = None
    q: Optional[float] = None


def make_profile(kind: str, K: float, q: Optional[float] = None, t0: float = -1.0) -> DomainProfile:
    """Build a width profile.

    power: zeta(t) = K (-t)^q, q > 0.
    petrovskii_loglog: zeta(t) = K sqrt(-t) sqrt(log|log(-t)|); requires
    t0 > -1/e so the double logarithm is defined and positive on (t0, 0).
    """
    if not all(math.isfinite(x) for x in (K, q, t0) if x is not None):
        raise DomainError(f"K, q and t0 must be finite, got K={K}, q={q}, t0={t0}")
    if K is None or K <= 0:
        raise DomainError(f"K must be positive, got {K}")
    if t0 >= 0:
        raise DomainError(f"t0 must be negative, got {t0}")
    if kind == "power":
        if q is None or q <= 0:
            raise DomainError(f"power profile needs q > 0, got {q}")
        zeta, dzeta = _power_law(K, q)
        return DomainProfile(kind="power", t0=t0, zeta=zeta, dzeta=dzeta, K=K, q=q)

    if kind == "petrovskii_loglog":
        if t0 <= -1.0 / math.e:
            raise DomainError(
                f"petrovskii_loglog needs t0 > -1/e = {-1.0 / math.e:.6f}, got {t0}"
            )

        def zeta(t):
            tau = -np.asarray(t, dtype=float)
            return K * np.sqrt(tau) * np.sqrt(np.log(-np.log(tau)))

        def dzeta(t):
            tau = -np.asarray(t, dtype=float)
            L = np.log(-np.log(tau))
            # d zeta/d tau = (K/2) tau^(-1/2) [ sqrt(L) - 1/(sqrt(L) (-log tau)) ]
            dz_dtau = 0.5 * K / np.sqrt(tau) * (np.sqrt(L) - 1.0 / (np.sqrt(L) * (-np.log(tau))))
            return -dz_dtau

        return DomainProfile(kind="petrovskii_loglog", t0=t0, zeta=zeta, dzeta=dzeta, K=K, q=None)

    raise DomainError(f"unknown profile kind {kind!r}")


def profile_from_samples(t: np.ndarray, z: np.ndarray) -> DomainProfile:
    """Tabulated profile from samples (t strictly increasing and negative, z > 0).

    Width and its derivative come from a shape-preserving cubic interpolant,
    so monotone sampled data yield a monotone width.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    if t.ndim != 1 or t.size < 2 or t.shape != z.shape:
        raise DomainError("need matching 1-d arrays with at least 2 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(z))):
        raise DomainError("samples must be finite")
    if np.any(np.diff(t) <= 0) or np.any(t >= 0):
        raise DomainError("sample times must be strictly increasing and negative")
    if np.any(z <= 0):
        raise DomainError("widths must be positive")
    # imported here, not at module level: scipy.interpolate costs about 0.4 s
    # of every start, and only tabulated profiles and their envelopes use it
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(t, z, extrapolate=True)
    dinterp = interp.derivative()
    t0 = float(t[0])

    def zeta(tt):
        tt = np.asarray(tt, dtype=float)
        val = interp(np.clip(tt, t[0], t[-1]))
        return val if val.ndim else float(val)

    def dzeta(tt):
        tt = np.asarray(tt, dtype=float)
        val = dinterp(np.clip(tt, t[0], t[-1]))
        return val if val.ndim else float(val)

    return DomainProfile(kind="tabulated", t0=t0, zeta=zeta, dzeta=dzeta)


def profile_from_csv(path) -> DomainProfile:
    """Load a tabulated profile from CSV with columns t,zeta."""
    ts, zs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() in ("t", "# t"):
                continue
            try:
                ts.append(float(row[0]))
                zs.append(float(row[1]))
            except (ValueError, IndexError) as err:
                raise DomainError(f"{path}, line {reader.line_num}: need numeric t,zeta, "
                                  f"got {row!r}") from err
    return profile_from_samples(np.array(ts), np.array(zs))


@dataclass(frozen=True)
class Gauge:
    """Gauge delta(t) with weighting exponent beta = n(p-2)/lambda.

    delta/ddelta are callables on (t0, 0); monotone_flag records whether
    (-t)^(-beta) delta(t) is nondecreasing (verified on the stored samples).
    power is (amp, exp) when delta = amp (-t)^exp in closed form, else None.
    profile is the cusp the gauge was built from (None for an envelope of
    bare samples).
    """

    delta: Callable
    beta: float
    t0: float
    ddelta: Optional[Callable]
    monotone_flag: bool
    t_samples: np.ndarray
    power: Optional[tuple] = None
    profile: Optional[DomainProfile] = None

    @cached_property
    def theta(self) -> float:
        """Sampled minimum of (-t)^(-beta) delta(t) over t0/2 < t < 0 (over
        all samples if none lies there), the positive floor used by the
        barrier-family growth estimate."""
        ts = self.t_samples
        w = self.weighted(ts)
        half = ts > self.t0 / 2.0
        return float(np.min(w[half] if np.any(half) else w))

    def weighted(self, t):
        return (-np.asarray(t, dtype=float)) ** (-self.beta) * self.delta(t)


def gauge_of(profile: DomainProfile, p: float, n: int) -> Gauge:
    """Raw gauge delta = (zeta/(-t)^(1/lam))^(p/(p-1)) of a profile.

    Sampled on geometric_times(t0) to resolve the t -> 0- limit; for power
    profiles the closed form delta = amp (-t)^exp and its derivative are
    attached exactly, with (amp, exp) as the gauge's power.
    """
    pars = Params(p=p, n=n)
    lam, beta = pars.lam, pars.beta
    if lam <= 0:
        raise DomainError(f"lambda = {lam} must be positive")
    ts = geometric_times(profile.t0)
    power = None

    if profile.kind == "power":
        Kd = profile.K ** pars.pp
        e = (profile.q - 1.0 / lam) * pars.pp
        delta, ddelta = _power_law(Kd, e)
        monotone = e <= beta + 1e-15
        power = (Kd, e)
    else:
        zeta = profile.zeta

        def delta(t):
            t = np.asarray(t, dtype=float)
            return pars.chi(zeta(t), -t)

        ddelta = None
        w = (-ts) ** (-beta) * delta(ts)
        monotone = bool(np.all(np.diff(w) >= -1e-12 * np.maximum(1.0, w[:-1])))

    return Gauge(delta=delta, beta=beta, t0=profile.t0, ddelta=ddelta,
                 monotone_flag=monotone, t_samples=ts, power=power, profile=profile)


def running_sup(values) -> np.ndarray:
    """Pointwise running maximum of samples ordered in t (toward 0).

    Output is nondecreasing, dominates the input, and is idempotent.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DomainError("running_sup of empty input")
    return np.maximum.accumulate(values)


def monotone_smooth_envelope(t_samples, delta_tilde, beta: float) -> Gauge:
    """C^1 envelope delta_hat of a monotonized sampled gauge delta_tilde.

    Requires (-t)^(-beta) delta_tilde nondecreasing on the samples.  Writes
    G(s) = log delta_tilde(-e^s) - beta s on s = log(-t) (nonincreasing in s),
    shifts by log 1.5 and interpolates with a shape-preserving cubic; the
    result is exponentiated back.  At every sample delta_hat = 1.5 delta_tilde,
    so delta_tilde < delta_hat < 2 delta_tilde holds with a wide strict
    margin, and (-t)^(-beta) delta_hat = exp(G_hat(s)) is nondecreasing in t
    because the interpolant preserves the slope sign.  Outside the sampled
    range G_hat is continued as a constant, which keeps monotonicity and the
    vanishing behavior (-t)^(-g) delta_hat -> 0 for every g < beta.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    dt_ = np.asarray(delta_tilde, dtype=float)
    if t_samples.size < 2 or t_samples.shape != dt_.shape:
        raise DomainError("need matching sample arrays with at least 2 points")
    if np.any(np.diff(t_samples) <= 0) or np.any(t_samples >= 0):
        raise DomainError("sample times must be strictly increasing and negative")
    if np.any(dt_ <= 0):
        raise DomainError("gauge samples must be positive")
    w = (-t_samples) ** (-beta) * dt_
    if np.any(np.diff(w) < -1e-12 * np.maximum(1.0, w[:-1])):
        raise DomainError("(-t)^(-beta) delta_tilde must be nondecreasing; run running_sup first")

    s = np.log(-t_samples)  # decreasing as t increases toward 0
    g = np.log(w)           # nondecreasing in t, i.e. nonincreasing in s
    shift = math.log(1.5)
    s_inc = s[::-1]         # interpolate on increasing abscissae
    g_inc = g[::-1] + shift
    if np.any(np.diff(s_inc) <= 0):
        raise DomainError("duplicate sample times")
    from scipy.interpolate import PchipInterpolator  # see profile_from_samples

    ghat = PchipInterpolator(s_inc, g_inc, extrapolate=False)
    dghat = ghat.derivative()
    s_lo, s_hi = float(s_inc[0]), float(s_inc[-1])
    g_lo, g_hi = float(g_inc[0]), float(g_inc[-1])

    def _gh(sv):
        sv = np.asarray(sv, dtype=float)
        inner = ghat(np.clip(sv, s_lo, s_hi))
        return np.where(sv < s_lo, g_lo, np.where(sv > s_hi, g_hi, inner))

    def _dgh(sv):
        sv = np.asarray(sv, dtype=float)
        inner = dghat(np.clip(sv, s_lo, s_hi))
        return np.where((sv < s_lo) | (sv > s_hi), 0.0, inner)

    def delta(t):
        t = np.asarray(t, dtype=float)
        sv = np.log(-t)
        out = np.exp(_gh(sv) + beta * sv)
        return out if out.ndim else float(out)

    def ddelta(t):
        # d/dt exp(G(s) + beta s) with s = log(-t), ds/dt = -1/(-t)
        t = np.asarray(t, dtype=float)
        sv = np.log(-t)
        val = np.exp(_gh(sv) + beta * sv) * (_dgh(sv) + beta) * (-1.0 / (-t))
        return val if val.ndim else float(val)

    return Gauge(
        delta=delta, beta=beta, t0=float(t_samples[0]), ddelta=ddelta,
        monotone_flag=True, t_samples=t_samples,
    )


def envelope_gauge(profile: DomainProfile, p: float, n: int) -> Gauge:
    """Smooth monotone envelope gauge of a profile, ready for barrier families.

    Pipeline: raw gauge -> running sup of the weighted form -> 1.5x envelope.
    Power profiles take a closed-form shortcut (the monotonized gauge is again
    an exact power law, so delta_hat = 1.5 delta_tilde with exact derivative).
    """
    raw = gauge_of(profile, p, n)
    beta, ts = raw.beta, raw.t_samples
    if profile.kind == "power":
        Kd, e = raw.power
        if e <= beta:
            amp, expo = 1.5 * Kd, e
        else:
            # weighted gauge decreases; its sup over (t0, t] is the left-end value
            amp, expo = 1.5 * Kd * (-profile.t0) ** (e - beta), beta
        delta, ddelta = _power_law(amp, expo)
        power = (amp, expo)
    else:
        delta_tilde = (-ts) ** beta * running_sup(raw.weighted(ts))
        env = monotone_smooth_envelope(ts, delta_tilde, beta)
        delta, ddelta, power = env.delta, env.ddelta, None
    return Gauge(delta=delta, beta=beta, t0=profile.t0, ddelta=ddelta,
                 monotone_flag=True, t_samples=ts, power=power, profile=profile)


def scale_domain(profile: DomainProfile, a: float, p: float):
    """Space dilation Theta -> {(a x, t)} with the solution amplitude factor.

    Returns (scaled profile with width a zeta, factor a^(-p/(p-2))) such that
    u(x, t) = factor * u_tilde(a x, t) maps solutions on the scaled domain to
    solutions on the original one.  No such invariance exists for p = 2.
    A factor that overflows, or underflows to 0, raises DomainError.
    """
    if p == 2:
        raise DomainError("p = 2 has no amplitude scaling invariance")
    if p <= 1:
        raise DomainError(f"p must exceed 1, got {p}")
    if a <= 0:
        raise DomainError(f"scale must be positive, got {a}")
    try:
        factor = float(a) ** (-p / (p - 2.0))
    except OverflowError:
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise DomainError(f"the amplitude factor a^(-p/(p-2)) is {factor} for a={a}, p={p}")
    if profile.kind in ("power", "petrovskii_loglog"):
        return make_profile(profile.kind, K=a * profile.K, q=profile.q, t0=profile.t0), factor
    zeta, dzeta = profile.zeta, profile.dzeta
    scaled = DomainProfile(kind=profile.kind, t0=profile.t0, zeta=lambda t: a * zeta(t),
                           dzeta=(lambda t: a * dzeta(t)) if dzeta is not None else None)
    return scaled, factor

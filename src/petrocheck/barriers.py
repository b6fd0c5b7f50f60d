"""Explicit barrier constructions on cusp domains, with exact derivatives.

Five closed-form constructions are provided.  Each is written once, as a
formula u(r, t), and returned by SpaceTimeFunction.from_formula, so its
dt/dr/drr are exact (one forward-mode jet pass of the same formula) and
pointwise residuals du/dt - Lap_p u can be certified to roundoff:

singular_irregularity   1 < p < 2, 0 < q < 1/p: a supersolution whose value
                        along the axis tends to 0 while its boundary datum at
                        the tip is 1, witnessing irregularity of the tip.
singular_traditional    1 < p < 2, 0 < q <= 1/p: the pasted min{v, M} barrier
                        that vanishes at the tip even when the tip is
                        irregular (one barrier does not imply regularity).
degenerate_irregularity p > 2 on the reference cusp |x| < (-t)^(1/p): the
                        supersolution C (|x|^p/(-t))^(1/(p-2)) vanishing on
                        the axis, admissible for C <= c_max(p, n).
degenerate_family_member p > 2: the gauge-driven family
                        w_C = (Q^((p-1)/(p-2)) - C^((p-1)/(p-2))) f + rho_C
                        indexed by C, a barrier family at the tip once C is
                        large enough (find_family_threshold).
degenerate_small_data   p > 2, 0 < b < pq <= 1: A (|x|^p/(-t)^b)^(1/(p-2)),
                        continuous up to the tip, giving attainment for
                        boundary data within +-u of their tip value.

All exponent algebra matches the radial-power formula in `calculus`; the
reference domains (K = 1, t0 = -1 unless stated) are attached for
certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import Params, SpaceTimeFunction, lift, minimum, where
from .domains import DomainProfile, Gauge, make_profile
from .errors import DomainError

__all__ = [
    "BarrierSpec",
    "BARRIER_KINDS",
    "singular_irregularity_barrier",
    "singular_traditional_barrier",
    "small_data_bound_g",
    "degenerate_irregularity_barrier",
    "degenerate_family_member",
    "family_factors",
    "FamilyFormula",
    "degenerate_small_data_barrier",
    "b_const",
    "m_const",
    "c_max",
    "small_data_amplitude",
    "find_family_threshold",
    "elementary_inequality_margin",
    "make_barrier",
]

BARRIER_KINDS = (
    "singular_irregularity",
    "singular_traditional",
    "degenerate_family_member",
    "degenerate_irregularity",
    "degenerate_small_data",
)


def _singular(p, n, q=None, strict_q=False) -> Params:
    """Params of the singular range 1 < p < 2; a given q must satisfy
    0 < q <= 1/p (0 < q < 1/p if strict_q)."""
    if not (1 < p < 2):
        raise DomainError(f"requires 1 < p < 2, got p={p}")
    if q is not None and not (0 < q and (q < 1.0 / p if strict_q else q <= 1.0 / p)):
        op = "<" if strict_q else "<="
        raise DomainError(f"requires 0 < q {op} 1/p = {1.0 / p}, got q={q}")
    return Params(p=p, n=n)


def _degenerate(p, n) -> Params:
    """Params of the degenerate range p > 2."""
    if p <= 2:
        raise DomainError(f"requires p > 2, got p={p}")
    return Params(p=p, n=n)


def b_const(p: float, n: int) -> float:
    """Coefficient clamp B = min{ n(2-p) (p/(p-1))^(p-1), 1 } for 1 < p < 2."""
    _singular(p, n)
    return min(n * (2.0 - p) * (p / (p - 1.0)) ** (p - 1.0), 1.0)


def m_const(p: float, q: float, n: int) -> float:
    """Pasting level M = (B/2)^(1 + (p-1)/(pq(2-p))) of the traditional barrier."""
    _singular(p, n, q)
    B = b_const(p, n)
    return (B / 2.0) ** (1.0 + (p - 1.0) / (p * q * (2.0 - p)))


def c_max(p: float, n: int) -> float:
    """Largest admissible coefficient of the degenerate irregularity barrier.

    c_max = ( (p-2)^(p-1) / (lam p^(p-1)) )^(1/(p-2)), lam = n(p-2)+p.
    """
    lam = _degenerate(p, n).lam
    return ((p - 2.0) ** (p - 1.0) / (lam * p ** (p - 1.0))) ** (1.0 / (p - 2.0))


def small_data_amplitude(p: float, n: int, beta: float) -> float:
    """Amplitude A = ( (beta/lam) (1 - 2/p)^(p-1) )^(1/(p-2)) of the small-data barrier."""
    lam = _degenerate(p, n).lam
    if beta <= 0:
        raise DomainError(f"requires beta > 0, got {beta}")
    return ((beta / lam) * (1.0 - 2.0 / p) ** (p - 1.0)) ** (1.0 / (p - 2.0))


def elementary_inequality_margin(alpha: float, s):
    """Positive gap 1 + alpha s (1+s)^(alpha-1) - (1+s)^alpha for alpha > 1, s > 0."""
    s = np.asarray(s, dtype=float)
    return 1.0 + alpha * s * (1.0 + s) ** (alpha - 1.0) - (1.0 + s) ** alpha


def singular_irregularity_barrier(p: float, q: float, n: int) -> SpaceTimeFunction:
    """Irregularity witness for 1 < p < 2, 0 < q < 1/p on the cusp |x| < K(-t)^q.

    u(r, t) = r^(p/(p-1)) / (-t)^(pq/(p-1))
              - n/(1-pq) (p/(p-1))^(p-1) (-t)^(1-pq).

    Supersolution in the cusp: du/dt - Lap_p u
    = pq/(p-1) r^(p/(p-1)) (-t)^(-1-pq/(p-1)) >= 0, vanishing only on the
    axis, while u(0, t) -> 0 as t -> 0-.  The tip is not a branch of the
    formula (numpy gives NaN there): its datum 1 is the declared constant
    `tip_value` of make_barrier's spec, the limit of the lateral datum
    u((-t)^q, t) as t -> 0- on the K = 1 cusp.
    """
    _singular(p, n, q, strict_q=True)
    pp = p / (p - 1.0)
    a = p * q / (p - 1.0)
    c2 = n / (1.0 - p * q) * (p / (p - 1.0)) ** (p - 1.0)

    def u(r, t):
        return r ** pp * (-t) ** (-a) - c2 * (-t) ** (1.0 - p * q)

    return SpaceTimeFunction.from_formula(
        u, label=f"singular-irregularity(p={p}, q={q}, n={n})")


def singular_traditional_barrier(p: float, q: float, n: int) -> SpaceTimeFunction:
    """Pasted traditional barrier min{v, M} for 1 < p < 2, 0 < q <= 1/p, K = 1.

    v(r, t) = (-t)^(1/(2-p)) (B - r^(p/(p-1))) is a supersolution on the whole
    cusp; u equals min{v, M} on the core r^(p/(p-1)) < B/2 and the constant M
    outside it, which is continuous because v >= M on the core's lateral
    boundary inside the cusp.  Derivatives are branch-wise (the constant
    branch contributes zero residual); the pasting itself is classical and
    is not re-derived here.
    """
    _singular(p, n, q)
    pp = p / (p - 1.0)
    c = 1.0 / (2.0 - p)
    B = b_const(p, n)
    M = m_const(p, q, n)

    def u(r, t):
        rp = r ** pp
        return where(rp < B / 2.0, minimum((-t) ** c * (B - rp), M), M)

    return SpaceTimeFunction.from_formula(
        u, label=f"singular-traditional(p={p}, q={q}, n={n})")


def small_data_bound_g(p: float, q: float, n: int) -> SpaceTimeFunction:
    """Smallness bound g(t) = (B/2) min{-t, (B/2)^((p-1)/pq)}^(1/(2-p)).

    Boundary data within +-g of the tip value are attained at the tip even
    though the cusp is irregular.  g depends on t only and is constant for
    -t beyond the clamp threshold.
    """
    _singular(p, n, q)
    B = b_const(p, n)
    thr = (B / 2.0) ** ((p - 1.0) / (p * q))
    c = 1.0 / (2.0 - p)

    def u(r, t):
        return (B / 2.0) * minimum(-t, thr) ** c + 0.0 * r

    return SpaceTimeFunction.from_formula(
        u, label=f"small-data-bound(p={p}, q={q}, n={n})")


def degenerate_irregularity_barrier(p: float, n: int, C: float) -> SpaceTimeFunction:
    """Irregularity witness C (|x|^p / (-t))^(1/(p-2)) for p > 2.

    A positive supersolution on the reference cusp |x| < (-t)^(1/p) provided

        0 < C^(p-2) <= (p-2)^(p-1) / (lam p^(p-1)),

    i.e. C <= c_max(p, n); larger C is rejected.  Vanishes identically on
    the axis while the induced boundary datum equals C at the tip.
    """
    _degenerate(p, n)
    cm = c_max(p, n)
    if not (0 < C <= cm * (1.0 + 1e-12)):
        raise DomainError(
            f"C={C} violates the supersolution bound 0 < C <= c_max = {cm!r} "
            f"(C^(p-2) <= (p-2)^(p-1)/(lam p^(p-1)))"
        )
    alpha = p / (p - 2.0)
    b = 1.0 / (p - 2.0)

    def u(r, t):
        return C * r ** alpha * (-t) ** (-b)

    return SpaceTimeFunction.from_formula(
        u, label=f"degenerate-irregularity(p={p}, n={n}, C={C})")


def degenerate_small_data_barrier(p: float, q: float, n: int, beta: float) -> SpaceTimeFunction:
    """Small-data attainment barrier A (|x|^p/(-t)^beta)^(1/(p-2)) for p > 2.

    Requires 0 < beta < pq <= 1 so that the function extends continuously
    to the closed cusp |x| < (-t)^q, -1 < t < 0, with limit 0 at the tip;
    beta >= pq is rejected (continuity at the origin would fail).  The tip
    is that limit, not a branch of the formula (numpy gives NaN there).
    """
    _degenerate(p, n)
    if not (0 < q <= 1.0 / p):
        raise DomainError(f"requires 0 < q <= 1/p = {1.0 / p}, got q={q}")
    if not (0 < beta < p * q):
        raise DomainError(
            f"beta={beta} must lie in (0, pq) = (0, {p * q}); "
            f"beta >= pq makes the barrier discontinuous at the origin"
        )
    A = small_data_amplitude(p, n, beta)
    alpha = p / (p - 2.0)
    b = beta / (p - 2.0)

    def u(r, t):
        return A * r ** alpha * (-t) ** (-b)

    return SpaceTimeFunction.from_formula(
        u, label=f"degenerate-small-data(p={p}, q={q}, n={n}, beta={beta})")


def family_factors(pars: Params, gauge: Gauge, r, t):
    """The factors of w_C that do not depend on C: kappa chi, the lift d of
    delta_hat and f = -d^(1/(p-2)) (-t)^(-n/lam).  Every member of a ladder
    on one gauge reads the same, so a ladder pass builds them once."""
    p, n = pars.p, pars.n
    kap_chi = pars.kap * pars.chi(r, -t)
    d = lift(t, gauge.delta, gauge.ddelta)
    f = -d ** (1.0 / (p - 2.0)) * (-t) ** (-n / pars.lam)
    return kap_chi, d, f


@dataclass(frozen=True, eq=False)
class FamilyFormula:
    """The formula of the family member w_C on (pars, gauge): the shared
    family_factors, then the member's own terms (given).  Applied to arrays
    or jets it is one formula u(r, t), like every barrier's."""

    pars: Params
    gauge: Gauge
    C: float

    def __call__(self, r, t):
        return self.given(*family_factors(self.pars, self.gauge, r, t))

    def given(self, kap_chi, d, f):
        """w_C from its C-free factors: Q = C + kappa chi and rho_C."""
        C, m = self.C, self.pars.m
        Q = C + kap_chi
        rho = -C ** (1.0 / (self.pars.p - 2.0)) * d * f
        return (Q ** m - C ** m) * f + rho

    def reads(self, pars: Params, gauge: Gauge) -> bool:
        """Whether this member's factors are those of (pars, gauge)."""
        return self.pars == pars and self.gauge is gauge


def degenerate_family_member(p: float, n: int, gauge: Gauge, C: float) -> SpaceTimeFunction:
    """Member w_C of the gauge-driven barrier family for p > 2.

    With chi = (|x|/(-t)^(1/lam))^(p/(p-1)) and the smooth monotone gauge
    delta_hat,

        Q     = C + (p-2)/(p lam^(1/(p-1))) chi,
        f(t)  = -delta_hat(t)^(1/(p-2)) (-t)^(-n/lam)            (f < 0),
        rho_C = -C^(1/(p-2)) delta_hat(t) f(t)                   (> 0),
        w_C   = (Q^((p-1)/(p-2)) - C^((p-1)/(p-2))) f + rho_C.

    On the axis w_C(0, t) = rho_C(t).  Time derivatives consume the gauge's
    closed-form delta_hat'; a gauge without derivative is rejected.  The
    construction is a supersolution once C passes find_family_threshold;
    smaller C is allowed here, with no such guarantee.  The formula is a
    FamilyFormula, so a certificate of a ladder on one gauge builds the
    C-free factors once for all its members.
    """
    pars = _degenerate(p, n)
    if C <= 0:
        raise DomainError(f"requires C > 0, got {C}")
    if gauge.ddelta is None:
        raise DomainError("gauge must carry a closed-form derivative (use envelope_gauge)")
    if not gauge.monotone_flag:
        raise DomainError("gauge must be weighted-monotone (use envelope_gauge)")
    return SpaceTimeFunction.from_formula(
        FamilyFormula(pars, gauge, C), label=f"degenerate-family(p={p}, n={n}, C={C})")


def find_family_threshold(p: float, n: int, gauge: Gauge):
    """Smallest doubling C = 2^j, j < 60, making w_C a certified supersolution.

    The supersolution proof needs three sampled conditions on the gauge grid
    (all monotone in C, so a doubling search terminates):

      (a) Q <= 2C throughout the cusp, i.e. kap * delta_hat(t) <= C;
      (b) the bracketing chain
          (C + kap delta_hat)^m - C^m <= (p-1)/p C^(1/(p-2)) delta_hat(t),
          which also forces positivity of w_C;
      (c) the residual bound
          -C^(1/(p-2)) delta_hat' + (2C)^(1/(p-2)) delta_hat/(lam^(p/(p-1)) (-t))
          - (n/lam) C^((p-1)/(p-2)) delta_hat/(-t) <= 0,
          evaluated with the envelope derivative rather than by symbolic
          differentiation of w_C (matches the certification logic and avoids
          cancellation).

    Returns (C0, details) with per-condition worst margins at C0.
    """
    pars = _degenerate(p, n)
    if gauge.ddelta is None:
        raise DomainError("gauge must carry a closed-form derivative (use envelope_gauge)")
    lam, m, kap = pars.lam, pars.m, pars.kap
    ts = gauge.t_samples
    d = np.asarray(gauge.delta(ts), dtype=float)
    dd = np.asarray(gauge.ddelta(ts), dtype=float)
    tol = 1e-12

    def margins(C):
        try:
            with np.errstate(over="raise"):
                cpow = C ** (1.0 / (p - 2.0))
                a = C - kap * d                                   # >= 0 wanted
                b = (p - 1.0) / p * cpow * d - ((C + kap * d) ** m - C ** m)
                h = -(-cpow * dd + (2.0 * C) ** (1.0 / (p - 2.0)) * d
                      / (lam ** (p / (p - 1.0)) * (-ts))
                      - (n / lam) * C ** m * d / (-ts))           # >= 0 wanted
        except (OverflowError, FloatingPointError):
            raise DomainError(f"no admissible C found: the powers of C = {C} overflow "
                              f"at p={p}") from None
        return float(a.min()), float(b.min()), float(h.min())

    C = 1.0
    for _ in range(60):
        ma, mb, mh = margins(C)
        scale = max(1.0, C)
        if ma >= -tol * scale and mb >= -tol * scale and mh >= -tol * scale:
            return C, {"margin_sandwich": ma, "margin_chain": mb, "margin_residual": mh,
                       "kappa": kap, "lambda": lam, "theta": gauge.theta}
        C *= 2.0
    raise DomainError(f"no admissible C found up to {C} (gauge not weighted-monotone?)")


@dataclass(frozen=True)
class BarrierSpec:
    """A constructed barrier: kind, equation parameters, the cusp on which
    its inequalities are certified, named constants and the function."""

    kind: str
    params: Params
    profile: DomainProfile
    constants: dict
    fn: SpaceTimeFunction
    gauge: Optional[Gauge] = None

    def reference_profile(self) -> DomainProfile:
        """The domain on which the construction's inequalities are certified."""
        return self.profile

    def to_json_dict(self, grid_hash: str) -> dict:
        prof = self.profile
        return {
            "kind": self.kind,
            "parameters": {
                "p": self.params.p, "n": self.params.n, "q": prof.q,
                "K": prof.K, "t0": prof.t0,
            },
            "constants": dict(sorted(self.constants.items())),
            "verification_grid_hash": grid_hash,
        }


def make_barrier(kind: str, p: float, n: int, q: Optional[float] = None,
                 K: float = 1.0, t0: float = -1.0,
                 C: Optional[float] = None, beta: Optional[float] = None,
                 gauge: Optional[Gauge] = None) -> BarrierSpec:
    """Factory building a BarrierSpec for any of the five kinds.

    The reference cusp is the power profile K(-t)^q from t0, with q = 1/p for
    degenerate_irregularity.  Only singular_irregularity and
    degenerate_family_member take a K other than 1; the other three kinds are
    constructed on the K = 1 cusp and reject any other.  A
    degenerate_family_member is certified on the cusp its gauge was built
    from (envelope_gauge), power or not, so it needs no q; a power cusp given
    with it must be that one.
    """
    if kind not in BARRIER_KINDS:
        raise DomainError(f"unknown barrier kind {kind!r}; valid: {BARRIER_KINDS}")
    if K != 1.0 and kind not in ("singular_irregularity", "degenerate_family_member"):
        raise DomainError(f"{kind} is constructed on the K = 1 cusp, got K={K}")
    params = Params(p=p, n=n)
    if kind != "degenerate_family_member" or q is not None:
        profile = make_profile("power", K=K, t0=t0,
                               q=1.0 / p if kind == "degenerate_irregularity" else q)
    if kind == "singular_irregularity":
        fn = singular_irregularity_barrier(p, q, n)
        consts = {"tip_value": 1.0}
    elif kind == "singular_traditional":
        fn = singular_traditional_barrier(p, q, n)
        consts = {"B": b_const(p, n), "M": m_const(p, q, n)}
    elif kind == "degenerate_irregularity":
        if C is None:
            raise DomainError("degenerate_irregularity needs C")
        fn = degenerate_irregularity_barrier(p, n, C)
        consts = {"C": C, "c_max": c_max(p, n)}
    elif kind == "degenerate_small_data":
        if beta is None:
            raise DomainError("degenerate_small_data needs beta")
        fn = degenerate_small_data_barrier(p, q, n, beta)
        consts = {"A": small_data_amplitude(p, n, beta), "beta": beta}
    else:
        if C is None or gauge is None:
            raise DomainError("degenerate_family_member needs C and a gauge")
        own = gauge.profile
        if own is None:
            raise DomainError("gauge must carry the profile it was built from "
                              "(use envelope_gauge)")
        if q is not None and (K, q, t0) != (own.K, own.q, own.t0):
            raise DomainError(
                f"the gauge was built on the {own.kind} cusp K={own.K}, q={own.q}, "
                f"t0={own.t0}, not on the given K={K}, q={q}, t0={t0}")
        profile = own
        fn = degenerate_family_member(p, n, gauge, C)
        consts = {"C": C, "beta_gauge": gauge.beta, "theta": gauge.theta}
    consts["lambda"] = params.lam
    return BarrierSpec(kind=kind, params=params, profile=profile, constants=consts,
                       fn=fn, gauge=gauge)

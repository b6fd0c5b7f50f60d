"""Closed-form radial calculus for the p-parabolic equation du/dt = Lap_p u.

The p-Laplacian of a radially symmetric function u(r), r = |x| in R^n, is

    Lap_p u = r^(1-n) d/dr ( r^(n-1) |u_r|^(p-2) u_r ),

obtained by writing Div(|grad u|^(p-2) grad u) for u = u(|x|):
grad u = u_r x/r, |grad u| = |u_r|, and Div(g(r) x) = n g + r g'.
Expanding the outer derivative gives the equivalent non-conservative form

    Lap_p u = (p-1) |u_r|^(p-2) u_rr + (n-1)/r |u_r|^(p-2) u_r,

which is what `residual` uses when exact derivatives are attached.

Exact derivatives come from one formula per construction.  A formula
u(r, t) is written once with numpy operators and the helpers `where`,
`minimum` and `lift`; applied to arrays it gives the values, applied to the
forward-mode `Jet` variables of r and t it gives u_t, u_r and u_rr in one
pass (Griewank & Walther, Evaluating Derivatives, 2nd ed.).
`SpaceTimeFunction.from_formula` builds a field from such a formula, and
runs it a block of rows at a time on every CPU the process may use.
Everything here is pure and reentrant; functions accept numpy arrays.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "Params",
    "Jet",
    "where",
    "minimum",
    "lift",
    "SpaceTimeFunction",
    "p_laplacian_radial_power",
    "p_laplacian_radial_fd",
    "barenblatt",
    "barenblatt_function",
    "barenblatt_support_radius",
    "residual",
    "check_derivatives",
]


@dataclass(frozen=True)
class Params:
    """Equation parameters and the one holder of the self-similar exponents.

    p : diffusion exponent, > 1 (degenerate for p > 2, singular for p < 2)
    n : spatial dimension, a positive integer

    The cusp (K, q, t0) belongs to the DomainProfile and is checked by
    domains.make_profile.  lam, pp, m, kap, chi and envelope are shared by
    the Barenblatt source solution, the gauge and the barrier family w_C;
    m, kap and envelope need p != 2.
    """

    p: float
    n: int

    def __post_init__(self):
        for name in ("p", "n"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {name}={value}")
        if self.p <= 1:
            raise DomainError(f"p must exceed 1, got p={self.p}")
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError(f"n must be a positive integer, got n={self.n}")

    @property
    def lam(self) -> float:
        return self.n * (self.p - 2.0) + self.p

    @property
    def beta(self) -> float:
        """n(p-2)/lambda, the gauge monotonization weight."""
        return self.n * (self.p - 2.0) / self.lam

    @property
    def pp(self) -> float:
        """p/(p-1), the exponent of chi."""
        return self.p / (self.p - 1.0)

    @property
    def m(self) -> float:
        """(p-1)/(p-2), the exponent of Q in w_C and of the Barenblatt profile."""
        return (self.p - 1.0) / (self.p - 2.0)

    @property
    def kap(self) -> float:
        """(p-2)/(p lam^(1/(p-1))), the coefficient of chi in Q = C + kap chi."""
        return (self.p - 2.0) / (self.p * self.lam ** (1.0 / (self.p - 1.0)))

    def chi(self, r, s):
        """chi = (r/s^(1/lam))^(p/(p-1)) at elapsed time s > 0: s = t for the
        source solution, s = -t for the barrier family."""
        return r ** self.pp * s ** (-self.pp / self.lam)

    def envelope(self, C, delta, t, scale=1.0):
        """scale * rho_C(t), rho_C = C^(1/(p-2)) delta^((p-1)/(p-2)) (-t)^(-n/lam)."""
        return (scale * C ** (1.0 / (self.p - 2.0)) * delta ** self.m
                * (-t) ** (-self.n / self.lam))


def _is(x, c):
    """x is the Python scalar c; jets carry derivatives that are identically
    0 or 1 as such scalars, so no array work is spent on them."""
    return type(x) is float and x == c


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return 0.0
    return b if _is(a, 1.0) else a if _is(b, 1.0) else a * b


def _add(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else a + b


def _jet(x):
    return x if isinstance(x, Jet) else Jet(x)


def _value(x):
    return x.v if isinstance(x, Jet) else x


class Jet:
    """Forward-mode jet of a field u(r, t): value v with u_t, u_r and u_rr.

    Supports + - * / with jets and constants, ** with a constant exponent,
    `where`, `minimum` and `lift`; comparisons act on the value.
    """

    __slots__ = ("v", "t", "r", "rr")
    __array_ufunc__ = None      # numpy operands defer to the reflected operators
    __hash__ = None

    def __init__(self, v, t=0.0, r=0.0, rr=0.0):
        self.v, self.t, self.r, self.rr = v, t, r, rr

    def __add__(self, o):
        o = _jet(o)
        return Jet(self.v + o.v, _add(self.t, o.t), _add(self.r, o.r), _add(self.rr, o.rr))

    def __mul__(self, o):
        o = _jet(o)
        rr = _add(_add(_mul(self.rr, o.v), _mul(self.v, o.rr)), _mul(2.0, _mul(self.r, o.r)))
        return Jet(self.v * o.v, _add(_mul(self.t, o.v), _mul(self.v, o.t)),
                   _add(_mul(self.r, o.v), _mul(self.v, o.r)), rr)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __truediv__(self, o):
        quotient = self * _jet(o) ** -1.0
        quotient.v = self.v / _value(o)
        return quotient

    def __pow__(self, k):
        v = self.v
        d = k * v ** (k - 1.0)
        rr = _mul(d, self.rr)
        if not _is(self.r, 0.0):
            rr = _add(rr, _mul(k * (k - 1.0) * v ** (k - 2.0), _mul(self.r, self.r)))
        return Jet(v ** k, _mul(d, self.t), _mul(d, self.r), rr)

    def __lt__(self, o):
        return self.v < _value(o)

    def __gt__(self, o):
        return self.v > _value(o)

    def __eq__(self, o):
        return self.v == _value(o)


def _select(value, mask, a, b):
    """The jet with this value and a's derivatives where mask holds, else b's."""
    return Jet(value, *(0.0 if _is(x, 0.0) and _is(y, 0.0) else np.where(mask, x, y)
                        for x, y in ((a.t, b.t), (a.r, b.r), (a.rr, b.rr))))


def where(mask, a, b):
    """np.where for arrays and jets; a jet skips the branch that is nowhere taken."""
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return np.where(mask, a, b)
    a, b = _jet(a), _jet(b)
    if not np.any(mask):
        return b
    return a if np.all(mask) else _select(np.where(mask, a.v, b.v), mask, a, b)


def minimum(a, b):
    """np.minimum for arrays and jets; on a tie the derivative is b's."""
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return np.minimum(a, b)
    a, b = _jet(a), _jet(b)
    return _select(np.minimum(a.v, b.v), a.v < b.v, a, b)


def lift(t, g, dg):
    """The r-free factor g(t) of a formula, with dg its closed-form derivative."""
    if not isinstance(t, Jet):
        return g(t)
    return Jet(g(t.v), _mul(dg(t.v), t.t))


def _unwrap(out):
    """An array, or a float for a 0-d result."""
    return out if out.ndim else float(out)


_BLOCK = 1 << 15        # points per block of rows


def _axes(x, ndim):
    """x with leading axes added up to ndim, and each zero-stride (only
    broadcast) axis cut to length 1."""
    return x[(None,) * (ndim - x.ndim)
             + tuple(slice(None) if step else slice(0, 1) for step in x.strides)]


@cache
def _pool():
    """Block workers, one per CPU this process may run on, made on first
    use; None on a single CPU."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(cpus, thread_name_prefix="petrocheck-block") if cpus > 1 else None


if hasattr(os, "register_at_fork"):     # a forked child has none of the workers' threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_blocks(task, r, t):
    """[task(part, r_rows, t_rows) for each block of rows], in block order,
    where part is the slice of the block's rows in the broadcast shape of
    (r, t).

    An operand enters task without the axes it was only broadcast along:
    on a certificate grid t stays the column (n_t, 1) against r of shape
    (n_t, n_y), so every t-only factor is computed once per time level.  A
    block holds at most _BLOCK points, which bounds the memory held by its
    intermediates.  The blocks run on the CPUs this process may use, each
    under a copy of the caller's context, so the caller's np.errstate holds
    in them; a single block, or a single CPU, runs inline.  Every block
    ends before an error raised in one reaches the caller, and of several
    errors the first block's is raised.
    """
    r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    shape = np.broadcast(r, t).shape or (1,)
    r, t = _axes(r, len(shape)), _axes(t, len(shape))
    rows = max(1, _BLOCK // max(1, math.prod(shape[1:])))
    parts = [slice(i, i + rows) for i in range(0, shape[0], rows)]

    def run(part):
        return task(part, r if len(r) == 1 else r[part], t if len(t) == 1 else t[part])

    pool = _pool() if len(parts) > 1 else None
    if pool is None:
        return [run(part) for part in parts]
    futures = [pool.submit(contextvars.copy_context().run, run, part) for part in parts]
    for f in futures:
        f.exception()           # wait for every block
    return [f.result() for f in futures]


def _run_blocks(block, r, t, count):
    """count arrays of the broadcast shape of (r, t), filled a block of rows
    at a time by `_map_blocks` from block(r_rows, t_rows), which returns
    count values that broadcast to those rows.  Each block writes only its
    own rows, so for an elementwise block neither the split nor the
    scheduling changes a value.
    """
    shape = np.broadcast(np.asarray(r), np.asarray(t)).shape
    out = np.empty((count,) + (shape or (1,)))

    def fill(part, rb, tb):
        for o, value in zip(out, block(rb, tb)):
            o[part] = value

    _map_blocks(fill, r, t)
    return tuple(out) if shape else tuple(map(float, out[:, 0]))


def _formula_jet(formula, r, t):
    """The jet of a formula at the points (r, t)."""
    return _jet(formula(Jet(r, 0.0, 1.0), Jet(t, 1.0)))


def _evaluate(formula, r, t):
    return _run_blocks(lambda rb, tb: (formula(rb, tb),), r, t, 1)[0]


def _jet_component(formula, name, r, t):
    """The derivative of a formula named by its jet attribute ("t", "r" or
    "rr") at (r, t), a block at a time."""
    return _run_blocks(lambda rb, tb: (getattr(_formula_jet(formula, rb, tb), name),), r, t, 1)[0]


def _field_jet(u, r, t, jet=None):
    """The jet of the field u, with fn's value, at the points (r, t) of one
    block; the one place that asks what kind of field u is.

    A formula field's derivatives are those of jet, its formula's jet there
    when the caller has built it, else of its formula run on the jets of r
    and t.  Where fn is the formula's own, as from_formula makes it, the
    value is the formula jet's, since the jet operations apply the same
    array operations to it; any other fn runs on (r, t).  A hand-built
    field's value and derivatives are its fn, dt, dr and drr there.
    """
    if u.formula is None:
        return Jet(*(np.asarray(g(r, t), dtype=float) for g in (u.fn, u.dt, u.dr, u.drr)))
    if jet is None:
        jet = _formula_jet(u.formula, r, t)
    own = getattr(u.fn, "func", None) is _evaluate and u.fn.args == (u.formula,)
    return jet if own else Jet(u.fn(r, t), jet.t, jet.r, jet.rr)


@dataclass(frozen=True)
class SpaceTimeFunction:
    """An evaluable radial scalar field u(r, t) with optional closed forms.

    fn evaluates the field; dt, dr, drr are closed-form time/radial
    derivatives when available (all vectorized over numpy arrays, and
    elementwise in (r, t): `derivatives` and the certificates call them a
    block of rows at a time).  in_domain, when given, is the validity
    predicate of the formulas.  A field built by `from_formula` keeps its
    formula, and its derivatives then come from one jet pass.
    """

    fn: Callable
    dt: Optional[Callable] = None
    dr: Optional[Callable] = None
    drr: Optional[Callable] = None
    label: str = ""
    in_domain: Optional[Callable] = None
    formula: Optional[Callable] = None

    @classmethod
    def from_formula(cls, formula: Callable, label: str = "",
                     in_domain: Optional[Callable] = None) -> "SpaceTimeFunction":
        """The field u = formula(r, t): values from arrays, derivatives from
        jets, both a block at a time by `_run_blocks`; the formula must be
        elementwise in (r, t)."""
        return cls(fn=partial(_evaluate, formula),
                   dt=partial(_jet_component, formula, "t"),
                   dr=partial(_jet_component, formula, "r"),
                   drr=partial(_jet_component, formula, "rr"),
                   label=label, in_domain=in_domain, formula=formula)

    def __call__(self, r, t):
        return self.fn(r, t)

    def derivatives(self, r, t):
        """(u_t, u_r, u_rr) at (r, t), from the field's jet (`_field_jet`) a
        block of rows at a time; a t-only factor of a formula and its
        t-derivative are computed once per time level.  Every jet operation
        is elementwise, so neither the blocks nor the kept axes change a
        value."""
        def block(rb, tb):
            jet = _field_jet(self, rb, tb)
            return jet.t, jet.r, jet.rr
        return _run_blocks(block, r, t, 3)


def _phi(s, p):
    """Degenerate flux |s|^(p-2) s."""
    s = np.asarray(s, dtype=float)
    return np.sign(s) * np.abs(s) ** (p - 1.0)


def p_laplacian_radial_power(C: float, alpha: float, p: float, n: int, r) -> np.ndarray:
    """p-Laplacian of C |x|^alpha in R^n, evaluated at |x| = r.

    Closed form: C alpha |C alpha|^(p-2) (n + (alpha-1)(p-1) - 1) r^((alpha-1)(p-1)-1).
    For alpha = p/(p-2) and C alpha > 0 this reduces to
    (C alpha)^(p-1) (n + alpha) r^alpha = (C alpha)^(p-1) lambda/(p-2) r^alpha,
    and for alpha = p/(p-1), C > 0, to the r-independent constant (C alpha)^(p-1) n.
    """
    Params(p=p, n=n)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    if C == 0.0 or alpha == 0.0:
        return _unwrap(np.zeros_like(r))
    expo = (alpha - 1.0) * (p - 1.0) - 1.0
    if expo < 0 and np.any(r == 0.0):
        raise DomainError(
            f"output exponent {expo} is negative; r must be strictly positive"
        )
    ca = C * alpha
    try:
        with np.errstate(over="raise"):
            return _unwrap(ca * abs(ca) ** (p - 2.0) * (n + expo) * r ** expo)
    except (OverflowError, FloatingPointError):
        raise DomainError(f"|C alpha|^(p-2) or r^{expo} overflows at p={p}") from None


def _richardson(d, h):
    """Fourth-order value of a second-order difference d(step), from the
    steps h and h/2: (4 d(h/2) - d(h)) / 3."""
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def p_laplacian_radial_fd(u, p: float, n: int, r, t, h=1e-3):
    """Fourth-order conservative finite-difference oracle for Lap_p u at (r, t),
    where u is any callable u(r, t), a SpaceTimeFunction among them.

    Discretizes r^(1-n) d/dr ( r^(n-1) |u_r|^(p-2) u_r ) with centered slopes
    at the half points r +- k/2 for the steps k = h and h/2, and
    Richardson-extrapolates the two.  One difference carries a rounding
    error of about eps |u| phi'(u_r) / k^2 (1.4e-6 for u = 2r at r = 2,
    p = 5, k = 1e-4); the extrapolation keeps the truncation error small at
    steps where that floor stays far below 1e-6.  It only calls u, so it is
    independent of any closed form attached to it.  Meaningless at points
    where u is not smooth; the caller must keep h < r/2.  r, t and h may be
    arrays of one broadcast shape.
    """
    if not np.all((0 < h) & (h < r / 2)):
        raise DomainError(f"need 0 < h < r/2, got h={h}, r={r}")
    u0 = u(r, t)

    def difference(k):
        s_plus = (u(r + k, t) - u0) / k
        s_minus = (u0 - u(r - k, t)) / k
        f_plus = (r + k / 2.0) ** (n - 1) * _phi(s_plus, p)
        f_minus = (r - k / 2.0) ** (n - 1) * _phi(s_minus, p)
        return r ** (1 - n) * (f_plus - f_minus) / k

    return _unwrap(np.asarray(_richardson(difference, h), dtype=float))


def barenblatt_support_radius(t: float, p: float, n: int, C: float) -> float:
    """Free-boundary radius of the self-similar source solution at time t > 0.

    Finite only for p > 2; for p < 2 the profile is positive everywhere and
    +inf is returned.
    """
    pars = Params(p=p, n=n)
    if pars.lam <= 0 or p == 2:
        raise DomainError("requires lambda > 0 and p != 2")
    if t <= 0:
        raise DomainError("requires t > 0")
    if p < 2:
        return math.inf
    return t ** (1.0 / pars.lam) * (C / pars.kap) ** ((p - 1.0) / p)


def barenblatt(r, t, p: float, n: int, C: float):
    """Self-similar source solution at radius r, time t > 0.

    B(r, t) = t^(-n/lam) ( C - (p-2)/p lam^(1/(1-p)) (r/t^(1/lam))^(p/(p-1)) )_+^((p-1)/(p-2))

    with lam = n(p-2)+p.  Requires p != 2 and lam > 0; the positive part
    clamps the profile to zero outside its support when p > 2.
    """
    if np.any(np.asarray(t) <= 0):
        raise DomainError("requires t > 0")
    return barenblatt_function(p, n, C).fn(r, t)


def barenblatt_function(p: float, n: int, C: float) -> SpaceTimeFunction:
    """Source solution as a SpaceTimeFunction with exact derivatives.

    Derivatives are valid in the interior of the support only; points on or
    beyond the free boundary (p > 2) are not smooth and report value 0 with
    zero derivatives.
    """
    if p == 2:
        raise DomainError("p = 2 (Gaussian kernel) is unsupported")
    if C <= 0:
        raise DomainError(f"C must be positive, got {C}")
    pars = Params(p=p, n=n)
    if pars.lam <= 0:
        raise DomainError(f"lambda = {pars.lam} must be positive")
    lam, m, kap = pars.lam, pars.m, pars.kap

    def u(r, t):
        base = C - kap * pars.chi(r, t)
        if p < 2:
            return t ** (-n / lam) * base ** m      # kap < 0, so base >= C > 0
        inside = base > 0.0
        return where(inside, t ** (-n / lam) * where(inside, base, 1.0) ** m, 0.0)

    return SpaceTimeFunction.from_formula(
        u, label=f"barenblatt(p={p}, n={n}, C={C})",
        in_domain=lambda r, t: np.asarray(t) > 0)


def _closed_residual(jet, r, p, n):
    """u_t - Lap_p u from the jet of u at radius r, by the non-conservative
    form; where u_r = u_rr = 0 the field is locally constant and
    Lap_p u = 0."""
    ut, ur, urr = jet.t, jet.r, jet.rr
    flat = (ur == 0.0) & (urr == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.where(flat, 0.0, np.abs(ur) ** (p - 2.0))
        lap = (p - 1.0) * grad * urr + (n - 1.0) / r * grad * ur
    return ut - np.where(flat, 0.0, lap)


def _admit(u: SpaceTimeFunction, r, t, closed: bool):
    """Refuse points outside u's domain and, for a closed-form residual, a
    field without closed-form derivatives."""
    if u.in_domain is not None and not np.all(u.in_domain(r, t)):
        raise DomainError(f"evaluation outside the domain of {u.label!r}")
    if closed and any(d is None for d in (u.dt, u.dr, u.drr)):
        raise DomainError(f"{u.label!r} has no closed-form derivatives")


def residual(
    u: SpaceTimeFunction,
    p: float,
    n: int,
    r,
    t,
    method: str = "closed",
    h: float = 1e-3,
):
    """Pointwise residual du/dt - Lap_p u of a smooth radial field.

    A nonnegative value indicates supersolution behavior at the point.
    method="closed" uses the attached derivatives, exact up to roundoff:
    each block of `_run_blocks` forms the residual from the field's jet
    there (`_field_jet`), so no full-size derivative array is made and the
    blocks run on every CPU the process may use.  The certificates in
    `verify` form the same residual from the same jets, block by block,
    and reduce it there without calling this.
    method="fd" uses central differences for du/dt and the
    conservative oracle for Lap_p, both Richardson-extrapolated from the
    steps h and h/2.  A field without closed forms raises DomainError
    unless "fd" is asked for, so no certificate falls back to differences.
    """
    _admit(u, r, t, closed=method == "closed")
    if method == "closed":
        def block(rb, tb):
            return (_closed_residual(_field_jet(u, rb, tb), rb, p, n),)
        return _run_blocks(block, r, t, 1)[0]
    if method == "fd":
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        # the oracle checks the step before anything divides by it
        lap = p_laplacian_radial_fd(u, p, n, r, t, h=np.minimum(h, r / 4.0))
        dtu = _richardson(lambda k: (u(r, t + k) - u(r, t - k)) / (2.0 * k),
                          h * np.maximum(np.abs(t), 1.0))
        return _unwrap(np.asarray(dtu - lap, dtype=float))
    raise ValueError(f"unknown method {method!r}")


def check_derivatives(u: SpaceTimeFunction, points) -> float:
    """Max relative deviation of attached derivatives from central differences.

    dt and dr are compared with differences of fn, drr with differences of
    dr, at relative step 1e-4.  points is an iterable of (r, t) interior
    sample points.  Returns the worst relative error over the three
    derivatives (NaN if any is NaN); callers assert it <= 1e-6.
    """
    h = 1e-4
    errors = [0.0]
    for r, t in points:
        ht = h * abs(t) if t != 0 else h
        hr = h * r if r > 0 else h
        pairs = []
        if u.dt is not None:
            pairs.append((u.dt(r, t), (u.fn(r, t + ht) - u.fn(r, t - ht)) / (2.0 * ht)))
        if u.dr is not None and r > 0:
            pairs.append((u.dr(r, t), (u.fn(r + hr, t) - u.fn(r - hr, t)) / (2.0 * hr)))
            if u.drr is not None:
                pairs.append((u.drr(r, t),
                              (u.dr(r + hr, t) - u.dr(r - hr, t)) / (2.0 * hr)))
        errors += [abs(float(cf) - fd) / (1.0 + abs(float(cf))) for cf, fd in pairs]
    return float(np.max(errors))

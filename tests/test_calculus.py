import math
import multiprocessing
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from petrocheck import calculus
from petrocheck.calculus import (
    Params,
    SpaceTimeFunction,
    barenblatt,
    barenblatt_function,
    barenblatt_support_radius,
    check_derivatives,
    lift,
    minimum,
    p_laplacian_radial_fd,
    p_laplacian_radial_power,
    residual,
    where,
)
from petrocheck.errors import DomainError


def power_field(C, alpha):
    return SpaceTimeFunction(fn=lambda r, t: C * np.asarray(r, dtype=float) ** alpha)


class TestLambda:
    def test_values(self):
        assert Params(p=3, n=2).lam == 5.0
        assert Params(p=2, n=7).lam == 2.0
        assert Params(p=1.5, n=2).lam == pytest.approx(0.5)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            Params(p=1.0, n=2).lam
        with pytest.raises(DomainError):
            Params(p=3.0, n=0).lam


class TestParams:
    def test_derived_exponents(self):
        pr = Params(p=3.0, n=2)
        assert pr.lam == 5.0
        assert pr.beta == pytest.approx(2.0 / 5.0)
        assert pr.gamma == pytest.approx(1.0 / 5.0)
        assert pr.gamma < pr.beta

    def test_self_similar_exponents(self):
        pr = Params(p=3.0, n=2)
        assert (pr.pp, pr.m) == (1.5, 2.0)
        assert pr.kap == pytest.approx(1.0 / (3.0 * math.sqrt(5.0)), rel=1e-15)
        # the source solution's free boundary is where kap chi(r, t) = C
        rs = barenblatt_support_radius(0.7, 3.0, 2, 1.3)
        assert pr.kap * pr.chi(rs, 0.7) == pytest.approx(1.3, rel=1e-14)
        # rho_C at delta = 1, t = -1 is C^(1/(p-2))
        assert pr.envelope(4.0, 1.0, -1.0) == 4.0

    def test_invariants(self):
        with pytest.raises(DomainError):
            Params(p=0.9, n=2)
        with pytest.raises(DomainError):
            Params(p=3.0, n=2.5)

    @given(p=st.floats(1.1, 10.0), n=st.integers(1, 5),
           name=st.sampled_from(["p", "n"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_field_rejected(self, p, n, name, bad):
        fields = {"p": p, "n": n}
        Params(**fields)
        fields[name] = bad
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            Params(**fields)


class TestRadialPowerFormula:
    def test_hand_value(self):
        # C=1, alpha=3/2, p=3, n=2 at r=0.7: coefficient 2.25 * 2, exponent 0
        assert p_laplacian_radial_power(1.0, 1.5, 3.0, 2, 0.7) == pytest.approx(4.5)

    def test_zero_coefficient_cases(self):
        assert p_laplacian_radial_power(1.0, 1.0, 3.0, 1, 2.0) == 0.0
        assert p_laplacian_radial_power(0.0, 2.0, 3.0, 3, 1.0) == 0.0

    def test_homogeneous_power_identity(self):
        # alpha = p/(p-2): equals (C alpha)^(p-1) (n+alpha) r^alpha
        for p, n, C, r in [(3.0, 2, 0.8, 0.9), (4.0, 1, 0.5, 1.3), (2.5, 3, 1.7, 0.4)]:
            alpha = p / (p - 2.0)
            lam = Params(p=p, n=n).lam
            got = p_laplacian_radial_power(C, alpha, p, n, r)
            want = (C * alpha) ** (p - 1.0) * lam / (p - 2.0) * r ** alpha
            assert got == pytest.approx(want, rel=1e-12)
            assert got == pytest.approx((C * alpha) ** (p - 1.0) * (n + alpha) * r ** alpha,
                                        rel=1e-12)

    def test_r_independent_power(self):
        # alpha = p/(p-1), C > 0: constant (C alpha)^(p-1) n
        p, n, C = 3.0, 2, 0.8
        alpha = p / (p - 1.0)
        want = (C * alpha) ** (p - 1.0) * n
        for r in (0.3, 1.0, 1.7):
            assert p_laplacian_radial_power(C, alpha, p, n, r) == pytest.approx(want)

    def test_singular_origin_guard(self):
        with pytest.raises(DomainError):
            p_laplacian_radial_power(1.0, 1.0, 3.0, 2, 0.0)  # exponent -1 at r=0

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            p_laplacian_radial_power(1.0, 2.0, 3.0, 2, [0.5, -0.1])

    @given(
        C=st.floats(0.2, 2.0),
        alpha=st.floats(0.6, 3.0),
        p=st.floats(1.2, 5.0),
        n=st.integers(1, 3),
        r=st.floats(0.3, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    # u = 2r has p-Laplacian 0 at n = 1; a plain difference at h = 1e-4
    # returns 1.42e-6 there, its rounding floor
    @example(C=2.0, alpha=1.0, p=5.0, n=1, r=2.0)
    def test_oracle_agreement(self, C, alpha, p, n, r):
        closed = p_laplacian_radial_power(C, alpha, p, n, r)
        oracle = p_laplacian_radial_fd(power_field(C, alpha), p, n, r, -1.0)
        assert abs(closed - oracle) / (1.0 + abs(closed)) <= 1e-6


class TestOracle:
    def test_reference_point(self):
        got = p_laplacian_radial_fd(power_field(1.0, 1.5), 3.0, 2, 0.7, -1.0)
        assert got == pytest.approx(4.5, abs=1e-6)

    def test_constants(self):
        const = SpaceTimeFunction(fn=lambda r, t: np.ones_like(np.asarray(r, dtype=float)))
        assert p_laplacian_radial_fd(const, 3.0, 2, 0.7, -1.0) == 0.0

    def test_step_guard(self):
        with pytest.raises(DomainError):
            p_laplacian_radial_fd(power_field(1.0, 2.0), 3.0, 2, 0.1, -1.0, h=0.2)

    def test_second_order_convergence(self):
        # observed order >= 1.8 on an h-ladder, log-spaced radii (the
        # Richardson step makes the oracle fourth order: 3.7 to 5.5 here)
        C, alpha, p, n = 1.3, 2.4, 2.7, 2
        u = power_field(C, alpha)
        for r in np.logspace(-0.4, 0.3, 5):
            errs = []
            for h in (4e-2 * r, 2e-2 * r, 1e-2 * r):
                closed = p_laplacian_radial_power(C, alpha, p, n, r)
                errs.append(abs(p_laplacian_radial_fd(u, p, n, r, -1.0, h=h) - closed))
            order = math.log(errs[0] / errs[2]) / math.log(4.0)
            assert order >= 1.8


class TestBarenblatt:
    def test_center_value(self):
        assert barenblatt(0.0, 1.0, 3.0, 2, 1.0) == pytest.approx(1.0)

    def test_support_clamp(self):
        rs = barenblatt_support_radius(1.0, 3.0, 2, 1.0)
        assert barenblatt(1.1 * rs, 1.0, 3.0, 2, 1.0) == 0.0
        assert barenblatt(0.9 * rs, 1.0, 3.0, 2, 1.0) > 0.0

    def test_parameter_guards(self):
        with pytest.raises(DomainError):
            barenblatt(0.1, 1.0, 2.0, 2, 1.0)       # p = 2 unsupported
        with pytest.raises(DomainError):
            barenblatt(0.1, 1.0, 1.2, 2, 1.0)       # lambda = -0.4 <= 0
        with pytest.raises(DomainError):
            barenblatt(0.1, -1.0, 3.0, 2, 1.0)      # t <= 0
        with pytest.raises(DomainError):
            barenblatt_function(3.0, 2.5, 1.0)       # n is a dimension

    @pytest.mark.parametrize("t, p, message", [
        (1.0, 2.0, "p != 2"), (0.0, 3.0, "t > 0"), (-1.0, 3.0, "t > 0")])
    def test_support_radius_guards(self, t, p, message):
        with pytest.raises(DomainError, match=message):
            barenblatt_support_radius(t, p, 2, 1.0)

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_nonpositive_C_rejected(self, C):
        with pytest.raises(DomainError, match="C must be positive"):
            barenblatt_function(3.0, 2, C)

    def test_fd_residual_small(self):
        B = barenblatt_function(3.0, 2, 1.0)
        assert abs(residual(B, 3.0, 2, 0.1, 1.0, method="fd")) <= 1e-5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h", [0.0, -1e-4])
    def test_fd_residual_checks_its_step_before_dividing(self, h):
        B = barenblatt_function(3.0, 2, 1.0)
        with pytest.raises(DomainError, match="need 0 < h < r/2"):
            residual(B, 3.0, 2, np.array([0.1, 0.2]), np.array([1.0, 1.5]),
                     method="fd", h=h)

    def test_closed_residual_vanishes_inside(self):
        for p, n in [(3.0, 2), (4.0, 1), (1.9, 2)]:
            B = barenblatt_function(p, n, 1.0)
            rs = barenblatt_support_radius(1.0, p, n, 1.0)
            r = 0.4 * min(rs, 3.0)
            assert abs(residual(B, p, n, r, 1.0, method="closed")) <= 1e-12

    def test_derivative_consistency(self):
        B = barenblatt_function(3.0, 2, 1.0)
        rs = barenblatt_support_radius(1.0, 3.0, 2, 1.0)
        pts = [(0.1 * rs, 1.0), (0.5 * rs, 1.3), (0.8 * rs, 0.7)]
        assert check_derivatives(B, pts) <= 1e-6


class TestResidual:
    def test_constant_is_solution(self):
        zero = lambda r, t: np.zeros(np.broadcast(np.asarray(r), np.asarray(t)).shape)
        const = SpaceTimeFunction(
            fn=lambda r, t: 3.0 + 0.0 * np.asarray(r, dtype=float),
            dt=zero, dr=zero, drr=zero,
        )
        assert residual(const, 3.0, 2, 0.5, -0.5, method="closed") == 0.0
        assert abs(residual(const, 1.5, 2, 0.5, -0.5, method="fd")) == 0.0

    def test_domain_guard(self):
        u = SpaceTimeFunction(
            fn=lambda r, t: np.asarray(r, dtype=float),
            in_domain=lambda r, t: np.asarray(t) < 0,
        )
        with pytest.raises(DomainError):
            residual(u, 3.0, 2, 0.5, 1.0, method="fd")

    def test_missing_closed_forms(self):
        u = SpaceTimeFunction(fn=lambda r, t: np.asarray(r, dtype=float))
        with pytest.raises(DomainError):
            residual(u, 3.0, 2, 0.5, -0.5, method="closed")

    def test_unknown_method_rejected(self):
        u = SpaceTimeFunction(fn=lambda r, t: np.asarray(r, dtype=float))
        with pytest.raises(ValueError, match="unknown method 'x'"):
            residual(u, 3.0, 2, 0.5, -0.5, method="x")


class TestJet:
    @staticmethod
    def formula(r, t):
        return (2.0 + r * r * t) ** 1.5 / (1.0 - t) - 3.0 * lift(t, np.exp, np.exp) * r

    def test_derivatives_match_differences(self):
        u = SpaceTimeFunction.from_formula(self.formula)
        pts = [(0.3, -0.5), (1.2, -0.1), (0.7, -2.0)]
        assert check_derivatives(u, pts) <= 1e-6
        r, t = 0.7, -0.5
        g = 2.0 + r * r * t
        assert u.dr(r, t) == pytest.approx(
            1.5 * g ** 0.5 * 2.0 * r * t / (1.0 - t) - 3.0 * math.exp(t), rel=1e-14)
        assert u.drr(r, t) == pytest.approx(
            (0.75 * g ** -0.5 * (2.0 * r * t) ** 2 + 3.0 * g ** 0.5 * t) / (1.0 - t),
            rel=1e-14)

    def test_values_are_the_formula_on_arrays(self):
        R, T = np.meshgrid(np.linspace(0.1, 1.0, 7), np.linspace(-1.0, -0.1, 5))
        u = SpaceTimeFunction.from_formula(self.formula)
        assert np.array_equal(u.fn(R, T), self.formula(R, T))
        assert isinstance(u.fn(0.5, -0.5), float)

    def test_branches_carry_their_own_derivatives(self):
        u = SpaceTimeFunction.from_formula(
            lambda r, t: where(r > 0.6, 1.0 + 0.0 * r, minimum(r * r, 0.25)))
        r = np.array([0.3, 0.55, 0.8])
        ut, ur, urr = u.derivatives(r, -1.0)
        assert list(ur) == [0.6, 0.0, 0.0]
        assert list(urr) == [2.0, 0.0, 0.0]
        assert list(ut) == [0.0, 0.0, 0.0]

    def test_r_free_formula_has_zero_radial_derivatives_of_full_shape(self):
        u = SpaceTimeFunction.from_formula(lambda r, t: (-t) ** 0.5)
        ut, ur, urr = u.derivatives(np.linspace(0.1, 1.0, 4), np.full(4, -0.25))
        assert ut.tolist() == [-1.0] * 4
        assert ur.shape == urr.shape == (4,)
        assert not ur.any() and not urr.any()
        assert residual(u, 3.0, 2, 0.5, -0.25) == -1.0


class TestBlocks:
    """Formula fields run a block of rows at a time on a worker pool; the
    caller's context, warnings and errors must cross it unchanged."""

    R, T = np.meshgrid(np.linspace(0.1, 1.0, 40), np.linspace(-1.0, -0.1, 50))

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(calculus, "_BLOCK", 400)       # 5 blocks of 10 rows

    def test_caller_errstate_holds_in_every_block(self):
        u = SpaceTimeFunction.from_formula(lambda r, t: (r * 1e200) * (r * 1e200) - t)
        with np.errstate(over="ignore"):
            assert np.isinf(u.fn(self.R, self.T)).all()
            assert np.isinf(u.dr(self.R, self.T)).all()
        with pytest.raises(RuntimeWarning, match="overflow"):
            u.fn(self.R, self.T)

    def test_error_in_a_block_reaches_the_caller_unchanged(self):
        error = DomainError("no value past r = 0.5")

        def formula(r, t):
            if np.any(r > 0.5):
                raise error
            return r - t

        u = SpaceTimeFunction.from_formula(formula)
        with pytest.raises(DomainError) as raised:
            u.fn(self.R, self.T)
        assert raised.value is error
        with pytest.raises(DomainError) as raised:
            residual(u, 3.0, 2, self.R, self.T)
        assert raised.value is error

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_gets_its_own_workers(self):
        u = SpaceTimeFunction.from_formula(lambda r, t: r * r - t)
        expected = u.fn(self.R, self.T)            # the pool's threads now run

        def child():
            sys.exit(0 if np.array_equal(u.fn(self.R, self.T), expected) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung and proc.exitcode == 0

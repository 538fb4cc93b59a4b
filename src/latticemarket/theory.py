"""Critical exponents and two-regime predictions for the price zero mode.

The two-point function Delta(t) = <pi(0) pi(t)> of the price deviation
is modeled in two regimes controlled by the correlation time tau and the
exponent combination kappa = (2 - eta) / z:

    scaling      (t << tau):  Delta(t) = (tau^kappa - |t|^kappa) / 2
    exponential  (t >> tau):  Delta(t) = (tau^kappa / 2) e^(-|t|/tau)

Both share the static limit Delta(0) = tau^kappa / 2.  Every observable
prediction descends from Delta:

    return autocorrelation   <R(t) R(0)>        = -Delta''(t)
    trend/return correlation <phi_w R>          = -2 w^(3/2) Int zeta e^(-w zeta) Delta''(zeta) dzeta
    trend variances          <phi_w^2>, <phitilde_T^2>
    adjacent-window corr.    -(1/T) [Delta(0) - 2 Delta(T) + Delta(2T)]
    Hurst exponent           H = kappa / 2

An explicitly heuristic "matched" regime glues the power law to a
rescaled exponential tail at a chosen t*; it exists for exploration and
is labeled non-canonical wherever it surfaces.  Every prediction is in
closed form in all three regimes: the matched Laplace integrals split at
t* into a lower incomplete gamma function and an elementary exponential
tail, so no integral is evaluated numerically.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when an evaluation leaves its regime's domain of validity."""


# Literature estimates of the critical exponents for the scalar
# (Z2-symmetric) universality class by lattice dimension.  Columns:
# (dimension, eta, z, kappa).  The printed kappa at D = 3.5 is truncated
# (1.998/2.001 = 0.99850..., printed 0.998), so the printed column is
# carried verbatim as data while CriticalExponents stores the
# identity-exact kappa = (2 - eta) / z.
PUBLISHED_EXPONENT_TABLE: tuple[tuple[float, float, float, float], ...] = (
    (4.0, 0.00, 2.000, 1.000),
    (3.5, 0.002, 2.001, 0.998),
    (3.0, 0.036, 2.024, 0.970),
    (2.5, 0.106, 2.071, 0.915),
    (2.0, 0.250, 2.167, 0.808),
    (1.5, 0.523, 2.352, 0.628),
)

# z(eta) approximation slope for the interpolated-dimension map.
_Z_SLOPE = 2.0 / 3.0

DIMENSION_RANGE = (1.5, 4.0)


@dataclass(frozen=True)
class CriticalExponents:
    """(eta, z, kappa) bundle for one network dimension.

    kappa always satisfies kappa = (2 - eta) / z to 1e-9.
    """
    dimension: float
    eta: float
    z: float
    kappa: float

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError("z must be positive")
        if abs(self.kappa - (2.0 - self.eta) / self.z) > 1e-9:
            raise ValueError("kappa must equal (2 - eta) / z to 1e-9")
        if self.dimension <= 4.0 and not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must lie in (0, 1] for D <= 4")


def critical_exponent_table() -> list[CriticalExponents]:
    """Literature exponent rows with identity-exact kappa, D descending."""
    return [
        CriticalExponents(dimension=d, eta=eta, z=z, kappa=(2.0 - eta) / z)
        for d, eta, z, _ in PUBLISHED_EXPONENT_TABLE
    ]


@functools.cache
def _eta_interpolant():
    """Monotone cubic (PCHIP) eta(D) through the published nodes.

    Interior slopes: weighted harmonic mean of the secants (Fritsch &
    Butland 1984); end slopes: one-sided three-point rule with its shape
    guards (Fritsch & Carlson 1980).  This is scipy's PchipInterpolator,
    summed in the same order.
    """
    xs, ys = zip(*[r[:2] for r in sorted(PUBLISHED_EXPONENT_TABLE)])
    hs = [b - a for a, b in zip(xs, xs[1:])]
    ms = [(b - a) / h for a, b, h in zip(ys, ys[1:], hs)]

    def end_slope(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if d * m0 <= 0.0:
            return 0.0
        if m0 * m1 <= 0.0 and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    slopes = [end_slope(hs[0], hs[1], ms[0], ms[1])]
    for h0, h1, m0, m1 in zip(hs, hs[1:], ms, ms[1:]):
        w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
        slopes.append(0.0 if m0 * m1 <= 0.0
                      else 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
    slopes.append(end_slope(hs[-1], hs[-2], ms[-1], ms[-2]))
    pieces = []
    for i, h in enumerate(hs):
        t = (slopes[i] + slopes[i + 1] - 2.0 * ms[i]) / h
        pieces.append((ys[i], slopes[i], (ms[i] - slopes[i]) / h - t, t / h))

    def eta(d: float) -> float:
        i = min(max(bisect.bisect_right(xs, d) - 1, 0), len(hs) - 1)
        c0, c1, c2, c3 = pieces[i]
        s = d - xs[i]
        return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    return eta


def exponents_for_dimension(dimension: float) -> CriticalExponents:
    """Exponents at a (possibly fractal) dimension in [1.5, 4].

    eta is interpolated monotonically (shape-preserving cubic) through
    the published nodes, z uses the approximation z = 2 + (2/3) eta, and
    kappa = (2 - eta) / z.  At the nodes eta is exact and z agrees with
    the published values within their own rounding (|dz| <= 0.005).
    """
    lo, hi = DIMENSION_RANGE
    if not lo <= dimension <= hi:
        raise ValueError(f"dimension must lie in [{lo}, {hi}]")
    eta = _eta_interpolant()(float(dimension))
    z = 2.0 + _Z_SLOPE * eta
    return CriticalExponents(dimension=float(dimension), eta=eta, z=z,
                             kappa=(2.0 - eta) / z)


def kappa_for_dimension(dimension: float) -> float:
    return exponents_for_dimension(dimension).kappa


def dimension_for_kappa(kappa: float) -> float:
    """Invert the kappa(D) map by bisection on the monotone interpolant.

    Valid for kappa between kappa(1.5) and 1; the bracket is narrowed to
    1e-13 in D.  kappa(D) is flat at D = 4 (eta'(4) = 0), so within 1e-3
    of D = 4 one rounding of kappa moves the returned D by up to ~1e-7.
    """
    kappa_min = kappa_for_dimension(DIMENSION_RANGE[0])
    if not kappa_min <= kappa <= 1.0:
        raise ValueError(
            f"kappa must lie in [{kappa_min:.6f}, 1.0], got {kappa}")
    if kappa == 1.0:
        return DIMENSION_RANGE[1]
    lo, hi = DIMENSION_RANGE
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if kappa_for_dimension(mid) < kappa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predicted_hurst(dimension: float) -> float:
    """Mono-scaling Hurst exponent H = kappa(D) / 2."""
    return kappa_for_dimension(dimension) / 2.0


# -- propagator model ----------------------------------------------------

_REGIMES = ("scaling", "exponential", "matched")


@dataclass(frozen=True)
class PropagatorModel:
    """(tau, kappa, regime) parametrization of Delta(t).

    regime "scaling" is the pure power law, valid for |t| <= tau;
    "exponential" is the globally defined exponential decay; "matched"
    is a heuristic splice: scaling up to t_star, then an exponential
    tail rescaled for continuity.  Delta(0) = tau^kappa / 2 throughout.
    """
    tau: float
    kappa: float
    regime: str = "scaling"
    t_star: float | None = None

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must lie in (0, 1]")
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}")
        if self.regime == "matched":
            if self.t_star is None or not 0.0 < self.t_star < self.tau:
                raise ValueError("matched regime needs 0 < t_star < tau")
        elif self.t_star is not None:
            raise ValueError("t_star only applies to the matched regime")


def _delta_scaling(model: PropagatorModel, t: float) -> float:
    """(tau^kappa - |t|^kappa)/2 as -(tau^kappa/2) expm1(kappa ln(|t|/tau)):
    the two powers differ by about kappa ln(tau/|t|) relative, so their
    difference would cancel at small kappa."""
    half = 0.5 * model.tau ** model.kappa
    if t == 0:
        return half
    return -half * math.expm1(model.kappa * math.log(abs(t) / model.tau))


def propagator(model: PropagatorModel, t: float) -> float:
    """Delta(t); even in t, non-increasing in |t| on its domain."""
    at = abs(t)
    if model.regime == "scaling":
        if at > model.tau:
            raise DomainError(
                f"scaling regime requires |t| <= tau = {model.tau}")
        return _delta_scaling(model, at)
    if model.regime == "exponential":
        return 0.5 * model.tau ** model.kappa * math.exp(-at / model.tau)
    # matched: heuristic splice, continuous at t_star
    if at <= model.t_star:
        return _delta_scaling(model, at)
    return _delta_scaling(model, model.t_star) * math.exp(
        -(at - model.t_star) / model.tau)


def propagator_derivatives(model: PropagatorModel,
                           t: float) -> tuple[float, float]:
    """(Delta'(t), Delta''(t)) for t > 0.

    scaling:      Delta' = -(kappa/2) t^(kappa-1)
                  Delta'' = (kappa(1-kappa)/2) t^(kappa-2)
    exponential:  Delta' = -(1/2) tau^(kappa-1) e^(-t/tau)
                  Delta'' = (1/2) tau^(kappa-2) e^(-t/tau)
    matched:      scaling up to t_star, then -Delta(t)/tau, Delta(t)/tau^2
    """
    if t <= 0:
        raise DomainError("derivatives are defined for t > 0")
    k, tau, t = model.kappa, model.tau, float(t)
    if model.regime == "scaling" and t > tau:
        raise DomainError(f"scaling regime requires t <= tau = {tau}")
    if model.regime == "exponential":
        e = float(np.exp(-t / tau))
        return -0.5 * tau ** (k - 1.0) * e, 0.5 * tau ** (k - 2.0) * e
    if model.regime == "matched" and t > model.t_star:
        d = _delta_scaling(model, model.t_star) * float(
            np.exp(-(t - model.t_star) / tau))
        return -d / tau, d / tau ** 2
    return -0.5 * k * t ** (k - 1.0), 0.5 * k * (1.0 - k) * t ** (k - 2.0)


def predicted_return_autocorrelation(model: PropagatorModel,
                                     t: float) -> float:
    """<R(t) R(0)> = -Delta''(t): non-positive, strictly so for kappa < 1.

    The overall proportionality constant is set to one, so absolute
    scales are comparable only after normalization.
    """
    return -propagator_derivatives(model, t)[1]


# -- matched-regime Laplace integrals ---------------------------------------
# The matched Delta' and Delta'' are the power law up to t_star and
# -Delta/tau and Delta/tau^2 past it, so each Laplace integral over
# (0, inf) splits at t_star into a lower incomplete gamma function and an
# elementary exponential tail.  Both pieces are non-negative: nothing
# cancels.

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _lower_gamma(s: float, x: float) -> float:
    """gamma(s, x) = Int_0^x t^(s-1) e^(-t) dt for s > 0, x > 0.

    Below x = s + 1 the series (DLMF 8.7.1)
    x^s e^(-x) Sum_n x^n / (s (s+1) ... (s+n)) of positive terms; from
    there Gamma(s) less the continued fraction (DLMF 8.9.2)
    Gamma(s, x) = x^s e^(-x) / (x + 1 - s - 1 (1-s) / (x + 3 - s - ...)),
    summed by the modified Lentz method (Numerical Recipes, section 6.2).
    For s <= 2 that takes under 100 terms, and Gamma(s, x) is at most a
    fifth of Gamma(s), so the difference loses no digits.
    """
    if x < s + 1.0:
        term = total = 1.0 / s
        n = s
        while term > _EPS * total:
            n += 1.0
            term *= x / n
            total += term
        return total * x ** s * math.exp(-x)
    b = x + 1.0 - s
    c, d = 1.0 / _TINY, 1.0 / b
    h = d
    for i in range(1, 200):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            # x^s e^(-x) as one exponential: x^s alone may overflow
            return math.gamma(s) - h * math.exp(s * math.log(x) - x)
    raise ArithmeticError(f"Gamma({s}, {x}): continued fraction unresolved")


def _matched_tail(model: PropagatorModel, omega: float) -> float:
    """Int_t_star^inf z e^(-w z) Delta(z) dz
    = Delta(t_star) e^(-w t_star) (t_star/a + 1/a^2), a = w + 1/tau."""
    t_star = model.t_star
    a = omega + 1.0 / model.tau
    return _delta_scaling(model, t_star) * math.exp(-omega * t_star) \
        * (t_star / a + 1.0 / (a * a))


def predicted_trend_return_correlation(model: PropagatorModel,
                                       omega: float) -> float:
    """<phi_w R> = -2 w^(3/2) Int_0^inf zeta e^(-w zeta) Delta''(zeta) dzeta.

    The pure regimes have Laplace/Gamma closed forms,

        scaling:      -2 w^(3/2) (kappa(1-kappa)/2) Gamma(kappa) w^(-kappa)
        exponential:  -2 w^(3/2) (tau^(kappa-2)/2) / (w + 1/tau)^2;

    the matched regime splits at t_star (gamma the lower incomplete
    gamma function, tail = Int_t_star^inf z e^(-w z) Delta(z) dz, which
    _matched_tail gives in closed form):

        matched:      -2 w^(3/2) [(kappa(1-kappa)/2) gamma(kappa, w t_star)
                      w^(-kappa) + tail / tau^2].
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    k, tau = model.kappa, model.tau
    if model.regime == "scaling":
        return -2.0 * omega ** 1.5 * 0.5 * k * (1.0 - k) \
            * math.gamma(k) * omega ** (-k)
    if model.regime == "exponential":
        return -2.0 * omega ** 1.5 * 0.5 * tau ** (k - 2.0) \
            / (omega + 1.0 / tau) ** 2
    return -2.0 * omega ** 1.5 * (
        0.5 * k * (1.0 - k) * _lower_gamma(k, omega * model.t_star)
        * omega ** (-k) + _matched_tail(model, omega) / tau ** 2)


def _check_variance_domain(model: PropagatorModel, horizon: float) -> None:
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    if model.regime == "scaling" and horizon > model.tau / 4.0:
        raise DomainError("scaling-regime variances require T <= tau/4 "
                          f"(T={horizon}, tau={model.tau})")


def predicted_trend_variance(model: PropagatorModel, horizon: float,
                             estimator: str = "phi") -> float:
    """Variance of the trend strength at horizon T (w = 2/T).

    estimator "tilde" is the step-window strength with the exact algebra
    <phitilde_T^2> = (2/T) (Delta(0) - Delta(T)) = -(2/T) Int_0^T Delta';
    estimator "phi" is

        <phi_w^2> = -2 w^3 Int_0^inf du e^(-w u) Int_0^u dv v Delta'(v)
                  = -2 w^2 Int_0^inf dv v e^(-w v) Delta'(v),

    a single Laplace integral (swap the order of integration).  The pure
    regimes have closed forms (scaling: T^(kappa-1) for tilde and
    kappa Gamma(kappa+1) w^(1-kappa) for phi; exponential:
    -(tau/T) expm1(-T/tau) tau^(kappa-1) and w^2/(w + 1/tau)^2
    tau^(kappa-1)).  The matched regime's tilde variance is (2/T) g(T),
    g as in predicted_adjacent_window_correlation; its phi variance splits
    at t_star as in predicted_trend_return_correlation,
    kappa gamma(kappa+1, w t_star) w^(1-kappa) + 2 w^2 tail / tau.
    In the scaling regime T <= tau/4 is enforced; beyond that the power
    law is not a valid description and a DomainError is raised.
    """
    _check_variance_domain(model, horizon)
    if estimator not in ("phi", "tilde"):
        raise ValueError("estimator must be 'phi' or 'tilde'")
    k, tau = model.kappa, model.tau
    omega = 2.0 / horizon
    if model.regime == "scaling":
        if estimator == "tilde":
            return horizon ** (k - 1.0)
        return k * math.gamma(k + 1.0) * omega ** (1.0 - k)
    if model.regime == "exponential":
        if estimator == "tilde":
            return (tau / horizon) * -math.expm1(-horizon / tau) \
                * tau ** (k - 1.0)
        return omega ** 2 / (omega + 1.0 / tau) ** 2 * tau ** (k - 1.0)
    if estimator == "tilde":        # (2/T) g(T), g(t) = Delta(0) - Delta(t)
        if horizon <= model.t_star:
            return horizon ** (k - 1.0)
        return 2.0 / horizon * (0.5 * model.t_star ** k - _delta_scaling(
            model, model.t_star) * math.expm1(-(horizon - model.t_star) / tau))
    # w^(1-kappa), not w^2 w^(-kappa-1): 1 - kappa is exact, -kappa - 1
    # is rounded, and its error grows with |ln w|
    return k * _lower_gamma(k + 1.0, omega * model.t_star) \
        * omega ** (1.0 - k) \
        + 2.0 * omega ** 2 * _matched_tail(model, omega) / tau


def predicted_adjacent_window_correlation(model: PropagatorModel,
                                          horizon: float) -> float:
    """Correlation of phitilde over adjacent windows of length T.

    -(1/T) [Delta(0) - 2 Delta(T) + Delta(2T)], evaluated without the
    cancellation of three values near tau^kappa/2: where the power law
    holds up to 2T (scaling, and matched with 2T <= t_star) as
    (T^(kappa-1)/2)(2^kappa - 2), negative for kappa < 1 and zero at
    kappa = 1; in the exponential regime as
    -(tau^kappa / 2T) expm1(-T/tau)^2.  The matched regime past that,
    T > t_star/2, is -(2 g(T) - g(2T))/T with g(t) = Delta(0) - Delta(t)
    in closed form: t^kappa/2 up to t_star, then
    t_star^kappa/2 - Delta(t_star) expm1(-(t - t_star)/tau).  For
    T > t_star the two expm1 terms merge into
    E^2 + expm1(-t_star/tau) (1 + E)^2, E = expm1(-(T - t_star)/tau), so
    no term of order T/tau cancels.  At kappa = 1, t_star^kappa/2 still
    cancels against the tail's first order (about 2e-6 relative at
    t_star = 10, tau = 1e12).
    """
    _check_variance_domain(model, horizon)
    k, tau, t_star = model.kappa, model.tau, model.t_star
    if model.regime == "exponential":
        return -0.5 * tau ** k * math.expm1(-horizon / tau) ** 2 / horizon
    if model.regime == "scaling" or 2.0 * horizon <= t_star:
        return 0.5 * horizon ** (k - 1.0) * (2.0 ** k - 2.0)
    d_star = _delta_scaling(model, t_star)
    if horizon <= t_star:
        curvature = horizon ** k - 0.5 * t_star ** k \
            + d_star * math.expm1(-(2.0 * horizon - t_star) / tau)
    else:
        e = math.expm1(-(horizon - t_star) / tau)
        curvature = 0.5 * t_star ** k + d_star * (
            e * e + math.expm1(-t_star / tau) * (1.0 + e) ** 2)
    return -curvature / horizon

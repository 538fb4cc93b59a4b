"""Double-exponential quadrature of the propagator's Laplace integrals.

A test-side reference: the package evaluates every prediction in closed
form, and the tests hold those closed forms against this independent
numerical integration of the regime derivatives, and this rule in turn
against QUADPACK.  Test modules import it from their own directory,
which pytest puts on sys.path.
"""

import math

import numpy as np

from latticemarket.theory import PropagatorModel, _delta_scaling


class QuadratureError(ValueError):
    """Raised when the double-exponential rule does not resolve an integral."""


def _derivatives(model: PropagatorModel, t):
    """(Delta'(t), Delta''(t)) for t > 0, elementwise, with no domain check.

    t is a float or an array.  The scaling power law is used past tau as
    well; the quadratures below integrate it over (0, inf).
    """
    k = model.kappa
    tau = model.tau
    if model.regime == "exponential":
        e = np.exp(-t / tau)
        return (-0.5 * tau ** (k - 1.0) * e, 0.5 * tau ** (k - 2.0) * e)
    first = -0.5 * k * t ** (k - 1.0)
    second = 0.5 * k * (1.0 - k) * t ** (k - 2.0)
    if model.regime == "matched":
        tail = t > model.t_star
        d = _delta_scaling(model, model.t_star) * np.exp(
            -(t - model.t_star) / tau)
        first = np.where(tail, -d / tau, first)
        second = np.where(tail, d / tau ** 2, second)
    return first, second


# -- quadrature ------------------------------------------------------------
# Every quadrature integrates the regime derivatives in analytic form
# (_derivatives): the scaling power law is extended past tau (its
# validity is a modeling statement, T << tau, enforced by the variance
# domain checks; the integrals over (0, inf) converge because of the
# e^(-w zeta) weight).  The phi variance
#
#     -2 w^3 Int_0^inf du e^(-w u) Int_0^u dv v Delta'(v)
#   = -2 w^2 Int_0^inf dv v e^(-w v) Delta'(v)
#
# is the single Laplace integral on the right, by swapping the order of
# integration.

# Double-exponential nodes (Takahasi & Mori 1974): t = j h, |t| <= 5.25,
# u = (pi/2) sinh t.  tanh-sinh maps (0, 1) by x = 1/(1 + e^(-2u)) and
# exp-sinh maps (0, inf) by x = e^(2u); both put a node e^(-299) from the
# finite end, which absorbs the t^(kappa-1) singularity at 0.
_DE_H = 1.0 / 64.0
_DE_T = np.arange(-336, 337) * _DE_H
_DE_U = 0.5 * math.pi * np.sinh(_DE_T)
_DE_DU = 0.5 * math.pi * np.cosh(_DE_T)
_TANH_SINH = (1.0 / (1.0 + np.exp(-2.0 * _DE_U)),
              _DE_DU / (2.0 * np.cosh(_DE_U) ** 2))
_EXP_SINH = (np.exp(2.0 * _DE_U), 2.0 * _DE_DU * np.exp(2.0 * _DE_U))
# At a t^(kappa-1) end the integral beyond the last node is about
# 1/(4.7 kappa) times that node's term, hence the tighter end tolerance.
_QUAD_RTOL = 1e-10
_QUAD_END_RTOL = 1e-12


def _quad(f, model: PropagatorModel, omega: float,
          hi: float = math.inf) -> float:
    """Integral of f (vectorized) over (0, hi), split at t_star if matched,
    and also at 32/omega when that is below t_star.

    f decays as e^(-omega z), so past 32/omega it keeps e^-32 of its
    weight: one tanh-sinh rule spread over (0, t_star) with 1/omega much
    smaller than t_star would put too few nodes where the weight is.
    Finite pieces use tanh-sinh, a piece to infinity exp-sinh scaled by
    the decay length 1/(omega + 1/tau).  Every other node gives the sum
    at step 2h.  If it differs from the step-h sum by more than 1e-10 of
    the integral, or an end term exceeds 1e-12 of it, the rule has not
    resolved f and QuadratureError is raised.
    """
    knees = [model.t_star] if model.regime == "matched" else []
    if knees and 32.0 / omega < model.t_star:
        knees.insert(0, 32.0 / omega)
    edges = [0.0] + [b for b in knees if b < hi] + [hi]
    fine = coarse = ends = 0.0
    for a, b in zip(edges, edges[1:]):
        if math.isinf(b):
            width, (x, w) = 1.0 / (omega + 1.0 / model.tau), _EXP_SINH
        else:
            width, (x, w) = b - a, _TANH_SINH
        terms = (width * _DE_H) * w * f(a + width * x)
        fine += float(terms.sum())
        coarse += 2.0 * float(terms[::2].sum())
        ends = max(ends, abs(float(terms[0])), abs(float(terms[-1])))
    scale = abs(fine)
    if not (abs(fine - coarse) <= _QUAD_RTOL * scale
            and ends <= _QUAD_END_RTOL * scale):
        raise QuadratureError(
            f"quadrature over (0, {hi}) did not converge for {model}: steps "
            f"h and 2h give {fine!r} and {coarse!r}, end terms {ends:.3g}")
    return fine


def _quad_trend_return_correlation(model: PropagatorModel,
                                   omega: float) -> float:
    """<phi_w R> by double-exponential quadrature (_quad)."""
    return -2.0 * omega ** 1.5 * _quad(
        lambda z: z * np.exp(-omega * z) * _derivatives(model, z)[1],
        model, omega)


def _quad_trend_variance(model: PropagatorModel, horizon: float,
                         estimator: str) -> float:
    """Trend variance by double-exponential quadrature (_quad)."""
    omega = 2.0 / horizon
    if estimator == "tilde":
        # (2/T)(Delta(0) - Delta(T)) = -(2/T) Int_0^T Delta'(v) dv
        return -2.0 / horizon * _quad(lambda v: _derivatives(model, v)[0],
                                      model, omega, horizon)
    return -2.0 * omega ** 2 * _quad(
        lambda v: v * np.exp(-omega * v) * _derivatives(model, v)[0],
        model, omega)

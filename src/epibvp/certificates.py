"""Executable existence / nonexistence certificates and the monotone solver.

Each certificate evaluates a closed-form inequality whose success settles
solvability for the given deposition rate:

* lower-function certificates: the explicit candidates
      alpha_D(t) = -48 t (1 - sqrt(2t)),   alpha_N(t) = -6 t (2 - sqrt(2t))
  are lower functions whenever their slack
      alpha'' - alpha^2/(8 t^2) - lam/2
  is nonnegative on (0, 1/2]; together with the zero upper function this
  certifies existence.  The slack factors exactly (see ``slack_dirichlet`` /
  ``slack_navier``) into a term that is >= 0 and vanishes at t = 1/8
  (Dirichlet) or t = 1/2 (Navier), plus the constant 72 - lam/2 or
  9/2 - lam/2.  The minimum slack is that constant, so the verdict is
  exact: existence for lam <= 144 (Dirichlet) or lam <= 9 (Navier).
* nonexistence certificates: any solution forces v(t) = -u(t)/t to majorize
  c0 (1/2 - t) with c0 the smallest fixed point of  c -> c^2/384 + lam/4,
  which exists only for lam <= 384.  Feeding that bound back through the
  integral representation yields, for the Dirichlet case, the criterion
  "max_t f(lam, t) <= 1" violated at lam = 307; for the Navier case a
  quadratic with discriminant 1 - 11 lam / 128 that loses its real roots
  for lam > 128/11.
* universal bound: no solution of either kind exists beyond 64 pi^2.

``truncated_monotone_solve`` realizes the constructive side: it solves the
equation on shrinking truncations [t_n, 1/2] inside the strip
[alpha, 0] with a damped, clipped Newton iteration on a second-order
finite-difference grid, and returns the finest-truncation solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError, EpibvpError, RelaxationError
from .model import BoundaryKind, ProblemSpec, SeriesLaunch, Trajectory, _golden_min, check_lam

F_TOL = 1e-9
_F_GRID_N = 100000
_FIXED_POINT_CAP = 384.0
# fixed-point iteration of c -> c^2/384 + lam/4: stop on an increment
# below _C0_STEP_TOL or after _C0_MAX_ITER map steps
_C0_STEP_TOL = 1e-14
_C0_MAX_ITER = 10 ** 6
# damped Newton of the monotone solver: iteration cap and update size
# that declares convergence
_NEWTON_MAX_ITER = 80
_NEWTON_XTOL = 1e-11


class CertificateKind(Enum):
    LOWER_DIRICHLET = "LowerDirichlet"
    LOWER_NAVIER = "LowerNavier"
    NONEXIST_DIRICHLET = "NonexistDirichlet"
    NONEXIST_NAVIER = "NonexistNavier"
    UNIVERSAL = "Universal"


class Verdict(Enum):
    EXISTENCE = "Existence"
    NONEXISTENCE = "Nonexistence"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Certificate:
    """Verdict of one certificate run plus its numeric witness data.

    Existence verdicts come only from Lower* kinds, Nonexistence only from
    Nonexist*/Universal kinds; every verdict carries a witness.
    """

    kind: CertificateKind
    lam: float
    verdict: Verdict
    witness: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "lambda": self.lam,
            "verdict": self.verdict.value,
            "witness": dict(self.witness),
        }


# ---------------------------------------------------------------------------
# explicit lower-function candidates and their slack factorizations
# ---------------------------------------------------------------------------

def alpha_dirichlet(t):
    """Dirichlet lower-function candidate -48 t (1 - sqrt(2t))."""
    t = np.asarray(t, dtype=float)
    out = -48.0 * t * (1.0 - np.sqrt(2.0 * t))
    return float(out) if out.ndim == 0 else out


def alpha_dirichlet_dd(t):
    """Second derivative 36 sqrt(2) / sqrt(t) of the Dirichlet candidate."""
    t = np.asarray(t, dtype=float)
    out = 36.0 * math.sqrt(2.0) / np.sqrt(t)
    return float(out) if out.ndim == 0 else out


def alpha_navier(t):
    """Navier lower-function candidate -6 t (2 - sqrt(2t))."""
    t = np.asarray(t, dtype=float)
    out = -6.0 * t * (2.0 - np.sqrt(2.0 * t))
    return float(out) if out.ndim == 0 else out


def alpha_navier_dd(t):
    """Second derivative 9 / sqrt(2t) of the Navier candidate."""
    t = np.asarray(t, dtype=float)
    out = 9.0 / np.sqrt(2.0 * t)
    return float(out) if out.ndim == 0 else out


def slack_dirichlet(t, lam: float):
    """Factorized slack of the Dirichlet candidate.

    alpha'' - alpha^2/(8 t^2) - lam/2
        = 72/sqrt(2t) * (1 - sqrt(2t)) * (1 - 2 sqrt(2t))^2 + (72 - lam/2).

    The grid-free factor vanishes at t = 1/8 and t = 1/2, so the constant
    72 - lam/2 decides the verdict: nonnegative up to lam = 144.
    """
    t = np.asarray(t, dtype=float)
    q = np.sqrt(2.0 * t)
    out = 72.0 / q * (1.0 - q) * (1.0 - 2.0 * q) ** 2 + (72.0 - lam / 2.0)
    return float(out) if out.ndim == 0 else out


def slack_navier(t, lam: float):
    """Factorized slack of the Navier candidate.

    alpha'' - alpha^2/(8 t^2) - lam/2
        = 9/(2 sqrt(2t)) * (2 - sqrt(2t)) * (1 - sqrt(2t))^2 + (9/2 - lam/2),

    with the grid-free factor vanishing at t = 1/2 only.
    """
    t = np.asarray(t, dtype=float)
    q = np.sqrt(2.0 * t)
    out = 9.0 / (2.0 * q) * (2.0 - q) * (1.0 - q) ** 2 + (4.5 - lam / 2.0)
    return float(out) if out.ndim == 0 else out


def lower_function_dirichlet(lam: float) -> Certificate:
    """Existence certificate from the Dirichlet lower-function candidate.

    The minimum slack over (0, 1/2] is exactly 72 - lam/2, attained at
    t = 1/8 (see ``slack_dirichlet``), so existence holds iff lam <= 144.
    """
    check_lam(lam)
    min_slack = 72.0 - lam / 2.0
    return Certificate(
        kind=CertificateKind.LOWER_DIRICHLET,
        lam=lam,
        verdict=Verdict.EXISTENCE if min_slack >= 0.0 else Verdict.INCONCLUSIVE,
        witness={"min_slack": min_slack, "argmin_t": 0.125},
    )


def lower_function_navier(lam: float) -> Certificate:
    """Existence certificate from the Navier lower-function candidate.

    The minimum slack over (0, 1/2] is exactly 9/2 - lam/2, attained at
    t = 1/2 (see ``slack_navier``), so the slack condition holds iff
    lam <= 9.  Also checks the endpoint inequality alpha(1/2) >= alpha'(1/2),
    which the candidate meets with equality (both sides are -3, exactly in
    floating point too).
    """
    check_lam(lam)
    min_slack = 4.5 - lam / 2.0
    # alpha(1/2) = -3 and alpha'(t) = -12 + 9 sqrt(2 t) gives alpha'(1/2) = -3
    endpoint_gap = alpha_navier(0.5) - (-12.0 + 9.0 * math.sqrt(2.0 * 0.5))
    ok = min_slack >= 0.0 and endpoint_gap >= 0.0
    return Certificate(
        kind=CertificateKind.LOWER_NAVIER,
        lam=lam,
        verdict=Verdict.EXISTENCE if ok else Verdict.INCONCLUSIVE,
        witness={
            "min_slack": min_slack,
            "argmin_t": 0.5,
            "endpoint_gap": endpoint_gap,
        },
    )


# ---------------------------------------------------------------------------
# fixed point of c -> c^2/384 + lam/4 and the nonexistence criteria
# ---------------------------------------------------------------------------

def c0_closed_form(lam: float) -> float:
    """Smallest fixed point 192 (1 - sqrt(1 - lam/384)) of the slope map."""
    if not 0.0 <= lam <= _FIXED_POINT_CAP:
        raise DomainError(f"closed form requires 0 <= lam <= 384, got {lam}")
    return 192.0 * (1.0 - math.sqrt(1.0 - lam / _FIXED_POINT_CAP))


def fixed_point_c0(lam: float):
    """Iterate c_1 = lam/4, c_{n+1} = c_n^2/384 + lam/4 to its limit.

    The sequence is non-decreasing and bounded by 192 for lam <= 384 (it is
    checked to be so); the returned value is polished by Newton on the fixed
    point equation, which matters only near lam = 384 where the fixed point
    is a double root and the bare iteration stalls at O(1/n).

    Returns
    -------
    (c0, iterations) : tuple[float, int]
        The fixed point and the number of map iterations performed.

    Raises
    ------
    DomainError
        For lam outside [0, 384], where the fixed point turns complex.
    """
    if not 0.0 <= lam <= _FIXED_POINT_CAP:
        raise DomainError(f"fixed point exists only for 0 <= lam <= 384, got {lam}")
    c = lam / 4.0
    iterations = 0
    for iterations in range(1, _C0_MAX_ITER + 1):
        c_next = c * c / 384.0 + lam / 4.0
        if c_next < c:
            raise EpibvpError(f"fixed-point sequence decreased at step {iterations}")
        if c_next > 192.0 + 1e-9:
            raise EpibvpError(f"fixed-point sequence escaped its bound at step {iterations}")
        done = c_next - c < _C0_STEP_TOL
        c = c_next
        if done:
            break
    # Newton polish, shifted to g = c - 192 where the fixed-point equation
    # reads g^2 = 96 (384 - lam): the raw quadratic cancels catastrophically
    # near lam = 384 (double root), the shifted form is the stable Babylonian
    # iteration and costs a few steps.
    g = c - 192.0
    disc = 96.0 * (_FIXED_POINT_CAP - lam)
    for _ in range(200):
        if g == 0.0:
            break
        step = (g * g - disc) / (2.0 * g)
        g -= step
        if abs(step) <= 1e-16 * (1.0 + abs(192.0 + g)):
            break
    return 192.0 + g, iterations


def f_criterion(lam: float, t) -> float:
    """Dirichlet nonexistence functional f(lam, t).

    f = (1/2 - t)^2 t / 8 * [c^2 (1/2 - t)^3 / 4 + lam] with c the closed-form
    fixed point; any solution forces f <= 1 for all t in (0, 1/2].
    """
    c = c0_closed_form(lam)
    t = np.asarray(t, dtype=float)
    out = (0.5 - t) ** 2 * t / 8.0 * (c * c * (0.5 - t) ** 3 / 4.0 + lam)
    return float(out) if out.ndim == 0 else out


def nonexistence_dirichlet(lam: float) -> Certificate:
    """Nonexistence certificate for the Dirichlet problem.

    lam > 384 is immediately fatal (the slope fixed point required of any
    solution no longer exists); otherwise f(lam, .) is maximized by a dense
    grid plus golden-section refinement, and a maximum above 1 rules out
    solutions.  At lam = 307 the value f(307, 1/8) already exceeds 1.
    """
    check_lam(lam)
    if lam > _FIXED_POINT_CAP:
        return Certificate(
            kind=CertificateKind.NONEXIST_DIRICHLET,
            lam=lam,
            verdict=Verdict.NONEXISTENCE,
            witness={"gate": _FIXED_POINT_CAP},
        )
    c = c0_closed_form(lam)
    t = np.linspace(0.5 / _F_GRID_N, 0.5, _F_GRID_N)
    f = f_criterion(lam, t)
    i = int(np.argmax(f))
    lo = t[max(i - 1, 0)]
    hi = t[min(i + 1, len(t) - 1)]
    # golden-section refinement of the grid maximum
    f_argmax, neg_f = _golden_min(lambda x: -f_criterion(lam, x), lo, hi, 64)
    f_max = -neg_f
    if f[i] > f_max:
        f_max, f_argmax = float(f[i]), float(t[i])
    verdict = Verdict.NONEXISTENCE if f_max > 1.0 + F_TOL else Verdict.INCONCLUSIVE
    return Certificate(
        kind=CertificateKind.NONEXIST_DIRICHLET,
        lam=lam,
        verdict=verdict,
        witness={"f_max": float(f_max), "f_argmax": float(f_argmax), "c0": c},
    )


def nonexistence_navier(lam: float) -> Certificate:
    """Nonexistence certificate for the Navier problem.

    Any solution makes (11/128) x^2 - x + lam/4 <= 0 solvable in x, which
    needs discriminant 1 - 11 lam/128 >= 0; a negative discriminant, i.e.
    lam > 128/11, certifies nonexistence.  The verdict compares the double
    lam with the rational 128/11 exactly, so every lam above 128/11 is
    Nonexistence and every lam at or below it Inconclusive; the float
    discriminant is reported as the witness.
    """
    check_lam(lam)
    disc = 1.0 - 11.0 * lam / 128.0
    above = Fraction(lam) > Fraction(128, 11)
    verdict = Verdict.NONEXISTENCE if above else Verdict.INCONCLUSIVE
    return Certificate(
        kind=CertificateKind.NONEXIST_NAVIER,
        lam=lam,
        verdict=verdict,
        witness={"discriminant": disc},
    )


def universal_bound() -> float:
    """Hard upper end 64 pi^2 of any lam search, for either boundary kind."""
    return 64.0 * math.pi ** 2


def universal_certificate(lam: float) -> Certificate:
    """Nonexistence beyond the universal bound, Inconclusive below it."""
    check_lam(lam)
    bound = universal_bound()
    return Certificate(
        kind=CertificateKind.UNIVERSAL,
        lam=lam,
        verdict=Verdict.NONEXISTENCE if lam > bound else Verdict.INCONCLUSIVE,
        witness={"bound": bound, "margin": lam - bound},
    )


def certificates_for(lam: float, kind: BoundaryKind) -> list[Certificate]:
    """The full set of certificates applicable to one (lam, boundary kind)."""
    if kind is BoundaryKind.DIRICHLET:
        return [
            lower_function_dirichlet(lam),
            nonexistence_dirichlet(lam),
            universal_certificate(lam),
        ]
    return [
        lower_function_navier(lam),
        nonexistence_navier(lam),
        universal_certificate(lam),
    ]


# ---------------------------------------------------------------------------
# truncated-domain monotone solver
# ---------------------------------------------------------------------------

def _newton_truncated(lam: float, kind: BoundaryKind, t: np.ndarray, u0: np.ndarray):
    """Damped Newton for the discretized problem on one truncation level.

    Second-order central differences inside, u = 0 at the left end, and at
    the right end either u = 0 (Dirichlet) or the one-sided second-order
    form of u(1/2) = u'(1/2) (Navier).  Iterates are clipped into the strip
    [alpha, 0] after every update.

    Convergence is declared on either a small residual or a small update:
    the residual rows carry 1/h^2 factors, so their double-precision floor
    sits near |u| * eps_mach / h^2 and the residual alone cannot certify
    fine grids.
    """
    ftol = 1e-9 * (1.0 + lam)
    n = t.size
    h = t[1] - t[0]
    alpha = alpha_dirichlet(t) if kind is BoundaryKind.DIRICHLET else alpha_navier(t)
    u = np.clip(u0, alpha, 0.0)
    cN = 3.0 - 2.0 * h

    def resid(u):
        r = np.empty(n)
        r[0] = u[0]
        r[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h ** 2 - (
            u[1:-1] ** 2 / (8.0 * t[1:-1] ** 2) + lam / 2.0
        )
        if kind is BoundaryKind.DIRICHLET:
            r[-1] = u[-1]
        else:
            r[-1] = cN * u[-1] - 4.0 * u[-2] + u[-3]
        return r

    r = resid(u)
    trace = [float(np.max(np.abs(r)))]
    for _ in range(_NEWTON_MAX_ITER):
        if trace[-1] <= ftol:
            return u, trace
        if kind is BoundaryKind.DIRICHLET:
            ab = np.zeros((3, n))
            ab[1, 0] = 1.0
            ab[1, 1:-1] = -2.0 / h ** 2 - u[1:-1] / (4.0 * t[1:-1] ** 2)
            ab[1, -1] = 1.0
            ab[0, 2:] = 1.0 / h ** 2
            ab[2, :-2] = 1.0 / h ** 2
            ab[2, -2] = 0.0
            upd = solve_banded((1, 1), ab, -r)
        else:
            ab = np.zeros((4, n))
            ab[1, 0] = 1.0
            ab[1, 1:-1] = -2.0 / h ** 2 - u[1:-1] / (4.0 * t[1:-1] ** 2)
            ab[1, -1] = cN
            ab[0, 2:] = 1.0 / h ** 2
            ab[2, :-2] = 1.0 / h ** 2
            ab[2, -2] = -4.0
            ab[3, -3] = 1.0
            upd = solve_banded((2, 1), ab, -r)
        if float(np.max(np.abs(upd))) <= _NEWTON_XTOL:
            u = np.clip(u + upd, alpha, 0.0)
            return u, trace
        step = 1.0
        chosen = None
        for _ in range(30):
            cand = np.clip(u + step * upd, alpha, 0.0)
            rc = resid(cand)
            norm = float(np.max(np.abs(rc)))
            if norm < trace[-1]:
                chosen = (cand, rc, norm)
                break
            step *= 0.5
        if chosen is None:
            # residual at its rounding floor: take the full step and let the
            # local Newton phase drive the update below _NEWTON_XTOL
            cand = np.clip(u + upd, alpha, 0.0)
            rc = resid(cand)
            chosen = (cand, rc, float(np.max(np.abs(rc))))
        u, r, norm = chosen
        trace.append(norm)
    raise RelaxationError(
        f"monotone relaxation stalled (lam={lam}, kind={kind.value})", trace
    )


def truncated_monotone_solve(spec: ProblemSpec) -> Trajectory:
    """Solve via the lower/upper-function construction on shrinking truncations.

    The equation is solved on [t_n, 1/2] for t_n = 2^{-n-1} decreasing to
    spec.eps, each solve constrained to the strip [alpha, 0] with boundary
    value u(t_n) = 0 and the spec's condition at 1/2, where alpha is the
    lower-function candidate of spec.kind; every level is
    warm-started from the previous one.  The finest-truncation solution is
    returned as a Trajectory with derivatives from second-order differences.

    The result agrees with the shooting solution of the same problem to
    about |a| * eps in sup norm (the strip solution is the maximal one, so
    it matches the upper shooting branch).

    Raises
    ------
    DomainError
        If spec.grid_n < 3 (the end derivatives take three samples), or if
        the lower-function certificate of spec.kind does not certify
        existence at spec.lam.
    RelaxationError
        If a Newton level fails to converge (residual trace attached).
    """
    if spec.grid_n < 3:
        raise DomainError(f"the monotone solver needs grid_n >= 3, got {spec.grid_n}")
    if spec.kind is BoundaryKind.DIRICHLET:
        cert = lower_function_dirichlet(spec.lam)
    else:
        cert = lower_function_navier(spec.lam)
    if cert.verdict is not Verdict.EXISTENCE:
        raise DomainError(
            f"no lower-function existence certificate at lam={spec.lam} "
            f"(min slack {cert.witness['min_slack']:.3e})"
        )

    levels = []
    n = 1
    while 2.0 ** (-n - 1) > spec.eps:
        levels.append(2.0 ** (-n - 1))
        n += 1
    levels.append(spec.eps)

    u_prev = None
    t_prev = None
    for t_lo in levels:
        t = np.linspace(t_lo, 0.5, spec.grid_n)
        if u_prev is None:
            u0 = np.zeros(spec.grid_n)
        else:
            u0 = np.interp(t, t_prev, u_prev, left=0.0)
        u, _ = _newton_truncated(spec.lam, spec.kind, t, u0)
        u_prev, t_prev = u, t

    t, u = t_prev, u_prev
    h = t[1] - t[0]
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return Trajectory(
        lam=spec.lam,
        kind=spec.kind,
        t=t,
        u=u,
        du=du,
        launch=SeriesLaunch.from_slope(float(du[0]), spec.lam),
        eps=float(t[0]),
    )

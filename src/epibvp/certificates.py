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
  for lam > 128/11.  Both verdicts are exact.
* universal bound: no solution of either kind exists beyond 64 pi^2; the
  double 64 pi^2 lies below it and its next double above, so this is exact.

``truncated_monotone_solve`` realizes the constructive side, the method of
upper and lower functions (Amann, SIAM Rev. 18, 1976): v = -u/t solves the
integral equation v = T_lam[v] that ``representation_residual`` checks, T_lam
is monotone on v >= 0, and its iterates from the upper function v = 0 rise
to the solution and stay below the lower function's -alpha/t.  The iterates
are polynomials in x = 2t, so the solve has no truncation and needs no
linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import DomainError, EpibvpError
from .model import BoundaryKind, ProblemSpec, Trajectory, check_lam

_FIXED_POINT_CAP = 384.0
# fixed-point iteration of c -> c^2/384 + lam/4: stop on an increment
# below _C0_STEP_TOL or after _C0_MAX_ITER map steps
_C0_STEP_TOL = 1e-14
_C0_MAX_ITER = 10 ** 6
# monotone iteration: degree of the carried polynomial (at Dirichlet 144 its
# last coefficient is about 2e-18; at degree 40 it is 7e-11, at degree 20 it
# is 1e-4 and u is off by 3e-7), the step cap and the relative coefficient
# move that ends it (Dirichlet 144 takes 66 steps, Navier 9 takes 52)
_PICARD_DEGREE = 64
_PICARD_MAX_ITER = 1000
_PICARD_TOL = 1e-14


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
    """Smallest fixed point 192 (1 - sqrt(1 - lam/384)) of the slope map, taken
    as (lam/2) / (1 + sqrt(1 - lam/384)), which does not cancel at small lam."""
    if not 0.0 <= lam <= _FIXED_POINT_CAP:
        raise DomainError(f"closed form requires 0 <= lam <= 384, got {lam}")
    return lam / 2.0 / (1.0 + math.sqrt(1.0 - lam / _FIXED_POINT_CAP))


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
    solution no longer exists).  Otherwise f(lam, .) has one maximizer t*,
    and f(lam, t*) > 1 rules out solutions, decided exactly: f grows with
    c, so f is evaluated in rationals at the double t* with a rational lower
    bound on c0.  The float f(lam, t*) is the reported margin.
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
    # with s = 1/2 - t, df/dt = -s q(s)/8, and q(s) = lam (1 - 3s) + c^2 s^3 (5/8 - 3s/2)
    # falls from lam to -c^2/64 - lam/2 (c <= lam/2 and lam <= 384 give
    # q' <= lam (125 lam/18432 - 3) < 0): t* = 1/2 - s* at its one root s*
    # the sign test takes q times 2^600, exactly: lam (1 - 3s) is formed from
    # the scaled lam, so it stays nonzero at a subnormal lam, and the c term
    # is scaled once formed, so it keeps the bits of the unscaled test
    scale = 2.0 ** 600
    lo, hi = 0.0, 0.5
    while lo < 0.5 * (lo + hi) < hi:
        s = 0.5 * (lo + hi)
        if lam * scale * (1.0 - 3.0 * s) + c * c * s ** 3 * (0.625 - 1.5 * s) * scale > 0.0:
            lo = s
        else:
            hi = s
    t_star = 0.5 - lo
    # c0 = (lam/2) / (1 + sqrt(x)) with x = 1 - lam/384; with n = floor(x 4^128),
    # isqrt(n) + 1 >= sqrt(n + 1) > sqrt(x) 2^128
    x = 1 - Fraction(lam) / 384
    root_hi = Fraction(math.isqrt(x.numerator * 4 ** 128 // x.denominator) + 1, 2 ** 128)
    c_lo = Fraction(lam) / 2 / (1 + root_hi)
    t = Fraction(t_star)
    s = Fraction(1, 2) - t
    above = s * s * t / 8 * (c_lo * c_lo * s ** 3 / 4 + Fraction(lam)) > 1
    return Certificate(
        kind=CertificateKind.NONEXIST_DIRICHLET,
        lam=lam,
        verdict=Verdict.NONEXISTENCE if above else Verdict.INCONCLUSIVE,
        witness={"f_max": f_criterion(lam, t_star), "f_argmax": t_star, "c0": c},
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
    # dividing by 128 first is exact and keeps 11 lam from overflowing
    disc = 1.0 - 11.0 * (lam / 128.0)
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
# monotone iteration of the integral operator
# ---------------------------------------------------------------------------

def _times_one_minus_x(c: np.ndarray) -> np.ndarray:
    """Coefficients of (1 - x) c(x)."""
    return np.append(c, 0.0) - np.concatenate(([0.0], c))


def _picard_step(p: np.ndarray, lam: float, dirichlet: bool) -> np.ndarray:
    """One step v <- T_lam[v] on monomial coefficients in x = 2t on [0, 1].

    With w = v^2,
        T[v] = (1-x)/(16x) int_0^x y w dy + (1/16) int_x^1 (1-y) w dy + lam (1-x)/8,
    and Navier adds lam/4 + (1/8) int_0^1 y w dy.  A Dirichlet v is carried
    as (1 - x) p, whose second term divides by 1 - x as a suffix sum, so
    v(1) = 0 holds exactly; a Navier v is p itself.  The result keeps the
    first p.size coefficients.
    """
    v = _times_one_minus_x(p) if dirichlet else p
    w = np.convolve(v, v)
    # (1/x) int_0^x y w dy, and int_0^x (1-y) w dy = sum_k s_k x^(k+1)
    left = np.concatenate(([0.0], w / np.arange(2, w.size + 2)))
    g = _times_one_minus_x(w)
    s = g / np.arange(1, g.size + 1)
    if dirichlet:
        # int_x^1 (1-y) w dy = (1 - x) sum_k (sum_{m >= k} s_m) x^k
        new = left / 16.0
        new[:s.size] += np.cumsum(s[::-1])[::-1] / 16.0
        new[0] += lam / 8.0
    else:
        # int_x^1 (1-y) w dy = sum_k s_k - sum_k s_k x^(k+1)
        new = _times_one_minus_x(left / 16.0)
        new[1:s.size + 1] -= s / 16.0
        new[0] += s.sum() / 16.0 + 3.0 * lam / 8.0 + left.sum() / 8.0
        new[1] -= lam / 8.0
    return new[:p.size]


def _picard_solve(lam: float, kind: BoundaryKind) -> np.ndarray:
    """The limit p of ``_picard_step`` from v = 0 (v = (1 - x) p for Dirichlet).

    Stops once no coefficient moves by more than _PICARD_TOL (1 + v(0)).
    """
    dirichlet = kind is BoundaryKind.DIRICHLET
    p = np.zeros(_PICARD_DEGREE + 1)
    for _ in range(_PICARD_MAX_ITER):
        p, prev = _picard_step(p, lam, dirichlet), p
        if np.max(np.abs(p - prev)) <= _PICARD_TOL * (1.0 + p[0]):
            return p
    raise EpibvpError(f"monotone iteration did not settle in {_PICARD_MAX_ITER} steps "
                      f"(lam={lam}, kind={kind.value})")


def truncated_monotone_solve(spec: ProblemSpec) -> Trajectory:
    """Solve by monotone iteration from the upper function u = 0.

    v = -u/t solves the integral equation v = T_lam[v] (``_picard_step``).
    T_lam is monotone on v >= 0, so its iterates from v = 0 rise to the
    smallest fixed point, the upper (maximal) solution, and stay below
    -alpha/t for the lower function alpha of spec.kind.  They are carried as
    polynomials in x = 2t (``_picard_step``), so there is no truncation at
    eps: u = -t v and u' = -(v + t v') are sampled on spec.grid_n points of
    [eps, 1/2], and ``a`` is the launch slope -v(0).

    Raises
    ------
    DomainError
        If spec.grid_n < 3 (the samples must include a point inside
        (eps, 1/2)), or if the lower-function certificate of spec.kind does
        not certify existence at spec.lam.
    """
    if spec.grid_n < 3:
        raise DomainError(
            f"the monotone solver samples inside (eps, 1/2) and needs grid_n >= 3, "
            f"got {spec.grid_n}"
        )
    if spec.kind is BoundaryKind.DIRICHLET:
        cert = lower_function_dirichlet(spec.lam)
    else:
        cert = lower_function_navier(spec.lam)
    if cert.verdict is not Verdict.EXISTENCE:
        raise DomainError(
            f"no lower-function existence certificate at lam={spec.lam} "
            f"(min slack {cert.witness['min_slack']:.3e})"
        )

    p = _picard_solve(spec.lam, spec.kind)
    t = np.linspace(spec.eps, 0.5, spec.grid_n)
    x = 2.0 * t
    v = np.polyval(p[::-1], x)
    c = p  # the coefficients of v
    if spec.kind is BoundaryKind.DIRICHLET:
        # (1 - x) p(x) is exactly 0 at x = 1, where summed coefficients leave rounding
        v *= 1.0 - x
        c = _times_one_minus_x(p)
    # d(t v)/dt = d(x v)/dx; subtracting from 0.0 writes no -0.0
    du = 0.0 - np.polyval((np.arange(1, c.size + 1) * c)[::-1], x)
    return Trajectory(lam=spec.lam, kind=spec.kind, t=t, u=0.0 - t * v, du=du, a=0.0 - c[0])

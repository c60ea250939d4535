"""Domain types, the r <-> t change of variables, and the ODE right-hand side.

The radial stationary growth equation on the unit disk reduces, after the
substitution t = r^2/2, u(t) = w(r), to the scalar second-order equation

    u'' = u^2 / (8 t^2) + lam / 2        on (0, 1/2],

with either a Dirichlet condition u(1/2) = 0 or a Navier condition
u(1/2) = u'(1/2) at the right endpoint, together with u(t)/t bounded as
t -> 0+.  Everything downstream (integration, shooting, continuation,
certificates) works in the u-frame; this module holds the shared value
types, the boundary rule, the transforms back to the physical w(r) / height
phi(r) frame, and the trapezoid and golden-section helpers the layers above
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, UnvalidatedTrajectoryError


class BoundaryKind(Enum):
    """Right-endpoint condition: u(1/2) = 0 or u(1/2) = u'(1/2)."""

    DIRICHLET = "dirichlet"
    NAVIER = "navier"

    def residual(self, u, du):
        """Endpoint residual u(1/2) (Dirichlet) or u(1/2) - u'(1/2) (Navier).

        Accepts scalars or arrays of endpoint states.
        """
        if self is BoundaryKind.DIRICHLET:
            return u
        return u - du


def check_lam(lam: float) -> None:
    """Raise DomainError unless lam is a finite deposition rate >= 0."""
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"lam must be finite and >= 0, got {lam}")


@dataclass(frozen=True)
class ProblemSpec:
    """Full numerical configuration of one solve.

    Parameters
    ----------
    lam : float
        Dimensionless deposition rate, finite and >= 0.
    kind : BoundaryKind
        Endpoint condition at t = 1/2.
    eps : float
        Series launch point in (0, 1/2).  The integration starts here with
        the two-term expansion u = a*t + beta*t^2, so the trajectory carries
        an O(eps^3) truncation error, far below step_tol at the default.
    step_tol : float
        Local error tolerance per step of the adaptive integrator, finite
        and > 0.
    slope_min, slope_max : float
        Shooting-slope scan window, slope_min <= slope_max <= 0.
    grid_n : int
        Number of output samples (uniform in t, endpoint included).  Also
        sets the trapezoid resolution of the residual validators.
    blowup : float
        |u| threshold above which a shot is flagged as diverged.
    scan_n : int
        Number of slope samples in the bracketing scan.
    root_tol : float
        Refinement stops once the slope bracket is narrower than this.
    cluster_tol : float
        Roots closer than this are merged (fold proximity).
    boundary_tol : float
        Acceptance threshold on the endpoint residual.
    fi_tol, rep_tol, sign_tol : float
        Acceptance thresholds on the first-integral residual, the integral
        representation residual, and max u (sign property).
    """

    lam: float
    kind: BoundaryKind
    eps: float = 1e-8
    step_tol: float = 1e-10
    slope_min: float = -500.0
    slope_max: float = 0.0
    grid_n: int = 16001
    blowup: float = 1e6
    scan_n: int = 2000
    root_tol: float = 1e-10
    cluster_tol: float = 1e-6
    boundary_tol: float = 1e-8
    fi_tol: float = 1e-6
    rep_tol: float = 1e-5
    sign_tol: float = 1e-8

    def __post_init__(self):
        check_lam(self.lam)
        if not 0.0 < self.step_tol < math.inf:
            raise DomainError(f"step_tol must be finite and > 0, got {self.step_tol}")
        if not 0 < self.eps < 0.5:
            raise DomainError(f"eps must lie in (0, 1/2), got {self.eps}")
        if not self.slope_min <= self.slope_max <= 0:
            raise DomainError(
                f"need slope_min <= slope_max <= 0, got [{self.slope_min}, {self.slope_max}]"
            )
        if self.grid_n < 2:
            raise DomainError("grid_n must be at least 2")


@dataclass(frozen=True)
class SeriesLaunch:
    """Two-term expansion u = a*t + beta*t^2 used to leave the singular endpoint.

    The slope a = lim_{t->0+} u(t)/t is finite for every candidate solution
    and non-positive; matching constant terms in the equation forces
    beta = a^2/16 + lam/4 exactly.
    """

    a: float
    beta: float

    @classmethod
    def from_slope(cls, a: float, lam: float) -> "SeriesLaunch":
        return cls(a=a, beta=a * a / 16.0 + lam / 4.0)


@dataclass
class Trajectory:
    """A sampled candidate solution (t, u, u') on [eps, 1/2].

    Samples are strictly increasing in t; unless ``diverged`` is set the
    final sample sits exactly at t = 1/2.
    """

    lam: float
    kind: BoundaryKind
    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    launch: SeriesLaunch
    eps: float
    diverged: bool = False

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)
        if not (self.t.shape == self.u.shape == self.du.shape):
            raise DomainError("t, u, du must have identical shapes")
        if self.t.size >= 2 and not np.all(np.diff(self.t) > 0):
            raise DomainError("sample times must be strictly increasing")


@dataclass
class RadialProfile:
    """Reconstructed w(r) and height profile phi(r) in the physical frame."""

    r: np.ndarray
    w: np.ndarray
    phi: np.ndarray


def to_u_frame(r: float, w: float) -> tuple[float, float]:
    """Map a physical-frame point (r, w) to the u-frame, t = r^2/2, u = w.

    Raises DomainError unless 0 < r <= 1.
    """
    if not 0.0 < r <= 1.0:
        raise DomainError(f"r must lie in (0, 1], got {r}")
    return r * r / 2.0, w


def from_u_frame(t: float, u: float) -> tuple[float, float]:
    """Inverse of :func:`to_u_frame`: r = sqrt(2 t), w = u."""
    if not 0.0 < t <= 0.5:
        raise DomainError(f"t must lie in (0, 1/2], got {t}")
    return math.sqrt(2.0 * t), u


def rhs(t, u, lam: float):
    """Right-hand side u^2/(8 t^2) + lam/2 of the second-order equation.

    Accepts scalars or arrays.  Always >= lam/2; the equation is singular
    at t = 0, so callers must stay on t > 0 and use the series launch below
    any cutoff.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("rhs is singular at t <= 0; use the series launch instead")
    out = np.square(u) / (8.0 * t * t) + lam / 2.0
    return float(out) if out.ndim == 0 else out


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of y over x, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(g, lo: float, hi: float, iters: int, tol: float = 0.0):
    """Golden-section minimization of g on [lo, hi].

    Runs ``iters`` section steps, stopping early once the interval is
    narrower than ``tol``; returns (x, g(x)) at the better interior point.
    """
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc <= gd:
            hi, d, gd = d, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _INVPHI * (hi - lo)
            gd = g(d)
        if hi - lo < tol:
            break
    if gc <= gd:
        return c, gc
    return d, gd


def reconstruct_phi(traj: Trajectory, report=None) -> RadialProfile:
    """Rebuild the physical profile w(r) = u(r^2/2) and the height phi(r).

    phi is anchored at phi(1) = 0 (for both boundary kinds) and computed by
    composite trapezoid quadrature of -w(s)/s on the trajectory's own sample
    grid; the integrand is bounded since w vanishes linearly in t, i.e. like
    r^2, near the origin.

    Parameters
    ----------
    traj : Trajectory
        A trajectory that reached t = 1/2.
    report : ValidationReport, optional
        Pre-computed validation of ``traj``.  Computed on the fly when
        omitted.  Reconstruction refuses trajectories that fail validation,
        which prevents building a profile from a diverged shot.

    Raises
    ------
    UnvalidatedTrajectoryError
        If the trajectory is diverged or fails any residual threshold.
    """
    if report is None:
        from .integrator import validate

        report = validate(traj)
    if traj.diverged or not report.accepted():
        raise UnvalidatedTrajectoryError(
            f"refusing to reconstruct from an unvalidated trajectory: {report}"
        )
    r = np.sqrt(2.0 * traj.t)
    w = traj.u.copy()
    cum = _cumtrapz(w / r, r)
    # phi(r) = -int_r^1 w/s ds, exactly 0 at the last sample (r = 1)
    phi = cum - cum[-1]
    return RadialProfile(r=r, w=w, phi=phi)

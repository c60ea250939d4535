"""Domain types, the boundary rule, and the profile reconstruction.

The radial stationary growth equation on the unit disk reduces, after the
substitution t = r^2/2, u(t) = w(r), to the scalar second-order equation

    u'' = u^2 / (8 t^2) + lam / 2        on (0, 1/2],

with either a Dirichlet condition u(1/2) = 0 or a Navier condition
u(1/2) = u'(1/2) at the right endpoint, together with u(t)/t bounded as
t -> 0+.  Everything downstream (integration, shooting, continuation,
certificates) works in the u-frame; this module holds the shared value
types, the boundary rule, and the reconstruction of the physical w(r) /
height phi(r) profile.

A solution leaves the singular endpoint as u = a*t + beta*t^2, and the
equation forces beta = a^2/16 + lam/4, so lam and the slope a fix it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

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
    """Numerical configuration of one solve.

    Parameters
    ----------
    lam : float
        Dimensionless deposition rate, finite and >= 0.
    kind : BoundaryKind
        Endpoint condition at t = 1/2.
    eps : float
        Series launch point in (0, 1/2) whose square is a normal float
        (eps >= about 1.4917e-154): the right-hand side and the validators
        divide by t^2, which loses precision or reaches 0 once t^2 is
        subnormal.  The two-term expansion u = a*t + beta*t^2 launches
        every shot here, with an O(eps^3) error, far below step_tol at the
        default.
    step_tol : float
        Local error tolerance per step of the adaptive integrator (DOP853),
        relative to 1 + |y| on y = (u, u'), finite and > 0.  The default
        1e-11 keeps the validator's first-integral residuals of roots near
        1e-10.
    slope_min, slope_max : float
        Shooting-slope scan window, finite with slope_min <= slope_max <= 0.
    grid_n : int
        Number of output samples (uniform in t, endpoint included), at least
        2 and few enough for numpy to size a float64 array of them.  Output
        only: a solution is validated on its own steps or panels
        (:func:`epibvp.integrator.validate`), so grid_n changes no verdict.

    ``scan_n``, the number of slopes of the coarse scan that locates the
    residual's extremum and guides the brackets, is the class constant 64.
    The divergence threshold and the validation thresholds are fixed
    constants of :mod:`epibvp.integrator`; the root-refinement and
    window-edge distances are fixed in :mod:`epibvp.shooting`.
    """

    lam: float
    kind: BoundaryKind
    eps: float = 1e-8
    step_tol: float = 1e-11
    slope_min: float = -500.0
    slope_max: float = 0.0
    grid_n: int = 16001
    scan_n: ClassVar[int] = 64

    def __post_init__(self):
        check_lam(self.lam)
        if not 0.0 < self.step_tol < math.inf:
            raise DomainError(f"step_tol must be finite and > 0, got {self.step_tol}")
        if not (0 < self.eps < 0.5 and self.eps * self.eps >= sys.float_info.min):
            raise DomainError(
                f"eps must lie in (0, 1/2) with eps^2 a normal float "
                f"(eps >= about 1.4917e-154), got {self.eps}"
            )
        if not -math.inf < self.slope_min <= self.slope_max <= 0:
            raise DomainError(
                f"need finite slope_min <= slope_max <= 0, got [{self.slope_min}, {self.slope_max}]"
            )
        if not 2 <= self.grid_n <= np.iinfo(np.intp).max // 8:
            raise DomainError(
                f"grid_n must be at least 2 and small enough to size a float64 array, "
                f"got {self.grid_n}"
            )


@dataclass
class Trajectory:
    """A sampled candidate solution (t, u, u') on [eps, 1/2].

    ``a`` is the launch slope lim u(t)/t, and the launch point eps is
    ``t[0]``.  Samples are strictly increasing in t; unless ``diverged`` is
    set the final sample sits exactly at t = 1/2.
    """

    lam: float
    kind: BoundaryKind
    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    a: float
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


def reconstruct_phi(traj: Trajectory, report) -> RadialProfile:
    """Rebuild the physical profile w(r) = u(r^2/2) and the height phi(r).

    phi is anchored at phi(1) = 0 (for both boundary kinds) and computed by
    composite trapezoid quadrature of -w(s)/s on the trajectory's own sample
    grid; the integrand is bounded since w vanishes linearly in t, i.e. like
    r^2, near the origin.

    Parameters
    ----------
    traj : Trajectory
        A trajectory that reached t = 1/2.
    report : ValidationReport
        The validation of the solution that ``traj`` samples
        (:func:`epibvp.integrator.validate`).  Reconstruction refuses
        trajectories whose report fails, which prevents building a profile
        from a diverged shot.

    Raises
    ------
    UnvalidatedTrajectoryError
        If the trajectory is diverged or fails any residual threshold.
    """
    if traj.diverged or not report.accepted():
        raise UnvalidatedTrajectoryError(
            f"refusing to reconstruct from an unvalidated trajectory: {report}"
        )
    r = np.sqrt(2.0 * traj.t)
    y = traj.u / r
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(r))])
    # phi(r) = -int_r^1 w/s ds, exactly 0 at the last sample (r = 1); w is
    # u itself, not a copy, as w(r) = u(t) at t = r^2/2
    phi = cum - cum[-1]
    return RadialProfile(r=r, w=traj.u, phi=phi)

"""Solver and verifier toolkit for the singular boundary value problem

    u'' = u^2 / (8 t^2) + lam / 2   on (0, 1/2],

arising as the radial reduction of a stationary epitaxial-growth equation,
with Dirichlet (u(1/2) = 0) or Navier (u(1/2) = u'(1/2)) endpoint
conditions.  The package shoots from a series launch at the singular
endpoint, tracks the two solution branches across the deposition rate lam,
solves for the fold where they merge and certifies a bracket around it, and
runs closed-form existence and nonexistence certificates that rigorously
confine that fold.
"""

from .certificates import (
    Certificate, CertificateKind, Verdict, certificates_for, f_criterion, fixed_point_c0,
    lower_function_dirichlet, lower_function_navier, nonexistence_dirichlet, nonexistence_navier,
    truncated_monotone_solve, universal_bound, universal_certificate,
)
from .continuation import (
    Branch, DiagramPoint, default_fold_bracket, default_fold_tol, locate_fold, sweep,
)
from .errors import (
    BracketError, DomainError, EpibvpError, IntegrationError, UnvalidatedTrajectoryError,
    WindowTooSmallError,
)
from .integrator import ValidationReport, integrate, launch_state, shoot, validate
from .model import BoundaryKind, ProblemSpec, RadialProfile, Trajectory, reconstruct_phi
from .shooting import RootSet, ShootingRoot, find_shooting_roots

__version__ = "1.0.0"

__all__ = [
    "BoundaryKind",
    "BracketError",
    "Branch",
    "Certificate",
    "CertificateKind",
    "DiagramPoint",
    "DomainError",
    "EpibvpError",
    "IntegrationError",
    "ProblemSpec",
    "RadialProfile",
    "RootSet",
    "ShootingRoot",
    "Trajectory",
    "UnvalidatedTrajectoryError",
    "ValidationReport",
    "Verdict",
    "WindowTooSmallError",
    "certificates_for",
    "default_fold_bracket",
    "default_fold_tol",
    "f_criterion",
    "find_shooting_roots",
    "fixed_point_c0",
    "integrate",
    "launch_state",
    "locate_fold",
    "lower_function_dirichlet",
    "lower_function_navier",
    "nonexistence_dirichlet",
    "nonexistence_navier",
    "reconstruct_phi",
    "shoot",
    "sweep",
    "truncated_monotone_solve",
    "universal_bound",
    "universal_certificate",
    "validate",
]

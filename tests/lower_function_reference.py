"""The lower-function candidates' closed forms and slack factorizations:
the references that the certificate tests check ``lower_function_dirichlet``
and ``lower_function_navier`` against (the Navier candidate itself,
``alpha_navier``, lives in :mod:`epibvp.certificates`)."""

import math

import numpy as np


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

"""Series launch, adaptive integration, RK4 cross-check, and the step validator."""

import dataclasses
import math

import numpy as np
import pytest

from epibvp import integrator
from epibvp.errors import IntegrationError
from epibvp.integrator import (
    BOUNDARY_TOL,
    FI_TOL,
    REP_TOL,
    SIGN_TOL,
    ValidationReport,
    _GL_THETA,
    Panels,
    _beta,
    integrate,
    launch_state,
    shoot,
    shoot_endpoint,
    shoot_event,
    validate,
)
from epibvp.model import BoundaryKind, ProblemSpec
from rk4_reference import integrate_rk4


def test_launch_zero():
    assert launch_state(0.0, 0.0, 1e-6) == (0.0, 0.0)


def test_launch_values():
    eps = 1e-4
    u0, du0 = launch_state(-48.0, 144.0, eps)
    beta = 180.0
    assert u0 == pytest.approx(-48.0 * eps + beta * eps * eps, rel=1e-15)
    assert du0 == pytest.approx(-48.0 + 2.0 * beta * eps, rel=1e-15)
    u0, du0 = launch_state(-1.0, 0.0, eps)
    assert u0 == pytest.approx(-eps + eps * eps / 16.0, rel=1e-15)


def test_launch_series_defect_is_first_order():
    """Substituting the two-term series into the equation leaves an O(eps) defect."""
    a, lam = -48.0, 144.0
    beta = a * a / 16.0 + lam / 4.0
    defects = []
    for eps in (1e-3, 1e-4, 1e-5):
        u0, _ = launch_state(a, lam, eps)
        defects.append(abs(2.0 * beta - (u0 * u0 / (8.0 * eps * eps) + lam / 2.0)))
    # one decade in eps -> one decade in the defect
    assert defects[0] / defects[1] == pytest.approx(10.0, rel=0.05)
    assert defects[1] / defects[2] == pytest.approx(10.0, rel=0.05)


def test_zero_solution_exact():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, grid_n=1001)
    traj = integrate(spec, 0.0)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.du == 0.0)
    report = validate(shoot(spec, 0.0))
    assert report.boundary_resid == 0.0
    assert report.first_integral_resid == 0.0


def test_grid_shape_and_endpoint():
    spec = ProblemSpec(lam=7.0, kind=BoundaryKind.DIRICHLET, grid_n=513)
    traj = integrate(spec, -3.0)
    assert traj.t.shape == (513,)
    assert traj.t[0] == spec.eps
    assert traj.t[-1] == 0.5
    assert not traj.diverged


def test_cross_check_against_rk4_reference():
    """Adaptive pair and fixed-step RK4 agree on the lam=144 candidate shot.

    Launching with the lower-function slope a = -48 produces a trajectory
    that stays nonpositive all the way to t = 1/2 (ending near -1.04); the
    two independent integrators must agree at the endpoint.
    """
    spec = ProblemSpec(lam=144.0, kind=BoundaryKind.DIRICHLET, grid_n=2001)
    ref = integrate_rk4(spec, -48.0, 10 ** 6)
    tr = integrate(spec, -48.0)
    assert abs(ref.u[-1] - tr.u[-1]) < 1e-8
    assert tr.u[-1] == pytest.approx(-1.040907387, abs=1e-6)
    assert np.max(tr.u) <= 0.0


def test_divergence_flag_and_truncation():
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET, grid_n=2001)
    traj = integrate(spec, -2000.0)
    assert traj.diverged
    assert traj.t[-1] < 0.5
    assert np.abs(traj.u[-1]) > 1e5  # ended on its way past the blow-up bound
    report = validate(shoot(spec, -2000.0))
    assert math.isinf(report.boundary_resid)


def test_shoot_endpoint_matches_dense_output(root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in rs.roots:
        u, du, diverged = shoot_endpoint(spec, root.a)
        traj = integrate(spec, root.a)
        assert not diverged
        assert u == traj.u[-1]
        assert du == traj.du[-1]


# each kind's lam_ref (its nonexistence bound, where the fold's event shots run)
# and slopes from the window's end through the fold's x* to near 0
_EVENT_SHOTS = [
    (kind, lam_ref, x)
    for kind, lam_ref, xs in [
        (BoundaryKind.DIRICHLET, 307.0, (-500.0, -309.0, -70.6, -1.0)),
        (BoundaryKind.NAVIER, 128.0 / 11.0, (-500.0, -309.0, -9.0, -1.0)),
    ]
    for x in xs
]


@pytest.mark.parametrize("kind, lam_ref, x", _EVENT_SHOTS,
                         ids=[f"{kind.value}{x:g}" for kind, _, x in _EVENT_SHOTS])
def test_event_shot_finds_the_sampled_sign_change(kind, lam_ref, x):
    """t* lies in the cell of a 16001-sample integrate where b = u (Dirichlet)
    or u - 2 t u' (Navier) leaves its launch sign, within 1e-7 of the cell's
    linear zero.  Stretched by 2 t*, the shot is a root: at (2 t* x, 4 t*^2
    lam_ref) the endpoint shot has |R| <= 1e-9 and ends at (u, 2 t* u')."""
    spec = ProblemSpec(lam=lam_ref, kind=kind)
    t_star, u, du = shoot_event(spec, x)
    traj = integrate(spec, x)
    b = kind.residual(traj.u, 2.0 * traj.t * traj.du)
    k = int(np.argmax(np.sign(b) != np.sign(b[0])))
    assert k > 0 and traj.t[k - 1] <= t_star <= traj.t[k]
    linear = traj.t[k - 1] - b[k - 1] * (traj.t[k] - traj.t[k - 1]) / (b[k] - b[k - 1])
    assert abs(t_star - linear) <= 1e-7
    u_end, du_end, diverged = shoot_endpoint(
        ProblemSpec(lam=4.0 * t_star ** 2 * lam_ref, kind=kind), 2.0 * t_star * x)
    assert not diverged
    assert abs(kind.residual(u_end, du_end)) <= 1e-9
    assert u == pytest.approx(u_end, rel=1e-8, abs=1e-9)
    assert 2.0 * t_star * du == pytest.approx(du_end, rel=1e-8)


@pytest.mark.parametrize("kind, lam, a", [
    (BoundaryKind.DIRICHLET, 0.0, -1.0),
    (BoundaryKind.DIRICHLET, 307.0, 0.0),
    (BoundaryKind.NAVIER, 0.0, -1.0),
    (BoundaryKind.DIRICHLET, 307.0, -1e154),
    (BoundaryKind.DIRICHLET, 0.0, 0.0),
    (BoundaryKind.NAVIER, 0.0, 0.0),
], ids=["dirichlet-lam-0", "dirichlet-slope-0", "navier-lam-0", "diverged",
        "dirichlet-launch-on-b-0", "navier-launch-on-b-0"])
def test_event_shot_without_a_sign_change_is_none(kind, lam, a):
    """A shot whose b keeps its launch sign up to t = 1/2, or diverges before
    it leaves it, is reported as None: no sample of the trajectory changes sign.
    The zero solution launches on b = 0, which has no sign to leave."""
    spec = ProblemSpec(lam=lam, kind=kind, grid_n=2001)
    assert shoot_event(spec, a) is None
    traj = integrate(spec, a)
    b = kind.residual(traj.u, 2.0 * traj.t * traj.du)
    assert traj.diverged or np.all(np.sign(b) == np.sign(b[0]))


def _dop853_loop(spec, a, on_step=None):
    """Reference stepper: DOP853 as tableau loops over scipy's coefficients,
    each stage and error sum accumulated from 0.0 in tableau order, every
    stage checked for finiteness.  ``on_step(t, h, u, du)`` sees each
    accepted step and stops the shot at its start when it returns True."""
    from scipy.integrate._ivp import dop853_coefficients as dop

    c, tableau, e5, e3 = dop.C.tolist(), dop.A.tolist(), dop.E5.tolist(), dop.E3.tolist()
    lam = spec.lam
    tol = spec.step_tol
    u, du = launch_state(a, lam, spec.eps)
    t = spec.eps
    h = min(1e-3, 0.5 - t)
    k0 = (du, u * u / (8.0 * t * t) + lam / 2.0)
    while True:
        final = h >= 0.5 - t
        if final:
            h = 0.5 - t
        k = [k0]
        for s in range(1, 13):
            au = 0.0
            av = 0.0
            for j in range(s):
                au += tableau[s][j] * k[j][0]
                av += tableau[s][j] * k[j][1]
            ts = t + c[s] * h
            uu = u + h * au
            vv = du + h * av
            if not (math.isfinite(uu) and math.isfinite(vv)):
                return u, du, True
            k.append((vv, uu * uu / (8.0 * ts * ts) + lam / 2.0))
        sums = [0.0, 0.0, 0.0, 0.0]
        for j in range(12):
            for i, (weight, comp) in enumerate(((e5, 0), (e5, 1), (e3, 0), (e3, 1))):
                sums[i] += weight[j] * k[j][comp]
        scale = (tol * (1.0 + abs(u)), tol * (1.0 + abs(du)))
        e5u, e5v, e3u, e3v = (x / scale[i % 2] for i, x in enumerate(sums))
        err5 = e5u * e5u + e5v * e5v
        den = err5 + 0.01 * (e3u * e3u + e3v * e3v)
        err = h * err5 / math.sqrt(2.0 * den) if err5 != 0.0 else 0.0
        if not math.isfinite(err):
            err = 1e16
        if err <= 1.0:
            if on_step is not None and on_step(t, h, u, du):
                return u, du, False
            t += h
            u, du = uu, vv
            k0 = k[12]
            if abs(u) > integrator.BLOWUP:
                return u, du, True
            if final:
                return u, du, False
        factor = 0.9 * (1.0 / err) ** 0.125 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < integrator._MIN_STEP:
            raise IntegrationError(f"step size underflow at t={t!r} (a={a!r}, lam={lam!r})")


def _end(call):
    """The exact repr of a shot's end state, or its error message."""
    try:
        return repr(call())
    except IntegrationError as exc:
        return str(exc)


def _shot_record(spec, a, stop=None):
    """The end of a _dop853_loop shot and the bytes of every accepted step's
    start (t, h, u, u'); ``on_step`` stops the shot at the start of step
    ``stop``."""
    steps = []

    def record(t, h, u, du):
        if len(steps) == stop:
            return True
        steps.append((t, h, u, du))

    return _end(lambda: _dop853_loop(spec, a, record)), np.array(steps).tobytes()


def _stepper_record(spec, a, stop=None):
    """:func:`_shot_record` of the unrolled _dop853, read off its own record
    of each accepted step and its end state.  ``stop`` ends the shot at the
    end of step ``stop - 1``, which the shot hands back in the record's
    layout instead of recording it."""
    steps, ends = [], []

    def at_end(t, u, du):
        ends.append(t)
        return len(ends) == stop

    def shot():
        end = integrator._dop853(spec, a, steps, at_end)
        if len(end) == 4:
            steps.extend(end[3])
        return end[:3]

    return _end(shot), np.array(steps).tobytes()


_SHOT_CASES = [
    (kind, lam, eps, a, ProblemSpec.step_tol)
    for kind in BoundaryKind
    for lam in (0.0, 1.0, 9.0, 100.0, 168.7694, 5000.0)
    for eps in (1e-8, 1e-3, 1.5e-154)
    for a in (-1e154, -1e30, -1e6, -2000.0, -52.35, -16.2635630662405, -4.742307280271374, 0.0, 3.0)
] + [
    # a tolerance no step can meet: the controller shrinks h until it underflows
    (kind, 100.0, eps, a, 1e-100)
    for kind in BoundaryKind
    for eps in (1e-8, 1.5e-154)
    for a in (-16.2635630662405, -4.742307280271374)
]


def test_unrolled_stepper_matches_tableau_loops():
    """The unrolled _dop853 reproduces the loop stepper bit for bit: end
    states, divergence flags, every accepted step it records, the
    step-underflow message, and the state and step where the shot stops
    early."""
    outcomes = set()
    for kind, lam, eps, a, tol in _SHOT_CASES:
        spec = ProblemSpec(lam=lam, kind=kind, eps=eps, step_tol=tol)
        want = _shot_record(spec, a)
        assert _stepper_record(spec, a) == want, (kind, lam, eps, a)
        stopped = _shot_record(spec, a, stop=3)
        assert _stepper_record(spec, a, stop=3) == stopped, (kind, lam, eps, a)
        assert _end(lambda: shoot_endpoint(spec, a)) == want[0]
        if want[0].startswith("step size underflow"):
            outcomes.add("underflow")
        else:
            outcomes.add("diverged" if want[0].endswith("True)") else "landed")
    # diverged covers both a blow-up and a non-finite stage
    assert outcomes == {"landed", "diverged", "underflow"}


@pytest.mark.parametrize("a", [-1e30, -1e154], ids=["no-steps", "overflowing-end"])
def test_shot_without_accepted_steps(a):
    """A shot whose first step goes non-finite has no accepted step: it is
    the diverged launch state on one panel end, with no panels, built from
    an empty record, and it stays silent when that state's u'' overflows
    (RuntimeWarnings are errors here)."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    u, du = launch_state(a, spec.lam, spec.eps)
    assert math.isinf(u * u / (8.0 * spec.eps ** 2)) is (a == -1e154)
    shot = shoot(spec, a)
    assert shot.diverged and shot.a == a
    assert shot.t.tolist() == [spec.eps] and (shot.u.tolist(), shot.du.tolist()) == ([u], [du])
    assert (shot.h.shape, shot.q.shape, shot.nodes.shape) == ((0,), (0, 2, 10), (6, 0))
    steps = []
    assert integrator._dop853(spec, a, steps) == (u, du, True) and steps == []
    assert shoot_endpoint(spec, a) == (u, du, True)


@pytest.mark.parametrize("kind, lam, a", [
    (BoundaryKind.DIRICHLET, 50.0, -10.0),
    (BoundaryKind.DIRICHLET, 100.0, -16.2635630662405),
    (BoundaryKind.DIRICHLET, 168.7694, -52.35),
    (BoundaryKind.NAVIER, 5.0, -3.0),
    (BoundaryKind.NAVIER, 9.0, -4.742307280271374),
    (BoundaryKind.NAVIER, 11.34, -8.87),
], ids=["dirichlet-50", "dirichlet-100", "dirichlet-near-fold", "navier-5", "navier-9",
        "navier-near-fold"])
def test_scaling_identity_on_dense_trajectories(kind, lam, a):
    """t u' = a u_a + 2 lam u_lam, and its t-derivative u' + t u'' = a u_a'
    + 2 lam u_lam', hold along dense trajectories, with u_a and u_lam from
    central differences of integrate at h = 1e-4."""
    h = 1e-4
    spec = ProblemSpec(lam=lam, kind=kind, grid_n=2001)
    traj = integrate(spec, a)
    a_hi, a_lo = integrate(spec, a + h), integrate(spec, a - h)
    l_hi = integrate(dataclasses.replace(spec, lam=lam + h), a)
    l_lo = integrate(dataclasses.replace(spec, lam=lam - h), a)
    t, u, du = traj.t, traj.u, traj.du
    u_a, du_a = (a_hi.u - a_lo.u) / (2 * h), (a_hi.du - a_lo.du) / (2 * h)
    u_l, du_l = (l_hi.u - l_lo.u) / (2 * h), (l_hi.du - l_lo.du) / (2 * h)
    ddu = u * u / (8.0 * t * t) + lam / 2.0
    assert np.max(np.abs(t * du - a * u_a - 2.0 * lam * u_l)) < 1e-7
    assert np.max(np.abs(du + t * ddu - a * du_a - 2.0 * lam * du_l)) < 1e-6


def _dense_fill_by_sample(q, t0, h, y0, t_out, us, dus, idx):
    """Sample-by-sample reference for the dense fill of one accepted step:
    the samples before the step's end, from the first not yet filled, each
    on the step's interpolants ``q`` in Python floats."""
    while idx < len(t_out) and t_out[idx] < t0 + h:
        theta = (t_out[idx] - t0) / h
        s = 1.0 - theta
        for out, qc, y in ((us, q[0], y0[0]), (dus, q[1], y0[1])):
            left = (((qc[4] * theta + qc[3]) * theta + qc[2]) * theta + qc[1]) * theta + qc[0]
            right = (((qc[9] * s + qc[8]) * s + qc[7]) * s + qc[6]) * s + qc[5]
            s5 = (s * s) * (s * s) * s
            theta5 = (theta * theta) * (theta * theta) * theta
            out[idx] = y + (s5 * left + theta5 * right)
        idx += 1
    return idx


def _integrate_by_sample(spec, a):
    """Reference dense output: the loop stepper's accepted steps fill their
    samples one at a time, on the interpolants the package builds from their
    ends; samples past the last step take the end state at 1/2."""
    t_out = np.linspace(spec.eps, 0.5, spec.grid_n)
    us = np.empty(spec.grid_n)
    dus = np.empty(spec.grid_n)
    us[0], dus[0] = launch_state(a, spec.lam, spec.eps)
    starts = []
    u, du, diverged = _dop853_loop(spec, a, lambda *step: starts.append(step))
    t_end = starts[-1][0] + starts[-1][1] if starts else spec.eps
    q = integrator._interpolant(spec, a, np.array([s[0] for s in starts] + [t_end]),
                                np.array([s[2] for s in starts] + [u]),
                                np.array([s[3] for s in starts] + [du])).tolist()
    idx = 1
    for qs, (t0, h, u0, du0) in zip(q, starts):
        idx = _dense_fill_by_sample(qs, t0, h, (u0, du0), t_out, us, dus, idx)
    if not diverged:
        us[idx:], dus[idx:] = u, du
        idx = spec.grid_n
    return t_out[:idx], us[:idx], dus[:idx], diverged


@pytest.mark.parametrize("kind, lam, a, grid_n", [
    (BoundaryKind.DIRICHLET, 100.0, -16.2635630662405, 16001),
    (BoundaryKind.DIRICHLET, 100.0, -2000.0, 2001),
    (BoundaryKind.NAVIER, 9.0, -4.742307280271374, 64001),
    (BoundaryKind.DIRICHLET, 100.0, -16.2635630662405, 2),
    (BoundaryKind.NAVIER, 9.0, -4.742307280271374, 3),
    (BoundaryKind.NAVIER, 5.0, -500.0, 16001),
], ids=["dirichlet-16001", "diverged-2001", "navier-64001", "grid-2", "grid-3",
        "diverged-navier-16001"])
def test_dense_fill_matches_sample_by_sample_reference(kind, lam, a, grid_n):
    spec = ProblemSpec(lam=lam, kind=kind, grid_n=grid_n)
    fast = integrate(spec, a)
    t, u, du, diverged = _integrate_by_sample(spec, a)
    assert fast.diverged == diverged
    for got, want in ((fast.t, t), (fast.u, u), (fast.du, du)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_determinism():
    spec = ProblemSpec(lam=42.0, kind=BoundaryKind.NAVIER, grid_n=501)
    t1 = integrate(spec, -7.5)
    t2 = integrate(spec, -7.5)
    assert np.array_equal(t1.u, t2.u)
    assert np.array_equal(t1.du, t2.du)


def test_first_integral_zero_case():
    spec = ProblemSpec(lam=0.0, kind=BoundaryKind.DIRICHLET, grid_n=1001)
    report = validate(shoot(spec, 0.0))
    assert report.first_integral_resid == 0.0
    assert report.representation_resid == 0.0


def _on_steps(shot, theta):
    """(u, u') at the points theta in [0, 1] of every step of shot, from its
    interpolants: one row a step, one column a theta."""
    theta = np.asarray(theta, dtype=float)[None, :]
    return [y[:, None] + integrator._hermite(lambda k: shot.q[:, c, None, k], theta)
            for c, y in enumerate((shot.u[:-1], shot.du[:-1]))]


def _refined(shot, m):
    """The shot as Panels with each step split into m equal panels, every
    end and node read off the step's interpolant."""
    sub = np.arange(m) / m
    u, du = _on_steps(shot, sub)
    t = (shot.t[:-1, None] + shot.h[:, None] * sub).ravel()
    nodes = np.array([_on_steps(shot, sub + theta / m)[0].ravel() for theta in _GL_THETA])
    return Panels(lam=shot.lam, kind=shot.kind, t=np.append(t, shot.t[-1]),
                  u=np.append(u.ravel(), shot.u[-1]), du=np.append(du.ravel(), shot.du[-1]),
                  nodes=nodes, tail=shot.tail, diverged=False)


@pytest.mark.parametrize("kind, lam, a", [
    (BoundaryKind.DIRICHLET, 100.0, -16.2635630662405),
    (BoundaryKind.NAVIER, 5.0, -3.0),
    (BoundaryKind.NAVIER, 9.0, -4.742307280271374),
], ids=["dirichlet-100", "navier-5", "navier-9"])
def test_validate_shares_one_singular_integral(kind, lam, a):
    """validate's residuals are the two identities' defects at the step ends,
    both from one singular integral I: recomputed with scipy's adaptive quad
    on each step's interpolant, and quad for the series tail below eps, they
    agree to rounding."""
    from scipy.integrate import quad

    shot = shoot(ProblemSpec(lam=lam, kind=kind), a)
    report = validate(shot)
    t, u, du, h = shot.t, shot.u, shot.du, shot.h

    def step_integral(f, i):
        def u_at(s):
            return u[i] + integrator._hermite(shot.q[i, 0].__getitem__, (s - t[i]) / h[i])
        return quad(lambda s: f(u_at(s), s), t[i], t[i + 1], epsabs=0.0, epsrel=1e-13)[0]

    beta = _beta(a, lam)
    tail = quad(lambda s: (a * s + beta * s * s) ** 2 / (8.0 * s), 0.0, t[0],
                epsabs=0.0, epsrel=1e-13)[0]
    sing = tail + np.cumsum([0.0] + [step_integral(lambda v, s: v * v / (8.0 * s), i)
                                     for i in range(h.size)])
    right = np.cumsum([0.0] + [step_integral(lambda v, s: v * v * (0.5 - s) / (4.0 * s * s), i)
                               for i in reversed(range(h.size))])[::-1]
    fi = np.max(np.abs(t * du - u - sing - lam / 4.0 * t * t))
    predicted = -(2.0 * (0.5 - t) * sing + t * right + lam / 4.0 * t * (0.5 - t)
                  - 2.0 * t * u[-1])
    assert abs(report.first_integral_resid - fi) <= 1e-13
    assert abs(report.representation_resid - np.max(np.abs(u - predicted))) <= 1e-13
    assert report.first_integral_resid <= 1e-10 and report.representation_resid <= 1e-10


def test_gauss_legendre_constants_are_the_six_node_rule():
    """The literal nodes and weights are numpy's 6-node Gauss-Legendre rule
    mapped to [0, 1], and integrate theta^k exactly up to degree 11."""
    x, w = np.polynomial.legendre.leggauss(6)
    assert np.allclose(integrator._GL_X, x, rtol=0.0, atol=1e-15)
    assert np.allclose(integrator._GL_W, w, rtol=0.0, atol=1e-15)
    for k in range(12):
        moment = sum(wk * th ** k for wk, th in zip(integrator._GL_HALF_W, _GL_THETA))
        assert moment == pytest.approx(1.0 / (k + 1), rel=1e-14), k


def test_identities_at_a_shifted_lam_are_rejected(root_cache):
    """A root checked against the identities at lam + 1e-3 fails the first
    integral by the missing (1e-3 / 4) t^2, 6.25e-5 at t = 1/2, and is
    rejected."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    shot = shoot(spec, root_cache(100.0, BoundaryKind.DIRICHLET).roots[0].a)
    assert validate(shot).accepted()
    report = validate(dataclasses.replace(shot, lam=100.0 + 1e-3))
    assert report.first_integral_resid == pytest.approx(1e-3 / 16.0, rel=1e-4)
    assert not report.accepted()


def test_acceptance_thresholds_at_their_edges():
    """Residuals exactly at FI_TOL, REP_TOL or BOUNDARY_TOL fail (strict <);
    max u exactly at SIGN_TOL passes (<=); a diverged shot's report never passes."""
    clean = dict(
        first_integral_resid=0.0, representation_resid=0.0, sign_violation=0.0, boundary_resid=0.0
    )
    assert ValidationReport(**clean).accepted()
    assert ValidationReport(**{**clean, "sign_violation": SIGN_TOL}).accepted()
    for field, value in [
        ("first_integral_resid", FI_TOL),
        ("representation_resid", REP_TOL),
        ("boundary_resid", BOUNDARY_TOL),
        ("boundary_resid", -BOUNDARY_TOL),
        ("sign_violation", math.nextafter(SIGN_TOL, math.inf)),
    ]:
        assert not ValidationReport(**{**clean, field: value}).accepted(), (field, value)
    diverged = shoot(ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET), -2000.0)
    assert diverged.diverged and not validate(diverged).accepted()


def test_residuals_small_on_roots(root_cache):
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        report = validate(shoot(spec, root.a))
        fi, rep = report.first_integral_resid, report.representation_resid
        assert fi < FI_TOL
        # the two exact identities agree on accepted Dirichlet solutions
        assert rep < 10.0 * fi


def test_corruption_sensitivity(root_cache):
    """Scaling u by 1.01 must blow the residual up by far more than 10x."""
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    shot = shoot(spec, rs.roots[0].a)
    clean = validate(shot).first_integral_resid
    corrupted = dataclasses.replace(shot, u=shot.u * 1.01, nodes=shot.nodes * 1.01)
    assert validate(corrupted).first_integral_resid > 10.0 * clean


def test_representation_resampling_stability(root_cache):
    """Halving every step's panel moves the representation residual by far
    less than the residual itself sits below REP_TOL: the Gauss-Legendre
    rule has converged, so the residual measures the solution."""
    a = root_cache(100.0, BoundaryKind.DIRICHLET).roots[0].a
    shot = shoot(ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET), a)
    r1 = validate(shot).representation_resid
    r2 = validate(_refined(shot, 2)).representation_resid
    assert validate(_refined(shot, 1)).representation_resid == pytest.approx(r1, abs=1e-14)
    assert abs(r2 - r1) < 1e-9
    assert r1 < 1e-9 < REP_TOL


def test_convergence_under_step_tol_halving(root_cache):
    """On the lower-branch reference solve the residual decreases with step_tol.

    Cumulative reduction over four halvings lands well above 4x; individual
    halvings always reduce the residual, though not each by a full 2x (the
    step controller quantizes the step sequence).
    """
    a = root_cache(100.0, BoundaryKind.DIRICHLET).roots[0].a
    fis = []
    for k in range(5):
        spec = ProblemSpec(
            lam=100.0, kind=BoundaryKind.DIRICHLET, step_tol=4e-4 * 0.5 ** k
        )
        fis.append(validate(shoot(spec, a)).first_integral_resid)
    assert all(fis[i + 1] < fis[i] for i in range(4)), fis
    assert fis[0] / fis[4] > 4.0


def test_convexity_of_accepted_trajectories(root_cache):
    """u' never decreases along a candidate solution (the rhs is nonnegative)."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        assert np.min(np.diff(traj.du)) >= -spec.step_tol


def test_slope_ratio_monotonicity(root_cache):
    """v = -u/t decreases with v' <= -lam/4, computed from the samples."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        vprime = -(traj.t * traj.du - traj.u) / traj.t ** 2
        assert np.max(vprime) <= -spec.lam / 4.0 + 1e-7


def test_launch_consistency_at_eps(root_cache):
    """|u(eps)/eps - a| stays within the series' own correction |beta| eps."""
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    for root in root_cache(100.0, BoundaryKind.DIRICHLET).roots:
        traj = integrate(spec, root.a)
        beta = _beta(root.a, spec.lam)
        assert abs(traj.u[0] / spec.eps - root.a) <= abs(beta) * spec.eps + 1e-12


def test_quadrature_independence_on_subgrid(root_cache):
    """Residuals on the steps and on every step halved agree in order; the
    halved panels add checks at the step midpoints, where the interpolant
    is a little less accurate than the stepped states."""
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    spec = ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET)
    shot = shoot(spec, rs.roots[0].a)
    fi_full = validate(shot).first_integral_resid
    fi_sub = validate(_refined(shot, 2)).first_integral_resid
    assert fi_sub <= 8.0 * fi_full
    assert fi_full <= 1.5 * fi_sub


def test_tableau_literals_are_scipys_dop853():
    """Every literal of the unrolled stepper's tableau is the float of
    scipy's DOP853 coefficient in the same place, and the weights left out
    (stage 12's error weights) are zero there."""
    from scipy.integrate._ivp import dop853_coefficients as dop

    assert integrator._C == tuple(dop.C[1:13].tolist())
    for s, row in enumerate(integrator._A, start=1):
        assert row == tuple(dop.A[s, :s].tolist()), s
    assert integrator._E5 == tuple(dop.E5[:12].tolist()) and dop.E5[12] == 0.0
    assert integrator._E3 == tuple(dop.E3[:12].tolist()) and dop.E3[12] == 0.0


@pytest.mark.parametrize("kind, lam, a", [
    (BoundaryKind.DIRICHLET, 100.0, -108.5),
    (BoundaryKind.DIRICHLET, 168.7694, -52.35),
    (BoundaryKind.NAVIER, 9.0, -13.2),
], ids=["dirichlet-100", "dirichlet-near-fold", "navier-9"])
def test_interpolant_matches_the_step_ends_and_an_independent_solution(kind, lam, a):
    """Each step's interpolants meet the stepped states at both ends, the
    launch step's u'' included, and between them both stay within 1e-9 of
    scipy's DOP853 at rtol 2.3e-14 and steps of at most 5e-4."""
    from scipy.integrate import solve_ivp

    spec = ProblemSpec(lam=lam, kind=kind)
    shot = shoot(spec, a)
    at_end = integrator._hermite(lambda k: shot.q[..., k], 1.0)
    assert np.array_equal(shot.u[:-1] + at_end[:, 0], shot.u[1:])
    assert np.array_equal(shot.du[:-1] + at_end[:, 1], shot.du[1:])
    # u'' at the launch: the slope in theta of the u' interpolant is h u''
    eps, h = spec.eps, shot.h[0]
    d = 1e-7
    coef = shot.q[0, 1].__getitem__
    slope = (integrator._hermite(coef, d) - integrator._hermite(coef, 0.0)) / d
    assert slope == pytest.approx(h * (shot.u[0] ** 2 / (8.0 * eps * eps) + lam / 2.0), rel=1e-6)
    ref = solve_ivp(lambda t, y: [y[1], y[0] ** 2 / (8.0 * t * t) + lam / 2.0], (eps, 0.5),
                    launch_state(a, lam, eps), method="DOP853", rtol=2.3e-14, atol=1e-300,
                    dense_output=True, max_step=5e-4)
    theta = np.linspace(0.0, 1.0, 17)[1:-1]
    for c, bound in ((0, 1e-9), (1, 1e-9)):
        y = (shot.u, shot.du)[c][:-1, None] + integrator._hermite(
            lambda k: shot.q[:, c, None, k], theta)
        want = ref.sol((shot.t[:-1, None] + shot.h[:, None] * theta).ravel())[c]
        assert np.max(np.abs(y.ravel() - want)) < bound, c

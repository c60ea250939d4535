"""Integration from the singular endpoint and the solution validator.

The initial value problem is launched at t = eps with the two-term series
u = a*t + beta*t^2 (beta = a^2/16 + lam/4) and advanced to t = 1/2 with
DOP853, Dormand and Prince's embedded 8th-order pair, whose one step-size
controller serves every shot.  Its stages are spelled out on Python floats,
each sum in tableau order, so a shot costs little more than its
arithmetic.  A shot can record each accepted step as its start (t, h, u,
u'): a :class:`Shot` is built from that record, with each step's u and u'
interpolated between its ends by the two-point Taylor polynomials that the
equation's derivatives at both ends fix (:func:`_interpolant`), and fills
the samples of any uniform grid in one vectorized pass, so step sizes are
chosen by the error controller alone.  lam is a pure
scale of the equation: if u(t) solves it, u(kt) solves it with k^2 lam and
launch slope k a, so the event shot at one lam (:func:`shoot_event`) gives
a solution at another lam for each slope.

Candidate solutions are validated against two exact identities that every
genuine solution satisfies:

* first integral:  t u'(t) - u(t) = I(t) + (lam/4) t^2
* integral representation:  u(t) = -[2 (1/2-t) I(t)
      + t int_t^{1/2} u^2/(4s^2) (1/2-s) ds + (lam/4) t (1/2-t) - 2 t u(1/2)]

with the singular integral I(t) = int_0^t u^2/(8s) ds, which both share.
:func:`validate` checks both at the ends of a solution's panels.  A shot's
panels are its accepted steps: a 6-node Gauss-Legendre rule integrates the
step's interpolant of u, and the s < eps tail of I comes analytically from
the series launch.  The rule's error is far below the shot's own, so the
residuals measure the solution, and no output grid enters them.
"""

from __future__ import annotations

import dataclasses
import math
import numpy as np

from .errors import IntegrationError
from .model import BoundaryKind, ProblemSpec, Trajectory

# DOP853, the 8(5,3) pair of Dormand & Prince (Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.5 and II.10; Prince & Dormand, J. Comput. Appl. Math.
# 7, 1981), as scipy's dop853_coefficients holds it: the nodes c_s of stages
# 1-12, each stage's weights a_sj on the stages before it (stage 12, at the
# 8th-order end state, weighs stages 0-11 by b_j), and the 5th- and 3rd-order
# error weights on stages 0-11.
_C = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0,
)
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)

_MIN_STEP = 1e-16

# |u| above which a shot is flagged as diverged
BLOWUP = 1e6

# 6-node Gauss-Legendre rule on [-1, 1], exact to degree 11, and its nodes
# theta in (0, 1) with their weights for the unit interval
_GL_X = (-0.932469514203152, -0.6612093864662645, -0.2386191860831969,
         0.2386191860831969, 0.6612093864662645, 0.932469514203152)
_GL_W = (0.17132449237917036, 0.3607615730481386, 0.46791393457269104,
         0.46791393457269104, 0.3607615730481386, 0.17132449237917036)
_GL_THETA = np.array([(1.0 + x) / 2.0 for x in _GL_X])
_GL_HALF_W = [w / 2.0 for w in _GL_W]

FI_TOL = 1e-6  # first-integral residual
REP_TOL = 1e-5  # integral-representation residual
SIGN_TOL = 1e-8  # max u (sign property)
BOUNDARY_TOL = 1e-8  # endpoint residual


@dataclasses.dataclass
class ValidationReport:
    """Residuals of one solution against the exact solution identities.

    A solution is accepted iff every residual is below its threshold and
    ``sign_violation``, which is max u over its panel ends and nodes and may
    be of either sign, is at most ``SIGN_TOL``.  A diverged shot has
    infinite residuals, so it is never accepted.
    """

    first_integral_resid: float
    representation_resid: float
    sign_violation: float
    boundary_resid: float

    def accepted(self) -> bool:
        """Check all residuals against the module's acceptance thresholds."""
        return (
            self.first_integral_resid < FI_TOL
            and self.representation_resid < REP_TOL
            and self.sign_violation <= SIGN_TOL
            and abs(self.boundary_resid) < BOUNDARY_TOL
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _beta(a, lam):
    """The series coefficient beta = a^2/16 + lam/4 that the equation forces."""
    return a * a / 16.0 + lam / 4.0


def launch_state(a: float, lam: float, eps: float) -> tuple[float, float]:
    """Series state (u, u') at t = eps for launch slope a.

    u = a*eps + beta*eps^2 and u' = a + 2*beta*eps with beta = a^2/16 + lam/4.
    Substituting the series back into the equation leaves a residual that is
    O(eps), so the launch error in u is O(eps^3).
    """
    if not 0.0 < eps < 0.5:
        raise IntegrationError(f"launch point must lie in (0, 1/2), got {eps}")
    beta = _beta(a, lam)
    return a * eps + beta * eps * eps, a + 2.0 * beta * eps


def _dop853(spec: ProblemSpec, a: float, steps: list | None = None, stop=None) -> tuple:
    """Adaptive DOP853 run from the series launch to t = 1/2.

    The one step-size controller of the package.  Each step's local error
    is the pair's combined 5th/3rd-order estimate (Hairer, Norsett & Wanner,
    sec. II.10): with e5 and e3 the two error sums scaled by
    ``spec.step_tol`` (1 + |y|) on y = (u, u') at the step's start, err = h
    |e5|^2 / sqrt(2 (|e5|^2 + |e3|^2 / 100)), and a step is accepted when
    err <= 1; the next step is h 0.9 err^(-1/8), its factor clamped to
    [0.2, 5].  The first step is 1e-3: at 1e-4 the estimate of a first step
    is below the stages' rounding for slopes near -50, and that noise would
    set every later step size.  Returns the last state ``(u, u',
    diverged)``: the state at t = 1/2, or the last state reached when |u|
    exceeded ``BLOWUP`` or a stage went non-finite (both flagged as
    divergence).  Each accepted step appends its start (t, h, u, u') to
    ``steps`` when given.  If ``stop(t, u, u')`` holds at an accepted step's
    end, the shot stops there and returns ``(u, u', False, step)``: that end
    and the step's start.

    The stages are spelled out on local floats, each sum in tableau order
    from its first nonzero term.  For every finite stage that is bit for bit
    ``acc = 0.0; for j: acc += A[s][j] * k[j]`` over the tableau: u and u'
    are never -0.0, so a sum's sign of zero is lost once they are added, and
    a zero weight adds 0 x = 0.  A non-finite stage still reaches u12 or
    u'12, as every stage weighs the one before it by a nonzero a_s,s-1 and
    b_11 is nonzero.  As c11 = c12 = 1, stages 11 and 12 share t + h, and
    the error sums skip stage 12, whose weights are 0.

    The pair is first-same-as-last: stage 12 sits at the 8th-order end
    state, so an accepted step hands its end state and the next step's
    first stage over without recomputing them.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, _, _ = _C
    ((a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
     (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
     (a7_0, _, _, a7_3, a7_4, a7_5, a7_6), (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11)) = _A
    p0, _, _, _, _, p5, p6, p7, p8, p9, p10, p11 = _E5
    r0, _, _, _, _, r5, r6, r7, r8, r9, r10, r11 = _E3
    isfinite = math.isfinite
    sqrt = math.sqrt
    lam = spec.lam
    half_lam = lam / 2.0
    tol = spec.step_tol
    u, du = launch_state(a, lam, spec.eps)
    t = spec.eps
    h = min(1e-3, 0.5 - t)
    # the first stage (u', u'') is (du, f0); the last stage of a step is the next one's first
    f0 = u * u / (8.0 * t * t) + half_lam
    while True:
        final = h >= 0.5 - t
        if final:
            h = 0.5 - t
        ts = t + c1 * h
        u1 = u + h * (a1_0 * du)
        v1 = du + h * (a1_0 * f0)
        f1 = u1 * u1 / (8.0 * ts * ts) + half_lam
        ts = t + c2 * h
        u2 = u + h * (a2_0 * du + a2_1 * v1)
        v2 = du + h * (a2_0 * f0 + a2_1 * f1)
        f2 = u2 * u2 / (8.0 * ts * ts) + half_lam
        ts = t + c3 * h
        u3 = u + h * (a3_0 * du + a3_2 * v2)
        v3 = du + h * (a3_0 * f0 + a3_2 * f2)
        f3 = u3 * u3 / (8.0 * ts * ts) + half_lam
        ts = t + c4 * h
        u4 = u + h * (a4_0 * du + a4_2 * v2 + a4_3 * v3)
        v4 = du + h * (a4_0 * f0 + a4_2 * f2 + a4_3 * f3)
        f4 = u4 * u4 / (8.0 * ts * ts) + half_lam
        ts = t + c5 * h
        u5 = u + h * (a5_0 * du + a5_3 * v3 + a5_4 * v4)
        v5 = du + h * (a5_0 * f0 + a5_3 * f3 + a5_4 * f4)
        f5 = u5 * u5 / (8.0 * ts * ts) + half_lam
        ts = t + c6 * h
        u6 = u + h * (a6_0 * du + a6_3 * v3 + a6_4 * v4 + a6_5 * v5)
        v6 = du + h * (a6_0 * f0 + a6_3 * f3 + a6_4 * f4 + a6_5 * f5)
        f6 = u6 * u6 / (8.0 * ts * ts) + half_lam
        ts = t + c7 * h
        u7 = u + h * (a7_0 * du + a7_3 * v3 + a7_4 * v4 + a7_5 * v5 + a7_6 * v6)
        v7 = du + h * (a7_0 * f0 + a7_3 * f3 + a7_4 * f4 + a7_5 * f5 + a7_6 * f6)
        f7 = u7 * u7 / (8.0 * ts * ts) + half_lam
        ts = t + c8 * h
        u8 = u + h * (a8_0 * du + a8_3 * v3 + a8_4 * v4 + a8_5 * v5 + a8_6 * v6 + a8_7 * v7)
        v8 = du + h * (a8_0 * f0 + a8_3 * f3 + a8_4 * f4 + a8_5 * f5 + a8_6 * f6 + a8_7 * f7)
        f8 = u8 * u8 / (8.0 * ts * ts) + half_lam
        ts = t + c9 * h
        u9 = u + h * (a9_0 * du + a9_3 * v3 + a9_4 * v4 + a9_5 * v5 + a9_6 * v6 + a9_7 * v7
                      + a9_8 * v8)
        v9 = du + h * (a9_0 * f0 + a9_3 * f3 + a9_4 * f4 + a9_5 * f5 + a9_6 * f6 + a9_7 * f7
                       + a9_8 * f8)
        f9 = u9 * u9 / (8.0 * ts * ts) + half_lam
        ts = t + c10 * h
        u10 = u + h * (a10_0 * du + a10_3 * v3 + a10_4 * v4 + a10_5 * v5 + a10_6 * v6
                       + a10_7 * v7 + a10_8 * v8 + a10_9 * v9)
        v10 = du + h * (a10_0 * f0 + a10_3 * f3 + a10_4 * f4 + a10_5 * f5 + a10_6 * f6
                        + a10_7 * f7 + a10_8 * f8 + a10_9 * f9)
        f10 = u10 * u10 / (8.0 * ts * ts) + half_lam
        t1 = t + h
        w = 8.0 * t1 * t1
        u11 = u + h * (a11_0 * du + a11_3 * v3 + a11_4 * v4 + a11_5 * v5 + a11_6 * v6
                       + a11_7 * v7 + a11_8 * v8 + a11_9 * v9 + a11_10 * v10)
        v11 = du + h * (a11_0 * f0 + a11_3 * f3 + a11_4 * f4 + a11_5 * f5 + a11_6 * f6
                        + a11_7 * f7 + a11_8 * f8 + a11_9 * f9 + a11_10 * f10)
        f11 = u11 * u11 / w + half_lam
        u12 = u + h * (b0 * du + b5 * v5 + b6 * v6 + b7 * v7 + b8 * v8 + b9 * v9 + b10 * v10
                       + b11 * v11)
        v12 = du + h * (b0 * f0 + b5 * f5 + b6 * f6 + b7 * f7 + b8 * f8 + b9 * f9 + b10 * f10
                        + b11 * f11)
        # a non-finite stage anywhere in the step reaches u12 or v12
        if not (isfinite(u12) and isfinite(v12)):
            return u, du, True
        scale_u = tol * (1.0 + abs(u))
        scale_v = tol * (1.0 + abs(du))
        e5_u = (p0 * du + p5 * v5 + p6 * v6 + p7 * v7 + p8 * v8 + p9 * v9 + p10 * v10
                + p11 * v11) / scale_u
        e5_v = (p0 * f0 + p5 * f5 + p6 * f6 + p7 * f7 + p8 * f8 + p9 * f9 + p10 * f10
                + p11 * f11) / scale_v
        e3_u = (r0 * du + r5 * v5 + r6 * v6 + r7 * v7 + r8 * v8 + r9 * v9 + r10 * v10
                + r11 * v11) / scale_u
        e3_v = (r0 * f0 + r5 * f5 + r6 * f6 + r7 * f7 + r8 * f8 + r9 * f9 + r10 * f10
                + r11 * f11) / scale_v
        e5 = e5_u * e5_u + e5_v * e5_v
        den = e5 + 0.01 * (e3_u * e3_u + e3_v * e3_v)
        err = h * e5 / sqrt(2.0 * den) if e5 != 0.0 else 0.0
        if not isfinite(err):
            err = 1e16
        if err <= 1.0:
            f12 = u12 * u12 / w + half_lam
            stopped = stop is not None and stop(t1, u12, v12)
            if stopped:
                return u12, v12, False, (t, h, u, du)
            if steps is not None:
                steps += (t, h, u, du)
            t = t1
            u, du, f0 = u12, v12, f12
            if abs(u) > BLOWUP:
                return u, du, True
            if final:
                return u, du, False
        factor = 0.9 * (1.0 / err) ** 0.125 if err > 0.0 else 5.0
        h *= 0.2 if factor < 0.2 else 5.0 if factor > 5.0 else factor
        if h < _MIN_STEP:
            raise IntegrationError(f"step size underflow at t={t!r} (a={a!r}, lam={lam!r})")


def _two_point(x: list, weights: tuple) -> list:
    """sum_i weights[i] x[k-i] for each k, added from x[k] up: one end's
    Taylor data x carried into the two-point form, as (1 - theta)^-n =
    sum_i C(n-1+i, i) theta^i."""
    out = []
    for k in range(len(x)):
        acc = x[k]
        for i in range(1, k + 1):
            acc = acc + weights[i] * x[k - i]
        out.append(acc)
    return out


def _interpolant(spec: ProblemSpec, a: float, t: np.ndarray, u: np.ndarray,
                 du: np.ndarray) -> np.ndarray:
    """Coefficients ``q[i, c]`` of the interpolant of (u, u')[c] over each step
    [t[i], t[i+1]] of a shot at slope a, from the states at the step ends.

    The equation gives each end's Taylor coefficients c_k = u^(k)/k!: c_2 =
    u''/2 from the equation itself, and c_3..c_5 from 8 t^2 u'' = u^2 +
    4 lam t^2 differentiated one to three times.  Over a step of size h, in
    theta = (t - t[i])/h, u is the two-point Taylor (Hermite) interpolant of
    degree 7 that matches c_0..c_3 at both ends, and u' the one of degree 9
    that matches the five coefficients of u' (k c_k, k = 1..5).  Both are
    held in the form y(theta) = y(t[i]) + (1-theta)^5 sum_k P_k theta^k +
    theta^5 sum_k Q_k (1-theta)^k, q[i, c] = (P_0..P_4, Q_0..Q_4), whose
    weights are binomials of at most 70, so the rounding of the end states
    is not amplified; u's fifth coefficients are those its degree-7
    interpolant implies.

    A launch at t[0] = eps sits on the series, where t u' - u = beta t^2
    gives c_3 = u beta / (24 eps) without cancellation.  Its c_4 and c_5
    are those of the equation's singular mode, of size one however small
    eps is, so u' takes three coefficients at the launch end there, and the
    other two are those its degree-7 interpolant implies.  All arithmetic
    is elementwise, with no BLAS call to set its bits.
    """
    lam = spec.lam
    h = t[1:] - t[:-1]
    launch = h.size > 0 and t[0] == spec.eps
    # row k: (u, u') Taylor data of order k at each end, u's row 4 filled in below
    data = np.empty((5, 2, t.size))
    # a diverged shot's last state may overflow these; its samples stop there
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = t * t
        c2 = (u * u / (8.0 * t2) + lam / 2.0) / 2.0
        c3 = (2.0 * u * du + 8.0 * lam * t - 32.0 * t * c2) / (48.0 * t2)
        if launch:
            c3[0] = u[0] * _beta(a, lam) / (24.0 * t[0])
        c4 = (2.0 * u * c2 + du * du + 4.0 * lam - 96.0 * t * c3 - 16.0 * c2) / (96.0 * t2)
        c5 = (2.0 * u * c3 + 2.0 * du * c2 - 192.0 * t * c4 - 48.0 * c3) / (160.0 * t2)
        data[:4, 0] = u, du, c2, c3
        data[4, 0] = 0.0
        data[:, 1] = du, 2.0 * c2, 3.0 * c3, 4.0 * c4, 5.0 * c5
        # each end's data in its own variable, theta at the left and 1 - theta
        # at the right: rows (left u, left u', right u, right u')
        hk = np.vander(h, 5, increasing=True).T[:, None, :]
        ends = np.concatenate([data[:, :, :-1] * hk, data[:, :, 1:] * hk], axis=1)
        ends[1::2, 2:] *= -1.0
        ends[0, :2] = 0.0
        ends[0, 2:] = data[0, :, 1:] - data[0, :, :-1]
        # u's fifth coefficients at both ends, those of its degree-7 interpolant
        p = _two_point(ends[:4, ::2], (1.0, 4.0, 10.0, 20.0))
        own = p[0] - 4.0 * p[1] + 6.0 * p[2] - 4.0 * p[3]
        total = p[0] + p[1] + p[2] + p[3]
        ends[4, 0] = own[0] + total[1]
        ends[4, 2] = own[1] + total[0]
        if launch:
            # u' at the launch end: the degree-7 interpolant of three coefficients there
            p = _two_point(ends[:3, 1, 0], (1.0, 5.0, 15.0))
            r = _two_point(ends[:, 3, 0], (1.0, 3.0, 6.0, 10.0, 15.0))
            ends[3, 1, 0] = -10.0 * p[0] + 10.0 * p[1] - 5.0 * p[2] + sum(r)
            ends[4, 1, 0] = 5.0 * p[0] - 10.0 * p[1] + 10.0 * p[2] - sum(k * x for k, x in enumerate(r))
        q = np.stack(_two_point(ends, (1.0, 5.0, 15.0, 35.0, 70.0)))
    # q[k, end * 2 + c, i] -> q[i, c, end * 5 + k]
    return q.reshape(5, 2, 2, h.size).transpose(3, 2, 1, 0).reshape(h.size, 2, 10)


def _hermite(coef, theta):
    """y(theta) - y(t[i]) of interpolants at theta, whose coefficients
    (P_0..P_4, Q_0..Q_4) are ``coef(0)``..``coef(9)``: floats, or arrays
    broadcast with theta.  Each sum is in Horner order, elementwise, so a
    float and an array entry give the same bits."""
    s = 1.0 - theta
    left = coef(4) * theta
    right = coef(9) * s
    left += coef(3)
    right += coef(8)
    for k in (2, 1, 0):
        left *= theta
        left += coef(k)
        right *= s
        right += coef(5 + k)
    s5 = s * s
    s5 = s5 * s5 * s
    theta5 = theta * theta
    theta5 = theta5 * theta5 * theta
    left *= s5
    right *= theta5
    left += right
    return left


@dataclasses.dataclass(eq=False)
class Panels:
    """A candidate solution on consecutive panels of [t[0], 1/2], as
    :func:`validate` reads it.

    ``u`` and ``du`` are the solution at the panel ends ``t`` (t[-1] is 1/2
    unless ``diverged``), ``nodes[k, i]`` is u at the Gauss-Legendre node
    t[i] + theta_k (t[i+1] - t[i]) of panel i, and ``tail`` is
    int_0^t[0] u^2/(8s) ds.
    """

    lam: float
    kind: BoundaryKind
    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    nodes: np.ndarray
    tail: float
    diverged: bool


@dataclasses.dataclass(eq=False)
class Shot(Panels):
    """One :func:`_dop853` shot at slope ``a``, its accepted steps as panels.

    Step i starts at t[i] with size ``h[i]``; ``q[i, c]`` are the
    coefficients of its interpolant of (u, u')[c] in the two-point form of
    :func:`_interpolant`: y(t[i] + theta h[i]) = y(t[i]) +
    ``_hermite(q[i, c].__getitem__, theta)``.  Built by :func:`shoot` from
    the step ends the stepper records.
    """

    a: float
    h: np.ndarray
    q: np.ndarray

    def trajectory(self, grid_n: int) -> Trajectory:
        """The shot on ``grid_n`` uniform samples of [eps, 1/2], endpoint included.

        Every sample after the launch is filled in one vectorized pass from
        the interpolant of its step: the first step whose end lies beyond
        the sample, so a sample on a step end is deferred to the next step,
        whose theta = 0 reproduces the stepped state bit for bit.  Samples
        at or past the last step's end take the end state at t = 1/2 (they
        differ from it only by fp drift); a diverged shot is truncated after
        its last filled sample.  Each sample is evaluated elementwise in one
        fixed order (:func:`_hermite`), so its bits depend neither on how
        many samples its step covers nor on the grid.
        """
        t0, h = self.t[:-1], self.h
        t_out = np.linspace(self.t[0], 0.5, grid_n)
        us = np.empty(grid_n)
        dus = np.empty(grid_n)
        us[0], dus[0] = self.u[0], self.du[0]
        # step s fills the samples before its end that no earlier step took
        stops = np.searchsorted(t_out, t0 + h, "left")
        counts = np.diff(stops, prepend=1)
        idx = int(stops[-1]) if h.size else 1
        theta = t_out[1:idx] - np.repeat(t0, counts)
        theta /= np.repeat(h, counts)
        for qc, y0, out in ((self.q[:, 0], self.u[:-1], us), (self.q[:, 1], self.du[:-1], dus)):
            # each coefficient repeated over its step's samples as Horner reaches it
            out[1:idx] = np.repeat(y0, counts) + _hermite(
                lambda k: np.repeat(qc[:, k], counts), theta)
        if not self.diverged:
            us[idx:], dus[idx:] = self.u[-1], self.du[-1]
            idx = grid_n
        return Trajectory(
            lam=self.lam, kind=self.kind, t=t_out[:idx], u=us[:idx], du=dus[:idx], a=self.a,
            diverged=self.diverged,
        )


def shoot(spec: ProblemSpec, a: float) -> Shot:
    """The :func:`_dop853` shot at slope a, built from the steps it records.

    The interpolants ``q`` (:func:`_interpolant`) and the Gauss-Legendre
    nodes follow from the states at the step ends alone.  If |u| exceeds
    ``BLOWUP`` the shot stops there with ``diverged`` set -- root scanning
    relies on probing such slopes, so divergence is not an error.
    Deterministic: identical spec and slope give bit-identical shots.

    Raises
    ------
    IntegrationError
        On step-size underflow.
    """
    steps: list = []
    u_end, du_end, diverged = _dop853(spec, a, steps)
    # one row per accepted step: its start t, h, u, u'
    t0, h, u0, du0 = np.array(steps, dtype=float).reshape(-1, 4).T
    t = np.append(t0, t0[-1] + h[-1] if h.size else spec.eps)
    u, du = np.append(u0, u_end), np.append(du0, du_end)
    q = _interpolant(spec, a, t, u, du)
    # u at each step's Gauss-Legendre nodes, on the same interpolant
    nodes = u0 + _hermite(lambda k: q[:, 0, k], _GL_THETA[:, None])
    # the series u = a s + beta s^2 makes u^2/(8s) a polynomial below eps
    eps, beta = spec.eps, _beta(a, spec.lam)
    tail = (a * a * eps ** 2 / 2.0 + 2.0 * a * beta * eps ** 3 / 3.0
            + beta * beta * eps ** 4 / 4.0) / 8.0
    return Shot(lam=spec.lam, kind=spec.kind, t=t, u=u, du=du, nodes=nodes, tail=tail,
                diverged=diverged, a=a, h=h, q=q)


def integrate(spec: ProblemSpec, a: float) -> Trajectory:
    """The shot at slope a (:func:`shoot`) on ``spec.grid_n`` samples."""
    return shoot(spec, a).trajectory(spec.grid_n)


def shoot_endpoint(spec: ProblemSpec, a: float) -> tuple:
    """Endpoint state (u(1/2), u'(1/2), diverged) of the :func:`_dop853` shot,
    which records nothing."""
    return _dop853(spec, a)


def _refine_bracket(g, lo: float, glo: float, hi: float, ghi: float, x: float, slope: float,
                    width: float, bound: float) -> float:
    """Bracket-safeguarded secant for a root of g on [lo, hi], where g is glo
    and ghi, of opposite signs, from x along ``slope``.

    A step within width / 2 of the best point (first the bracket end of
    smaller |g|) goes width / 2 from it toward the sign change, Brent's
    minimum step (Algorithms for Minimization without Derivatives, 1973,
    ch. 4), so that one call of g can close the bracket; a step out of the
    bracket, or not finite, goes to the midpoint.  Returns the point of
    smallest |g| once the bracket is no wider than ``width`` and that |g| is
    within ``bound``, or 4 ulp wide, or after 60 steps."""
    best_x, best_g = (lo, glo) if abs(glo) < abs(ghi) else (hi, ghi)
    x_prev = g_prev = None
    for _ in range(60):
        if hi - lo <= 4.0 * abs(np.spacing(lo)) or (hi - lo <= width and abs(best_g) <= bound):
            break
        if abs(x - best_x) < 0.5 * width:
            x = best_x + math.copysign(0.5 * width, lo + hi - 2.0 * best_x)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        gx = g(x)
        if abs(gx) < abs(best_g):
            best_x, best_g = x, gx
        if glo * gx <= 0.0:
            hi = x
        else:
            lo, glo = x, gx
        if x_prev is not None:
            slope = (gx - g_prev) / (x - x_prev)
        x_prev, g_prev = x, gx
        x = x - gx / slope if slope != 0.0 else math.nan
    return best_x


def shoot_event(spec: ProblemSpec, a: float) -> tuple[float, float, float] | None:
    """(t*, u, u') where b = ``spec.kind.residual(u, 2 t u')`` first leaves its
    launch sign, or None if b keeps it up to t = 1/2 or to divergence.

    b is u (Dirichlet) or u - 2 t u' (Navier), so u(2 t* t) is the solution
    at 4 t*^2 lam with slope 2 t* a.  The :func:`_dop853` shot tests b at the
    end of each accepted step and stops at the first that has left the
    sign, with both ends of that step in hand.  The secant of
    :func:`_refine_bracket`, from the chord, places t* on the step's
    interpolant (:func:`_interpolant`) to 1e-14 of the step, bracketed by b
    at the step's two ends, and the state there is that interpolant's, as
    :meth:`Shot.trajectory` evaluates it.  A launch on b = 0 has no sign to
    leave, and gives None.
    """
    # the residual is linear, so b = residual(u, 2 t u') = u + c t u'
    c = 2.0 * spec.kind.residual(0.0, 1.0)
    u, du = launch_state(a, spec.lam, spec.eps)
    sign = math.copysign(1.0, u + c * spec.eps * du)

    def crossed(t, u, du):
        return sign * (u + c * t * du) <= 0.0

    if crossed(spec.eps, u, du):
        return None
    end = _dop853(spec, a, stop=crossed)
    if len(end) == 3:  # b kept its sign to t = 1/2 or to divergence
        return None
    u, du, _, (t0, h, u0, du0) = end
    (qu, qv), = _interpolant(spec, a, np.array([t0, t0 + h]), np.array([u0, u]),
                             np.array([du0, du])).tolist()

    def state(theta):
        """(u, u') at theta on the step's interpolant, as Shot.trajectory has it."""
        return u0 + _hermite(qu.__getitem__, theta), du0 + _hermite(qv.__getitem__, theta)

    def b_at(theta):
        x, v = state(theta)
        return x + c * (t0 + theta * h) * v

    b0, b1 = u0 + c * t0 * du0, u + c * (t0 + h) * du
    theta = _refine_bracket(b_at, 0.0, b0, 1.0, b1, b0 / (b0 - b1), b1 - b0, 1e-14, math.inf)
    return (t0 + theta * h, *state(theta))


def _rk4_scan(grid, u, du, half_lam):
    """Classical RK4 over the times ``grid`` on arrays, in place.

    Steps the states (u, u') of the launch arrays ``u`` and ``du``, each
    with its own ``half_lam`` = lam / 2, through preallocated buffers, and
    returns the final (u, u') and the running peak of |u|.  Every element
    goes through the operations of one scalar RK4 step in a fixed order
    (the slopes u^2/(8 t^2) + lam/2 at t0, t0 + h/2 twice and t1, then
    y += h/6 (((k1 + 2 k2) + 2 k3) + k4)), so it is bit for bit the scalar
    reference step of the tests; NaN propagates through the peak.
    """
    n = half_lam.size
    # stage s's rows are its state u and its slope pair (u', u''); stage 0
    # starts at y = (u, u'), so y and every slope pair are views
    k = np.empty((4, 3, n))
    k[0, 0], k[0, 1] = u, du
    y, u, k1v = k[0, :2], k[0, 0], k[0, 2]
    stages = [(k[s, :2], k[s, 0], k[s, 2], k[s - 1, 1:]) for s in range(1, 4)]
    k1, k2, k3, k4 = (k[s, 1:] for s in range(4))
    acc, tmp = np.empty((2, n)), np.empty((2, n))
    peak = np.zeros(n)
    for t0, t1 in zip(grid, grid[1:]):
        h = t1 - t0
        th = t0 + 0.5 * h
        np.multiply(u, u, out=k1v)
        np.divide(k1v, 8.0 * t0 * t0, out=k1v)
        np.add(k1v, half_lam, out=k1v)
        for (state, us, vs, prev), step, t in zip(stages, (0.5 * h, 0.5 * h, h), (th, th, t1)):
            # (u_s, u'_s) = y + step (u', u'') of the stage before
            np.add(y, np.multiply(step, prev, out=state), out=state)
            np.multiply(us, us, out=vs)
            np.divide(vs, 8.0 * t * t, out=vs)
            np.add(vs, half_lam, out=vs)
        # y += h / 6 (((k1 + 2 k2) + 2 k3) + k4)
        np.add(k1, np.multiply(2.0, k2, out=tmp), out=acc)
        np.add(acc, np.multiply(2.0, k3, out=tmp), out=acc)
        np.add(acc, k4, out=acc)
        np.add(y, np.multiply(h / 6.0, acc, out=acc), out=y)
        np.maximum(peak, np.abs(u, out=tmp[0]), out=peak)
    return y[0], y[1], peak


def validate(sol: Panels) -> ValidationReport:
    """All validator residuals of one solution: the defects of the two
    identities (module docstring) at its panel ends, max u over the ends
    and the nodes, and the endpoint residual.  The package's one residual
    entry point.  Each panel's two integrals are Gauss-Legendre sums in
    node order; I(t) is ``tail`` plus their running sum from t[0], and the
    representation's right integral is summed from t = 1/2.
    """
    if sol.diverged:
        return ValidationReport(
            first_integral_resid=math.inf,
            representation_resid=math.inf,
            sign_violation=float(np.max(sol.u)),
            boundary_resid=math.inf,
        )
    t, u, du, lam = sol.t, sol.u, sol.du, sol.lam
    h = np.diff(t)
    sing = np.zeros(t.size)
    right = np.zeros(t.size)
    for theta, weight, un in zip(_GL_THETA, _GL_HALF_W, sol.nodes):
        s = t[:-1] + theta * h
        w2 = weight * h * un * un
        sing[1:] += w2 / (8.0 * s)
        right[:-1] += w2 * (0.5 - s) / (4.0 * s * s)
    sing = sol.tail + np.cumsum(sing)
    right = np.cumsum(right[::-1])[::-1]
    fi = float(np.max(np.abs(t * du - u - sing - lam / 4.0 * t * t)))
    # the Navier case keeps the 2 t u(1/2) term, which drops for Dirichlet solutions
    predicted = -(2.0 * (0.5 - t) * sing + t * right + lam / 4.0 * t * (0.5 - t) - 2.0 * t * u[-1])
    return ValidationReport(
        first_integral_resid=fi,
        representation_resid=float(np.max(np.abs(u - predicted))),
        sign_violation=float(max(np.max(u), np.max(sol.nodes))),
        boundary_resid=float(sol.kind.residual(u[-1], du[-1])),
    )

"""DOP853, the eighth-order Dormand-Prince pair that runs the matrix pair flow.

The method is Hairer's DOP853 (Hairer, Norsett and Wanner, *Solving
Ordinary Differential Equations I*, sec. II.10, and their Fortran code):
an explicit 12-stage Runge-Kutta step of order 8, a 5th/3rd-order error
norm, and a degree-7 dense output from 3 more stages. ``integrate`` runs
it on the 16 packed reals of a 4x2 frame for ``odeint``'s matrix pair
flow, with that flow's post-step hook, and records each step's turn
estimate (_step_turns), from which ``odeint.detect_det_zeros`` picks the
steps it reads. On the frames of the packaged scenarios it takes about a
tenth of the steps of ``odeint``'s DP5(4) solver at the frame tolerance.

``odeint`` imports this module on its first pair solve, so importing the
package, and an analysis that integrates no frame, compile none of it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .odeint import (
    _MAX_FACTOR,
    _MAX_STEPS,
    _MIN_FACTOR,
    _SAFETY,
    StepBudgetExhausted,
    StepUnderflow,
    Trajectory,
    _initial_step,
)

__all__ = ["integrate"]

# The tableau, with the digits of scipy's
# integrate/_ivp/dop853_coefficients.py (the package imports no scipy).
# Stage i (1..15) is y + h * sum_j a_ij k_j at t + _C8[i] * h, row i of
# _A8_ROWS holding the nonzero a_ij. Stages 0..11 make the step; row 12
# is the eighth-order solution, whose derivative is stage 12, and stages
# 13..15 serve the dense output only. The nodes are Python floats so that
# stage times stay Python floats.
_C8 = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
)
_A8_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {
        0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    {
        0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    {
        0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2,
    },
    {
        0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    {
        0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1,
    },
    {
        0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    {
        0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022,
    },
    {
        0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    {
        0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2,
    },
    {
        0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3,
    },
    {
        0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1,
    },
    {
        0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138,
    },
)
# error weights: the fifth-order E5, and B less the third-order weights BHH for E3
_E5_ROW = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}
_BHH = {
    0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
# the last four of the seven rows of Hairer's dense output, as weights of the 16 stages
_D8_ROWS = (
    {
        0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1,
    },
    {
        0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2,
    },
    {
        0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2,
    },
    {
        0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3,
    },
)


def _dense_row(row: dict, width: int) -> np.ndarray:
    """The sparse row {j: a_j} as an array of width entries."""
    return np.array([row.get(j, 0.0) for j in range(width)])


_A8 = tuple(_dense_row(row, i) for i, row in enumerate(_A8_ROWS))  # row i reads k[:i]
_A12 = np.array([_dense_row(row, 12) for row in _A8_ROWS[:12]])  # for the turn estimate
_B8 = _A8[12]
_E5 = _dense_row(_E5_ROW, 12)
_E3 = _B8 - _dense_row(_BHH, 12)

# Hairer's dense output is y + sum_k F_k b_k(theta) with the basis
# theta, theta (1 - theta), theta^2 (1 - theta), theta^2 (1 - theta)^2,
# theta^3 (1 - theta)^2, theta^3 (1 - theta)^3, theta^4 (1 - theta)^3.
# Row k of _THETA_MAP holds the coefficients of theta^1..7 in b_k.
_THETA_MAP = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0],
        [1, -1, 0, 0, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0],
        [0, 1, -2, 1, 0, 0, 0],
        [0, 0, 1, -2, 1, 0, 0],
        [0, 0, 1, -3, 3, -1, 0],
        [0, 0, 0, 1, -3, 3, -1],
    ],
    dtype=float,
)
# F_k = h * (_F_WEIGHTS[k] . k): F0 = y_new - y, F1 = h f0 - F0,
# F2 = 2 F0 - h (f0 + f_new) and F3..F6 from _D8_ROWS
_F_WEIGHTS = np.zeros((7, 16))
_F_WEIGHTS[0, :12] = _B8
_F_WEIGHTS[1] = -_F_WEIGHTS[0]
_F_WEIGHTS[1, 0] += 1.0
_F_WEIGHTS[2] = 2.0 * _F_WEIGHTS[0]
_F_WEIGHTS[2, [0, 12]] -= 1.0
_F_WEIGHTS[3:] = [_dense_row(row, 16) for row in _D8_ROWS]
# a step's dense coefficients are k.T @ _DENSE8: y + h * q @ theta^(1..7)
_DENSE8 = _F_WEIGHTS.T @ _THETA_MAP

_EXPONENT8 = 0.125  # step factors go as err^(-1/8): the error estimate has order 7
_ZEROS64 = np.zeros(64)


def _error_norm(k12: np.ndarray, h: float, y: np.ndarray, y_new: np.ndarray, rtol, atol) -> float:
    """Hairer's error norm of a DOP853 step from its first 12 stages.

    With e5 = (_E5 . k) / s and e3 = (_E3 . k) / s, s the scale
    atol + rtol * max(|y|, |y_new|) taken entrywise, the norm is
    h |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)): the fifth-order estimate,
    damped where the third-order one is much larger. A non-finite
    stage makes it NaN, since 0 * inf is NaN.
    """
    scale = np.abs(y)
    np.maximum(scale, np.abs(y_new), out=scale)
    scale *= rtol
    scale += atol
    e5 = _E5.dot(k12)
    e5 /= scale
    e3 = _E3.dot(k12)
    e3 /= scale
    n5, n3 = float(e5.dot(e5)), float(e3.dot(e3))
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return h * n5 / math.sqrt((n5 + 0.01 * n3) * y.size)


def integrate(fun, t0: float, t_end: float, y0: np.ndarray, rtol: float, atol: float, post_step) -> Trajectory:
    """The DOP853 flow of a packed 4x2 frame, y' = fun(t, y), over [t0, t_end].

    Each step attempt reads fun at its 11 new stages and is accepted when
    _error_norm is at most 1; an accepted step reads it at its end and
    at the 3 stages of its degree-7 dense output, so a step costs 15
    field calls, and a rejected one 11. A NaN error or a non-finite
    step-end or dense stage rejects the step and halves it. The next
    step is h * min(10, 0.9 err^(-1/8)), at most h after a rejection in
    the same step; a rejection shrinks the step by max(0.2, 0.9 err^(-1/8)).
    A step below 1e-14 * max(1, |t|) raises StepUnderflow, and more than
    _MAX_STEPS attempts raise StepBudgetExhausted. numpy's overflow and
    invalid warnings are off for the whole flow, as in adaptive_solve.

    ``post_step(t, y, f)`` sees each accepted state y at t with
    f = fun(t, y), and returns the state to store and continue from with
    its derivative; it may raise to abort the flow. A step's dense output
    ends at its state before the hook.

    meta["stats"] has adaptive_solve's keys, and meta["turn"] holds each
    step's turn estimate (_step_turns).
    """
    if not t_end > t0:
        raise ValueError("window must satisfy t_end > t0")
    wall0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.array(y0, dtype=float)
        t = float(t0)
        f0 = np.asarray(fun(t, y), dtype=float)
        h = _initial_step(fun, t, y, f0, t_end, rtol, atol, _EXPONENT8)
        h = max(min(h, t_end - t), 1e-13 * max(1.0, abs(t)))

        times = [t]
        states = [y]
        seg_h: list[float] = []
        seg_q: list[np.ndarray] = []
        stages: list[np.ndarray] = []  # the first 12 stages of each accepted step
        k = np.empty((16, y.size))
        k_head = [k[:i] for i in range(16)]  # views of the stages each stage reads
        k_dense = k[12:].ravel()  # the step-end and dense stages, as one view
        n_accept = n_reject = 0
        nfev = 2  # f0 and the trial step of _initial_step
        h_min, h_max = math.inf, 0.0
        rejected = False  # a rejection since the last accepted step

        t_last = t_end - 1e-14 * max(1.0, abs(t_end))  # a node at or past this ends the flow
        steps = 0
        while t < t_last:
            steps += 1
            if steps > _MAX_STEPS:
                raise StepBudgetExhausted(t)
            h = min(h, t_end - t)

            k[0] = f0
            for i in range(1, 12):
                y_i = _A8[i].dot(k_head[i])
                y_i *= h
                y_i += y
                k[i] = fun(t + _C8[i] * h, y_i)
            y_new = _B8.dot(k_head[12])
            y_new *= h
            y_new += y
            err = _error_norm(k_head[12], h, y, y_new, rtol, atol)
            nfev += 11
            if err <= 1.0:
                t_new = t + h
                f_new = np.asarray(fun(t_new, y_new), dtype=float)
                k[12] = f_new
                for i in (13, 14, 15):
                    y_i = _A8[i].dot(k_head[i])
                    y_i *= h
                    y_i += y
                    k[i] = fun(t + _C8[i] * h, y_i)
                nfev += 4
                # x . 0 is NaN exactly when an entry of x is inf or NaN
                if math.isnan(k_dense.dot(_ZEROS64)):
                    err = math.nan

            if not err <= 1.0:
                n_reject += 1
                rejected = True
                h *= max(_MIN_FACTOR, _SAFETY * err ** -_EXPONENT8) if math.isfinite(err) else 0.5
                if h < 1e-14 * max(1.0, abs(t)):
                    raise StepUnderflow(t, y)
                continue

            n_accept += 1
            if h < h_min:
                h_min = h
            if h > h_max:
                h_max = h
            seg_q.append(k.T @ _DENSE8)
            stages.append(k[:12].copy())
            y, f0 = post_step(t_new, y_new, f_new)
            seg_h.append(h)
            times.append(t_new)
            states.append(y)
            t = t_new

            factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -_EXPONENT8)
            h *= min(1.0, factor) if rejected else factor
            rejected = False

        starts, seg_h_arr = np.asarray(states[:-1]), np.asarray(seg_h)
        # in blocks, to bound the temporaries of the batched pass
        turn = np.concatenate(
            [np.empty(0)]
            + [
                _step_turns(starts[s : s + 1024], seg_h_arr[s : s + 1024], np.asarray(stages[s : s + 1024]))
                for s in range(0, len(seg_h), 1024)
            ]
        )

    stats = dict(
        n_accept=n_accept, n_reject=n_reject, nfev=nfev, h_min=h_min, h_max=h_max,
        wall_s=time.perf_counter() - wall0,
    )
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        events=(),
        meta={"stats": stats, "turn": turn},
        _seg_h=seg_h_arr,
        _seg_q=np.asarray(seg_q),
    )


def _step_turns(y: np.ndarray, h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Each step's turn estimate: h times the largest 2 ||Q* J H Q||_2 over its 12 stages.

    y (m, 16) holds the packed start frames of m steps, h (m,) their
    lengths and k (m, 12, 16) their first 12 stages K = H Y, where Y is
    the stage's frame, rebuilt here from the tableau. U of
    odeint._focal_phases does not change when the frame is multiplied on
    the right, so its speed can be read on the orthonormal factor Q of
    Y = Q R (Gram-Schmidt, as odeint._qr_columns). With
    J = [[0, I], [-I, 0]], J H is
    Hermitian, and every eigen-angle of U moves at a rate of at most
    2 ||Q* J H Q||_2, where H Q = K R^-1 needs no coefficient read.
    """
    m = len(h)
    ys = y[:, None, :] + h[:, None, None] * np.einsum("ij,mjd->mid", _A12, k)
    x = ys.view(complex).reshape(m, 12, 4, 2)
    g = k.view(complex).reshape(m, 12, 4, 2)
    x1, x2, g1, g2 = x[..., 0], x[..., 1], g[..., 0], g[..., 1]
    r11 = np.sqrt((x1.real**2 + x1.imag**2).sum(-1))[..., None]
    u1 = x1 / r11
    dot = (u1.conj() * x2).sum(-1)[..., None]
    v = x2 - dot * u1
    r22 = np.sqrt((v.real**2 + v.imag**2).sum(-1))[..., None]
    u2 = v / r22
    w1 = g1 / r11
    w2 = (g2 - dot * w1) / r22

    def sympl(u, w):  # u* J w
        return (u[..., :2].conj() * w[..., 2:]).sum(-1) - (u[..., 2:].conj() * w[..., :2]).sum(-1)

    m11, m12, m21, m22 = sympl(u1, w1), sympl(u1, w2), sympl(u2, w1), sympl(u2, w2)
    fro2 = abs(m11) ** 2 + abs(m12) ** 2 + abs(m21) ** 2 + abs(m22) ** 2
    det2 = abs(m11 * m22 - m12 * m21) ** 2
    sigma = np.sqrt(0.5 * (fro2 + np.sqrt(np.maximum(fro2 * fro2 - 4.0 * det2, 0.0))))
    return 2.0 * h * sigma.max(axis=1)

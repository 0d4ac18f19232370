"""Full-space poroelastodynamic point-source tensor and its trace kernels.

Conventions used throughout:

* ``y`` is the source point, ``xi`` the evaluation (or trace) point;
  ``r = |xi - y|`` and ``d = (xi - y)/r``.  All Cartesian derivatives are
  taken with respect to the evaluation point.
* Normals always attach to the explicitly passed trace point.  Callers
  that need the "source at the observer" reciprocal arrangement (the
  radiation kernels in :mod:`poroscat.forward`) swap arguments themselves.
* ``G(k, r) = exp(i*k*r)/(4*pi*r)`` is the scalar radiating kernel; its
  radial derivatives are closed-form polynomials in 1/r times G.

The 4x4 point-source tensor is assembled from three scalar modes
(transverse ``s`` and compressional ``p1``, ``p2``):

    U^s_ij = cU * [ (G_s - A1 G_p1 - A2 G_p2)_{,ij} + delta_ij k_s^2 G_s ]
    p^s_j  = cP * (G_p1 - G_p2)_{,j}
    u^f    = -p^s
    p^f    = cf1 * G_p1 + cf2 * G_p2

with cU = 1/(omega^2 (rho - rho_f^2/gamma)), cP = omega^2 (alpha*gamma
- rho_f) / ((lam + 2 mu)(k_p1^2 - k_p2^2)) and cf1/cf2 the weights of the
two-term pressure response to a fluid injection.  Traction rows contract
the displacement gradient with the drained stiffness C = lam I2 (x) I2
+ 2 mu I4 and subtract alpha * pressure * n; flow rows apply
(1/(gamma omega^2)) * (grad p . n - rho_f omega^2 u . n).

Derivatives up to fourth order are produced analytically from the radial
helpers plus direction-cosine algebra (never finite differences).

The trace rows are stated once, as scalar radial coefficients (_radials):
every row of the 5x4 trace kernel is a combination of d and n with
coefficients in r alone.  Three functions read them.  _trace_rows writes
the trace kernel.  _pattern_kernel writes the trial patterns, which read
the traction rows along their own normal: n.t(n) is a quadratic form
n_j n_k M_jk with a symmetric, normal-free M per source column, evaluated
once for every normal of a block, together with the pressure row, which
no normal changes; each (source column, entry) pair is one expression
over the block, written for the requested columns only, straight into
the layout that the candidates' expansion reads.  The inter-patch
coupling kernel, _dislocation_trace_matrix, takes traces of an already
differentiated dislocation field, so it reads radial stacks up to fourth
order, but it forms no tensor above second order: the traces need each
column's gradient only through its trace and its contractions with the
trace normal, which it writes out in closed form in d and the two
normals, and the field itself only through the trace kernel's fluid
column and its force columns contracted with the trace normal.
biot_residual checks the point-source tensor against the governing
system by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError
from .material import MaterialParams, WaveState

__all__ = [
    "GreenTensor",
    "green_tensor",
    "biot_residual",
    "trace_kernel",
    "dislocation_trace_kernel",
]

_EYE3 = np.eye(3)


# ---------------------------------------------------------------------------
# scalar radial machinery
# ---------------------------------------------------------------------------
def _radial_stack(k: complex, r: np.ndarray, nmax: int) -> np.ndarray:
    """Radial derivatives d^m/dr^m of exp(ikr)/(4 pi r), m = 0..nmax.

    Returns an array of shape r.shape + (nmax+1,).
    """
    r = np.asarray(r)
    inv = 1.0 / r
    G = np.exp(1j * k * r) * inv / (4.0 * np.pi)
    out = np.empty(r.shape + (nmax + 1,), dtype=np.complex128)
    out[..., 0] = G
    if nmax >= 1:
        out[..., 1] = G * (1j * k - inv)
    if nmax >= 2:
        out[..., 2] = G * (-(k**2) - 2j * k * inv + 2.0 * inv**2)
    if nmax >= 3:
        out[..., 3] = G * (
            -1j * k**3 + 3.0 * k**2 * inv + 6j * k * inv**2 - 6.0 * inv**3
        )
    if nmax >= 4:
        out[..., 4] = G * (
            k**4
            + 4j * k**3 * inv
            - 12.0 * k**2 * inv**2
            - 24j * k * inv**3
            + 24.0 * inv**4
        )
    return out


@dataclass(frozen=True)
class _Coeffs:
    """Scalar prefactors of the kernel blocks for one (wave, params) pair."""

    cU: complex
    cP: complex
    cf1: complex
    cf2: complex
    ks2: complex
    gamma_w2: complex  # gamma * omega^2
    rho_f_w2: float    # rho_f * omega^2
    lam: float
    mu: float
    alpha: float


def _coeffs(wave: WaveState, params: MaterialParams) -> _Coeffs:
    g, w = wave.gamma, wave.omega
    m = params.rho - params.rho_f**2 / g
    pmod = params.pwave_modulus
    k1sq, k2sq = wave.k_p1**2, wave.k_p2**2
    cU = 1.0 / (w**2 * m)
    cP = w**2 * (params.alpha * g - params.rho_f) / (pmod * (k1sq - k2sq))
    mw2 = w**2 * m / pmod
    cf1 = -g * w**2 * (k1sq - mw2) / (k2sq - k1sq)
    cf2 = g * w**2 * (k2sq - mw2) / (k2sq - k1sq)
    return _Coeffs(
        cU=cU,
        cP=cP,
        cf1=cf1,
        cf2=cf2,
        ks2=wave.k_s**2,
        gamma_w2=g * w**2,
        rho_f_w2=params.rho_f * w**2,
        lam=params.lam,
        mu=params.mu,
        alpha=params.alpha,
    )


def _separation(y: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance r (zero where the points coincide) and offset w = xi - y,
    broadcasting over pairs."""
    w = np.asarray(xi, dtype=float) - np.asarray(y, dtype=float)
    return np.sqrt(np.sum(w * w, axis=-1)), w


def _geometry(y: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance r and unit direction d = (xi - y)/r, broadcasting over pairs."""
    r, w = _separation(y, xi)
    if np.any(r == 0.0):
        raise SingularityError("kernel evaluation at coincident points")
    return r, w / r[..., None]


class _Stacks:
    """Modal radial-derivative stacks and their standard combinations."""

    def __init__(self, wave: WaveState, r: np.ndarray, nmax: int):
        self.gs = _radial_stack(wave.k_s, r, nmax)
        self.g1 = _radial_stack(wave.k_p1, r, nmax)
        self.g2 = _radial_stack(wave.k_p2, r, nmax)
        # potential of the displacement block and the pressure difference
        self.Phi = self.gs - wave.A1 * self.g1 - wave.A2 * self.g2
        self.Psi = self.g1 - self.g2
        self.k1sq = wave.k_p1**2
        self.k2sq = wave.k_p2**2
        self.A1 = wave.A1
        self.A2 = wave.A2


def _hess(f: np.ndarray, r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cartesian Hessian of a radial scalar; f[..., m] holds radial orders."""
    a = (f[..., 2] - f[..., 1] / r)[..., None, None]
    b = (f[..., 1] / r)[..., None, None]
    dd = d[..., :, None] * d[..., None, :]
    return a * dd + b * _EYE3


def _s2_radial(f, r):
    """Radial coefficients (P, Q) of the third Cartesian derivative of a
    radial scalar: n_k f_,kij = P (n.d) d_i d_j + Q (n_i d_j + d_i n_j
    + (n.d) delta_ij)."""
    P = f[..., 3] - 3.0 * f[..., 2] / r + 3.0 * f[..., 1] / r**2
    Q = f[..., 2] / r - f[..., 1] / r**2
    return P, Q


# ---------------------------------------------------------------------------
# point-source tensor
# ---------------------------------------------------------------------------
def _green_matrix(y, xi, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Batched 4x4 point-source tensor; leading dims broadcast over pairs."""
    r, d = _geometry(y, xi)
    st = _Stacks(wave, r, 2)
    co = _coeffs(wave, params)

    Us = co.cU * (
        _hess(st.Phi, r, d) + (co.ks2 * st.gs[..., 0])[..., None, None] * _EYE3
    )
    ps = co.cP * st.Psi[..., 1, None] * d
    pf = co.cf1 * st.g1[..., 0] + co.cf2 * st.g2[..., 0]

    out = np.empty(r.shape + (4, 4), dtype=np.complex128)
    out[..., :3, :3] = Us
    out[..., :3, 3] = -ps
    out[..., 3, :3] = ps
    out[..., 3, 3] = pf
    return out


@dataclass(frozen=True)
class GreenTensor:
    """4x4 point-source response at one (source, receiver) pair.

    Block layout: [[U^s (3x3), u^f (3x1)], [p^s (1x3), p^f (1x1)]] where
    columns are the source types (three force directions, fluid injection)
    and rows the responses (three displacement components, pore pressure).
    """

    matrix: np.ndarray

    @property
    def force_displacement(self) -> np.ndarray:
        """U^s: displacement (rows) due to unit point forces (columns)."""
        return self.matrix[:3, :3]

    @property
    def fluid_displacement(self) -> np.ndarray:
        """u^f: displacement due to a unit fluid injection."""
        return self.matrix[:3, 3]

    @property
    def force_pressure(self) -> np.ndarray:
        """p^s: pore pressure due to unit point forces."""
        return self.matrix[3, :3]

    @property
    def fluid_pressure(self) -> complex:
        """p^f: pore pressure due to a unit fluid injection."""
        return complex(self.matrix[3, 3])


def green_tensor(y, xi, wave: WaveState, params: MaterialParams) -> GreenTensor:
    """Point-source tensor for a single source/receiver pair (y != xi)."""
    y = np.asarray(y, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=float).reshape(3)
    return GreenTensor(matrix=_green_matrix(y, xi, wave, params))


def biot_residual(y, xi, col: int, wave: WaveState, params: MaterialParams, h=1e-3) -> float:
    """Relative residual of the governing system for source column ``col``
    of the point-source tensor at xi, from 5-point central differences of
    the closed-form tensor (an independent check of its derivation)."""
    y = np.asarray(y, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=float).reshape(3)
    gamma, omega = wave.gamma, wave.omega
    m = params.rho - params.rho_f**2 / gamma
    beta = params.alpha - params.rho_f / gamma
    lam, mu = params.lam, params.mu

    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    step = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])[:, None, None] * h * _EYE3  # [s, k, :]
    # the field at xi, at xi + o_s h e_k, and at xi + o_s h e_k + o_t h e_j
    line = xi + step
    cross = line[:, :, None, None, :] + step[None, None]
    pts = np.concatenate([xi[None], line.reshape(-1, 3), cross.reshape(-1, 3)])
    F = _green_matrix(y, pts, wave, params)[:, :, col]
    u0, p0 = F[0, :3], F[0, 3]
    F_line, F_cross = F[1:16].reshape(5, 3, 4), F[16:].reshape(5, 3, 5, 3, 4)

    lap_u = np.einsum("s,ski->i", c2, F_line[..., :3])
    lap_p = np.einsum("s,sk->", c2, F_line[..., 3])
    J = np.einsum("s,ski->ki", c1, F_line[..., :3])  # J[k, i] = d u_i / d xi_k
    grad_p = c1 @ F_line[..., 3]
    # grad(div u): central differences of the divergence along each axis
    graddiv = c1 @ np.einsum("t,sktjj->sk", c1, F_cross[..., :3])

    L1 = (lam + mu) * graddiv + mu * lap_u - beta * grad_p + omega**2 * m * u0
    L2 = lap_p / (gamma * omega**2) + p0 / params.M + beta * np.trace(J)
    s1 = (
        abs(omega**2 * m) * np.linalg.norm(u0)
        + abs(beta) * np.linalg.norm(grad_p)
        + abs(mu) * np.linalg.norm(lap_u)
    )
    s2 = abs(p0 / params.M) + abs(lap_p / (gamma * omega**2)) + abs(beta * np.trace(J))
    return float(max(np.linalg.norm(L1) / s1, abs(L2) / s2))


# ---------------------------------------------------------------------------
# trace kernel (traction / relative flow / pressure rows)
# ---------------------------------------------------------------------------
def _trace_matrix(y, xi, n, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Batched 5x4 trace kernel: rows (t1,t2,t3,q,p) at xi with normal n,
    columns the 4 source types at y."""
    r, d = _geometry(y, xi)
    st, co = _Stacks(wave, r, 3), _coeffs(wave, params)
    n = np.broadcast_to(np.asarray(n, dtype=float), d.shape)
    return _trace_rows(_radials(st, co, r), d, n)


class _Radials(NamedTuple):
    """Radial coefficients of the five trace rows, from stacks of order >= 3.

    With nd = n.d, force column i of the trace kernel reads

        t_m = (a1 n_m + a2 nd d_m) d_i + hb (d_m n_i + nd [m = i]),
        q   = qa nd d_i + qb n_i,    p = ps d_i,

    and the fluid column t = c1 n + c2 nd d, q = qf nd, p = pf.  PQ (the
    _s2_radial of Phi), Dv1, Psi1, Psi2 and gs1 are the radial
    combinations these are built from, which the coupling kernel
    differentiates once more.
    """

    a1: np.ndarray
    a2: np.ndarray
    hb: np.ndarray   # b/2
    qa: np.ndarray
    qb: np.ndarray
    ps: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    qf: np.ndarray
    pf: np.ndarray   # p^f, the pressure of a unit fluid injection
    PQ: tuple
    Dv1: np.ndarray  # the divergence of the U^s columns is cU * Dv1 * d_j
    Psi1: np.ndarray
    Psi2: np.ndarray
    gs1: np.ndarray


def _radials(st: _Stacks, co: _Coeffs, r) -> _Radials:
    """The coefficients of _Radials.  Traction applies the drained
    stiffness to grad U^s (the third derivative of Phi through
    _s2_radial, and the divergence Dv1) and subtracts alpha p n; flow
    takes n.grad p and n.u through the Hessian scalars (f'' - f'/r, f'/r)
    of Psi and Phi."""
    P, Q = _s2_radial(st.Phi, r)
    Dv1 = st.A1 * st.k1sq * st.g1[..., 1] + st.A2 * st.k2sq * st.g2[..., 1]
    Psi1, Psi2, gs1 = st.Psi[..., 1], st.Psi[..., 2], st.gs[..., 1]
    X0 = st.k1sq * st.g1[..., 0] - st.k2sq * st.g2[..., 0]
    pf = co.cf1 * st.g1[..., 0] + co.cf2 * st.g2[..., 0]
    mu_u, g = co.mu * co.cU, co.gamma_w2
    cP_g, rho_g, rho_u_g = co.cP / g, co.rho_f_w2 / g, co.rho_f_w2 * co.cU / g
    Psi1_r, Phi1_r = Psi1 / r, st.Phi[..., 1] / r
    a_psi, ps = Psi2 - Psi1_r, co.cP * Psi1
    return _Radials(
        a1=co.lam * co.cU * Dv1 - co.alpha * co.cP * Psi1 + 2.0 * mu_u * Q,
        a2=2.0 * mu_u * P,
        hb=mu_u * (2.0 * Q + co.ks2 * gs1),
        qa=cP_g * a_psi - rho_u_g * (st.Phi[..., 2] - Phi1_r),
        qb=cP_g * Psi1_r - rho_u_g * (Phi1_r + co.ks2 * st.gs[..., 0]),
        ps=ps,
        c1=co.cP * co.lam * X0 - co.alpha * pf - 2.0 * co.mu * co.cP * Psi1_r,
        c2=-2.0 * co.mu * co.cP * a_psi,
        qf=(co.cf1 / g) * st.g1[..., 1] + (co.cf2 / g) * st.g2[..., 1] + rho_g * ps,
        pf=pf,
        PQ=(P, Q),
        Dv1=Dv1,
        Psi1=Psi1,
        Psi2=Psi2,
        gs1=gs1,
    )


def _trace_rows(rad: _Radials, d, n) -> np.ndarray:
    """The (..., 5, 4) trace kernel at unit normals n from its coefficients."""
    nd = np.sum(n * d, axis=-1)
    out = np.empty(nd.shape + (5, 4), dtype=np.complex128)
    t_d = rad.a1[..., None] * n + (rad.a2 * nd)[..., None] * d
    out[..., 0:3, 0:3] = t_d[..., :, None] * d[..., None, :]
    out[..., 0:3, 0:3] += rad.hb[..., None, None] * d[..., :, None] * n[..., None, :]
    out[..., range(3), range(3)] += (rad.hb * nd)[..., None]
    out[..., 0:3, 3] = rad.c1[..., None] * n + (rad.c2 * nd)[..., None] * d
    out[..., 3, 0:3] = (rad.qa * nd)[..., None] * d + rad.qb[..., None] * n
    out[..., 3, 3] = rad.qf * nd
    out[..., 4, 0:3] = rad.ps[..., None] * d
    out[..., 4, 3] = rad.pf
    return out


def _pattern_kernel(r, d, cols, pairs, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Normal-free trial-pattern kernel of a block, in the layout of its expansion.

    The traction rows t(n) of the trace kernel contracted with their own
    normal, n.t(n) = n_j n_k M_jk, form a quadratic form in n with a
    symmetric, normal-free M per source column:

        force column i:  M_jk = a2 d_j d_k d_i + a1 d_i [j = k]
                                + (b/2) (d_j [i = k] + d_k [i = j])
        fluid column:    M_jk = c1 [j = k] + c2 d_j d_k

    with a1, a2, b, c1, c2 the radial combinations of the trace rows
    (_radials).  The pressure row, which no normal changes, is cP Psi'
    d_i for force column i and p^f for the fluid column.

    r (N, nb) and d (N, nb, 3) are the distances and directions from N
    sources to nb trial points (_geometry).  Returns (N, len(cols), nb,
    len(pairs) + 1): for each source column in ``cols`` (0-2 the force
    axes, 3 the fluid injection) the entries M_jk for each (j, k) in
    ``pairs``, then the pressure row.  Each entry is written once, as one
    expression over the block, for the requested columns only.
    """
    rad = _radials(_Stacks(wave, r, 3), _coeffs(wave, params), r)
    a1, a2, c1, c2 = rad.a1, rad.a2, rad.c1, rad.c2

    dc = np.ascontiguousarray(np.moveaxis(d, -1, 0))  # dc[m] = d_m, (N, nb)
    force = any(i < 3 for i in cols)
    hb_d = rad.hb * dc if force else None  # hb_d[m] = (b/2) d_m
    out = np.empty((r.shape[0], len(cols), r.shape[1], len(pairs) + 1), dtype=np.complex128)
    for e, (j, k) in enumerate(pairs):
        djk = dc[j] * dc[k]
        if force:
            a = a1 + a2 * djk if j == k else a2 * djk
        for c, i in enumerate(cols):
            if i == 3:
                out[:, c, :, e] = c1 + c2 * djk if j == k else c2 * djk
            elif i == j == k:
                out[:, c, :, e] = a * dc[i] + 2.0 * hb_d[i]
            elif i in (j, k):
                out[:, c, :, e] = a * dc[i] + hb_d[j + k - i]
            else:
                out[:, c, :, e] = a * dc[i]
    for c, i in enumerate(cols):
        out[:, c, :, -1] = rad.pf if i == 3 else rad.ps * dc[i]
    return out


def _check_unit_normal(n) -> np.ndarray:
    n = np.asarray(n, dtype=float).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise DomainError(
            f"normal must be unit length, got |n| = {np.linalg.norm(n)!r}"
        )
    return n


def trace_kernel(y, xi, n, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """5x4 trace kernel at a single pair: rows the traces (traction (3),
    relative normal flow, pressure) at ``xi`` with unit normal ``n``,
    columns the source types at ``y`` (unit forces along the three axes,
    unit fluid injection)."""
    y = np.asarray(y, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=float).reshape(3)
    n = _check_unit_normal(n)
    return _trace_matrix(y, xi, n, wave, params)


# ---------------------------------------------------------------------------
# dislocation coupling kernel (traces of a radiated jump field)
# ---------------------------------------------------------------------------
def _dislocation_trace_matrix(
    y, n_src, z, n_trc, wave: WaveState, params: MaterialParams
) -> np.ndarray:
    """Batched 5x5 kernel: traces (t, q, p) at z (normal n_trc) of the field
    radiated by unit jump components ([[u]], [[p]], -[[q]]) at y (normal n_src).

    The radiated field is the reciprocal evaluation of the trace kernel
    (source placed at the observer), F = K^T.  Its traces need the
    gradient X of each column's displacement only through tr X, nu.X and
    X.nu, and the pressure gradient only along nu; each is written out in
    closed form in d, n and nu.  The fourth Cartesian derivative of Phi
    enters through its n- and nu-contraction,

        D4 (n.d)(nu.d) d(x)d + D2 [(nu.d)(n(x)d + d(x)n) + (n.nu) d(x)d
        + (n.d)((nu.d) I + nu(x)d + d(x)nu)] + D0 [(n.nu) I + nu(x)n + n(x)nu],

    with trace (D4 + 7 D2)(n.d) d + (D2 + 5 D0) n.
    """
    # w = y - z (d/dz = -d/dw), so d matches the trace-at-y / source-at-z arrangement
    r, d = _geometry(z, y)
    n = np.broadcast_to(np.asarray(n_src, dtype=float), d.shape)
    nu = np.broadcast_to(np.asarray(n_trc, dtype=float), d.shape)
    st, co = _Stacks(wave, r, 4), _coeffs(wave, params)
    rad = _radials(st, co, r)
    nd, vd, nv = np.sum(n * d, axis=-1), np.sum(nu * d, axis=-1), np.sum(n * nu, axis=-1)

    def vec(cd, cn, cv):  # cd d + cn n + cv nu, without the terms given as None
        terms = [c[..., None] * u for c, u in ((cd, d), (cn, n), (cv, nu)) if c is not None]
        return sum(terms[1:], terms[0])

    def s2nu(P, Q):  # n_k nu_j f_,kij from the _s2_radial (P, Q) of f
        return vec(P * nd * vd + Q * nv, Q * vd, Q * nd)

    # the field F = K^T read from the trace rows' coefficients (_Radials):
    # the trace kernel's fluid column (tf, qf, pf), which is F's last row,
    # and its force columns contracted with nu, nu_u[c] = nu.F[:3, c]
    tf = vec(rad.c2 * nd, rad.c1, None)
    qf = rad.qf * nd
    nu_u = np.empty(r.shape + (5,), dtype=np.complex128)
    nu_u[..., 0:3] = vec(rad.a2 * nd * vd + rad.hb * nv, rad.a1 * vd, rad.hb * nd)
    nu_u[..., 3] = rad.qa * nd * vd + rad.qb * nv
    nu_u[..., 4] = rad.ps * vd

    f1, f2, f3, f4 = (st.Phi[..., k] for k in range(1, 5))
    D4 = f4 - 6.0 * f3 / r + 15.0 * f2 / r**2 - 15.0 * f1 / r**3
    D2 = f3 / r - 3.0 * f2 / r**2 + 3.0 * f1 / r**3
    D0 = f2 / r**2 - f1 / r**3
    P_psi, Q_psi = _s2_radial(st.Psi, r)
    P_phi, Q_phi = rad.PQ
    # Hessians a d(x)d + b I of Psi, of the divergence factor Dv1 d and of gs1 d
    Dv2 = st.A1 * st.k1sq * st.g1[..., 2] + st.A2 * st.k2sq * st.g2[..., 2]
    b_psi, b_dv, b_gs = rad.Psi1 / r, rad.Dv1 / r, rad.gs1 / r
    a_psi, a_dv, a_gs = rad.Psi2 - b_psi, Dv2 - b_dv, st.gs[..., 2] - b_gs
    X1 = st.k1sq * st.g1[..., 1] - st.k2sq * st.g2[..., 1]
    Pf1 = co.cf1 * st.g1[..., 1] + co.cf2 * st.g2[..., 1]
    Yp = co.cf1 * st.g1[..., 2] + co.cf2 * st.g2[..., 2] + co.rho_f_w2 * co.cP * rad.Psi2

    # jump columns [[u]]_j: with T[j, i, m] = d Ts[j, i] / d w_m the gradient
    # of the field, tr_j = T[j, i, i] = tr_d d_j + tr_n n_j and
    # Z[j, i] = nu_m (T[j, i, m] + T[j, m, i]) = sum c_uv u_j v_i + c_I delta_ij
    # over u, v in (d, n, nu)
    mu, lam, alpha, g = co.mu, co.lam, co.alpha, co.gamma_w2
    m2, mk = 2.0 * mu * co.cU, mu * co.cU * co.ks2
    a_h = lam * co.cU * a_dv - alpha * co.cP * a_psi
    b_h = lam * co.cU * b_dv - alpha * co.cP * b_psi
    tr_d = nd * (m2 * (D4 + 7.0 * D2) + 2.0 * mk * a_gs)
    tr_n = a_h + 3.0 * b_h + m2 * (D2 + 5.0 * D0) + 2.0 * mk * b_gs
    c_dd = 2.0 * m2 * (D4 * nd * vd + D2 * nv) + mk * a_gs * nv
    c_nd = 2.0 * (a_h + m2 * D2) * vd
    c_dn = (2.0 * m2 * D2 + mk * a_gs) * vd
    c_vd = (2.0 * m2 * D2 + mk * a_gs) * nd
    c_dv = 2.0 * m2 * D2 * nd
    c_nv = 2.0 * (b_h + m2 * D0)
    c_vn = 2.0 * (m2 * D0 + mk * b_gs)
    c_I = 2.0 * m2 * (D2 * nd * vd + D0 * nv) + mk * (a_gs * nd * vd + 2.0 * b_gs * nv)

    # traces at z, with X = -T: t_i = lam nu_i tr X + mu (nu.X + X.nu)_i
    # - alpha nu_i p and q = (nu.grad p - rho_f omega^2 nu.u) / (gamma omega^2)
    out = np.empty(r.shape + (5, 5), dtype=np.complex128)
    t = out[..., 0:3, 0:3]
    t[...] = d[..., :, None] * vec(-mu * c_dd, -mu * c_nd, -mu * c_vd)[..., None, :]
    t += n[..., :, None] * vec(-mu * c_dn, None, -mu * c_vn)[..., None, :]
    t -= nu[..., :, None] * (
        vec(mu * c_dv + lam * tr_d, mu * c_nv + lam * tr_n, None) + alpha * tf
    )[..., None, :]
    t[..., range(3), range(3)] -= mu * c_I[..., None]
    # column [[p]]: F[:3] = qs, of w-gradient (cP S2[Psi] - rho_f omega^2 cU
    # (S2[Phi] + ks2 gs1 n(x)d)) / (gamma omega^2), S2[f] = n_k f_,kim; column
    # -[[q]]: F[:3] = ps = cP Psi1 d, of w-gradient cP Hess(Psi)
    tr_p = (co.cP * (P_psi + 5.0 * Q_psi)
            - co.rho_f_w2 * co.cU * (P_phi + 5.0 * Q_phi + co.ks2 * rad.gs1)) * nd / g
    s2_psi = s2nu(P_psi, Q_psi)
    gs1_k = co.rho_f_w2 * co.cU * co.ks2 * rad.gs1
    z_p = 2.0 * co.cP * s2_psi - 2.0 * co.rho_f_w2 * co.cU * s2nu(P_phi, Q_phi) \
        - vec(gs1_k * nv, gs1_k * vd, None)
    out[..., 0:3, 3] = -(mu / g) * z_p - (lam * tr_p + alpha * qf)[..., None] * nu
    out[..., 0:3, 4] = -2.0 * mu * co.cP * vec(a_psi * vd, None, b_psi) - (
        lam * co.cP * (a_psi + 3.0 * b_psi) + alpha * rad.pf)[..., None] * nu
    out[..., 3, 0:3] = (2.0 * mu * co.cP * s2_psi
                        - ((co.cP * lam * X1 - alpha * Pf1) * vd)[..., None] * n)
    out[..., 3, 3] = -(Yp * nd * vd / g + rad.qf * (nv - nd * vd) / r)
    out[..., 3, 4] = -Pf1 * vd
    out[..., 3, :] = (out[..., 3, :] - co.rho_f_w2 * nu_u) / g
    out[..., 4, 0:3] = tf
    out[..., 4, 3] = qf
    out[..., 4, 4] = rad.pf
    return out


def dislocation_trace_kernel(
    y, n_src, z, n_trc, wave: WaveState, params: MaterialParams
) -> np.ndarray:
    """5x5 coupling kernel for a single pair of interface points.

    Maps unit jump components ([[u]] (3), [[p]], -[[q]]) of a point
    dislocation at ``y`` (normal ``n_src``) to the trace triple
    (traction (3), relative flow, pressure) of its radiated field at
    ``z`` (normal ``n_trc``).
    """
    y = np.asarray(y, dtype=float).reshape(3)
    z = np.asarray(z, dtype=float).reshape(3)
    n_src = _check_unit_normal(n_src)
    n_trc = _check_unit_normal(n_trc)
    return _dislocation_trace_matrix(y, n_src, z, n_trc, wave, params)

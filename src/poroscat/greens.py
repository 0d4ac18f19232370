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

Every radial function a kernel reads is a fixed combination of
exp(i k_x r)/r^j over the three modes x and a few powers j of 1/r, a
matrix C[x, j] (_Radial) on which d/dr and division by r are index
shifts: derivatives up to fourth order are exact algebra, never finite
differences.  _radial_functions states each one once, per (wave, params)
and cached, and a kernel evaluates the ones it reads together (_Table).
The pattern and coupling kernels read their final coefficients that
way: _pattern_kernel the traction rows along their own normal, n.t(n) =
n_j n_k M_jk with a normal-free M per source column, and the pressure
row, written entry by entry into the layout the candidates' expansion
reads; _dislocation_trace_matrix the traces of a radiated dislocation
field, each a sum of products of d and the two normals.  The
point-source tensor and the trace rows (_trace_rows) read the radial
scalars they are built from and form the coefficients at run time
(_trace_coefficients, the same statement that gives the pattern kernel
its C): a scalar that two coefficients share, such as Q in a1 and hb,
is then evaluated once per pair, as in the tensor form of the rows.
Near the source its modes cancel, and two evaluations of it differ in
the digits the cancellation leaves.

biot_residual checks the point-source tensor against the governing
system by finite differences.
"""

from __future__ import annotations

import functools
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
_FD_STEP = 1e-3  # the step of biot_residual's central differences


# ---------------------------------------------------------------------------
# radial evaluator
# ---------------------------------------------------------------------------
_J = 6  # powers 1/r^j, j < _J, of the basis: the fourth derivative of exp(ikr)/r


class _PowR(int):
    """r^m as the divisor of a _Radial: f / r**m shifts f's powers of 1/r."""

    def __pow__(self, k: int) -> "_PowR":
        return _PowR(self * k)


def _shift(c: np.ndarray, m: int) -> np.ndarray:
    """Coefficients c[x, j] moved to the power j + m of 1/r."""
    if c[:, _J - m:].any():
        raise ValueError(f"the radial basis holds no power of 1/r above {_J - 1}")
    return np.pad(c[:, :_J - m], ((0, 0), (m, 0)))


class _Radial:
    """A radial function sum_{x, j} c[x, j] exp(i k_x r) / r^j over the
    modes x (ik holds their i k_x) and the powers j < _J of 1/r.  Sums and
    constant multiples act on c; d/dr and division by r shift j, as
    d/dr exp(ikr)/r^j = ik exp(ikr)/r^j - j exp(ikr)/r^(j+1)."""

    __array_ufunc__ = None  # numpy scalar * _Radial goes to __rmul__

    def __init__(self, c: np.ndarray, ik: np.ndarray):
        self.c, self.ik = c, ik

    def __add__(self, other: "_Radial") -> "_Radial":
        return _Radial(self.c + other.c, self.ik)

    def __sub__(self, other: "_Radial") -> "_Radial":
        return _Radial(self.c - other.c, self.ik)

    def __mul__(self, a) -> "_Radial":
        return _Radial(a * self.c, self.ik)

    __rmul__ = __mul__

    def __neg__(self) -> "_Radial":
        return -1.0 * self

    def __truediv__(self, a) -> "_Radial":
        if isinstance(a, _PowR):
            return _Radial(_shift(self.c, a), self.ik)
        return _Radial(self.c / a, self.ik)

    @property
    def d(self) -> "_Radial":
        """The radial derivative."""
        return _Radial(self.ik[:, None] * self.c - (np.arange(_J) - 1) * _shift(self.c, 1), self.ik)


def _modes(ks) -> list[_Radial]:
    """exp(i k r)/(4 pi r) of each wavenumber k of ks, over the modes ks."""
    ik = 1j * np.asarray(ks, dtype=complex)
    c = np.zeros((ik.size, ik.size, _J), dtype=complex)
    c[range(ik.size), range(ik.size), 1] = 1.0 / (4.0 * np.pi)
    return [_Radial(cx, ik) for cx in c]


class _Table:
    """Radial functions evaluated together: sum_x exp(i k_x r) (C[x] @
    powers of 1/r), the powers summed per mode, then the modes in order,
    the more accurate order where the modes' near fields cancel (trace rows
    at r in [1e-3, 0.5] read 2.9e-13 from a 40-digit reference, 5.5e-13
    with one product).  A mode is evaluated only at the r where
    Im k_x r <= 746 (reach): beyond, exp(i k_x r) is 0.0 and so is its
    term, as for the Biot slow wave past r = 2.23 at the desk material.
    A mode in reach of every r, or of one (whose lone column numpy would
    round as a matrix-vector product), takes the whole row into a buffer
    the modes share.  The values are those of every mode at every r."""

    def __init__(self, fns: list[_Radial]):
        c = np.stack([f.c for f in fns], axis=1)  # (modes, F, _J)
        used = np.flatnonzero(c.any(axis=(0, 1)))
        self.j = np.arange(used[0], used[-1] + 1)
        self.C = np.ascontiguousarray(c[:, :, self.j])
        self.ik = fns[0].ik
        self.reach = [746.0 / -a if a < 0.0 else np.inf for a in self.ik.real]

    def __call__(self, r) -> np.ndarray:
        """The (F,) + r.shape values at the distances r."""
        r = np.asarray(r, dtype=float)
        s = r.reshape(-1)
        inv = 1.0 / s
        powers = np.empty((self.j.size, s.size), dtype=complex)
        np.power(inv, self.j[0], out=powers[0])
        for m in range(1, self.j.size):
            np.multiply(powers[m - 1], inv, out=powers[m])
        out = np.zeros((self.C.shape[1], s.size), dtype=complex)
        buf = np.empty_like(out)
        for C, ik, reach in zip(self.C, self.ik, self.reach):
            at = np.flatnonzero(s <= reach)
            if at.size in (1, s.size):
                at, v = slice(None), np.matmul(C, powers, out=buf)
            else:
                v = C @ powers[:, at]
            v *= np.exp(ik * s[at])
            out[:, at] += v
        return out.reshape(out.shape[:1] + r.shape)


class _Coeffs(NamedTuple):
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


@functools.lru_cache(maxsize=8)
def _coeffs(wave: WaveState, params: MaterialParams) -> _Coeffs:
    g, w = wave.gamma, wave.omega
    m = params.rho - params.rho_f**2 / g
    pmod = params.pwave_modulus
    k1sq, k2sq = wave.k_p1**2, wave.k_p2**2
    cP = w**2 * (params.alpha * g - params.rho_f) / (pmod * (k1sq - k2sq))
    mw2 = w**2 * m / pmod
    cf1 = -g * w**2 * (k1sq - mw2) / (k2sq - k1sq)
    cf2 = g * w**2 * (k2sq - mw2) / (k2sq - k1sq)
    return _Coeffs(1.0 / (w**2 * m), cP, cf1, cf2, wave.k_s**2, g * w**2,
                   params.rho_f * w**2, params.lam, params.mu, params.alpha)


# the radial scalars the point-source tensor and the trace rows are
# built from (the trace rows at run time, by _trace_coefficients), and the
# final radial coefficients the pattern and coupling kernels read, each in
# the order its kernel unpacks them
_SCALARS = ("P_phi", "Q_phi", "a_phi", "b_phi", "a_psi", "b_psi",
            "Dv1", "Psi1", "gs0", "gs1", "X0", "pf", "Pf1")
_PATTERN_FORCE = ("a1", "a2", "hb", "ps")
_PATTERN_FLUID = ("c1", "c2", "pf")
_DISLOCATION = ("t_dd", "t_w", "t_nd", "t_vn", "t_vd", "t_nn", "p_dd", "p_w", "p_v", "q_v",
                "f_dd", "f_w", "f_n", "f_pa", "f_pb", "c1", "c2", "qf", "pf")


def _trace_coefficients(s: dict, co: _Coeffs) -> dict:
    """The radial coefficients of the five trace rows from the radial
    scalars s (_SCALARS), _Radial series or their values: with nd = n.d,
    force column i of the trace kernel reads

        t_m = (a1 n_m + a2 nd d_m) d_i + hb (d_m n_i + nd [m = i]),
        q   = qa nd d_i + qb n_i,    p = ps d_i,

    and the fluid column t = c1 n + c2 nd d, q = qf nd, p = pf.
    """
    mu_u, g, rho, ps = co.mu * co.cU, co.gamma_w2, co.rho_f_w2, co.cP * s["Psi1"]
    return dict(
        a1=co.lam * co.cU * s["Dv1"] - co.alpha * ps + 2.0 * mu_u * s["Q_phi"],
        a2=2.0 * mu_u * s["P_phi"],
        hb=mu_u * (2.0 * s["Q_phi"] + co.ks2 * s["gs1"]),
        qa=(co.cP * s["a_psi"] - rho * co.cU * s["a_phi"]) / g,
        qb=(co.cP * s["b_psi"] - rho * co.cU * (s["b_phi"] + co.ks2 * s["gs0"])) / g,
        ps=ps,
        c1=co.cP * co.lam * s["X0"] - co.alpha * s["pf"] - 2.0 * co.mu * co.cP * s["b_psi"],
        c2=-2.0 * co.mu * co.cP * s["a_psi"],
        qf=(s["Pf1"] + rho * ps) / g,
        pf=s["pf"],
    )


@functools.lru_cache(maxsize=8)
def _radial_functions(wave: WaveState, params: MaterialParams) -> dict[str, _Radial]:
    """Every radial scalar and coefficient a kernel reads, by name, each
    stated once over the basis of _Radial; r below is the distance as a
    divisor.  The radial scalars of a radial f are its Hessian pair,
    Hess f = a d(x)d + b I with (a, b) = (f'' - f'/r, f'/r), which is
    also the gradient of f'(r) d; the pair (P, Q) of its n-contracted
    third derivative, P (n.d) d(x)d + Q (n(x)d + d(x)n + (n.d) I); and
    (D4, D2, D0) of the n- and nu-contracted fourth derivative of Phi,

        D4 (n.d)(nu.d) d(x)d + D2 [(nu.d)(n(x)d + d(x)n) + (n.nu) d(x)d
        + (n.d)((nu.d) I + nu(x)d + d(x)nu)] + D0 [(n.nu) I + nu(x)n + n(x)nu],

    whose trace is (D4 + 7 D2)(n.d) d + (D2 + 5 D0) n.  The coupling
    kernel's coefficients (_DISLOCATION) are laid out in
    _dislocation_trace_matrix.
    """
    co, r = _coeffs(wave, params), _PowR(1)
    gs, g1, g2 = _modes((wave.k_s, wave.k_p1, wave.k_p2))
    k1sq, k2sq = wave.k_p1**2, wave.k_p2**2
    Phi = gs - wave.A1 * g1 - wave.A2 * g2  # potential of the displacement block
    Psi = g1 - g2  # potential of the pressure difference
    Dv = wave.A1 * k1sq * g1 + wave.A2 * k2sq * g2  # div of U^s column j: cU Dv' d_j
    X = k1sq * g1 - k2sq * g2  # minus the Laplacian of Psi
    pf = co.cf1 * g1 + co.cf2 * g2

    def hess(f):
        return f.d.d - f.d / r, f.d / r

    def s2(f):
        f1, f2 = f.d, f.d.d
        return f2.d - 3.0 * f2 / r + 3.0 * f1 / r**2, f2 / r - f1 / r**2

    f = dict(Dv1=Dv.d, Psi1=Psi.d, gs0=gs, gs1=gs.d, X0=X, pf=pf, Pf1=pf.d, X1=X.d)
    for name, pair in (("phi", hess(Phi)), ("psi", hess(Psi)), ("dv", hess(Dv)), ("gs", hess(gs))):
        f["a_" + name], f["b_" + name] = pair
    for name, pair in (("phi", s2(Phi)), ("psi", s2(Psi))):
        f["P_" + name], f["Q_" + name] = pair
    f1, f2, f3 = Phi.d, Phi.d.d, Phi.d.d.d
    f["D4"] = f3.d - 6.0 * f3 / r + 15.0 * f2 / r**2 - 15.0 * f1 / r**3
    f["D2"] = f3 / r - 3.0 * f2 / r**2 + 3.0 * f1 / r**3
    f["D0"] = f2 / r**2 - f1 / r**3
    f["Yp"] = pf.d.d + co.rho_f_w2 * co.cP * Psi.d.d  # (gamma omega^2 qf)'
    f.update(_trace_coefficients(f, co))

    mu, lam, alpha, g, rho = co.mu, co.lam, co.alpha, co.gamma_w2, co.rho_f_w2
    m2, mk = 2.0 * mu * co.cU, mu * co.cU * co.ks2
    a_h = lam * co.cU * f["a_dv"] - alpha * co.cP * f["a_psi"]
    b_h = lam * co.cU * f["b_dv"] - alpha * co.cP * f["b_psi"]
    D4, D2, D0, a_gs, b_gs = (f[k] for k in ("D4", "D2", "D0", "a_gs", "b_gs"))
    W = 2.0 * m2 * D2 + mk * a_gs
    cP2, rho_u = 2.0 * co.cP, rho * co.cU
    ZP = cP2 * f["P_psi"] - 2.0 * rho_u * f["P_phi"]
    ZQ = cP2 * f["Q_psi"] - 2.0 * rho_u * f["Q_phi"]
    f.update(
        # traction of the [[u]] columns
        t_dd=-2.0 * mu * m2 * D4,
        t_w=-mu * W,
        t_nd=-2.0 * mu * (a_h + m2 * D2),
        t_vn=-2.0 * mu * (m2 * D0 + mk * b_gs),
        t_vd=-(2.0 * mu * m2 * D2 + lam * (m2 * (D4 + 7.0 * D2) + 2.0 * mk * a_gs)
               + alpha * f["c2"]),
        t_nn=-(2.0 * mu * (b_h + m2 * D0)
               + lam * (a_h + 3.0 * b_h + m2 * (D2 + 5.0 * D0) + 2.0 * mk * b_gs)
               + alpha * f["c1"]),
        # traction of the [[p]] and -[[q]] columns
        p_dd=-(mu / g) * ZP,
        p_w=-(mu / g) * (ZQ - rho_u * co.ks2 * f["gs1"]),
        p_v=-(mu / g) * ZQ - alpha * f["qf"] - (lam / g) * (
            co.cP * (f["P_psi"] + 5.0 * f["Q_psi"])
            - rho_u * (f["P_phi"] + 5.0 * f["Q_phi"] + co.ks2 * f["gs1"])),
        q_v=-mu * cP2 * f["b_psi"] - lam * co.cP * (f["a_psi"] + 3.0 * f["b_psi"]) - alpha * pf,
        # flow row
        f_dd=(mu * cP2 * f["P_psi"] - rho * f["a2"]) / g,
        f_w=(mu * cP2 * f["Q_psi"] - rho * f["hb"]) / g,
        f_n=(mu * cP2 * f["Q_psi"] - co.cP * lam * f["X1"] + alpha * f["Pf1"] - rho * f["a1"]) / g,
        f_pa=(f["qf"] / r - f["Yp"] / g - rho * f["qa"]) / g,
        f_pb=-(f["qf"] / r + rho * f["qb"]) / g,
    )
    return f


@functools.lru_cache(maxsize=32)
def _table(wave: WaveState, params: MaterialParams, names: tuple[str, ...]) -> _Table:
    """The _Table of the named radial functions, built once per (wave, params)."""
    fns = _radial_functions(wave, params)
    return _Table([fns[name] for name in names])


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


# ---------------------------------------------------------------------------
# point-source tensor
# ---------------------------------------------------------------------------
def _green_matrix(y, xi, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Batched 4x4 point-source tensor; leading dims broadcast over pairs."""
    r, d = _geometry(y, xi)
    s, co = dict(zip(_SCALARS, _table(wave, params, _SCALARS)(r))), _coeffs(wave, params)
    u_dd, u_I = co.cU * s["a_phi"], co.cU * (s["b_phi"] + co.ks2 * s["gs0"])
    ps, pf = (co.cP * s["Psi1"])[..., None] * d, s["pf"]

    out = np.empty(r.shape + (4, 4), dtype=np.complex128)
    out[..., :3, :3] = u_dd[..., None, None] * d[..., :, None] * d[..., None, :]
    out[..., range(3), range(3)] += u_I[..., None]
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


def biot_residual(y, xi, col: int, wave: WaveState, params: MaterialParams) -> float:
    """Relative residual of the governing system for source column ``col``
    of the point-source tensor at xi, from 5-point central differences of
    the closed-form tensor (an independent check of its derivation)."""
    y = np.asarray(y, dtype=float).reshape(3)
    xi = np.asarray(xi, dtype=float).reshape(3)
    gamma, omega = wave.gamma, wave.omega
    m = params.rho - params.rho_f**2 / gamma
    beta = params.alpha - params.rho_f / gamma
    lam, mu, h = params.lam, params.mu, _FD_STEP

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
    n = np.broadcast_to(np.asarray(n, dtype=float), d.shape)
    s = dict(zip(_SCALARS, _table(wave, params, _SCALARS)(r)))
    return _trace_rows(_trace_coefficients(s, _coeffs(wave, params)), d, n)


def _trace_rows(rad: dict, d, n) -> np.ndarray:
    """The (..., 5, 4) trace kernel at unit normals n from the values of
    its radial coefficients (_trace_coefficients)."""
    a1, a2, hb, qa, qb, ps, c1, c2, qf, pf = rad.values()
    nd = np.sum(n * d, axis=-1)
    out = np.empty(nd.shape + (5, 4), dtype=np.complex128)
    t_d = a1[..., None] * n + (a2 * nd)[..., None] * d
    out[..., 0:3, 0:3] = t_d[..., :, None] * d[..., None, :]
    out[..., 0:3, 0:3] += hb[..., None, None] * d[..., :, None] * n[..., None, :]
    out[..., range(3), range(3)] += (hb * nd)[..., None]
    out[..., 0:3, 3] = c1[..., None] * n + (c2 * nd)[..., None] * d
    out[..., 3, 0:3] = (qa * nd)[..., None] * d + qb[..., None] * n
    out[..., 3, 3] = qf * nd
    out[..., 4, 0:3] = ps[..., None] * d
    out[..., 4, 3] = pf
    return out


def _pattern_kernel(r, d, cols, pairs, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Normal-free trial-pattern kernel of a block, in the layout of its expansion.

    The traction rows contracted with their own normal, n.t(n) =
    n_j n_k M_jk, are a quadratic form in n with a symmetric, normal-free
    M per source column (the coefficients of _trace_coefficients):

        force column i:  M_jk = a2 d_j d_k d_i + a1 d_i [j = k] + hb (d_j [i = k] + d_k [i = j])
        fluid column:    M_jk = c1 [j = k] + c2 d_j d_k

    and the pressure row, which no normal changes, is ps d_i and pf.
    r (N, nb) and d (N, nb, 3) are the distances and directions from N
    sources to nb trial points (_geometry).  Returns (N, len(cols), nb,
    len(pairs) + 1): for each source column in ``cols`` (0-2 the force
    axes, 3 the fluid injection) the entries M_jk for each (j, k) in
    ``pairs``, then the pressure row, each one expression over the block.
    """
    force = any(i < 3 for i in cols)
    names = (_PATTERN_FORCE if force else ()) + (_PATTERN_FLUID if 3 in cols else ())
    rad = dict(zip(names, _table(wave, params, names)(r)))
    a1, a2, hb, c1, c2 = (rad.get(name) for name in ("a1", "a2", "hb", "c1", "c2"))

    dc = np.ascontiguousarray(np.moveaxis(d, -1, 0))  # dc[m] = d_m, (N, nb)
    hb_d = hb * dc if force else None  # hb_d[m] = (b/2) d_m
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
        out[:, c, :, -1] = rad["pf"] if i == 3 else rad["ps"] * dc[i]
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
    (source placed at the observer), F = K^T.  Each of its traces is a
    sum of products of d, n and nu with radial coefficients (_DISLOCATION
    of _radial_functions): with nd = n.d, vd = nu.d and nv = n.nu, the
    traction of jump column j reads

        d_i d_j (t_dd nd vd + t_w nv) + d_i n_j t_nd vd + d_i nu_j t_w nd
        + n_i d_j t_w vd + n_i nu_j t_vn + nu_i d_j t_vd nd + nu_i n_j t_nn
        + [i = j] (t_w nd vd + t_vn nv).
    """
    # w = y - z (d/dz = -d/dw), so d matches the trace-at-y / source-at-z arrangement
    r, d = _geometry(z, y)
    n = np.broadcast_to(np.asarray(n_src, dtype=float), d.shape)
    nu = np.broadcast_to(np.asarray(n_trc, dtype=float), d.shape)
    (t_dd, t_w, t_nd, t_vn, t_vd, t_nn, p_dd, p_w, p_v, q_v,
     f_dd, f_w, f_n, f_pa, f_pb, c1, c2, qf, pf) = _table(wave, params, _DISLOCATION)(r)
    nd, vd, nv = np.sum(n * d, axis=-1), np.sum(nu * d, axis=-1), np.sum(n * nu, axis=-1)
    ndvd = nd * vd

    def vec(cd, cn, cv):  # cd d + cn n + cv nu, without the terms given as None
        terms = [c[..., None] * u for c, u in ((cd, d), (cn, n), (cv, nu)) if c is not None]
        return sum(terms[1:], terms[0])

    out = np.empty(r.shape + (5, 5), dtype=np.complex128)
    t = out[..., 0:3, 0:3]
    t[...] = d[..., :, None] * vec(t_dd * ndvd + t_w * nv, t_nd * vd, t_w * nd)[..., None, :]
    t += n[..., :, None] * vec(t_w * vd, None, t_vn)[..., None, :]
    t += nu[..., :, None] * vec(t_vd * nd, t_nn, None)[..., None, :]
    t[..., range(3), range(3)] += (t_w * ndvd + t_vn * nv)[..., None]
    # the -[[q]] column's traction along d and the flow of the [[p]] column
    # read the pressure row's c2 and qf: the kernel is reciprocal
    out[..., 0:3, 3] = vec(p_dd * ndvd + p_w * nv, p_w * vd, p_v * nd)
    out[..., 0:3, 4] = vec(c2 * vd, None, q_v)
    out[..., 3, 0:3] = vec(f_dd * ndvd + f_w * nv, f_n * vd, f_w * nd)
    out[..., 3, 3] = f_pa * ndvd + f_pb * nv
    out[..., 3, 4] = -qf * vd
    out[..., 4, 0:3] = vec(c2 * nd, c1, None)
    out[..., 4, 3] = qf * nd
    out[..., 4, 4] = pf
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

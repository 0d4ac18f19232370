"""Independent reference implementations for the tests.

dislocation_trace_oracle is the coupling kernel built as the full
derivative tensor dF[..., m, row, col] of the radiated field (with the
fourth Cartesian derivative _nf4 of a radial scalar) and only then
contracted with the trace normal.  The production kernel,
poroscat.greens._dislocation_trace_matrix, writes those contractions out
in closed form; the two share the radial stacks and the trace rows only.

interface_response_oracle is the interface response of a contact law
built column by column from the contact conditions solved for the total
traces; poroscat.forward.interface_response_matrix takes it as E^-1 D of
the law's matrices.
"""

import numpy as np

from poroscat.greens import (
    _EYE3,
    _Stacks,
    _coeffs,
    _geometry,
    _hess,
    _radials,
    _s2,
    _s2_radial,
    _trace_rows,
)
from poroscat.material import MaterialParams, WaveState
from poroscat.scene import HIGH_PERMEABILITY, ContactParams


def _nf4(f, r, d, n):
    """n_k (fourth Cartesian derivative)_kijm of a radial scalar.

    Returns shape (..., 3, 3, 3) indexed [i, j, m]; fully symmetric.
    """
    f1, f2, f3, f4 = f[..., 1], f[..., 2], f[..., 3], f[..., 4]
    D4 = f4 - 6.0 * f3 / r + 15.0 * f2 / r**2 - 15.0 * f1 / r**3
    D2 = f3 / r - 3.0 * f2 / r**2 + 3.0 * f1 / r**3
    D0 = f2 / r**2 - f1 / r**3
    nd = np.sum(n * d, axis=-1)
    ddd = d[..., :, None, None] * d[..., None, :, None] * d[..., None, None, :]
    n_dd = (
        n[..., :, None, None] * d[..., None, :, None] * d[..., None, None, :]
        + d[..., :, None, None] * n[..., None, :, None] * d[..., None, None, :]
        + d[..., :, None, None] * d[..., None, :, None] * n[..., None, None, :]
    )
    eye_d = (
        _EYE3[:, :, None] * d[..., None, None, :]
        + _EYE3[:, None, :] * d[..., None, :, None]
        + _EYE3[None, :, :] * d[..., :, None, None]
    )
    eye_n = (
        _EYE3[:, :, None] * n[..., None, None, :]
        + _EYE3[:, None, :] * n[..., None, :, None]
        + _EYE3[None, :, :] * n[..., :, None, None]
    )
    return (
        (D4 * nd)[..., None, None, None] * ddd
        + D2[..., None, None, None] * (n_dd + nd[..., None, None, None] * eye_d)
        + D0[..., None, None, None] * eye_n
    )


def dislocation_trace_oracle(
    y, n_src, z, n_trc, wave: WaveState, params: MaterialParams
) -> np.ndarray:
    """Batched 5x5 kernel: traces (t, q, p) at z (normal n_trc) of the field
    radiated by unit jump components ([[u]], [[p]], -[[q]]) at y (normal n_src).

    The radiated field is the reciprocal evaluation of the trace kernel
    (source placed at the observer); taking its traces costs one more
    Cartesian derivative, hence the fourth-order radial stacks.
    """
    # w = y - z so that d matches the trace-at-y / source-at-z arrangement
    r, d = _geometry(z, y)
    n = np.broadcast_to(np.asarray(n_src, dtype=float), d.shape)
    nu = np.broadcast_to(np.asarray(n_trc, dtype=float), d.shape)
    st = _Stacks(wave, r, 4)
    co = _coeffs(wave, params)
    rad = _radials(st, co, r)
    # field kernel F[..., row(u1,u2,u3,p), col(au1..3, ap, aq)]: the
    # trace kernel read with rows and columns swapped
    K = _trace_rows(st, co, rad, r, d, n)
    S2P, HPsi = _s2(*rad.PQ, d, n), _hess(st.Psi, r, d)
    F = np.swapaxes(K, -1, -2)
    nd = np.sum(n * d, axis=-1)

    gs1, gs2 = rad.gs1, st.gs[..., 2]
    Psi1, Psi2, Dv1 = rad.Psi1, rad.Psi2, rad.Dv1
    Dv2 = st.A1 * st.k1sq * st.g1[..., 2] + st.A2 * st.k2sq * st.g2[..., 2]
    X1 = st.k1sq * st.g1[..., 1] - st.k2sq * st.g2[..., 1]
    Pf1 = co.cf1 * st.g1[..., 1] + co.cf2 * st.g2[..., 1]
    Pf2 = co.cf1 * st.g1[..., 2] + co.cf2 * st.g2[..., 2]
    Y = Pf1 + co.rho_f_w2 * co.cP * Psi1

    dd = d[..., :, None] * d[..., None, :]
    S2Psi = _s2(*_s2_radial(st.Psi, r), d, n)
    nF4 = _nf4(st.Phi, r, d, n)

    def hess_pattern(f1, f2):
        # d/dw_m of f1(r) d_i, given f2 = f1'
        a = (f2 - f1 / r)[..., None, None]
        return a * dd + (f1 / r)[..., None, None] * _EYE3  # [..., i, m]

    # --- gradients of the field kernel with respect to w = y - z ----------
    # dTs[..., j, i, m] = d Ts[j, i] / d w_m
    HDv = hess_pattern(Dv1, Dv2)  # [..., i, m]
    Hgs = hess_pattern(gs1, gs2)  # [..., j, m]
    grad_gs1_nd = (
        (gs2 * nd)[..., None] * d
        + gs1[..., None] * (n - nd[..., None] * d) / r[..., None]
    )  # [..., m]
    term_lam = co.lam * co.cU * n[..., :, None, None] * HDv[..., None, :, :]
    term_alpha = -co.alpha * co.cP * n[..., :, None, None] * HPsi[..., None, :, :]
    # mu-part laid out [..., i, j, m]; nF4 and the delta_ij term are fully
    # symmetric, only the n_i factor breaks the symmetry
    term_mu = (
        co.mu
        * co.cU
        * (
            2.0 * nF4
            + co.ks2
            * (
                _EYE3[:, :, None] * grad_gs1_nd[..., None, None, :]
                + n[..., :, None, None] * Hgs[..., None, :, :]
            )
        )
    )
    dTs = np.swapaxes(term_mu, -3, -2) + term_lam + term_alpha  # [..., j, i, m]

    dqs = (
        co.cP * S2Psi
        - co.rho_f_w2
        * co.cU
        * (S2P + co.ks2 * gs1[..., None, None] * n[..., :, None] * d[..., None, :])
    ) / co.gamma_w2  # [..., i, m]
    dps = co.cP * HPsi  # [..., i, m]

    dtf = (
        co.cP * co.lam * X1[..., None, None] * n[..., :, None] * d[..., None, :]
        - 2.0 * co.mu * co.cP * S2Psi
        - co.alpha * Pf1[..., None, None] * n[..., :, None] * d[..., None, :]
    )  # [..., j, m]
    Yp = Pf2 + co.rho_f_w2 * co.cP * Psi2
    dqf = (
        (Yp * nd)[..., None] * d
        + Y[..., None] * (n - nd[..., None] * d) / r[..., None]
    ) / co.gamma_w2  # [..., m]
    dpf = Pf1[..., None] * d  # [..., m]

    # assemble dF[..., m, row, col] = d F[row, col] / d w_m;
    # F[i, j] = Ts[j, i], hence dF[m, i, j] = dTs[j, i, m]
    dF = np.empty(r.shape + (3, 4, 5), dtype=np.complex128)
    dF[..., :, :3, :3] = np.moveaxis(np.swapaxes(dTs, -3, -2), -1, -3)
    dF[..., :, :3, 3] = np.moveaxis(dqs, -1, -2)
    dF[..., :, :3, 4] = np.moveaxis(dps, -1, -2)
    dF[..., :, 3, :3] = np.moveaxis(dtf, -1, -2)
    dF[..., :, 3, 3] = dqf
    dF[..., :, 3, 4] = dpf

    # --- traces at z; d/dz = -d/dw ----------------------------------------
    J = -dF[..., :, :3, :]  # J[..., m, i, col] = d u_i / d z_m
    gp = -dF[..., :, 3, :]  # gp[..., m, col] = d p / d z_m

    div_u = np.einsum("...mmc->...c", J)
    nuJ_sym = np.einsum("...k,...kic->...ic", nu, J) + np.einsum(
        "...k,...ikc->...ic", nu, J
    )
    t_rows = (
        co.lam * nu[..., :, None] * div_u[..., None, :]
        + co.mu * nuJ_sym
        - co.alpha * nu[..., :, None] * F[..., None, 3, :]
    )
    q_row = (
        np.einsum("...m,...mc->...c", nu, gp)
        - co.rho_f_w2 * np.einsum("...i,...ic->...c", nu, F[..., :3, :])
    ) / co.gamma_w2
    p_row = F[..., 3, :]

    out = np.empty(r.shape + (5, 5), dtype=np.complex128)
    out[..., 0:3, :] = t_rows
    out[..., 3, :] = q_row
    out[..., 4, :] = p_row
    return out


def interface_response_oracle(contact: ContactParams, omega: float) -> np.ndarray:
    """5x5 interface response in the jump basis, frame (x, y, z): column k
    holds the total traces (t (3), q, p) the contact conditions give for
    the k-th unit jump vector phi = ([[u]] (3), [[p]], -[[q]]).  For the
    high-permeability model the [[p]] column and the flow row vanish."""
    e1, e2, n = np.eye(3)
    K = contact.stiffness_matrix(e1, e2, n)
    at, bf = contact.alpha_f_tilde, contact.beta_f
    cq = at * contact.k_n * bf / (contact.Pi * contact.alpha_f)
    denom = 1.0 - at * bf
    P = np.zeros((5, 5), dtype=np.complex128)
    for col in range(5):
        phi = np.zeros(5, dtype=np.complex128)
        phi[col] = 1.0
        a_u, a_p, a_q = phi[0:3], phi[3], phi[4]
        tn = (n @ (K @ a_u) - cq * a_q) / denom
        P[0:3, col] = K @ a_u - cq * a_q * n + at * bf * tn * n
        if contact.model != HIGH_PERMEABILITY:
            P[3, col] = contact.kappa_f / (1j * omega * contact.Pi) * a_p
        P[4, col] = contact.k_n * bf / (contact.Pi * contact.alpha_f) * a_q - bf * tn
    if contact.model == HIGH_PERMEABILITY:
        P[:, 3] = 0.0
    return P

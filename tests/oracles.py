"""Independent reference implementations for the tests.

trace_matrix_oracle is the 5x4 trace kernel in tensor form: the traction
rows contract Cartesian Hessians and the n-contracted third derivative
_s2 of the radial potentials with the drained stiffness, and the flow
rows contract the Hessians with the normal.  The production kernel,
poroscat.greens._trace_matrix, writes every row from scalar radial
coefficients (greens._trace_coefficients).

dislocation_trace_oracle is the coupling kernel built as the full
derivative tensor dF[..., m, row, col] of the radiated field (with the
fourth Cartesian derivative _nf4 of a radial scalar) and only then
contracted with the trace normal.  The production kernel,
poroscat.greens._dislocation_trace_matrix, writes those contractions out
in closed form, its oracle's field being the tensor-form trace rows read
with rows and columns swapped.

Both oracles keep their tensor forms but read their radial scalars (the
Hessian, third- and fourth-derivative scalars of the potentials, each a
series in exp(i k r)/r^j) from the production radial evaluator, so they
check the kernels' tensor algebra.  trace_matrix_oracle reads the very
series the trace kernel reads (greens._SCALARS): near the source the
modes of a scalar such as Q cancel, and two evaluations of it differ in
the digits the cancellation leaves (4.6e-13 of the pair norm at r = 1e-3
for separately evaluated rows, against the 1e-13 its test asks).
dislocation_trace_oracle, whose pairs lie 0.1 or more apart, states its
scalars itself (radial_scalars over greens._Radial).  radial_scalars
works over any arithmetic: with plain mpmath numbers it is the 40-digit
reference of the radial evaluator in tests/test_greens.py.

radial_table_oracle is greens._Table as first written: every mode at
every r, each mode's product a fresh array.  The production table skips
the r where a mode's exp(i k r) has underflowed to 0.0 and writes whole
rows into one buffer; its values must equal the oracle's to the bit.

parity_blocks_oracle folds the full matrix M of the coupled interface
system into its even and odd blocks, M[c, d] + M[c, d'] w over one cell
c, d of each mirror pair.  poroscat.forward._interaction_matrix fills
each block directly from its reciprocal kernel.

interacting_lambda_oracle is the interacting closure's L assembled over
every cell: S, R and the right-hand side over all cells, each parity's
half of the right-hand side on every column, its jumps unfolded onto the
cells and their images, and L = R a.  When the sensing points lie on the
cells' mirror plane, poroscat.forward assembles S, R, the right-hand
side and L over one cell of each mirror pair and splits the parities by
column.

interface_response_oracle is the interface response of a contact law
built column by column from the contact conditions solved for the total
traces; poroscat.forward.interface_response_matrix takes it as E^-1 D of
the law's matrices.

glsm_pencil_oracle is the joint diagonalization of the penalized pencil
on all n directions, from the full SVD of the whitened operator L B with
B = (L#_psd + delta I)^-1/2, and glsm_indicator_oracle the penalized
indicator in its L# energy form, 1/sqrt(g^H L#_psd g + delta ||g||^2),
with clamp_psd the PSD-clamped L#.  poroscat.inversion.GlsmPencil keeps
the pencil's numerical range only, where the energy of g = V_r y is
||y||^2.
"""

import numpy as np

from poroscat import forward as fw
from poroscat.greens import _EYE3, _SCALARS, _PowR, _Table, _coeffs, _geometry, _modes, _table
from poroscat.inversion import _psd_function
from poroscat.material import MaterialParams, WaveState
from poroscat.scene import HIGH_PERMEABILITY, ContactParams


def radial_scalars(g, r, wave: WaveState, params: MaterialParams) -> dict:
    """The radial scalars of both tensor forms, by name.

    g[x][m] is the m-th radial derivative (m <= 4) of exp(i k_x r)/(4 pi r)
    for the modes x = s, p1, p2, and r the distance: either greens._Radial
    series with r = greens._PowR(1), or numbers.  The Hessian of a radial
    f is a d(x)d + b I with (a, b) = (f'' - f'/r, f'/r), and so is the
    gradient of f'(r) d.
    """
    co = _coeffs(wave, params)
    A1, A2 = complex(wave.A1), complex(wave.A2)
    k1sq, k2sq = complex(wave.k_p1) ** 2, complex(wave.k_p2) ** 2
    gs, g1, g2 = g
    Phi = [gs[m] - A1 * g1[m] - A2 * g2[m] for m in range(5)]
    Psi = [g1[m] - g2[m] for m in range(5)]
    Dv = [A1 * k1sq * g1[m] + A2 * k2sq * g2[m] for m in range(4)]
    X = [k1sq * g1[m] - k2sq * g2[m] for m in range(2)]
    Pf = [co.cf1 * g1[m] + co.cf2 * g2[m] for m in range(3)]

    def hess(f):  # f = [f, f', f'', ...]
        return f[2] - f[1] / r, f[1] / r

    def s2(f):  # n_k f_,kij = P (n.d) d_i d_j + Q (n_i d_j + d_i n_j + (n.d) delta_ij)
        return f[3] - 3.0 * f[2] / r + 3.0 * f[1] / r**2, f[2] / r - f[1] / r**2

    f1, f2, f3, f4 = Phi[1:5]
    out = dict(
        gs0=gs[0], gs1=gs[1], gs2=gs[2], Psi1=Psi[1], Psi2=Psi[2],
        Dv1=Dv[1], Dv2=Dv[2], X0=X[0], X1=X[1], pf=Pf[0], Pf1=Pf[1], Pf2=Pf[2],
        D4=f4 - 6.0 * f3 / r + 15.0 * f2 / r**2 - 15.0 * f1 / r**3,
        D2=f3 / r - 3.0 * f2 / r**2 + 3.0 * f1 / r**3,
        D0=f2 / r**2 - f1 / r**3,
        Y_r=(Pf[1] + co.rho_f_w2 * co.cP * Psi[1]) / r,
    )
    for name, pair in (("phi", hess(Phi)), ("psi", hess(Psi)), ("dv", hess(Dv)), ("gs", hess(gs))):
        out["a_" + name], out["b_" + name] = pair
    for name, pair in (("phi", s2(Phi)), ("psi", s2(Psi))):
        out["P_" + name], out["Q_" + name] = pair
    return out


def radial_table_oracle(fns, r) -> np.ndarray:
    """greens._Table of the radial functions fns at the distances r as
    first written: one exp over the modes and every mode at every r, the
    powers summed per mode (one product), then the modes in order."""
    c = np.stack([f.c for f in fns], axis=1)  # (modes, F, _J)
    used = np.flatnonzero(c.any(axis=(0, 1)))
    j = np.arange(used[0], used[-1] + 1)
    C = np.ascontiguousarray(c[:, :, j])
    r = np.asarray(r, dtype=float)
    s = r.reshape(-1)
    inv = 1.0 / s
    powers = np.empty((j.size, s.size), dtype=complex)
    np.power(inv, j[0], out=powers[0])
    for m in range(1, j.size):
        np.multiply(powers[m - 1], inv, out=powers[m])
    E = np.exp(np.multiply.outer(fns[0].ik, s))
    out = C[0] @ powers
    out *= E[0]
    for x in range(1, E.shape[0]):
        v = C[x] @ powers
        v *= E[x]
        out += v
    return out.reshape(C.shape[1:2] + r.shape)


def evaluated_scalars(r, wave: WaveState, params: MaterialParams) -> dict:
    """radial_scalars at the distances r, by the production radial evaluator."""
    g = []
    for f in _modes((wave.k_s, wave.k_p1, wave.k_p2)):
        g.append([f])
        for _ in range(4):
            g[-1].append(g[-1][-1].d)
    fns = radial_scalars(g, _PowR(1), wave, params)
    return dict(zip(fns, _Table(list(fns.values()))(r)))


def _hess(a, b, d):
    """a d(x)d + b I."""
    return a[..., None, None] * d[..., :, None] * d[..., None, :] + b[..., None, None] * _EYE3


def _s2(P, Q, d, n):
    """n_k (third Cartesian derivative)_kij of a radial scalar from its
    (P, Q); symmetric in ij."""
    nd = np.sum(n * d, axis=-1)
    dd = d[..., :, None] * d[..., None, :]
    ndsym = n[..., :, None] * d[..., None, :] + d[..., :, None] * n[..., None, :]
    return (
        (P * nd)[..., None, None] * dd
        + Q[..., None, None] * (ndsym + nd[..., None, None] * _EYE3)
    )


def trace_rows(s: dict, co, d, n):
    """The (..., 5, 4) trace kernel in tensor form from the radial_scalars
    s of its pairs (arrays of complex numbers, or of mpmath numbers)."""
    nd = np.sum(n * d, axis=-1)
    gs0, gs1, Psi1, Dv1, X0, pf = (s[k] for k in ("gs0", "gs1", "Psi1", "Dv1", "X0", "pf"))

    S2P = _s2(s["P_phi"], s["Q_phi"], d, n)
    HPsi = _hess(s["a_psi"], s["b_psi"], d)
    nHPsi = np.einsum("...k,...kj->...j", n, HPsi)

    ps = co.cP * Psi1[..., None] * d

    n_d = n[..., :, None] * d[..., None, :]
    Ts = (
        co.lam * co.cU * Dv1[..., None, None] * n_d
        + co.mu
        * co.cU
        * (
            2.0 * S2P
            + co.ks2
            * gs1[..., None, None]
            * (nd[..., None, None] * _EYE3 + d[..., :, None] * n[..., None, :])
        )
        - co.alpha * co.cP * Psi1[..., None, None] * n_d
    )

    tf = (
        co.cP * co.lam * X0[..., None] * n
        - 2.0 * co.mu * co.cP * nHPsi
        - co.alpha * pf[..., None] * n
    )

    nU = co.cU * (
        np.einsum("...k,...kj->...j", n, _hess(s["a_phi"], s["b_phi"], d))
        + (co.ks2 * gs0)[..., None] * n
    )
    qs = (co.cP * nHPsi - co.rho_f_w2 * nU) / co.gamma_w2
    qf = (s["Pf1"] * nd + co.rho_f_w2 * co.cP * Psi1 * nd) / co.gamma_w2

    out = np.empty(nd.shape + (5, 4), dtype=np.complex128)
    out[..., 0:3, 0:3] = Ts
    out[..., 0:3, 3] = tf
    out[..., 3, 0:3] = qs
    out[..., 3, 3] = qf
    out[..., 4, 0:3] = ps
    out[..., 4, 3] = pf
    return out


def trace_matrix_oracle(y, xi, n, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """Batched 5x4 trace kernel in tensor form: rows (t1,t2,t3,q,p) at xi
    with normal n, columns the 4 source types at y."""
    r, d = _geometry(y, xi)
    n = np.broadcast_to(np.asarray(n, dtype=float), d.shape)
    s = dict(zip(_SCALARS, _table(wave, params, _SCALARS)(r)))
    return trace_rows(s, _coeffs(wave, params), d, n)


def _nf4(D4, D2, D0, d, n):
    """n_k (fourth Cartesian derivative)_kijm of a radial scalar from its
    radial_scalars (D4, D2, D0).

    Returns shape (..., 3, 3, 3) indexed [i, j, m]; fully symmetric.
    """
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
    Cartesian derivative, hence the fourth-derivative radial scalars.
    """
    # w = y - z so that d matches the trace-at-y / source-at-z arrangement
    r, d = _geometry(z, y)
    n = np.broadcast_to(np.asarray(n_src, dtype=float), d.shape)
    nu = np.broadcast_to(np.asarray(n_trc, dtype=float), d.shape)
    s = evaluated_scalars(r, wave, params)
    co = _coeffs(wave, params)
    # field kernel F[..., row(u1,u2,u3,p), col(au1..3, ap, aq)]: the
    # trace kernel read with rows and columns swapped
    K = trace_rows(s, co, d, n)
    S2P, HPsi = _s2(s["P_phi"], s["Q_phi"], d, n), _hess(s["a_psi"], s["b_psi"], d)
    F = np.swapaxes(K, -1, -2)
    nd = np.sum(n * d, axis=-1)

    gs1, gs2, Psi1, Psi2 = s["gs1"], s["gs2"], s["Psi1"], s["Psi2"]
    X1, Pf1, Pf2 = s["X1"], s["Pf1"], s["Pf2"]
    S2Psi = _s2(s["P_psi"], s["Q_psi"], d, n)
    nF4 = _nf4(s["D4"], s["D2"], s["D0"], d, n)

    # --- gradients of the field kernel with respect to w = y - z ----------
    # dTs[..., j, i, m] = d Ts[j, i] / d w_m; the gradient of f(r) d_i is
    # the Hessian pair (f' - f/r, f/r) of radial_scalars
    HDv = _hess(s["a_dv"], s["b_dv"], d)  # [..., i, m]
    Hgs = _hess(s["a_gs"], s["b_gs"], d)  # [..., j, m]
    grad_gs1_nd = (
        (gs2 * nd)[..., None] * d
        + s["b_gs"][..., None] * (n - nd[..., None] * d)
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
        + s["Y_r"][..., None] * (n - nd[..., None] * d)
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


def parity_blocks_oracle(M, pairs, parities) -> list:
    """The blocks of the (5 nc, 5 nc) matrix M for the parities w = +-Q:
    A_w = M[U, U] + M[U, U'] w over the cells U and their mirror images U'
    of pairs, on the unknowns of w (all five of a paired cell, those with
    w = 1 of a cell on the plane, whose columns enter twice)."""
    U, image = pairs
    nc = M.shape[0] // 5
    M4 = M.reshape(nc, 5, nc, 5)[U]
    blocks = []
    for w in parities:
        keep = ((image != U)[:, None] | (w > 0)).ravel()
        A = (M4.take(image, axis=2) * w).reshape(keep.size, -1)
        A += M4.take(U, axis=2).reshape(keep.size, -1)
        blocks.append(A[np.ix_(keep, keep)])
    return blocks


def interacting_lambda_oracle(scene, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """The interacting closure's L of a scene over every cell: rhs = E S;
    for an unpaired scene one LU of M, else each parity w = +-Q whose half
    (rhs[c] + w rhs[c']) / 2 over the cells U has norm above 1e-14 ||rhs_U||
    solved on its block, x_c added to a[c] and w x_c to a[c'] (the
    unknowns with w = -1 of a cell on the plane dropped); L = R a."""
    f = fw._factors(scene, wave, params)
    iface = f.interface
    rhs = fw._blockwise(iface.E, f.S)
    pairs = fw._mirror_pairs(iface, wave, params)
    if pairs is None:
        [M] = fw._interaction_matrix(iface, wave, params)
        return f.R @ np.linalg.solve(M, rhs)
    (U, image), k = pairs, rhs.shape[1]
    rhs4 = rhs.reshape(-1, 5, k)
    a, floor = np.zeros_like(rhs4), 1e-14 * np.linalg.norm(rhs4[U])
    halves = [(w, 0.5 * (rhs4[U] + w[:, None] * rhs4[image])) for w in (fw._Q, -fw._Q)]
    halves = [(w, h.reshape(-1, k)) for w, h in halves if np.linalg.norm(h) > floor]
    blocks = fw._interaction_matrix(iface, wave, params, pairs, [w for w, _ in halves])
    for A, (w, half) in zip(blocks, halves):
        keep = ((image != U)[:, None] | (w > 0)).ravel()
        x = np.zeros_like(half)
        x[keep] = np.linalg.solve(A, half[keep])
        a[U] += x.reshape(-1, 5, k)
        a[image] += w[:, None] * x.reshape(-1, 5, k)
    return f.R @ a.reshape(rhs.shape)


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


def clamp_psd(matrix):
    """Projection of a nearly-PSD matrix's Hermitian part onto the PSD
    cone: its eigenvalues below 1e-14 of the largest in magnitude (small
    negatives from roundoff too) set to zero."""
    H = np.asarray(matrix, dtype=np.complex128)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    vals = np.where(vals < 1e-14 * np.abs(vals).max(initial=0.0), 0.0, vals)
    return (vecs * vals) @ vecs.conj().T


def glsm_pencil_oracle(L, sharp, delta: float):
    """(d, W, V) of the penalized pencil on all n directions, d descending:
    V^H (L#_psd + delta I) V = I, V^H L^H L V = diag(d) and W = V^H L^H,
    from the full SVD L B = U diag(s) Y^H of the whitened operator,
    B = (L#_psd + delta I)^-1/2: d = s^2, W = diag(s) U^H and V = B Y.
    This is the arithmetic GlsmPencil runs before it cuts them to their
    numerical range."""
    B = _psd_function(sharp, lambda vals: 1.0 / np.sqrt(vals + delta))
    U, s, Yh = np.linalg.svd(L @ B)
    return s * s, s[:, None] * np.ascontiguousarray(U.conj().T), (Yh @ B).conj().T


def glsm_indicator_oracle(g, sharp, delta: float):
    """1/sqrt(g^H L#_psd g + delta ||g||^2) per column of a 2-d g (a float
    for a 1-d g), L#_psd the PSD-clamped sharp."""
    G = np.asarray(g, dtype=np.complex128).reshape(len(g), -1)
    energy = np.real(np.einsum("ij,ij->j", G.conj(), clamp_psd(sharp) @ G))
    energy += delta * np.linalg.norm(G, axis=0) ** 2
    value = 1.0 / np.sqrt(energy)
    return value if np.ndim(g) == 2 else float(value[0])

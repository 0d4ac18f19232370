"""Synthetic multiphysics data generation for fracture scenes.

The scattering operator maps excitation densities on the sensing grid to
scattered displacement/pressure data on the same grid.  It is built as
the composition of three discrete operators:

    trace operator S      : sources on the grid -> incident traces
                            (t, q, p) at every collocation cell,
    interface transfer T  : incident traces -> jump densities
                            ([[u]], [[p]], -[[q]]) per cell,
    radiation operator R  : jump densities -> (u, p) data on the grid,
                            midpoint quadrature with cell areas.

One builder each makes S and R for any points and channels, and one
transfer function applies T to a block of trace columns.  R is S's trace
kernel read transposed and weighted by the cell areas, so the R builder
takes the kernel block the S builder evaluated.  assemble_lambda is
their one use on the whole grid, and the builders carry the guards: the
S builder rejects a source on a patch, the R builder flags points in a
patch's near-singular zone.

Two interface closures are provided.  The local (Born-type) closure
zeroes the scattered traces in the contact conditions, making T block
diagonal and the whole operator an exact triple product R @ T @ S.  The
interacting closure keeps the scattered traces radiated by cells of
*other* patches (patch-exclusion collocation: couplings internal to one
patch, including the singular self-cell term, are excluded) and solves
the resulting dense linear system.  Its coupling kernel is reciprocal,
B(z <- y) = B(y <- z)^T, so each unordered pair of cells on distinct
patches costs one kernel evaluation, which fills both of its blocks.  An
interacting assembly reports its solve's residual and its closure gap
||L - L_loc|| / ||L_loc|| against the local closure.

Matrix rows and columns are indexed point-major: index = point*C + c
where c runs over the scene's channels, pairing excitation type with its
reciprocal data component (force e_i with u_i, fluid injection with p).
"""

from __future__ import annotations

import cmath
import io
import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    CompatibilityError,
    ConditioningError,
    DegenerateContactError,
    DomainError,
    NumericalError,
    SingularityError,
)
from .greens import _trace_matrix, _dislocation_trace_matrix
from .material import MaterialParams, WaveState
from .scene import (
    ContactParams,
    FracturePatch,
    HIGH_PERMEABILITY,
    Scene,
    channel_indices,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ScatteringMatrix",
    "AdmissibilityReport",
    "assemble_lambda",
    "inject_noise",
    "check_admissibility",
    "interface_response_matrix",
    "save_matrix",
    "load_matrix",
]


# ---------------------------------------------------------------------------
# cell bookkeeping
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Cells:
    centers: np.ndarray    # (nc, 3)
    areas: np.ndarray      # (nc,)
    normals: np.ndarray    # (nc, 3)
    patch_index: np.ndarray  # (nc,)

    @property
    def count(self) -> int:
        return self.centers.shape[0]


def _collect_cells(patches: Sequence[FracturePatch]) -> _Cells:
    centers, areas, normals, pidx = [], [], [], []
    for i, patch in enumerate(patches):
        c, a = patch.cells()
        centers.append(c)
        areas.append(a)
        normals.append(np.tile(patch.normal, (c.shape[0], 1)))
        pidx.append(np.full(c.shape[0], i, dtype=int))
    if not centers:
        return _Cells(
            centers=np.zeros((0, 3)),
            areas=np.zeros(0),
            normals=np.zeros((0, 3)),
            patch_index=np.zeros(0, dtype=int),
        )
    return _Cells(
        centers=np.vstack(centers),
        areas=np.concatenate(areas),
        normals=np.vstack(normals),
        patch_index=np.concatenate(pidx),
    )


# ---------------------------------------------------------------------------
# incident traces (operator S)
# ---------------------------------------------------------------------------
def _kernel_block(cells: _Cells, points, cidx, wave, params) -> np.ndarray:
    """(5*nc, C*N) trace kernel: unit sources of the channels cidx at the N
    points to the traces at the cells."""
    N, C, nc = points.shape[0], len(cidx), cells.count
    K = _trace_matrix(
        points[None, :, :], cells.centers[:, None, :], cells.normals[:, None, :],
        wave, params,
    )  # (nc, N, 5, 4)
    return K[..., cidx].transpose(0, 2, 1, 3).reshape(5 * nc, C * N)


def _trace_block(patches, points, cidx, wave, params) -> np.ndarray:
    """(5*nc, C*N) operator S: unit sources of the channels cidx at the N
    points to the cell traces.  A source on a patch is rejected."""
    for pi, patch in enumerate(patches):
        on = np.flatnonzero(patch.distance_to(points) < 1e-12)
        if on.size:
            raise SingularityError(f"source point {points[on[0]]} lies on patch {pi}")
    return _kernel_block(_collect_cells(patches), points, cidx, wave, params)


def _trace_operator(scene: Scene, wave, params) -> np.ndarray:
    """(5*nc, C*N) operator: grid excitations to cell traces."""
    cidx = channel_indices(scene.channels)
    return _trace_block(scene.patches, scene.grid.points, cidx, wave, params)


# ---------------------------------------------------------------------------
# interface transfer (operator T)
# ---------------------------------------------------------------------------
def _contact_blocks(
    patches: Sequence[FracturePatch], patch_index: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell interface matrices (D, E), each (nc, 5, 5), gathered by patch.

    D maps the jump unknowns a = ([[u]], [[p]], -[[q]]) to the closure
    left-hand side; E maps the trace vector (t, q, p) to the right-hand
    side, so that the local transfer is T = D^-1 E.  For the
    high-permeability model the flow condition is replaced by [[p]] = 0.
    """
    D = np.zeros((len(patches), 5, 5), dtype=np.complex128)
    E = np.zeros_like(D)
    for i, patch in enumerate(patches):
        c, n = patch.contact, patch.normal
        K = c.stiffness_matrix(patch.e1, patch.e2, n)
        if c.k_n == 0:
            raise DegenerateContactError("k_n is zero")
        if c.beta_f == 0:
            raise DegenerateContactError("beta_f is zero")
        D[i, 0:3, 0:3] = K
        D[i, 3, 4] = c.k_n * c.beta_f / (c.Pi * c.alpha_f)
        E[i, 0:3, 0:3] = np.eye(3)
        E[i, 0:3, 4] = c.alpha_f_tilde * n
        E[i, 3, 0:3] = c.beta_f * n
        E[i, 3, 4] = 1.0
        if c.model == HIGH_PERMEABILITY:
            D[i, 4, 3] = 1.0  # [[p]] = 0
        else:
            if c.kappa_f == 0:
                raise DegenerateContactError("kappa_f is zero")
            D[i, 4, 3] = c.kappa_f / (1j * omega * c.Pi)
            E[i, 4, 3] = 1.0
    return D[patch_index], E[patch_index]


def _transfer(patches, psi: np.ndarray, omega: float, coupling=None):
    """Interface transfer T: a (5*nc, k) trace block to its jump block, and
    the relative residual of the coupled solve (None when none was made).

    coupling is None for the local closure, or (wave, params, cutoff) for
    the interacting one, which reduces to the local closure when
    _patches_interact says the patches do not couple.
    """
    cells = _collect_cells(patches)
    nc = cells.count
    if psi.shape[0] != 5 * nc:
        raise CompatibilityError(
            f"trace block has {psi.shape[0] // 5} cells, patches have {nc}"
        )
    D, E = _contact_blocks(patches, cells.patch_index, omega)
    blocks = psi.reshape(nc, 5, psi.shape[1])
    if coupling is not None:
        wave, params, cutoff = coupling
        if _patches_interact(patches, wave, cutoff):
            rhs = np.einsum("cij,cjk->cik", E, blocks).reshape(psi.shape)
            return _coupled_solve(_interaction_matrix(cells, D, E, wave, params), rhs)
    try:
        T = np.linalg.solve(D, E)
    except np.linalg.LinAlgError:
        raise DegenerateContactError("interface stiffness matrix K is singular") from None
    return np.einsum("cij,cjk->cik", T, blocks).reshape(psi.shape), None


def _local_transfer(patches, omega: float) -> np.ndarray:
    """Block-diagonal local transfer blocks, one 5x5 block per cell: the
    local closure applied to unit traces."""
    nc = sum(p.cell_count for p in patches)
    return _transfer(patches, np.tile(np.eye(5), (nc, 1)), omega)[0].reshape(nc, 5, 5)


def _patches_interact(patches, wave, cutoff) -> bool:
    """Whether two or more patches lie within cutoff / min(Im k) of each
    other (always, for cutoff None or a lossless background)."""
    if len(patches) <= 1:
        return False
    if cutoff is None:
        return True
    min_im = wave.min_decay_rate()
    if min_im <= 0.0:
        return True
    reach = cutoff / min_im
    return any(
        q.distance_to(p.cells()[0]).min() <= reach
        for i, p in enumerate(patches)
        for q in patches[i + 1:]
    )


# cell pairs per dislocation-kernel call.  A call's temporaries peak at
# about 2.2 KB per pair (1.1 MiB per call, by tracemalloc), far below the
# 41 MB of the 320-cell network's M, which builds as fast with 512 to 2048
# pairs per call and slower with 256, where per-call costs show (2 vCPU)
_PAIR_CHUNK = 512


def _interaction_matrix(cells: _Cells, D, E, wave, params) -> np.ndarray:
    """Dense (5*nc, 5*nc) matrix of the coupled interface system.

    Block (i, i) is D of cell i.  Block (i, j) of an off-patch pair is
    -area_j E_i B_ij, B_ij the traces at cell i of the dislocation at
    cell j; pairs on one patch, the self-cell included, are excluded.
    The kernel is reciprocal, B_ji = B_ij^T (the reciprocal theorem of
    the Biot system), so it is evaluated once per unordered pair, with
    patch_index[i] < patch_index[j], and fills both blocks.  Cells are
    collected patch by patch, so the pairs of patches a < b form a
    rectangle of M.  The pairs go to the kernel rectangle by rectangle,
    row-major, in chunks of _PAIR_CHUNK; a rectangle's part of a chunk
    takes one product with the E of each patch.
    """
    nc, pi, w = cells.count, cells.patch_index, -cells.areas
    M = np.zeros((nc, 5, nc, 5), dtype=np.complex128)
    diag = np.arange(nc)
    M[diag, :, diag, :] = D
    # first cell and cell count of each cell's patch
    start, size = np.searchsorted(pi, pi).tolist(), np.bincount(pi)[pi].tolist()
    rows, cols = np.nonzero(pi[:, None] < pi[None, :])
    order = np.lexsort((cols, rows, pi[cols], pi[rows]))
    rows, cols = rows[order], cols[order]
    for s in range(0, rows.size, _PAIR_CHUNK):
        i, j = rows[s:s + _PAIR_CHUNK], cols[s:s + _PAIR_CHUNK]
        B = _dislocation_trace_matrix(
            cells.centers[j], cells.normals[j], cells.centers[i], cells.normals[i],
            wave, params,
        )  # (pairs, 5, 5)
        Bj, Bi = B * w[j, None, None], B * w[i, None, None]
        edges = (np.flatnonzero(np.diff(pi[i] * nc + pi[j])) + 1).tolist()
        i, j = i.tolist(), j.tolist()
        for lo, hi in zip([0] + edges, edges + [len(i)]):
            # one pair of patches a < b: every cell of a patch has its patch's E;
            # ea[r, p, s] = -area_j (E_a B_p)[r, s], eb[p, s, r] = -area_i (E_b B_p^T)[r, s]
            ea = (E[i[lo]] @ np.swapaxes(Bj[lo:hi], 0, 1).reshape(5, -1)).reshape(5, hi - lo, 5)
            eb = (Bi[lo:hi].reshape(-1, 5) @ E[j[lo]].T).reshape(hi - lo, 5, 5)
            # the run is [q0, q1) of the rectangle in row-major order: a row's
            # tail, whole rows and a row's head, each a rectangle of M
            a0, b0, nb = start[i[lo]], start[j[lo]], size[j[lo]]
            q0 = (i[lo] - a0) * nb + j[lo] - b0
            q1 = q0 + hi - lo
            cuts = sorted({q0, min(q1, -(-q0 // nb) * nb), max(q0, q1 // nb * nb), q1})
            for u0, u1 in zip(cuts, cuts[1:]):
                r0, r1 = a0 + u0 // nb, a0 + (u1 - 1) // nb + 1
                c0, c1 = b0 + u0 % nb, b0 + (u1 - 1) % nb + 1
                pairs = (r1 - r0, c1 - c0)
                M[r0:r1, :, c0:c1, :] = (
                    ea[:, u0 - q0:u1 - q0].reshape(5, *pairs, 5).transpose(1, 0, 2, 3))
                M[c0:c1, :, r0:r1, :] = (
                    eb[u0 - q0:u1 - q0].reshape(*pairs, 5, 5).transpose(1, 3, 0, 2))
    return M.reshape(5 * nc, 5 * nc)


def _cond(A: np.ndarray) -> float:
    """2-norm condition number of A; inf for a non-finite A, whose SVD
    would fail."""
    return float(np.linalg.cond(A)) if np.all(np.isfinite(A)) else float("inf")


def _coupled_solve(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """LU solve of the coupled interface system (1- or 2-d rhs) and its
    relative residual ||M a - rhs|| / ||rhs||.

    A non-finite M or rhs, a singular M and a non-finite or large
    residual raise ConditioningError.
    """
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        raise ConditioningError("coupled interface system has non-finite entries")
    try:
        a = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"coupled interface system is singular: {exc}", condition_number=_cond(M)
        ) from None
    rhs_norm = np.linalg.norm(rhs)
    res = float(np.linalg.norm(M @ a - rhs) / rhs_norm) if rhs_norm > 0.0 else 0.0
    if not res <= 1e-8:  # NaN included
        raise ConditioningError(
            f"coupled interface solve residual {res:.3e}",
            condition_number=_cond(M) if np.isfinite(res) else float("inf"),
        )
    return a, res


# ---------------------------------------------------------------------------
# radiation (operator conj(S)* with cell-area quadrature)
# ---------------------------------------------------------------------------
def _radiation_block(patches, points, kernel: np.ndarray):
    """(C*N, 5*nc) operator R: cell jump densities to the data of some
    channels at the N points, with the points' near-singular flags.

    ``kernel`` is the (5*nc, C*N) _kernel_block of the same points and
    channels: entry [(p, c), cell] of R is the reciprocal evaluation of
    the trace kernel (source at point p, trace and normal at the cell),
    kernel[cell, (p, c)], times the cell area.  Points closer to a patch
    than half its cell diagonal are flagged near-singular.
    """
    near = np.zeros(points.shape[0], dtype=bool)
    for patch in patches:
        n1, n2 = patch.subdivisions
        h1, h2 = patch.half_lengths
        diag = np.hypot(2.0 * h1 / n1, 2.0 * h2 / n2)
        near |= patch.distance_to(points) < 0.5 * diag
    if near.any():
        logger.warning(
            "%d observation point(s) within the near-singular zone", int(near.sum())
        )
    areas = np.repeat(_collect_cells(patches).areas, 5)
    return np.ascontiguousarray((areas[:, None] * kernel).T), near


def _radiation_operator(scene: Scene, wave, params) -> np.ndarray:
    """(C*N, 5*nc) operator: cell jump densities to grid data."""
    return _radiation_block(
        scene.patches, scene.grid.points, _trace_operator(scene, wave, params)
    )[0]


# ---------------------------------------------------------------------------
# scattering operator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScatteringMatrix:
    """Dense data operator with point-major (point, channel) indexing.

    coupled_residual and closure_gap are an interacting assembly's (see
    _scattering_data), and near_singular_points counts the sensing points
    an assembly flagged (_radiation_block); none is part of the file
    format."""

    data: np.ndarray
    channels: tuple[str, ...]
    n_points: int
    omega: float
    kind: str = "clean"
    mode: str = "local"
    epsilon: float | None = None
    seed: int | None = None
    delta: float | None = None
    coupled_residual: float | None = None
    closure_gap: float | None = None
    near_singular_points: int | None = None

    def __post_init__(self) -> None:
        n = self.n_points * len(self.channels)
        if self.data.shape != (n, n):
            raise CompatibilityError(
                f"matrix shape {self.data.shape} does not match "
                f"{self.n_points} points x {len(self.channels)} channels"
            )
        if self.kind not in ("clean", "noisy"):
            raise DomainError(f"kind must be clean|noisy, got {self.kind!r}")

    @property
    def size(self) -> int:
        return self.data.shape[0]


def _require_active_channels(scene: Scene) -> None:
    cidx = channel_indices(scene.channels)
    mask = scene.grid.active[:, cidx]
    if not mask.all():
        raise CompatibilityError(
            "sensing grid excitation mask is not uniform over the scene channels"
        )


def _scattering_data(patches, S, R, omega: float, coupling=None):
    """(L, coupled residual, closure gap) of L = R T S, from S and R built.

    For the interacting closure (coupling as in _transfer) the residual is
    that of the coupled solve (None when the patches do not interact) and
    the gap is ||L - L_loc|| / ||L_loc||, L_loc = R T_loc S from the same
    S and R; both are None for the local closure.
    """
    jumps, residual = _transfer(patches, S, omega, coupling)
    data = R @ jumps
    if not np.isfinite(data).all():
        raise NumericalError(
            "the scattering matrix has non-finite entries: the kernels left double "
            "range for this scene, material and frequency"
        )
    if coupling is None:
        return data, None, None
    local = R @ _transfer(patches, S, omega)[0]
    scale = np.linalg.norm(local)
    return data, residual, float(np.linalg.norm(data - local) / scale) if scale > 0.0 else 0.0


def assemble_lambda(
    scene: Scene,
    wave: WaveState,
    params: MaterialParams,
    mode: str = "local",
    cutoff: float | None = 50.0,
) -> ScatteringMatrix:
    """Assemble the discrete scattering operator of a scene.

    Column block j holds the scattered (u, p) data at every grid point
    for a unit excitation of channel j; the operator is the composition
    R T S of radiation, interface transfer and incident traces.
    """
    if mode not in ("local", "interacting"):
        raise DomainError(f"mode must be local|interacting, got {mode!r}")
    _require_active_channels(scene)
    S = _trace_operator(scene, wave, params)
    R, near = _radiation_block(scene.patches, scene.grid.points, S)
    coupling = (wave, params, cutoff) if mode == "interacting" else None
    data, residual, gap = _scattering_data(scene.patches, S, R, wave.omega, coupling)
    logger.info(
        "assembled %dx%d scattering matrix (%s mode, %d cells)",
        data.shape[0], data.shape[1], mode, S.shape[0] // 5,
    )
    return ScatteringMatrix(
        data=data,
        channels=scene.channels,
        n_points=scene.grid.count,
        omega=wave.omega,
        kind="clean",
        mode=mode,
        coupled_residual=residual,
        closure_gap=gap,
        near_singular_points=int(near.sum()),
    )


def inject_noise(
    matrix: ScatteringMatrix,
    epsilon: float | None = None,
    target_delta: float | None = None,
    seed: int = 0,
) -> ScatteringMatrix:
    """Perturb the operator multiplicatively: L_noisy = (I + N) L.

    N has real and imaginary parts i.i.d. uniform on [-eps, eps], drawn
    row-major from a generator seeded with ``seed`` (real parts first).
    When target_delta is given, N is rescaled once so that the spectral
    norm ||N L||_2 hits the target (to rounding).  The achieved value is
    recorded as ``delta``.
    """
    if (epsilon is None) == (target_delta is None):
        raise DomainError("give exactly one of epsilon or target_delta")
    if epsilon is not None and epsilon < 0.0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    if target_delta is not None and target_delta < 0.0:
        raise DomainError(f"target_delta must be >= 0, got {target_delta}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    n = matrix.size
    eps = 1.0 if epsilon is None else epsilon
    if eps == 0.0 or (target_delta is not None and target_delta == 0.0):
        return replace(
            matrix, kind="noisy", epsilon=0.0, seed=seed, delta=0.0,
            data=matrix.data.copy(),
        )
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-eps, eps, (n, n)) + 1j * rng.uniform(-eps, eps, (n, n))
    NL = noise @ matrix.data
    if target_delta is not None:
        norm = np.linalg.norm(NL, 2)
        if norm == 0.0:
            raise DomainError(
                f"target_delta = {target_delta!r} is unreachable: the operator is zero"
            )
        scale = target_delta / norm
        noise *= scale
        NL *= scale
        eps *= scale
    delta = float(np.linalg.norm(NL, 2))
    return replace(
        matrix,
        data=matrix.data + NL,
        kind="noisy",
        epsilon=float(eps),
        seed=seed,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# contact-law admissibility
# ---------------------------------------------------------------------------
def interface_response_matrix(
    contact: ContactParams,
    omega: float,
    frame: tuple | None = None,
) -> np.ndarray:
    """5x5 matrix of the interface operator in the jump basis.

    Maps phi = ([[u]] (3), [[p]], -[[q]]) to the total-trace triple
    (t + t_inc (3), <q> + q_inc, <p> + p_inc) implied by the contact
    conditions.  For the high-permeability model the [[p]] column and
    flow row vanish (the pressure jump is constrained to zero).
    """
    if frame is None:
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        n = np.array([0.0, 0.0, 1.0])
    else:
        e1, e2, n = (np.asarray(v, dtype=float) for v in frame)
    if contact.beta_f == 0:
        raise DegenerateContactError("beta_f is zero")
    K = contact.stiffness_matrix(e1, e2, n)
    at = contact.alpha_f_tilde
    bf = contact.beta_f
    cq = at * contact.k_n * bf / (contact.Pi * contact.alpha_f)
    denom = 1.0 - at * bf
    if abs(denom) < 1e-14:
        raise DegenerateContactError("1 - alpha_f_tilde*beta_f vanishes")

    P = np.zeros((5, 5), dtype=np.complex128)
    for col in range(5):
        phi = np.zeros(5, dtype=np.complex128)
        phi[col] = 1.0
        a_u, a_p, a_q = phi[0:3], phi[3], phi[4]
        tn = (n @ (K @ a_u) - cq * a_q) / denom
        tau = K @ a_u - cq * a_q * n + at * bf * tn * n
        row_p = contact.k_n * bf / (contact.Pi * contact.alpha_f) * a_q - bf * tn
        if contact.model == HIGH_PERMEABILITY:
            row_q = 0.0
        else:
            if contact.kappa_f == 0:
                raise DegenerateContactError("kappa_f is zero")
            row_q = contact.kappa_f / (1j * omega * contact.Pi) * a_p
        P[0:3, col] = tau
        P[3, col] = row_q
        P[4, col] = row_p
    if contact.model == HIGH_PERMEABILITY:
        P[:, 3] = 0.0
    return P


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    worst_imag: float
    tolerance: float


def check_admissibility(contact: ContactParams, wave: WaveState) -> AdmissibilityReport:
    """Exact well-posedness check of the interface operator.

    With the duality pairing aligned componentwise with the jump basis,
    the supremum of Im <P phi, phi> over unit 5-vectors phi is the largest
    eigenvalue of the Hermitian part (P - P^H) / 2i.  The contact law is
    admissible when it is <= 0 (within 1e-12 of the matrix scale).
    """
    P = interface_response_matrix(contact, wave.omega)
    worst = float(np.linalg.eigvalsh((P - P.conj().T) / 2j)[-1])
    tol = 1e-12 * max(1.0, float(np.linalg.norm(P)))
    return AdmissibilityReport(admissible=worst <= tol, worst_imag=worst, tolerance=tol)


# ---------------------------------------------------------------------------
# exchange format
# ---------------------------------------------------------------------------
_FORMAT_TAG = "poroscat-matrix v1"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def serialize_matrix(matrix: ScatteringMatrix) -> str:
    """Text form: '#'-prefixed header, then one 're,im' line per entry
    (row-major, 17 significant digits; bit-exact round trip)."""
    buf = io.StringIO()
    buf.write(f"# {_FORMAT_TAG}\n")
    buf.write(f"# kind = {matrix.kind}\n")
    buf.write(f"# mode = {matrix.mode}\n")
    buf.write(f"# n_points = {matrix.n_points}\n")
    buf.write(f"# channels = {','.join(matrix.channels)}\n")
    buf.write(f"# omega = {_fmt(matrix.omega)}\n")
    buf.write(f"# epsilon = {'none' if matrix.epsilon is None else _fmt(matrix.epsilon)}\n")
    buf.write(f"# seed = {'none' if matrix.seed is None else matrix.seed}\n")
    buf.write(f"# delta = {'none' if matrix.delta is None else _fmt(matrix.delta)}\n")
    parts = np.asarray(matrix.data, dtype=np.complex128).ravel().view(np.float64).tolist()
    buf.write(("%.17g,%.17g\n" * (len(parts) // 2)) % tuple(parts))
    return buf.getvalue()


def save_matrix(matrix: ScatteringMatrix, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_matrix(matrix))


def _non_negative(cast):
    """cast, refusing negative and non-finite results with ValueError."""
    def checked(text: str):
        value = cast(text)
        if not 0 <= value < float("inf"):
            raise ValueError(text)
        return value
    return checked


# the bytes written numbers are made of: deleting them from a body in the
# written layout leaves exactly ",\n" per entry
_NUMBER_BYTES = b"0123456789.eE+-"


def _read_bulk(path):
    """(header, entries) of a file in the layout serialize_matrix writes,
    with the body parsed in one pass; None for a file in any other layout,
    and for one with a non-finite entry."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tag = f"# {_FORMAT_TAG}\n".encode("ascii")
    if not raw.startswith(tag):
        return None
    start = pos = len(tag)
    while raw.startswith(b"#", pos):
        pos = raw.find(b"\n", pos) + 1
        if pos == 0:
            return None
    body = raw[pos:]
    seps = body.translate(None, _NUMBER_BYTES)
    if seps != b",\n" * (len(seps) // 2):
        return None
    try:
        head = raw[start:pos].decode("ascii")
        parts = np.array(body.replace(b",", b"\n").split(), dtype=np.float64)
    except (UnicodeDecodeError, ValueError):
        return None
    if parts.size != len(seps) or not np.isfinite(parts).all():
        return None
    header = {}
    for line in head.splitlines():
        key, _, val = line[1:].partition("=")
        header[key.strip()] = val.strip()
    return header, parts.view(np.complex128)


def _read_lines(path):
    """(header, entries) of a matrix file read one line at a time; names
    the first unparsable or non-finite entry."""
    header: dict[str, str] = {}
    values: list[complex] = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline().strip()
            if first != f"# {_FORMAT_TAG}":
                raise CompatibilityError(f"{path}: not a {_FORMAT_TAG} file")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    header[key.strip()] = val.strip()
                    continue
                re_s, _, im_s = line.partition(",")
                try:
                    value = complex(float(re_s), float(im_s))
                except ValueError:
                    raise CompatibilityError(
                        f"{path}: unparsable matrix entry {line!r}"
                    ) from None
                if not cmath.isfinite(value):
                    raise CompatibilityError(f"{path}: non-finite matrix entry {line!r}")
                values.append(value)
    except UnicodeDecodeError:
        raise CompatibilityError(f"{path}: not an ASCII text file") from None
    return header, np.array(values, dtype=np.complex128)


def load_matrix(path) -> ScatteringMatrix:
    header, values = _read_bulk(path) or _read_lines(path)

    def field(key, cast=str, optional=False):
        if optional and header.get(key, "none") == "none":
            return None
        if key not in header:
            raise CompatibilityError(f"{path}: missing header field {key!r}")
        try:
            return cast(header[key])
        except ValueError:
            raise CompatibilityError(
                f"{path}: bad header value {key} = {header[key]!r}"
            ) from None

    n_points = field("n_points", _non_negative(int))
    channels = tuple(field("channels").split(","))
    n = n_points * len(channels)
    if values.size != n * n:
        raise CompatibilityError(
            f"{path}: expected {n*n} entries, found {values.size}"
        )
    return ScatteringMatrix(
        data=values.reshape(n, n),
        channels=channels,
        n_points=n_points,
        omega=field("omega", _non_negative(float)),
        kind=field("kind"),
        mode=field("mode"),
        epsilon=field("epsilon", _non_negative(float), optional=True),
        seed=field("seed", int, optional=True),
        delta=field("delta", _non_negative(float), optional=True),
    )

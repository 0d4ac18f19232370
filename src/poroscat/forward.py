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

_factors builds a scene's factors once: the collocation cells, S, R with
the sensing points' near-singular flags, and the per-cell contact blocks
(D, E) with the local transfer T = D^-1 E.  R is S's trace kernel read
transposed and weighted by the cell areas.  Both closures, the closure
gap and the check suite read that one set.  The contact law is stated
once (_contact_law): the transfer is D^-1 E, and the interface response
whose admissibility check_admissibility decides is E^-1 D.  A source on a
patch cannot occur, as Scene keeps every sensing point off the patches.

Two interface closures are provided.  The local (Born-type) closure
zeroes the scattered traces in the contact conditions, making T block
diagonal and the whole operator an exact triple product R @ T @ S.  The
interacting closure keeps the scattered traces radiated by cells of
*other* patches (patch-exclusion collocation: couplings internal to one
patch, including the singular self-cell term, are excluded) and solves
the resulting dense linear system.  Its coupling kernel is reciprocal,
B(z <- y) = B(y <- z)^T, so each unordered pair of cells on distinct
patches costs one kernel evaluation, which fills both of its blocks.
An assembly notes in the run's ledger (poroscat.ledger) its near-singular
sensing points and, if interacting, its solve's seconds and residual and
its closure gap ||L - L_loc|| / ||L_loc|| against the local closure.

Matrix rows and columns are indexed point-major: index = point*C + c
where c runs over the scene's channels, pairing excitation type with its
reciprocal data component (force e_i with u_i, fluid injection with p).
"""

from __future__ import annotations

import cmath
import logging
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import ledger
from .errors import (
    CompatibilityError,
    ConditioningError,
    DegenerateContactError,
    DomainError,
    NumericalError,
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
# incident traces (operator S) and radiation (operator conj(S)* with
# cell-area quadrature)
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


def _radiation_block(patches, points, kernel: np.ndarray, areas: np.ndarray):
    """(C*N, 5*nc) operator R: cell jump densities to the data of some
    channels at the N points, with the points' near-singular flags.

    ``kernel`` is the (5*nc, C*N) _kernel_block of the same points and
    channels, ``areas`` the cell areas: entry [(p, c), cell] of R is the
    reciprocal evaluation of the trace kernel (source at point p, trace
    and normal at the cell), kernel[cell, (p, c)], times the cell area.
    Points closer to a patch than half its cell diagonal are flagged
    near-singular.
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
    return np.ascontiguousarray((np.repeat(areas, 5)[:, None] * kernel).T), near


# ---------------------------------------------------------------------------
# contact law and interface transfer (operator T)
# ---------------------------------------------------------------------------
def _contact_law(contact: ContactParams, omega: float, e1, e2, n):
    """The contact conditions D a = E psi of a patch with frame (e1, e2, n),
    as 5x5 matrices (D, E).

    D maps the jump unknowns a = ([[u]], [[p]], -[[q]]) to the closure
    left-hand side; E maps the trace vector (t, q, p) to the right-hand
    side, so that the local transfer is T = D^-1 E and the interface
    response is E^-1 D.  For the high-permeability model the flow
    condition is replaced by [[p]] = 0, and E has no flow row.
    """
    c = contact
    if c.beta_f == 0:
        raise DegenerateContactError("beta_f is zero")
    D = np.zeros((5, 5), dtype=np.complex128)
    E = np.zeros_like(D)
    D[0:3, 0:3] = c.stiffness_matrix(e1, e2, n)
    D[3, 4] = c.k_n * c.beta_f / (c.Pi * c.alpha_f)
    E[0:3, 0:3] = np.eye(3)
    E[0:3, 4] = c.alpha_f_tilde * n
    E[3, 0:3] = c.beta_f * n
    E[3, 4] = 1.0
    if c.model == HIGH_PERMEABILITY:
        D[4, 3] = 1.0  # [[p]] = 0
    else:
        if c.kappa_f == 0:
            raise DegenerateContactError("kappa_f is zero")
        D[4, 3] = c.kappa_f / (1j * omega * c.Pi)
        E[4, 3] = 1.0
    return D, E


def _contact_blocks(
    patches: Sequence[FracturePatch], patch_index: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (D, E) of _contact_law, each (nc, 5, 5), gathered by patch."""
    D = np.zeros((len(patches), 5, 5), dtype=np.complex128)
    E = np.zeros_like(D)
    for i, patch in enumerate(patches):
        D[i], E[i] = _contact_law(patch.contact, omega, patch.e1, patch.e2, patch.normal)
    return D[patch_index], E[patch_index]


class _Interface(NamedTuple):
    """Contact law per collocation cell of a set of patches: the cells, the
    blocks (D, E) and the local transfer T = D^-1 E, each (nc, 5, 5)."""

    patches: tuple[FracturePatch, ...]
    cells: _Cells
    D: np.ndarray
    E: np.ndarray
    T: np.ndarray


def _interface(patches: Sequence[FracturePatch], omega: float) -> _Interface:
    cells = _collect_cells(patches)
    D, E = _contact_blocks(patches, cells.patch_index, omega)
    try:
        T = np.linalg.solve(D, E)
    except np.linalg.LinAlgError:
        raise DegenerateContactError("interface stiffness matrix K is singular") from None
    return _Interface(tuple(patches), cells, D, E, T)


def _local_transfer(patches, omega: float) -> np.ndarray:
    """Block-diagonal local transfer blocks, one 5x5 block per cell."""
    return _interface(patches, omega).T


def _blockwise(blocks: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Per-cell 5x5 blocks (nc, 5, 5) applied to a (5*nc, k) block."""
    cells = psi.reshape(blocks.shape[0], 5, psi.shape[1])
    return np.einsum("cij,cjk->cik", blocks, cells).reshape(psi.shape)


def _jumps(interface: _Interface, psi: np.ndarray, coupling=None) -> np.ndarray:
    """Interface transfer T: a (5*nc, k) trace block to its jump block.

    coupling is None for the local closure, or (wave, params, cutoff) for
    the interacting one, which reduces to the local closure when
    _patches_interact says the patches do not couple.  A coupled solve
    records the seconds of M's fill (coupling) and LU solve (solve) and
    its relative residual (coupled_residual) in the ledger.
    """
    if coupling is not None:
        wave, params, cutoff = coupling
        if _patches_interact(interface.patches, wave, cutoff):
            with ledger.stage("coupling"):
                M = _interaction_matrix(interface, wave, params)
            with ledger.stage("solve"):
                jumps, residual = _coupled_solve(M, _blockwise(interface.E, psi))
            ledger.note("coupled_residual", residual)
            return jumps
    return _blockwise(interface.T, psi)


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


def _interaction_matrix(interface: _Interface, wave, params) -> np.ndarray:
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
    cells, D, E = interface.cells, interface.D, interface.E
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
# scattering operator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScatteringMatrix:
    """Dense data operator with point-major (point, channel) indexing;
    its fields are those of the file format."""

    data: np.ndarray
    channels: tuple[str, ...]
    n_points: int
    omega: float
    kind: str = "clean"
    mode: str = "local"
    epsilon: float | None = None
    seed: int | None = None
    delta: float | None = None

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


class _Factors(NamedTuple):
    """One scene's factors of L = R T S: the interface (cells, D, E and T),
    S (5*nc, C*N), R (C*N, 5*nc) and the sensing points' near-singular
    flags."""

    interface: _Interface
    S: np.ndarray
    R: np.ndarray
    near: np.ndarray


def _factors(scene: Scene, wave, params) -> _Factors:
    """The factors of a scene, each built once."""
    interface = _interface(scene.patches, wave.omega)
    cells, points = interface.cells, scene.grid.points
    S = _kernel_block(cells, points, channel_indices(scene.channels), wave, params)
    R, near = _radiation_block(scene.patches, points, S, cells.areas)
    return _Factors(interface, S, R, near)


def _trace_operator(scene: Scene, wave, params) -> np.ndarray:
    """(5*nc, C*N) operator S: grid excitations to cell traces."""
    return _factors(scene, wave, params).S


def _radiation_operator(scene: Scene, wave, params) -> np.ndarray:
    """(C*N, 5*nc) operator R: cell jump densities to grid data."""
    return _factors(scene, wave, params).R


def _scattering_data(factors: _Factors, coupling=None) -> np.ndarray:
    """L = R T S from a scene's factors.

    For the interacting closure (coupling as in _jumps) the ledger gets
    the closure gap ||L - L_loc|| / ||L_loc||, L_loc = R T_loc S from the
    same factors (0 when the patches do not interact).
    """
    data = factors.R @ _jumps(factors.interface, factors.S, coupling)
    if not np.isfinite(data).all():
        raise NumericalError(
            "the scattering matrix has non-finite entries: the kernels left double "
            "range for this scene, material and frequency"
        )
    if coupling is not None:
        local = factors.R @ _jumps(factors.interface, factors.S)
        scale = np.linalg.norm(local)
        gap = float(np.linalg.norm(data - local) / scale) if scale > 0.0 else 0.0
        ledger.note("closure_gap", gap)
    return data


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
    factors = _factors(scene, wave, params)
    ledger.note("near_singular_points", int(factors.near.sum()))
    coupling = (wave, params, cutoff) if mode == "interacting" else None
    data = _scattering_data(factors, coupling)
    logger.info(
        "assembled %dx%d scattering matrix (%s mode, %d cells)",
        data.shape[0], data.shape[1], mode, factors.interface.cells.count,
    )
    return ScatteringMatrix(
        data=data,
        channels=scene.channels,
        n_points=scene.grid.count,
        omega=wave.omega,
        kind="clean",
        mode=mode,
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
def interface_response_matrix(contact: ContactParams, omega: float) -> np.ndarray:
    """5x5 matrix P = E^-1 D of the interface operator in the jump basis,
    with (D, E) of _contact_law in the frame (e1, e2, n) = (x, y, z).

    Maps phi = ([[u]] (3), [[p]], -[[q]]) to the total-trace triple
    (t + t_inc (3), <q> + q_inc, <p> + p_inc) implied by the contact
    conditions.  For the high-permeability model the [[p]] column and
    flow row vanish (the pressure jump is constrained to zero).
    """
    D, E = _contact_law(contact, omega, *np.eye(3))
    if abs(1.0 - contact.alpha_f_tilde * contact.beta_f) < 1e-14:
        raise DegenerateContactError("1 - alpha_f_tilde*beta_f vanishes")
    high = contact.model == HIGH_PERMEABILITY
    if high:
        E[4, 3] = 1.0  # this law has no flow row; P's is zeroed below
    P = np.linalg.solve(E, D)
    if high:
        P[3] = P[:, 3] = 0.0
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


def save_matrix(matrix: ScatteringMatrix, path) -> None:
    """Text form: '#'-prefixed header, then one 're,im' line per entry
    (row-major, 17 significant digits; bit-exact round trip)."""
    parts = np.asarray(matrix.data, dtype=np.complex128).ravel().view(np.float64).tolist()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {_FORMAT_TAG}\n")
        fh.write(f"# kind = {matrix.kind}\n")
        fh.write(f"# mode = {matrix.mode}\n")
        fh.write(f"# n_points = {matrix.n_points}\n")
        fh.write(f"# channels = {','.join(matrix.channels)}\n")
        fh.write(f"# omega = {_fmt(matrix.omega)}\n")
        fh.write(f"# epsilon = {'none' if matrix.epsilon is None else _fmt(matrix.epsilon)}\n")
        fh.write(f"# seed = {'none' if matrix.seed is None else matrix.seed}\n")
        fh.write(f"# delta = {'none' if matrix.delta is None else _fmt(matrix.delta)}\n")
        fh.write(("%.17g,%.17g\n" * (len(parts) // 2)) % tuple(parts))


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
    """(header, entries) of a file in the layout save_matrix writes,
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

"""Trial patterns, regularized solvers and the imaging indicator maps.

Imaging probes every sampling point x0 with a family of trial signatures
Phi(x0, n, iota): the near-field pattern a vanishing dislocation at x0
would produce on the sensing grid.  For iota = 1 the trial density is a
displacement-jump dipole along the trial normal n; for iota = 0 it is a
unit fluid monopole (a -[[q]] point density), which is independent of n.
The dipole pattern n.t(n) is a quadratic form n_j n_k M_jk of a
normal-free kernel M (greens._pattern_kernel), so a block of sampling
points needs one kernel evaluation for all of its normals, written entry
by entry into the layout of the one product that expands it to the
candidates.  Candidates with equal patterns (every monopole, any
repeated dipole normal) share one distinct trial column.

Two regularized solutions of the scattering equation L g = Phi back the
two indicators:

* Tikhonov / discrepancy-principle (the sampling indicator 1/||g||):
  g minimizes ||L g - Phi||^2 + eta ||g||^2, with eta chosen so that
  ||L g - Phi|| = delta ||g||.  The gap ||L g - Phi||^2 - delta^2 ||g||^2
  is increasing in eta; its roots are bracketed from a table of the gap
  at one node per decade of eta and refined by a safeguarded Newton
  iteration in log(eta) with a bisection fallback (Engl, Hanke &
  Neubauer, Regularization of Inverse Problems, 4.3), for all columns at
  once.
* The penalized variant built on the positive self-adjoint combination
  L# = |Re L| + |Im L| (Hermitian |.| via eigendecomposition), whose
  minimizer solves (L^H L + alpha (L# + delta I)) g = L^H Phi with
  alpha = eta / (||L|| + delta).  Its indicator is
  1/sqrt(g^H L# g + delta ||g||^2).  glsm_solve finds one minimizer
  from a QR factorization of the stacked least-squares system.

All right-hand sides share one SVD of L, cut at its numerical rank
(SvdOperator): the multiplicative noise model (I + N) L keeps L's rank
deficiency, and the singular values below numpy's matrix_rank tolerance
are rounding.  The roots, the Tikhonov norms and solves then run on the
kept range only, and the part of a trial column outside it enters the
gap as its floor.  The penalized variant shares one
joint diagonalization of its normal-equation pencil (GlsmPencil), which
serves every right-hand side and every alpha; one fixed alpha for a whole
map is one solution operator V diag(1/(d + alpha)) W, built once.  A map
evaluates its sampling points in blocks, one block after another, and
each block as arrays over its distinct trial columns: one pattern kernel
evaluation, one root solve, one filtered product, then one argmin over
all (point, candidate) columns.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CompatibilityError, ConditioningError, DomainError, NumericalError
from .forward import ScatteringMatrix, _cond
from .greens import _geometry, _pattern_kernel, _separation
from .material import MaterialParams, WaveState
from .scene import SamplingGrid, Scene, channel_indices

logger = logging.getLogger(__name__)

# sampling points per block in indicator_map: on the 80x80 fine-grid map
# (40 sensing points, fixed alpha) blocks of 32, 64 and 128 points took
# 0.55, 0.44 and 0.53 s (medians of 7, 2 vCPU)
_BLOCK = 64

__all__ = [
    "TrialPattern",
    "IndicatorMap",
    "MorozovResult",
    "MorozovCounts",
    "MapTimings",
    "OperatorSpectrum",
    "SvdOperator",
    "trial_pattern",
    "trial_pattern_block",
    "lambda_sharp",
    "sqrt_psd",
    "clamp_psd",
    "tikhonov_solve",
    "morozov_eta",
    "glsm_solve",
    "indicator_map",
    "save_indicator_map",
    "load_indicator_map",
]


# ---------------------------------------------------------------------------
# trial patterns
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TrialPattern:
    """Near-field signature of a trial dislocation at one sampling point."""

    point: np.ndarray
    normal: np.ndarray
    iota: int
    vector: np.ndarray  # length = n_points * n_channels, point-major


def trial_pattern(
    x0,
    normal,
    iota: int,
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
) -> TrialPattern:
    """Near-field pattern of a vanishing trial dislocation at x0.

    iota = 1: displacement-jump dipole along ``normal``; iota = 0: unit
    fluid monopole (independent of the normal).  Coincidence of x0 with a
    grid point raises SingularityError.
    """
    x0 = np.asarray(x0, dtype=float).reshape(3)
    normal = np.asarray(normal, dtype=float).reshape(3)
    block = trial_pattern_block(
        x0[None, :], [(normal, iota)], grid_points, wave, params, channels
    )
    return TrialPattern(point=x0, normal=normal, iota=int(iota), vector=block[:, 0])


def trial_pattern_block(
    points,
    candidates: Sequence[tuple[np.ndarray, int]],
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
) -> np.ndarray:
    """Patterns for a block of sampling points and all candidates at once.

    Returns (n_rows, n_points_block * n_candidates) with candidate index
    fastest.  The dipole pattern n.t(n) of the traction rows t is the
    quadratic form n_j n_k M_jk of a normal-free kernel M
    (greens._pattern_kernel), and the monopole pattern is the pressure
    row, which no normal changes.  So one kernel evaluation serves the
    block, on the requested channels and the (j, k) pairs the candidates'
    normals use (3 for an in-plane fan), written straight into the
    layout of one matrix product that contracts it with n_j n_k (twice
    that off the diagonal).  A sampling point on a sensing point raises
    SingularityError.
    """
    pts = np.asarray(points, dtype=float)
    gpts = np.asarray(grid_points, dtype=float)
    cidx = channel_indices(channels)
    r, d = _geometry(gpts[:, None, :], pts[None, :, :])
    return _patterns(r, d, candidates, cidx, wave, params)


def _patterns(r, d, candidates, cidx, wave: WaveState, params: MaterialParams) -> np.ndarray:
    """trial_pattern_block from the block geometry: r (N, nb) and d (N, nb, 3)
    from the N sensing points to the nb sampling points (greens._geometry),
    on the channel columns cidx."""
    N, nb = r.shape
    ncand = len(candidates)
    normals = np.array([np.asarray(n, float).reshape(3) for n, _ in candidates]).reshape(-1, 3)
    bad = [iota for _, iota in candidates if iota not in (0, 1)]
    if bad:
        raise DomainError(f"iota must be 0 or 1, got {bad[0]!r}")
    dip = np.array([iota == 1 for _, iota in candidates], dtype=bool)
    j, k = np.triu_indices(3)
    weight = normals[:, j] * normals[:, k] * np.where(j == k, 1.0, 2.0)
    used = np.any(weight[dip] != 0.0, axis=0)
    # coefficient of candidate q on (pair (j, k) ..., pressure row)
    coef = np.zeros((ncand, used.sum() + 1))
    coef[dip, :-1] = weight[dip][:, used]
    coef[~dip, -1] = 1.0  # unit -[[q]] monopole
    pairs = list(zip(j[used].tolist(), k[used].tolist()))
    K = _pattern_kernel(r, d, cidx.tolist(), pairs, wave, params)  # (N, C, nb, pairs + 1)
    return (K.reshape(-1, coef.shape[1]) @ coef.T).reshape(N * cidx.size, nb * ncand)


# ---------------------------------------------------------------------------
# operator combinations and regularized solvers
# ---------------------------------------------------------------------------
def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, ScatteringMatrix):
        return matrix.data
    return np.asarray(matrix, dtype=np.complex128)


def lambda_sharp(matrix) -> np.ndarray:
    """Positive self-adjoint combination |(L + L*)/2| + |(L - L*)/(2i)|.

    |.| of a Hermitian matrix is V |D| V^H via eigendecomposition; the
    result is Hermitian positive semidefinite up to rounding.
    """
    L = _as_array(matrix)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DomainError(f"lambda_sharp needs a square matrix, got {L.shape}")
    H1 = 0.5 * (L + L.conj().T)
    H2 = (L - L.conj().T) / 2j
    out = np.zeros_like(L)
    for H in (H1, H2):
        try:
            vals, vecs = np.linalg.eigh(H)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigendecomposition failed ({exc}); cond(L) = {_cond(L):.3e}"
            ) from None
        out += (vecs * np.abs(vals)) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def _psd_function(matrix, fn, clamp_rel: float) -> np.ndarray:
    """V fn(D) V^H over the eigenpairs of the Hermitian part, eigenvalues
    below clamp_rel * ||matrix||_2 (small negatives from roundoff too) set
    to zero."""
    H = _as_array(matrix)
    try:
        vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed ({exc})") from None
    scale = float(np.abs(vals).max(initial=0.0))
    vals = np.where(vals < clamp_rel * scale, 0.0, vals)
    return (vecs * fn(vals)) @ vecs.conj().T


def clamp_psd(matrix, clamp_rel: float = 1e-14) -> np.ndarray:
    """Project a nearly-PSD Hermitian matrix onto the PSD cone."""
    return _psd_function(matrix, lambda vals: vals, clamp_rel)


def sqrt_psd(matrix, clamp_rel: float = 1e-14) -> np.ndarray:
    """Hermitian square root with negative-eigenvalue clamping."""
    return _psd_function(matrix, np.sqrt, clamp_rel)


class SvdOperator:
    """SVD of the data operator on its numerical range, reused across many
    right-hand sides.

    Only the r singular values above numpy's matrix_rank default
    tolerance s_0 * max(M, N) * eps are kept (s is (r,), Vh is (r, N));
    the SVD determines the others only to about eps * s_0, so they are
    rounding.  Uh is U^H of the full unitary U, contiguous: its first r
    rows span the kept range and the rest its complement, so the part of
    a right-hand side outside the kept range, the floor of the
    discrepancy gap, is a sum of squares over those rows (_projection).
    A zero operator has r = 0.
    """

    def __init__(self, matrix):
        L = _as_array(matrix)
        if L.ndim != 2:
            raise DomainError("operator must be a matrix")
        self.matrix = L
        U, s, Vh = np.linalg.svd(L)
        # the small factors first, so an s_0 near the double limit does not overflow
        tol = max(L.shape) * np.finfo(float).eps * s[0] if s.size else 0.0
        # an overflowed s_0 keeps the whole spectrum, for the range checks to reject
        r = int(np.count_nonzero(s > tol)) if math.isfinite(tol) else s.size
        self.s, self.Vh = s[:r], Vh[:r]
        self.Uh = np.ascontiguousarray(U.conj().T)

    @property
    def norm2(self) -> float:
        return float(self.s[0]) if self.s.size else 0.0

    @property
    def rank(self) -> int:
        return self.s.size

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """Coefficients beta = U^H rhs on the kept range."""
        return self.Uh[: self.rank] @ rhs


def _operator(matrix) -> SvdOperator:
    return matrix if isinstance(matrix, SvdOperator) else SvdOperator(matrix)


def tikhonov_solve(matrix, rhs, eta: float) -> np.ndarray:
    """Unique minimizer of ||L g - rhs||^2 + eta ||g||^2 via the SVD.

    g = sum_i s_i/(s_i^2 + eta) (u_i . rhs) v_i over the kept range of
    SvdOperator; accepts a matrix, a ScatteringMatrix or a precomputed
    SvdOperator, and 1- or 2-d rhs.
    """
    if not eta > 0.0:
        raise DomainError(f"eta must be strictly positive, got {eta!r}")
    op = _operator(matrix)
    beta = op.project(np.asarray(rhs, dtype=np.complex128))
    filt = (op.s / (op.s**2 + eta))[:, None] if beta.ndim == 2 else op.s / (op.s**2 + eta)
    return op.Vh.conj().T @ (filt * beta)


class MorozovResult(NamedTuple):
    eta: float
    bracketed: bool


class MorozovCounts(NamedTuple):
    """Discrepancy roots solved for a map, and how many were not bracketed."""

    roots: int = 0
    unbracketed_low: int = 0   # gap >= 0 at the low end: eta = low end
    unbracketed_high: int = 0  # gap <= 0 at the high end: eta = high end


_XTOL = 5e-15  # absolute and relative tolerances of the roots in log(eta)
_RTOL = 4.0 * np.finfo(float).eps
_MAX_STEPS = 200  # at least every second step halves the bracket


def _projection(op: SvdOperator, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|beta_i|^2 = |u_i^H rhs|^2 on the kept range of SvdOperator, and the
    part of rhs outside it, sum_{i > r} |u_i^H rhs|^2 over the rest of the
    full unitary U, per column of rhs.  Summing the small squares keeps the
    floor accurate where rhs lies almost wholly in the range; the
    difference ||rhs||^2 - sum_r |beta_i|^2 would carry an error of
    eps ||rhs||^2."""
    beta_sq = np.abs(op.Uh @ rhs) ** 2
    return beta_sq[: op.rank], beta_sq[op.rank:].sum(axis=0)


def _bracket(op: SvdOperator, delta: float, bracket=None) -> tuple[float, float]:
    """The eta interval of the root search, [1e-14, 1e8] * ||L||^2 unless
    given.  The gap's terms square eta and delta * ||L||, so the bracket
    ends and delta * ||L|| are checked to keep their squares in double
    range."""
    scale = op.norm2 * op.norm2
    if bracket is None:
        lo, hi = 1e-14 * scale, 1e8 * scale
        if not (lo * lo > 0.0 and math.isfinite(hi * hi)):
            raise DomainError(
                f"operator norm ||L|| = {op.norm2:.6g} is out of range: the squares of "
                f"the discrepancy bracket [1e-14, 1e8] * ||L||^2 = [{lo:.3g}, {hi:.3g}] "
                "must be finite and nonzero"
            )
    else:
        lo, hi = bracket
        if not (0.0 < lo < hi and lo * lo > 0.0 and math.isfinite(hi * hi)):
            raise DomainError(
                f"bracket endpoints must be positive and ordered, with finite nonzero "
                f"squares, got {bracket!r}"
            )
    if not (delta > 0.0 and math.isfinite(delta * delta * max(1.0, scale))):
        raise DomainError(
            f"delta = {delta!r} is out of range for ||L|| = {op.norm2:.6g}: "
            "delta^2 and delta^2 ||L||^2 must be finite and positive"
        )
    return float(lo), float(hi)


def _morozov_roots(op: SvdOperator, beta_sq, floor_sq, delta, bracket=None):
    """Discrepancy weights of all columns of a projection (nonzero L).

    The gap is increasing in eta.  Its table at log-spaced nodes at most
    a decade apart brackets each root, which a Newton iteration in log(eta)
    then refines.  Returns (eta, side): side -1 where the gap is already
    >= 0 at the low end of the bracket, +1 where it is still <= 0 at the
    high end (eta is then that end), 0 where the root is bracketed.
    """
    lo, hi = _bracket(op, delta, bracket)
    s2, d2 = op.s**2, delta * delta
    x_nodes = np.linspace(
        math.log(lo), math.log(hi), max(2, math.ceil(math.log10(hi / lo)) + 1)
    )
    nodes = np.exp(x_nodes)[:, None]
    # the gap ||L g - rhs||^2 - delta^2 ||g||^2 at the Tikhonov solution g(eta)
    table = ((nodes * nodes - d2 * s2) / (s2 + nodes) ** 2) @ beta_sq + floor_sq
    side = np.where(table[0] >= 0.0, -1, np.where(table[-1] <= 0.0, 1, 0))
    eta = np.where(side < 0, lo, hi)
    cols = np.flatnonzero(side == 0)
    if cols.size:
        x = _newton_log_eta(s2, d2, beta_sq[:, cols], floor_sq[cols], x_nodes, table[:, cols])
        eta[cols] = np.exp(x)
    return eta, side


def _newton_log_eta(s2, d2, beta_sq, floor_sq, x_nodes, table) -> np.ndarray:
    """Roots in x = log(eta) of columns whose gap table changes sign.

    gap = sum_i (eta^2 - delta^2 s_i^2) / (s_i^2 + eta)^2 |beta_i|^2 + floor
    and d gap / d eta = sum_i 2 s_i^2 (eta + delta^2) / (s_i^2 + eta)^3
    |beta_i|^2.  Safeguarded Newton (rtsafe): each column keeps a bracket
    [a, b] with gap(a) < 0 < gap(b), starts from the secant through its
    bracketing nodes, and bisects where the Newton step would leave the
    bracket or fails to halve the step before last.  Only unconverged
    columns are evaluated.
    """
    m = table.shape[1]
    k = np.argmax(table > 0.0, axis=0)  # first node with a positive gap
    a, b = x_nodes[k - 1], x_nodes[k]
    ga, gb = table[k - 1, np.arange(m)], table[k, np.arange(m)]
    x = a - ga * (b - a) / (gb - ga)
    dx = dx_old = b - a
    s2c = s2[:, None]
    ones_s2 = np.vstack([np.ones_like(s2), s2])
    out = np.empty(m)
    # columns still iterating; x, a, b, dx, dx_old, beta_sq, floor_sq hold theirs
    cols = np.arange(m)
    for _ in range(_MAX_STEPS):
        eta = np.exp(x)
        # with w_i = |beta_i|^2 / (s_i^2 + eta)^2 the gap is
        # eta^2 sum w - delta^2 sum s^2 w + floor (both sums one product) and
        # its slope 2 eta (eta + delta^2) sum s^2 w / (s^2 + eta)
        q = s2c + eta
        np.reciprocal(q, out=q)
        w = q * q
        w *= beta_sq
        sums = ones_s2 @ w
        g = eta * eta * sums[0] - d2 * sums[1] + floor_sq
        w *= q
        dg = 2.0 * eta * (eta + d2) * (s2 @ w)
        below = g < 0.0
        a, b = np.where(below, x, a), np.where(below, b, x)
        step = g / dg
        tol = _XTOL + _RTOL * np.abs(x)
        done = (g == 0.0) | (np.abs(step) <= tol)
        newton = x - step
        bisect = ~done & (
            ~((newton > a) & (newton < b)) | (np.abs(2.0 * g) > np.abs(dx_old * dg))
        )
        dx, dx_old = np.where(bisect, 0.5 * (b - a), step), dx
        x = np.where(g == 0.0, x, np.where(bisect, a + dx, newton))
        done |= np.abs(dx) <= tol
        if not done.any():
            continue
        out[cols[done]] = x[done]
        go = ~done
        cols, x, a, b, dx, dx_old = cols[go], x[go], a[go], b[go], dx[go], dx_old[go]
        beta_sq, floor_sq = beta_sq[:, go], floor_sq[go]
        if cols.size == 0:
            break
    out[cols] = x
    return out


def morozov_eta(matrix, rhs, delta: float, bracket=None) -> MorozovResult:
    """Discrepancy-principle weight: ||L g - rhs|| = delta ||g||.

    A zero operator gives eta = inf with bracketed=False.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.size == 0 or not np.any(rhs):
        raise DomainError("right-hand side is empty or identically zero")
    op = _operator(matrix)
    if op.norm2 == 0.0:
        return MorozovResult(eta=float("inf"), bracketed=False)
    (eta,), (side,) = _morozov_roots(op, *_projection(op, rhs.reshape(-1, 1)), delta, bracket)
    return MorozovResult(eta=float(eta), bracketed=bool(side == 0))


def glsm_solve(matrix, sharp, rhs, alpha: float, delta: float) -> np.ndarray:
    """Minimizer of the penalized functional, without its normal equations.

    The minimizer g of ||L g - rhs||^2 + alpha ||H g||^2, with H the
    Hermitian square root of L#_psd + delta I (L#_psd the PSD-clamped
    penalty operator), solves

        (L^H L + alpha (L#_psd + delta I)) g = L^H rhs.

    It is found as the least-squares solution of the stacked system
    [L; sqrt(alpha) H] g = [rhs; 0], by one QR factorization and a
    triangular solve, so L^H L, whose condition number is the square of
    L's, is never formed.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be strictly positive, got {alpha!r}")
    if delta < 0.0:
        raise DomainError(f"delta must be non-negative, got {delta!r}")
    L = _as_array(matrix)
    rhs = np.asarray(rhs, dtype=np.complex128)
    # one eigendecomposition gives the clamped L# and the square root of its shift
    H = _psd_function(sharp, lambda vals: np.sqrt(vals + delta), 1e-14)
    A = np.vstack([L, math.sqrt(alpha) * H])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(rhs))):
        raise ConditioningError("penalized least-squares system has non-finite entries")
    Q, R = np.linalg.qr(A)
    try:
        return np.linalg.solve(R, Q[: L.shape[0]].conj().T @ rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"penalized least-squares system is rank deficient: {exc}",
            condition_number=_cond(R),
        ) from None


def alpha_from_eta(eta: float, lam_norm: float, delta: float) -> float:
    """Penalty weight rule: alpha = eta / (||L||_2 + delta)."""
    return eta / (lam_norm + delta)


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a^H b) per column of two C-contiguous complex (n, k) arrays, as
    one sum of products over their float views: no conjugated temporary."""
    return np.einsum("ij,ij->j", a.view(float), b.view(float)).reshape(-1, 2).sum(axis=1)


class GlsmPencil:
    """Joint diagonalization of the penalized normal-equation pencil.

    With V^H (L#_psd + delta I) V = I and V^H (L^H L) V = diag(d), the
    minimizer for any penalty weight alpha is

        g = V ((V^H L^H rhs) / (d + alpha)),

    so one O(n^3) decomposition serves every right-hand side and every
    alpha (the per-candidate discrepancy rule changes only the filter).
    It is the Cholesky reduction of the Hermitian-definite pencil (Golub
    & Van Loan, Matrix Computations, 8.7): with L#_psd + delta I = C C^H
    and X = C^-1 L^H, the eigenpairs (d, Q) of X X^H = C^-1 L^H L C^-H
    give V = C^-H Q and W = V^H L^H = Q^H X.
    """

    def __init__(self, matrix, sharp, delta: float):
        L = _as_array(matrix)
        self.sharp = clamp_psd(sharp)
        self.delta = float(delta)
        if self.delta < 0.0:
            raise DomainError("delta must be non-negative")
        try:
            C = np.linalg.cholesky(self.sharp + self.delta * np.eye(L.shape[1]))
            X = np.linalg.solve(C, L.conj().T)
            K = X @ X.conj().T
            d, Q = np.linalg.eigh(0.5 * (K + K.conj().T))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"penalty pencil decomposition failed: {exc}"
            ) from None
        self.d = np.maximum(d, 0.0)
        self.V = np.linalg.solve(C.conj().T, Q)
        self.W = Q.conj().T @ X

    def solve(self, rhs: np.ndarray, alpha) -> np.ndarray:
        """g = V ((W rhs) / (d + alpha)); alpha is one weight, or one per
        column of a 2-d rhs."""
        alpha = np.asarray(alpha, dtype=float)
        if not np.all(alpha > 0.0):
            raise DomainError(f"alpha must be strictly positive, got {alpha!r}")
        z = self.W @ rhs
        filt = self.d[:, None] + alpha if z.ndim == 2 else self.d + alpha
        return self.V @ (z / filt)

    def operator(self, alpha: float) -> np.ndarray:
        """The solution operator V diag(1/(d + alpha)) W of one weight alpha:
        solve(rhs, alpha) as one product."""
        if not alpha > 0.0:
            raise DomainError(f"alpha must be strictly positive, got {alpha!r}")
        return (self.V / (self.d + alpha)) @ self.W

    def indicator(self, g: np.ndarray, norm_sq: np.ndarray | None = None):
        """1/sqrt(g^H L# g + delta ||g||^2), per column of a 2-d g; NaN
        for a vanishing energy.  ``norm_sq`` is ||g||^2 per column, if the
        caller has it."""
        G = np.ascontiguousarray(g, dtype=np.complex128).reshape(g.shape[0], -1)
        if norm_sq is None:
            norm_sq = _re_inner(G, G)
        energy = _re_inner(G, self.sharp @ G) + self.delta * norm_sq
        value = 1.0 / np.sqrt(np.where(energy > 0.0, energy, np.nan))
        return value if g.ndim == 2 else float(value[0])


# ---------------------------------------------------------------------------
# block evaluator
# ---------------------------------------------------------------------------
class MapTimings(NamedTuple):
    """Seconds a map spent in each stage, summed over its blocks; setup is
    the SVD, L#, the pencil and the fixed-alpha operator before them."""

    patterns: float = 0.0
    roots: float = 0.0
    solve: float = 0.0
    setup: float = 0.0


class OperatorSpectrum(NamedTuple):
    """L's singular values against the map's noise level delta."""

    rank: int = 0  # singular values SvdOperator keeps
    sigma_max: float = 0.0
    above_delta: int = 0  # singular values above delta


def _distinct(cands) -> tuple[list[tuple[np.ndarray, int]], np.ndarray]:
    """The distinct trial columns of a candidate list, and the index of
    each candidate's column.  Every monopole has the same pattern, and so
    has any repeated dipole normal: columns are keyed on (iota, n if
    iota == 1)."""
    index: dict[tuple, int] = {}
    cols, inverse = [], []
    for normal, iota in cands:
        key = (iota, *normal) if iota == 1 else (iota,)
        if key not in index:
            index[key] = len(cols)
            cols.append((normal, iota))
        inverse.append(index[key])
    return cols, np.array(inverse, dtype=int)


class _Block(NamedTuple):
    vals: np.ndarray
    g_norms: np.ndarray
    argmin: np.ndarray
    sides: np.ndarray
    timings: MapTimings


def _eval_block(
    points,
    cands: Sequence[tuple[np.ndarray, int]],
    op: SvdOperator,
    delta: float,
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
    bracket=None,
    pencil: GlsmPencil | None = None,
    fixed: np.ndarray | None = None,
) -> _Block:
    """Indicator values of a block of sampling points.

    Without a pencil: 1/||g||, g the Tikhonov solution at the discrepancy
    weight.  With one: the penalized indicator, g = fixed @ Phi if the
    fixed-alpha operator ``fixed`` (GlsmPencil.operator) is given, else
    alpha from each candidate's discrepancy weight.  Patterns, roots and
    solves run on the distinct trial columns (_distinct); the norms and
    the root sides are then spread back over all (point, candidate)
    columns.  Each point takes the candidate of least ||g|| (ties go to
    the first).  Returns (value, ||g||, candidate index) per point, NaN, 0
    and -1 where no candidate is usable or the point coincides with a
    sensing point, the root sides (see _morozov_roots) of the
    (point, candidate) columns and the stage timings.
    """
    pts = np.asarray(points, dtype=float)
    gpts = np.asarray(grid_points, dtype=float)
    nb, ncand = pts.shape[0], len(cands)
    vals = np.full(nb, np.nan)
    g_norms = np.zeros(nb)
    argmin = np.full(nb, -1, dtype=int)
    sides = np.zeros(0, dtype=int)
    # one geometry pass: the trial kernels are singular at r = 0, so the
    # points that coincide with a sensing point are left out
    r, w = _separation(gpts[:, None, :], pts[None, :, :])
    live = np.flatnonzero(np.all(r > 0.0, axis=0))
    if live.size == 0 or op.norm2 == 0.0:
        return _Block(vals, g_norms, argmin, sides, MapTimings())
    cols, inverse = _distinct(cands)
    # the distinct column of each (point, candidate) column
    spread = (np.arange(live.size)[:, None] * len(cols) + inverse).ravel()
    t0 = time.perf_counter()
    r = r[:, live]
    Phi = _patterns(r, w[:, live] / r[..., None], cols, channel_indices(channels), wave, params)
    t1 = time.perf_counter()
    if fixed is None:
        beta_sq, floors = _projection(op, Phi)
        etas, sides = _morozov_roots(op, beta_sq, floors, delta, bracket)
        sides = sides[spread]
    t2 = time.perf_counter()
    if pencil is None:
        filt = op.s[:, None] / (op.s[:, None] ** 2 + etas)
        norms = np.sqrt(np.einsum("ij,ij->j", filt**2, beta_sq))
    else:
        if fixed is None:
            G = pencil.solve(Phi, alpha_from_eta(etas, op.norm2, delta))
        else:
            G = fixed @ Phi
        norm_sq = _re_inner(G, G)
        norms = np.sqrt(norm_sq)
    norms = np.where((norms > 0.0) & (norms < math.inf), norms, math.inf)
    best = np.argmin(norms[spread].reshape(live.size, ncand), axis=1)
    win = spread[np.arange(live.size) * ncand + best]
    found = np.isfinite(norms[win])
    p, win = live[found], win[found]
    g_norms[p], argmin[p] = norms[win], best[found]
    vals[p] = 1.0 / norms[win] if pencil is None else pencil.indicator(G[:, win], norm_sq[win])
    timings = MapTimings(t1 - t0, t2 - t1, time.perf_counter() - t2)
    return _Block(vals, g_norms, argmin, sides, timings)


# ---------------------------------------------------------------------------
# indicator maps
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IndicatorMap:
    """Per-sampling-point indicator values with argmin metadata."""

    method: str
    omega: float
    delta: float
    grid: SamplingGrid
    raw: np.ndarray           # (npts,), NaN where degenerate
    argmin_normal: np.ndarray  # (npts,) int, -1 where no candidate won
    argmin_iota: np.ndarray    # (npts,) int, -1 where no candidate won
    # roots solved for the map, its stage timings and L's spectrum; the
    # map file does not store them
    morozov: MorozovCounts = MorozovCounts()
    timings: MapTimings = MapTimings()
    spectrum: OperatorSpectrum = OperatorSpectrum()

    @property
    def raw_max(self) -> float:
        finite = self.raw[np.isfinite(self.raw)]
        return float(finite.max()) if finite.size else float("nan")

    @property
    def normalized(self) -> np.ndarray:
        """raw / raw_max; all NaN unless raw_max > 0."""
        raw_max = self.raw_max
        if not raw_max > 0.0:
            return np.full(self.raw.shape, np.nan)
        return np.where(np.isfinite(self.raw), self.raw / raw_max, np.nan)

    @property
    def degenerate_count(self) -> int:
        return int((~np.isfinite(self.raw)).sum())

    @property
    def degenerate(self) -> bool:
        return self.degenerate_count > 0


def _derive_delta(matrix, delta: float | None, op: SvdOperator) -> float:
    if delta is not None:
        if delta <= 0.0:
            raise DomainError("delta must be positive")
        return float(delta)
    if isinstance(matrix, ScatteringMatrix) and matrix.delta and matrix.delta > 0.0:
        return float(matrix.delta)
    # noiseless data: floor the discrepancy level at a fixed fraction of
    # the operator scale so the principle stays well defined
    return 1e-6 * op.norm2 if op.norm2 > 0.0 else 1.0


def indicator_map(
    scene: Scene,
    matrix,
    method: str,
    wave: WaveState,
    params: MaterialParams,
    delta: float | None = None,
    alpha_policy: str = "per-candidate",
    fixed_alpha: float | None = None,
    bracket=None,
) -> IndicatorMap:
    """Evaluate an indicator over the scene's sampling grid.

    Blocks of sampling points are evaluated one after another, all
    sharing one SVD of the data operator and, for the penalized method,
    one GlsmPencil.  Under alpha_policy="fixed" every candidate uses one
    alpha: fixed_alpha, or else the one from the median Morozov weight of
    the candidates at the grid center, or at the sampling point nearest it
    that is not a sensing point (a documented approximation of the
    per-candidate rule).  Per-point failures, sampling points that
    coincide with sensing points included, are recorded as NaN values,
    never aborts.
    """
    if method not in ("lsm", "glsm"):
        raise DomainError(f"method must be lsm|glsm, got {method!r}")
    if alpha_policy not in ("per-candidate", "fixed"):
        raise DomainError(f"alpha_policy must be per-candidate|fixed, got {alpha_policy!r}")
    if isinstance(matrix, ScatteringMatrix) and (
        matrix.n_points != scene.grid.count or matrix.channels != scene.channels
    ):
        raise CompatibilityError(
            f"matrix ({matrix.n_points} points, channels {matrix.channels}) does not "
            f"match the scene ({scene.grid.count} points, channels {scene.channels})"
        )
    t_setup = time.perf_counter()
    op = _operator(matrix)
    delta = _derive_delta(matrix, delta, op)
    if op.norm2 > 0.0:
        bracket = _bracket(op, delta, bracket)
    pts = scene.sampling.points()
    cands = scene.sampling.candidates()
    gpts, channels = scene.grid.points, scene.channels

    sides = np.zeros(0, dtype=int)
    timings = MapTimings()
    pencil = fixed = None
    if method == "glsm":
        if wave.gamma.imag > 1e-6 * abs(wave.gamma):
            warnings.warn(
                "penalized (glsm) imaging with significantly complex coupling "
                "gamma: the operator is not self-adjoint and the penalty lacks "
                "a range characterization; proceeding anyway",
                RuntimeWarning,
                stacklevel=2,
            )
        pencil = GlsmPencil(op.matrix, lambda_sharp(op.matrix), delta)
    setup = time.perf_counter() - t_setup
    if pencil is not None and alpha_policy == "fixed":
        if fixed_alpha is None:
            # the sampling point nearest the grid center that is not a sensing point
            order = np.argsort(np.linalg.norm(pts - pts[len(pts) // 2], axis=1), kind="stable")
            k = next((k for k in order if np.all(_separation(gpts, pts[k])[0] > 0.0)), None)
            if op.norm2 == 0.0 or k is None:
                raise NumericalError("could not derive a fixed alpha near the grid center")
            cols, inverse = _distinct(cands)
            t0 = time.perf_counter()
            center = trial_pattern_block(pts[k:k + 1], cols, gpts, wave, params, channels)
            t1 = time.perf_counter()
            etas, sides = _morozov_roots(op, *_projection(op, center), delta, bracket)
            # the median over all candidates, not over the distinct columns
            etas, sides = etas[inverse], sides[inverse]
            timings = MapTimings(t1 - t0, time.perf_counter() - t1)
            fixed_alpha = alpha_from_eta(float(np.median(etas)), op.norm2, delta)
            logger.info("fixed alpha policy: alpha = %.6e", fixed_alpha)
        t_setup = time.perf_counter()
        fixed = pencil.operator(fixed_alpha)
        setup += time.perf_counter() - t_setup

    blocks = [
        _eval_block(
            pts[s:s + _BLOCK], cands, op, delta, gpts, wave, params, channels,
            bracket, pencil, fixed,
        )
        for s in range(0, len(pts), _BLOCK)
    ]
    raw = np.concatenate([b.vals for b in blocks])
    argmin = np.concatenate([b.argmin for b in blocks])
    sides = np.concatenate([sides] + [b.sides for b in blocks])
    timings = MapTimings(*map(sum, zip(timings, *(b.timings for b in blocks))))._replace(
        setup=setup
    )
    iotas = np.array([iota for _, iota in cands])
    found = argmin >= 0
    arg_n = np.where(found, argmin % scene.sampling.normals.shape[0], -1)
    arg_i = np.where(found, iotas[argmin], -1)

    imap = IndicatorMap(
        method=method,
        omega=wave.omega,
        delta=delta,
        grid=scene.sampling,
        raw=raw,
        argmin_normal=arg_n,
        argmin_iota=arg_i,
        morozov=MorozovCounts(
            roots=sides.size,
            unbracketed_low=int((sides < 0).sum()),
            unbracketed_high=int((sides > 0).sum()),
        ),
        timings=timings,
        spectrum=OperatorSpectrum(op.rank, op.norm2, int(np.count_nonzero(op.s > delta))),
    )
    if imap.degenerate:
        logger.warning("indicator map has %d degenerate point(s)", imap.degenerate_count)
    return imap


# ---------------------------------------------------------------------------
# map I/O
# ---------------------------------------------------------------------------
_MAP_TAG = "poroscat-map v1"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def save_indicator_map(imap: IndicatorMap, path) -> None:
    """CSV form: '#' header (method, omega, delta, grid spec), then rows
    x,y,raw,normalized,normal_index,iota in row-major point order."""
    g = imap.grid
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {_MAP_TAG}\n")
        fh.write(f"# method = {imap.method}\n")
        fh.write(f"# omega = {_fmt(imap.omega)}\n")
        fh.write(f"# delta = {_fmt(imap.delta)}\n")
        fh.write(f"# region = {','.join(_fmt(v) for v in g.region)}\n")
        fh.write(f"# resolution = {g.resolution[0]},{g.resolution[1]}\n")
        fh.write(f"# n_dir = {g.normals.shape[0]}\n")
        fh.write(f"# iotas = {','.join(str(i) for i in g.iotas)}\n")
        fh.write(f"# plane_z = {_fmt(g.plane_z)}\n")
        pts = g.points()
        rows = zip(
            pts[:, 0].tolist(), pts[:, 1].tolist(), imap.raw.tolist(),
            imap.normalized.tolist(), imap.argmin_normal.tolist(), imap.argmin_iota.tolist(),
        )
        fields = tuple(v for row in rows for v in row)
        fh.write(("%.17g,%.17g,%.17g,%.17g,%d,%d\n" * pts.shape[0]) % fields)


def load_indicator_map(path) -> IndicatorMap:
    from .scene import build_sampling_grid

    header: dict[str, str] = {}
    rows: list[tuple] = []
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().strip()
        if first != f"# {_MAP_TAG}":
            raise CompatibilityError(f"{path}: not a {_MAP_TAG} file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
            else:
                parts = line.split(",")
                rows.append((float(parts[2]), int(parts[4]), int(parts[5])))
    region = tuple(float(v) for v in header["region"].split(","))
    resolution = tuple(int(v) for v in header["resolution"].split(","))
    grid = build_sampling_grid(
        region,
        resolution,
        int(header["n_dir"]),
        tuple(int(i) for i in header["iotas"].split(",")),
        plane_z=float(header.get("plane_z", "0")),
    )
    return IndicatorMap(
        method=header["method"],
        omega=float(header["omega"]),
        delta=float(header["delta"]),
        grid=grid,
        raw=np.array([r[0] for r in rows]),
        argmin_normal=np.array([r[1] for r in rows], dtype=int),
        argmin_iota=np.array([r[2] for r in rows], dtype=int),
    )

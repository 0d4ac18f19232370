"""Trial patterns, regularized solvers and the imaging indicator maps.

Imaging probes every sampling point x0 with a family of trial signatures
Phi(x0, n, iota): the near-field pattern a vanishing dislocation at x0
would produce on the sensing grid.  For iota = 1 the trial density is a
displacement-jump dipole along the trial normal n; for iota = 0 it is a
unit fluid monopole (a -[[q]] point density), which is independent of n.
The dipole pattern n.t(n) is a quadratic form n_j n_k M_jk of a
normal-free kernel M (greens._pattern_kernel), so a block of sampling
points needs one kernel evaluation for all of its normals, which stays
in the kernel's basis until the first product with it (_Patterns).
Candidates with equal patterns (every monopole, any repeated dipole
normal) share one distinct trial column.

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
gap as its floor.  With g = B h, B = (L#_psd + delta I)^-1/2, the
penalized variant is Tikhonov on the whitened operator L B, and one
SvdOperator of L B serves every right-hand side and every alpha on its
numerical range of r directions (GlsmPencil).  There a solution is
g = V_r y, with coordinates y = (W_r Phi) / (d_r + alpha) and penalty
energy ||y||^2: both alpha policies read the indicator 1/||y||,
and ||g|| = ||T y|| through the r x r triangular factor T of V_r, so no
block forms its solutions g.  One fixed alpha for a whole map is one
r x n operator T diag(1/(d_r + alpha)) W_r, built once: it gives z = T y
of every column in one product, and the winners' y = T^-1 z.  A map
evaluates its sampling points in blocks, one after another, on one plan
of its distinct trial columns (_Plan), and each block as arrays over
those columns: one pattern kernel evaluation, one root solve, one
filtered product, then one argmin over all (point, candidate) columns.
A map notes in the run's ledger (poroscat.ledger) its stage seconds, its
roots and L's spectrum.  A map file is written and read in the matrix
file's exchange layout, by forward's _write_table and _read_table.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import ledger
from .errors import CompatibilityError, ConditioningError, DomainError, NumericalError
from .forward import ScatteringMatrix, _cond, _read_table, _scene_digest, _write_table
from .greens import _geometry, _pattern_kernel, _separation
from .material import MaterialParams, WaveState
from .scene import SamplingGrid, Scene, build_sampling_grid, channel_indices

logger = logging.getLogger(__name__)

# sampling points per block in indicator_map: on the 80x80 fine-grid map
# (40 sensing points, fixed alpha) blocks of 32, 64 and 128 points took
# 0.26, 0.21 and 0.30 s (invert_meta.json's map stage, medians of 7
# processes of 9 maps, 2 vCPU); 64 was the fastest in each of the 7
_BLOCK = 64

__all__ = [
    "TrialPattern",
    "IndicatorMap",
    "MorozovResult",
    "SvdOperator",
    "trial_pattern",
    "trial_pattern_block",
    "lambda_sharp",
    "sqrt_psd",
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
    plan = _pattern_plan(candidates, np.arange(len(candidates)), channels)
    pts = np.asarray(points, dtype=float)
    gpts = np.asarray(grid_points, dtype=float)
    patterns = _patterns(*_geometry(gpts[:, None, :], pts[None, :, :]), plan, wave, params)
    return patterns.expand(patterns.K)


class _Patterns(NamedTuple):
    """Trial patterns of a block in the pattern kernel's basis: the w
    columns of K per sampling point (its (j, k) entries, then the pressure
    row) times the real coef (w, n_columns).  M @ _Patterns expands after
    the product when w is the narrower side (4 against 9 distinct columns
    on an in-plane fan), else before."""

    K: np.ndarray
    coef: np.ndarray
    __array_ufunc__ = None  # ndarray @ _Patterns goes to __rmatmul__

    def expand(self, A: np.ndarray) -> np.ndarray:
        return (A.reshape(-1, self.coef.shape[0]) @ self.coef).reshape(A.shape[0], -1)

    def __rmatmul__(self, M: np.ndarray) -> np.ndarray:
        if self.coef.shape[0] < self.coef.shape[1]:
            return self.expand(M @ self.K)
        return M @ self.expand(self.K)


class _Plan(NamedTuple):
    """What every block of a map shares: coef (w, n_columns) of _Patterns,
    its (j, k) pairs, the channel columns and each candidate's column."""

    coef: np.ndarray
    pairs: list[tuple[int, int]]
    channels: list[int]
    inverse: np.ndarray


def _pattern_plan(columns, inverse, channels: Sequence[str]) -> _Plan:
    """The _Plan of the trial columns (normal, iota) on the named channels,
    for candidates whose columns inverse indexes."""
    normals = np.array([np.asarray(n, float).reshape(3) for n, _ in columns]).reshape(-1, 3)
    bad = [iota for _, iota in columns if iota not in (0, 1)]
    if bad:
        raise DomainError(f"iota must be 0 or 1, got {bad[0]!r}")
    dip = np.array([iota == 1 for _, iota in columns], dtype=bool)
    j, k = np.triu_indices(3)
    weight = normals[:, j] * normals[:, k] * np.where(j == k, 1.0, 2.0)
    used = np.any(weight[dip] != 0.0, axis=0)
    # coefficient of column q on (pair (j, k) ..., pressure row)
    coef = np.zeros((used.sum() + 1, len(columns)))
    coef[:-1, dip] = weight[dip][:, used].T
    coef[-1, ~dip] = 1.0  # unit -[[q]] monopole
    pairs = list(zip(j[used].tolist(), k[used].tolist()))
    return _Plan(coef, pairs, channel_indices(channels).tolist(), inverse)


def _patterns(r, d, plan: _Plan, wave: WaveState, params: MaterialParams) -> _Patterns:
    """The trial columns of plan from the block geometry, unexpanded: r
    (N, nb) and d (N, nb, 3) from the N sensing points to the nb sampling
    points (greens._geometry)."""
    K = _pattern_kernel(r, d, plan.channels, plan.pairs, wave, params)  # (N, C, nb, pairs + 1)
    return _Patterns(K.reshape(len(r) * len(plan.channels), -1), plan.coef)


# ---------------------------------------------------------------------------
# operator combinations and regularized solvers
# ---------------------------------------------------------------------------
def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, ScatteringMatrix):
        return matrix.data
    return np.asarray(matrix, dtype=np.complex128)


def _eigen_function(H: np.ndarray, fn) -> np.ndarray:
    """V fn(D) V^H over the eigenpairs (D, V) of the Hermitian matrix H."""
    try:
        vals, vecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed ({exc})") from None
    return (vecs * fn(vals)) @ vecs.conj().T


def lambda_sharp(matrix) -> np.ndarray:
    """Positive self-adjoint combination |(L + L*)/2| + |(L - L*)/(2i)|.

    |.| of a Hermitian matrix is V |D| V^H via eigendecomposition; the
    result is Hermitian positive semidefinite up to rounding.
    """
    L = _as_array(matrix)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DomainError(f"lambda_sharp needs a square matrix, got {L.shape}")
    out = _eigen_function(0.5 * (L + L.conj().T), np.abs)
    out += _eigen_function((L - L.conj().T) / 2j, np.abs)
    return 0.5 * (out + out.conj().T)


def _psd_function(matrix, fn) -> np.ndarray:
    """V fn(D) V^H over the eigenpairs of the Hermitian part, eigenvalues
    below 1e-14 * ||matrix||_2 (small negatives from roundoff too) set to
    zero."""
    H = _as_array(matrix)

    def clamped(vals):
        scale = float(np.abs(vals).max(initial=0.0))
        return fn(np.where(vals < 1e-14 * scale, 0.0, vals))

    return _eigen_function(0.5 * (H + H.conj().T), clamped)


def sqrt_psd(matrix) -> np.ndarray:
    """Hermitian square root with negative-eigenvalue clamping."""
    return _psd_function(matrix, np.sqrt)


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
    A zero operator has r = 0, and one with a non-finite entry raises
    ConditioningError before the SVD, which may not return on it.
    """

    def __init__(self, matrix):
        L = _as_array(matrix)
        if L.ndim != 2:
            raise DomainError("operator must be a matrix")
        if not np.all(np.isfinite(L)):
            raise ConditioningError("operator has non-finite entries")
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
    beta = op.Uh[: op.rank] @ np.asarray(rhs, dtype=np.complex128)  # U^H rhs on the kept range
    filt = (op.s / (op.s**2 + eta))[:, None] if beta.ndim == 2 else op.s / (op.s**2 + eta)
    return op.Vh.conj().T @ (filt * beta)


class MorozovResult(NamedTuple):
    eta: float
    bracketed: bool


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


def _bracket(op: SvdOperator, delta: float) -> tuple[float, float]:
    """The eta interval of the root search, [1e-14, 1e8] * ||L||^2.  The
    gap's terms square eta and delta * ||L||, so the bracket ends and
    delta * ||L|| are checked to keep their squares in double range."""
    scale = op.norm2 * op.norm2
    lo, hi = 1e-14 * scale, 1e8 * scale
    if not (lo * lo > 0.0 and math.isfinite(hi * hi)):
        raise DomainError(
            f"operator norm ||L|| = {op.norm2:.6g} is out of range: the squares of "
            f"the discrepancy bracket [1e-14, 1e8] * ||L||^2 = [{lo:.3g}, {hi:.3g}] "
            "must be finite and nonzero"
        )
    if not (delta > 0.0 and math.isfinite(delta * delta * max(1.0, scale))):
        raise DomainError(
            f"delta = {delta!r} is out of range for ||L|| = {op.norm2:.6g}: "
            "delta^2 and delta^2 ||L||^2 must be finite and positive"
        )
    return float(lo), float(hi)


def _morozov_roots(op: SvdOperator, beta_sq, floor_sq, delta):
    """Discrepancy weights of all columns of a projection (nonzero L).

    The gap is increasing in eta.  Its table at log-spaced nodes at most
    a decade apart brackets each root, which a Newton iteration in log(eta)
    then refines.  Returns (eta, side): side -1 where the gap is already
    >= 0 at the low end of the bracket, +1 where it is still <= 0 at the
    high end (eta is then that end), 0 where the root is bracketed.
    """
    lo, hi = _bracket(op, delta)
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


def morozov_eta(matrix, rhs, delta: float) -> MorozovResult:
    """Discrepancy-principle weight: ||L g - rhs|| = delta ||g||.

    A zero operator gives eta = inf with bracketed=False.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.size == 0 or not np.any(rhs):
        raise DomainError("right-hand side is empty or identically zero")
    op = _operator(matrix)
    if op.norm2 == 0.0:
        return MorozovResult(eta=float("inf"), bracketed=False)
    (eta,), (side,) = _morozov_roots(op, *_projection(op, rhs.reshape(-1, 1)), delta)
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
    H = _psd_function(sharp, lambda vals: np.sqrt(vals + delta))
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


def _norms_sq(a: np.ndarray) -> np.ndarray:
    """||a_j||^2 per column of a C-contiguous complex (n, k) array: its
    float view squared and summed over rows, then each real and imaginary pair."""
    sq = np.einsum("ij,ij->j", a.view(float), a.view(float))
    return sq[0::2] + sq[1::2]


class GlsmPencil:
    """The penalized problem as Tikhonov on the whitened operator.

    With g = B h and B = (L#_psd + delta I)^-1/2, Hermitian, the functional
    ||L g - rhs||^2 + alpha (g^H L#_psd g + delta ||g||^2) is plain
    Tikhonov, ||A h - rhs||^2 + alpha ||h||^2 on A = L B, so one SVD of A
    (SvdOperator, on its numerical range of r directions, s descending)
    serves every right-hand side and every alpha.  It jointly diagonalizes
    the pencil: V_r = B V has V_r^H (L#_psd + delta I) V_r = I and
    V_r^H L^H L V_r = diag(d_r), d_r = s^2, and W_r = V_r^H L^H = diag(s)
    U^H.  A solution is g = V_r y, with y = (W_r rhs) / (d_r + alpha)
    (coordinates) the Tikhonov h on A's range, so its penalty energy is
    ||y||^2.  T, the R factor of the thin QR of V_r, gives ||g|| = ||z||
    with z = T y, and T_inv takes z back to y, so no g is formed.
    """

    def __init__(self, matrix, sharp, delta: float):
        L = _as_array(matrix)
        if delta < 0.0:
            raise DomainError("delta must be non-negative")

        def inverse_sqrt(vals):  # a singular L#_psd + delta I is refused before 1/0
            if not np.all(vals + delta > 0.0):
                raise NumericalError(f"penalty L#_psd + delta I is singular (delta = {delta!r})")
            return 1.0 / np.sqrt(vals + delta)

        B = _psd_function(sharp, inverse_sqrt)
        op = SvdOperator(L @ B)
        self.d_r = op.s * op.s
        self.W_r = op.s[:, None] * op.Uh[: op.rank]
        self.V_r = (op.Vh @ B).conj().T  # B V, B Hermitian
        self.T = np.linalg.qr(self.V_r, mode="r")
        self.T_inv = np.linalg.inv(self.T)

    @property
    def rank(self) -> int:
        """r, the directions the solves run on."""
        return self.d_r.size

    def coordinates(self, rhs, alpha) -> np.ndarray:
        """y = (W_r rhs) / (d_r + alpha), the solution in the range's
        coordinates; alpha is one weight, or one per column of a 2-d rhs."""
        alpha = np.asarray(alpha, dtype=float)
        if not np.all(alpha > 0.0):
            raise DomainError(f"alpha must be strictly positive, got {alpha!r}")
        y = self.W_r @ rhs
        y /= self.d_r[:, None] + alpha if y.ndim == 2 else self.d_r + alpha
        return y

    def operator(self, alpha: float) -> np.ndarray:
        """The r x n map T diag(1/(d_r + alpha)) W_r of one weight alpha:
        z = T coordinates(rhs, alpha) as one product, with ||z|| = ||g||."""
        if not alpha > 0.0:
            raise DomainError(f"alpha must be strictly positive, got {alpha!r}")
        return (self.T / (self.d_r + alpha)) @ self.W_r


# ---------------------------------------------------------------------------
# block evaluator
# ---------------------------------------------------------------------------
def _grid_plan(grid: SamplingGrid, channels: Sequence[str]) -> _Plan:
    """The _Plan of a map's candidates (grid.candidates()): one monopole
    column when 0 is in the grid's iotas, as every monopole has the same
    pattern, then one dipole column per fan normal."""
    normals, k = grid.normals, np.arange(grid.n_dir)
    mono = [(normals[0], 0)] if 0 in grid.iotas else []
    dip = [(n, 1) for n in normals] if 1 in grid.iotas else []
    # a monopole candidate's column is 0, that of dipole k is len(mono) + k
    inverse = np.concatenate([iota * (len(mono) + k) for iota in sorted(grid.iotas)])
    return _pattern_plan(mono + dip, inverse, channels)


class _Block(NamedTuple):
    vals: np.ndarray
    argmin: np.ndarray


def _columns(
    points, plan: _Plan, op: SvdOperator, delta: float, grid_points, wave: WaveState,
    params: MaterialParams, roots: bool = True,
):
    """The trial columns of a block: its points off the sensing points
    (live; none for a zero operator), the distinct column of each (live
    point, candidate) column (spread), their patterns Phi and, if
    ``roots``, the kept-range projection |beta|^2 and the discrepancy
    weights etas of the distinct columns (else None).  The roots of the
    (point, candidate) columns, and those not bracketed at the low (side
    -1) and high (+1) end, are counted in the ledger."""
    # one geometry pass: the trial kernels are singular at r = 0, so the
    # points that coincide with a sensing point are left out
    r, w = _separation(grid_points[:, None, :], points[None, :, :])
    live = np.flatnonzero(np.all(r > 0.0, axis=0) & (op.norm2 > 0.0))
    spread = (np.arange(live.size)[:, None] * plan.coef.shape[1] + plan.inverse).ravel()
    if live.size == 0:
        return live, spread, None, None, None
    with ledger.stage("patterns"):
        r = r[:, live]
        Phi = _patterns(r, w[:, live] / r[..., None], plan, wave, params)
    if not roots:
        return live, spread, Phi, None, None
    with ledger.stage("roots"):
        beta_sq, floors = _projection(op, Phi)
        etas, sides = _morozov_roots(op, beta_sq, floors, delta)
        ledger.count("morozov_roots", spread.size)
        ledger.count("morozov_unbracketed_low", np.count_nonzero(sides[spread] < 0))
        ledger.count("morozov_unbracketed_high", np.count_nonzero(sides[spread] > 0))
    return live, spread, Phi, beta_sq, etas


def _eval_block(
    points,
    plan: _Plan,
    op: SvdOperator,
    delta: float,
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    pencil: GlsmPencil | None = None,
    fixed: np.ndarray | None = None,
) -> _Block:
    """Indicator values of a block of sampling points.

    Without a pencil: 1/||g||, g the Tikhonov solution at the discrepancy
    weight.  With one: the penalized indicator 1/||y|| of g = V_r y, y in
    the pencil's range coordinates, with ||g|| = ||z||, z = T y
    (GlsmPencil).  Under the fixed-alpha operator ``fixed``
    (GlsmPencil.operator) z = fixed @ Phi and the winners' y = T^-1 z;
    else y = GlsmPencil.coordinates at the alpha of each candidate's
    discrepancy weight.  Patterns, roots and solves run on the plan's
    distinct trial columns (_columns); the norms are then spread back over
    all (point, candidate) columns.  Each point takes the candidate of
    least ||g|| (ties go to the first).  Returns (value, candidate index)
    per point, NaN and -1 where no candidate is usable or the point
    coincides with a sensing point.  The seconds of the solve are added
    in the ledger.
    """
    nb, ncand = len(points), plan.inverse.size
    vals = np.full(nb, np.nan)
    argmin = np.full(nb, -1, dtype=int)
    live, spread, Phi, beta_sq, etas = _columns(
        points, plan, op, delta, grid_points, wave, params, roots=fixed is None
    )
    if live.size == 0:
        return _Block(vals, argmin)
    with ledger.stage("solve"):
        if pencil is None:
            filt = op.s[:, None] / (op.s[:, None] ** 2 + etas)
            norms = np.sqrt(np.einsum("ij,ij->j", filt**2, beta_sq))
        else:
            # g = V_r y: ||g|| = ||z|| with z = T y, and its penalty energy is ||y||^2
            if fixed is None:
                Y = pencil.coordinates(Phi, alpha_from_eta(etas, op.norm2, delta))
            Z = pencil.T @ Y if fixed is None else fixed @ Phi
            norms = np.sqrt(_norms_sq(Z))
        norms = np.where((norms > 0.0) & (norms < math.inf), norms, math.inf)
        best = np.argmin(norms[spread].reshape(live.size, ncand), axis=1)
        win = spread[np.arange(live.size) * ncand + best]
        found = np.isfinite(norms[win])
        p, win = live[found], win[found]
        argmin[p] = best[found]
        if pencil is None:
            vals[p] = 1.0 / norms[win]
        else:
            Y = Y.take(win, axis=1) if fixed is None else pencil.T_inv @ Z[:, win]
            vals[p] = 1.0 / np.sqrt(_norms_sq(Y))
    return _Block(vals, argmin)


# ---------------------------------------------------------------------------
# indicator maps
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IndicatorMap:
    """Per-sampling-point indicator values with argmin metadata; its
    fields are those of the map file."""

    method: str
    omega: float
    delta: float
    grid: SamplingGrid
    raw: np.ndarray           # (npts,), NaN where degenerate
    argmin_normal: np.ndarray  # (npts,) int, -1 where no candidate won
    argmin_iota: np.ndarray    # (npts,) int, -1 where no candidate won

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


def _derive_delta(matrix, op: SvdOperator) -> float:
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
    alpha_policy: str = "per-candidate",
) -> IndicatorMap:
    """Evaluate an indicator over the scene's sampling grid.

    The noise level delta is the matrix's (ScatteringMatrix.delta), or
    for noiseless data 1e-6 ||L||.  Blocks of sampling points are
    evaluated one after another, all sharing one SVD of the data operator
    and, for the penalized method, one GlsmPencil.  Under
    alpha_policy="fixed" every glsm candidate uses one alpha, from the
    median Morozov weight of the candidates at the grid center, or at the
    sampling point nearest it that is not a sensing point (a documented
    approximation of the per-candidate rule); lsm under that policy raises
    DomainError.  Per-point failures, sampling points that coincide with
    sensing points included, are recorded as NaN values, never aborts; a
    zero operator gives an all-NaN map.  The ledger gets the seconds of
    setup (the SVD, L#, the pencil and the fixed-alpha operator) and of
    the blocks' stages, the roots solved (_columns), the fixed alpha
    and L's spectrum against delta.
    """
    if method not in ("lsm", "glsm"):
        raise DomainError(f"method must be lsm|glsm, got {method!r}")
    if alpha_policy not in ("per-candidate", "fixed"):
        raise DomainError(f"alpha_policy must be per-candidate|fixed, got {alpha_policy!r}")
    if method == "lsm" and alpha_policy == "fixed":
        raise DomainError("lsm with alpha_policy 'fixed': that policy applies to glsm only")
    if isinstance(matrix, ScatteringMatrix) and (
        matrix.n_points != scene.grid.count or matrix.channels != scene.channels
        or matrix.omega != wave.omega
    ):
        raise CompatibilityError(
            f"matrix ({matrix.n_points} points, channels {matrix.channels}, omega "
            f"{matrix.omega!r}) does not match the scene ({scene.grid.count} points, "
            f"channels {scene.channels}) at omega {wave.omega!r}"
        )
    digest = _scene_digest(scene, params)
    if isinstance(matrix, ScatteringMatrix) and matrix.scene not in (None, digest):
        raise CompatibilityError(
            f"matrix of scene {matrix.scene} does not match the scene {digest} "
            "(sensing points, material constants and channels)"
        )
    with ledger.stage("setup"):
        op = _operator(matrix)
        delta = _derive_delta(matrix, op)
        if op.norm2 > 0.0:
            _bracket(op, delta)  # rejects an operator norm or delta out of range
        pencil = fixed = None
        if method == "glsm":
            pencil = GlsmPencil(op.matrix, lambda_sharp(op.matrix), delta)
    ledger.note("operator_rank", op.rank)
    ledger.note("sigma_max", op.norm2)
    ledger.note("sigma_above_delta", int(np.count_nonzero(op.s > delta)))
    if pencil is not None:
        ledger.note("pencil_rank", pencil.rank)
    pts = scene.sampling.points()
    gpts, plan = scene.grid.points, _grid_plan(scene.sampling, scene.channels)

    if alpha_policy == "fixed":
        # the sampling point nearest the grid center that is not a sensing
        # point; with none, or a zero operator, no block has a live point
        xmin, xmax, ymin, ymax = scene.sampling.region
        center = ((xmin + xmax) / 2.0, (ymin + ymax) / 2.0, scene.sampling.plane_z)
        for k in np.argsort(np.linalg.norm(pts - center, axis=1), kind="stable"):
            live, _, _, _, etas = _columns(pts[k:k + 1], plan, op, delta, gpts, wave, params)
            if live.size:
                # the median over all candidates, not over the distinct columns
                alpha = alpha_from_eta(float(np.median(etas[plan.inverse])), op.norm2, delta)
                ledger.note("fixed_alpha", alpha)
                with ledger.stage("setup"):
                    fixed = pencil.operator(alpha)
                break

    blocks = [
        _eval_block(pts[s:s + _BLOCK], plan, op, delta, gpts, wave, params, pencil, fixed)
        for s in range(0, len(pts), _BLOCK)
    ]
    raw, argmin = (np.concatenate(part) for part in zip(*blocks))
    iotas = np.repeat(sorted(scene.sampling.iotas), scene.sampling.n_dir)
    found = argmin >= 0
    arg_n = np.where(found, argmin % scene.sampling.n_dir, -1)
    arg_i = np.where(found, iotas[argmin], -1)

    imap = IndicatorMap(
        method=method,
        omega=wave.omega,
        delta=delta,
        grid=scene.sampling,
        raw=raw,
        argmin_normal=arg_n,
        argmin_iota=arg_i,
    )
    if imap.degenerate_count:
        logger.warning("indicator map has %d degenerate point(s)", imap.degenerate_count)
    return imap


# ---------------------------------------------------------------------------
# map I/O
# ---------------------------------------------------------------------------
_MAP_TAG = "poroscat-map v1"


def save_indicator_map(imap: IndicatorMap, path) -> None:
    """Header: method, omega, delta and the grid spec; then rows
    x,y,raw,normalized,normal_index,iota in row-major point order."""
    g = imap.grid
    header = {
        "method": imap.method, "omega": imap.omega, "delta": imap.delta,
        "region": g.region, "resolution": g.resolution, "n_dir": g.n_dir,
        "iotas": g.iotas, "plane_z": g.plane_z,
    }
    pts = g.points()
    columns = (pts[:, 0], pts[:, 1], imap.raw, imap.normalized, imap.argmin_normal,
               imap.argmin_iota)
    fields = [v for row in zip(*(c.tolist() for c in columns)) for v in row]
    _write_table(path, _MAP_TAG, header, "%.17g,%.17g,%.17g,%.17g,%d,%d\n", fields)


def _whole_indices(rows: np.ndarray) -> np.ndarray:
    """Map rows whose two index columns hold integers of int32 range."""
    index = rows[:, 4:]
    return ((np.abs(index) < 2**31) & (index == np.round(index))).all(axis=1)


def load_indicator_map(path) -> IndicatorMap:
    """Read a map file in the layout save_indicator_map writes (without
    plane_z, at plane 0).  A missing or unparsable header field, a grid
    header the sampling grid refuses (a flipped region, say), a row that is
    not six numbers with integer indices, or a row count other than the
    grid's point count raises CompatibilityError."""
    field, rows = _read_table(path, _MAP_TAG, 6, "map row", "unparsable", _whole_indices)
    plane_z = field("plane_z", float, optional=True)
    try:
        grid = build_sampling_grid(
            field("region").split(","), field("resolution").split(","),
            field("n_dir", int), field("iotas").split(","),
            plane_z=0.0 if plane_z is None else plane_z,
        )
    except (ValueError, IndexError, DomainError) as exc:
        raise CompatibilityError(f"{path}: bad grid header ({exc})") from None
    if len(rows) != grid.point_count:
        raise CompatibilityError(
            f"{path}: {len(rows)} rows for a grid of {grid.point_count} points"
        )
    return IndicatorMap(
        method=field("method"),
        omega=field("omega", float),
        delta=field("delta", float),
        grid=grid,
        raw=rows[:, 2].copy(),
        argmin_normal=rows[:, 4].astype(int),
        argmin_iota=rows[:, 5].astype(int),
    )

"""Regular Sturm-Liouville problems on an interval.

Solves

    (p(x) y')' = -mu w(x) y,   x in (a, b),

with Dirichlet boundary conditions, for continuous positive p (C^1) and
w: the band's kind of problem, whose operator -(p y')'/w is positive
definite, so every eigenvalue mu is positive. Two independent routes to
the spectrum are provided:

  * a matrix route: second-order conservative differences of the
    self-adjoint form give a symmetric tridiagonal generalized problem,
    whose lowest eigenpairs a numpy eigensolver finds by Sturm-count
    bisection, inverse iteration from a fixed hashed start block and
    Rayleigh quotients (LAPACK's stebz/stein route, vectorized over
    shifts; neither scipy nor numpy.random);
  * a shooting route: the scaled Pruefer angle (Pryce 1993) of mu > 0,

        theta' = sqrt(mu w / p) + (1/4)(log p w)' sin(2 theta),  theta(a) = 0,

    whose boundary value theta(b; mu) is strictly increasing in mu and
    passes through k*pi exactly at the k-th eigenvalue. The angle also
    counts eigenvalues below mu, which makes index verification cheap,
    and prufer_eigenvalues inverts it at k*pi by cubic interpolation in
    numpy, so neither route imports scipy.

Thomas elimination solves the variable-coefficient, possibly indefinite
or near-singular tridiagonal matrices: _solve_pinned one column with
Dirichlet ends on Python floats, for zonal's finite differences, with
its pivots checked; _thomas_solve inverse iteration's numpy batch of
shifted columns, through the pivots of _pivot_blocks. euler2d's Poisson
solve, a family of diagonally dominant Toeplitz systems, goes by cyclic
reduction instead (_cyclic_factor, _cyclic_solve).
Every eigen_solve result is index-checked against the angle count so no
eigenvalue can be silently skipped. eigen_solve itself keeps nothing
between calls: each call solves and checks afresh, and the one cache of
band spectra lives in zonal.band_spectrum.

The zonal specialization (p = w = cos(theta)) is zonal_homogeneous_problem;
homogenize_boundary shifts the band's Dirichlet data to zero and returns
the forcing h whose expansion solve_inhomogeneous sums.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    NearEigenvalue,
    ResonantEigenvalue,
    TooFewSamples,
    ValidationError,
    ZeroFunction,
)

RESONANCE_RTOL = 1e-8  # below this relative separation the expansion is meaningless
MAX_REFINEMENTS = 2  # grid doublings eigen_solve tries before giving up
# prufer_eigenvalues: RK4 steps per angle, first and largest bracket
# half-width (relative to |mu|; below 1, so every sample stays > 0), and
# bracket samples per eigenvalue
SHOOT_STEPS = 8192
SHOOT_BRACKET_REL = 2e-2
SHOOT_BRACKET_MAX = 0.5
SHOOT_GRID = 17


@dataclass
class SLProblem:
    """One regular Sturm-Liouville problem, (p y')' = -mu w y.

    Boundary conditions are Dirichlet, y(a) = y(b) = 0: the only kind the
    band model poses. ln_pw_prime is the analytic d/dx log(p(x) w(x)),
    the twist of the scaled Pruefer angle, whose stiffness does not grow
    with mu, so the shooting route stays cheap for eigenvalues of any size.
    """

    a: float
    b: float
    p: Callable
    w: Callable
    ln_pw_prime: Callable

    def __post_init__(self):
        if not self.a < self.b:
            raise ValidationError(f"need a < b, got ({self.a}, {self.b})")
        x = np.linspace(self.a, self.b, 257)
        if np.any(self._eval(self.p, x) <= 0) or np.any(self._eval(self.w, x) <= 0):
            raise ValidationError("p and w must be positive on [a, b]")

    @staticmethod
    def _eval(fn, x):
        return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x)).copy()

    def sample(self, x):
        return self._eval(self.p, x), self._eval(self.w, x)


@dataclass
class SLSpectrum:
    """Leading eigenpairs, weight-orthonormal, on a uniform grid."""

    eigenvalues: np.ndarray      # ascending, shape (n_max,)
    eigenfunctions: np.ndarray   # shape (n_max, grid_size), zero endpoints
    grid: np.ndarray             # shape (grid_size,)

    def __len__(self):
        return len(self.eigenvalues)


# ==================================================================
# Tridiagonal kernels
# ==================================================================

PIVOT_RTOL = 1e-9  # pivots below this fraction of the matrix scale are singular


def _solve_pinned(lower, diag, upper, rhs, left, right):
    """One tridiagonal column with the Dirichlet values left and right
    pinned at its ends; the arguments are left as they are.

    Row i reads lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i].
    Rows 0 and n-1 become identity rows equilibrated to the largest
    interior |diag[i]|, s, with right-hand sides left s and right s.
    Elimination, forward and back substitution run on Python floats,
    which is cheaper than a ufunc call per row and bit-identical to it.
    A pivot below PIVOT_RTOL times the matrix scale
    s + max|lower[:-1]| + max|upper[1:]|, or NaN, raises NearEigenvalue
    after the sweep; an exactly zero one stops it, also with NearEigenvalue.
    """
    s = float(np.max(np.abs(diag[1:-1])))
    scale = s + float(np.max(np.abs(lower[:-1]))) + float(np.max(np.abs(upper[1:])))
    lower, diag, upper, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    upper[0] = lower[-1] = 0.0
    diag[0] = diag[-1] = s
    b[0], b[-1] = left * s, right * s
    n = len(b)
    piv, c, x = [0.0] * n, [0.0] * n, [0.0] * n
    try:
        piv[0] = p = s
        c[0] = upper[0] / p
        x[0] = d = b[0] / p
        for i in range(1, n):
            piv[i] = p = diag[i] - lower[i] * c[i - 1]
            c[i] = upper[i] / p
            x[i] = d = (b[i] - lower[i] * d) / p
    except ZeroDivisionError:  # Python floats raise where numpy gives inf
        raise NearEigenvalue("tridiagonal pivot 0.000e+00 below threshold") from None
    size = np.abs(piv)
    if not np.all(size >= PIVOT_RTOL * scale):
        raise NearEigenvalue(f"tridiagonal pivot {np.min(size):.3e} below threshold")
    for i in range(n - 2, -1, -1):
        x[i] = d = x[i] - c[i] * d
    return np.array(x)


def _thomas_solve(factor, rhs):
    """Inverse iteration's forward and back substitution, one column per shift.

    factor is (lower, piv, c), pivots piv[i] = diag[i] - lower[i] c[i-1]
    and c[i] = upper[i] / piv[i] (c[:n-1] is read), with rows of piv
    matching those of rhs; rhs is left as it is. The rows are substituted
    into x in place, x[i] = (rhs[i] - lower[i] x[i-1]) / piv[i], then
    x[i] -= c[i] x[i+1], so a sweep makes no temporaries.
    """
    lower, piv, c = factor
    x = np.empty(np.shape(rhs))
    rows = list(x)
    np.divide(rhs[0], piv[0], out=rows[0])
    for prev, row, low, b, p in zip(rows, rows[1:], lower[1:], rhs[1:], piv[1:]):
        np.multiply(low, prev, out=row)
        np.subtract(b, row, out=row)
        np.divide(row, p, out=row)
    term = np.empty_like(rows[0])
    for row, nxt, ci in zip(rows[-2::-1], rows[:0:-1], c[len(rows) - 2::-1]):
        np.multiply(ci, nxt, out=term)
        np.subtract(row, term, out=row)
    return x


def _cyclic_factor(off, diag, n):
    """Odd-even cyclic reduction of a family of symmetric Toeplitz systems.

    Each entry k of the vector diag poses
    off x[i-1] + diag[k] x[i] + off x[i+1] = f[i] for the n unknowns
    x[1..n], with x[0] = x[n+1] = 0. Reducing to the unknowns at multiples
    of s = 1, 2, 4, ... keeps every equation Toeplitz (one coefficient per
    entry and level) except that of the last unknown, whose gap to the
    wall at n+1 is shorter than s; that one row is carried on its own.
    Cyclic reduction is stable for diagonally dominant systems, so the
    factor refuses any other (0 < |diag| and 2 |off| <= |diag|). Each
    level's diagonal is rebuilt from the dominance margin
    |diag| - 2 |off|, which is carried by its own recurrence: b - 2a^2/b
    would lose it to cancellation whenever the margin is small.

    The factor is (rows, reductions, substitutions); see _cyclic_solve for
    the layout it solves in. Every coefficient vector it keeps is a row of
    one block, allocated once: a factor lives as long as its grid, and a
    few dozen small long-lived arrays would be scattered through the heap
    of the thread that builds it.
    """
    diag = np.asarray(diag, dtype=float)
    if not np.all((diag != 0) & (np.abs(diag) >= 2.0 * abs(off))):
        raise ValidationError("cyclic reduction needs diag != 0 and 2 |off| <= |diag|")
    sign = np.sign(diag)
    a = np.full(diag.shape, float(off))
    margin = np.abs(diag) - 2.0 * abs(off)  # exact while |diag| <= 4 |off|
    b = b_last = diag
    slots = iter(np.empty((6 * max(n, 1).bit_length(), diag.size)))

    def keep(values):
        row = next(slots)
        row[...] = values
        return row

    reductions, substitutions = [], []
    s = 1
    while True:
        last = s * (n // s)  # the last unknown left at stride s
        odd_last = last % (2 * s) == s
        # substituted at stride s: the odd multiples of s, the last one
        # separately when its diagonal is not the level's
        own_tail = odd_last and not np.array_equal(b_last, b)
        tail = (last, last - s, keep(1.0 / b_last), keep(a / b_last)) if own_tail else None
        substitutions.append((s, (n + s) // (2 * s) - own_tail, keep(1.0 / b), keep(a / b), tail))
        if 2 * s > n:
            break
        alpha = -a / b
        size = np.abs(a)
        margin = margin * (4.0 * size + margin) / (2.0 * size + margin)
        next_a = alpha * a
        next_b = sign * (2.0 * np.abs(next_a) + margin)
        if odd_last:  # the last unknown is the last target's right neighbour
            delta = -a / b_last - alpha
            fix = (last - s, last, keep(delta)) if np.any(delta) else None
            b_last = next_b + delta * a
        else:  # the last unknown is itself the last target, with no right neighbour
            fix = None
            b_last = b_last + alpha * a
        reductions.append((s, n // (2 * s), keep(alpha), fix))
        a, b = next_a, next_b
        s *= 2
    return 2 * s + 1, reductions, substitutions[::-1]


def _cyclic_solve(factor, x):
    """Solve in place by the levels of a _cyclic_factor.

    x has factor[0] = 2^k + 1 rows, for the smallest power of two 2^k
    above n, and one column per entry of the factor's diag; rows 1..n hold the right-hand
    side and are overwritten by the solution, and row 0 and rows n+1..
    must hold zeros, which stay as they are. Each level is a handful of
    whole-array operations on every other row at its stride, into one
    scratch block allocated per call, so no loop runs over rows.
    """
    _, reductions, substitutions = factor
    scratch = np.empty_like(x[:len(x) // 2])
    for s, count, alpha, fix in reductions:
        # f[j] += alpha (f[j-s] + f[j+s]) at j = 2s, 4s, ..., 2s count
        t = scratch[:count]
        np.add(x[s:2 * s * count:2 * s], x[3 * s:2 * s * count + 2 * s:2 * s], out=t)
        t *= alpha
        x[2 * s:2 * s * count + 1:2 * s] += t
        if fix is not None:
            row, nxt, delta = fix
            np.multiply(x[nxt], delta, out=scratch[0])
            x[row] += scratch[0]
    for s, span, inv, ratio, tail in substitutions:
        # x[j] = f[j] / b - (a / b) (x[j-s] + x[j+s]) at j = s, 3s, ...
        if span:
            t = scratch[:span]
            np.add(x[0:2 * s * span - s:2 * s], x[2 * s:2 * s * span + 1:2 * s], out=t)
            t *= ratio
            rows = x[s:2 * s * span:2 * s]
            rows *= inv
            rows -= t
        if tail is not None:
            row, prev, inv_last, ratio_last = tail
            np.multiply(x[prev], ratio_last, out=scratch[0])
            x[row] *= inv_last
            x[row] -= scratch[0]


# ==================================================================
# Matrix route
# ==================================================================

BLOCK_ROWS = 64  # LDL^T pivot rows a Sturm count holds at once
SWEEP_SHIFTS = 512  # shifts per multisection sweep, at least 15 per eigenvalue
BISECT_RTOL = 1e-8  # bracket width at which inverse iteration takes over
INVERSE_RTOL = 1e-10  # 1 - |cos| between successive inverse iterates
MAX_INVERSE_ITERATIONS = 5


def _pivot_blocks(d, e2, pivmin, shifts):
    """Pivots of LDL^T(T - s) for every shift s, BLOCK_ROWS rows at a time.

    T is the symmetric tridiagonal matrix with diagonal d and squared
    off-diagonal e2. Pivot i is d[i] - s - e2[i-1] / (pivot i-1). Each block
    is first swept without a guard; if it holds a pivot below pivmin in size
    (or a NaN), it is swept again with every such pivot replaced by -pivmin,
    as LAPACK's Sturm counts do. Each yielded block is a view into one
    reused buffer of (BLOCK_ROWS + 1) x len(shifts), whose row 0 carries
    the last pivot of the block before.
    """
    buf = np.empty((BLOCK_ROWS + 1, len(shifts)))
    buf[0] = np.inf  # pivot "-1": e2 / inf = 0 leaves pivot 0 = d[0] - s
    rows = list(buf)
    ratio = np.empty(len(shifts))
    e2_before = [0.0, *e2.tolist()]
    for start in range(0, len(d), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(d))
        block = buf[1:1 + stop - start]
        for guard in (False, True):
            np.subtract(d[start:stop, None], shifts, out=block)
            prev = rows[0]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for row, e2_i in zip(rows[1:], e2_before[start:stop]):
                    np.divide(e2_i, prev, out=ratio)
                    row -= ratio
                    if guard:
                        np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
                    prev = row
            if np.all(np.abs(block) >= pivmin):
                break
        yield block
        rows[0][...] = prev


def _sturm_counts(d, e2, pivmin, shifts):
    """Eigenvalues of T below each shift: the negative pivots of LDL^T(T - s)."""
    count = np.zeros(len(shifts), dtype=np.int64)
    for block in _pivot_blocks(d, e2, pivmin, shifts):
        count += np.count_nonzero(block < 0, axis=0)
    return count


def _start_block(shape):
    """A fixed start block for inverse iteration, entries in [-1, 1).

    Entry j of the flattened block is the splitmix64 hash of j, scaled to
    [-1, 1): the same block in every run and process, uncorrelated with
    smooth eigenvectors (a Weyl or low-discrepancy sequence is not), and
    without importing numpy.random.
    """
    z = np.arange(1, math.prod(shape) + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)) * 2.0**-52 - 1.0).reshape(shape)


def _inverse_iteration(d, e, pivmin, shifts):
    """Unit eigenvectors of T nearest each shift, one column per shift.

    Every column is solved (by _thomas_solve) with its own LDL^T(T - s);
    the factors are near-singular by design, and the guarded pivots keep
    them finite. Iteration stops when each column has turned by less than
    INVERSE_RTOL; the start is a fixed pseudo-random block (_start_block),
    as LAPACK's stein starts from a fixed pseudo-random vector.
    """
    piv = np.concatenate([block.copy() for block in
                          _pivot_blocks(d, e * e, pivmin, shifts)])
    factor = (np.concatenate(([0.0], e)), piv, e[:, None] / piv[:-1])
    x = _start_block(piv.shape)
    for _ in range(MAX_INVERSE_ITERATIONS):
        before = x / np.linalg.norm(x, axis=0)
        x = _thomas_solve(factor, before)
        norms = np.linalg.norm(x, axis=0)
        if np.all(np.abs(np.sum(before * x, axis=0)) >= (1.0 - INVERSE_RTOL) * norms):
            return x / norms
    raise ConvergenceFailure("inverse iteration did not settle")


def _lowest_eigenpairs(d, e, k):
    """The k lowest eigenpairs of the symmetric tridiagonal (d, e).

    LAPACK's route (stebz bisection, then stein inverse iteration), with
    every sweep vectorized over its shifts. Sturm counts at a geometric
    ladder of shifts above the Gershgorin lower bound bracket eigenvalues
    1..k; multisection sweeps of SWEEP_SHIFTS shifts narrow every bracket
    to BISECT_RTOL; inverse iteration from the bracket midpoints gives the
    vectors, and their Rayleigh quotients the eigenvalues. Working memory
    is O(len(d) * k).
    """
    n = len(d)
    e2 = e * e
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lower = float(np.min(d - radius))
    upper = float(np.max(d + radius))
    tnorm = max(abs(lower), abs(upper))
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2, initial=0.0)))
    atol = 2.0 * np.finfo(float).eps * tnorm

    # edges lower + span 2^(-j/8), span twice the Gershgorin width, down to
    # 2^-54 of it: no eigenvalue lies below lower, every one below the top
    span = 2.0 * (upper - lower) + atol
    edges = lower + span * 2.0 ** (-np.arange(8 * 54, -1, -1) / 8.0)
    below = np.maximum.accumulate(_sturm_counts(d, e2, pivmin, edges))
    edges = np.concatenate(([lower], edges))
    below = np.concatenate(([0], below))
    index = np.arange(1, k + 1)
    top = np.searchsorted(below, index)  # first edge with index or more below
    lo, hi = edges[top - 1], edges[top]

    parts = max(16, SWEEP_SHIFTS // k)
    frac = np.arange(1, parts) / parts
    cols = np.arange(k)
    while np.any(hi - lo > BISECT_RTOL * np.maximum(np.abs(lo), np.abs(hi)) + atol):
        inner = lo[:, None] + (hi - lo)[:, None] * frac
        counts = _sturm_counts(d, e2, pivmin, inner.ravel()).reshape(inner.shape)
        j = np.count_nonzero(counts < index[:, None], axis=1)
        edges = np.column_stack((lo, inner, hi))
        lo, hi = edges[cols, j], edges[cols, j + 1]

    vecs = _inverse_iteration(d, e, pivmin, 0.5 * (lo + hi))
    # v^T T v with the off-diagonal folded into row sums: a difference
    # operator's row sums are O(1) where d is O(1/h^2), so nothing cancels
    row_sums = d.copy()
    row_sums[:-1] += e
    row_sums[1:] += e
    vals = row_sums @ (vecs * vecs) - e @ np.diff(vecs, axis=0) ** 2
    return vals, vecs


def _difference_matrix(prob, grid_size):
    """Grid, interior weights and the symmetric tridiagonal (d, e) of the
    problem's conservative second differences."""
    x = np.linspace(prob.a, prob.b, grid_size)
    hgrid = x[1] - x[0]
    p_half = prob._eval(prob.p, 0.5 * (x[:-1] + x[1:]))
    wi = prob._eval(prob.w, x)[1:-1]
    diag = (p_half[:-1] + p_half[1:]) / hgrid**2
    off = -p_half[1:-1] / hgrid**2
    # similarity transform by W^{-1/2} keeps the matrix symmetric tridiagonal
    return x, wi, diag / wi, off / np.sqrt(wi[:-1] * wi[1:])


def _tridiagonal_eigen(prob, n_max, grid_size):
    """Symmetric tridiagonal generalized eigenproblem on a uniform grid."""
    x, wi, d_s, e_s = _difference_matrix(prob, grid_size)
    hgrid = x[1] - x[0]
    vals, vecs = _lowest_eigenpairs(d_s, e_s, n_max)

    funcs = np.zeros((n_max, grid_size))
    for k in range(n_max):
        y = vecs[:, k] / np.sqrt(wi)
        norm = math.sqrt(hgrid * float(np.sum(wi * y * y)))
        y = y / norm
        if y[0] < 0:  # sign convention: y'(a) > 0
            y = -y
        funcs[k, 1:-1] = y
    return vals, funcs, x


def eigen_solve(prob: SLProblem, n_max: int, grid_size: int) -> SLSpectrum:
    """First n_max eigenpairs of the homogeneous problem.

    The matrix spectrum is validated against the Pruefer angle: at the
    k-th eigenvalue the angle at b must sit in ((k-1/2)pi, (k+1/2)pi).
    On an index mismatch the grid is doubled and the solve repeated, up to
    MAX_REFINEMENTS times; persistent disagreement raises ConvergenceFailure.
    """
    if grid_size < 64:
        raise ValidationError("grid_size must be at least 64")
    if n_max < 1 or n_max > grid_size - 2:
        raise ValidationError("need 1 <= n_max <= grid_size - 2")

    size = grid_size
    for attempt in range(MAX_REFINEMENTS + 1):
        vals, funcs, x = _tridiagonal_eigen(prob, n_max, size)
        angles = prufer_angle(prob, vals, n_steps=max(2048, 64 * n_max))
        k = np.arange(1, n_max + 1)
        ok = np.all(np.abs(angles - k * np.pi) < 0.5 * np.pi)
        if ok:
            return SLSpectrum(vals, funcs, x)
        size = 2 * (size - 1) + 1
    raise ConvergenceFailure(
        "matrix eigenvalues fail the Pruefer index check after refinement"
    )


# ==================================================================
# Shooting route (Pruefer angle)
# ==================================================================

def prufer_angle(prob: SLProblem, mus, n_steps: int) -> np.ndarray:
    """Scaled Pruefer angle theta(b; mu), vectorized over an array of mu > 0.

    theta(a) = 0 encodes y(a) = 0, and theta(b; mu) is strictly
    increasing in mu with theta(b) = k pi exactly at the k-th eigenvalue.
    The angle of tan(theta) = S y / (p y'), S = sqrt(mu p w), obeys

        theta' = sqrt(mu w / p) + (1/4)(log p w)' sin(2 theta),

    whose stiffness does not grow with mu, so fixed-step RK4 stays
    accurate for large eigenvalues. S is real only for mu > 0, which
    every eigenvalue of the band's positive-definite operator is; any
    mu <= 0 raises ValidationError. The angle is integrated doubled
    (see _doubled_angle).
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    if not np.all(mus > 0):
        raise ValidationError("the scaled Pruefer angle needs every mu > 0")
    hstep = (prob.b - prob.a) / n_steps
    # coefficient samples at step points and midpoints, reused for all mu
    xs = prob.a + 0.5 * hstep * np.arange(2 * n_steps + 1)
    p, w = prob.sample(xs)
    twist = 0.25 * prob._eval(prob.ln_pw_prime, xs)
    return 0.5 * _doubled_angle(hstep, np.sqrt(mus), np.sqrt(w / p), twist)


def _doubled_angle(hstep, root, rate, twist):
    """RK4 for phi = 2 theta of the scaled Pruefer angle; returns phi(b).

        phi' = 2 root rate + 2 twist sin phi,

    where rate = sqrt(w/p) and twist = (1/4)(log p w)' are sampled at the
    step points and midpoints and root = sqrt(mu) is a per-mu vector. Each
    sample stays a float, scaled by root, so no (points x mu) table is
    built, and every stage slope is written into one of a few reused
    buffers.
    """
    rate2 = (2.0 * rate).tolist()
    twist2 = (2.0 * twist).tolist()
    phi = np.zeros_like(root)
    acc, k, arg, tmp = (np.empty_like(root) for _ in range(4))

    def slope(angle, j, scale, out):
        """scale * phi' at sample j and the given angle, into out."""
        np.sin(angle, out=out)
        out *= scale * twist2[j]
        np.multiply(root, scale * rate2[j], out=tmp)
        out += tmp
        return out

    half, quarter, sixth = 0.5 * hstep, 0.25 * hstep, hstep / 6.0
    for i0 in range(0, len(rate2) - 1, 2):
        slope(phi, i0, 1.0, acc)  # k1
        np.multiply(acc, half, out=arg)
        arg += phi
        acc += slope(arg, i0 + 1, 2.0, k)  # 2 k2
        np.multiply(k, quarter, out=arg)
        arg += phi
        acc += slope(arg, i0 + 1, 2.0, k)  # 2 k3
        np.multiply(k, half, out=arg)
        arg += phi
        acc += slope(arg, i0 + 2, 1.0, k)  # k4
        acc *= sixth
        phi += acc
    return phi


def prufer_eigenvalues(prob: SLProblem, n_max: int, guesses=None) -> np.ndarray:
    """Shooting eigenvalues: solve theta(b; mu) = k pi for k = 1..n_max.

    theta(b; mu) is integrated once for a bracket of mu values around each
    guess (one vectorized pass over all eigenvalues), and the strictly
    increasing angle is inverted by cubic interpolation: mu at k pi is read
    off the cubic of mu in theta through the four samples around k pi. A
    second pass with a bracket a thousand times tighter polishes the roots.
    A bracket that misses its root is widened fourfold, up to a half-width
    of SHOOT_BRACKET_MAX |mu|, so every sample stays positive; one that
    still misses raises ConvergenceFailure, and a guess <= 0
    ValidationError. The roots are independent of the matrix route used by
    eigen_solve, which only supplies the default guesses.
    """
    if n_max < 1:
        raise ValidationError("need n_max >= 1")
    if guesses is None:
        guesses = _tridiagonal_eigen(prob, n_max, 513)[0]
    mus = np.asarray(guesses, dtype=float).copy()
    if mus.shape != (n_max,):
        raise ValidationError(f"need {n_max} guesses, got {mus.size}")
    targets = np.pi * np.arange(1, n_max + 1)

    rel = SHOOT_BRACKET_REL
    for sweep in range(2):
        scale = np.abs(mus)[:, None]
        while True:
            grid = mus[:, None] + np.linspace(-1.0, 1.0, SHOOT_GRID)[None, :] * (rel * scale)
            angles = prufer_angle(prob, grid.ravel(), SHOOT_STEPS).reshape(grid.shape)
            covered = (angles[:, 0] < targets) & (targets < angles[:, -1])
            if np.all(covered):
                break
            if rel == SHOOT_BRACKET_MAX:
                raise ConvergenceFailure("could not bracket the requested eigenvalues")
            rel = min(4.0 * rel, SHOOT_BRACKET_MAX)
        mus = _inverse_cubic(angles, grid, targets)
        rel = max(rel * 1e-3, 1e-9)
    return mus


def _inverse_cubic(angles, grid, targets):
    """mu at theta = targets[k] for each row k of increasing angles[k]:
    the Lagrange cubic of mu in theta through the four samples around the
    target (two on each side, or the four at the nearer end)."""
    rows = np.arange(len(targets))[:, None]
    above = np.sum(angles < targets[:, None], axis=1)  # first sample >= target
    start = np.clip(above - 2, 0, angles.shape[1] - 4)
    cols = start[:, None] + np.arange(4)
    dist = angles[rows, cols] - targets[:, None]  # theta_j - target
    # basis weight j at the target: prod over m != j of dist_m / (dist_m - dist_j)
    ratio = dist[:, None, :] / (dist[:, None, :] - dist[:, :, None] + np.eye(4))
    ratio[:, range(4), range(4)] = 1.0
    return np.sum(ratio.prod(axis=2) * grid[rows, cols], axis=1)


# ==================================================================
# Functionals and expansions
# ==================================================================

def fourth_order_derivative(y, x):
    """dy/dx by fourth-order differences on the uniform grid x.

    Centered five-point stencil inside, one-sided five-point stencils on
    the two nodes nearest each end. Fewer than 5 samples raise
    TooFewSamples, and a grid whose steps differ from x[1] - x[0] by more
    than 1e-10 of it, plus 8 ulps of max|x| (linspace's own round-off on a
    narrow grid far from 0), raises ValidationError.
    """
    if len(x) < 5:
        raise TooFewSamples("fourth-order differences need at least 5 samples")
    h = x[1] - x[0]
    slack = 1e-10 * abs(h) + 8.0 * np.spacing(np.max(np.abs(x)))
    if np.max(np.abs(np.diff(x) - h)) > slack:
        raise ValidationError("fourth-order differences need a uniform grid")
    dy = np.empty(len(y))
    dy[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    dy[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    dy[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    dy[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    dy[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    return dy


def rayleigh_quotient(prob: SLProblem, y, x) -> float:
    """Variational quotient recovering an eigenvalue from its function.

    ( p y y' |_a  -  p y y' |_b  +  int_a^b p (y')^2 )
    divided by <y, y>_w. Scaling y leaves the value unchanged; for
    Dirichlet data the boundary terms vanish.
    """
    y = np.asarray(y, dtype=float)
    p, w = prob.sample(x)
    norm = np.trapezoid(w * y * y, x)
    if norm < 1e-14:
        raise ZeroFunction("<y, y>_w is numerically zero")
    dy = fourth_order_derivative(y, x)
    boundary = p[0] * y[0] * dy[0] - p[-1] * y[-1] * dy[-1]
    return float((boundary + np.trapezoid(p * dy * dy, x)) / norm)


def solve_inhomogeneous(h, mu: float, spectrum: SLSpectrum, n_terms: int) -> np.ndarray:
    """Eigenfunction-expansion solution of (p y')' + mu w y = h(x) with
    Dirichlet zeros, for the problem of the spectrum, on its grid.

    y = sum_n b_n y_n with b_n = <h/w, y_n> / (mu - mu_n); unique iff mu
    avoids the spectrum. Near-resonant mu (relative separation below
    1e-8) raises ResonantEigenvalue: case (b) non-unique solutions are
    detected, not constructed.
    """
    if n_terms < 0 or n_terms > len(spectrum):
        raise ValidationError("need 0 <= n_terms <= len(spectrum)")
    x = spectrum.grid
    mus = spectrum.eigenvalues[:n_terms]
    sep = np.abs(mu - mus) / np.maximum(np.maximum(np.abs(mus), np.abs(mu)), 1.0)
    if n_terms and np.min(sep) < RESONANCE_RTOL:
        k = int(np.argmin(sep))
        raise ResonantEigenvalue(
            f"mu = {mu} is within rel {sep[k]:.2e} of eigenvalue {mus[k]}"
        )
    funcs = spectrum.eigenfunctions[:n_terms]
    # <h/w, y_n>_w: the weights cancel
    cn = np.trapezoid(SLProblem._eval(h, x) * funcs, x, axis=1)
    return (cn / (mu - mus)) @ funcs


# ==================================================================
# Zonal specialization
# ==================================================================

def homogenize_boundary(config):
    """Shift the zonal band problem to homogeneous Dirichlet data.

    Subtracting the affine interpolant a*theta + b of (psi1, psi2) from
    the stream function leaves y = psi - (a theta + b), zero at both
    walls, with

      (y' cos)' + lam y cos = h(theta),
      h(theta) = a sin(theta) + [upsilon - lam (a theta + b)] cos(theta)
                 - omega sin(2 theta):

    zonal_homogeneous_problem at mu = lam, forced by h.

    Returns the forcing h and the shift coefficients (a, b).
    """
    th1, th2 = config.theta1, config.theta2
    a_shift = (config.psi2 - config.psi1) / (th2 - th1)
    b_shift = (th2 * config.psi1 - th1 * config.psi2) / (th2 - th1)
    lam, ups, omg = config.lam, config.upsilon, config.omega

    def forcing(theta):
        return (
            a_shift * np.sin(theta)
            + (ups - lam * (a_shift * theta + b_shift)) * np.cos(theta)
            - omg * np.sin(2.0 * theta)
        )

    return forcing, (a_shift, b_shift)


def zonal_homogeneous_problem(config) -> SLProblem:
    """The band's homogeneous eigenproblem: (y' cos)' = -lam y cos."""
    return SLProblem(
        a=config.theta1, b=config.theta2, p=np.cos, w=np.cos,
        ln_pw_prime=lambda t: -2.0 * np.tan(t),
    )


def count_sign_changes(y) -> int:
    """Interior sign changes of a sampled function (zero samples skipped)."""
    vals = np.asarray(y)
    vals = vals[vals != 0.0]
    return int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))

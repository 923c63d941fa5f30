"""Runge-Kutta time integration of the semi-discrete block system.

Both steppers run one stage recursion (`_Stepper.step`) in stage slopes k_i
(du/dt at stage i): every stage state and the update is
u_t + dt sum_j w_j k_j over one tableau row. They differ only in how a
stage's slope is obtained from its state and load (`_slope`), by face
elimination or by cell condensation. A load is separable (`Forcing`,
sum_j g_j(t) v_j over cell vectors fixed at set-up): each stepper maps its
term vectors once, on its first step with that load (`_map_load`), and a
forced stage adds its time factors' combination of the mapped parts.

Explicit schemes eliminate the face unknowns: the face-face stiffness is
block-diagonal per face and the mass is block-diagonal per cell, so
L = M^-1 (K_TT - K_TF K_FF^-1 K_FT) is a fixed sparse cell operator and each
stage is one sparse product with it. L is built once per system, on first
use (`hho.BlockSystem.explicit_op`), not once per stepper: every explicit
stepper on a system shares it. Its factors hold no round-off entries
(`hho.ROUNDOFF_FLOOR`), and L none of their products: on cartesian L4 at
k=1 it holds 85,088 entries instead of 177,696.

Implicit (singly diagonal) schemes condense the cell unknowns instead: the
block-diagonal M + a* dt K_TT is the only matrix they invert, and only once
per congruence class of cells
(the system's `hho.CellClasses` store, built by assembly), together with
its product G = A^-1 K_TF. The face-coupled Schur complement S is assembled
once, from the face parts of the back blocks below added at every
member's face dofs and the interface coupling of K_FF, straight into the
arrays of a pattern the system lays out once (`hho.FaceGraph`), factored
and released: only its LU is kept. No per-cell inverse is formed. A stage is
two passes over stacked class blocks (`hho.CellClasses.apply`) around its
Schur solve, never a product with a global sparse matrix:
the stage blocks [(A^-1 M - I) / (a* dt); -a* dt K_FT A^-1 M] on the
stage's start state give the cell part of its slope and the Schur
right-hand side (a forced stage adds the pass of [A^-1; -(a* dt)^2 K_FT A^-1]
on its load, combined from the passes on the load's term vectors, made once
per load), and the back blocks [G; a* dt (K_FF,c - a* dt K_FT,c G_c)]
on the face unknowns give G u_f for the slope and all of S u_f but its
interface coupling, from which the solve is checked. B_c = K_FT,c G_c is
symmetric in exact arithmetic and is symmetrized.
Cell vectors are sorted by class once per step, so each class of many
members is one GEMM on a reshaped view of its cells' dofs and the cells of
the smaller classes of one block shape one stacked `matmul`; the face parts
are added onto the face dofs with one `bincount`, and the back pass gathers
every cell's face values with one take. All of it is reused across stages
and steps while (a*, dt) is unchanged. Every block inverse, the explicit
path's M^-1 and K_FF^-1 as well as the condensed class inverses, comes from
`inverse_stack`: one batched inversion per stack.

The Schur complement has one solver, a direct LU with no settings: in
float64, or, for an S of at least `SINGLE_MIN_ENTRIES` entries, in float32
with entries below `SINGLE_DROP_TOL` of their column dropped and every
solve refined in float64 to the same check (`FactorizedOperator`), which
takes S's arrays over and frees its float64 values first. S is
structurally symmetric, and once equilibrated by D = |diag S|^-1/2 the
symmetric part of D S D is positive definite. The LU therefore factors
without pivoting, with a minimum-degree ordering on the pattern of
A^T + A (SuperLU's MMD_AT_PLUS_A) applied to rows and columns alike, which
leaves less fill than SuperLU's default COLAMD ordering (about half from
10^4 face unknowns on). It factors D S^T D, whose CSC arrays are the CSR
arrays of S, and solves S u_f = b with SuperLU's transposed kernel on that
LU. Every solve is checked
by its equilibrated residual ||D (S u_f - b)|| / ||D b|| <= 1e-8, with
S u_f taken from the back pass and a product with the interface coupling
of K_FF (`CondensedFactorization.back_pass`), so the check costs no
product with S. A float32 solve that fails the check is corrected from the
residual the check formed, and each correction adds one back pass; one
method runs that loop for a stage (`CondensedFactorization.face_solve`).
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def peak_rss_mb() -> float:
    """The peak resident set size of this process so far, in MB (`ru_maxrss` is in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float | None:
    """The current resident set size of this process in MB, from /proc/self/statm
    (in pages); None where that file does not exist."""
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            return int(statm.read().split()[1]) * resource.getpagesize() / 2**20
    except OSError:
        return None


class TimestepError(Exception):
    pass


class InstabilityError(TimestepError):
    """Non-finite state detected during time integration."""

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"instability detected at step {step_index}")


class SolverError(TimestepError):
    pass


# ---------------------------------------------------------------------------
# Butcher tableaux

@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients: stage matrix `a` (s, s), weights `b`, nodes `c`."""

    kind: str
    s: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int
    a_star: float | None = None

    @property
    def explicit(self) -> bool:
        return self.a_star is None

    def __post_init__(self):
        if self.a.shape != (self.s, self.s):
            raise TimestepError("tableau stage matrix must be s x s")
        if abs(self.b.sum() - 1.0) > 1e-13:
            raise TimestepError("tableau weights must sum to 1")
        rowsum = self.a.sum(axis=1)
        diag = 0.0 if self.a_star is None else self.a_star
        if np.max(np.abs(rowsum - self.c)) > 1e-13:
            raise TimestepError("tableau row sums must equal the nodes c")
        for i in range(self.s):
            if self.a_star is not None and abs(self.a[i, i] - diag) > 1e-14:
                raise TimestepError("singly diagonal tableau requires a constant diagonal")

    def stability(self, z):
        """Stability function R(z) = 1 + z b^T (I - z A)^-1 1, elementwise over z.

        One step of the scheme maps u to R(dt lambda) u on u' = lambda u.
        """
        z = np.asarray(z, dtype=complex)
        stages = np.linalg.solve(np.eye(self.s) - z[..., None, None] * self.a,
                                 np.ones(z.shape + (self.s, 1)))
        return 1.0 + z * (stages[..., 0] @ self.b)


_SQRT3 = math.sqrt(3.0)
_NU34 = math.cos(math.pi / 18.0) / _SQRT3 + 0.5
_XI34 = 1.0 / (6.0 * (2.0 * _NU34 - 1.0) ** 2)
_A23 = 0.5 + _SQRT3 / 6.0


def _full(kind, s, rows, b, c, order, a_star=None):
    a = np.zeros((s, s))
    for i, row in enumerate(rows):
        a[i, :len(row)] = row
    return ButcherTableau(kind=kind, s=s, a=a, b=np.asarray(b, dtype=float),
                          c=np.asarray(c, dtype=float), order=order, a_star=a_star)


_TABLEAUX = {
    "ERK2": _full("ERK2", 2, [[0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 0.5], 2),
    "ERK3": _full("ERK3", 3, [[0.0], [0.5, 0.0], [-1.0, 2.0, 0.0]],
                  [1 / 6, 2 / 3, 1 / 6], [0.0, 0.5, 1.0], 3),
    "ERK4": _full("ERK4", 4, [[0.0], [0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0]],
                  [1 / 6, 1 / 3, 1 / 3, 1 / 6], [0.0, 0.5, 0.5, 1.0], 4),
    # two-stage, third-order, A-stable singly diagonal scheme
    "SDIRK23": _full("SDIRK23", 2, [[_A23], [1.0 - 2.0 * _A23, _A23]],
                     [0.5, 0.5], [_A23, 1.0 - _A23], 3, a_star=_A23),
    # three-stage, fourth-order scheme with nu = cos(pi/18)/sqrt(3) + 1/2
    "SDIRK34": _full("SDIRK34", 3,
                     [[_NU34], [0.5 - _NU34, _NU34], [2.0 * _NU34, 1.0 - 4.0 * _NU34, _NU34]],
                     [_XI34, 1.0 - 2.0 * _XI34, _XI34],
                     [_NU34, 0.5, 1.0 - _NU34], 4, a_star=_NU34),
}


def tableau(kind: str) -> ButcherTableau:
    """Coefficients of a named scheme: ERK2/ERK3/ERK4, SDIRK23/SDIRK34."""
    try:
        return _TABLEAUX[kind.upper()]
    except KeyError:
        raise TimestepError(f"unknown tableau kind {kind!r}") from None


# ---------------------------------------------------------------------------
# linear solvers

def inverse_stack(blocks, starts, what: str) -> np.ndarray:
    """Inverses of the stacked blocks (m, s, s), by one batched inversion.

    Raises SolverError naming the offset `starts[i]` of a singular `what`
    block.
    """
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        for off, block in zip(starts, blocks):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular {what} block at offset {off}") from exc
        raise


# A Schur complement of at least this many entries is factored in float32 with
# small entries dropped, and its solves refined in float64 (`FactorizedOperator`);
# `BENCH_29.json` holds the measured series
SINGLE_MIN_ENTRIES = 1_000_000
# relative size below which the float32 LU drops an entry of its column
# (`FactorizedOperator`); `BENCH_34.json` holds the measured sweep
SINGLE_DROP_TOL = 1e-6
# accepted solves a float32 solve starts from
HISTORY = 4
# float32 LU solves one solve may apply before it is refused
MAX_CORRECTIONS = 4
# largest entry of a float32 LU solve's right-hand side, as a power of two; a
# floor of 1 is added to every entry (`FactorizedOperator`)
SINGLE_RHS_EXPONENT = 64


class FactorizedOperator:
    """Reusable LU factorization of a face Schur complement S.

    The operator reads S, given as CSR, as the CSC matrix S^T on the same
    arrays, with no copy and no transposition (Davis, Direct Methods for
    Sparse Linear Systems, SIAM 2006, ch. 2). It equilibrates S^T by
    D = |diag S|^-1/2 (`scale`; 1 where the diagonal is zero), in place in
    the arrays of a CSR S, and factors D S^T D without pivoting and with a
    minimum-degree ordering on A^T + A applied symmetrically. It keeps the
    LU and D, not S. An LU solve is the transposed solve
    x = D (D S^T D)^-T D b = S^-1 b on that LU, for any S. SuperLU's
    transposed kernel is faster than its plain one on small LUs (12% on
    `ricker`) and on the largest (5-7% at 29,929 granite-water cells), and
    4-7% slower only on mid-size LUs of 3-6M entries; `BENCH_28.json` holds
    the series.

    The operator takes the arrays of a CSR S over: it equilibrates them in
    place, and on the float32 path it puts the float32 values of D S D in
    S's place, so that S's float64 values are freed before the factor runs
    (52 MB at 9,409 granite-water cells); the float64 path factors them as
    they are.

    The precision follows from the size of S, known before the factor
    (`precision`). Below `SINGLE_MIN_ENTRIES` entries the LU is a float64
    `splu`. From that size on it is a float32
    `spilu`, on float32 values of S and its index arrays, that drops
    entries below `SINGLE_DROP_TOL` of their column: at 1e-8 it stored
    15-36% fewer entries than the float64 LU in half the value bytes
    (22.8M -> 19.5M on hexagonal L6, 177.4M -> 113.7M at 29,929
    granite-water cells). The tolerance is 1e-6, from paired sweeps of 1e-8,
    1e-6, 1e-5 and 1e-4 over 20 steps at 9,409 and 29,929 granite-water
    cells (`BENCH_34.json`): against 1e-8, 1e-6 stores 13-14% fewer
    entries (32.3M -> 28.1M, 113.7M -> 98.0M), factors in 0.8x and 0.7x
    the time and peaks 26 and 96 MB lower, and its 2-5 more LU solves per
    60 stage solves, each on a smaller LU, cost no time per step: the
    paired gap to 1e-8 has a median of -0.5 and -32 ms per step (of 177
    and 662 ms). From 1e-5 on the LU solves rise to 103-127 per 60 and a
    step takes 1.3-1.6 times as long. A full
    float32 factor is no alternative: its fill decays into subnormals, whose
    arithmetic is many times slower. At 9,409 granite-water cells it took
    9.9 s to factor against 3.3 s in float64, and 79 ms per LU solve
    against 35 ms for the dropped factor and 60 ms in float64.

    A float32 LU solve keeps its values out of the subnormals as well: it
    scales its right-hand side by the power of two that brings its largest
    entry to 2^64 (`SINGLE_RHS_EXPONENT`), adds a floor of 1 to every
    entry, and subtracts from the result the LU's solve of the floor
    alone, formed with the factor, before unscaling it. The scaling is
    exact, and the floor loses only what lies below 2^-88 of the largest
    entry. A localized right-hand side otherwise decays inside the solve:
    at 29,929 granite-water cells the scaling alone left 694 ms per LU
    solve, against 161 ms with the floor and 250 ms in float64.

    Both precisions run one `solve`: a start, then one correction
    x += LU^-1 (b - S x); `correct` applies each further one. A float32
    solve starts from the combination of the last `HISTORY` accepted
    solutions whose products S x come closest to b in the norm of D.
    Successive right-hand sides of an implicit march are close, so the start
    leaves a residual near 1e-5 and one correction meets the check. The
    weights come from the m x m Gram matrix of the stored products (m at
    most `HISTORY`), which `check` updates by one row and its mirror column
    per accepted solve, from the product it has formed: the start solves
    that matrix against the m products' dot products with b, by least
    squares, which also serves a rank-deficient history. On a history
    conditioned near 1e6 the weights differ from those of the (n, m)
    least-squares problem by up to 3e-3, and the start's residual exceeds
    the least-squares residual by under 1e-6 of it (`tests/test_timestep.py`).
    In a `hex_l6_implicit` march the (n, m) problem took 3.2 ms per start,
    the Gram matrix 0.2 ms. A float64 factor keeps no history, so its solve
    starts from zero and is one LU solve.

    A solve is checked by its equilibrated relative residual
    ||D (S x - b)|| / ||D b||, which must stay below 1e-8, from a product
    S x formed by the caller (`check`): the implicit stepper forms it from
    its stage's back pass (`CondensedFactorization.face_solve`). A solve
    that fails the check after its last LU solve, one in float64 and
    `MAX_CORRECTIONS` in float32, is refused; so is a non-finite residual.

    Equilibration and no pivoting are what make geophysical Schur
    complements solvable: their diagonal spans many orders of magnitude
    (4.7e-7 to 2.0e7 on granite-water at 1,024 cells), and the symmetric part
    of D S D is positive definite, for which LU without pivoting is stable
    (Golub & Van Loan, LAA 1979; Higham, Accuracy and Stability of Numerical
    Algorithms, 10.4). Without pivoting the fill follows from the pattern
    alone; threshold pivoting took 108.8M to 148.5M LU entries on symmetric
    permutations of the hexagonal L6 Schur complement, against 22.3M.

    The operator counts what it did: `factor_s` (seconds spent factoring),
    `lu_nnz` (entries SuperLU stores for the L and U factors, read without
    building their CSC copies, which would double the memory of the
    factors), `matrix_nnz` (entries of S), `solves`, `corrections` (LU
    solves, one per float64 solve), `max_corrections` (the most LU solves
    in one solve), `solve_s` (seconds spent inside SuperLU's solve, one
    timer pair per LU solve) and `max_residual` (largest residual the solve
    check accepted); `stats()` returns them as a dict, with the precision
    and the LU entries per face dof.
    """

    def __init__(self, matrix: sp.csr_matrix):
        self.n = matrix.shape[0]
        # S^T as CSC: the arrays of a CSR S, not copied
        transposed = matrix.T.tocsc()
        self.matrix_nnz = int(matrix.nnz)
        self.single = self.matrix_nnz >= SINGLE_MIN_ENTRIES
        self.solves = self.corrections = self.max_corrections = 0
        self.solve_s = 0.0
        self.max_residual = 0.0
        self.factor_s = 0.0
        self.lu_nnz = 0
        if self.n == 0:
            self._lu = None
            return
        start = time.perf_counter()
        try:
            diag = np.abs(transposed.diagonal())
            diag[diag == 0] = 1.0
            self.scale = 1.0 / np.sqrt(diag)
            transposed.data *= self.scale[transposed.indices]
            transposed.data *= np.repeat(self.scale, np.diff(transposed.indptr))
            ordering = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))
            if self.single:
                # float32 values on the index arrays of S, in place of the
                # float64 ones in S as well, so these are freed before the factor
                matrix.data = transposed.data = transposed.data.astype(np.float32)
                self._lu = spla.spilu(transposed, drop_tol=SINGLE_DROP_TOL,
                                      drop_rule="basic", fill_factor=30, **ordering)
            else:
                self._lu = spla.splu(transposed, **ordering)
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        except (SystemError, MemoryError) as exc:
            # SuperLU reports a work array it cannot grow as a SystemError
            # ("gstrf was called with invalid arguments"); numpy a failed
            # allocation as a MemoryError
            raise SolverError(f"factorization of {self.n} face dofs ran out of memory "
                              f"({type(exc).__name__}: {exc})") from exc
        self.factor_s = time.perf_counter() - start
        self.lu_nnz = int(self._lu.nnz)
        self._accepted = 0
        if self.single:
            self._floor = self._lu.solve(np.ones(self.n, dtype=np.float32), trans="T")
            # accepted solutions and their products D S x, filled in turn,
            # and the Gram matrix of the products
            self._history = np.empty((2, HISTORY, self.n))
            self._gram = np.empty((HISTORY, HISTORY))

    @property
    def precision(self) -> str:
        return "float32" if self.single else "float64"

    def stats(self) -> dict:
        return {"n": self.n, "precision": self.precision, "matrix_nnz": self.matrix_nnz,
                "lu_nnz": self.lu_nnz,
                "lu_nnz_per_dof": self.lu_nnz / self.n if self.n else 0.0,
                "factor_s": self.factor_s, "solves": self.solves,
                "corrections": self.corrections, "max_corrections": self.max_corrections,
                "solve_s": self.solve_s, "max_residual": self.max_residual}

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        """LU^-T of a right-hand side in the scaling D, counted and timed."""
        self._solve_corrections += 1
        self.corrections += 1
        self.max_corrections = max(self.max_corrections, self._solve_corrections)
        start = time.perf_counter()
        if not self.single:
            x = self._lu.solve(rhs, trans="T")
        else:
            top = np.max(np.abs(rhs))
            if top == 0:
                x = np.zeros(self.n)
            else:
                shift = SINGLE_RHS_EXPONENT - math.frexp(top)[1]
                scaled = np.ldexp(rhs, shift).astype(np.float32)
                scaled += 1.0
                x = self._lu.solve(scaled, trans="T")
                x -= self._floor
                x = np.ldexp(x.astype(np.float64), -shift)
        self.solve_s += time.perf_counter() - start
        return x

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x = S^-1 rhs, written to `out` if given: the start from the last
        accepted solves (zero without any, and always in float64) and one
        correction. The scaled right-hand side is kept for the check of this
        solve (`check`)."""
        if self.n == 0:
            return np.zeros(0) if out is None else out
        self.solves += 1
        self._solve_corrections = 0
        # D LU^-T (D b)
        self._rhs = self.scale * rhs
        self._norm = np.linalg.norm(self._rhs)
        out = np.empty(self.n) if out is None else out
        residual = self._rhs
        if self._accepted and np.isfinite(self._norm):
            m = min(self._accepted, HISTORY)
            solutions, products = self._history[:, :m]
            alpha = np.linalg.lstsq(self._gram[:m, :m], products @ self._rhs, rcond=None)[0]
            np.matmul(alpha, solutions, out=out)
            residual = self._rhs - alpha @ products
        else:
            out.fill(0.0)
        out += self.scale * self._lu_solve(residual)
        return out

    def correct(self, x: np.ndarray) -> None:
        """One more correction of x, the solution of the last solve, in place:
        x += LU^-1 (b - S x), from the residual its failed check kept."""
        x += self.scale * self._lu_solve(self._residual)

    def check(self, x: np.ndarray, product: np.ndarray) -> bool:
        """Check the last solve from its solution x and the product S x: True
        if ||D (S x - b)|| / ||D b|| is at most 1e-8, and the largest
        residual seen is kept in `max_residual`; False if it is not, while
        a float32 solve has corrections left (`correct`). Raises
        SolverError on a residual that is not finite or fails the check
        after the last correction. Both norms are taken in the solve's
        scaling D. A float32 solve that passes joins the history the next
        solves start from."""
        if self.n == 0 or not self._norm > 0:
            return True
        product = self.scale * product
        self._residual = self._rhs - product
        res = np.linalg.norm(self._residual) / self._norm
        if np.isfinite(res) and res <= 1e-8:
            self.max_residual = max(self.max_residual, float(res))
            if self.single:
                slot = self._accepted % HISTORY
                self._history[:, slot] = x, product
                self._accepted += 1
                m = min(self._accepted, HISTORY)
                self._gram[slot, :m] = self._gram[:m, slot] = self._history[1, :m] @ product
            return True
        done = self._solve_corrections
        if np.isfinite(res) and self.single and done < MAX_CORRECTIONS:
            return False
        raise SolverError(f"direct solve residual {res:.2e} after {done} {self.precision} "
                          f"LU solve{'s' if done > 1 else ''}; operator singular or "
                          "severely ill-conditioned")


# ---------------------------------------------------------------------------
# shared stepper helpers

def _check_finite(u, step_index):
    if not np.all(np.isfinite(u)):
        raise InstabilityError(step_index)


def _advance(u_t, dt, weights, slopes):
    """u_t + dt sum_j w_j k_j over the nonzero weights (u_t itself if none).

    The sum is accumulated in one new array, with one scratch array for the
    weighted slopes after the first, in the order of the plain expression.
    """
    acc = scratch = None
    for w, k in zip(weights, slopes):
        if w == 0.0:
            continue
        if acc is None:
            acc = np.multiply(w, k)
        else:
            if scratch is None:
                scratch = np.empty_like(acc)
            acc += np.multiply(w, k, out=scratch)
    if acc is None:
        return u_t
    acc *= dt
    acc += u_t
    return acc


class Forcing:
    """A separable load sum_j g_j(t) v_j: time factors g_j and cell vectors
    v_j (`vectors`, (J, n_cell_dofs)) fixed at set-up, from one or more terms
    (g_j, v_j). A stepper maps the vectors once and a stage scales what they
    map to (`_Stepper.step`)."""

    def __init__(self, terms):
        self.factors = tuple(g for g, _ in terms)
        self.vectors = np.stack([vec for _, vec in terms])

    def factors_at(self, t: float) -> np.ndarray:
        """The time factors g_j(t), (J,)."""
        return np.array([g(t) for g in self.factors])


class _Stepper:
    """The stage recursion both steppers share, and the face unknowns for the
    interface sensors.

    `step` is the one loop over the stages of a tableau: it forms every stage
    state and the update from a tableau row with `_advance`, gets the stage's
    slope from the stepper (`_slope(u_i, f_i)`) and checks the new state. A
    stepper whose `_slope` returns minus the slope advances by `DT_SIGN`
    dt = -dt.

    A stage's load reaches `_slope` already mapped, as f_i = sum_j g_j(t_i)
    p_j, None for an unforced stage: each term vector v_j of a `Forcing` is
    mapped once to its part p_j by the stepper (`_map_load`), on the first
    step with that load, and the parts (J, n) are kept for it until a step
    brings another load object. A stage then evaluates the J time factors
    and adds one product of them with the parts.
    """

    DT_SIGN = 1.0
    _load = _parts = None

    def step(self, u_t: np.ndarray, t: float, dt: float, forcing: Forcing | None = None,
             step_index: int = 0) -> np.ndarray:
        tab = self.tableau
        h = self.DT_SIGN * dt
        if forcing is not None and forcing is not self._load:
            self._load = forcing
            self._parts = np.stack([self._map_load(v) for v in forcing.vectors])
        slopes = []
        for i in range(tab.s):
            u_i = _advance(u_t, h, tab.a[i, :i], slopes)
            f_i = None if forcing is None else forcing.factors_at(t + tab.c[i] * dt) @ self._parts
            slopes.append(self._slope(u_i, f_i))
        u_new = _advance(u_t, h, tab.b, slopes)
        _check_finite(u_new, step_index)
        return u_new

    def face_values(self, u_t: np.ndarray) -> np.ndarray:
        """Face unknowns -K_FF^-1 K_FT u_t induced by the cell unknowns
        (`hho.BlockSystem.face_values`)."""
        return self.system.face_values(u_t)


# ---------------------------------------------------------------------------
# explicit stepper (face elimination)

class ExplicitStepper(_Stepper):
    """Face-eliminated explicit Runge-Kutta integrator.

    The face unknowns are eliminated into the system's cell operator
    L = M^-1 (K_TT + K_TF P) with P = -K_FF^-1 K_FT (`op`, built by the first
    stepper on the system); each stage then evaluates L u_i - M^-1 f_i, which
    is minus its slope, with one sparse product, so stage states and the
    update advance by -dt (`DT_SIGN`). A load's parts are M^-1 v_j, so a
    forced stage subtracts sum_j g_j(t_i) M^-1 v_j.
    """

    DT_SIGN = -1.0

    def __init__(self, system, tab: ButcherTableau):
        if not tab.explicit:
            raise TimestepError(f"{tab.kind} is not an explicit tableau")
        self.system = system
        self.tableau = tab
        self.minv = system.minv
        self.op = system.explicit_op

    def _map_load(self, v: np.ndarray) -> np.ndarray:
        """The part of a load vector: M^-1 v."""
        return self.minv @ v

    def _slope(self, u_i: np.ndarray, f_i: np.ndarray | None) -> np.ndarray:
        """Minus the slope of a stage: L u_i - M^-1 f_i, given M^-1 f_i."""
        k = self.op @ u_i
        if f_i is not None:
            k -= f_i
        return k


# ---------------------------------------------------------------------------
# implicit stepper (cell condensation)

class CondensedFactorization:
    """Condensation of the cell unknowns for one (a*, dt) pair: per congruence
    class, A_c^-1 of A_c = M_c + a* dt K_TT,c and G_c = A_c^-1 K_TF,c, the
    factored face Schur complement S = a* dt (K_FF - a* dt sum_c B_c) with
    B_c = K_FT,c G_c, and the stacked class blocks a stage applies.

    Valid for one (a*, dt) pair; reused across stages and steps. A stage
    applies two stacked blocks per class, each an (n + L) x c block over one
    segment of the system's `cell_classes` store, applied by that store in
    one pass (`CellClasses.apply`): `stage_blocks`
    [(A^-1 M - I) / (a* dt); -a* dt K_FT A^-1 M] on a stage's start state
    and `back_blocks` [G; a* dt (K_FF,c - a* dt B_c)] on its face unknowns.
    A third, `forcing_blocks` [A^-1; -(a* dt)^2 K_FT A^-1], maps each term
    vector of a load once (`ImplicitStepper`), and a forced stage adds the
    stored parts scaled by its time factors. In the back blocks K_FF,c are
    the cell's own face-face blocks, block-diagonal over its faces. What the
    back pass adds onto the face dofs is S u_f without the interface
    coupling, which `back_pass` adds from `coupling`: the rows
    `coupling_rows` of a* dt times the system's `coupling` (CSR).

    S is assembled once, before the stage and forcing blocks: the face parts
    a* dt (K_FF,c - a* dt B_c) of the back blocks and the interface
    coupling are written into the arrays of S's pattern, which the system
    lays out once (`BlockSystem.face_graph`, `CellClasses.face_matrix`).
    These arrays are the only copy of S: `schur_solver`, its direct LU
    (`FactorizedOperator`), takes them over, equilibrates them and factors
    S^T from them, in float32 after freeing the float64 values. S is
    dropped once factored.
    `build_s` is the time spent before the factorization, and
    `build_rss_mb` and `build_current_rss_mb` the process's peak and current
    RSS once S is built, before the LU (`peak_rss_mb`, `current_rss_mb`).
    B_c is symmetric in exact arithmetic and is replaced by (B_c + B_c^T) / 2,
    the form the goldens were locked on. Unsymmetrized, B_c is off by
    round-off that grows with the degree and the material contrast: up to
    1.4e-8 of its norm on the simplicial L2 golden mesh under granite-water
    at k=3 (dt = 0.01), against 1.2e-15 on the cartesian one under academic
    materials at k=1.

    `face_solve` is a stage's whole face solve, from the Schur right-hand
    side to G u_f: the LU solve, the back pass, its check and the
    corrections a float32 solve may need. The face unknowns live in a buffer
    padded with the zero the back pass gathers for Dirichlet faces.
    """

    def __init__(self, system, a_star: float, dt: float):
        if dt <= 0:
            raise TimestepError("time step must be positive")
        start = time.perf_counter()
        self.system = system
        self.a_star = float(a_star)
        self.dt = float(dt)
        ad = self.a_star * self.dt
        store = self.store = system.cell_classes
        inverse = {shape: inverse_stack(blk["mass"] + ad * blk["k_tt"],
                                        system.layout.cell_offset[blk["cells"]], "condensed cell")
                   for shape, blk in store.blocks.items()}
        # a* dt times the interface coupling, the only entries of S linking
        # the two sides of the interface
        coupling = ad * system.coupling
        self.coupling_rows = np.flatnonzero(np.diff(coupling.indptr))
        self.coupling = coupling[self.coupling_rows]
        back, faces = {}, {}
        for shape, blk in store.blocks.items():
            g = inverse[shape] @ blk["k_tf"]
            # B_c = K_FT,c G_c, symmetrized
            b_c = blk["k_ft"] @ g
            b_c = 0.5 * (b_c + np.swapaxes(b_c, 1, 2))
            # the cell's face-face blocks (classes, n_v, s, s), block-diagonal over its faces
            k_ff = blk["k_ff"]
            k_ff = np.einsum("cvab,vw->cvawb", k_ff, np.eye(k_ff.shape[1])).reshape(b_c.shape)
            back[shape] = np.concatenate((g, ad * (k_ff - ad * b_c)), 1)
            faces[shape] = back[shape][:, g.shape[1]:]
        # S: the back blocks' face parts over the coupling, handed to its LU,
        # which takes its arrays over
        schur = store.face_matrix(faces, coupling, system.face_graph)
        self.build_s = time.perf_counter() - start
        self.build_current_rss_mb, self.build_rss_mb = current_rss_mb(), peak_rss_mb()
        self.schur_solver = FactorizedOperator(schur)
        del schur

        stage, forcing = {}, {}
        for shape, blk in store.blocks.items():
            a_m = inverse[shape] @ blk["mass"]
            n = a_m.shape[-1]
            stage[shape] = np.concatenate(((a_m - np.eye(n)) / ad, -ad * (blk["k_ft"] @ a_m)), 1)
            forcing[shape] = np.concatenate((inverse[shape],
                                             -ad * ad * (blk["k_ft"] @ inverse[shape])), 1)
        self.stage_blocks = store.segment_blocks(stage)
        self.forcing_blocks = store.segment_blocks(forcing)
        self.back_blocks = store.segment_blocks(back)
        self._u_f = np.zeros(system.n_face_dofs + 1)

    def back_pass(self, u_f: np.ndarray) -> tuple:
        """(G u_f, S u_f) for face values u_f padded with a trailing zero: the
        back pass, whose face part is S u_f without the interface coupling,
        completed in place by the coupling's rows."""
        g_u_f, s_u_f = self.store.apply(self.back_blocks, u_f, "face")
        s_u_f[self.coupling_rows] += self.coupling @ u_f[:-1]
        return g_u_f, s_u_f

    def face_solve(self, rhs: np.ndarray) -> np.ndarray:
        """G u_f for the face unknowns u_f = S^-1 rhs of a stage: the LU solve
        (`FactorizedOperator.solve`), then the back pass and the check of
        S u_f (`FactorizedOperator.check`), and a correction
        (`FactorizedOperator.correct`) before each further back pass until
        the check accepts."""
        solver = self.schur_solver
        u_f = solver.solve(rhs, out=self._u_f[:-1])
        while True:
            g_u_f, s_u_f = self.back_pass(self._u_f)
            if solver.check(u_f, s_u_f):
                return g_u_f
            solver.correct(u_f)


class ImplicitStepper(_Stepper):
    """Cell-condensed singly diagonal implicit Runge-Kutta integrator.

    Stage i starts from u~_i = u_t + dt sum_{j<i} a_ij k_j and solves
    (M + a* dt K_TT) u_i + a* dt K_TF u_f = M u~_i + a* dt f_i together with
    K_FT u_i + K_FF u_f = 0; its slope is
    k_i = (u_i - u~_i) / (a* dt) = (A^-1 M - I) u~_i / (a* dt) + A^-1 f_i - G u_f
    with u_f = S^-1 (-a* dt K_FT A^-1 M u~_i - (a* dt)^2 K_FT A^-1 f_i), and
    the step is u_t + dt sum_j b_j k_j (`_Stepper.step`). A stage's slope
    (`_slope`) is the stage blocks of `fact` on u~_i, which give the slope's
    cell part and the Schur right-hand side, less the G u_f of its face solve
    (`CondensedFactorization.face_solve`). A forced stage adds the forcing
    blocks' pass on f_i to both: sum_j g_j(t_i) times the pass on each term
    vector v_j of its load, stored once per load (`_map_load`), in place of a
    sum, a sort and a class pass per stage.
    The only block-diagonal matrix inverted is M + a* dt K_TT, condensed
    once, for the stepper's dt (`fact`); a step of any other dt is refused.
    A step runs in the class order of the system's `cell_classes`: the state
    is sorted once on entry and the update unsorted once on exit.
    """

    def __init__(self, system, tab: ButcherTableau, dt: float):
        if tab.explicit:
            raise TimestepError(f"{tab.kind} is not a singly diagonal implicit tableau")
        self.system = system
        self.tableau = tab
        self.dt = float(dt)
        self.fact = CondensedFactorization(system, tab.a_star, dt)

    def step(self, u_t: np.ndarray, t: float, dt: float, forcing=None,
             step_index: int = 0) -> np.ndarray:
        if abs(dt - self.dt) > 1e-15 * max(1.0, self.dt):
            raise TimestepError("stale condensed factorization: dt changed; rebuild")
        store = self.fact.store
        return store.unsort(super().step(store.sort(u_t), t, dt, forcing, step_index))

    def _map_load(self, v: np.ndarray) -> np.ndarray:
        """The part of a load vector: the forcing pass on it, class-ordered,
        its cell part followed by its face part."""
        store = self.fact.store
        return np.concatenate(store.apply(self.fact.forcing_blocks, store.sort(v)))

    def _slope(self, u_i: np.ndarray, f_i: np.ndarray | None) -> np.ndarray:
        """The slope of a stage from its class-ordered start state and the
        forcing pass on its load."""
        fact = self.fact
        k, rhs = fact.store.apply(fact.stage_blocks, u_i)
        if f_i is not None:
            k += f_i[:len(k)]
            rhs += f_i[len(k):]
        k -= fact.face_solve(rhs)
        return k


# ---------------------------------------------------------------------------
# time loop

def run_time_loop(stepper, u0, dt, n_steps, forcing=None, observer=None):
    """Advance `n_steps` of constant dt from t = 0; returns the final state.

    `observer(n, t, u)` sees the initial state (n = 0) and the state after
    every step; it stops the run by raising `InstabilityError(n)`.
    """
    u = np.asarray(u0, dtype=float)
    if observer is not None:
        observer(0, 0.0, u)
    for n in range(1, n_steps + 1):
        u = stepper.step(u, (n - 1) * dt, dt, forcing, step_index=n)
        if observer is not None:
            observer(n, n * dt, u)
    return u

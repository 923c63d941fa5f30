"""Runge-Kutta time integration of the semi-discrete block system.

Explicit schemes eliminate the face unknowns once, at set-up: the face-face
stiffness is block-diagonal per face and the mass is block-diagonal per cell,
so L = M^-1 (K_TT - K_TF K_FF^-1 K_FT) is a fixed sparse cell operator and
each stage is one sparse product with it. Implicit (singly diagonal) schemes
condense the cell unknowns instead: the block-diagonal M + a* dt K_TT is
inverted once, a face-coupled Schur complement is assembled and factored
once, and both are reused across stages and steps while (a*, dt) is
unchanged. Every block-diagonal inverse (M^-1, K_FF^-1, (M + a* dt K_TT)^-1)
comes from `hho.BlockDiagonal.inverse`, one batched inversion per block
size.

The Schur complement is structurally symmetric, so its direct LU orders the
columns by minimum degree on the pattern of A^T + A (SuperLU's
MMD_AT_PLUS_A), which leaves less fill than SuperLU's default COLAMD
ordering (about half from 10^4 face unknowns on). Each implicit stage
recovers its residual from the stage equation it has just solved instead of
applying the stiffness blocks again (see `ImplicitStepper`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
    """Runge-Kutta coefficients with the final-combination row appended.

    `a` has shape (s+1, s): rows 1..s are the stage rows, row s+1 holds the
    weights b (the update is treated as one extra explicit stage).
    """

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
        if abs(self.b.sum() - 1.0) > 1e-13:
            raise TimestepError("tableau weights must sum to 1")
        rowsum = self.a[:self.s].sum(axis=1)
        diag = 0.0 if self.a_star is None else self.a_star
        if np.max(np.abs(rowsum - self.c)) > 1e-13:
            raise TimestepError("tableau row sums must equal the nodes c")
        for i in range(self.s):
            if self.a_star is not None and abs(self.a[i, i] - diag) > 1e-14:
                raise TimestepError("singly diagonal tableau requires a constant diagonal")


_SQRT3 = math.sqrt(3.0)
_NU34 = math.cos(math.pi / 18.0) / _SQRT3 + 0.5
_XI34 = 1.0 / (6.0 * (2.0 * _NU34 - 1.0) ** 2)
_A23 = 0.5 + _SQRT3 / 6.0


def _full(kind, s, rows, b, c, order, a_star=None):
    a = np.zeros((s + 1, s))
    for i, row in enumerate(rows):
        a[i, :len(row)] = row
    a[s, :] = b
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

@dataclass(frozen=True)
class SolverConfig:
    kind: str = "direct-lu"      # 'direct-lu' | 'bicgstab-ilu0'
    tol: float = 1e-10
    maxiter: int = 2000

    def __post_init__(self):
        if self.kind not in ("direct-lu", "bicgstab-ilu0"):
            raise SolverError(f"unknown solver kind {self.kind!r}")
        if self.tol <= 0:
            raise SolverError("solver tolerance must be positive")


class FactorizedOperator:
    """Reusable factorization (direct LU or ILU-preconditioned BiCGStab).

    The direct LU uses a minimum-degree column ordering on A^T + A, and every
    direct solve is checked by its relative residual, which must stay below
    1e-8. The operator counts what it did: `factor_s` (seconds spent
    factoring), `lu_nnz` (entries SuperLU stores for the L and U factors,
    read without building their CSC copies, which would double the memory
    of the factors), `matrix_nnz`, `solves` and `max_residual` (largest
    residual the direct-solve check saw); `stats()` returns them as a dict.
    """

    def __init__(self, matrix: sp.spmatrix, config: SolverConfig):
        self.config = config
        self.n = matrix.shape[0]
        matrix = matrix.tocsc()
        self._matrix = matrix
        self.matrix_nnz = int(matrix.nnz)
        self.solves = 0
        self.max_residual = 0.0
        self.factor_s = 0.0
        self.lu_nnz = 0
        if self.n == 0:
            self._lu = None
            return
        start = time.perf_counter()
        try:
            if config.kind == "direct-lu":
                self._lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
                factors = self._lu
            else:
                self._ilu = spla.spilu(matrix, drop_tol=1e-12, fill_factor=1.0)
                self._lu = None
                factors = self._ilu
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        except (SystemError, MemoryError) as exc:
            # SuperLU reports a work array it cannot grow as a SystemError
            # ("gstrf was called with invalid arguments"); numpy a failed
            # allocation as a MemoryError
            raise SolverError(f"factorization of {self.n} face dofs ran out of memory "
                              f"({type(exc).__name__}: {exc})") from exc
        self.factor_s = time.perf_counter() - start
        self.lu_nnz = int(factors.nnz)

    def stats(self) -> dict:
        return {"kind": self.config.kind, "n": self.n, "matrix_nnz": self.matrix_nnz,
                "lu_nnz": self.lu_nnz, "factor_s": self.factor_s, "solves": self.solves,
                "max_residual": self.max_residual}

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.n == 0:
            return np.zeros(0)
        self.solves += 1
        if self.config.kind == "direct-lu":
            x = self._lu.solve(rhs)
            nrm = np.linalg.norm(rhs)
            if nrm > 0:
                res = np.linalg.norm(self._matrix @ x - rhs) / nrm
                if not np.isfinite(res) or res > 1e-8:
                    raise SolverError(f"direct solve residual {res:.2e}; "
                                      "operator singular or severely ill-conditioned")
                self.max_residual = max(self.max_residual, float(res))
            return x
        precond = spla.LinearOperator((self.n, self.n), matvec=self._ilu.solve)
        x, info = spla.bicgstab(self._matrix, rhs, rtol=self.config.tol, atol=0.0,
                                maxiter=self.config.maxiter, M=precond)
        if info > 0:
            raise SolverError(f"BiCGStab did not converge within {self.config.maxiter} "
                              "iterations")
        if info < 0:
            raise SolverError("BiCGStab breakdown")
        return x


# ---------------------------------------------------------------------------
# shared stepper helpers

def _check_finite(u, step_index):
    if not np.all(np.isfinite(u)):
        raise InstabilityError(step_index)


def _forcing_at(forcing, t):
    return None if forcing is None else forcing(t)


class _Stepper:
    """What both steppers share: face unknowns for the interface sensors."""

    _kff_inv = None

    def face_values(self, u_t: np.ndarray) -> np.ndarray:
        """Face unknowns -K_FF^-1 K_FT u_t induced by the cell unknowns."""
        sysm = self.system
        if sysm.n_face_dofs == 0:
            return np.zeros(0)
        if self._kff_inv is None:
            self._kff_inv = sysm.kff_blocks.inverse("face stiffness").tocsr()
        return -(self._kff_inv @ (sysm.k_ft @ u_t))


# ---------------------------------------------------------------------------
# explicit stepper (face elimination)

class ExplicitStepper(_Stepper):
    """Face-eliminated explicit Runge-Kutta integrator.

    The face unknowns are eliminated once, at construction, into the cell
    operator L = M^-1 (K_TT - K_TF K_FF^-1 K_FT); each stage then evaluates
    k_i = L u_i - M^-1 f_i with one sparse product, and u_i = u_t - dt sum_j a_ij k_j.
    """

    def __init__(self, system, tab: ButcherTableau):
        if not tab.explicit:
            raise TimestepError(f"{tab.kind} is not an explicit tableau")
        self.system = system
        self.tableau = tab
        self.minv = system.mass_blocks.inverse("cell mass").tocsr()
        # raises if a face block is singular
        self._kff_inv = system.kff_blocks.inverse("face stiffness").tocsr()
        k_cond = system.k_tt - system.k_tf @ (self._kff_inv @ system.k_ft)
        self.op = (self.minv @ k_cond).tocsr()

    def step(self, u_t: np.ndarray, t: float, dt: float, forcing=None,
             step_index: int = 0) -> np.ndarray:
        tab = self.tableau
        stage_k = []
        u_i = u_t
        for i in range(tab.s + 1):
            if i > 0:
                acc = None
                for j in range(i):
                    aij = tab.a[i, j]
                    if aij == 0.0:
                        continue
                    acc = aij * stage_k[j] if acc is None else acc + aij * stage_k[j]
                u_i = u_t if acc is None else u_t - dt * acc
            if i == tab.s:
                break
            k = self.op @ u_i
            f = _forcing_at(forcing, t + tab.c[i] * dt)
            if f is not None:
                k -= self.minv @ f
            stage_k.append(k)
        _check_finite(u_i, step_index)
        return u_i


# ---------------------------------------------------------------------------
# implicit stepper (cell condensation)

class CondensedFactorization:
    """Block inverse of M + a* dt K_TT plus the factored face Schur complement.

    Valid for one (a*, dt) pair; reused across stages and steps.
    """

    def __init__(self, system, a_star: float, dt: float, solver: SolverConfig):
        if dt <= 0:
            raise TimestepError("time step must be positive")
        self.system = system
        self.a_star = float(a_star)
        self.dt = float(dt)
        self.solver = solver
        ad = self.a_star * self.dt
        blocks = system.mass_blocks + ad * system.ktt_blocks
        self.a_inv = blocks.inverse("condensed cell").tocsr()
        if system.n_face_dofs:
            schur = ad * (system.k_ff - ad * (system.k_ft @ (self.a_inv @ system.k_tf)))
            self.schur = schur.tocsr()
            self.schur_solver = FactorizedOperator(self.schur, solver)
        else:
            self.schur = sp.csr_matrix((0, 0))
            self.schur_solver = None

    def matches(self, a_star: float, dt: float) -> bool:
        return (abs(self.a_star - a_star) <= 1e-15 * max(1.0, abs(a_star))
                and abs(self.dt - dt) <= 1e-15 * max(1.0, dt))

    def stage_solve(self, b_t: np.ndarray, b_f: np.ndarray):
        """Solve one implicit stage: returns (cell unknowns, face unknowns)."""
        ad = self.a_star * self.dt
        z = self.a_inv @ b_t
        if self.system.n_face_dofs:
            rhs_f = b_f - ad * (self.system.k_ft @ z)
            u_f = self.schur_solver.solve(rhs_f)
            u_t = self.a_inv @ (b_t - ad * (self.system.k_tf @ u_f))
        else:
            u_f = np.zeros(0)
            u_t = z
        return u_t, u_f


class ImplicitStepper(_Stepper):
    """Cell-condensed singly diagonal implicit Runge-Kutta integrator.

    Stage i solves (M + a* dt K_TT) u_i + a* dt K_TF u_f = b_t with
    b_t = c_i + a* dt F_i, c_i = M u_t + dt sum_{j<i} a_ij r_j, together with
    K_FT u_i + K_FF u_f = 0 (a zero face right-hand side). Its residual
    r_i = F_i - K_TT u_i - K_TF u_f therefore equals (M u_i - c_i) / (a* dt),
    and its face residual K_FT u_i + K_FF u_f is zero, so neither needs the
    stiffness blocks. The step is u_t + dt M^-1 sum_j b_j r_j.
    """

    def __init__(self, system, tab: ButcherTableau, dt: float,
                 solver: SolverConfig | None = None,
                 factorization: CondensedFactorization | None = None):
        if tab.explicit:
            raise TimestepError(f"{tab.kind} is not a singly diagonal implicit tableau")
        self.system = system
        self.tableau = tab
        self.solver = solver or SolverConfig()
        self.dt = float(dt)
        if factorization is None:
            factorization = CondensedFactorization(system, tab.a_star, dt, self.solver)
        if not factorization.matches(tab.a_star, dt):
            raise TimestepError("stale condensed factorization: (a*, dt) mismatch")
        self.fact = factorization
        self.minv = system.mass_blocks.inverse("cell mass").tocsr()

    def step(self, u_t: np.ndarray, t: float, dt: float, forcing=None,
             step_index: int = 0) -> np.ndarray:
        if abs(dt - self.dt) > 1e-15 * max(1.0, self.dt):
            raise TimestepError("stale condensed factorization: dt changed; rebuild")
        mass = self.system.mass
        tab = self.tableau
        ad = tab.a_star * dt
        m_u = mass @ u_t
        zero_f = np.zeros(self.system.n_face_dofs)
        stage_r = []     # cell residuals F - K_TT u - K_TF u_f, per stage
        for i in range(tab.s):
            c_i = m_u
            for j in range(i):
                aij = tab.a[i, j]
                if aij != 0.0:
                    c_i = c_i + dt * aij * stage_r[j]
            f_i = _forcing_at(forcing, t + tab.c[i] * dt)
            b_t = c_i if f_i is None else c_i + ad * f_i
            u_i, _ = self.fact.stage_solve(b_t, zero_f)
            stage_r.append((mass @ u_i - c_i) / ad)
        acc = None
        for j in range(tab.s):
            bj = tab.b[j]
            if bj == 0.0:
                continue
            acc = bj * stage_r[j] if acc is None else acc + bj * stage_r[j]
        u_new = u_t if acc is None else u_t + dt * (self.minv @ acc)
        _check_finite(u_new, step_index)
        return u_new


# ---------------------------------------------------------------------------
# time loop

def run_time_loop(stepper, u0, dt, n_steps, t0=0.0, forcing=None, observer=None):
    """Advance `n_steps` with constant dt; calls observer(step, t, u) after each."""
    u = np.asarray(u0, dtype=float)
    t = t0
    if observer is not None:
        observer(0, t, u)
    for n in range(1, n_steps + 1):
        u = stepper.step(u, t, dt, forcing, step_index=n)
        t = t0 + n * dt
        if observer is not None:
            observer(n, t, u)
    return u

"""Physical test cases, diagnostics and the empirical CFL bracketing loop.

The sinusoidal manufactured case derives all exact fields, volume sources and
boundary data in closed form from an acoustic potential and an elastic
displacement; the time dependence is separable, so forcing vectors are
assembled once per run (`timestep.Forcing`), mapped once by each stepper
and rescaled per stage. The Ricker case is an initial
radial velocity pulse in the fluid with homogeneous boundary data and no
sources. Stability of explicit runs is assessed by monitoring the discrete
energy and bracketing the step count at which the relative energy increase
first exceeds a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hho, mesh as msh, timestep
from .basis import cell_monomials, face_monomials, face_rule
from .materials import FluidMaterial, MaterialMap, SolidMaterial


class ScenarioError(Exception):
    pass


# ---------------------------------------------------------------------------
# built-in material sets

def builtin_materials(name: str) -> MaterialMap:
    """Named material sets: 'academic', 'granite-water', 'basin'."""
    if name == "academic":
        return MaterialMap.uniform(
            FluidMaterial.from_speeds(rho=1.0, c_p=1.0),
            SolidMaterial.from_speeds(rho=1.0, c_p=math.sqrt(3.0), c_s=1.0),
        )
    if name == "granite-water":
        return MaterialMap.uniform(
            FluidMaterial.from_speeds(rho=1025.0, c_p=1500.0),
            SolidMaterial.from_speeds(rho=2690.0, c_p=6000.0, c_s=3000.0),
        )
    if name == "basin":
        return MaterialMap(by_region={
            "atmosphere": FluidMaterial.from_speeds(rho=1.225, c_p=343.0),
            "sediments": SolidMaterial.from_speeds(rho=1300.0, c_p=1600.0, c_s=900.0),
            "bedrock": SolidMaterial.from_speeds(rho=2570.0, c_p=5350.0, c_s=3009.0),
        })
    raise ScenarioError(f"unknown material set {name!r}")


# ---------------------------------------------------------------------------
# manufactured sinusoidal case

# the frequencies of the case when neither a config nor a caller names them
MANUFACTURED_OMEGA = 5.0
MANUFACTURED_THETA = math.sqrt(2.0)


@dataclass(frozen=True)
class ManufacturedCase:
    """Separable sinusoidal solution driven by spatial/temporal frequencies.

    Acoustic potential u = x^2 sin(w pi x) sin(w pi y) sin(th pi t) with
    p = du/dt and m = grad u; elastic displacement with equal components
    x^2 cos(w pi x / 2) sin(w pi y) cos(th pi t), v = du/dt and stress from
    the strain through the Hooke law. Sources and boundary data follow by
    inserting these fields into the governing equations. The dual-variable
    equations are source-free, which pins the fluid density to 1.
    """

    omega: float
    theta: float
    materials: MaterialMap

    def __post_init__(self):
        fl = self.materials.by_region.get("fluid")
        if fl is not None and abs(fl.rho - 1.0) > 1e-12:
            raise ScenarioError("the manufactured case requires unit fluid density")

    # -- fluid ------------------------------------------------------------
    def _fluid_spatial(self, pts):
        a = self.omega * math.pi
        x, y = pts[:, 0], pts[:, 1]
        return x, y, np.sin(a * x), np.cos(a * x), np.sin(a * y), np.cos(a * y)

    def pressure_profile(self, pts):
        """Spatial factor of p; p(t) = profile * cos(theta pi t)."""
        x, _, sx, _, sy, _ = self._fluid_spatial(np.atleast_2d(pts))
        return self.theta * math.pi * x**2 * sx * sy

    def fluid_velocity_profile(self, pts):
        """Spatial factor of m; m(t) = profile * sin(theta pi t)."""
        pts = np.atleast_2d(pts)
        a = self.omega * math.pi
        x, _, sx, cx, sy, cy = self._fluid_spatial(pts)
        mx = (2 * x * sx + a * x**2 * cx) * sy
        my = a * x**2 * sx * cy
        return np.column_stack([mx, my])

    def fluid_source_profile(self, pts):
        """Spatial factor of the acoustic source; f(t) = profile * sin(theta pi t)."""
        pts = np.atleast_2d(pts)
        a = self.omega * math.pi
        b = self.theta * math.pi
        kappa = self.materials.by_region["fluid"].kappa
        x, _, sx, cx, sy, _ = self._fluid_spatial(pts)
        lap = (2 * sx + 4 * a * x * cx - 2 * a**2 * x**2 * sx) * sy
        return -(b**2 / kappa) * x**2 * sx * sy - lap

    def exact_fluid_velocity(self, t, pts):
        return self.fluid_velocity_profile(pts) * math.sin(self.theta * math.pi * t)

    # -- solid ------------------------------------------------------------
    def _w_derivatives(self, pts):
        """Displacement profile w = x^2 cos(w pi x/2) sin(w pi y) and derivatives."""
        pts = np.atleast_2d(pts)
        a = self.omega * math.pi
        c2 = 0.5 * a
        x, y = pts[:, 0], pts[:, 1]
        cxh, sxh = np.cos(c2 * x), np.sin(c2 * x)
        sy, cy = np.sin(a * y), np.cos(a * y)
        w = x**2 * cxh * sy
        wx = (2 * x * cxh - c2 * x**2 * sxh) * sy
        wy = a * x**2 * cxh * cy
        wxx = (2 * cxh - 2 * a * x * sxh - c2**2 * x**2 * cxh) * sy
        wyy = -(a**2) * x**2 * cxh * sy
        wxy = (2 * x * cxh - c2 * x**2 * sxh) * a * cy
        return w, wx, wy, wxx, wyy, wxy

    def solid_velocity_profile(self, pts):
        """Spatial factor of v; v(t) = profile * sin(theta pi t)."""
        w, *_ = self._w_derivatives(pts)
        amp = -self.theta * math.pi * w
        return np.column_stack([amp, amp])

    def stress_profile(self, pts):
        """Spatial factor of the stress (xx, yy, xy); s(t) = profile * cos(theta pi t)."""
        solid: SolidMaterial = self.materials.by_region["solid"]
        _, wx, wy, *_ = self._w_derivatives(pts)
        div = wx + wy
        sxx = 2 * solid.mu * wx + solid.lam * div
        syy = 2 * solid.mu * wy + solid.lam * div
        sxy = solid.mu * (wx + wy)
        return np.column_stack([sxx, syy, sxy])

    def solid_source_profile(self, pts):
        """Spatial factor of the elastic source; f(t) = profile * cos(theta pi t)."""
        solid: SolidMaterial = self.materials.by_region["solid"]
        b = self.theta * math.pi
        w, _, _, wxx, wyy, wxy = self._w_derivatives(pts)
        lap = wxx + wyy
        fx = -(solid.rho * b**2 * w + solid.mu * lap + (solid.lam + solid.mu) * (wxx + wxy))
        fy = -(solid.rho * b**2 * w + solid.mu * lap + (solid.lam + solid.mu) * (wxy + wyy))
        return np.column_stack([fx, fy])

    def exact_stress(self, t, pts):
        return self.stress_profile(pts) * math.cos(self.theta * math.pi * t)

    # -- run plumbing -------------------------------------------------------
    def initial_fields(self) -> dict:
        return {
            "pressure": self.pressure_profile,
            "fluid_velocity": None,          # sin(0) = 0
            "solid_velocity": None,
            "stress": self.stress_profile,
        }

    def time_factors(self):
        b = self.theta * math.pi
        return {
            "fluid_source": lambda t: math.sin(b * t),
            "solid_source": lambda t: math.cos(b * t),
            "fluid_boundary": lambda t: math.cos(b * t),
            "solid_boundary": lambda t: math.sin(b * t),
        }


def manufactured_forcing(system: hho.BlockSystem,
                         case: ManufacturedCase) -> timestep.Forcing:
    """Precompute the separable forcing terms of the manufactured case."""
    factors = case.time_factors()
    terms = [
        (factors["fluid_source"], hho.load_moments(system, fluid_fn=case.fluid_source_profile)),
        (factors["solid_source"], hho.load_moments(system, solid_fn=case.solid_source_profile)),
    ]
    if system.layout.n_dirichlet_dofs:
        b_fluid = system.project_dirichlet(fluid_trace=case.pressure_profile)
        b_solid = system.project_dirichlet(solid_trace=case.solid_velocity_profile)
        terms.append((factors["fluid_boundary"], system.dirichlet_lift(b_fluid)))
        terms.append((factors["solid_boundary"], system.dirichlet_lift(b_solid)))
    return timestep.Forcing(terms)


def manufactured_initial_state(system: hho.BlockSystem, case: ManufacturedCase) -> np.ndarray:
    return hho.project_state(system, case.initial_fields())


# ---------------------------------------------------------------------------
# Ricker wavelet initial condition

@dataclass(frozen=True)
class RickerConfig:
    """Radial initial velocity pulse in the fluid subdomain.

    amplitude [Hz] scales the pulse; the width is the acoustic wavelength
    at the central frequency, lambda = c_p / f_c.
    """

    amplitude: float = 1.0
    central_frequency: float = 10.0
    center: tuple = (0.0, 0.0)
    sound_speed: float = 1.0

    @property
    def wavelength(self) -> float:
        lam = self.sound_speed / self.central_frequency
        if lam <= 0:
            raise ScenarioError("Ricker wavelength must be positive")
        return lam

    def initial_velocity(self, pts):
        pts = np.atleast_2d(pts)
        lam = self.wavelength
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        r2 = dx * dx + dy * dy
        amp = self.amplitude * np.exp(-(math.pi**2) * r2 / lam**2)
        return np.column_stack([amp * dx, amp * dy])

    def initial_fields(self) -> dict:
        return {"pressure": None, "fluid_velocity": self.initial_velocity,
                "solid_velocity": None, "stress": None}


def ricker_initial_state(system: hho.BlockSystem, config: RickerConfig) -> np.ndarray:
    return hho.project_state(system, config.initial_fields())


# ---------------------------------------------------------------------------
# energy and error diagnostics

def energy(u_t: np.ndarray, system: hho.BlockSystem) -> float:
    """Discrete energy: half the weighted mass quadratic form of the cell state.

    An equal-order system serves the explicit path, which holds its
    operators as CSR, and applies M as CSR too: the floored CSR skips the
    zeros of the dense class blocks and takes 0.3-0.8 of their time
    (cartesian and hexagonal L4, k=1 and 3). Any other system applies M by
    its class blocks in class order, so an implicit run forms no CSR of M.
    """
    if system.config.order_mode == "equal":
        return 0.5 * float(u_t @ (system.mass.tocsr() @ u_t))
    store = system.cell_classes
    u_c = store.sort(u_t)
    return 0.5 * float(u_c @ store.apply(system.mass.blocks, u_c, parts=("cell",))[0])


def l2_error_dual(u_t: np.ndarray, system: hho.BlockSystem, case: ManufacturedCase,
                  t: float) -> float:
    """L2 errors of the cellwise dual variables against the exact fields, on
    the class rules (`hho.CellClasses.rules`).

    Returns the fluid-velocity error norm plus the stress error norm (the
    off-diagonal stress component counting twice in the Frobenius norm).
    """
    layout = system.layout
    squares = {msh.FLUID: 0.0, msh.SOLID: 0.0}
    for rule in system.cell_classes.rules():
        sub = rule.subdomain
        if sub == msh.FLUID:
            exact, weight = case.exact_fluid_velocity, np.ones(2)
        else:
            exact, weight = case.exact_stress, np.array([1.0, 1.0, 2.0])
        coeff = u_t[layout.cell_dofs(rule.cells, "dual")].reshape(len(rule.cells), -1, len(weight))
        diff = rule.basis(layout.k)[rule.member] @ coeff - rule.sample(lambda pts: exact(t, pts))
        squares[sub] += float(np.sum(rule.weights[rule.member] * (diff ** 2 @ weight)))
    return math.sqrt(squares[msh.FLUID]) + math.sqrt(squares[msh.SOLID])


def sensor_error(traces: np.ndarray, reference: np.ndarray) -> float:
    """Discrete-in-time relative l2 error of one channel group against a reference.

    `traces` and `reference` are (n_times, n_channels) arrays sampled at the
    same time nodes.
    """
    traces = np.atleast_2d(np.asarray(traces, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if traces.shape != reference.shape:
        raise ScenarioError("trace and reference shapes differ")
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        raise ScenarioError("reference trace has zero norm")
    return float(np.linalg.norm(traces - reference)) / ref_norm


# ---------------------------------------------------------------------------
# sensors

@dataclass(frozen=True)
class SensorSpec:
    """Virtual recording point: kind 'fluid', 'solid' or 'interface'."""

    position: tuple
    kind: str
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("fluid", "solid", "interface"):
            raise ScenarioError(f"unknown sensor kind {self.kind!r}")


class BoundSensor:
    """Sensor bound to its mesh entities as fixed linear functionals of the state.

    Each kind is a table of terms, one per polynomial read at the point:
    channel names, 'cell' or 'face', entity id, cell part or face side, and
    the basis row at the point. A term with n channel names reads n
    interleaved components, so its channels are row @ u[dofs].reshape(-1, n).
    """

    def __init__(self, spec: SensorSpec, system: hho.BlockSystem):
        self.spec = spec
        mesh = system.mesh
        layout = system.layout
        point = np.asarray(spec.position, dtype=float)

        def cell_row(ci, degree):
            return cell_monomials(point[None], mesh.cell_centroid[ci],
                                  0.5 * mesh.cell_diameter[ci], degree)[0]

        if spec.kind == "interface":
            fi = _interface_face(mesh, point, spec)
            self.normal = mesh.face_normal[fi].copy()
            f = face_rule(mesh, fi, 0)      # its midpoint, tangent and half length
            face_row = face_monomials(point[None], f.midpoints, f.tangents, f.halves, layout.k)[0]
            fluid = int(mesh.face_neighbor[fi])   # interface owner is solid
            solid = int(mesh.face_owner[fi])
            table = [
                (("pF",), "face", fi, "fluid", face_row),
                (("mx", "my"), "cell", fluid, "dual", cell_row(fluid, layout.k)),
                (("vFx", "vFy"), "face", fi, "solid", face_row),
                (("sxx", "syy", "sxy"), "cell", solid, "dual", cell_row(solid, layout.k)),
            ]
        else:
            # a point on the interface binds to a cell of the sensor's own side
            fluid = spec.kind == "fluid"
            self.cell = ci = mesh.locate_cell(point, subdomain=msh.FLUID if fluid else msh.SOLID)
            table = [
                (("p",) if fluid else ("vx", "vy"), "cell", ci, "primal",
                 cell_row(ci, layout.k_prime)),
                (("mx", "my") if fluid else ("sxx", "syy", "sxy"), "cell", ci, "dual",
                 cell_row(ci, layout.k)),
            ]
        self.channels = [name for names, *_ in table for name in names]
        # (reads face values, dofs, row, components) per term
        self.terms = [
            (source == "face",
             layout.face_side_slice(entity, part) if source == "face"
             else layout.cell_dofs([entity], part)[0],
             row, len(names))
            for names, source, entity, part, row in table]

    def record(self, u_t: np.ndarray, u_f: np.ndarray | None, layout) -> np.ndarray:
        """Channel values of the cell state `u_t` and the face state `u_f`.

        `layout` is the dof layout of the system the sensor was bound to; the
        dofs of every term were resolved through it at binding.
        """
        values = []
        for on_face, dofs, row, n_comp in self.terms:
            if on_face and u_f is None:
                raise ScenarioError("interface sensors need face values")
            u = u_f if on_face else u_t
            values.append(row @ u[dofs].reshape(-1, n_comp))
        return np.concatenate(values)


def _interface_face(mesh, point, spec) -> int:
    """Interface face nearest to `point`; the lowest id wins a tie."""
    gamma = mesh.interface_faces
    if len(gamma) == 0:
        raise ScenarioError("mesh has no interface faces")
    a = mesh.vertices[mesh.faces[gamma, 0]]
    ab = mesh.vertices[mesh.faces[gamma, 1]] - a
    t = np.clip(np.sum((point - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
    dists = np.hypot(*(point - (a + t[:, None] * ab)).T)
    best = int(np.argmin(dists))
    if dists[best] > 1e-9 * mesh.length_scale:
        raise ScenarioError(f"sensor {spec.name or spec.position} not on the interface")
    return int(gamma[best])


def coupling_errors(record: np.ndarray, normal) -> tuple[np.ndarray, np.ndarray]:
    """Interface mismatch magnitudes from interface-sensor records.

    `record` has columns (pF, mx, my, vFx, vFy, sxx, syy, sxy) per time node.
    Returns (kinematic, dynamic) error arrays: the jump of the normal velocity
    and the norm of the traction imbalance.
    """
    rec = np.atleast_2d(np.asarray(record, dtype=float))
    n = np.asarray(normal, dtype=float)
    kin = np.abs((rec[:, 3] - rec[:, 1]) * n[0] + (rec[:, 4] - rec[:, 2]) * n[1])
    tr_x = rec[:, 5] * n[0] + rec[:, 7] * n[1]
    tr_y = rec[:, 7] * n[0] + rec[:, 6] * n[1]
    dyn = np.hypot(rec[:, 0] * n[0] - tr_x, rec[:, 0] * n[1] - tr_y)
    return kin, dyn


# ---------------------------------------------------------------------------
# CFL bracketing

# widening guard of the bracket search: doublings of the step away from the seed
_MAX_DOUBLINGS = 14


@dataclass(frozen=True)
class CflBracketConfig:
    """Energy-increase threshold and bracket resolution (fraction of the step count)."""

    eps: float = 0.05
    delta: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ScenarioError("bracket resolution delta must be in (0, 1)")
        if self.eps <= 0:
            raise ScenarioError("energy-increase threshold must be positive")


@dataclass(frozen=True)
class CflEstimate:
    """Bracket of the critical Courant number c# dt / h.

    `cfl_spectral` is the Courant number of the spectral seed (NaN when the
    degree guess seeded the search) and `runs` the number of energy runs.
    """

    cfl_stable: float
    cfl_unstable: float
    n_stable: int
    n_unstable: int
    c_sharp: float
    h: float
    cfl_spectral: float = math.nan
    runs: int = 0

    def __post_init__(self):
        if self.cfl_stable >= self.cfl_unstable:
            raise ScenarioError("stable bound must be below the unstable bound")


def _energy_stable_run(system, stepper, u0, dt, n_steps, eps):
    """Run n_steps monitoring energy; True if the run stays stable."""
    e0 = e_prev = None

    def observe(n, t, u):
        nonlocal e0, e_prev
        e_n = energy(u, system)
        if n == 0:
            if not (np.isfinite(e_n) and e_n > 0):
                raise ScenarioError("initial energy must be positive for the bracketing run")
            e0 = e_n
        elif not np.isfinite(e_n) or (e_n - e0) > eps * e0 or (e_n - e_prev) > eps * e_prev:
            raise timestep.InstabilityError(n)
        e_prev = e_n

    try:
        timestep.run_time_loop(stepper, u0, dt, n_steps, observer=observe)
    except timestep.InstabilityError:
        return False
    return True


def spectral_dt(stepper: timestep.ExplicitStepper, h: float) -> tuple[float, bool]:
    """Predicted stable step of an explicit stepper, and whether the spectrum gave it.

    The prediction is the largest dt with |R(-dt lambda)| <= 1 for the 6
    largest-magnitude eigenvalues lambda of the explicit operator L (the
    stepper marches u' = -L u); R is the stability function of the
    stepper's tableau. The eigenvalues are the system's
    `explicit_spectrum`, computed once per system and shared by every
    scheme. When ARPACK does not converge, or the operator is too small for
    it, the step of the Courant number 0.5/(k+1) on cells of size `h`
    stands in and the flag is False.
    """
    system = stepper.system
    guess = 0.5 / (system.layout.k + 1) * h / system.materials.c_sharp(system.mesh)
    lam = system.explicit_spectrum
    if lam is None:
        return guess, False
    # march along each ray z = -x lambda/|lambda| in steps of 0.01 to the
    # first x leaving the stability region, which for an s-stage explicit
    # scheme lies in the disk |z + s| <= s (Jeltsch & Nevanlinna 1981)
    tab = stepper.tableau
    direction = -lam / np.abs(lam)
    grid = np.linspace(0.0, 2.0 * tab.s, 200 * tab.s + 1)[1:]
    outside = np.array([np.abs(tab.stability(d * grid)) > 1.0 for d in direction])
    first = np.argmax(outside, axis=1)
    hi = np.where(outside.any(axis=1), grid[first], np.inf)
    lo = np.where(first > 0, grid[first - 1], 0.0)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        out = np.abs(tab.stability(direction * mid)) > 1.0
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)
    dt = float(np.min(lo / np.abs(lam)))
    return (dt, True) if 0.0 < dt < math.inf else (guess, False)


def cfl_bracket(system: hho.BlockSystem, tab: timestep.ButcherTableau, h: float,
                u0: np.ndarray, final_time: float = 1.0,
                config: CflBracketConfig | None = None) -> CflEstimate:
    """Bracket the explicit stability limit by bisection from a spectral seed.

    Runs the homogeneous problem (no sources, Dirichlet zero) from the given
    initial state with N steps over `final_time`; a run is stable while its
    relative energy increase stays below eps. The seed N is the step count
    of `spectral_dt`, whose dt keeps the largest-magnitude eigenvalues of the
    explicit operator inside the tableau's stability region (the guess
    0.5/(k+1) for the Courant number if ARPACK does not converge). From the
    seed the search widens by max(1, int(delta N)) steps, doubling, until one
    run is stable and one unstable, then bisects until the stable and
    unstable step counts differ by at most max(1, int(delta n_stable)). Both
    returned step counts are energy runs, converted to Courant numbers c# dt / h.
    """
    config = config or CflBracketConfig()
    if not tab.explicit:
        raise ScenarioError("CFL bracketing applies to explicit schemes")
    c_sharp = system.materials.c_sharp(system.mesh)
    stepper = timestep.ExplicitStepper(system, tab)
    runs = 0

    def stable(n):
        nonlocal runs
        runs += 1
        return _energy_stable_run(system, stepper, u0, final_time / n, n, config.eps)

    def gap(n):
        return max(1, int(config.delta * n))

    dt_seed, spectral = spectral_dt(stepper, h)
    n = max(2, math.ceil(final_time / dt_seed))
    n_stable = n_unstable = None
    if stable(n):
        n_stable = n
    else:
        n_unstable = n
    step = gap(n)
    doublings = 0
    while n_unstable is None:
        if n_stable == 1:
            raise ScenarioError("step count exhausted without finding instability")
        n = max(1, n_stable - step)
        if stable(n):
            n_stable = n
            step *= 2
        else:
            n_unstable = n
    while n_stable is None:
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise ScenarioError("every run widening from the seed is unstable; "
                                "increase the step count")
        n = n_unstable + step
        if stable(n):
            n_stable = n
        else:
            n_unstable = n
            step *= 2
    while n_stable - n_unstable > gap(n_stable):
        n = (n_stable + n_unstable) // 2
        if stable(n):
            n_stable = n
        else:
            n_unstable = n
    return CflEstimate(
        cfl_stable=c_sharp * (final_time / n_stable) / h,
        cfl_unstable=c_sharp * (final_time / n_unstable) / h,
        n_stable=n_stable,
        n_unstable=n_unstable,
        c_sharp=c_sharp,
        h=h,
        cfl_spectral=c_sharp * dt_seed / h if spectral else math.nan,
        runs=runs,
    )

"""Two-qubit quantum correlations and the floating-point checks.

Everything in this module runs in binary64; the only bridge back to the
exact-rational world is :func:`rationalize`.  Measurements are projective
qubit observables given by Bloch vectors, with the first outcome attached
to the +1 eigenspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np
from scipy.optimize import minimize

from .core import (
    CGVector,
    CHSH,
    SLICE_FRAME,
    Efficiencies,
    JointTable,
    Scenario,
    _layout,
    flat_size,
    flatten,
    slice_point,
    to_full,
)
from .errors import InvalidSetup, OffSlice, PreconditionFailed, TooCoarse
from .inequalities import ch_eta, thresholds

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
I2 = np.eye(2, dtype=complex)


def xz(angle: float) -> np.ndarray:
    """Bloch vector in the xz-plane at the given angle from +z."""
    return np.array([math.sin(angle), 0.0, math.cos(angle)])


@dataclass(frozen=True)
class QubitSetup:
    """A two-qubit state with projective measurement settings per side."""

    state: np.ndarray
    alice_settings: tuple
    bob_settings: tuple

    def __post_init__(self):
        state = np.asarray(self.state, dtype=complex)
        if state.shape != (4,):
            raise InvalidSetup("state must have 4 amplitudes")
        if abs(np.vdot(state, state).real - 1) > 1e-12:
            raise InvalidSetup("state is not normalized")
        object.__setattr__(self, "state", state)
        for name in ("alice_settings", "bob_settings"):
            vecs = tuple(np.asarray(v, dtype=float) for v in getattr(self, name))
            for v in vecs:
                if v.shape != (3,) or abs(v @ v - 1) > 1e-12:
                    raise InvalidSetup("settings must be unit Bloch vectors")
            object.__setattr__(self, name, vecs)


def _projectors(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    obs = sum(c * s for c, s in zip(n, SIGMA))
    plus = (I2 + obs) / 2
    return plus, I2 - plus


@dataclass
class FloatTable:
    """A conditional distribution table in binary64.

    Same nesting as the exact JointTable (p[x][y][a][b]) but without the
    exactness guarantees; normalization and no-signaling hold only within
    floating-point tolerance.
    """

    scenario: Scenario
    p: np.ndarray

    def marginal_A(self, x: int, a: int, y: int = 0) -> float:
        return float(self.p[x][y][a].sum())

    def marginal_B(self, y: int, b: int, x: int = 0) -> float:
        return float(self.p[x][y][:, b].sum())

    def cg_coords(self) -> np.ndarray:
        """The Collins-Gisin coordinates: the CG selection of `core._layout`."""
        return _layout(self.scenario).cg @ self.p.ravel()

    def max_signaling(self) -> float:
        s = self.scenario
        worst = 0.0
        for x in range(s.mA):
            for a in range(s.kA):
                vals = [self.marginal_A(x, a, y) for y in range(s.mB)]
                worst = max(worst, max(vals) - min(vals))
        for y in range(s.mB):
            for b in range(s.kB):
                vals = [self.marginal_B(y, b, x) for x in range(s.mA)]
                worst = max(worst, max(vals) - min(vals))
        return worst


def correlation(setup: QubitSetup) -> FloatTable:
    """Born-rule conditional probabilities for every setting pair."""
    # <psi| Pa (x) Pb |psi> = sum Pa[i,k] Pb[j,l] psi[kl] conj(psi[ij]),
    # for every (x, y, a, b) at once over the stacked projectors.
    pa = np.array([_projectors(n) for n in setup.alice_settings])
    pb = np.array([_projectors(n) for n in setup.bob_settings])
    psi = setup.state
    rho = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2)
    p = np.maximum(np.einsum("xaik,ybjl,klij->xyab", pa, pb, rho).real, 0.0)
    scenario = Scenario(len(pa), len(pb), 2, 2)
    return FloatTable(scenario, p)


# ---------------------------------------------------------------------------
# The symmetric 2-D slice
# ---------------------------------------------------------------------------

def slice_coords(p: FloatTable, tol: float = 1e-9) -> Tuple[float, float]:
    """Coordinates (x, y) of a CHSH-scenario table in the plane spanned by
    the two PR boxes and the fully random correlation."""
    if p.scenario != CHSH:
        raise InvalidSetup("the slice lives in the 2-input binary scenario")
    origin, d1, d2 = (np.array(v, dtype=float) for v in SLICE_FRAME)
    q = p.cg_coords() - origin
    basis = np.stack([d1, d2], axis=1)
    sol, *_ = np.linalg.lstsq(basis, q, rcond=None)
    residual = float(np.linalg.norm(basis @ sol - q))
    if residual > tol:
        raise OffSlice(f"residual {residual:.3e} exceeds {tol:.1e}")
    return float(sol[0]), float(sol[1])


def circle_max(eff: Efficiencies) -> float:
    """Exact-form maximum of the efficiency-weighted CH expression over
    the quantum circle x^2 + y^2 = 1/2 of the slice.

    The expression is affine over the slice, so the maximum over the
    circle is its value at the center plus the gradient norm over sqrt(2).
    """
    ineq = ch_eta(eff)
    at_r, at_pr2, at_pr = (
        float(ineq.evaluate(slice_point(x, y))) for x, y in ((0, 0), (1, 0), (0, 1))
    )
    gx = at_pr2 - at_r
    gy = at_pr - at_r
    return at_r + math.hypot(gx, gy) / math.sqrt(2)


# ---------------------------------------------------------------------------
# Closed-form checks for the one-sided three-input scenario
# ---------------------------------------------------------------------------

def appendix_b_values(eta: float) -> Dict[str, float]:
    """Quantum values of the two non-trivial families at one-sided
    efficiency eta, together with their closed forms.

    The construction: a partially entangled state with mixing angle
    theta = arcsin X, X = sqrt((eta^2-(1-eta)^2)/(eta^2+(1-eta)^2)), and
    xz-plane measurements tilted by X.
    """
    if not 0.5 < eta <= 1:
        raise PreconditionFailed("requires 1/2 < eta <= 1")
    X = math.sqrt((eta ** 2 - (1 - eta) ** 2) / (eta ** 2 + (1 - eta) ** 2))
    theta = math.asin(X)
    psi = np.zeros(4)
    psi[0] = math.sin(theta / 2)
    psi[3] = math.cos(theta / 2)
    norm = math.sqrt(1 + X ** 2)

    z = np.array([0.0, 0.0, 1.0])
    x_ = np.array([1.0, 0.0, 0.0])
    ch_setup = QubitSetup(
        psi,
        (z, x_),
        ((z + X * x_) / norm, (z - X * x_) / norm),
    )
    t = correlation(ch_setup)
    ch_value = (
        eta * (t.p[0][0][0][0] + t.p[0][1][0][0] + t.p[1][0][0][0]
               - t.p[1][1][0][0])
        - t.marginal_A(0, 0)
        - eta * t.marginal_B(0, 0)
    )

    new_setup = QubitSetup(
        psi,
        (z, (-z + X * x_) / norm, (-z - X * x_) / norm),
        (x_, z),
    )
    u = correlation(new_setup)
    new_value = (
        -(1 - eta) * u.marginal_A(0, 0)
        + eta * u.marginal_A(2, 0)
        + eta * (u.p[0][1][0][0] + u.p[1][0][0][0] - u.p[1][1][0][0]
                 - u.p[2][0][0][0] - u.p[2][1][0][0])
    )

    closed = math.sqrt((eta ** 2 + (1 - eta) ** 2) / 2) - 0.5
    return {
        "ch_eta_value": ch_value,
        "ch_eta_closed_form": closed,
        "i3223_value": new_value,
        "i3223_closed_form": eta + closed,
        "i3223_bound": eta,
    }


# ---------------------------------------------------------------------------
# Violation search
# ---------------------------------------------------------------------------

def _ch_objective(eff: Efficiencies) -> callable:
    a = float(eff.etaA)
    b = float(eff.etaB)

    def value(params: np.ndarray) -> float:
        theta, a1, a2, b1, b2 = params
        psi = np.zeros(4)
        psi[0] = math.sin(theta / 2)
        psi[3] = math.cos(theta / 2)
        setup = QubitSetup(psi, (xz(a1), xz(a2)), (xz(b1), xz(b2)))
        t = correlation(setup)
        return (
            a * b * (t.p[0][0][0][0] + t.p[0][1][0][0] + t.p[1][0][0][0]
                     - t.p[1][1][0][0])
            - a * t.marginal_A(0, 0)
            - b * t.marginal_B(0, 0)
        )

    return value


def eberhard_scan(
    eff: Efficiencies,
    restarts: int = 64,
    seed: int = 20240817,
) -> dict:
    """Search for a quantum violation of the upper CH bound.

    Restarted Nelder-Mead over the state angle and four xz-plane
    measurement angles.  A positive best value certifies a violation;
    failing to find one proves nothing.  Deterministic for fixed seed.
    """
    if restarts < 1:
        raise PreconditionFailed("the scan needs at least one restart")
    t = thresholds(eff)
    if not t.upper_nontrivial:
        raise PreconditionFailed(
            "no violation is possible when etaA + etaB >= 3 etaA etaB"
        )
    value = _ch_objective(eff)
    rng = np.random.default_rng(seed)
    best = -math.inf
    best_params = None
    for _ in range(restarts):
        start = rng.uniform(0, math.pi, size=5)
        res = minimize(
            lambda p: -value(p),
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        if -res.fun > best:
            best = -res.fun
            best_params = res.x
    theta, a1, a2, b1, b2 = best_params
    psi = np.zeros(4)
    psi[0] = math.sin(theta / 2)
    psi[3] = math.cos(theta / 2)
    return {
        "best_value": best,
        "best_setup": QubitSetup(psi, (xz(a1), xz(a2)), (xz(b1), xz(b2))),
        "violation_found": bool(best > 0),
    }


# ---------------------------------------------------------------------------
# Bridging back to the exact world
# ---------------------------------------------------------------------------

def rationalize(p: FloatTable, max_den: int) -> JointTable:
    """Round a float table to exact rationals and project onto the
    no-signaling subspace.

    Joints are rounded by continued fractions with denominators up to
    max_den; marginals are averaged over the remote input before the
    table is rebuilt from its minimal coordinates, which makes the result
    exactly no-signaling and normalized.
    """
    s = p.scenario
    for x in range(s.mA):
        for y in range(s.mB):
            if abs(float(p.p[x][y].sum()) - 1) > 1e-9:
                raise TooCoarse("input table is not normalized")

    def rnd(v: float) -> Fraction:
        return Fraction(v).limit_denominator(max_den)

    coords = []
    for x in range(s.mA):
        for a in range(s.kA - 1):
            coords.append(
                rnd(sum(p.marginal_A(x, a, y) for y in range(s.mB)) / s.mB)
            )
    for y in range(s.mB):
        for b in range(s.kB - 1):
            coords.append(
                rnd(sum(p.marginal_B(y, b, x) for x in range(s.mA)) / s.mA)
            )
    for x in range(s.mA):
        for a in range(s.kA - 1):
            for y in range(s.mB):
                for b in range(s.kB - 1):
                    coords.append(rnd(float(p.p[x][y][a][b])))
    try:
        table = to_full(CGVector(s, tuple(coords)))
    except Exception as exc:
        raise TooCoarse(f"rounded table left the probability simplex: {exc}")
    size = flat_size(s)
    distance = sum(abs(float(u) - float(v)) for u, v in zip(flatten(table), p.p.ravel()))
    if distance > 1e-6 * size:
        raise TooCoarse(
            f"total rounding distance {distance:.3e} exceeds {1e-6 * size:.1e}"
        )
    return table


def bell_state_setup(phi: float = 0.0) -> QubitSetup:
    """The maximally entangled state with standard CH-optimal settings,
    Bob's pair rotated by phi in the xz-plane."""
    psi = np.array([1, 0, 0, 1]) / math.sqrt(2)
    return QubitSetup(
        psi,
        (xz(0.0), xz(math.pi / 2)),
        (xz(math.pi / 4 + phi), xz(-math.pi / 4 + phi)),
    )

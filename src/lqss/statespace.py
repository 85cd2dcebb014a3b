"""State-space models, feedback elimination and transfer-function checks.

A passive model with n internal modes and m ports is the triple (S, N, M)
with dynamics matrix A = -iM - N^dag N / 2; its transfer function is
G(s) = S - N (sI + iM + N^dag N/2)^-1 N^dag S.  The general (active) model
uses doubled-up matrices and the J-adjoint: A = -iJM - N^b N / 2,
G(s) = [I - N (sI + iJM + N^b N/2)^-1 N^b] S.

The realization produced by the synthesis routines is a bank of reduced
cavities whose interconnect ports are closed through a static feedback
network R.  ``close_feedback`` eliminates the loop in two independent ways
(direct elimination and via the Cayley transform of R) so that the two can
be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, PoleError, StructureError
from .krein import flat_adjoint, jmat


@dataclass
class StateSpace:
    """Minimal complex state-space wrapper: G(s) = C (sI - A)^-1 B + D."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def eval(self, s: complex) -> np.ndarray:
        shifted = s * np.eye(self.a.shape[0]) - self.a
        try:
            core = np.linalg.solve(shifted, self.b)
        except np.linalg.LinAlgError:
            raise PoleError(s) from None
        if not np.all(np.isfinite(core)):
            raise PoleError(s)
        return self.c @ core + self.d


@dataclass
class Model:
    """An input/output model (S, N, M); ``kind`` selects the adjoint."""

    kind: str  # "passive" | "general"
    m_mat: np.ndarray
    n_mat: np.ndarray
    s_mat: np.ndarray

    def __post_init__(self):
        if self.kind not in ("passive", "general"):
            raise ParameterError(f"unknown model kind {self.kind!r}")
        self.m_mat = np.asarray(self.m_mat, dtype=complex)
        self.n_mat = np.asarray(self.n_mat, dtype=complex)
        self.s_mat = np.asarray(self.s_mat, dtype=complex)
        if self.m_mat.shape[0] != self.m_mat.shape[1]:
            raise StructureError("Hamiltonian matrix must be square")
        if self.n_mat.shape[1] != self.m_mat.shape[0]:
            raise StructureError(
                "coupling matrix column count must match the mode dimension")
        if self.s_mat.shape != (self.n_mat.shape[0],) * 2:
            raise StructureError(
                "scattering matrix must be square with the port dimension")

    @property
    def n_modes(self) -> int:
        d = self.m_mat.shape[0]
        return d // 2 if self.kind == "general" else d

    @property
    def n_ports(self) -> int:
        d = self.n_mat.shape[0]
        return d // 2 if self.kind == "general" else d

    def _adjoint(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "passive":
            return x.conj().T
        return flat_adjoint(x)

    def statespace(self) -> StateSpace:
        n = self.n_mat
        nadj = self._adjoint(n)
        if self.kind == "passive":
            drift = -1j * self.m_mat
        else:
            drift = -1j * jmat(self.m_mat.shape[0]) @ self.m_mat
        a = drift - 0.5 * nadj @ n
        return StateSpace(a=a, b=-nadj @ self.s_mat, c=n, d=self.s_mat)

    def tf(self, s: complex) -> np.ndarray:
        return self.statespace().eval(s)


def model_adjoint(kind: str, x: np.ndarray) -> np.ndarray:
    return x.conj().T if kind == "passive" else flat_adjoint(x)


def assemble_open_network(kind: str, nhat: np.ndarray, m_conc: np.ndarray,
                          ntilde: np.ndarray) -> StateSpace:
    """Cavity bank with both system and interconnect ports left open.

    Inputs/outputs are stacked [system ports; interconnect ports]; the
    scattering matrix is the identity.
    """
    dim = m_conc.shape[0]
    if ntilde.shape != (dim, dim):
        raise StructureError("interconnect coupling must be square over "
                             "the mode dimension")
    nh_adj = model_adjoint(kind, nhat)
    nt_adj = model_adjoint(kind, ntilde)
    if kind == "passive":
        drift = -1j * m_conc
    else:
        drift = -1j * jmat(dim) @ m_conc
    a = drift - 0.5 * nh_adj @ nhat - 0.5 * nt_adj @ ntilde
    b = -np.hstack([nh_adj, nt_adj])
    c = np.vstack([nhat, ntilde])
    d = np.eye(b.shape[1], dtype=complex)
    return StateSpace(a=a, b=b, c=c, d=d)


def close_feedback(kind: str, nhat: np.ndarray, m_conc: np.ndarray,
                   ntilde: np.ndarray, r_fb: np.ndarray,
                   method: str = "elimination") -> StateSpace:
    """Close the interconnect loop U_int = R Y_int around the cavity bank.

    ``method='elimination'`` solves the loop directly;
    ``method='cayley'`` substitutes the Cayley transform identity
    (I - R)^-1 R = -I/2 + X/2.  Both must agree; keeping them separate
    allows the agreement itself to be tested.
    """
    dim = m_conc.shape[0]
    nh_adj = model_adjoint(kind, nhat)
    nt_adj = model_adjoint(kind, ntilde)
    if kind == "passive":
        drift = -1j * m_conc
    else:
        drift = -1j * jmat(dim) @ m_conc
    eye = np.eye(dim, dtype=complex)
    if method == "elimination":
        loop = np.linalg.solve(eye - r_fb, r_fb @ ntilde)
        a = (drift - 0.5 * nh_adj @ nhat - 0.5 * nt_adj @ ntilde
             - nt_adj @ loop)
    elif method == "cayley":
        if kind == "passive":
            x = np.linalg.solve(eye - r_fb, eye + r_fb)
        else:
            x = (eye + r_fb) @ np.linalg.inv(eye - r_fb)
        a = drift - 0.5 * nh_adj @ nhat - 0.5 * nt_adj @ x @ ntilde
    else:
        raise ParameterError(f"unknown feedback elimination method {method!r}")
    b = -nh_adj
    c = nhat
    d = np.eye(nhat.shape[0], dtype=complex)
    return StateSpace(a=a, b=b, c=c, d=d)


def realized_tf(realization, s: complex,
                method: str = "elimination") -> np.ndarray:
    """Transfer function of (post network) o (closed cavity bank) o (pre)."""
    closed = close_feedback(realization.kind, realization.nhat,
                            realization.m_conc, realization.ntilde,
                            realization.r_feedback, method=method)
    return realization.post @ closed.eval(s) @ realization.pre


@dataclass
class VerifyReport:
    points: list
    errors: list
    max_error: float
    tol: float
    passed: bool
    num_freqs: int = 0
    seed: int = 0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: max relative transfer-function error "
                f"{self.max_error:.3e} over {len(self.points)} points "
                f"(tolerance {self.tol:.1e})")


def frequency_grid(m_mat: np.ndarray, num_freqs: int,
                   seed: int) -> np.ndarray:
    """Sample points in the complex plane for transfer-function comparison.

    Logarithmically spaced frequencies over [1e-2, 1e3] times the
    Hamiltonian scale, taken on the imaginary axis and repeated with a small
    positive real offset; a seeded jitter decorrelates the grid from any
    special frequencies of the model.
    """
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(m_mat, 2)))
    omega = np.logspace(-2, 3, num_freqs) * scale
    omega = omega * rng.uniform(0.95, 1.05, size=num_freqs)
    pts = np.concatenate([1j * omega, 0.1 * scale + 1j * omega])
    return pts


def _dims(shape: tuple) -> str:
    return "x".join(str(d) for d in shape)


def verify_realization(model: Model, realization, num_freqs: int = 20,
                       seed: int = 42, tol: float = 1e-8) -> VerifyReport:
    """Compare the model transfer function against the realized one on a
    frequency grid; the error metric is ||dG||_F / (1 + ||G||_F)."""
    if model.kind != realization.kind:
        raise ParameterError(
            f"model kind {model.kind!r} does not match realization kind "
            f"{realization.kind!r}")
    ports, modes = model.n_mat.shape
    for name, mat, shape in (
            ("pre network", realization.pre, (ports, ports)),
            ("post network", realization.post, (ports, ports)),
            ("N_hat", realization.nhat, (ports, modes)),
            ("M_conc", realization.m_conc, (modes, modes))):
        if np.shape(mat) != shape:
            raise ParameterError(
                f"realization {name} is {_dims(np.shape(mat))}, but a model "
                f"with {model.n_ports} ports and {model.n_modes} modes needs "
                f"{_dims(shape)}")
    model_ss = model.statespace()
    closed = close_feedback(realization.kind, realization.nhat,
                            realization.m_conc, realization.ntilde,
                            realization.r_feedback)
    pts = frequency_grid(model.m_mat, num_freqs, seed)
    points, errors = [], []
    for s in pts:
        for attempt in range(4):
            try:
                g_model = model_ss.eval(s)
                g_real = (realization.post @ closed.eval(s)
                          @ realization.pre)
                break
            except PoleError:
                s = s * 1.0137 + 1e-3j  # nudge off the pole and retry
        else:
            raise PoleError(s, "could not move evaluation point off a pole")
        err = (np.linalg.norm(g_model - g_real)
               / (1.0 + np.linalg.norm(g_model)))
        points.append(complex(s))
        errors.append(float(err))
    max_error = max(errors) if errors else 0.0
    return VerifyReport(points=points, errors=errors, max_error=max_error,
                        tol=tol, passed=max_error <= tol,
                        num_freqs=num_freqs, seed=seed)

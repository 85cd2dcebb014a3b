"""Krein-space matrix algebra.

Conventions for the indefinite geometry used throughout the toolkit:

* ``J = diag(I_k, -I_k)`` defines the indefinite inner product
  ``<v, w> = v^dag J w`` on C^{2k}.
* ``Sigma = [[0, I], [I, 0]]`` swaps the two halves; a 2r x 2s matrix X is
  *doubled-up* when ``Sigma X Sigma = conj(X)``, i.e. it has the block form
  ``[[X1, X2], [conj(X2), conj(X1)]]``.
* The flat adjoint ``X^b = J X^dag J`` is the adjoint with respect to the
  J-inner product; a square doubled-up matrix R with ``R R^b = I`` is called
  Bogoliubov.
* ``Phi = (1/sqrt(2)) [[I, I], [-iI, iI]]`` conjugates doubled-up matrices to
  real matrices, carrying J to ``i * Jsym`` where ``Jsym = [[0, I], [-I, 0]]``.

All functions are pure and operate on plain ``numpy`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import StructureError

DEFAULT_STRUCTURE_TOL = 1e-9


def _even(dim: int, what: str) -> int:
    if dim % 2 != 0:
        raise StructureError(f"{what} must have even dimension, got {dim}")
    return dim // 2


def jmat(dim: int) -> np.ndarray:
    """J = diag(I_k, -I_k) for dim = 2k."""
    k = _even(dim, "J")
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)]))


def sigmat(dim: int) -> np.ndarray:
    """Sigma = [[0, I_k], [I_k, 0]] for dim = 2k."""
    k = _even(dim, "Sigma")
    out = np.zeros((dim, dim))
    out[:k, k:] = np.eye(k)
    out[k:, :k] = np.eye(k)
    return out


def jsym(dim: int) -> np.ndarray:
    """Symplectic unit [[0, I_k], [-I_k, 0]] for dim = 2k."""
    k = _even(dim, "Jsym")
    out = np.zeros((dim, dim))
    out[:k, k:] = np.eye(k)
    out[k:, :k] = -np.eye(k)
    return out


def phimat(dim: int) -> np.ndarray:
    """Unitary Phi with Phi X Phi^-1 real for doubled-up X."""
    k = _even(dim, "Phi")
    eye = np.eye(k)
    return np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2.0)


def swap_conj(x: np.ndarray) -> np.ndarray:
    """Sigma @ conj(x) for a vector or matrix x with even row count."""
    k = _even(x.shape[0], "input")
    xc = np.conj(x)
    return np.concatenate([xc[k:], xc[:k]], axis=0)


def flat_adjoint(x: np.ndarray) -> np.ndarray:
    """J-adjoint X^b = J_{2s} X^dag J_{2r} of a 2r x 2s matrix.

    The two J factors only negate the off-diagonal blocks of X^dag.
    """
    rows, cols = x.shape
    r = _even(rows, "flat_adjoint input rows")
    s = _even(cols, "flat_adjoint input cols")
    out = np.conjugate(x.T)
    out[:s, r:] *= -1
    out[s:, :r] *= -1
    return out


def sharp_adjoint(x: np.ndarray) -> np.ndarray:
    """Symplectic adjoint X^s = -Jsym_{2n} X^T Jsym_{2m} of a real matrix."""
    if np.iscomplexobj(x) and np.abs(x.imag).max(initial=0.0) > 0:
        raise StructureError("sharp_adjoint is defined for real matrices")
    rows, cols = x.shape
    _even(rows, "sharp_adjoint input rows")
    _even(cols, "sharp_adjoint input cols")
    return -jsym(cols) @ np.real(x).T @ jsym(rows)


def j_inner(v: np.ndarray, w: np.ndarray) -> complex:
    """Indefinite inner product v^dag J w."""
    v = np.asarray(v).ravel()
    w = np.asarray(w).ravel()
    if v.shape != w.shape:
        raise StructureError(
            f"j_inner dimension mismatch: {v.shape[0]} vs {w.shape[0]}"
        )
    k = _even(v.shape[0], "j_inner vectors")
    return complex(np.vdot(v[:k], w[:k]) - np.vdot(v[k:], w[k:]))


def j_norm_sign(v: np.ndarray, tol: float = DEFAULT_STRUCTURE_TOL) -> int:
    """Sign (+1, -1 or 0) of the J-norm of v."""
    q = j_inner(v, v).real
    scale = float(np.vdot(v, v).real)
    if abs(q) <= tol * max(scale, 1.0):
        return 0
    return 1 if q > 0 else -1


def doubled_up_residual(x: np.ndarray) -> float:
    """Frobenius distance of x from the doubled-up structure.

    Sigma X Sigma swaps the row halves and the column halves of X.
    """
    r = _even(x.shape[0], "doubled_up_residual input rows")
    s = _even(x.shape[1], "doubled_up_residual input cols")
    swapped = np.roll(x, (r, s), axis=(0, 1))
    return float(np.linalg.norm(swapped - np.conj(x)))


def is_doubled_up(x: np.ndarray, tol: float = DEFAULT_STRUCTURE_TOL) -> bool:
    if x.shape[0] % 2 or x.shape[1] % 2:
        return False
    return doubled_up_residual(x) <= tol * max(1.0, np.linalg.norm(x))


def check_doubled_up(x: np.ndarray, tol: float = DEFAULT_STRUCTURE_TOL,
                     what: str = "matrix") -> np.ndarray:
    if not is_doubled_up(x, tol):
        raise StructureError(f"{what} is not doubled-up within tolerance {tol}")
    return x


def bogoliubov_residual(r: np.ndarray) -> float:
    """max of the two defining residuals ||R R^b - I|| and the structure residual."""
    eye = np.eye(r.shape[0])
    return max(
        float(np.linalg.norm(r @ flat_adjoint(r) - eye)),
        float(np.linalg.norm(flat_adjoint(r) @ r - eye)),
        doubled_up_residual(r),
    )


def is_bogoliubov(r: np.ndarray, tol: float = DEFAULT_STRUCTURE_TOL) -> bool:
    if r.shape[0] != r.shape[1] or r.shape[0] % 2:
        return False
    return bogoliubov_residual(r) <= tol * max(1.0, np.linalg.norm(r))


def check_bogoliubov(r: np.ndarray, tol: float = DEFAULT_STRUCTURE_TOL,
                     what: str = "matrix") -> np.ndarray:
    if not is_bogoliubov(r, tol):
        raise StructureError(f"{what} is not Bogoliubov within tolerance {tol}")
    return r


@dataclass(frozen=True)
class DoubledUp:
    """A 2r x 2s doubled-up matrix stored by its two defining half-blocks."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=complex)
        x2 = np.asarray(self.x2, dtype=complex)
        if x1.shape != x2.shape:
            raise StructureError(
                f"half-blocks must share a shape, got {x1.shape} and {x2.shape}"
            )
        if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
            raise StructureError("half-blocks contain non-finite entries")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def half_rows(self) -> int:
        return self.x1.shape[0]

    @property
    def half_cols(self) -> int:
        return self.x1.shape[1]

    def full(self) -> np.ndarray:
        """Materialize the full [[X1, X2], [conj(X2), conj(X1)]] matrix."""
        return np.block([[self.x1, self.x2],
                         [np.conj(self.x2), np.conj(self.x1)]])

    @classmethod
    def from_full(cls, x: np.ndarray,
                  tol: float = DEFAULT_STRUCTURE_TOL) -> "DoubledUp":
        x = np.asarray(x, dtype=complex)
        check_doubled_up(x, tol)
        r = x.shape[0] // 2
        s = x.shape[1] // 2
        return cls(x[:r, :s], x[:r, s:])


def doubled_up_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X1, X2) half-blocks of a full doubled-up matrix."""
    r = _even(x.shape[0], "rows")
    s = _even(x.shape[1], "cols")
    return x[:r, :s], x[:r, s:]


def phi_to_real(x: np.ndarray, tol: float = DEFAULT_STRUCTURE_TOL) -> np.ndarray:
    """Phi_{2m} X Phi_{2n}^-1 for doubled-up X; the result is real."""
    check_doubled_up(x, tol, "phi_to_real input")
    rows, cols = x.shape
    out = phimat(rows) @ x @ phimat(cols).conj().T
    return np.real(out)


def phi_to_doubled(x: np.ndarray) -> np.ndarray:
    """Phi_{2m}^-1 X Phi_{2n} for real X; the result is doubled-up."""
    rows, cols = x.shape
    _even(rows, "phi_to_doubled rows")
    _even(cols, "phi_to_doubled cols")
    return phimat(rows).conj().T @ np.real(x) @ phimat(cols)


def random_hermitian_doubled_up(k: int, rng: np.random.Generator,
                                scale: float = 1.0) -> np.ndarray:
    """Random 2k x 2k Hermitian doubled-up matrix (H1 Hermitian, H2 symmetric)."""
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    b = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    h1 = (a + a.conj().T) / 2
    h2 = (b + b.T) / 2
    return scale * np.block([[h1, h2], [h2.conj(), h1.conj()]])


def random_bogoliubov(k: int, seed=None, scale: float = 0.5) -> np.ndarray:
    """Random Bogoliubov matrix exp(-i J H) with H Hermitian doubled-up.

    ``scale`` controls the size of H; large values give badly conditioned
    (strongly squeezing) outputs.
    """
    if k < 1:
        raise StructureError("mode count must be >= 1")
    rng = np.random.default_rng(seed)
    h = random_hermitian_doubled_up(k, rng, scale)
    return expm(-1j * jmat(2 * k) @ h)


def random_doubled_up(m: int, n: int, rng: np.random.Generator,
                      scale: float = 1.0) -> np.ndarray:
    """Random dense 2m x 2n doubled-up matrix."""
    x1 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    x2 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return scale * np.block([[x1, x2], [x2.conj(), x1.conj()]])

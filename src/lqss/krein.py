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

``schur_form`` is the one Schur reduction of the toolkit: it reduces a
doubled-up matrix (a general drift, a Gram matrix N^b N) in real arithmetic
through Phi, and any other matrix by the complex Schur form, each with
LAPACK's ``gees`` through ``lapack.schur``.

All functions are pure and operate on plain ``numpy`` arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .lapack import schur

DEFAULT_STRUCTURE_TOL = 1e-9


def _even(dim: int, what: str) -> int:
    if dim % 2 != 0:
        raise StructureError(f"{what} must have even dimension, got {dim}")
    return dim // 2


def jmat(dim: int) -> np.ndarray:
    """J = diag(I_k, -I_k) for dim = 2k."""
    k = _even(dim, "J")
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)]))


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


def unit_phases(cols: np.ndarray) -> np.ndarray:
    """Unit phase per column that makes the column's largest-magnitude entry
    real positive (1 for a zero column)."""
    lead = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    return np.where(lead == 0, 1.0, np.exp(-1j * np.angle(lead)))


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


def doubled_up_residual(x: np.ndarray) -> float:
    """Frobenius distance of x from the doubled-up structure.

    Sigma X Sigma swaps the row halves and the column halves of X.
    """
    r = _even(x.shape[0], "doubled_up_residual input rows")
    s = _even(x.shape[1], "doubled_up_residual input cols")
    swapped = np.roll(x, (r, s), axis=(0, 1))
    return float(np.linalg.norm(swapped - np.conj(x)))


def schur_form(a: np.ndarray) -> tuple:
    """(T, Z) with A = Z T Z^dag, T upper triangular and Z unitary.

    A doubled-up A of even dimension n, to within n eps ||A||_F, is
    reduced in real arithmetic: Phi A Phi^dag is then real up to rounding,
    its real part has the real Schur form Q T_r Q^T, and one unitary 2 x 2
    rotation per 2 x 2 block of T_r (a complex-conjugate eigenvalue pair)
    makes it triangular.  The blocks are disjoint, so all rotations are
    applied at once; Z = Phi^dag Q G.  Any other A takes the complex Schur
    form, which costs more than twice as much.
    """
    n = a.shape[0]
    if n % 2 or not (doubled_up_residual(a)
                     <= n * np.finfo(float).eps * np.linalg.norm(a)):
        return schur(np.asarray(a, dtype=complex))
    phi = phimat(n)
    t_r, q = schur((phi @ a @ phi.conj().T).real)
    t, z = t_r.astype(complex), phi.conj().T @ q
    # LAPACK leaves each 2 x 2 block, at rows j and j + 1, standardized as
    # [[a, b], [c, a]] with bc < 0.  Its eigenvalue a + i mu, mu =
    # sqrt(-bc), has the unit eigenvector (g, h) = (b, i mu) / sqrt(b (b - c))
    # with g real and h imaginary, so the rotation is G = [[g, h], [h, g]].
    top = np.flatnonzero(t_r.diagonal(-1))
    bot = top + 1
    b, c = t_r[top, bot], t_r[bot, top]
    scale = np.sqrt(b * (b - c))
    g, h = b / scale, 1j * np.sqrt(-b * c) / scale
    for mat in (t, z):  # columns: X G
        left, right = mat[:, top], mat[:, bot]
        mat[:, top], mat[:, bot] = left * g + right * h, left * h + right * g
    up, down = t[top], t[bot]  # rows: G^dag T
    g, h = g[:, np.newaxis], h[:, np.newaxis]
    t[top], t[bot] = up * g - down * h, down * g - up * h
    t[bot, top] = 0.0
    return t, z


def _scale(x: np.ndarray) -> float:
    """max(1, ||x||_F), the scale of a structure check's tolerance: inf,
    with no overflow warning, when the norm overflows.  An infinite bound
    would pass every residual, so the predicates then answer False."""
    with np.errstate(over="ignore"):
        return max(1.0, float(np.linalg.norm(x)))


def is_doubled_up(x: np.ndarray) -> bool:
    if x.shape[0] % 2 or x.shape[1] % 2:
        return False
    scale = _scale(x)
    return scale < np.inf and (
        doubled_up_residual(x) <= DEFAULT_STRUCTURE_TOL * scale)


def check_doubled_up(x: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not is_doubled_up(x):
        raise StructureError(f"{what} is not doubled-up within tolerance "
                             f"{DEFAULT_STRUCTURE_TOL}")
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
    scale = _scale(r)
    return scale < np.inf and bogoliubov_residual(r) <= tol * scale


def check_bogoliubov(r: np.ndarray, tol: float = DEFAULT_STRUCTURE_TOL,
                     what: str = "matrix") -> np.ndarray:
    if not is_bogoliubov(r, tol):
        raise StructureError(f"{what} is not Bogoliubov within tolerance {tol}")
    return r


def phi_to_real(x: np.ndarray) -> np.ndarray:
    """Phi_{2m} X Phi_{2n}^-1 for doubled-up X; the result is real."""
    check_doubled_up(x, "phi_to_real input")
    rows, cols = x.shape
    out = phimat(rows) @ x @ phimat(cols).conj().T
    return np.real(out)


def phi_to_doubled(x: np.ndarray) -> np.ndarray:
    """Phi_{2m}^-1 X Phi_{2n} for real X; the result is doubled-up."""
    rows, cols = x.shape
    _even(rows, "phi_to_doubled rows")
    _even(cols, "phi_to_doubled cols")
    return phimat(rows).conj().T @ np.real(x) @ phimat(cols)

"""Singular-value-type factorizations with Bogoliubov factors.

The central routine ``bogoliubov_svd`` factors a doubled-up coupling matrix
N (2m x 2n) as ``N = V Nhat W^b`` where V and W are Bogoliubov and Nhat is a
sparse canonical coupling built from the classified spectrum of the Gram
matrix N^b N:

* real positive eigenvalue lambda  -> diagonal entry sqrt(lambda) in the
  upper-left half-block (a purely passive port),
* real negative eigenvalue         -> sqrt(|lambda|) in the off half-block
  (a purely active port),
* complex quadruple mu +- i nu     -> a 2 x 2 block mixing a passive weight
  alpha and an active weight beta with alpha^2 - beta^2 = mu,
  2 alpha beta = nu,
* size-2 Jordan blocks at a real eigenvalue -> a dense 4 x 4 doubled-up
  block built from a hyperbolic angle x with sinh(2x) = +-1/(2 c^2),
* zero eigenvalues with J-neutral image (P P^b = 0) -> equal passive and
  active weights per port,
* kernel modes -> zero columns.

Each block is built once, whole (``mode_block``; ``degenerate_factor`` for
the degenerate zero modes): its W columns, its half-blocks of Nhat and the
V columns that N W = V Nhat fixes.  One null space completes V: it holds
the degenerate zero modes' columns and, J-projected off them, the
positive vectors of the ports that no block fixes.

``symplectic_svd`` is the same factorization conjugated to real matrices by
the unitary Phi: X = Vs Xhat Ws^s with Vs, Ws symplectic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalError,
    StructureError,
    UnsupportedStructureError,
)
from .krein import (
    bogoliubov_residual,
    flat_adjoint,
    j_inner,
    jmat,
    phi_to_doubled,
    phi_to_real,
    sharp_adjoint,
    swap_conj,
    unit_phases,
)
from .netlist import takagi
from .spectral import (
    KreinSpectrum,
    j_gram,
    j_positive_vectors,
    j_project_off,
    krein_spectrum,
    neutral_image,
    null_space,
)

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])

#: condition-number guard for inverting canonical blocks
COND_LIMIT = 1e12


@dataclass
class ModeBlock:
    """One block of the canonical coupling, covering ``size`` cavity modes.

    Each block fixes its W columns, its rows of Nhat (one per port it
    occupies, none for a kernel mode) and the V columns of those ports that
    N W = V Nhat determines: N W Nbar^-1 for an invertible block, the first
    column of N W Nbar^+ for a Jordan block whose eigenvector N annihilates
    (its second port is free).  Degenerate zero modes fix only the neutral
    images p = v + Sigma v# of their columns, held in ``v_cols`` until
    ``bogoliubov_svd`` splits them.
    """

    kind: str  # real_positive | real_negative | complex_pair | jordan2 |
    #            degenerate_zero | kernel
    value: complex
    size: int
    nbar1: np.ndarray  # ports x size upper-left (passive) half-block
    nbar2: np.ndarray  # ports x size upper-right (active) half-block
    w_cols: np.ndarray  # 2n x size first-half columns of W
    v_cols: np.ndarray  # 2m x (fixed ports) first-half columns of V


@dataclass
class DuSvdResult:
    v: np.ndarray      # 2m x 2m Bogoliubov
    w: np.ndarray      # 2n x 2n Bogoliubov
    nhat: np.ndarray   # 2m x 2n canonical coupling
    r: int             # number of ports carrying nonzero coupling
    blocks: list
    residual: float


def pair_weights(lam: complex) -> tuple[float, float]:
    """Passive/active weights (alpha, beta) of a complex eigenvalue block.

    alpha^2 - beta^2 = Re(lam) and 2 alpha beta = Im(lam).
    """
    mod = abs(lam)
    denom = 2.0 * (mod + lam.real)
    if denom <= 1e-12 * max(1.0, mod):
        raise NumericalError(
            f"complex eigenvalue {lam:.6g} too close to the negative real "
            "axis to split into passive/active weights")
    alpha = np.sqrt((mod + lam.real) / 2.0)
    beta = lam.imag / np.sqrt(denom)
    return float(alpha), float(beta)


def jordan2_factor(lam: float, in_kernel: bool = False) -> tuple:
    """Canonical 2x2 half-blocks (nbar1, nbar2, s) for a size-2 Jordan
    block at real eigenvalue lam.

    Two hyperbolic parametrizations cover the real line; the kernel variant
    (lam = 0 with eigenvector annihilated by N) is rank-deficient, its second
    port row zero.  The lam < 0 parametrization realizes the action
    conjugated by diag(1, -1), so there the sign s of W's second column is
    -1, which restores N W = V Nbar; otherwise s = 1.
    """
    if in_kernel:
        if abs(lam) > 1e-8:
            raise StructureError(
                "kernel Jordan blocks only occur at eigenvalue zero")
        a = 1.0 / np.sqrt(2.0)
        nbar1 = np.array([[a, 0.0], [0.0, 0.0]])
        nbar2 = np.array([[0.0, -a], [0.0, 0.0]])
        return nbar1, nbar2, 1.0
    if lam >= 0:
        c = np.sqrt(lam + 0.5)
        x = np.arcsinh(1.0 / (2.0 * c * c)) / 2.0
        sh, ch = np.sinh(x), np.cosh(x)
        nbar1 = np.array([[c * ch, sh], [0.0, c * ch]])
        nbar2 = np.array([[0.0, -c * sh], [c * sh, ch]])
        return nbar1, nbar2, 1.0
    c = np.sqrt(0.5 - lam)
    x = np.arcsinh(-1.0 / (2.0 * c * c)) / 2.0
    sh, ch = np.sinh(x), np.cosh(x)
    nbar1 = np.array([[ch, c * sh], [-c * sh, 0.0]])
    nbar2 = np.array([[c * ch, 0.0], [sh, c * ch]])
    return nbar1, nbar2, -1.0


def mode_block(coupling: np.ndarray, kind: str, value: complex,
               w_cols: np.ndarray, nbar1: np.ndarray,
               nbar2: np.ndarray) -> ModeBlock:
    """The block of ``kind`` on first-half W columns ``w_cols``, whole.

    The leading W column's free unit phase is fixed by ``unit_phases``; a
    two-column block's second column, the swap-conjugate partner of a
    mixed direction, takes the conjugate phase.  N W = V Nbar then fixes the
    V columns of the ports whose rows of Nbar are nonzero: all of them,
    N W Nbar^-1, for an invertible block; the first, read off N W Nbar^+,
    for a Jordan block whose eigenvector N annihilates (its last row is
    zero).
    """
    phase = unit_phases(w_cols[:, :1])[0]
    w_cols = w_cols * (phase if w_cols.shape[1] == 1
                       else np.array([phase, np.conj(phase)]))
    ports = nbar1.shape[0]
    v_cols = np.zeros((coupling.shape[0], 0), dtype=complex)
    if ports:
        w_doubled = np.column_stack([w_cols, swap_conj(w_cols)])
        nbar = np.block([[nbar1, nbar2], [np.conj(nbar2), np.conj(nbar1)]])
        if not (nbar1[-1].any() or nbar2[-1].any()):
            v_cols = (coupling @ w_doubled @ np.linalg.pinv(nbar))[:, :1]
            if abs(j_inner(v_cols[:, 0], v_cols[:, 0]).real - 1.0) > 1e-6:
                raise NumericalError(
                    "determined port vector of a kernel Jordan block is not "
                    "J-normalized")
        else:
            cond = np.linalg.cond(nbar)
            if not np.isfinite(cond) or cond > COND_LIMIT:
                if kind == "jordan2" and abs(value) < 1e-6:
                    raise UnsupportedStructureError(
                        "size-2 Jordan block at eigenvalue zero with "
                        "eigenvector outside Ker N has a singular canonical "
                        "block and is not supported")
                raise NumericalError(
                    f"canonical block for eigenvalue {value:.6g} is too "
                    f"badly conditioned to invert (cond = {cond:.3e})")
            v_cols = (coupling @ w_doubled @ np.linalg.inv(nbar))[:, :ports]
    return ModeBlock(kind, value, w_cols.shape[1], nbar1, nbar2, w_cols,
                     v_cols)


def degenerate_factor(coupling: np.ndarray, z_off: list) -> ModeBlock:
    """The block of the J-neutral zero modes.

    Given the off-kernel zero-eigenvalue vectors z (J-norm +1), takes their
    J-neutral image P = N [Z, Sigma Z#] (``neutral_image``) and rotates the
    zero-mode basis so each mode maps to a single J-neutral image direction:
    N z_i = h_i p_i with Sigma p_i# = p_i, and Nbar = [diag(h), diag(h)].
    The mode basis comes from the SVD of the annihilation half of P; a
    residual phase per mode makes the neutral vectors swap-conjugation
    invariant, and fixes the W columns' phases.  The block's ``v_cols`` are
    the images p_i, whose V columns the rest of V determines.
    """
    r0 = len(z_off)
    m = coupling.shape[0] // 2
    p = neutral_image(coupling, z_off)
    p1 = p[:m, :r0]
    p2 = p[:m, r0:]
    u, h, yh = np.linalg.svd(p1, full_matrices=False)
    y = yh.conj().T
    if h[-1] <= 1e-10 * h[0]:
        raise NumericalError(
            "rank-deficient passive half in degenerate zero-mode image")
    f = u.conj().T @ p2 @ np.conj(y)
    # repeated singular values leave a unitary freedom in (u, y); within
    # each tie group f is complex symmetric and a Takagi rotation makes
    # it diagonal
    start = 0
    for stop in range(1, r0 + 1):
        if stop < r0 and h[stop] > (1.0 - 1e-6) * h[start]:
            continue
        if stop - start > 1:
            idx = np.arange(start, stop)
            fg = f[np.ix_(idx, idx)]
            _, q = takagi((fg + fg.T) / 2.0)
            u[:, idx] = u[:, idx] @ q
            y[:, idx] = y[:, idx] @ q
        start = stop
    f = u.conj().T @ p2 @ np.conj(y)
    off = f - np.diag(np.diag(f))
    if np.linalg.norm(off) > 1e-6 * max(1.0, np.linalg.norm(f)):
        raise NumericalError(
            "degenerate zero-mode image does not diagonalize jointly")
    d = np.diag(f) / h
    if np.any(np.abs(np.abs(d) - 1.0) > 1e-6):
        raise NumericalError(
            "active and passive weights of a degenerate zero mode differ; "
            "its image is not J-neutral to working precision")
    # rotate each mode so the neutral image satisfies Sigma p# = p exactly
    phases = np.exp(1j * np.angle(d) / 2.0)
    w_cols = np.column_stack(z_off) @ (y * phases[np.newaxis, :])
    images = coupling @ w_cols / h
    if np.any(np.linalg.norm(swap_conj(images) - images, axis=0)
              > 1e-6 * np.linalg.norm(images, axis=0)):
        raise NumericalError(
            "neutral image of a degenerate zero mode failed the "
            "swap-conjugation symmetry check")
    return ModeBlock("degenerate_zero", 0.0, r0, np.diag(h), np.diag(h),
                     w_cols, (images + swap_conj(images)) / 2.0)


def _build_blocks(coupling: np.ndarray, spectrum: KreinSpectrum) -> list:
    """Every block of the classified spectrum, in the canonical order of its
    classes: nonzero classes first, then the degenerate zero modes, kernel
    modes last.

    A complex pair or Jordan pair (z1, z2) takes the W columns
    [z1 + z2, s Sigma (z1 - z2)#] / sqrt(2), with s = 1 for a complex pair
    and the sign ``jordan2_factor`` returns for a Jordan pair.
    """
    blocks = []
    for cls in spectrum.classes:
        lam = cls.value
        if cls.jordan_size == 2 or cls.kind == "complex_pair":
            if cls.jordan_size == 2:
                kind = "jordan2"
                nbar1, nbar2, s = jordan2_factor(
                    float(np.real(lam)),
                    in_kernel=cls.kind == "zero_in_kernel")
            else:
                kind = "complex_pair"
                alpha, beta = pair_weights(lam)
                nbar1, nbar2, s = alpha * np.eye(2), -beta * SIGMA2, 1.0
            for z1, z2 in cls.vectors:
                w_cols = np.column_stack(
                    [z1 + z2, s * swap_conj(z1 - z2)]) / np.sqrt(2.0)
                blocks.append(mode_block(coupling, kind, lam, w_cols,
                                         nbar1, nbar2))
        elif cls.kind == "zero_off_kernel":
            blocks.append(degenerate_factor(coupling, cls.vectors))
        else:
            root = np.sqrt(abs(float(np.real(lam))))
            kind, nbar1, nbar2 = {
                "real_positive": ("real_positive", [[root]], [[0.0]]),
                "real_negative": ("real_negative", [[0.0]], [[root]]),
                "zero_in_kernel": ("kernel", np.zeros((0, 1)),
                                   np.zeros((0, 1)))}[cls.kind]
            for z in cls.vectors:
                blocks.append(mode_block(
                    coupling, kind, lam, z.reshape(-1, 1),
                    np.array(nbar1), np.array(nbar2)))
    return blocks


def _degenerate_v_columns(basis: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Resolve the V columns of J-neutral zero modes.

    Each neutral image p (with Sigma p# = p) splits as p = v + Sigma v#.
    The swap-antisymmetric parts u = v - Sigma v#, the columns of U, lie in
    ``basis``, the J-orthogonal complement B of all fixed columns and their
    partners, and with P = [p_1, ...] they satisfy P^dag J U = 2 I and
    U^dag J U = 0; then V = (P + U) / 2 is J-orthonormal and J-orthogonal to
    every partner.  U = 2 B pinv(P^dag J B) meets the pairing,
    (U - Sigma U#) / 2 makes it swap-antisymmetric without changing the
    pairing, and U - P (U^dag J U) / 4 makes it J-neutral.
    """
    jm = jmat(p.shape[0])
    pairing = p.conj().T @ jm @ basis
    left, sv, right = np.linalg.svd(pairing, full_matrices=False)
    if sv.size < p.shape[1] or sv[-1] < 1e-8 * np.linalg.norm(p, 2):
        raise NumericalError(
            "pairing between the degenerate zero modes and their partner "
            "directions is numerically singular")
    u = 2.0 * basis @ (right.conj().T / sv) @ left.conj().T
    u = (u - swap_conj(u)) / 2.0
    u = u - p @ (u.conj().T @ jm @ u) / 4.0
    v = (p + u) / 2.0
    if np.linalg.norm(v.conj().T @ jm @ v - np.eye(v.shape[1])) > 1e-6:
        raise NumericalError(
            "resolved degenerate port vectors are not J-orthonormal")
    return v


def _v_columns(m: int, blocks: list) -> np.ndarray:
    """V's first-half columns, in port order, from one null space.

    The J-orthogonal complement of the fixed columns and their partners
    holds the degenerate zero modes' columns and, J-projected off them and
    their partners, the positive vectors of the free ports.  When the blocks
    fix every column there is no null space: whether they are J-orthonormal
    is then the Bogoliubov check of V.
    """
    v_first = np.zeros((2 * m, m), dtype=complex)
    fixed = np.zeros(m, dtype=bool)
    degenerate = np.zeros(m, dtype=bool)
    pos = 0
    for b in blocks:
        k = b.v_cols.shape[1]
        v_first[:, pos:pos + k] = b.v_cols
        (degenerate if b.kind == "degenerate_zero" else fixed)[
            pos:pos + k] = True
        pos += b.nbar1.shape[0]
    if fixed.all():
        return v_first
    known = v_first[:, fixed]
    doubled = np.column_stack([known, swap_conj(known)])
    basis = null_space(doubled.conj().T @ jmat(2 * m))
    if basis.shape[1] != 2 * (m - known.shape[1]):
        raise NumericalError(
            "J-orthogonal complement has unexpected dimension "
            f"{basis.shape[1]}; existing columns are not J-orthonormal")
    if degenerate.any():
        deg = _degenerate_v_columns(basis, v_first[:, degenerate])
        v_first[:, degenerate] = deg
        basis = j_project_off(basis, np.column_stack([deg, swap_conj(deg)]))
    free = ~(fixed | degenerate)
    if free.any():
        v_first[:, free] = np.column_stack(
            j_positive_vectors(basis, int(free.sum())))
    return v_first


def bogoliubov_svd(coupling: np.ndarray) -> DuSvdResult:
    """Factor a doubled-up coupling matrix as N = V Nhat W^b.

    V (2m x 2m) and W (2n x 2n) are Bogoliubov; Nhat is the canonical sparse
    coupling determined by the spectrum of N^b N.  Raises
    UnsupportedStructureError / DegeneracyError for structures outside the
    supported class and NumericalError when the factors cannot be computed
    stably.
    """
    coupling = np.asarray(coupling, dtype=complex)
    m = coupling.shape[0] // 2
    n = coupling.shape[1] // 2
    spectrum = krein_spectrum(j_gram(coupling), coupling)
    blocks = _build_blocks(coupling, spectrum)
    r = sum(b.nbar1.shape[0] for b in blocks)
    if r > m:
        raise NumericalError(
            f"canonical coupling needs {r} ports but only {m} outputs exist")

    w_first = np.column_stack([np.zeros((2 * n, 0)),
                               *(b.w_cols for b in blocks)])
    w = np.column_stack([w_first, swap_conj(w_first)])
    v_first = _v_columns(m, blocks)
    v = np.column_stack([v_first, swap_conj(v_first)])
    # each block on the diagonal; the free ports' rows stay zero
    nhat1, nhat2 = np.zeros((2, m, n), dtype=complex)
    row = col = 0
    for b in blocks:
        ports, size = b.nbar1.shape
        nhat1[row:row + ports, col:col + size] = b.nbar1
        nhat2[row:row + ports, col:col + size] = b.nbar2
        row, col = row + ports, col + size
    nhat = np.block([[nhat1, nhat2], [np.conj(nhat2), np.conj(nhat1)]])

    recon = v @ nhat @ flat_adjoint(w)
    residual = float(np.linalg.norm(recon - coupling)
                     / max(1.0, np.linalg.norm(coupling)))
    for name, mat in (("V", v), ("W", w)):
        br = bogoliubov_residual(mat)
        if br > 1e-6 * max(1.0, np.linalg.norm(mat)):
            raise NumericalError(
                f"factor {name} lost the Bogoliubov property "
                f"(residual {br:.3e})")
    return DuSvdResult(v=v, w=w, nhat=nhat, r=r, blocks=blocks,
                       residual=residual)


@dataclass
class SymplecticSvdResult:
    v: np.ndarray
    w: np.ndarray
    xhat: np.ndarray
    residual: float
    doubled: DuSvdResult


def symplectic_svd(x: np.ndarray) -> SymplecticSvdResult:
    """Factor a real even-dimensional matrix as X = Vs Xhat Ws^s with
    symplectic Vs, Ws, by conjugating the Bogoliubov factorization with Phi.
    """
    x = np.asarray(x, dtype=float)
    coupling = phi_to_doubled(x)
    res = bogoliubov_svd(coupling)
    vs = phi_to_real(res.v)
    ws = phi_to_real(res.w)
    xhat = phi_to_real(res.nhat)
    recon = vs @ xhat @ sharp_adjoint(ws)
    residual = float(np.linalg.norm(recon - x) / max(1.0, np.linalg.norm(x)))
    return SymplecticSvdResult(v=vs, w=ws, xhat=xhat, residual=residual,
                               doubled=res)

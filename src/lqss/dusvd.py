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

``symplectic_svd`` is the same factorization conjugated to real matrices by
the unitary Phi: X = Vs Xhat Ws^s with Vs, Ws symplectic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    krein_spectrum,
    neutral_image,
    null_space,
)

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])

#: condition-number guard for inverting canonical blocks
COND_LIMIT = 1e12


@dataclass
class ModeBlock:
    """One block of the canonical coupling, covering ``size`` cavity modes."""

    kind: str  # real_positive | real_negative | complex_pair | jordan2 |
    #            degenerate_zero | kernel
    value: complex
    size: int
    nbar1: np.ndarray  # size x size upper-left (passive) half-block
    nbar2: np.ndarray  # size x size upper-right (active) half-block
    w_cols: np.ndarray  # 2n x size first-half columns of W
    v_cols: list = field(default_factory=list)  # length size; None = free
    # jordan2: branch and in_kernel; degenerate_zero: p_cols
    params: dict = field(default_factory=dict)

    def nbar_doubled(self) -> np.ndarray:
        return np.block([[self.nbar1, self.nbar2],
                         [np.conj(self.nbar2), np.conj(self.nbar1)]])


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
    """Canonical 2x2 half-blocks (nbar1, nbar2, params) for a size-2 Jordan
    block at real eigenvalue lam.

    Two hyperbolic parametrizations cover the real line; the kernel variant
    (lam = 0 with eigenvector annihilated by N) is rank-deficient.
    """
    if in_kernel:
        if abs(lam) > 1e-8:
            raise StructureError(
                "kernel Jordan blocks only occur at eigenvalue zero")
        s = 1.0 / np.sqrt(2.0)
        nbar1 = np.array([[s, 0.0], [0.0, 0.0]])
        nbar2 = np.array([[0.0, -s], [0.0, 0.0]])
        return nbar1, nbar2, {"branch": 0}
    if lam >= 0:
        c = np.sqrt(lam + 0.5)
        x = np.arcsinh(1.0 / (2.0 * c * c)) / 2.0
        sh, ch = np.sinh(x), np.cosh(x)
        nbar1 = np.array([[c * ch, sh], [0.0, c * ch]])
        nbar2 = np.array([[0.0, -c * sh], [c * sh, ch]])
        branch = 1
    else:
        c = np.sqrt(0.5 - lam)
        x = np.arcsinh(-1.0 / (2.0 * c * c)) / 2.0
        sh, ch = np.sinh(x), np.cosh(x)
        nbar1 = np.array([[ch, c * sh], [-c * sh, 0.0]])
        nbar2 = np.array([[c * ch, 0.0], [sh, c * ch]])
        branch = 2
    return nbar1, nbar2, {"branch": branch}


def degenerate_factor(coupling: np.ndarray, z_off: list) -> tuple:
    """Factor the image of J-neutral zero modes.

    Given the off-kernel zero-eigenvalue vectors z (J-norm +1), takes their
    J-neutral image P = N [Z, Sigma Z#] (``neutral_image``) and rotates the
    zero-mode basis so each mode maps to a single J-neutral image direction:
    N z_i = h_i p_i with Sigma p_i# = p_i.  The mode basis comes from the
    SVD of the annihilation half of P; a residual phase per mode makes the
    neutral vectors swap-conjugation invariant.

    Returns (w_cols, p_cols, nbar1, nbar2).  The V columns hiding
    inside the p_i are only determined up to the rest of the factorization
    and are resolved later (see ``_degenerate_v_columns``).
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
    y1 = y * phases[np.newaxis, :]
    w_cols = np.column_stack(z_off) @ y1
    p_cols = []
    for i in range(r0):
        pi = coupling @ w_cols[:, i] / h[i]
        if np.linalg.norm(swap_conj(pi) - pi) > 1e-6 * np.linalg.norm(pi):
            raise NumericalError(
                "neutral image of a degenerate zero mode failed the "
                "swap-conjugation symmetry check")
        p_cols.append((pi + swap_conj(pi)) / 2.0)
    return w_cols, p_cols, np.diag(h), np.diag(h)


def _build_blocks(coupling: np.ndarray,
                  spectrum: KreinSpectrum) -> list:
    blocks = []
    z_off_semisimple = []
    for cls in spectrum.classes:
        if cls.jordan_size == 2:
            for z1, z2 in cls.vectors:
                in_ker = cls.kind == "zero_in_kernel"
                nbar1, nbar2, params = jordan2_factor(
                    float(np.real(cls.value)), in_kernel=in_ker)
                zb1 = (z1 + z2) / np.sqrt(2.0)
                zb2 = (z1 - z2) / np.sqrt(2.0)
                # the lam < 0 parametrization realizes the action conjugated
                # by diag(1, -1); absorbing the sign into the second column
                # restores N W = V Nbar
                sign = -1.0 if params["branch"] == 2 else 1.0
                w_cols = np.column_stack([zb1, sign * swap_conj(zb2)])
                params = dict(params, in_kernel=in_ker)
                blocks.append(ModeBlock(
                    kind="jordan2", value=cls.value, size=2,
                    nbar1=nbar1, nbar2=nbar2, w_cols=w_cols, params=params))
            continue
        if cls.kind == "real_positive":
            s = np.sqrt(float(np.real(cls.value)))
            for z in cls.vectors:
                blocks.append(ModeBlock(
                    kind="real_positive", value=cls.value, size=1,
                    nbar1=np.array([[s]]), nbar2=np.zeros((1, 1)),
                    w_cols=z.reshape(-1, 1)))
        elif cls.kind == "real_negative":
            s = np.sqrt(abs(float(np.real(cls.value))))
            for z in cls.vectors:
                blocks.append(ModeBlock(
                    kind="real_negative", value=cls.value, size=1,
                    nbar1=np.zeros((1, 1)), nbar2=np.array([[s]]),
                    w_cols=z.reshape(-1, 1)))
        elif cls.kind == "complex_pair":
            alpha, beta = pair_weights(cls.value)
            for z1, z2 in cls.vectors:
                zt1 = (z1 + z2) / np.sqrt(2.0)
                zt2 = (z1 - z2) / np.sqrt(2.0)
                w_cols = np.column_stack([zt1, swap_conj(zt2)])
                blocks.append(ModeBlock(
                    kind="complex_pair", value=cls.value, size=2,
                    nbar1=alpha * np.eye(2), nbar2=-beta * SIGMA2,
                    w_cols=w_cols))
        elif cls.kind == "zero_off_kernel":
            z_off_semisimple.extend(cls.vectors)
        elif cls.kind == "zero_in_kernel":
            for z in cls.vectors:
                blocks.append(ModeBlock(
                    kind="kernel", value=0.0, size=1,
                    nbar1=np.zeros((1, 1)), nbar2=np.zeros((1, 1)),
                    w_cols=z.reshape(-1, 1)))
    if z_off_semisimple:
        w_cols, p_cols, nbar1, nbar2 = degenerate_factor(
            coupling, z_off_semisimple)
        blocks.append(ModeBlock(
            kind="degenerate_zero", value=0.0, size=len(z_off_semisimple),
            nbar1=nbar1, nbar2=nbar2, w_cols=w_cols,
            v_cols=[None] * len(z_off_semisimple),
            params={"p_cols": p_cols}))
    # canonical block order: nonzero classes first, then degenerate-zero,
    # kernel modes last
    order = {"real_positive": 0, "real_negative": 1, "complex_pair": 2,
             "jordan2": 3, "degenerate_zero": 4, "kernel": 5}
    blocks.sort(key=lambda b: (order[b.kind], -abs(b.value),
                               -np.real(b.value)))
    return blocks


def _apply_phase_convention(blocks: list) -> None:
    """Fix the free unit phase of each block's leading W column."""
    # degenerate-zero phases are already fixed by the sign normalization
    free = [b for b in blocks if b.kind != "degenerate_zero"]
    if not free:
        return
    phases = unit_phases(np.column_stack([b.w_cols[:, 0] for b in free]))
    for b, phase in zip(free, phases):
        if b.size == 1:
            b.w_cols = b.w_cols * phase
        else:
            # one shared phase per pair: leading column gets phase, its
            # swap-conjugate partner column the conjugate phase
            b.w_cols = b.w_cols * np.array([phase, np.conj(phase)])


def _block_v_columns(coupling: np.ndarray, b: ModeBlock) -> None:
    """Fill in the V columns of one block from N W = V Nhat."""
    if b.kind == "kernel":
        b.v_cols = []
        return
    if b.kind == "degenerate_zero":
        return  # resolved by _degenerate_v_columns once the rest is known
    w_doubled = np.column_stack([b.w_cols, swap_conj(b.w_cols)])
    nbar = b.nbar_doubled()
    if b.kind == "jordan2" and b.params.get("in_kernel"):
        v_doubled = coupling @ w_doubled @ np.linalg.pinv(nbar)
        v1 = v_doubled[:, 0]
        if abs(j_inner(v1, v1).real - 1.0) > 1e-6:
            raise NumericalError(
                "determined port vector of a kernel Jordan block is not "
                "J-normalized")
        b.v_cols = [v1, None]
        return
    cond = np.linalg.cond(nbar)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        if b.kind == "jordan2" and abs(b.value) < 1e-6:
            raise UnsupportedStructureError(
                "size-2 Jordan block at eigenvalue zero with eigenvector "
                "outside Ker N has a singular canonical block and is not "
                "supported")
        raise NumericalError(
            f"canonical block for eigenvalue {b.value:.6g} is too badly "
            f"conditioned to invert (cond = {cond:.3e})")
    v_doubled = coupling @ w_doubled @ np.linalg.inv(nbar)
    b.v_cols = [v_doubled[:, i] for i in range(b.size)]


def _degenerate_v_columns(m: int, known_cols: list, p_cols: list) -> list:
    """Resolve the V columns of J-neutral zero modes.

    Each neutral image p (with Sigma p# = p) splits as p = v + Sigma v#.
    The swap-antisymmetric parts u = v - Sigma v#, the columns of U, lie in
    the J-orthogonal complement B of all placed columns and their partners,
    and with P = [p_1, ...] they satisfy P^dag J U = 2 I and U^dag J U = 0;
    then V = (P + U) / 2 is J-orthonormal and J-orthogonal to every partner.
    One null space gives B; U = 2 B pinv(P^dag J B) meets the pairing,
    (U - Sigma U#) / 2 makes it swap-antisymmetric without changing the
    pairing, and U - P (U^dag J U) / 4 makes it J-neutral.
    """
    jm = jmat(2 * m)
    p = np.column_stack(p_cols)
    placed = np.column_stack([np.zeros((2 * m, 0)), *known_cols])
    placed = np.column_stack([placed, swap_conj(placed)])
    basis = null_space(placed.conj().T @ jm, 1e-10)
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
    return list(v.T)


def complete_j_basis(known_cols: np.ndarray, m: int) -> list:
    """J-orthonormal positive vectors completing known doubled-up columns.

    ``known_cols`` holds k first-half columns (J-norm +1, partners implied);
    returns m - k further positive vectors spanning, together with the
    known ones and all partners, the whole space C^{2m}.  When k = m there
    is nothing to complete, and no null space is computed: whether the
    known columns are J-orthonormal is then the Bogoliubov check of V.
    """
    k = known_cols.shape[1]
    if k == m:
        return []
    if k == 0:
        basis = np.eye(2 * m, dtype=complex)
    else:
        doubled = np.column_stack([known_cols, swap_conj(known_cols)])
        basis = null_space(doubled.conj().T @ jmat(2 * m), 1e-10)
        if basis.shape[1] != 2 * (m - k):
            raise NumericalError(
                "J-orthogonal complement has unexpected dimension "
                f"{basis.shape[1]}; existing columns are not J-orthonormal")
    return j_positive_vectors(basis, m - k)


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
    _apply_phase_convention(blocks)

    r = sum(b.size for b in blocks if b.kind != "kernel")
    if r > m:
        raise NumericalError(
            f"canonical coupling needs {r} ports but only {m} outputs exist")

    for b in blocks:
        _block_v_columns(coupling, b)
    for b in blocks:
        if b.kind == "degenerate_zero":
            determined = [c for blk in blocks for c in (blk.v_cols or [])
                          if c is not None]
            b.v_cols = _degenerate_v_columns(m, determined,
                                             b.params["p_cols"])

    # assemble W
    w_first = np.column_stack([b.w_cols for b in blocks]) \
        if blocks else np.zeros((2 * n, 0), dtype=complex)
    w = np.column_stack([w_first, swap_conj(w_first)])

    # assemble Nhat with each block on the diagonal of the active corner
    nhat1 = np.zeros((m, n), dtype=complex)
    nhat2 = np.zeros((m, n), dtype=complex)
    pos = 0
    v_first_cols: list = []
    for b in blocks:
        if b.kind == "kernel":
            continue
        s = b.size
        nhat1[pos:pos + s, pos:pos + s] = b.nbar1
        nhat2[pos:pos + s, pos:pos + s] = b.nbar2
        v_first_cols.extend(b.v_cols)
        pos += s
    nhat = np.block([[nhat1, nhat2], [np.conj(nhat2), np.conj(nhat1)]])

    known = [c for c in v_first_cols if c is not None]
    known_mat = (np.column_stack(known) if known
                 else np.zeros((2 * m, 0), dtype=complex))
    fill = complete_j_basis(known_mat, m)
    fill_iter = iter(fill)
    v_first = np.column_stack(
        [c if c is not None else next(fill_iter) for c in v_first_cols]
        + list(fill_iter)) if (v_first_cols or m > 0) else known_mat
    v = np.column_stack([v_first, swap_conj(v_first)])

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

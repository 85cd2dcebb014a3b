"""Decomposition of static networks into optical device schedules.

A Bogoliubov matrix R factors as (Bloch-Messiah)

    R = diag(U2, U2#) [[cosh X, sinh X], [sinh X, cosh X]] diag(U1, U1#)

with U1, U2 unitary and X = diag(x_1..x_m) >= 0; the unitary factors then
break into at most m(m-1)/2 two-channel beamsplitters plus output phases
(triangular elimination), and the middle factor into m single-mode
squeezers.  A ``DeviceSchedule`` is an ordered list of such devices whose
embedded matrices multiply out (left to right) to the decomposed matrix.

Every device acts on at most two rows, so a schedule is multiplied out by
row updates of one dim x dim array: the residual check of an m-channel
schedule costs O(m^3), the same as the triangular elimination itself.  The
check uses the device parameters as they are serialized, with all
beamsplitter blocks built in one stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, sqrtm

from .errors import NumericalError, StructureError
from .krein import check_bogoliubov, is_bogoliubov

ANGLE_EPS = 1e-12


def takagi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric factorization A = U diag(s) U^T with s >= 0, U unitary.

    Works for complex symmetric A, including repeated singular values:
    within each group of equal singular values the left/right singular
    bases differ only by a unitary whose symmetric square root realigns
    them.
    """
    a = np.asarray(a, dtype=complex)
    if np.linalg.norm(a - a.T) > 1e-9 * max(1.0, np.linalg.norm(a)):
        raise StructureError("takagi requires a complex symmetric matrix")
    v, s, wh = np.linalg.svd(a)
    w = wh.conj().T
    scale = s[0] if s.size and s[0] > 0 else 1.0
    groups, start = [], 0
    for i in range(1, len(s) + 1):
        if i == len(s) or abs(s[i] - s[start]) > 1e-9 * scale:
            groups.append((start, i))
            start = i
    qs = []
    for lo, hi in groups:
        if s[lo] <= 1e-12 * scale:
            qs.append(np.eye(hi - lo))
            continue
        # v_g^T w_g is unitary symmetric on the group; its principal square
        # root q satisfies v_g conj(q) diag(s) (v_g conj(q))^T = a on it
        q = sqrtm(v[:, lo:hi].T @ w[:, lo:hi])
        qs.append(q)
    u = v @ np.conj(block_diag(*qs))
    if np.linalg.norm(u @ np.diag(s) @ u.T - a) > 1e-7 * max(1.0, scale):
        raise NumericalError("symmetric factorization failed to converge")
    return s, u


def bloch_messiah(r_mat: np.ndarray) -> tuple:
    """Factor Bogoliubov R = diag(U2, U2#) S(x) diag(U1, U1#).

    Returns (u2, x, u1) with x the vector of squeezing parameters >= 0 and
    S(x) = [[cosh X, sinh X], [sinh X, cosh X]].
    """
    r_mat = np.asarray(r_mat, dtype=complex)
    check_bogoliubov(r_mat, tol=1e-7, what="static network")
    m = r_mat.shape[0] // 2
    r1 = r_mat[:m, :m]
    r2 = r_mat[:m, m:]
    # R1 R1^dag = I + R2 R2^dag, so R1 is always invertible.
    b = r2 @ np.conj(np.linalg.inv(r1))
    tanh, u2 = takagi((b + b.T) / 2)
    tanh = np.clip(tanh, 0.0, 1.0 - 1e-15)
    x = np.arctanh(tanh)
    cosh = 1.0 / np.sqrt(1.0 - tanh ** 2)
    u1 = np.diag(1.0 / cosh) @ u2.conj().T @ r1
    # residual check of both half-blocks
    res1 = np.linalg.norm(u2 @ np.diag(cosh) @ u1 - r1)
    res2 = np.linalg.norm(u2 @ np.diag(np.sinh(x)) @ u1.conj() - r2)
    if max(res1, res2) > 1e-7 * max(1.0, np.linalg.norm(r_mat)):
        raise NumericalError("squeezer-unitary factorization residual too "
                             f"large ({max(res1, res2):.3e})")
    return u2, x, u1


@dataclass
class Device:
    kind: str            # beamsplitter | phase | squeezer
    channels: tuple
    params: dict = field(default_factory=dict)

    def embed(self, m: int, doubled: bool) -> np.ndarray:
        """Matrix of the device on m channels (2m x 2m when doubled)."""
        out = np.eye(2 * m if doubled else m, dtype=complex)
        for rows, block in _row_blocks([self], m, doubled)[0]:
            out[rows, rows] = block
        return out


def beamsplitter_matrix(theta, phi=0.0, psi=0.0, zeta=0.0) -> np.ndarray:
    """Two-channel unitary with transmission cos(theta/2) and three phases.

    Array parameters broadcast and give a stack of shape (..., 2, 2).
    """
    theta, phi, psi, zeta = np.broadcast_arrays(theta, phi, psi, zeta)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    out = np.stack([
        np.stack([np.exp(1j * (phi + psi) / 2) * c,
                  np.exp(1j * (psi - phi) / 2) * s], axis=-1),
        np.stack([-np.exp(1j * (phi - psi) / 2) * s,
                  np.exp(-1j * (phi + psi) / 2) * c], axis=-1),
    ], axis=-2)
    return np.exp(1j * zeta)[..., None, None] * out


def squeezer_matrix(x, phi=0.0, psi=0.0) -> np.ndarray:
    """Doubled-up 2 x 2 single-mode squeezer block (stacked like
    ``beamsplitter_matrix`` for array parameters)."""
    x, phi, psi = np.broadcast_arrays(x, phi, psi)
    ch, sh = np.cosh(x), np.sinh(x)
    return np.stack([
        np.stack([np.exp(1j * (phi + psi)) * ch,
                  np.exp(1j * (psi - phi)) * sh], axis=-1),
        np.stack([np.exp(1j * (phi - psi)) * sh,
                  np.exp(-1j * (phi + psi)) * ch], axis=-1),
    ], axis=-2)


def _phase_matrix(theta) -> np.ndarray:
    return np.exp(1j * np.asarray(theta))[..., None, None]


#: device kind -> (block builder, parameter names, their defaults; None marks
#: a required parameter)
_BLOCKS = {
    "beamsplitter": (beamsplitter_matrix, ("theta", "phi", "psi", "zeta"),
                     (None, 0.0, 0.0, 0.0)),
    "phase": (_phase_matrix, ("theta",), (None,)),
    "squeezer": (squeezer_matrix, ("x", "phi", "psi"), (None, 0.0, 0.0)),
}


def _row_blocks(devices: list, m: int, doubled: bool) -> list:
    """The action of each device as (rows, block) pairs.

    A device's embedded matrix is the identity except for ``block`` on
    ``rows`` x ``rows``, where ``rows`` is a slice picking the device's one
    or two rows in ascending order; on doubled-up channels a beamsplitter or
    phase also acts on the rows + m with the conjugate block, and a squeezer
    couples rows i and i + m.  Blocks are built from the device parameters,
    one stacked call per device kind.
    """
    blocks = [None] * len(devices)
    for kind, (build, names, defaults) in _BLOCKS.items():
        index = [j for j, dev in enumerate(devices) if dev.kind == kind]
        if not index:
            continue
        # a missing required parameter reads as None, which becomes NaN
        args = np.array([list(map(devices[j].params.get, names, defaults))
                         for j in index], dtype=float)
        if np.isnan(args).any():
            raise StructureError(
                f"{kind} with a missing or NaN parameter ({', '.join(names)})")
        stack = build(*args.T)
        for j, block, conj in zip(index, stack, stack.conj()):
            blocks[j] = block, conj
    out = []
    for dev, built in zip(devices, blocks):
        if built is None:
            raise StructureError(f"unknown device kind {dev.kind!r}")
        block, conj = built
        first, last = dev.channels[0], dev.channels[-1]
        if dev.kind == "squeezer":
            if not doubled:
                raise StructureError(
                    "squeezers only exist in doubled-up schedules")
            out.append([(slice(first, first + m + 1, m), block)])
            continue
        if last < first:
            first, last = last, first
            block, conj = block[::-1, ::-1], conj[::-1, ::-1]
        step = max(last - first, 1)
        updates = [(slice(first, last + 1, step), block)]
        if doubled:
            updates.append((slice(first + m, last + m + 1, step), conj))
        out.append(updates)
    return out


def _angle(z):
    """``np.angle`` with the branch cut moved just below the negative real
    axis: angles within ANGLE_EPS of -pi become ones near +pi, so a value
    that is numerically real and negative gets angle pi whichever sign the
    rounding error of its imaginary part has."""
    ang = np.angle(z)
    return np.where(ang < ANGLE_EPS - np.pi, ang + 2.0 * np.pi, ang)


def beamsplitter_params(g: np.ndarray) -> dict:
    """Recover (theta, phi, psi, zeta) from a 2 x 2 unitary, or from each
    matrix of a (..., 2, 2) stack (the parameters are then arrays)."""
    g = np.asarray(g, dtype=complex)
    zeta = _angle(np.linalg.det(g)) / 2.0
    gs = g * np.exp(-1j * zeta)[..., None, None]
    a, b = gs[..., 0, 0], gs[..., 0, 1]
    theta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    half_sum = np.where(np.abs(a) > ANGLE_EPS, _angle(a), 0.0)
    half_diff = np.where(np.abs(b) > ANGLE_EPS, _angle(b), 0.0)
    params = {"theta": theta, "phi": half_sum - half_diff,
              "psi": half_sum + half_diff, "zeta": zeta}
    miss = np.linalg.norm(beamsplitter_matrix(**params) - g, axis=(-2, -1))
    if np.any(miss > 1e-8):
        raise NumericalError("beamsplitter parameter extraction failed")
    return params


@dataclass
class DeviceSchedule:
    """Ordered device list; ``matrix()`` multiplies the embeddings out."""

    channels: int
    doubled: bool
    devices: list = field(default_factory=list)

    def matrix(self) -> np.ndarray:
        """Product of the embedded devices, first device leftmost.

        The devices are applied last to first to the identity, each as an
        update of the rows it touches, so the product costs O(dim) per
        device instead of a dense dim x dim multiplication.
        """
        dim = 2 * self.channels if self.doubled else self.channels
        out = np.eye(dim, dtype=complex)
        for updates in reversed(_row_blocks(self.devices, self.channels,
                                            self.doubled)):
            for rows, block in updates:
                out[rows] = block @ out[rows]
        return out

    def residual(self, target: np.ndarray) -> float:
        return float(np.linalg.norm(self.matrix() - target)
                     / max(1.0, np.linalg.norm(target)))


def reck_decompose(u: np.ndarray) -> DeviceSchedule:
    """Factor a unitary into adjacent-channel beamsplitters plus phases.

    Entries below the diagonal are eliminated column by column from the
    bottom with two-channel rotations; the leftover diagonal becomes output
    phase shifters.  At most m(m-1)/2 beamsplitters are produced.  A rotation
    at column ``col`` only touches columns ``col:`` of its two rows, since
    the earlier columns of those rows are already eliminated.
    """
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    if np.linalg.norm(u @ u.conj().T - np.eye(m)) > 1e-8 * m:
        raise StructureError("reck decomposition requires a unitary matrix")
    work = u.copy()
    rows, rotations = [], []
    for col in range(m - 1):
        for row in range(m - 1, col, -1):
            pair = work[row - 1:row + 1, col:]
            a, b = pair[:, 0].tolist()
            if abs(b) <= ANGLE_EPS * max(1.0, abs(a)):
                continue
            nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            t = np.array([[a.conjugate(), b.conjugate()], [-b, a]]) / nrm
            pair[...] = t @ pair
            rows.append(row - 1)
            rotations.append(t)
    schedule = DeviceSchedule(channels=m, doubled=False)
    # work = t_k .. t_1 u is diagonal, so u = t_1^dag .. t_k^dag diag
    if rotations:
        params = beamsplitter_params(np.conj(np.swapaxes(rotations, 1, 2)))
        columns = {key: value.tolist() for key, value in params.items()}
        for j, row in enumerate(rows):
            schedule.devices.append(Device(
                kind="beamsplitter", channels=(row, row + 1),
                params={key: value[j] for key, value in columns.items()}))
    for i in range(m):
        theta = float(_angle(work[i, i]))
        if abs(theta) > ANGLE_EPS:
            schedule.devices.append(Device(
                kind="phase", channels=(i,), params={"theta": theta}))
    if schedule.residual(u) > 1e-8:
        raise NumericalError("triangular unitary decomposition residual "
                             "too large")
    return schedule


def schedule_static(r_mat: np.ndarray,
                    kind: str | None = None) -> DeviceSchedule:
    """Device schedule for a static network.

    Unitary inputs give a beamsplitter/phase schedule; Bogoliubov inputs are
    split by ``bloch_messiah`` into (unitary, squeezers, unitary) and the
    pieces concatenated on doubled-up channels.  ``kind`` forces the
    interpretation ('unitary' or 'bogoliubov') and only that structure is
    checked; by default Bogoliubov structure is preferred when present.
    """
    if kind not in (None, "unitary", "bogoliubov"):
        raise StructureError(f"unknown static network kind {kind!r}")
    r_mat = np.asarray(r_mat, dtype=complex)
    dim = r_mat.shape[0]
    bogoliubov = (kind != "unitary" and dim % 2 == 0
                  and is_bogoliubov(r_mat, 1e-7))
    if kind is None:
        kind = "bogoliubov" if bogoliubov else "unitary"
    if kind == "unitary":
        if not (np.linalg.norm(r_mat @ r_mat.conj().T - np.eye(dim))
                <= 1e-8 * dim):
            raise StructureError("static network is not unitary")
        return reck_decompose(r_mat)
    if not bogoliubov:
        raise StructureError("static network is not Bogoliubov")
    m = dim // 2
    u2, x, u1 = bloch_messiah(r_mat)
    schedule = DeviceSchedule(channels=m, doubled=True)
    for dev in reck_decompose(u2).devices:
        schedule.devices.append(dev)
    for i in range(m):
        if abs(x[i]) > ANGLE_EPS:
            schedule.devices.append(Device(
                kind="squeezer", channels=(i,), params={"x": float(x[i])}))
    for dev in reck_decompose(u1).devices:
        schedule.devices.append(dev)
    if schedule.residual(r_mat) > 1e-7:
        raise NumericalError("static network schedule residual too large")
    return schedule

"""Decomposition of static networks into optical device schedules.

A Bogoliubov matrix R factors as (Bloch-Messiah)

    R = diag(U2, U2#) [[cosh X, sinh X], [sinh X, cosh X]] diag(U1, U1#)

with U1, U2 unitary and X = diag(x_1..x_m) >= 0.  ``bloch_messiah`` finds
it from one SVD of the block R1 and one Takagi factorization, with no
inverse, so U1 and U2 are unitary to rounding however strong the squeezing,
and a schedule's residual does not grow with cosh x.  The unitary factors
then break into at most m(m-1)/2 two-channel beamsplitters, each with a
mixing angle theta and a phase psi, plus at most m output phases
(triangular elimination, m^2 real parameters), and the middle factor into m
single-mode squeezers, each with its squeezing x.  A ``DeviceSchedule`` is
an ordered list of such devices whose embedded matrices multiply out (left
to right) to the decomposed matrix.  It is stored as arrays: a kind code
per device (an index into ``KINDS``), a (k, 2) array of channels and a
(k, 2) table of parameters.  Schedules are only built here, by
``reck_decompose`` and ``schedule_static`` from computed arrays, and only
written: the one per-device view is ``devices``, the list of records
(dicts) that the netlist and ``lqss decompose`` write.

The triangular elimination (Reck et al., PRL 73, 58, 1994) takes one step
per column: a scalar pass over the column's magnitudes and angles finds
(theta, psi) of each rotation in closed form, and the rotations' product,
a unitary upper Hessenberg matrix in closed form, is applied as one matrix
product.  A unitary schedule is multiplied out by layers: walking the list
from the end, each device joins the first layer after the last one that
touched its channels, so the devices of one layer commute and are applied
as one stacked row update.  An m-channel Reck schedule has depth 2m - 3, so
either job takes O(m) numpy calls.  The residual check of every schedule
uses the device parameters as they are serialized.  Only unitary schedules
are multiplied out, each once: a Bogoliubov network's check reuses the
products P2, P1 of its two unitary factor schedules and forms
diag(P2, P2#) S(x) diag(P1, P1#).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, StructureError
from .krein import check_bogoliubov
from .lapack import sqrtm

ANGLE_EPS = 1e-12
#: the upper end of the branch (-pi/2, pi/2] of a beamsplitter's psi, moved
#: up by ANGLE_EPS / 2 like the cut of ``_angle``
HALF_TURN = 0.5 * (math.pi + ANGLE_EPS)


def takagi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric factorization A = U diag(s) U^T with s >= 0, U unitary.

    Works for complex symmetric A, including repeated singular values:
    within each group of equal singular values the left/right singular
    bases differ only by a unitary whose symmetric square root
    (``lapack.sqrtm``; ``np.sqrt`` for a group of one) realigns them.
    """
    a = np.asarray(a, dtype=complex)
    if np.linalg.norm(a - a.T) > 1e-9 * max(1.0, np.linalg.norm(a)):
        raise StructureError("takagi requires a complex symmetric matrix")
    v, s, wh = np.linalg.svd(a)
    w = wh.conj().T
    scale = s[0] if s.size and s[0] > 0 else 1.0
    # block diagonal, one block per group of equal singular values, built
    # in place: the identity on a zero group
    q, start = np.eye(len(s), dtype=complex), 0
    for i in range(1, len(s) + 1):
        if i == len(s) or abs(s[i] - s[start]) > 1e-9 * scale:
            if s[start] > 1e-12 * scale:
                # v_g^T w_g is unitary symmetric on the group; its principal
                # square root q_g satisfies v_g conj(q_g) diag(s) (v_g
                # conj(q_g))^T = a on it
                q[start:i, start:i] = sqrtm(v[:, start:i].T @ w[:, start:i])
            start = i
    u = v @ np.conj(q)
    if np.linalg.norm(u @ np.diag(s) @ u.T - a) > 1e-7 * max(1.0, scale):
        raise NumericalError("symmetric factorization failed to converge")
    return s, u


def bloch_messiah(r_mat: np.ndarray) -> tuple:
    """Factor Bogoliubov R = diag(U2, U2#) S(x) diag(U1, U1#).

    Returns (u2, x, u1) with x the vector of squeezing parameters >= 0 and
    S(x) = [[cosh X, sinh X], [sinh X, cosh X]].

    One SVD R1 = U2 diag(c) U1 of the top-left block gives c = cosh x.
    The Bogoliubov relations make F = U2^dag R2 U1^T complex symmetric with
    F F^dag = F^dag F = diag(c^2 - 1), so F is block-diagonal over the
    groups of equal c.  Its Takagi factorization F = Q diag(s) Q^T (s and c
    both descending) has Q diag(s^2) Q^dag = diag(c^2 - 1): Q mixes only
    within those groups, where it realigns the SVD's free bases, and gives
    U2 <- U2 Q, U1 <- Q^dag U1 and x = arcsinh(s).  No inverse is taken, so
    both factors are products of unitaries and unitary to rounding at any
    squeezing.
    """
    r_mat = np.asarray(r_mat, dtype=complex)
    check_bogoliubov(r_mat, tol=1e-7, what="static network")
    m = r_mat.shape[0] // 2
    r1 = r_mat[:m, :m]
    r2 = r_mat[:m, m:]
    u2, _, u1 = np.linalg.svd(r1)
    f = u2.conj().T @ r2 @ u1.T  # symmetric to the rounding of R
    sinh, q = takagi((f + f.T) / 2)
    u2, u1 = u2 @ q, q.conj().T @ u1
    x = np.arcsinh(sinh)
    # residual check of both half-blocks
    res1 = np.linalg.norm(u2 @ np.diag(np.cosh(x)) @ u1 - r1)
    res2 = np.linalg.norm(u2 @ np.diag(np.sinh(x)) @ u1.conj() - r2)
    if max(res1, res2) > 1e-7 * max(1.0, np.linalg.norm(r_mat)):
        raise NumericalError("squeezer-unitary factorization residual too "
                             f"large ({max(res1, res2):.3e})")
    return u2, x, u1


def beamsplitter_matrix(theta, psi) -> np.ndarray:
    """Two-channel unitary with transmission cos(theta/2) and phase psi.

    Arrays of one shape give a stack of shape (..., 2, 2).
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    plus, minus = np.exp(1j * psi / 2), np.exp(-1j * psi / 2)
    return np.stack([np.stack([plus * c, plus * s], axis=-1),
                     np.stack([-minus * s, minus * c], axis=-1)], axis=-2)


#: device kinds by code: (name, channel count, parameter names).  A device
#: always lists its first parameter and a beamsplitter its ``psi`` only when
#: it is non-zero.
KINDS = (
    ("beamsplitter", 2, ("theta", "psi")),
    ("phase", 1, ("theta",)),
    ("squeezer", 1, ("x",)),
)
BEAMSPLITTER, PHASE, SQUEEZER = range(len(KINDS))


def _layers(wires: np.ndarray, m: int) -> tuple:
    """The layer of each device of a schedule, and the number of layers.

    Layers are counted from the last device: each device goes into the first
    layer after the last one that touched either of its channels.
    """
    pairs = wires.tolist()
    layer = [0] * len(pairs)
    free = [0] * m  # first layer in which each channel is untouched
    for k in range(len(pairs) - 1, -1, -1):
        i, j = pairs[k]
        layer[k] = free[i] if free[i] > free[j] else free[j]
        free[i] = free[j] = layer[k] + 1
    return np.array(layer, dtype=int), max(free, default=0)


def _angle(z):
    """``np.angle`` with the branch cut moved just below the negative real
    axis: angles within ANGLE_EPS of -pi become ones near +pi, so a value
    that is numerically real and negative gets angle pi whichever sign the
    rounding error of its imaginary part has."""
    ang = np.angle(z)
    return np.where(ang < ANGLE_EPS - np.pi, ang + 2.0 * np.pi, ang)


def _table(*columns) -> np.ndarray:
    """(k, 2) parameter table of one or two length-k columns, zero-padded."""
    table = np.zeros((len(columns[0]), 2))
    table[:, :len(columns)] = np.transpose(columns)
    return table


def _miss(product: np.ndarray, target: np.ndarray) -> float:
    """Relative residual of a schedule's product against its network."""
    return float(np.linalg.norm(product - target)
                 / max(1.0, np.linalg.norm(target)))


@dataclass(eq=False)
class DeviceSchedule:
    """Ordered device list stored as arrays; ``matrix()`` multiplies out the
    embeddings of a unitary one.

    Device k is of kind ``KINDS[kinds[k]]`` and acts on the channels
    ``wires[k]`` (a one-channel device names its channel twice).  Row k of
    the (k, 2) table ``params`` holds its parameters in the order of its
    kind's names, padded with a zero.  ``devices`` lists the devices as the
    records a schedule file holds.  The arrays come from a decomposition,
    which multiplies the schedule out against its network before anything
    is written, so construction only fixes their dtypes.  ``residual`` is
    the product's residual that the decomposition checked.
    """

    channels: int
    doubled: bool
    kinds: np.ndarray
    wires: np.ndarray
    params: np.ndarray
    residual: float | None = field(default=None, init=False)

    def __post_init__(self):
        self.kinds = np.asarray(self.kinds, dtype=int)
        self.wires = np.asarray(self.wires, dtype=int)
        self.params = np.asarray(self.params, dtype=float)

    @property
    def devices(self) -> list:
        """The devices in order, each as a record: a dict of its kind name,
        channel list and parameter dict.

        The values are Python ints and floats, and each parameter dict lists
        its kind's parameters as ``KINDS`` says: the form in which
        ``modelio`` writes a schedule.
        """
        out = [None] * len(self.kinds)
        for code, (name, count, names) in enumerate(KINDS):
            index = np.flatnonzero(self.kinds == code)
            values = self.params[index, :len(names)]
            listed = values != 0.0
            listed[:, 0] = True
            # grouped by the parameters they list, each record is one dict
            # of a zip, which keeps the work per device in C
            patterns = listed @ (1 << np.arange(len(names)))
            for pattern in np.unique(patterns).tolist():
                group = np.flatnonzero(patterns == pattern)
                shown = listed[group[0]]
                keys = [key for key, on in zip(names, shown) if on]
                for at, channels, row in zip(
                        index[group].tolist(),
                        self.wires[index[group], :count].tolist(),
                        values[group][:, shown].tolist()):
                    out[at] = {"kind": name, "channels": channels,
                               "params": dict(zip(keys, row))}
        return out

    def matrix(self) -> np.ndarray:
        """Product of the embedded devices of a unitary schedule, first
        device leftmost.

        The devices of a layer (see ``_layers``) act on disjoint channels,
        so the layers are applied in turn to the identity, each as one
        stacked update of the rows (i, j) of its beamsplitters and one of
        the rows i of its phases.  An m-channel Reck schedule has depth
        2m - 3, so its product takes O(m) numpy calls and O(m^3)
        arithmetic.  A doubled-up schedule is not multiplied out:
        ``schedule_static`` forms its product from those of its unitary
        factors.
        """
        if self.doubled:
            raise StructureError("only a unitary device schedule is "
                                 "multiplied out")
        layer, depth = _layers(self.wires, self.channels)
        splitters = self.kinds == BEAMSPLITTER
        phases = ~splitters
        groups = []
        for rows, blocks, layers in (
                (self.wires[splitters],
                 beamsplitter_matrix(*self.params[splitters].T),
                 layer[splitters]),
                (self.wires[phases, :1],
                 np.exp(1j * self.params[phases, 0])[:, None, None],
                 layer[phases])):
            order = np.argsort(layers, kind="stable")
            bounds = np.searchsorted(layers[order], np.arange(depth + 1))
            groups.append((rows[order], blocks[order], bounds.tolist()))
        out = np.eye(self.channels, dtype=complex)
        for k in range(depth):
            for rows, blocks, bounds in groups:
                lo, hi = bounds[k], bounds[k + 1]
                if lo < hi:
                    picked = rows[lo:hi]
                    out[picked] = blocks[lo:hi] @ out[picked]
        return out


def _eliminate(u: np.ndarray) -> tuple:
    """Column-step triangular elimination of a unitary (see
    ``reck_decompose``): (rows, theta, psi, diagonal), the top row of each
    rotation's channel pair and the parameters of its beamsplitter, in the
    order applied, and the diagonal left over."""
    m = u.shape[0]
    work = u.copy()
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    rows, thetas, psis = [], [], []
    for col in range(m - 1):
        x = work[col:, col]
        k = len(x)
        magnitudes = np.abs(x)
        sizes = magnitudes.tolist()
        # a numerically zero entry has angle 0, so rounding errors in an
        # exact zero give the same parameters
        angles = np.where(magnitudes > ANGLE_EPS, np.angle(x), 0.0).tolist()
        # (|a|, the signed |b|, psi) of each rotated pair (j, j + 1) of
        # work[col:], from the bottom; the carry b is |b| e^{i phase}
        turned, tops, belows, turns = [], [], [], []
        below, phase = sizes[-1], angles[-1]
        for j in range(k - 2, -1, -1):
            size = sizes[j]
            if below <= ANGLE_EPS * (size if size > 1.0 else 1.0):
                below, phase = size, angles[j]
                continue
            # psi = arg(a) - arg(b) - n pi in (-pi/2, pi/2] makes
            # e^{i psi} b / a = (-1)^n |b| / |a|, which the signed theta
            # nulls; ties go to +pi/2 as in _angle
            turn, signed = angles[j] - phase, below
            while turn > HALF_TURN:
                turn, signed = turn - math.pi, -signed
            while turn <= HALF_TURN - math.pi:
                turn, signed = turn + math.pi, -signed
            turned.append(j)
            tops.append(size)
            belows.append(signed)
            turns.append(turn)
            below = math.sqrt(size * size + below * below)
            phase = angles[j] - 0.5 * turn
        if not turned:
            continue
        rows += [col + j for j in turned]
        thetas += (-2.0 * np.arctan2(belows, tops)).tolist()
        psis += turns
        theta, psi = np.zeros(k - 1), np.zeros(k - 1)  # 0: the identity
        theta[turned], psi[turned] = thetas[-len(turned):], turns
        # rotation j is t_j = R(theta_j)^T diag(e^{-i psi_j/2}, e^{i psi_j/2})
        # with top row (alpha_j, beta_j) and bottom row (gamma_j, delta_j)
        cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
        half = np.exp(0.5j * psi)
        alpha, beta = cos * half.conj(), -sin * half
        gamma, delta = sin * half.conj(), cos * half
        # their product t_0 t_1 .. t_{k-2}: row r is delta_{r-1} c[r] plus
        # gamma_{r-1} at column r - 1, where c[r, j] = alpha_j beta_r ..
        # beta_{j-1} for j >= r (and alpha_{k-1} = 1)
        q = np.cumprod(np.where(upper[:k, :k], np.concatenate(([0], beta)),
                                1.0), axis=1)
        q[upper[:k, :k].T] = 0.0
        q[:, :-1] *= alpha
        q[1:] *= delta[:, None]
        q.reshape(-1)[k::k + 1] = gamma
        work[col:, col:] = q @ work[col:, col:]
    return rows, thetas, psis, np.diag(work)


def reck_decompose(u: np.ndarray, with_product: bool = False):
    """Factor a unitary into adjacent-channel beamsplitters plus phases.

    Entries below the diagonal are eliminated column by column from the
    bottom with two-channel rotations; the leftover diagonal becomes at most
    m output phase shifters.  At most m(m-1)/2 beamsplitters are produced,
    each with a mixing angle theta and a phase psi: at most m^2 real
    parameters, as in Reck et al.

    Each column is one step.  A scalar pass up the column x, over its
    magnitudes and angles, finds all its rotations: at the pair of rows
    (r - 1, r), a = x[r - 1] meets the carry b from below; the pair is
    skipped when |b| <= ANGLE_EPS max(1, |a|) and is otherwise rotated by
    t = R(theta)^T diag(e^{-i psi/2}, e^{i psi/2}), R(theta) = [[cos, sin],
    [-sin, cos]](theta / 2), whose device is t^dag =
    ``beamsplitter_matrix(theta, psi)``.  psi = arg a - arg b - n pi in
    (-pi/2, pi/2] (ties moved like ``_angle``'s cut, and arg a = 0 when
    |a| <= ANGLE_EPS) makes e^{i psi} b / a = (-1)^n |b| / |a|, which theta
    = -(-1)^n 2 atan2(|b|, |a|) nulls.  The new carry |(a, b)| e^{i (arg a
    - psi / 2)} keeps its phase, which ends on the diagonal, and has the
    magnitude of an elimination that makes every carry real, so the skip
    rule picks the same pairs.  The product of the column's rotations over
    its trailing k = m - col rows is a unitary upper Hessenberg matrix; it
    is built in closed form from one cumulative product of a k x k array,
    with no division, and applied as one matrix product.  So the
    elimination takes O(m) numpy calls and O(m^4) BLAS work, where rotating
    one pair at a time takes O(m^2) numpy calls.

    The schedule is multiplied out once and must reproduce u to 1e-8; with
    ``with_product`` the result is (schedule, that product).
    """
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    # a wide u with orthonormal rows passes the product check alone
    if u.shape != (m, m) or not (
            np.linalg.norm(u @ u.conj().T - np.eye(m)) <= 1e-8 * m):
        raise StructureError("static network is not unitary")  # NaN too
    rows, theta, psi, diagonal = _eliminate(u)
    # the eliminated u is diagonal, so u = t_1^dag .. t_K^dag diag
    phases = _angle(diagonal)
    shifted = np.flatnonzero(np.abs(phases) > ANGLE_EPS)
    rows = np.array(rows, dtype=int)
    schedule = DeviceSchedule(
        channels=m, doubled=False,
        kinds=np.repeat([BEAMSPLITTER, PHASE], [len(rows), len(shifted)]),
        wires=np.concatenate([np.stack([rows, rows + 1], axis=1),
                              np.stack([shifted, shifted], axis=1)]),
        params=np.concatenate([_table(theta, psi),
                               _table(phases[shifted])]))
    product = schedule.matrix()
    schedule.residual = _miss(product, u)
    if schedule.residual > 1e-8:
        raise NumericalError("triangular unitary decomposition residual "
                             "too large")
    return (schedule, product) if with_product else schedule


def schedule_static(r_mat: np.ndarray,
                    kind: str | None = None) -> DeviceSchedule:
    """Device schedule for a static network.

    Unitary inputs give a beamsplitter/phase schedule; Bogoliubov inputs are
    split by ``bloch_messiah`` into (unitary, squeezers, unitary) and the
    pieces concatenated on doubled-up channels.  ``kind`` forces the
    interpretation ('unitary' or 'bogoliubov') and only that structure is
    checked, once, by ``reck_decompose`` or ``bloch_messiah``; by default
    Bogoliubov structure is preferred when present: a network that fails
    ``bloch_messiah``'s Bogoliubov check is decomposed as unitary, so each
    structure is still checked once.

    Each unitary factor's schedule is multiplied out once, in
    ``reck_decompose``, and must reproduce its factor to 1e-8.  The whole
    doubled schedule's product is then diag(P2, P2#) S(x) diag(P1, P1#),
    from those products P2, P1 and the squeezer parameters as written, and
    must reproduce the network to 1e-7.
    """
    if kind not in (None, "unitary", "bogoliubov"):
        raise StructureError(f"unknown static network kind {kind!r}")
    r_mat = np.asarray(r_mat, dtype=complex)
    if kind == "unitary":
        return reck_decompose(r_mat)
    try:
        u2, x, u1 = bloch_messiah(r_mat)
    except StructureError:  # only its Bogoliubov check raises this
        if kind:
            raise
        return reck_decompose(r_mat)
    m = r_mat.shape[0] // 2
    left, p2 = reck_decompose(u2, with_product=True)
    right, p1 = reck_decompose(u1, with_product=True)
    x = np.where(np.abs(x) > ANGLE_EPS, x, 0.0)  # the squeezing as written
    squeezed = np.flatnonzero(x)
    schedule = DeviceSchedule(
        channels=m, doubled=True,
        kinds=np.concatenate([left.kinds, np.full(len(squeezed), SQUEEZER),
                              right.kinds]),
        wires=np.concatenate([left.wires,
                              np.stack([squeezed, squeezed], axis=1),
                              right.wires]),
        params=np.concatenate([left.params, _table(x[squeezed]),
                               right.params]))
    diag = (p2 * np.cosh(x)) @ p1
    cross = (p2 * np.sinh(x)) @ p1.conj()
    product = np.block([[diag, cross], [cross.conj(), diag.conj()]])
    schedule.residual = _miss(product, r_mat)
    if schedule.residual > 1e-7:
        raise NumericalError("static network schedule residual too large")
    return schedule

"""Shared builders for test cases.

Random models and structured matrices, the model file writer, the
open-loop cavity bank used as a reference for feedback closure, written
device records multiplied out one device at a time, the triangular
decomposition one rotation at a time used as a reference for
``reck_decompose`` and ``schedule_static``, planted factorization cases,
the pair counts and Jordan classes of a Krein spectrum, a count of the
``Model`` objects a call builds, a record of the route each Schur
reduction takes, a LAPACK Schur reduction made to report failure, a record
of the functions that call a given one, and JSON file reads and writes
that close their files.

A planted case starts from a hand-built canonical coupling Nhat (whose Gram
eigenvalues are known exactly) and hides it behind random Bogoliubov
factors: N = V Nhat W^b.  Recovering the factorization must then reproduce
the planted eigenvalue multiset and reconstruct N.
"""

import cmath
import ctypes
import json
import math
import sys
from collections import namedtuple

import numpy as np
from scipy.linalg import expm

from lqss import krein, lapack
from lqss.dusvd import SIGMA2, jordan2_factor, pair_weights
from lqss.errors import StructureError
from lqss.krein import flat_adjoint, jmat
from lqss.modelio import SCHEMA_VERSION, encode_matrix
from lqss.netlist import ANGLE_EPS, _angle, beamsplitter_matrix, bloch_messiah
from lqss.statespace import Model, StateSpace, adjoint, drift

#: eigenvector pairs of a Krein spectrum by class: semisimple real positive
#: and real negative, complex pairs, and semisimple zero off and in Ker N
PairCounts = namedtuple("PairCounts",
                        "r_plus r_minus r_c r_0_off_kernel r_0_kernel")


def pair_counts(spec):
    """The ``PairCounts`` of a ``spectral.KreinSpectrum``."""
    def pairs(kind):
        return sum(c.pair_count for c in spec.classes
                   if c.kind == kind and c.jordan_size == 1)

    return PairCounts(pairs("real_positive"), pairs("real_negative"),
                      pairs("complex_pair"), pairs("zero_off_kernel"),
                      pairs("zero_in_kernel"))


def jordan_pairs(spec):
    """The classes of a ``spectral.KreinSpectrum`` with a size-2 Jordan
    block."""
    return [c for c in spec.classes if c.jordan_size == 2]


def counted_builds(monkeypatch):
    """The list to which every ``Model`` built from now on, in the test
    that owns ``monkeypatch``, appends its kind: each construction runs the
    model's input checks once."""
    built = []
    check = Model.__post_init__

    def counted(self):
        built.append(self.kind)
        check(self)

    monkeypatch.setattr(Model, "__post_init__", counted)
    return built


def recorded_schur_routes(monkeypatch):
    """The list to which every Schur reduction from now on, in the test
    that owns ``monkeypatch``, appends the form ``krein.schur_form`` asks
    of ``lapack.schur``, read from the dtype of the matrix it passes:
    "real" for the route through Phi A Phi^dag, "complex" for the other."""
    routes, original = [], krein.schur

    def recorded(a):
        routes.append("complex" if np.iscomplexobj(a) else "real")
        return original(a)

    monkeypatch.setattr(krein, "schur", recorded)
    return routes


def failing_gees(monkeypatch, info: int):
    """Make every Schur reduction from now on, in the test that owns
    ``monkeypatch``, fail in LAPACK: the bound ``dgees`` and ``zgees`` run,
    then write ``info`` where they return theirs, the last argument."""
    for name in ("dgees", "zgees"):
        original = lapack._ROUTINES[name]

        def failing(*addresses, _original=original):
            _original(*addresses)
            ctypes.c_int.from_address(addresses[-1]).value = info

        monkeypatch.setitem(lapack._ROUTINES, name, failing)


def recorded_callers(monkeypatch, owner, name):
    """The list to which every call of ``owner.name`` from now on, in the
    test that owns ``monkeypatch``, appends the name of the calling
    function."""
    callers, original = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return callers


def read_json(path):
    """The JSON document in the file at ``path``."""
    with open(path) as fh:
        return json.load(fh)


def write_json(path, data):
    """Write ``data`` as JSON to the file at ``path``, closed on return."""
    with open(path, "w") as fh:
        json.dump(data, fh)


def model_to_dict(model, detunings=None):
    """A model file's contents, as ``modelio.load_model`` reads them."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "type": model.kind,
        "modes": model.n_modes,
        "ports": model.n_ports,
        "M": encode_matrix(model.m_mat),
        "N": encode_matrix(model.n_mat),
        "S": encode_matrix(model.s_mat),
    }
    if detunings is not None:
        out["detunings"] = [float(v) for v in detunings]
    return out


def sigmat(dim):
    """Sigma = [[0, I_k], [I_k, 0]] for even dim = 2k."""
    k = dim // 2
    out = np.zeros((dim, dim))
    out[:k, k:] = np.eye(k)
    out[k:, :k] = np.eye(k)
    return out


def random_hermitian_doubled_up(k, rng, scale=1.0):
    """Random 2k x 2k Hermitian doubled-up matrix (H1 Hermitian, H2 symmetric)."""
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    b = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    h1 = (a + a.conj().T) / 2
    h2 = (b + b.T) / 2
    return scale * np.block([[h1, h2], [h2.conj(), h1.conj()]])


def random_bogoliubov(k, seed=None, scale=0.5):
    """Random Bogoliubov matrix exp(-i J H) with H Hermitian doubled-up.

    ``scale`` controls the size of H; large values give badly conditioned
    (strongly squeezing) outputs.
    """
    if k < 1:
        raise StructureError("mode count must be >= 1")
    rng = np.random.default_rng(seed)
    h = random_hermitian_doubled_up(k, rng, scale)
    return expm(-1j * jmat(2 * k) @ h)


def random_doubled_up(m, n, rng, scale=1.0):
    """Random dense 2m x 2n doubled-up matrix."""
    x1 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    x2 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return scale * np.block([[x1, x2], [x2.conj(), x1.conj()]])


def assemble_open_network(kind, nhat, m_conc, ntilde):
    """Cavity bank with both system and interconnect ports left open.

    Inputs/outputs are stacked [system ports; interconnect ports]; the
    scattering matrix is the identity.  Closing the interconnect ports
    through R by hand is the reference for ``close_feedback``.
    """
    dim = m_conc.shape[0]
    if ntilde.shape != (dim, dim):
        raise StructureError("interconnect coupling must be square over "
                             "the mode dimension")
    nh_adj = adjoint(kind, nhat)
    nt_adj = adjoint(kind, ntilde)
    a = drift(kind, m_conc) - 0.5 * nh_adj @ nhat - 0.5 * nt_adj @ ntilde
    b = -np.hstack([nh_adj, nt_adj])
    c = np.vstack([nhat, ntilde])
    d = np.eye(b.shape[1], dtype=complex)
    return StateSpace(a=a, b=b, c=c, d=d)


def closed_by_hand(kind, real, s):
    """G(s) of ``real``'s cavity bank with the interconnect ports of the
    open network closed through R at the transfer-function level:
    G11 + G12 R (I - G22 R)^-1 G21.  The reference for ``close_feedback``,
    which closes the loop in the state space through the Cayley transform.
    """
    g = assemble_open_network(kind, real.nhat, real.m_conc,
                              real.ntilde).eval(s)
    m = real.nhat.shape[0]
    r = real.r_feedback
    return g[:m, :m] + g[:m, m:] @ r @ np.linalg.solve(
        np.eye(len(r)) - g[m:, m:] @ r, g[m:, :m])


def squeezer_matrix(x):
    """Doubled-up 2 x 2 block of a single-mode squeezer with squeezing x,
    on the rows (i, i + m) of its channel i."""
    return np.array([[np.cosh(x), np.sinh(x)], [np.sinh(x), np.cosh(x)]],
                    dtype=complex)


def records_matrix(channels, doubled, devices):
    """Product of written device records, first device leftmost, applied
    one device at a time as a 2 x 2 (or 1 x 1) update of the rows it
    touches.  A beamsplitter's ``psi`` that a record leaves out is 0, as
    the benchmark's checks read a schedule."""
    out = np.eye(2 * channels if doubled else channels, dtype=complex)
    for dev in reversed(devices):
        kind, ch, p = dev["kind"], list(dev["channels"]), dev["params"]
        if kind == "squeezer":
            updates = [([ch[0], ch[0] + channels], squeezer_matrix(p["x"]))]
        else:
            g = (beamsplitter_matrix(p["theta"], p.get("psi", 0.0))
                 if kind == "beamsplitter"
                 else np.array([[np.exp(1j * p["theta"])]]))
            updates = [(ch, g)]
            if doubled:
                updates.append(([c + channels for c in ch], g.conj()))
        for rows, g in updates:
            out[rows] = g @ out[rows]
    return out


def schedule_residual(schedule, target):
    """Relative residual of a schedule's device records, multiplied out by
    ``records_matrix``, against its network.  ``schedule`` is a
    ``DeviceSchedule`` or a schedule as a file holds it."""
    if isinstance(schedule, dict):
        product = records_matrix(schedule["channels"],
                                 schedule["kind"] == "bogoliubov",
                                 schedule["devices"])
    else:
        product = records_matrix(schedule.channels, schedule.doubled,
                                 schedule.devices)
    return float(np.linalg.norm(product - target)
                 / max(1.0, np.linalg.norm(target)))


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reck_reference(u):
    """The device records of a triangular decomposition one rotation at a
    time: the reference for ``reck_decompose``, which finds each column's
    rotations in one scalar pass over magnitudes and angles and applies
    them as one product.

    Entries below the diagonal are eliminated column by column from the
    bottom.  The pair (a, b) of rows (r - 1, r) is skipped when |b| <=
    ANGLE_EPS max(1, |a|); otherwise psi in (-pi/2, pi/2] (a tie at -pi/2
    goes to +pi/2) makes e^{i psi} b / a real, taking arg a = 0 when |a| <=
    ANGLE_EPS, the sign of theta nulls it, and t =
    beamsplitter_matrix(theta, psi)^dag is applied to the two rows.  The
    leftover diagonal becomes output phases.  A zero psi is left out of the
    record, as in a written schedule.
    """
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    work = u.copy()
    devices = []
    for col in range(m - 1):
        for row in range(m - 1, col, -1):
            pair = work[row - 1:row + 1, col:]
            a, b = pair[:, 0].tolist()
            if abs(b) <= ANGLE_EPS * max(1.0, abs(a)):
                continue
            turn = ((cmath.phase(a) if abs(a) > ANGLE_EPS else 0.0)
                    - cmath.phase(b))
            psi = float(_angle(cmath.exp(2j * turn))) / 2
            sign = math.copysign(1.0, cmath.exp(1j * (psi - turn)).real)
            theta = -2 * math.atan2(sign * abs(b), abs(a))
            t = beamsplitter_matrix(theta, psi).conj().T
            pair[...] = t @ pair
            params = {"theta": theta, "psi": psi} if psi else {"theta": theta}
            devices.append({"kind": "beamsplitter",
                            "channels": [row - 1, row], "params": params})
    for i in range(m):
        theta = float(_angle(work[i, i]))
        if abs(theta) > ANGLE_EPS:
            devices.append({"kind": "phase", "channels": [i],
                            "params": {"theta": theta}})
    return devices


def bogoliubov_reference(r):
    """The device records of ``schedule_static(r)`` for a Bogoliubov r,
    built like ``reck_reference``: U2's devices, a squeezer per non-zero
    squeezing parameter, then U1's devices."""
    u2, x, u1 = bloch_messiah(r)
    squeezers = [{"kind": "squeezer", "channels": [i],
                  "params": {"x": float(x[i])}}
                 for i in range(len(x)) if abs(x[i]) > ANGLE_EPS]
    return reck_reference(u2) + squeezers + reck_reference(u1)


def random_passive_model(n, m, rng):
    """Hermitian M, dense N, random unitary S for a passive (S, N, M)."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m_mat = (a + a.conj().T) / 2
    n_mat = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    s_mat = random_unitary(m, rng)
    return m_mat, n_mat, s_mat


def random_general_model(n, m, rng, scale=0.6):
    """Doubled-up Hermitian M and doubled-up N for a general (I, N, M)."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m1 = (a + a.conj().T) / 2
    m2 = (b + b.T) / 2
    m_mat = np.block([[m1, m2], [m2.conj(), m1.conj()]])
    n1 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    n2 = scale * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    n_mat = np.block([[n1, n2], [n2.conj(), n1.conj()]])
    return m_mat, n_mat


def canonical_block(spec):
    """(nbar1, nbar2) half-blocks for one planted block spec.

    spec is ('pos', lam), ('neg', lam), ('pair', lam), ('jordan', lam),
    ('kernel_jordan', 0.0) or ('deg', h).
    """
    kind = spec[0]
    if kind == "pos":
        return np.array([[np.sqrt(spec[1])]]), np.zeros((1, 1))
    if kind == "neg":
        return np.zeros((1, 1)), np.array([[np.sqrt(-spec[1])]])
    if kind == "pair":
        alpha, beta = pair_weights(spec[1])
        return alpha * np.eye(2), -beta * SIGMA2
    if kind == "jordan":
        nbar1, nbar2, _ = jordan2_factor(float(spec[1]))
        return nbar1, nbar2
    if kind == "kernel_jordan":
        nbar1, nbar2, _ = jordan2_factor(float(spec[1]), in_kernel=True)
        return nbar1, nbar2
    if kind == "deg":
        h = np.atleast_1d(np.asarray(spec[1], dtype=float))
        return np.diag(h), np.diag(h)
    raise ValueError(f"unknown planted block kind {kind!r}")


def planted_coupling(specs, rng, extra_ports=0, extra_modes=0):
    """Build N = V Nhat W^b hiding the canonical blocks of ``specs``.

    Returns (coupling, expected_eigenvalues, m, n) where the eigenvalues are
    those of the exactly-known planted Gram Nhat^b Nhat (length 2n).
    """
    blocks = [canonical_block(s) for s in specs]
    r = sum(b[0].shape[0] for b in blocks)
    m = r + extra_ports
    n = r + extra_modes
    nhat1 = np.zeros((m, n), dtype=complex)
    nhat2 = np.zeros((m, n), dtype=complex)
    pos = 0
    for b1, b2 in blocks:
        s = b1.shape[0]
        nhat1[pos:pos + s, pos:pos + s] = b1
        nhat2[pos:pos + s, pos:pos + s] = b2
        pos += s
    nhat = np.block([[nhat1, nhat2], [np.conj(nhat2), np.conj(nhat1)]])
    expected = np.linalg.eigvals(flat_adjoint(nhat) @ nhat)
    v = random_bogoliubov(m, seed=rng.integers(2 ** 31), scale=0.4)
    w = random_bogoliubov(n, seed=rng.integers(2 ** 31), scale=0.4)
    coupling = v @ nhat @ flat_adjoint(w)
    return coupling, expected, m, n


def multiset_distance(expected, computed):
    """Greedy matching distance between two complex multisets."""
    expected = list(np.asarray(expected, dtype=complex))
    computed = list(np.asarray(computed, dtype=complex))
    assert len(expected) == len(computed)
    worst = 0.0
    for x in sorted(expected, key=abs, reverse=True):
        gaps = [abs(x - y) for y in computed]
        k = int(np.argmin(gaps))
        worst = max(worst, gaps[k])
        computed.pop(k)
    return worst

"""Checks of lqss outputs computed apart from the program.

Everything here is plain numpy on the matrices of a model and of a netlist
(or of a realization object with the same fields); nothing calls into lqss.
Three properties are checked:

* the realized transfer function post . (cavity bank closed through R) . pre
  equals the model's transfer function at the given points; the loop is
  closed in the frequency domain, not by the program's state-space
  elimination;
* pre, post and R are unitary (passive) or Bogoliubov (general);
* each device schedule, multiplied out with 2x2 row updates, reproduces its
  network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: a realized transfer function further than this from the model's is wrong;
#: the program's own verify gate (1e-8) sets the accuracy, reported apart
TF_TOL = 1e-6
#: relative distance of pre, post and R from the unitary/Bogoliubov identities
NETWORK_TOL = 1e-8
#: relative residual of a multiplied-out schedule against its network
SCHEDULE_TOL = 1e-7

NETWORKS = ("pre_network", "post_network", "feedback")


def decode(data) -> np.ndarray:
    """A matrix stored as nested [re, im] pairs."""
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _signs(dim: int) -> np.ndarray:
    half = dim // 2
    return np.concatenate([np.ones(half), -np.ones(half)])


def adjoint(kind: str, x: np.ndarray) -> np.ndarray:
    """x^dag for passive matrices, the J-adjoint J x^dag J for general ones."""
    xh = x.conj().T
    if kind == "passive":
        return xh
    return _signs(xh.shape[0])[:, None] * xh * _signs(xh.shape[1])[None, :]


def _drift(kind: str, ham: np.ndarray) -> np.ndarray:
    if kind == "passive":
        return -1j * ham
    return -1j * _signs(ham.shape[0])[:, None] * ham


def model_tf(kind, m_mat, n_mat, s_mat, s: complex) -> np.ndarray:
    """G(s) = S - N (sI - A)^-1 N^a S with A = drift - N^a N / 2."""
    nadj = adjoint(kind, n_mat)
    a = _drift(kind, m_mat) - 0.5 * nadj @ n_mat
    core = np.linalg.solve(s * np.eye(a.shape[0]) - a, nadj @ s_mat)
    return s_mat - n_mat @ core


def realized_tf(kind, parts: dict, s: complex) -> np.ndarray:
    """post . G_closed(s) . pre, closing the interconnect ports through R.

    The open cavity bank has inputs and outputs [system; interconnect] and
    transfer function [[G11, G12], [G21, G22]]; with u_int = R y_int the
    system ports see G11 + G12 (I - R G22)^-1 R G21.
    """
    nhat, ntilde, r_fb = parts["nhat"], parts["ntilde"], parts["r"]
    c = np.vstack([nhat, ntilde])
    cadj = np.hstack([adjoint(kind, nhat), adjoint(kind, ntilde)])
    a = _drift(kind, parts["m_conc"]) - 0.5 * cadj @ c
    g_open = (np.eye(c.shape[0])
              - c @ np.linalg.solve(s * np.eye(a.shape[0]) - a, cadj))
    p = nhat.shape[0]
    g11, g12, g21, g22 = (g_open[:p, :p], g_open[:p, p:], g_open[p:, :p],
                          g_open[p:, p:])
    loop = np.linalg.solve(np.eye(r_fb.shape[0]) - r_fb @ g22, r_fb @ g21)
    return parts["post"] @ (g11 + g12 @ loop) @ parts["pre"]


def frequency_points(m_mat: np.ndarray, rng: np.random.Generator,
                     count: int = 6) -> np.ndarray:
    """Points on and just right of the imaginary axis, log-spread over
    [1e-2, 1e2] times the Hamiltonian scale."""
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(m_mat)).max()))
    omega = scale * 10.0 ** rng.uniform(-2.0, 2.0, size=count)
    shift = np.where(np.arange(count) % 2 == 0, 0.0, 0.05 * scale)
    return shift + 1j * omega


def tf_error(kind, model: dict, parts: dict, points) -> float:
    """Worst ||G - G_realized||_F / (1 + ||G||_F) over the points."""
    worst = 0.0
    for s in points:
        g = model_tf(kind, model["M"], model["N"], model["S"], s)
        gr = realized_tf(kind, parts, s)
        worst = max(worst, float(np.linalg.norm(g - gr)
                                 / (1.0 + np.linalg.norm(g))))
    return worst


def network_residual(kind: str, x: np.ndarray) -> float:
    """Relative distance of x from unitary (passive) or Bogoliubov (general:
    x x^b = x^b x = I and the doubled-up block form)."""
    xa = adjoint(kind, x)
    eye = np.eye(x.shape[0])
    resid = max(np.linalg.norm(x @ xa - eye), np.linalg.norm(xa @ x - eye))
    if kind == "general":
        h = x.shape[0] // 2
        swapped = np.block([[x[h:, h:], x[h:, :h]], [x[:h, h:], x[:h, :h]]])
        resid = max(resid, np.linalg.norm(swapped - x.conj()))
    return float(resid / max(1.0, np.linalg.norm(x)))


def beamsplitter(theta, phi=0.0, psi=0.0, zeta=0.0) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.exp(1j * zeta) * np.array([
        [np.exp(1j * (phi + psi) / 2) * c, np.exp(1j * (psi - phi) / 2) * s],
        [-np.exp(1j * (phi - psi) / 2) * s, np.exp(-1j * (phi + psi) / 2) * c],
    ])


def squeezer(x, phi=0.0, psi=0.0) -> np.ndarray:
    ch, sh = np.cosh(x), np.sinh(x)
    return np.array([
        [np.exp(1j * (phi + psi)) * ch, np.exp(1j * (psi - phi)) * sh],
        [np.exp(1j * (phi - psi)) * sh, np.exp(-1j * (phi + psi)) * ch],
    ])


def schedule_matrix(schedule: dict) -> np.ndarray:
    """Multiply a netlist device list out, first device leftmost.

    The devices are applied right to left to the identity, each as a 2x2
    (or 1x1) update of the rows it touches; on doubled-up channels a unitary
    device acts on rows i and i + m with its conjugate.
    """
    m = int(schedule["channels"])
    doubled = schedule["kind"] == "bogoliubov"
    out = np.eye(2 * m if doubled else m, dtype=complex)
    for dev in reversed(schedule["devices"]):
        kind, ch, p = dev["kind"], list(dev["channels"]), dev["params"]
        if kind == "squeezer":
            updates = [([ch[0], ch[0] + m], squeezer(**p))]
        else:
            if kind == "beamsplitter":
                g = beamsplitter(**p)
            elif kind == "phase":
                g = np.array([[np.exp(1j * p["theta"])]])
            else:
                raise ValueError(f"unknown device kind {kind!r}")
            updates = [(ch, g)]
            if doubled:
                updates.append(([c + m for c in ch], g.conj()))
        for rows, g in updates:
            out[rows, :] = g @ out[rows, :]
    return out


def schedule_residual(schedule: dict, target: np.ndarray) -> float:
    return float(np.linalg.norm(schedule_matrix(schedule) - target)
                 / max(1.0, np.linalg.norm(target)))


def netlist_parts(netlist: dict) -> dict:
    """The matrices of a netlist that define its transfer function."""
    reduced = netlist["reduced"]
    roots = np.sqrt(np.asarray(reduced["interconnect_kappas"], dtype=float))
    if netlist["type"] == "general":
        roots = np.concatenate([roots, roots])
    return {
        "nhat": decode(reduced["N_hat"]),
        "m_conc": decode(reduced["M_conc"]),
        "ntilde": np.diag(roots).astype(complex),
        "r": decode(netlist["feedback"]["matrix"]),
        "pre": decode(netlist["pre_network"]["matrix"]),
        "post": decode(netlist["post_network"]["matrix"]),
    }


def realization_parts(real) -> dict:
    """The same matrices from a realization object the library returns."""
    return {"nhat": real.nhat, "m_conc": real.m_conc, "ntilde": real.ntilde,
            "r": real.r_feedback, "pre": real.pre, "post": real.post}


@dataclass
class Outcome:
    """Residuals of one realization and the problems they show.

    ``synth_problems`` concern the synthesis output itself (networks and
    schedules); ``verify_problems`` are what a verification must catch (the
    transfer function).
    """

    tf_error: float
    network_residual: float
    schedule_residual: float | None = None
    synth_problems: list = field(default_factory=list)
    verify_problems: list = field(default_factory=list)

    @property
    def problems(self) -> list:
        return self.synth_problems + self.verify_problems


def check_realization(kind: str, model: dict, parts: dict, points,
                      netlist: dict | None = None) -> Outcome:
    """Check a realization against its model; ``model`` holds M, N, S.

    With ``netlist`` given, its three device schedules must be present and
    reproduce their networks.
    """
    outcome = Outcome(
        tf_error=tf_error(kind, model, parts, points),
        network_residual=max(network_residual(kind, parts[key])
                             for key in ("pre", "post", "r")))
    if not outcome.tf_error <= TF_TOL:
        outcome.verify_problems.append(
            f"realized transfer function off by {outcome.tf_error:.3e}")
    if not outcome.network_residual <= NETWORK_TOL:
        outcome.synth_problems.append(
            "a static network is not "
            f"{'unitary' if kind == 'passive' else 'Bogoliubov'} "
            f"(residual {outcome.network_residual:.3e})")
    if netlist is None:
        return outcome
    worst = 0.0
    for key in NETWORKS:
        net = netlist[key]
        if "schedule" not in net:
            outcome.synth_problems.append(f"{key} has no device schedule")
            continue
        try:
            resid = schedule_residual(net["schedule"], decode(net["matrix"]))
        except (KeyError, TypeError, ValueError) as exc:
            outcome.synth_problems.append(f"{key} schedule unreadable: {exc}")
            continue
        worst = max(worst, resid)
        if not resid <= SCHEDULE_TOL:
            outcome.synth_problems.append(
                f"{key} schedule misses its network by {resid:.3e}")
    outcome.schedule_residual = worst
    return outcome

"""Synthesis of general (active) models via the Bogoliubov factorization.

A general model (S, N, M) with doubled-up matrices factors as
G(s) = V Ghat(s) (V^b S) where N = V Nhat W^b is the Bogoliubov
factorization and Ghat is the transfer function of the reduced system
(I, Nhat, Mhat) with Mhat = W^dag M W.  The reduced system is realized by a
bank of cavities — one per mode, with passive and/or active port couplings
dictated by the canonical blocks — plus a Bogoliubov feedback network

    R = (X - I)(X + I)^-1,
    X = 2i (Ntilde^b)^-1 (J Mhat - J M_conc) Ntilde^-1,

closing the interconnect ports.  X is doubled-up and J-skew (X^b = -X), so
R is Bogoliubov.  Unlike the passive case, X + I can be singular, though not
at the default interconnect rates (``statespace.feedback_network``); given
rates that make it singular raise ``NumericalError``.  The input checks, the
Cayley pair and the feedback closure are shared with passive models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dusvd import DuSvdResult, bogoliubov_svd
from .errors import NumericalError
from .krein import flat_adjoint
from .statespace import feedback_network, validate_model

#: beamsplitter inserted between the two cavities realizing a complex pair
PAIR_BEAMSPLITTER = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass
class PortSpec:
    """Coupling of one cavity mode to one port channel."""

    port: int
    kappa: float = 0.0   # passive rate
    g: float = 0.0       # active rate
    phi: float = 0.0     # passive phase
    theta: float = 0.0   # active phase


@dataclass
class CavitySpec:
    mode: int
    role: str          # passive | active | pair | jordan | tunable | idle
    detuning: float
    ports: list = field(default_factory=list)
    block_value: complex = 0.0


@dataclass
class IntraBlockDevice:
    """A static device wired between cavities of one canonical block."""

    kind: str
    channels: tuple
    matrix: np.ndarray


def assign_cavities(result: DuSvdResult, detunings: np.ndarray) -> tuple:
    """Map canonical blocks to cavities and build the bank Hamiltonian.

    Returns (cavities, devices, m_conc) where m_conc is the 2n x 2n
    doubled-up Hamiltonian of the concatenated bank: the chosen detunings on
    the diagonal plus the interaction terms generated by cascading the two
    cavities of each complex pair through a beamsplitter.
    """
    n = sum(b.size for b in result.blocks)
    m1 = np.diag(detunings).astype(complex)
    m2 = np.zeros((n, n), dtype=complex)
    cavities, devices = [], []
    pos = 0
    for b in result.blocks:
        if b.kind == "real_positive":
            lam = float(np.real(b.value))
            cavities.append(CavitySpec(
                mode=pos, role="passive", detuning=detunings[pos],
                block_value=b.value,
                ports=[PortSpec(port=pos, kappa=lam)]))
        elif b.kind == "real_negative":
            lam = float(np.real(b.value))
            cavities.append(CavitySpec(
                mode=pos, role="active", detuning=detunings[pos],
                block_value=b.value,
                ports=[PortSpec(port=pos, g=abs(lam))]))
        elif b.kind == "complex_pair":
            alpha = b.params["alpha"]
            beta = b.params["beta"]
            nu = float(np.imag(b.value))
            for k in (0, 1):
                other = pos + 1 - k
                theta = -np.pi / 2 if k == 0 else np.pi / 2
                cavities.append(CavitySpec(
                    mode=pos + k, role="pair",
                    detuning=detunings[pos + k], block_value=b.value,
                    ports=[PortSpec(port=pos + k, kappa=alpha ** 2),
                           PortSpec(port=other, g=beta ** 2, theta=theta)]))
            devices.append(IntraBlockDevice(
                kind="beamsplitter", channels=(pos, pos + 1),
                matrix=PAIR_BEAMSPLITTER.copy()))
            # cascading the two cavities through the beamsplitter induces a
            # mode-mode interaction of strength nu/2
            m2[pos, pos + 1] = m2[pos + 1, pos] = -nu / 2.0
        elif b.kind == "jordan2":
            for k in (0, 1):
                ports = []
                for p in (0, 1):
                    amp1 = b.nbar1[p, k]
                    amp2 = b.nbar2[p, k]
                    if abs(amp1) > 1e-14 or abs(amp2) > 1e-14:
                        ports.append(PortSpec(
                            port=pos + p,
                            kappa=float(abs(amp1)) ** 2,
                            phi=float(np.angle(amp1)) if abs(amp1) > 0 else 0.0,
                            g=float(abs(amp2)) ** 2,
                            theta=float(np.angle(amp2)) if abs(amp2) > 0 else 0.0))
                cavities.append(CavitySpec(
                    mode=pos + k, role="jordan",
                    detuning=detunings[pos + k], block_value=b.value,
                    ports=ports))
        elif b.kind == "degenerate_zero":
            h1 = b.params["h1"]
            e1 = b.params["e1"]
            for k in range(b.size):
                rate = float(h1[k]) ** 2
                theta = 0.0 if e1[k] > 0 else np.pi
                cavities.append(CavitySpec(
                    mode=pos + k, role="tunable",
                    detuning=detunings[pos + k], block_value=0.0,
                    ports=[PortSpec(port=pos + k, kappa=rate, g=rate,
                                    theta=theta)]))
        elif b.kind == "kernel":
            cavities.append(CavitySpec(
                mode=pos, role="idle", detuning=detunings[pos]))
        else:  # pragma: no cover - defensive
            raise NumericalError(f"unknown block kind {b.kind!r}")
        pos += b.size
    m_conc = np.block([[m1, m2], [np.conj(m2), np.conj(m1)]])
    return cavities, devices, m_conc


@dataclass
class GeneralRealization:
    kind: str
    v: np.ndarray              # 2m x 2m Bogoliubov (post network)
    w: np.ndarray              # 2n x 2n Bogoliubov
    factorization: DuSvdResult
    nhat: np.ndarray           # 2m x 2n canonical coupling
    mhat: np.ndarray           # 2n x 2n reduced Hamiltonian W^dag M W
    detunings: np.ndarray
    kappas_tilde: np.ndarray
    m_conc: np.ndarray
    ntilde: np.ndarray
    x: np.ndarray
    r_feedback: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    cavities: list = field(default_factory=list)
    devices: list = field(default_factory=list)
    retries: int = 0           # always 0; perfbench/spans.py reads it


def synthesize_general(m_mat: np.ndarray, n_mat: np.ndarray,
                       s_mat: np.ndarray | None = None,
                       detunings: np.ndarray | None = None,
                       interconnect_kappa=None) -> GeneralRealization:
    """Realize a general model as static Bogoliubov networks around a
    cavity bank with feedback."""
    m_mat, n_mat, s_mat, detunings, rates = validate_model(
        "general", m_mat, n_mat, s_mat, detunings, interconnect_kappa)

    fact = bogoliubov_svd(n_mat)
    mhat = fact.w.conj().T @ m_mat @ fact.w
    mhat = (mhat + mhat.conj().T) / 2
    cavities, devices, m_conc = assign_cavities(fact, detunings)
    rates, ntilde, x, r_feedback = feedback_network(
        "general", mhat, m_conc, rates)

    return GeneralRealization(
        kind="general", v=fact.v, w=fact.w, factorization=fact,
        nhat=fact.nhat, mhat=mhat, detunings=detunings,
        kappas_tilde=rates, m_conc=m_conc, ntilde=ntilde, x=x,
        r_feedback=r_feedback, pre=flat_adjoint(fact.v) @ s_mat,
        post=fact.v, cavities=cavities, devices=devices)

"""Synthesis of passive models as static networks around a cavity bank.

A passive model (S, N, M) factors as G(s) = V Ghat(s) (V^dag S) where
N = V Nhat W^dag is an ordinary SVD and Ghat is the transfer function of the
reduced system (I, Nhat, Mhat) with Mhat = W^dag M W.  The reduced system is
then realized by r one-port cavities (kappa_i = sigma_i^2) plus n - r
interconnect-only cavities, all threaded through a unitary feedback network

    R = (X - I)(X + I)^-1,   X = 2i Ntilde^-1 (Mhat - D) Ntilde^-1,

where D carries the chosen cavity detunings and Ntilde the interconnect
coupling rates (by default all 4 ||Mhat - D||_F).  X is skew-Hermitian, so
R is unitary and the Cayley transform is always well defined on this leg;
the inverse direction (``statespace.cayley``) can fail when R has a unit
eigenvalue.  The input checks, the default rates and the feedback closure
are those of general models (see ``statespace``), with the ordinary adjoint
in place of the J-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .krein import unit_phases
from .statespace import feedback_network, validate_model

RANK_RTOL = 1e-10


@dataclass
class PassiveRealization:
    """Synthesis output: pre/post unitaries plus the closed cavity bank."""

    kind: str
    v: np.ndarray              # m x m unitary (post network)
    w: np.ndarray              # n x n unitary
    sigma: np.ndarray          # singular values of N (length min(m, n))
    rank: int
    nhat: np.ndarray           # m x n reduced coupling, diag(sigma_1..r)
    mhat: np.ndarray           # n x n reduced Hamiltonian W^dag M W
    detunings: np.ndarray      # length n
    kappas_tilde: np.ndarray   # length n interconnect rates
    m_conc: np.ndarray         # n x n diag(detunings)
    ntilde: np.ndarray         # n x n diag(sqrt(kappa_tilde))
    x: np.ndarray              # skew-Hermitian feedback generator
    r_feedback: np.ndarray     # n x n unitary feedback network
    pre: np.ndarray            # V^dag S
    post: np.ndarray           # V
    kappas: np.ndarray = field(default=None)  # system rates sigma_i^2

    def __post_init__(self):
        if self.kappas is None:
            self.kappas = self.sigma[: self.rank] ** 2


def synthesize_passive(m_mat: np.ndarray, n_mat: np.ndarray,
                       s_mat: np.ndarray | None = None,
                       detunings: np.ndarray | None = None,
                       interconnect_kappa=None) -> PassiveRealization:
    """Realize a passive model as pre/post unitaries around a cavity bank."""
    m_mat, n_mat, s_mat, detunings, rates = validate_model(
        "passive", m_mat, n_mat, s_mat, detunings, interconnect_kappa)
    m, n = n_mat.shape

    v, sigma, wh = np.linalg.svd(n_mat)
    # fix each singular pair's free phase: the largest entry of each W
    # column becomes real positive, and the paired V column follows
    w = wh.conj().T
    phases = unit_phases(w)
    w = w * phases
    k = min(m, n)
    v[:, :k] *= phases[:k]
    cutoff = RANK_RTOL * (sigma[0] if sigma.size else 0.0)
    rank = int(np.sum(sigma > cutoff))

    nhat = np.zeros((m, n), dtype=complex)
    nhat[:rank, :rank] = np.diag(sigma[:rank])
    mhat = w.conj().T @ m_mat @ w
    mhat = (mhat + mhat.conj().T) / 2

    m_conc = np.diag(detunings).astype(complex)
    rates, ntilde, x, r_feedback = feedback_network(
        "passive", mhat, m_conc, rates)

    return PassiveRealization(
        kind="passive", v=v, w=w, sigma=sigma, rank=rank, nhat=nhat,
        mhat=mhat, detunings=detunings, kappas_tilde=rates,
        m_conc=m_conc, ntilde=ntilde, x=x, r_feedback=r_feedback,
        pre=v.conj().T @ s_mat, post=v)

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
eigenvalue.  Only the SVD is passive: the input check (``Model``), the
reduced Hamiltonian, the default rates and the feedback network
(``realize``) are those of general models, with the ordinary adjoint in
place of the J-adjoint.
"""

from __future__ import annotations

import numpy as np

from .krein import unit_phases
from .statespace import Model, Realization, mode_values, realize

RANK_RTOL = 1e-10


def synthesize_passive(m_mat: np.ndarray, n_mat: np.ndarray,
                       s_mat: np.ndarray | None = None,
                       detunings: np.ndarray | None = None,
                       interconnect_kappa=None) -> Realization:
    """Realize a passive model as pre/post unitaries around a cavity bank.

    The classification holds the rank of N and its singular values.
    """
    model = Model("passive", m_mat, n_mat, s_mat)
    detunings, rates = mode_values(model.n_modes, detunings,
                                   interconnect_kappa)
    m, n = model.n_mat.shape

    v, sigma, wh = np.linalg.svd(model.n_mat)
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
    return realize(model, v, w, nhat, np.diag(detunings).astype(complex),
                   detunings, rates, classification={
                       "rank": rank,
                       "singular_values": [float(s) for s in sigma]})

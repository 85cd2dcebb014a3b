"""Synthesis: one entry point, ``synthesize(model)``, for both kinds.

A model (S, N, M) factors as G(s) = V Ghat(s) (V^a S) where N = V Nhat W^a
is a coupling factorization and Ghat is the transfer function of the
reduced system (I, Nhat, Mhat) with Mhat = W^dag M W.  A passive model is
the N2 = 0 case of a general one, so only the factorization and the cavity
bank depend on the kind:

* passive: an ordinary SVD, each singular pair's free phase fixed, and r
  one-port cavities (kappa_i = sigma_i^2) plus n - r interconnect-only
  ones, with the chosen detunings as the bank Hamiltonian;
* general: the Bogoliubov factorization (``bogoliubov_svd``) and a bank of
  cavities, one per mode, whose coupling is Nhat itself: cavity k has a port
  p for each nonzero Nhat[p, k] (passive amplitude) or Nhat[p, n + k]
  (active amplitude).  Only the role of a cavity and, for a complex pair,
  the beamsplitter and interaction between its two cavities depend on the
  kind of canonical block.  The cavities and that beamsplitter are kept as
  the records the netlist writes.

The interconnect ports of the bank are closed through a feedback network

    R = (X - I)(X + I)^-1,
    X = 2i (Ntilde^a)^-1 (Mhat - M_conc) Ntilde^-1,

with a J after the first factor for general models.  For passive models X
is skew-Hermitian and R unitary; for general ones X is doubled-up and J-skew
(X^b = -X), so R is Bogoliubov, but X + I can be singular, though not at the
default interconnect rates; given rates that make it singular raise
``NumericalError``.  Each factorization computes its own residual; the
input check (``Model``), the reduced Hamiltonian and the feedback network
are the shared tail, ``statespace.realize``, which records that residual.
"""

from __future__ import annotations

import numpy as np

from .dusvd import DuSvdResult, bogoliubov_svd
from .errors import ParameterError
from .krein import unit_phases
from .statespace import Model, Realization, mode_values, realize

#: singular values of a passive coupling at most this times the largest
#: count as zero
RANK_RTOL = 1e-10

#: cavity role of each canonical block kind
ROLES = {"real_positive": "passive", "real_negative": "active",
         "complex_pair": "pair", "jordan2": "jordan",
         "degenerate_zero": "tunable", "kernel": "idle"}


def assign_cavities(result: DuSvdResult, detunings: np.ndarray) -> tuple:
    """Map canonical blocks to cavities and build the bank Hamiltonian.

    Returns (cavities, devices, m_conc).  The cavities and the devices wired
    between the cavities of one block are the records a netlist holds:
    cavity k is {mode, role, detuning, ports}, with a port record {port,
    kappa, g, phi, theta} for each port it couples to, and a complex pair's
    beamsplitter is {kind, channels, matrix}.  m_conc is the 2n x 2n
    doubled-up Hamiltonian of the concatenated bank: the chosen detunings on
    the diagonal plus the interaction terms generated by cascading the two
    cavities of each complex pair through a beamsplitter.  Nhat is the
    coupling of the bank, so cavity k couples to port p with passive
    amplitude Nhat[p, k] (rate kappa, phase phi) and active amplitude
    Nhat[p, n + k] (rate g, phase theta).
    """
    m, n = (d // 2 for d in result.nhat.shape)
    nhat1, nhat2 = result.nhat[:m, :n], result.nhat[:m, n:]
    m1 = np.diag(detunings).astype(complex)
    m2 = np.zeros((n, n), dtype=complex)
    cavities, devices = [], []
    pos = 0
    for b in result.blocks:
        for k in range(pos, pos + b.size):
            amp1, amp2 = nhat1[:, k], nhat2[:, k]
            cavities.append({
                "mode": k, "role": ROLES[b.kind],
                "detuning": float(detunings[k]),
                "ports": [{"port": int(p),
                           "kappa": float(abs(amp1[p])) ** 2,
                           "g": float(abs(amp2[p])) ** 2,
                           "phi": _phase(amp1[p]), "theta": _phase(amp2[p])}
                          for p in np.flatnonzero((amp1 != 0) | (amp2 != 0))]})
        if b.kind == "complex_pair":
            # the beamsplitter [[0, 1], [-1, 0]], as [re, im] pairs
            devices.append({"kind": "beamsplitter", "channels": [pos, pos + 1],
                            "matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                       [[-1.0, 0.0], [0.0, 0.0]]]})
            # cascading the two cavities through the beamsplitter induces a
            # mode-mode interaction of strength Im(lambda)/2
            m2[pos, pos + 1] = m2[pos + 1, pos] = -np.imag(b.value) / 2.0
        pos += b.size
    m_conc = np.block([[m1, m2], [np.conj(m2), np.conj(m1)]])
    return cavities, devices, m_conc


def _phase(amp: complex) -> float:
    """Phase of a coupling amplitude, 0 for a zero amplitude."""
    return float(np.angle(amp)) if amp else 0.0


def synthesize(model: Model, detunings: np.ndarray | None = None,
               interconnect_kappa=None) -> Realization:
    """Realize a checked model as static networks around a cavity bank with
    feedback.

    ``detunings`` and ``interconnect_kappa`` are read by ``mode_values``;
    the factorization and the cavity bank follow ``model.kind``.  The
    classification holds the rank of N and its singular values (passive),
    or the rank and residual of the Bogoliubov factorization and its
    canonical blocks, each with kind, size and eigenvalue (general).
    A model with no modes is a ``ParameterError``: there is no cavity to
    realize, and the factorizations below do not accept an empty coupling.
    """
    if model.n_modes == 0:
        raise ParameterError("the model has no modes (M is 0x0): there is "
                             "no cavity bank to synthesize")
    detunings, rates = mode_values(model.n_modes, detunings,
                                   interconnect_kappa)
    if model.kind == "passive":
        v, w, nhat, residual, classification = _passive_factors(model.n_mat)
        return realize(model, v, w, nhat, residual,
                       np.diag(detunings).astype(complex), detunings, rates,
                       classification=classification)
    fact = bogoliubov_svd(model.n_mat)
    cavities, devices, m_conc = assign_cavities(fact, detunings)
    return realize(
        model, fact.v, fact.w, fact.nhat, fact.residual, m_conc, detunings,
        rates, cavities=cavities, devices=devices, classification={
            "rank": fact.r,
            "residual": fact.residual,
            "blocks": [
                {"kind": b.kind, "size": b.size,
                 "value": [float(np.real(b.value)), float(np.imag(b.value))]}
                for b in fact.blocks]})


def _passive_factors(n_mat: np.ndarray) -> tuple:
    """(V, W, Nhat, residual, classification) of the SVD N = V Nhat W^dag,
    with the residual ||V Nhat W^dag - N||_F / max(1, ||N||_F).

    Each singular pair's free phase is fixed: the largest entry of each W
    column becomes real positive, and the paired V column follows.
    """
    m, n = n_mat.shape
    v, sigma, wh = np.linalg.svd(n_mat)
    w = wh.conj().T
    phases = unit_phases(w)
    w = w * phases
    k = min(m, n)
    v[:, :k] *= phases[:k]
    cutoff = RANK_RTOL * (sigma[0] if sigma.size else 0.0)
    rank = int(np.sum(sigma > cutoff))
    nhat = np.zeros((m, n), dtype=complex)
    nhat[:rank, :rank] = np.diag(sigma[:rank])
    residual = float(np.linalg.norm(v @ nhat @ w.conj().T - n_mat)
                     / max(1.0, np.linalg.norm(n_mat)))
    return v, w, nhat, residual, {
        "rank": rank, "singular_values": [float(s) for s in sigma]}


def synthesize_general(m_mat: np.ndarray, n_mat: np.ndarray,
                       s_mat: np.ndarray | None = None,
                       detunings: np.ndarray | None = None,
                       interconnect_kappa=None) -> Realization:
    """``synthesize`` of the general model (S, N, M)."""
    return synthesize(Model("general", m_mat, n_mat, s_mat), detunings,
                      interconnect_kappa)

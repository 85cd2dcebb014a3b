"""Synthesis of passive models, the N2 = 0 case of ``general.synthesize``."""

from __future__ import annotations

import numpy as np

from .general import synthesize
from .statespace import Model, Realization


def synthesize_passive(m_mat: np.ndarray, n_mat: np.ndarray,
                       s_mat: np.ndarray | None = None,
                       detunings: np.ndarray | None = None,
                       interconnect_kappa=None) -> Realization:
    """``synthesize`` of the passive model (S, N, M)."""
    return synthesize(Model("passive", m_mat, n_mat, s_mat), detunings,
                      interconnect_kappa)

"""State-space models, the passive/general geometry, synthesis's shared tail
and feedback closure.

A passive model with n internal modes and m ports is the triple (S, N, M)
with dynamics matrix A = -iM - N^dag N / 2; its transfer function is
G(s) = S - N (sI + iM + N^dag N/2)^-1 N^dag S.  The general (active) model
uses doubled-up matrices and the J-adjoint: A = -iJM - N^b N / 2,
G(s) = [I - N (sI + iJM + N^b N/2)^-1 N^b] S.

A passive model is the N2 = 0 case of a general one: the two kinds differ
only in the adjoint X^a, X^dag against X^b = J X^dag J.  Every step of
synthesis and verification that depends on the kind is one of the functions
here, each taking ``kind``:

* ``adjoint`` and ``drift`` (-iM or -iJM);
* the Cayley pair ``cayley`` / ``inv_cayley`` between a feedback generator
  X and its feedback network R;
* ``Model``, whose construction is the one input check of synthesis and
  verification, and ``mode_values``, which reads the detunings and
  interconnect rates of its cavity modes;
* ``interconnect_coupling`` (Ntilde) and ``realize``, the tail of
  synthesis: from a coupling factorization N = V Nhat W^a, its residual and
  a cavity bank it builds the ``Realization``, closing the bank through a
  feedback network at default interconnect rates unless given some.

A ``Realization`` is a bank of reduced cavities between a pre network
V^a S and a post network V, with the bank's interconnect ports closed
through a static feedback network R.  ``close_feedback`` closes that loop in
Cayley form: the loop term is Ntilde^a X Ntilde / 2 with X = cayley(R), one
solve with I - R.

Verification evaluates each side's ``StateSpace`` over a frequency sweep.
The first ``eval`` reduces A to a Schur form A = Z T Z^dag, T upper
triangular, with ``krein.schur_form``, the reduction that also classifies
Gram matrices in ``spectral``.  It picks one of two routes from A alone.  A
doubled-up A of even dimension n (to within n eps ||A||_F; general drifts
are) is reduced in real arithmetic: the real Schur form of Phi A Phi^dag,
made triangular by one rotation per 2 x 2 block.  Any other A takes the
complex Schur form, which costs more than twice as much.  Each point is
then one LAPACK triangular solve (``ztrtrs``) with sI - T and one product.
Each side has its own instance.  For large models
(``THREADED_SWEEP_MIN_SIZE``) on more than one CPU the realized side is
evaluated by a one-worker executor, two points ahead of the model side on
the calling thread.  ``lapack`` calls LAPACK without the GIL and numpy's
product releases it too, so the two sides' Schur reductions, which their
first ``eval`` runs, overlap, and so do their solves and products; every
point and error is the same as in the one-thread loop.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NumericalError,
    ParameterError,
    PoleError,
    StructureError,
    UnitEigenvalueError,
)
from .krein import (
    check_bogoliubov,
    check_doubled_up,
    doubled_up_residual,
    flat_adjoint,
    schur_form,
)
from .lapack import zgecon, zgetrf, zgetrs, ztrtrs

#: ``verify_realization`` sweeps the two sides on two threads when the
#: model's B (state dimension x inputs) has at least this many entries;
#: below it the thread hand-offs cost more than the overlap saves (README).
THREADED_SWEEP_MIN_SIZE = 112 * 112


def adjoint(kind: str, x: np.ndarray) -> np.ndarray:
    """X^dag for passive models, the J-adjoint X^b = J X^dag J for general
    ones."""
    return x.conj().T if kind == "passive" else flat_adjoint(x)


def drift(kind: str, m_mat: np.ndarray) -> np.ndarray:
    """-iM for passive models, -iJM for general ones.

    J = diag(I, -I) only negates the lower half of the rows.
    """
    out = -1j * m_mat
    if kind == "general":
        out[m_mat.shape[0] // 2:] *= -1
    return out


def _lu(a: np.ndarray) -> tuple:
    """LAPACK LU factors (``zgetrf``) of a complex square matrix and their
    reciprocal 1-norm condition estimate (``zgecon``), 0 for a zero pivot."""
    lu, piv, info = zgetrf(a)
    rcond = zgecon(lu, np.linalg.norm(a, 1))[0] if info == 0 else 0.0
    return lu, piv, rcond


def cayley(r_mat: np.ndarray) -> np.ndarray:
    """X = (I - R)^-1 (I + R); raises when R has an eigenvalue at +1.

    The formula does not depend on the kind: I + R commutes with
    (I - R)^-1, so this also equals (I + R)(I - R)^-1.  It is one LU solve;
    only when I - R is singular to working precision (a zero pivot, or a
    reciprocal condition estimate below eps) are the eigenvalues of R
    computed, to name the one nearest +1.
    """
    r_mat = np.asarray(r_mat, dtype=complex)
    eye = np.eye(r_mat.shape[0])
    lu, piv, rcond = _lu(eye - r_mat)
    if not rcond >= np.finfo(float).eps:  # NaN included
        evals = np.linalg.eigvals(r_mat)
        raise UnitEigenvalueError(
            complex(evals[np.argmin(np.abs(evals - 1.0))]))
    return zgetrs(lu, piv, eye + r_mat)[0]


def inv_cayley(kind: str, x_mat: np.ndarray) -> np.ndarray:
    """R = (X - I)(X + I)^-1 for a feedback generator X with X^dag = -X
    (passive) or X doubled-up and X^b = -X (general).

    X commutes with (X + I)^-1, so R is one LU solve with X + I.  A
    skew-Hermitian X never makes X + I singular, and R is unitary.  For
    general models R is Bogoliubov, but X + I is singular when X has the
    eigenvalue -1, which takes ||X||_2 >= 1.  A zero pivot or a reciprocal
    condition estimate of X + I below 1e-12 raises ``NumericalError``; only
    then are its condition number and ||X||_2 computed, for the message.
    """
    x_mat = np.asarray(x_mat, dtype=complex)
    general = kind == "general"
    scale = max(1.0, np.linalg.norm(x_mat))
    # one residual for two guards: lost in arithmetic above 1e-7, and
    # refused as input above 1e-9 once X is known to be J-skew
    structure = doubled_up_residual(x_mat) if general else 0.0
    if not structure <= 1e-7 * scale:  # NaN included
        raise NumericalError(
            "feedback generator lost the doubled-up structure")
    if not np.linalg.norm(adjoint(kind, x_mat) + x_mat) <= 1e-8 * scale:
        raise StructureError(  # NaN included
            "feedback generator must be J-skew (X^b = -X)" if general
            else "feedback generator must be skew-Hermitian")
    if structure > 1e-9 * scale:
        raise StructureError(
            "feedback generator is not doubled-up within tolerance 1e-09")
    eye = np.eye(x_mat.shape[0])
    shifted = x_mat + eye
    lu, piv, rcond = _lu(shifted)
    if not rcond >= 1e-12:  # NaN included
        raise NumericalError(
            "X + I is numerically singular (condition number "
            f"{np.linalg.cond(shifted):.1e}, ||X||_2 = "
            f"{np.linalg.norm(x_mat, 2):.3g}); the Cayley transform of the "
            "feedback generator does not exist")
    return zgetrs(lu, piv, x_mat - eye)[0]


def mode_values(modes: int, detunings, interconnect_kappa) -> tuple:
    """(detunings, interconnect rates) of ``modes`` cavity modes, as parsed
    from a model file or the CLI.

    The detunings default to zero; the rates may be one positive finite
    number for every mode or one per mode, and None leaves them to
    ``realize``.  A malformed value raises ``ParameterError``.
    """
    detunings = _real_numbers(np.zeros(modes) if detunings is None
                              else detunings)
    if detunings.shape != (modes,) or not np.all(np.isfinite(detunings)):
        raise ParameterError(f"expected {modes} detunings, one finite real "
                             "number per mode")
    rates = interconnect_kappa
    if rates is not None:
        rates = _real_numbers(rates)
        if (rates.shape not in ((), (1,), (modes,))
                or not np.all(np.isfinite(rates) & (rates > 0))):
            raise ParameterError("expected one positive interconnect rate "
                                 f"or {modes}, one per mode, all finite")
        rates = np.broadcast_to(rates, (modes,)).copy()
    return detunings, rates


def _real_numbers(value) -> np.ndarray:
    """``value`` as a float array, or NaN when it holds anything but
    integers and floats (strings, booleans, None, ragged lists), which every
    caller rejects."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return np.array(np.nan)
    return arr.astype(float) if arr.dtype.kind in "iuf" else np.array(np.nan)


def interconnect_coupling(kind: str, rates) -> np.ndarray:
    """Ntilde = diag(sqrt(rates)), the rates repeated on the second half of
    the doubled-up modes for general models."""
    roots = np.sqrt(rates)
    if kind == "general":
        roots = np.concatenate([roots, roots])
    return np.diag(roots).astype(complex)


@dataclass
class StateSpace:
    """Minimal complex state-space wrapper: G(s) = C (sI - A)^-1 B + D.

    The first ``eval`` reduces A to Schur form A = Z T Z^dag, T upper
    triangular and Z unitary, with ``krein.schur_form`` (in real arithmetic
    when A is doubled-up), and keeps (-T, Z^dag B, C Z).  Every point
    writes s - diag(T) into the diagonal of the kept -T and costs one LAPACK
    triangular solve (``ztrtrs``) and one product, O(n^2 p + n p q) for p
    inputs and q outputs, instead of a dense LU.  The reduction and the
    solves run without the GIL, so instances evaluated on different threads
    run at once.
    A, B, C and D must not be modified after the first ``eval``, and since
    every ``eval`` writes into the same buffer, one instance must not be
    evaluated from two threads at once: ``verify_realization`` evaluates
    the realized instance, pole retries included, on its worker only.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    _schur: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def eval(self, s: complex) -> np.ndarray:
        """G(s); raises ``PoleError`` when s lies within rounding of an
        eigenvalue of A (a diagonal entry of sI - T no larger than
        n eps ||A||_F, exact zeros included) or G(s) is not finite."""
        if self._schur is None:
            if not np.all(np.isfinite(self.a)):
                raise PoleError(s)
            t, z = schur_form(self.a)
            tiny = t.shape[0] * np.finfo(float).eps * np.linalg.norm(t)
            # Fortran order, so that LAPACK reads both buffers in place
            self._schur = (np.asfortranarray(-t), t.diagonal().copy(),
                           np.asfortranarray(z.conj().T @ self.b),
                           self.c @ z, tiny)
        shifted, diag, zb, cz, tiny = self._schur
        pivots = s - diag
        if np.any(np.abs(pivots) <= tiny):
            raise PoleError(s)
        np.fill_diagonal(shifted, pivots)
        # ztrtrs rejects a system with no states
        core = ztrtrs(shifted, zb)[0] if zb.size else zb
        out = cz @ core
        out += self.d
        if not np.all(np.isfinite(out)):
            raise PoleError(s)
        return out


@dataclass
class Model:
    """An input/output model (S, N, M); ``kind`` selects the adjoint.

    Construction is the one input check of synthesis and verification.  M,
    N and S become complex arrays, S defaulting to the identity: M square,
    N with one column per row of M, S square with one row per row of N, and
    all three finite, with a finite Frobenius norm (``ParameterError``
    otherwise, naming the matrix).  M must be Hermitian; a general model
    needs a doubled-up M and N and a Bogoliubov S, a passive one a unitary
    S.  Every other violation raises ``StructureError``.
    """

    kind: str  # "passive" | "general"
    m_mat: np.ndarray
    n_mat: np.ndarray
    s_mat: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("passive", "general"):
            raise ParameterError(f"unknown model kind {self.kind!r}")
        general = self.kind == "general"
        m_mat = self.m_mat = np.asarray(self.m_mat, dtype=complex)
        n_mat = self.n_mat = np.asarray(self.n_mat, dtype=complex)
        if m_mat.ndim != 2 or m_mat.shape[0] != m_mat.shape[1]:
            raise StructureError("Hamiltonian matrix must be square, not "
                                 f"{_dims(m_mat.shape)}")
        dim = m_mat.shape[0]
        if n_mat.ndim != 2 or n_mat.shape[1] != dim:
            raise StructureError(
                f"coupling matrix must have {dim} columns, the "
                f"{'doubled ' if general else ''}mode dimension, not "
                f"{_dims(n_mat.shape)}")
        ports = n_mat.shape[0]
        if self.s_mat is None:
            self.s_mat = np.eye(ports)
        s_mat = self.s_mat = np.asarray(self.s_mat, dtype=complex)
        if s_mat.shape != (ports, ports):
            raise StructureError(
                f"scattering matrix must be {ports}x{ports}, the "
                f"{'doubled ' if general else ''}port dimension, not "
                f"{_dims(s_mat.shape)}")
        for name, mat in (("Hamiltonian matrix M", m_mat),
                          ("coupling matrix N", n_mat),
                          ("scattering matrix S", s_mat)):
            if not np.all(np.isfinite(mat)):
                raise ParameterError(f"{name} has a non-finite entry")
            # the structure checks below scale their tolerances by this norm
            with np.errstate(over="ignore"):
                if not np.isfinite(np.linalg.norm(mat)):
                    raise ParameterError(f"{name} is too large: its "
                                         "Frobenius norm overflows")
        if general:
            check_doubled_up(m_mat, what="Hamiltonian matrix")
            check_doubled_up(n_mat, what="coupling matrix")
        if np.linalg.norm(m_mat - m_mat.conj().T) > 1e-9 * max(
                1.0, np.linalg.norm(m_mat)):
            raise StructureError("Hamiltonian matrix must be Hermitian")
        if general:
            check_bogoliubov(s_mat, what="scattering matrix")
        elif np.linalg.norm(s_mat @ s_mat.conj().T - np.eye(ports)) > 1e-9:
            raise StructureError("scattering matrix must be unitary")

    @property
    def n_modes(self) -> int:
        d = self.m_mat.shape[0]
        return d // 2 if self.kind == "general" else d

    @property
    def n_ports(self) -> int:
        d = self.n_mat.shape[0]
        return d // 2 if self.kind == "general" else d

    def statespace(self) -> StateSpace:
        n = self.n_mat
        nadj = adjoint(self.kind, n)
        a = drift(self.kind, self.m_mat) - 0.5 * nadj @ n
        return StateSpace(a=a, b=-nadj @ self.s_mat, c=n, d=self.s_mat)

    def tf(self, s: complex) -> np.ndarray:
        """G(s).  Each call reduces A anew; for a sweep, call ``eval`` on one
        ``statespace()``."""
        return self.statespace().eval(s)


@dataclass
class Realization:
    """Static networks around a cavity bank with feedback: the transfer
    function is post Ghat(s) pre, Ghat that of the bank (Nhat, M_conc)
    with its interconnect ports closed through R.

    The first seven fields are what a netlist holds and what verification
    reads; Ntilde follows from the interconnect rates.  Synthesis also
    fills the factor W, the reduced Hamiltonian Mhat, the detunings and the
    feedback generator X, three fields that are the JSON records the
    netlist writes as they are: for general models the cavities and the
    intra-block devices, and the classification of the coupling, and the
    factorization residual ||V Nhat W^a - N||_F / max(1, ||N||_F).
    """

    kind: str
    pre: np.ndarray            # V^a S
    post: np.ndarray           # V
    nhat: np.ndarray           # reduced coupling, N = V Nhat W^a
    m_conc: np.ndarray         # bank Hamiltonian
    kappas_tilde: np.ndarray   # interconnect rates, one per mode
    r_feedback: np.ndarray     # feedback network R
    w: np.ndarray | None = None
    mhat: np.ndarray | None = None       # reduced Hamiltonian W^dag M W
    detunings: np.ndarray | None = None
    x: np.ndarray | None = None          # feedback generator cayley(R)
    cavities: list = field(default_factory=list)
    devices: list = field(default_factory=list)
    classification: dict = field(default_factory=dict)
    factorization_residual: float | None = None
    retries: int = 0           # always 0; perfbench/spans.py reads it

    @property
    def ntilde(self) -> np.ndarray:
        return interconnect_coupling(self.kind, self.kappas_tilde)


def realize(model: Model, v: np.ndarray, w: np.ndarray, nhat: np.ndarray,
            residual: float, m_conc: np.ndarray, detunings: np.ndarray,
            rates=None, **found) -> Realization:
    """The realization of ``model`` from its coupling factorization
    N = V Nhat W^a, with its residual ||V Nhat W^a - N||_F / max(1, ||N||_F),
    and a cavity bank M_conc; the tail of synthesis for both kinds.
    ``found`` holds what the factorization adds (cavities, devices,
    classification).  The residual is recorded, not judged.

    The reduced Hamiltonian is Mhat = W^dag M W, made exactly Hermitian.
    The feedback network turns the bank, at interconnect rates ``rates``,
    into the reduced system: X = 2i Ntilde^-1 (Mhat - M_conc) Ntilde^-1,
    with a J after the first Ntilde^-1 for general models, is
    -2 Ntilde^-1 drift(kind, Mhat - M_conc) Ntilde^-1 (Ntilde is diagonal
    and positive, so (Ntilde^b)^-1 = Ntilde^-1), and R = inv_cayley(kind,
    X).  Without ``rates`` every rate is kappa = 4 ||Mhat - M_conc||_F (1
    when that is 0): then ||X||_2 = 2 ||Mhat - M_conc||_2 / kappa <= 1/2,
    so cond(X + I) <= 3.  Rates small enough that X overflows, or that make
    X + I singular, raise ``NumericalError`` naming them.  pre = V^a S and
    post = V.
    """
    kind = model.kind
    mhat = w.conj().T @ model.m_mat @ w
    mhat = (mhat + mhat.conj().T) / 2
    diff = mhat - m_conc
    if rates is None:
        rates = np.full(model.n_modes, 4.0 * np.linalg.norm(diff) or 1.0)
    inv = 1.0 / interconnect_coupling(kind, rates).diagonal().real
    with np.errstate(over="ignore"):  # refused below
        x = -2.0 * inv[:, np.newaxis] * drift(kind, diff) * inv
    try:
        if not np.all(np.isfinite(x)):
            raise NumericalError("the feedback generator X overflowed")
        r_feedback = inv_cayley(kind, x)
    except NumericalError as exc:
        raise NumericalError(
            f"{exc} at interconnect rates from {rates.min():.3g} to "
            f"{rates.max():.3g}") from None
    return Realization(kind=kind, pre=adjoint(kind, v) @ model.s_mat,
                       post=v, nhat=nhat, m_conc=m_conc,
                       kappas_tilde=rates, r_feedback=r_feedback, w=w,
                       mhat=mhat, detunings=detunings, x=x,
                       factorization_residual=residual, **found)


def close_feedback(kind: str, nhat: np.ndarray, m_conc: np.ndarray,
                   ntilde: np.ndarray, r_fb: np.ndarray) -> StateSpace:
    """Close the interconnect loop U_int = R Y_int around the cavity bank.

    Eliminating the loop adds -Ntilde^b (I/2 + (I - R)^-1 R) Ntilde to the
    drift, which (I - R)^-1 R = (X - I)/2, X = cayley(R), turns into
    -Ntilde^b X Ntilde / 2: one solve, and no sum of two terms that cancel.
    Ntilde is diagonal and positive, so Ntilde^b = Ntilde and the term
    scales the rows and columns of X by the diagonal of Ntilde.
    """
    nh_adj = adjoint(kind, nhat)
    roots = ntilde.diagonal()
    a = (drift(kind, m_conc) - 0.5 * nh_adj @ nhat
         - 0.5 * roots[:, np.newaxis] * cayley(r_fb) * roots)
    return StateSpace(a=a, b=-nh_adj, c=nhat,
                      d=np.eye(nhat.shape[0], dtype=complex))


@dataclass
class VerifyReport:
    points: list
    errors: list
    max_error: float
    tol: float
    passed: bool
    num_freqs: int = 0
    seed: int = 0

    @property
    def worst_point(self) -> complex | None:
        """The point with the largest error, ``max_error``."""
        if not self.errors:
            return None
        return self.points[int(np.argmax(self.errors))]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = self.worst_point
        where = ("" if worst is None
                 else f" at s = {worst.real:.6g}{worst.imag:+.6g}j")
        return (f"{status}: max relative transfer-function error "
                f"{self.max_error:.3e}{where} over {len(self.points)} "
                f"points (tolerance {self.tol:.1e})")


def frequency_grid(m_mat: np.ndarray, num_freqs: int,
                   seed: int) -> np.ndarray:
    """Sample points in the complex plane for transfer-function comparison.

    Logarithmically spaced frequencies over [1e-2, 1e3] times the
    Hamiltonian scale, taken on the imaginary axis and repeated with a small
    positive real offset; a seeded jitter decorrelates the grid from any
    special frequencies of the model.
    """
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(m_mat, 2)))
    omega = np.logspace(-2, 3, num_freqs) * scale
    omega = omega * rng.uniform(0.95, 1.05, size=num_freqs)
    pts = np.concatenate([1j * omega, 0.1 * scale + 1j * omega])
    return pts


def _dims(shape: tuple) -> str:
    return "x".join(str(d) for d in shape) or "a scalar"


def verify_realization(model: Model, realization: Realization,
                       num_freqs: int = 20,
                       seed: int = 42, tol: float = 1e-8) -> VerifyReport:
    """Compare the model transfer function against the realized one on a
    frequency grid; the error metric is ||dG||_F / (1 + ||G||_F).

    A point where either side has a pole is nudged off it.  When the model's
    B has at least ``THREADED_SWEEP_MIN_SIZE`` entries and the process may
    use two CPUs, one worker thread evaluates the realized side two points
    ahead; the report, or the exception raised, is the same on either route.
    """
    if num_freqs < 1:
        raise ParameterError(f"num_freqs must be at least 1, not {num_freqs}")
    if seed < 0:
        raise ParameterError(f"seed must be at least 0, not {seed}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be a finite number >= 0, not {tol}")
    if model.kind != realization.kind:
        raise ParameterError(
            f"model kind {model.kind!r} does not match realization kind "
            f"{realization.kind!r}")
    ports, modes = model.n_mat.shape
    for name, mat, shape in (
            ("pre network", realization.pre, (ports, ports)),
            ("post network", realization.post, (ports, ports)),
            ("N_hat", realization.nhat, (ports, modes)),
            ("M_conc", realization.m_conc, (modes, modes)),
            ("feedback network", realization.r_feedback, (modes, modes))):
        if np.shape(mat) != shape:
            raise ParameterError(
                f"realization {name} is {_dims(np.shape(mat))}, but a model "
                f"with {model.n_ports} ports and {model.n_modes} modes needs "
                f"{_dims(shape)}")
    rates = np.asarray(realization.kappas_tilde)
    if rates.shape != (model.n_modes,):
        raise ParameterError(
            f"realization has {rates.size} interconnect rates, but a model "
            f"with {model.n_modes} modes needs one per mode")
    if not np.all(np.isfinite(rates) & (rates > 0)):
        raise ParameterError(
            "realization interconnect rates must be positive and finite")
    model_ss = model.statespace()
    closed = close_feedback(realization.kind, realization.nhat,
                            realization.m_conc, realization.ntilde,
                            realization.r_feedback)
    pre, post = realization.pre, realization.post
    realized = StateSpace(closed.a, closed.b @ pre, post @ closed.c,
                          post @ pre)
    pts = frequency_grid(model.m_mat, num_freqs, seed)
    if model_ss.b.size >= THREADED_SWEEP_MIN_SIZE and _cpus() > 1:
        with ThreadPoolExecutor(1, thread_name_prefix="lqss-verify") as worker:
            ahead = deque(worker.submit(realized.eval, s) for s in pts[:2])
            results = []
            for k, s in enumerate(pts):
                if k + 2 < len(pts):
                    ahead.append(worker.submit(realized.eval, pts[k + 2]))
                results.append(_point(model_ss, realized, s, worker,
                                      ahead.popleft()))
    else:
        results = [_point(model_ss, realized, s) for s in pts]
    points = [s for s, _ in results]
    errors = [err for _, err in results]
    max_error = max(errors) if errors else 0.0
    return VerifyReport(points=points, errors=errors, max_error=max_error,
                        tol=tol, passed=max_error <= tol,
                        num_freqs=num_freqs, seed=seed)


def _point(model_ss: StateSpace, realized: StateSpace, s: complex,
           worker: ThreadPoolExecutor | None = None,
           pending: Future | None = None) -> tuple:
    """(s, error) at s, or at s nudged off a pole of either side, which
    raises ``PoleError`` after four tries.  With a ``worker``, ``pending`` is
    its ``realized.eval(s)``, and each retry's realized side goes to it too."""
    for _ in range(4):
        try:
            g_model = model_ss.eval(s)
            g_real = pending.result() if worker else realized.eval(s)
            break
        except PoleError:
            s = s * 1.0137 + 1e-3j  # nudge off the pole and retry
            if worker:
                pending = worker.submit(realized.eval, s)
    else:
        raise PoleError(s, "could not move evaluation point off a pole")
    return complex(s), _error(g_model, g_real)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _error(g_model: np.ndarray, g_real: np.ndarray) -> float:
    """||G_model - G_real||_F / (1 + ||G_model||_F)."""
    return float(np.linalg.norm(g_model - g_real)
                 / (1.0 + np.linalg.norm(g_model)))

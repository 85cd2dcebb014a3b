"""Acceptance gate: every release criterion in one place.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output on failure) and asserts the criterion at its stated
tolerance.
"""

import json

import numpy as np
import pytest

from helpers import (
    closed_by_hand,
    model_to_dict,
    multiset_distance,
    planted_coupling,
    random_bogoliubov,
    random_doubled_up,
    random_general_model,
    random_passive_model,
    random_unitary,
    schedule_residual,
)
from lqss import modelio
from lqss.cli import EXIT_UNSUPPORTED, main
from lqss.errors import LqssError, UnitEigenvalueError
from lqss.krein import (
    flat_adjoint,
    j_inner,
    phi_to_doubled,
    phi_to_real,
)
from lqss.netlist import schedule_static
from lqss.passive import synthesize_passive
from lqss.general import synthesize_general
from lqss.spectral import check_degeneracy
from lqss.dusvd import bogoliubov_svd
from lqss.statespace import Model, cayley, close_feedback, verify_realization
from test_passive import M3, N3, R3_ABS, SIGMA3, V3_ABS, W3_ABS, MHAT3_ABS
from test_general import M4, N4
from test_spectral import JORDAN3_WITNESS, nonneutral_coupling


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_passive_worked_example():
    real = synthesize_passive(M3, N3, interconnect_kappa=1.0)
    checks = []
    checks.append(("N_hat diagonal",
                   np.allclose(real.classification["singular_values"], SIGMA3,
                               atol=1e-3)))
    model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
    report = verify_realization(model, real, num_freqs=20, tol=1e-8)
    checks.append(("verify@1e-8", report.passed))
    lhs = real.m_conc - 0.5j * real.ntilde.conj().T @ real.x @ real.ntilde
    checks.append(("Hamiltonian identity@1e-12",
                   np.linalg.norm(lhs - real.mhat) < 1e-12))
    checks.append(("Cayley roundtrip@1e-10",
                   np.linalg.norm(cayley(real.r_feedback) - real.x) < 1e-10))
    checks.append(("V@1e-3",
                   np.allclose(np.abs(real.post), V3_ABS, atol=1e-3)))
    checks.append(("W@1e-3", np.allclose(np.abs(real.w), W3_ABS, atol=1e-3)))
    checks.append(("Mhat@1e-3",
                   np.allclose(np.abs(real.mhat), MHAT3_ABS, atol=1e-3)))
    checks.append(("X@1e-3",
                   np.allclose(np.abs(real.x), 2 * MHAT3_ABS, atol=2e-3)))
    checks.append(("R@1e-3",
                   np.allclose(np.abs(real.r_feedback), R3_ABS, atol=1e-3)))
    failed = [name for name, ok in checks if not ok]
    _report("criterion 1 (passive worked example)", not failed,
            f"max verify error {report.max_error:.3e}"
            + (f"; failed: {failed}" if failed else ""))


def test_criterion_2_general_worked_example():
    real = synthesize_general(M4, N4)
    checks = []
    evals = np.sort(np.real(np.linalg.eigvals(flat_adjoint(N4) @ N4)))
    lam = 2.0 * np.sqrt(2.0)
    checks.append(("Gram eigenvalues +-2.8284 x2",
                   np.allclose(evals, [-lam, -lam, lam, lam], atol=1e-3)))
    amp = np.sqrt(lam)
    entries_ok = all(
        abs(abs(real.nhat[pos]) - amp) < 1e-3
        for pos in [(0, 0), (1, 3), (2, 2), (3, 1)])
    sparse_ok = abs(np.sum(np.abs(real.nhat)) - 4 * amp) < 1e-3
    checks.append(("N_hat entries 1.6818", entries_ok and sparse_ok))
    checks.append(("M_conc = 0 at zero detunings",
                   np.linalg.norm(real.m_conc) == 0.0))
    model = Model(kind="general", m_mat=M4, n_mat=N4, s_mat=np.eye(4))
    report = verify_realization(model, real, tol=1e-7)
    checks.append(("verify@1e-7", report.passed))
    failed = [name for name, ok in checks if not ok]
    _report("criterion 2 (general worked example)", not failed,
            f"max verify error {report.max_error:.3e}"
            + (f"; failed: {failed}" if failed else ""))


def test_criterion_3_degenerate_cavity():
    roots = np.sqrt(np.array([1.0, 2.0, 3.0])).reshape(3, 1)
    n_mat = np.block([[roots, roots], [roots, roots]]).astype(complex)
    m_mat = np.zeros((2, 2), dtype=complex)
    checks = []
    neutral = np.linalg.norm(n_mat @ flat_adjoint(n_mat))
    checks.append(("P P^b residual < 1e-12", neutral < 1e-12))
    checks.append(("degenerate-special detected",
                   check_degeneracy(n_mat) == "degenerate_special"))
    real = synthesize_general(m_mat, n_mat)
    target = np.array([[np.sqrt(6.0)], [0.0], [0.0]])
    checks.append(("N_hat halves (sqrt6,0,0)",
                   np.allclose(real.nhat[:3, :1], target, atol=1e-10)
                   and np.allclose(real.nhat[:3, 1:2], target, atol=1e-10)))
    checks.append(("Mhat = M and X = 0",
                   np.linalg.norm(real.mhat - m_mat) < 1e-10
                   and np.linalg.norm(real.x) < 1e-10))
    model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                  s_mat=np.eye(6, dtype=complex))
    report = verify_realization(model, real, tol=1e-10)
    checks.append(("verify@1e-10", report.passed))
    failed = [name for name, ok in checks if not ok]
    _report("criterion 3 (degenerate one-cavity example)", not failed,
            f"max verify error {report.max_error:.3e}"
            + (f"; failed: {failed}" if failed else ""))


def test_criterion_4_krein_algebra():
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        a = random_doubled_up(k, k, rng)
        b = random_doubled_up(k, k, rng)
        c1 = complex(rng.normal(), rng.normal())
        # adjoint product rule and antilinearity
        worst = max(worst, np.linalg.norm(
            flat_adjoint(a @ b) - flat_adjoint(b) @ flat_adjoint(a)))
        worst = max(worst, np.linalg.norm(
            flat_adjoint(c1 * a + b)
            - np.conj(c1) * flat_adjoint(a) - flat_adjoint(b)))
        # doubled-up closure under the algebra operations
        from lqss.krein import doubled_up_residual
        worst = max(worst, doubled_up_residual(a @ b + flat_adjoint(a)))
        # Bogoliubov J-isometry
        r = random_bogoliubov(k, seed=int(rng.integers(2 ** 31)), scale=0.3)
        v = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
        w = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
        worst = max(worst, abs(j_inner(r @ v, r @ w) - j_inner(v, w)))
        # Phi conjugation round trips
        worst = max(worst, np.linalg.norm(
            phi_to_doubled(phi_to_real(a)) - a))
        x = rng.normal(size=(2 * k, 2 * k))
        worst = max(worst, np.linalg.norm(phi_to_real(phi_to_doubled(x)) - x))
    _report("criterion 4 (Krein algebra, 200 random cases)", worst < 1e-10,
            f"worst residual {worst:.3e}")


def _random_specs(rng):
    """Random mixed block specs with total port count <= 4."""
    budget = 4
    specs = []
    while budget > 0 and (not specs or rng.random() < 0.7):
        kind = rng.choice(["pos", "neg", "pair", "deg"])
        if kind == "pair" and budget < 2:
            continue
        if kind == "pos":
            specs.append(("pos", float(rng.uniform(0.3, 3.0))))
            budget -= 1
        elif kind == "neg":
            specs.append(("neg", -float(rng.uniform(0.3, 3.0))))
            budget -= 1
        elif kind == "pair":
            specs.append(("pair", complex(rng.normal(),
                                          rng.uniform(0.5, 2.0))))
            budget -= 2
        else:
            specs.append(("deg", [float(rng.uniform(0.5, 2.0))]))
            budget -= 1
    return specs


def test_criterion_5_planted_factorizations():
    rng = np.random.default_rng(501)
    worst_res, worst_eig = 0.0, 0.0
    for _ in range(100):
        specs = _random_specs(rng)
        coupling, expected, _, _ = planted_coupling(
            specs, rng, extra_modes=int(rng.integers(0, 2)))
        res = bogoliubov_svd(coupling)
        worst_res = max(worst_res, res.residual)
        computed = np.linalg.eigvals(flat_adjoint(coupling) @ coupling)
        worst_eig = max(worst_eig, multiset_distance(expected, computed))
    worst_jordan = 0.0
    for _ in range(50):
        lam = float(rng.uniform(-2.0, 2.0))
        coupling, _, _, _ = planted_coupling([("jordan", lam)], rng)
        worst_jordan = max(worst_jordan, bogoliubov_svd(coupling).residual)
    worst_sched = 0.0
    for k in range(50):
        m = int(rng.integers(1, 4))
        if k % 2:
            target = random_unitary(m, rng)
        else:
            target = random_bogoliubov(m, seed=int(rng.integers(2 ** 31)),
                                       scale=0.4)
        worst_sched = max(worst_sched,
                          schedule_residual(schedule_static(target), target))
    ok = worst_res < 1e-8 and worst_eig < 1e-8 and worst_jordan < 1e-7 \
        and worst_sched < 1e-8
    _report("criterion 5 (planted factorizations)", ok,
            f"100 mixed: residual {worst_res:.3e}, eigenvalues "
            f"{worst_eig:.3e}; 50 Jordan: {worst_jordan:.3e}; "
            f"50 schedules: {worst_sched:.3e}")


def _dual_path_gap(real, rng):
    # close_feedback against the open network closed by hand
    closed = close_feedback(real.kind, real.nhat, real.m_conc, real.ntilde,
                            real.r_feedback)
    gap = 0.0
    for _ in range(3):
        s = complex(abs(rng.normal()) + 0.05, 3.0 * rng.normal())
        gap = max(gap, float(np.linalg.norm(
            closed.eval(s) - closed_by_hand(real.kind, real, s))))
    return gap


def test_criterion_6_random_synthesis():
    rng = np.random.default_rng(601)
    worst_p, gap_p = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        m_mat, n_mat, s_mat = random_passive_model(n, m, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        worst_p = max(worst_p, verify_realization(model, real,
                                                  tol=1e-7).max_error)
        gap_p = max(gap_p, _dual_path_gap(real, rng))
    worst_g, gap_g, done, resampled = 0.0, 0.0, 0, 0
    while done < 100:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        m_mat, n_mat = random_general_model(n, m, rng)
        try:
            real = synthesize_general(m_mat, n_mat)
        except LqssError:
            resampled += 1  # non-semisimple or otherwise non-generic draw
            continue
        model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                      s_mat=np.eye(2 * m, dtype=complex))
        worst_g = max(worst_g, verify_realization(model, real,
                                                  tol=1e-7).max_error)
        gap_g = max(gap_g, _dual_path_gap(real, rng))
        done += 1
    ok = worst_p < 1e-7 and worst_g < 1e-7 and gap_p < 1e-10 \
        and gap_g < 1e-10
    _report("criterion 6 (random synthesis sweeps)", ok,
            f"passive: verify {worst_p:.3e}, dual-path {gap_p:.3e}; "
            f"general: verify {worst_g:.3e}, dual-path {gap_g:.3e} "
            f"({resampled} resampled)")


def test_criterion_7_diagnostics(tmp_path, capsys):
    checks = []
    # Jordan blocks of size 3 exit with the unsupported-structure code
    model = Model(kind="general", m_mat=np.zeros((6, 6)),
                  n_mat=phi_to_doubled(JORDAN3_WITNESS), s_mat=np.eye(6))
    modelio.dump_json(str(tmp_path / "j3.json"), model_to_dict(model))
    code = main(["synth", "--input", str(tmp_path / "j3.json"),
                 "--output", str(tmp_path / "o1.json")])
    err = json.loads(capsys.readouterr().err)
    checks.append(("Jordan-3 exit 3",
                   code == EXIT_UNSUPPORTED
                   and "Jordan block" in err["message"]))
    # non-neutral degenerate image exits with the same code
    model = Model(kind="general", m_mat=np.zeros((2, 2)),
                  n_mat=nonneutral_coupling(), s_mat=np.eye(4))
    modelio.dump_json(str(tmp_path / "deg.json"),
                      model_to_dict(model))
    code = main(["synth", "--input", str(tmp_path / "deg.json"),
                 "--output", str(tmp_path / "o2.json")])
    capsys.readouterr()
    checks.append(("non-neutral degeneracy exit 3",
                   code == EXIT_UNSUPPORTED))
    # Cayley transform of a unit-eigenvalue network names the eigenvalue
    try:
        cayley(np.eye(3))
        checks.append(("unit eigenvalue error", False))
    except UnitEigenvalueError as exc:
        checks.append(("unit eigenvalue error",
                       abs(exc.eigenvalue - 1.0) < 1e-8
                       and "(1+" in str(exc)))
    failed = [name for name, ok in checks if not ok]
    _report("criterion 7 (failure diagnostics)", not failed,
            "all error paths" if not failed else f"failed: {failed}")

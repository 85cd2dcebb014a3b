"""The compiled LAPACK routines, bound without ``scipy.linalg``.

``lapack`` loads scipy's ``linalg/cython_lapack`` extension itself and
calls the routines its capsules hold through ctypes.  Its routines must
give, bit for bit, what the public ``scipy.linalg`` gives: the seven
wrappers against scipy's f2py wrappers on C-ordered, Fortran-ordered and
strided input, on one right-hand side or several, and when LAPACK reports
failure; ``schur`` against ``scipy.linalg.schur``, and ``sqrtm`` against
``scipy.linalg.sqrtm`` on the 1 x 1 tie groups of ``netlist.takagi`` (to
1e-13 on larger groups).  Input that does not fit raises before LAPACK is
called.  The calls release the GIL: Python runs on another thread while
one reduces or solves, and two reductions at once give what one thread
gives.  A failed reduction, a missing extension file and a routine of an
unexpected signature are reported, and ``scipy.linalg``, imported later,
shares the extension and computes the same.
"""

import ctypes
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack as scipy_lapack

from helpers import failing_gees
from lqss import lapack
from lqss.errors import NumericalError

SRC = Path(__file__).resolve().parents[1] / "src"


def random_complex(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def same(a, b) -> bool:
    """Equal shapes, dtypes and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def all_same(got, expected) -> bool:
    return len(got) == len(expected) and all(map(same, got, expected))


def scipy_gees(a) -> tuple:
    """scipy's ``dgees`` or ``zgees`` of A with the optimal workspace, as
    ``scipy.linalg.schur`` calls it."""
    complex_input = np.iscomplexobj(a)
    routine = scipy_lapack.zgees if complex_input else scipy_lapack.dgees
    no_sort = (lambda x: None) if complex_input else (lambda x, y: None)
    lwork = int(routine(no_sort, a, lwork=-1)[-2][0].real)
    return routine(no_sort, a, lwork=lwork)


def laid_out(a, layout: str) -> np.ndarray:
    """A in C order, in Fortran order, or as a strided view into a larger
    array."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    big = np.zeros(tuple(2 * d + 1 for d in a.shape), a.dtype)
    view = big[tuple(slice(1, None, 2) for _ in a.shape)]
    view[...] = a
    return view


class TestSchur:
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 64])
    def test_real_input_takes_the_real_form(self, n):
        a = np.random.default_rng(n).normal(size=(n, n))
        t, z = lapack.schur(a)
        assert t.dtype == z.dtype == np.float64
        assert all_same((t, z), scipy.linalg.schur(a))

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 64])
    def test_complex_input_takes_the_complex_form(self, n):
        a = random_complex((n, n), np.random.default_rng(n))
        t, z = lapack.schur(a)
        assert t.dtype == z.dtype == np.complex128
        assert all_same((t, z), scipy.linalg.schur(a, output="complex"))

    def test_failed_reduction_is_a_numerical_error(self, monkeypatch):
        failing_gees(monkeypatch, 3)
        with pytest.raises(NumericalError, match=r"^Schur form of a 3 x 3 "
                           r"matrix not found \(LAPACK zgees info 3\)$"):
            lapack.schur(np.eye(3, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_a_numerical_error(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            lapack.schur(a)


@pytest.mark.parametrize("seed", range(3))
def test_routines_equal_scipy_lapack(seed):
    rng = np.random.default_rng(seed)
    a = random_complex((9, 9), rng)
    b = random_complex((9, 4), rng)
    upper = np.triu(a) + 4 * np.eye(9)
    assert all_same(lapack.ztrtrs(upper, b),
                    scipy_lapack.ztrtrs(upper, b))
    lu = lapack.zgetrf(a)
    assert all_same(lu, scipy_lapack.zgetrf(a))
    norm = np.linalg.norm(a, 1)
    assert all_same(lapack.zgecon(lu[0], norm),
                    scipy_lapack.zgecon(lu[0], norm))
    assert all_same(lapack.zgetrs(lu[0], lu[1], b),
                    scipy_lapack.zgetrs(lu[0], lu[1], b))
    t, q = map(np.asfortranarray,
               scipy.linalg.schur(a, output="complex"))
    select = rng.random(9) < 0.5
    assert all_same(lapack.ztrsen(select, t, q),
                    scipy_lapack.ztrsen(select, t, q, job="N"))
    assert all_same(lapack.gees(a), scipy_gees(a))
    assert all_same(lapack.gees(a.real), scipy_gees(a.real))


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
class TestLayouts:
    """Each wrapper gives scipy's result whatever the order and strides of
    its input, and leaves the input as it was."""

    @staticmethod
    def check(routine, scipy_routine, *args):
        kept = [np.copy(arg) for arg in args]
        assert all_same(routine(*args), scipy_routine(*args))
        assert all_same(args, kept)

    def test_gees(self, layout):
        rng = np.random.default_rng(1)
        for a in (rng.normal(size=(12, 12)), random_complex((12, 12), rng)):
            self.check(lapack.gees, scipy_gees, laid_out(a, layout))

    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_solves(self, layout, columns):
        # None: a 1-D right-hand side, as sqrtm passes one
        rng = np.random.default_rng(2)
        a = random_complex((8, 8), rng) + 3 * np.eye(8)
        b = random_complex((8,) if columns is None else (8, columns), rng)
        a_in, b_in = laid_out(a, layout), laid_out(b, layout)
        self.check(lapack.ztrtrs, scipy_lapack.ztrtrs,
                   laid_out(np.triu(a), layout), b_in)
        lu, piv, _ = lapack.zgetrf(a_in)
        self.check(lapack.zgetrf, scipy_lapack.zgetrf, a_in)
        self.check(lapack.zgecon, scipy_lapack.zgecon,
                   laid_out(lu, layout), np.linalg.norm(a, 1))
        self.check(lapack.zgetrs, scipy_lapack.zgetrs,
                   laid_out(lu, layout), laid_out(piv, layout), b_in)

    def test_ztrsen(self, layout):
        rng = np.random.default_rng(3)
        t, q = scipy.linalg.schur(random_complex((10, 10), rng),
                                  output="complex")
        select = (rng.random(10) < 0.4).astype(np.int32)
        self.check(lapack.ztrsen,
                   lambda *args: scipy_lapack.ztrsen(*args, job="N"),
                   laid_out(select, layout), laid_out(t, layout),
                   laid_out(q, layout))

    def test_rectangular_zgetrf(self, layout):
        a = random_complex((7, 4), np.random.default_rng(4))
        self.check(lapack.zgetrf, scipy_lapack.zgetrf, laid_out(a, layout))
        self.check(lapack.zgetrf, scipy_lapack.zgetrf,
                   laid_out(a.T, layout))


class TestFailureReports:
    """info > 0 comes back as scipy reports it, with the same outputs."""

    def test_singular_triangle(self):
        rng = np.random.default_rng(5)
        upper = np.triu(random_complex((6, 6), rng)) + 2 * np.eye(6)
        upper[3, 3] = 0
        b = random_complex((6, 2), rng)
        got = lapack.ztrtrs(upper, b)
        assert got[1] == 4
        assert all_same(got, scipy_lapack.ztrtrs(upper, b))

    def test_singular_lu(self):
        a = random_complex((6, 6), np.random.default_rng(6))
        a[:, 2] = 0
        got = lapack.zgetrf(a)
        assert got[2] > 0
        assert all_same(got, scipy_lapack.zgetrf(a))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [3, 5])
    def test_failed_gees(self, n, dtype):
        # a NaN keeps the QR iteration from converging
        a = np.random.default_rng(n).normal(size=(n, n)).astype(dtype)
        a[1, 0] = np.nan
        got = lapack.gees(a)
        assert got[-1] > 0
        assert all_same(got, scipy_gees(a))


class TestRefusedInput:
    """Input that LAPACK would reject, or read past, raises ``ValueError``
    before any routine is called, and nothing is printed."""

    CASES = {
        "gees not square": lambda: lapack.gees(np.ones((3, 4))),
        "gees 1-D": lambda: lapack.gees(np.ones(3)),
        "gees 3-D": lambda: lapack.gees(np.ones((2, 2, 2))),
        "gees text": lambda: lapack.gees(np.array([["a"]])),
        "ztrtrs not square": lambda: lapack.ztrtrs(np.eye(3)[:, :2],
                                                   np.ones(3)),
        "ztrtrs short b": lambda: lapack.ztrtrs(np.eye(3), np.ones(2)),
        "ztrtrs 3-D b": lambda: lapack.ztrtrs(np.eye(2), np.ones((2, 1, 1))),
        "ztrtrs object b": lambda: lapack.ztrtrs(
            np.eye(2), np.array([None, None])),
        "ztrsen short select": lambda: lapack.ztrsen(
            np.ones(2, np.int32), np.eye(3), np.eye(3)),
        "ztrsen q mismatch": lambda: lapack.ztrsen(
            np.ones(3, np.int32), np.eye(3), np.eye(2)),
        "ztrsen complex select": lambda: lapack.ztrsen(
            np.ones(3, complex), np.eye(3), np.eye(3)),
        "zgetrf 1-D": lambda: lapack.zgetrf(np.ones(3)),
        "zgecon not square": lambda: lapack.zgecon(np.ones((2, 3)), 1.0),
        "zgecon negative norm": lambda: lapack.zgecon(np.eye(2), -1.0),
        "zgetrs short piv": lambda: lapack.zgetrs(np.eye(3), np.zeros(2),
                                                  np.ones(3)),
        "zgetrs pivot past the end": lambda: lapack.zgetrs(
            np.eye(3), np.array([0, 5, 2]), np.ones(3)),
        "zgetrs negative pivot": lambda: lapack.zgetrs(
            np.eye(3), np.array([0, -1, 2]), np.ones(3)),
        "zgetrs real piv": lambda: lapack.zgetrs(
            np.eye(3), np.array([0.0, 1.0, 2.0]), np.ones(3)),
        "zgetrs short b": lambda: lapack.zgetrs(
            np.eye(3), np.arange(3), np.ones((2, 2))),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_raises_before_the_call(self, case, monkeypatch, capfd):
        called = []
        for name in lapack._ROUTINES:
            monkeypatch.setitem(lapack._ROUTINES, name,
                                lambda *_, _name=name: called.append(_name))
        with pytest.raises(ValueError):
            self.CASES[case]()
        assert called == []
        assert capfd.readouterr() == ("", "")


class TestGil:
    """The calls release the GIL."""

    @staticmethod
    def longest_python_pause(task) -> float:
        """Run ``task`` on a worker thread while the calling thread runs a
        pure-Python loop; the longest stretch of the task's time, from its
        start to its end as the worker records them, in which the loop made
        no iteration, as a share of that time."""
        window, stamps = [], []
        done = threading.Event()

        def work():
            window.append(time.perf_counter())
            task()
            window.append(time.perf_counter())
            done.set()

        worker = threading.Thread(target=work)
        worker.start()
        while not done.is_set():
            stamps.append(time.perf_counter())
        worker.join()
        start, end = window
        inside = [start, *(t for t in stamps if start < t < end), end]
        return max(np.diff(inside)) / (end - start)

    def test_python_runs_during_a_reduction_and_a_solve(self):
        # while a routine held the GIL, the loop would stop for the whole
        # call: the pause would be nearly all of the task's time
        rng = np.random.default_rng(7)
        a = rng.normal(size=(400, 400))
        assert self.longest_python_pause(lambda: lapack.schur(a)) < 0.5
        upper = np.asfortranarray(
            np.triu(random_complex((800, 800), rng)) + 30 * np.eye(800))
        b = np.asfortranarray(random_complex((800, 800), rng))
        assert self.longest_python_pause(
            lambda: lapack.ztrtrs(upper, b)) < 0.5

    def test_two_threads_compute_what_one_does(self):
        rng = np.random.default_rng(8)
        matrices = [rng.normal(size=(150, 150)),
                    random_complex((150, 150), rng)]

        def reduce_and_solve(a):
            t, z = lapack.schur(a)
            return (t, z, *lapack.ztrtrs(np.triu(t) + np.eye(len(t)), z))

        alone = [reduce_and_solve(a) for a in matrices]
        together = [None, None]
        threads = [threading.Thread(target=lambda k=k: together.__setitem__(
            k, reduce_and_solve(matrices[k]))) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, expected in zip(together, alone):
            assert all_same(got, expected)


class TestSqrtm:
    @staticmethod
    def unitary_symmetric(group_sizes, rng):
        """O diag(e^{i theta}) O^T with O real orthogonal, each phase
        repeated as often as its group size says, away from the cut of the
        principal root at -1."""
        phases = np.repeat(rng.uniform(-2.8, 2.8, len(group_sizes)),
                           group_sizes)
        o = np.linalg.qr(rng.normal(size=(len(phases),) * 2))[0]
        return (o * np.exp(1j * phases)) @ o.T

    @pytest.mark.parametrize("group_sizes", [
        (2,), (3,), (5,), (2, 1), (3, 2), (4, 1, 2), (5, 5)])
    def test_repeated_eigenvalues_match_scipy(self, group_sizes):
        rng = np.random.default_rng(sum(group_sizes) * 7 + len(group_sizes))
        u = self.unitary_symmetric(group_sizes, rng)
        root = lapack.sqrtm(u)
        assert np.abs(root - scipy.linalg.sqrtm(u)).max() <= 1e-13
        assert np.abs(root @ root - u).max() <= 1e-13
        # symmetric, as netlist.takagi needs of a tie group's root
        assert np.abs(root - root.T).max() <= 1e-13

    def test_triangular_recurrence(self):
        # a non-normal matrix: the root's upper part comes from the
        # recurrence, not the diagonal alone
        rng = np.random.default_rng(5)
        a = random_complex((6, 6), rng) + 6 * np.eye(6)
        root = lapack.sqrtm(a)
        assert np.abs(root @ root - a).max() <= 1e-12 * np.abs(a).max()
        assert np.abs(root - scipy.linalg.sqrtm(a)).max() <= 1e-12

    def test_no_principal_root_is_a_numerical_error(self):
        # a nilpotent block has no square root: the recurrence divides by
        # r_00 + r_11 = 0
        with pytest.raises(NumericalError, match="no principal square root"):
            lapack.sqrtm(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_one_by_one_is_scipy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([
            np.exp(1j * rng.uniform(-np.pi, np.pi, 400)),
            random_complex(100, rng), [1, -1, 1j, -1j, 0]])
        for value in values:
            a = np.array([[value]], dtype=complex)
            assert same(lapack.sqrtm(a), scipy.linalg.sqrtm(a)), value


def test_missing_extension_is_an_import_error(tmp_path, monkeypatch):
    fake = types.SimpleNamespace(__file__=str(tmp_path / "scipy" /
                                              "__init__.py"))
    monkeypatch.setattr(lapack, "scipy", fake)
    with pytest.raises(ImportError, match="scipy's compiled LAPACK is "
                       "missing") as info:
        lapack._load_cython_lapack()
    assert info.value.path.startswith(str(tmp_path / "scipy" / "linalg"
                                          / "cython_lapack"))
    assert info.value.path in str(info.value)


def test_unexpected_signature_is_an_import_error():
    # a routine that takes a value, not a pointer, would be called wrongly
    new_capsule = ctypes.PYFUNCTYPE(
        ctypes.py_object, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
    signature = ctypes.create_string_buffer(b"void (char *, int)")
    capsule = new_capsule(ctypes.addressof(signature),
                          ctypes.addressof(signature), None)
    fake = types.SimpleNamespace(__pyx_capi__={"zgees": capsule})
    with pytest.raises(ImportError, match=r"zgees has the unexpected "
                       r"signature void \(char \*, int\)$"):
        lapack._bind(fake, "zgees")


def test_scipy_extension_under_the_package_name():
    # one extension, loaded once, under lqss's name in a fresh interpreter;
    # each bound routine is the C function of its capsule
    module = lapack._cython_lapack
    assert (Path(module.__file__).parent
            == Path(scipy.__file__).parent / "linalg")
    for name, routine in lapack._ROUTINES.items():
        capsule = module.__pyx_capi__[name]
        address = lapack._capsule_pointer(capsule,
                                          lapack._capsule_name(capsule))
        assert ctypes.cast(routine, ctypes.c_void_p).value == address, name
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c",
         "from lqss import lapack; print(lapack._cython_lapack.__name__)"],
        env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["lqss.cython_lapack"]


def test_second_copy_from_scipy_linalg_agrees():
    # scipy.linalg, imported after lqss, finds the extension that lqss
    # loaded and binds LAPACK a second time through its f2py wrappers;
    # both bindings solve alike, and scipy's own users of the extension
    # work
    script = """\
import sys
import numpy as np
from lqss import cli, lapack
assert "scipy.linalg" not in sys.modules
import scipy.linalg
from scipy.linalg import lapack as scipy_lapack
assert sys.modules["scipy.linalg.cython_lapack"] is lapack._cython_lapack
rng = np.random.default_rng(0)
t = np.triu(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
t += 3 * np.eye(7)
b = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
ours, theirs = lapack.ztrtrs(t, b), scipy_lapack.ztrtrs(t, b)
q, r = scipy.linalg.qr(t)
q1, r1 = scipy.linalg.qr_update(q, r, b[:, 0], b[:, 1])
print(ours[1] == theirs[1] == 0 and ours[0].tobytes() == theirs[0].tobytes(),
      np.allclose(q1 @ r1, t + np.outer(b[:, 0], b[:, 1].conj())))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["True", "True"]

"""The compiled LAPACK routines loaded without ``scipy.linalg``.

``lapack`` loads scipy's ``linalg/_flapack`` extension itself.  Its
routines must give, bit for bit, what the public ``scipy.linalg`` gives:
the five re-exported wrappers, ``schur`` against ``scipy.linalg.schur``,
and ``sqrtm`` against ``scipy.linalg.sqrtm`` on the 1 x 1 tie groups of
``netlist.takagi`` (to 1e-13 on larger groups).  A failed reduction and a
missing extension file are reported, and the extension's second copy, the
one ``scipy.linalg`` loads later, computes the same.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack as scipy_lapack

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
        original = lapack.zgees
        monkeypatch.setattr(lapack, "zgees", lambda *args, **kwargs:
                            original(*args, **kwargs)[:-1] + (3,))
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
    assert all_same(lapack.ztrsen(select, t, q, job="N"),
                    scipy_lapack.ztrsen(select, t, q, job="N"))


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
        lapack._load_flapack()
    assert info.value.path.startswith(str(tmp_path / "scipy" / "linalg"
                                          / "_flapack"))
    assert info.value.path in str(info.value)


def test_scipy_extension_under_the_package_name():
    module = sys.modules["lqss._flapack"]
    assert module.ztrtrs is lapack.ztrtrs
    assert (Path(module.__file__).parent
            == Path(scipy.__file__).parent / "linalg")


def test_second_copy_from_scipy_linalg_agrees():
    # scipy.linalg, imported after lqss, loads the same file again as its
    # own module; both copies solve alike
    script = """\
import sys
import numpy as np
from lqss import cli, lapack
assert "scipy.linalg" not in sys.modules
from scipy.linalg import lapack as scipy_lapack
assert scipy_lapack.ztrtrs is not lapack.ztrtrs
rng = np.random.default_rng(0)
t = np.triu(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
t += 3 * np.eye(7)
b = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
ours, theirs = lapack.ztrtrs(t, b), scipy_lapack.ztrtrs(t, b)
print(ours[1] == theirs[1] == 0 and ours[0].tobytes() == theirs[0].tobytes())
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["True"]

"""The compiled LAPACK routines of the toolkit, without ``scipy.linalg``.

scipy's extension ``linalg/_flapack`` holds the f2py wrappers of LAPACK
that ``scipy.linalg`` calls.  Importing the ``scipy.linalg`` package to
reach them costs more than half of a cold start of the CLI, since its
array-API layer loads ``numpy.f2py``, ``numpy.testing`` and more.  This
module imports only the top-level ``scipy`` package, which on Windows also
registers the folder of scipy's bundled OpenBLAS, and loads the extension
file itself, once, at import, as ``lqss._flapack``.  The wrappers are the
ones ``scipy.linalg.lapack`` exposes, called with the same arguments, so
every result is bit for bit the one scipy gives:

* ``ztrtrs``, ``ztrsen``, ``zgetrf``, ``zgecon`` and ``zgetrs`` as they are;
* ``schur``, the two LAPACK calls of ``scipy.linalg.schur(a)``: ``dgees``
  for a real A, ``zgees`` for a complex one;
* ``sqrtm``, the principal square root from the complex Schur form
  (Bjorck and Hammarling, Linear Algebra Appl. 52, 127, 1983).

The same locator finds the OpenBLAS copies that numpy and scipy bundle,
whose thread-count setters the CLI calls.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import scipy

from .errors import NumericalError


def _installed(package, pattern: str) -> list:
    """The files that match ``pattern``, a glob relative to the folder of
    the installed ``package``, sorted."""
    folder = os.path.dirname(package.__file__)
    return sorted(glob.glob(os.path.join(folder, pattern)))


def _load_flapack():
    pattern = os.path.join("linalg", "_flapack")
    paths = [p for suffix in EXTENSION_SUFFIXES
             for p in _installed(scipy, pattern + suffix)]
    if not paths:
        missing = os.path.join(os.path.dirname(scipy.__file__),
                               pattern + EXTENSION_SUFFIXES[0])
        raise ImportError(f"scipy's compiled LAPACK is missing: {missing}",
                          path=missing)
    # the module name must end in the extension's own name, _flapack
    spec = importlib.util.spec_from_file_location(f"{__package__}._flapack",
                                                  paths[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _openblas_setters(package, symbol: str) -> list:
    """The ctypes function ``symbol`` of each OpenBLAS in the package's
    ``<package>.libs`` folder; a library or symbol that is not there is
    left out."""
    setters = []
    pattern = os.path.join(os.pardir, f"{package.__name__}.libs",
                           "libscipy_openblas*")
    for path in _installed(package, pattern):
        try:
            setter = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setters.append(setter)
    return setters


_flapack = _load_flapack()
dgees, zgees = _flapack.dgees, _flapack.zgees
ztrtrs, ztrsen = _flapack.ztrtrs, _flapack.ztrsen
zgetrf, zgecon, zgetrs = _flapack.zgetrf, _flapack.zgecon, _flapack.zgetrs

#: the thread-count setters of the OpenBLAS pools that numpy and scipy
#: each bundle
OPENBLAS_THREAD_SETTERS = tuple(
    _openblas_setters(np, "scipy_openblas_set_num_threads64_")
    + _openblas_setters(scipy, "scipy_openblas_set_num_threads"))


def _no_sort(*_):
    return None


def schur(a: np.ndarray) -> tuple:
    """(T, Z) with A = Z T Z^dag: the real Schur form of a real A, the
    complex one of a complex A, as ``scipy.linalg.schur(a)`` gives them.

    A workspace query comes first, then the reduction without sorting.
    """
    a = np.asarray(a)
    complex_input = np.iscomplexobj(a)
    if not np.isfinite(a).all():
        raise NumericalError("Schur form of a matrix with non-finite entries")
    if a.size == 0:
        empty = np.empty_like(a, dtype=complex if complex_input else float)
        return empty, empty.copy()
    gees = zgees if complex_input else dgees
    lwork = int(gees(_no_sort, a, lwork=-1)[-2][0].real)
    result = gees(_no_sort, a, lwork=lwork, sort_t=0)
    if result[-1]:
        raise NumericalError(
            f"Schur form of a {len(a)} x {len(a)} matrix not found "
            f"(LAPACK {'z' if complex_input else 'd'}gees info "
            f"{result[-1]})")
    return result[0], result[-3]


def sqrtm(a: np.ndarray) -> np.ndarray:
    """Principal square root of a square matrix A = Z T Z^dag.

    The root of the triangular T is R with the principal roots of T's
    diagonal on its diagonal.  R^2 = T fixes R's columns in turn: above
    the diagonal, column j solves (R_{<j,<j} + r_jj I) x = t_{<j,j}, one
    triangular solve.  A 1 x 1 matrix takes ``np.sqrt`` alone.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape == (1, 1):
        return np.sqrt(a)
    t, z = schur(a)
    root = np.diag(np.sqrt(t.diagonal()))
    for j in range(1, len(t)):
        shifted = root[:j, :j] + root[j, j] * np.eye(j)
        root[:j, j], info = ztrtrs(shifted, t[:j, j])
        if info:
            raise NumericalError(
                "no principal square root: r_ii + r_jj = 0 for a zero or "
                "negative real eigenvalue")
    return z @ root @ z.conj().T

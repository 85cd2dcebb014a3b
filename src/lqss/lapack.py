"""The compiled LAPACK routines of the toolkit, called without the GIL.

scipy's extension ``linalg/cython_lapack`` exports every LAPACK routine of
scipy's library as a C function pointer, one PyCapsule per routine in its
``__pyx_capi__``.  This module imports only the top-level ``scipy``
package, which on Windows also registers the folder of scipy's bundled
OpenBLAS, and loads the extension file itself, once, at import, as
``lqss.cython_lapack``: the ``scipy.linalg`` package, whose array-API layer
loads ``numpy.f2py``, ``numpy.testing`` and more, would cost more than half
of a cold start of the CLI.  The seven routines lqss calls are bound with
``ctypes.CFUNCTYPE``, which releases the GIL for the duration of each
call, so that two threads reduce or solve at once.

A raw pointer carries no shape, so each call checks its inputs and passes
LAPACK only buffers of the routine's dtype, aligned, in Fortran order and
of the sizes LAPACK reads, copying the input where it is not so and always
where LAPACK overwrites it.  Input that does not fit raises ``ValueError``
before the call: no illegal argument reaches LAPACK.  Each call makes the
LAPACK calls that scipy's f2py wrappers make for the options lqss uses,
with the same workspace, so every result is bit for bit the one scipy
gives.  The five calls:

* ``schur(a)``: (T, Z), what ``scipy.linalg.schur(a)`` computes
  (``dgees`` for a real A, ``zgees`` for a complex one);
* ``ztrsen(select, t, q)``: the reordering of a complex Schur form
  (``job="N"``);
* ``ztrtrs(a, b)``: an upper triangular solve;
* ``solve(a, b)``: a square solve with the reciprocal 1-norm condition
  estimate of A (``zgetrf``, ``zgecon``, ``zgetrs``);
* ``sqrtm(a)``: the principal square root from the complex Schur form
  (Bjorck and Hammarling, Linear Algebra Appl. 52, 127, 1983).

The checks and ctypes cost each call 8 to 10 us more than scipy's f2py
wrapper takes (best of 5 x 2000 calls of ``ztrtrs`` at n = 4 to 48 on a
2-vCPU Xeon VM): under 1 ms in the 80 solves of a verify.

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


def _load_cython_lapack():
    pattern = os.path.join("linalg", "cython_lapack")
    paths = [p for suffix in EXTENSION_SUFFIXES
             for p in _installed(scipy, pattern + suffix)]
    if not paths:
        missing = os.path.join(os.path.dirname(scipy.__file__),
                               pattern + EXTENSION_SUFFIXES[0])
        raise ImportError(f"scipy's compiled LAPACK is missing: {missing}",
                          path=missing)
    # the module name must end in the extension's own name, cython_lapack
    spec = importlib.util.spec_from_file_location(
        f"{__package__}.cython_lapack", paths[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(module, name: str):
    """The routine ``name`` of ``module.__pyx_capi__`` as a ctypes function
    that takes one address per parameter and releases the GIL.

    The capsule's name is the routine's C signature; one that is not a
    ``void`` function of pointers alone is an ``ImportError``.
    """
    capsule = module.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    params = signature.removeprefix(b"void (").removesuffix(b")").split(b", ")
    if not signature.startswith(b"void (") or not all(
            p.endswith(b"*") for p in params):
        raise ImportError(f"scipy's LAPACK {name} has the unexpected "
                          f"signature {signature.decode()}")
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(params))
    return prototype(_capsule_pointer(capsule, signature))


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


_cython_lapack = _load_cython_lapack()
#: the bound routines, looked up at each call
_ROUTINES = {name: _bind(_cython_lapack, name) for name in (
    "dgees", "zgees", "ztrtrs", "ztrsen", "zgetrf", "zgecon", "zgetrs")}

#: the thread-count setters of the OpenBLAS pools that numpy and scipy
#: each bundle
OPENBLAS_THREAD_SETTERS = tuple(
    _openblas_setters(np, "scipy_openblas_set_num_threads64_")
    + _openblas_setters(scipy, "scipy_openblas_set_num_threads"))


def _call(name: str, *args) -> int:
    """Call the bound routine ``name`` and return its ``info``, the last
    argument, which the caller leaves out.

    An array is passed by the address of its data and an int or float by
    the address of a C copy; bytes (a LAPACK option letter) and None (a
    null pointer) pass as they are.  The caller holds every array until
    the call returns.
    """
    info = ctypes.c_int(0)
    scalars = []  # the C copies, alive until the call returns
    addresses = []
    for arg in args:
        kind = type(arg)
        if kind is np.ndarray:
            arg = arg.ctypes.data
        elif kind is int or kind is float:
            scalars.append((ctypes.c_int if kind is int else ctypes.c_double)(
                arg))
            arg = ctypes.addressof(scalars[-1])
        addresses.append(arg)
    _ROUTINES[name](*addresses, ctypes.addressof(info))
    return info.value


def _array(value, dtype, name: str, ndim: int = 2, copy: bool = False):
    """``value`` as an aligned Fortran-ordered array of ``dtype``, a new one
    when ``copy`` (LAPACK overwrites it) or when ``value`` is not such an
    array already; ``ValueError`` when its entries do not convert without
    loss or it does not have ``ndim`` dimensions."""
    arr = np.asarray(value)
    if arr.ndim != ndim:
        raise ValueError(f"{name} has {arr.ndim} dimensions, not {ndim}")
    if arr.dtype != dtype:
        if not np.can_cast(arr.dtype, dtype, "same_kind"):
            raise ValueError(f"{name} has {arr.dtype} entries, not "
                             f"{np.dtype(dtype)}")
    elif not copy and arr.flags.f_contiguous and arr.flags.aligned:
        return arr
    return np.array(arr, dtype=dtype, order="F")


def _square(value, dtype, name: str, copy: bool = False):
    a = _array(value, dtype, name, copy=copy)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} is {a.shape[0]} x {a.shape[1]}, not square")
    return a


def _right_side(value, rows: int):
    """A copy of the right-hand side B, one column or more, of a system of
    ``rows`` equations."""
    b = _array(value, complex, "b", copy=True)
    if b.shape[0] != rows:
        raise ValueError(f"b has {b.shape[0]} rows, not {rows}")
    return b


def schur(a) -> tuple:
    """(T, Z) with A = Z T Z^dag: the real Schur form of a real A, the
    complex one of a complex A, as ``scipy.linalg.schur(a)`` gives them.

    ``dgees`` or ``zgees`` reduces a copy of A, unsorted, with the optimal
    workspace, which a query finds first; ``NumericalError`` when A is not
    finite or LAPACK reports failure.
    """
    real = not np.iscomplexobj(a)
    dtype = float if real else complex
    t = _square(a, dtype, "a", copy=True)
    n = len(t)
    z = np.zeros((n, n), dtype, order="F")
    if not np.isfinite(t).all():
        raise NumericalError("Schur form of a matrix with non-finite entries")
    if n == 0:
        return t, z
    name = "dgees" if real else "zgees"
    values = [np.zeros(n), np.zeros(n)] if real else [np.zeros(n, complex)]
    rwork = [] if real else [np.zeros(n)]
    sdim, bwork = np.zeros(1, np.int32), np.zeros(n, np.int32)

    def reduce(work, lwork):
        return _call(name, b"V", b"N", None, n, t, n, sdim, *values, z, n,
                     work, lwork, *rwork, bwork)

    query = np.zeros(1, dtype)
    reduce(query, -1)
    lwork = int(query[0].real)
    info = reduce(np.zeros(max(1, lwork), dtype), lwork)
    if info:
        raise NumericalError(f"Schur form of a {n} x {n} matrix not found "
                             f"(LAPACK {name} info {info})")
    return t, z


def ztrsen(select, t, q) -> tuple:
    """(T', Q'): the Schur form T = Q^dag A Q reordered so that the
    eigenvalues that ``select`` marks come first, with Q updated."""
    t = _square(t, complex, "t", copy=True)
    q = _square(q, complex, "q", copy=True)
    select = _array(select, np.int32, "select", ndim=1)
    n = len(t)
    if q.shape != t.shape or select.shape != (n,):
        raise ValueError(f"t, q and select do not fit: {t.shape}, "
                         f"{q.shape}, {select.shape}")
    lead = max(1, n)
    # w, m, s and sep are scratch; complex ztrsen reports info != 0 only
    # for an illegal argument, which the checks above rule out
    _call("ztrsen", b"N", b"V", select, n, t, lead, q, lead,
          np.zeros(n, complex), np.zeros(1, np.int32), np.zeros(1),
          np.zeros(1), np.zeros(lead, complex), lead)
    return t, q


def ztrtrs(a, b) -> tuple:
    """(X, info): the solution of A X = B for an upper triangular A and a
    2-D B, X of B's shape; info > 0 names a zero diagonal entry, and X is
    then B."""
    a = _square(a, complex, "a")
    n = len(a)
    x = _right_side(b, n)
    info = _call("ztrtrs", b"U", b"N", b"N", n, x.shape[1], a, max(1, n), x,
                 max(1, n))
    return x, info


def solve(a, b) -> tuple:
    """(X, rcond): the solution of A X = B for a square A and a 2-D B, X of
    B's shape, and the reciprocal 1-norm condition estimate of A.

    ``zgetrf`` factors a copy of A, ``zgecon`` estimates from the factors
    and ||A||_1, and ``zgetrs`` solves; a zero pivot returns (None, 0.0).
    """
    a = np.asarray(a)
    lu = _square(a, complex, "a", copy=True)
    n, lead = len(lu), max(1, len(lu))
    x = _right_side(b, n)
    piv = np.zeros(n, np.int32)
    if _call("zgetrf", n, n, lu, lead, piv):
        return None, 0.0
    # zgecon and zgetrs report info != 0 only for an illegal argument
    rcond = np.zeros(1)
    _call("zgecon", b"1", n, lu, lead, float(np.linalg.norm(a, 1)), rcond,
          np.zeros(max(1, 2 * n), complex), np.zeros(max(1, 2 * n)))
    _call("zgetrs", b"N", n, x.shape[1], lu, lead, piv, x, lead)
    return x, float(rcond[0])


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
        root[:j, j:j + 1], info = ztrtrs(shifted, t[:j, j:j + 1])
        if info:
            raise NumericalError(
                "no principal square root: r_ii + r_jj = 0 for a zero or "
                "negative real eigenvalue")
    return z @ root @ z.conj().T

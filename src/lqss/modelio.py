"""JSON files: reading models and netlists, and writing netlists,
schedules and reports.

Complex matrices are stored as nested lists of two-element ``[re, im]``
pairs.  Every file carries a ``schema_version`` field; loaders raise
``ValidationError`` with the offending location on malformed input.  A
schedule file (the output of ``lqss decompose``, and each network's
``schedule`` in a netlist) is never read back: its devices were multiplied
out against their network before it was written.

Files are read and written with orjson, as standard JSON (RFC 8259): a file
holding ``NaN``, ``Infinity``, a number that overflows a double, or bytes
that are not UTF-8 is invalid JSON.  Every finite double survives a round
trip bit for bit, through orjson or through the standard library's ``json``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import chain

import numpy as np
import orjson

from .errors import LqssError, ValidationError
from .netlist import DeviceSchedule
from .statespace import Model, Realization, VerifyReport

SCHEMA_VERSION = 1


def encode_matrix(x: np.ndarray) -> list:
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    return np.stack([x.real, x.imag], -1).tolist()


def _pairs(data) -> list | None:
    """The numbers of a list of equal-length lists of two-element lists,
    flattened in order; None for anything else."""
    if (type(data) is not list or set(map(type, data)) != {list}
            or len(set(map(len, data))) != 1):
        return None
    pairs = list(chain.from_iterable(data))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    return list(chain.from_iterable(pairs))


def _numbers(values) -> bool:
    """Whether every value is a JSON number: an int or a float, and not a
    boolean, a string or None."""
    return set(map(type, values)) <= {int, float}


def decode_matrix(data, where: str) -> np.ndarray:
    numbers = _pairs(data)
    if numbers is None:
        try:
            arr = np.asarray(data, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}: not a numeric matrix") from None
    elif _numbers(numbers):
        arr = np.fromiter(numbers, dtype=float, count=len(numbers))
        arr = arr.reshape(len(data), -1, 2)
    else:
        raise ValidationError(f"{where}: not a numeric matrix")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(
            f"{where}: expected a matrix of [re, im] pairs, got shape "
            f"{arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _decode_rates(data, where: str) -> np.ndarray:
    """A JSON list of positive numbers as a 1-d float array."""
    if (type(data) is not list or not _numbers(data)
            or not all(rate > 0 for rate in data)):
        raise ValidationError(f"{where}: expected a list of positive rates")
    return np.array(data, dtype=float)


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return data[key]


def _check_version(data: dict, where: str) -> None:
    version = _require(data, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"{where}: unsupported schema_version {version!r}")


@contextmanager
def paused_gc():
    """Run the block with the cyclic garbage collector off, then restore the
    caller's setting, also on error.

    JSON values, as orjson reads and writes them, hold no reference cycles,
    so a collection while one is built or parsed frees nothing; it only
    walks the thousands of new lists and dicts.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_json(path: str):
    """The JSON value in the file ``path``, parsed with the garbage
    collector paused; a file that cannot be read or is not standard JSON
    raises ``ValidationError`` naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(
            f"{path}: cannot read ({exc.strerror or exc})") from None
    try:
        with paused_gc():
            return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def dump_json(path: str, payload) -> None:
    """Write ``payload`` as one line of compact JSON.

    The payload holds only Python numbers, strings, lists and dicts (orjson
    rejects numpy scalars).  It is encoded before the file is opened, and a
    file that cannot be written raises ``ValidationError`` naming the path.
    """
    data = orjson.dumps(payload, option=orjson.OPT_APPEND_NEWLINE)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValidationError(
            f"{path}: cannot write ({exc.strerror or exc})") from None


def model_from_dict(data: dict, where: str = "model") -> tuple:
    """Returns (Model, options dict with detunings/interconnect kappas)."""
    _check_version(data, where)
    kind = _require(data, "type", where)
    if kind not in ("passive", "general"):
        raise ValidationError(f"{where}.type: unknown model type {kind!r}")
    m_mat = decode_matrix(_require(data, "M", where), f"{where}.M")
    n_mat = decode_matrix(_require(data, "N", where), f"{where}.N")
    s_mat = decode_matrix(data["S"], f"{where}.S") if "S" in data else None
    try:
        model = Model(kind=kind, m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
    except LqssError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    opts = {}
    if "detunings" in data:
        opts["detunings"] = data["detunings"]
    if "interconnect_kappas" in data:
        opts["interconnect_kappa"] = data["interconnect_kappas"]
    return model, opts


def load_model(path: str) -> tuple:
    with paused_gc():  # the parsed file is freed inside
        return model_from_dict(load_json(path), where=path)


def schedule_to_dict(schedule: DeviceSchedule) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bogoliubov" if schedule.doubled else "unitary",
        "channels": schedule.channels,
        "devices": schedule.devices,
    }


def _network_to_dict(matrix: np.ndarray, schedule: DeviceSchedule) -> dict:
    return {"matrix": encode_matrix(matrix),
            "schedule": schedule_to_dict(schedule)}


def realization_to_dict(real: Realization, pre_schedule: DeviceSchedule,
                        post_schedule: DeviceSchedule,
                        feedback_schedule: DeviceSchedule) -> dict:
    """Serialize a synthesized realization, with the device schedules of
    its three networks, as a netlist."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "type": real.kind,
        "pre_network": _network_to_dict(real.pre, pre_schedule),
        "post_network": _network_to_dict(real.post, post_schedule),
        "feedback": _network_to_dict(real.r_feedback, feedback_schedule),
        "reduced": {
            "N_hat": encode_matrix(real.nhat),
            "M_hat": encode_matrix(real.mhat),
            "M_conc": encode_matrix(real.m_conc),
            "detunings": [float(v) for v in real.detunings],
            "interconnect_kappas": [float(v) for v in real.kappas_tilde],
        },
        "classification": real.classification,
    }
    if real.kind == "general":
        out["cavities"] = real.cavities
        out["devices"] = real.devices
    out["factorization_residual"] = real.factorization_residual
    return out


def realization_from_dict(data: dict, where: str = "netlist") -> Realization:
    """The part of a netlist that verification reads."""
    _check_version(data, where)
    kind = _require(data, "type", where)
    if kind not in ("passive", "general"):
        raise ValidationError(f"{where}.type: unknown type {kind!r}")
    reduced = _require(data, "reduced", where)
    nhat = decode_matrix(_require(reduced, "N_hat", f"{where}.reduced"),
                         f"{where}.reduced.N_hat")
    m_conc = decode_matrix(_require(reduced, "M_conc", f"{where}.reduced"),
                           f"{where}.reduced.M_conc")
    kappas = _decode_rates(
        _require(reduced, "interconnect_kappas", f"{where}.reduced"),
        f"{where}.reduced.interconnect_kappas")
    fb = _require(data, "feedback", where)
    r_feedback = decode_matrix(_require(fb, "matrix", f"{where}.feedback"),
                               f"{where}.feedback.matrix")
    pre = decode_matrix(
        _require(_require(data, "pre_network", where), "matrix",
                 f"{where}.pre_network"), f"{where}.pre_network.matrix")
    post = decode_matrix(
        _require(_require(data, "post_network", where), "matrix",
                 f"{where}.post_network"), f"{where}.post_network.matrix")
    return Realization(kind=kind, pre=pre, post=post, nhat=nhat,
                       m_conc=m_conc, kappas_tilde=kappas,
                       r_feedback=r_feedback)


def load_realization(path: str) -> Realization:
    with paused_gc():  # the parsed file is freed inside
        return realization_from_dict(load_json(path), where=path)


def report_to_dict(report: VerifyReport) -> dict:
    worst = report.worst_point
    return {
        "schema_version": SCHEMA_VERSION,
        "num_freqs": report.num_freqs,
        "seed": report.seed,
        "tolerance": report.tol,
        "points": [[float(s.real), float(s.imag)] for s in report.points],
        "errors": [float(e) for e in report.errors],
        "max_error": report.max_error,
        "worst_point": (None if worst is None
                        else [float(worst.real), float(worst.imag)]),
        "passed": bool(report.passed),
    }

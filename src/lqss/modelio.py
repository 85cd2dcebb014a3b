"""JSON serialization of models, netlists, schedules and reports.

Complex matrices are stored as nested lists of two-element ``[re, im]``
pairs.  Every file carries a ``schema_version`` field; loaders raise
``ValidationError`` with the offending location on malformed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .general import GeneralRealization
from .netlist import Device, DeviceSchedule
from .passive import PassiveRealization
from .statespace import Model, VerifyReport

SCHEMA_VERSION = 1


def encode_matrix(x: np.ndarray) -> list:
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    return np.stack([x.real, x.imag], -1).tolist()


def decode_matrix(data, where: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: not a numeric matrix") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(
            f"{where}: expected a matrix of [re, im] pairs, got shape "
            f"{arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return data[key]


def _check_version(data: dict, where: str) -> None:
    version = _require(data, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"{where}: unsupported schema_version {version!r}")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def dump_json(path: str, payload: dict) -> None:
    """Write ``payload`` as one line of compact JSON.

    ``json.dumps`` without indentation runs the C encoder; ``json.dump`` to a
    file, or any indentation, takes the pure-Python one.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))
        fh.write("\n")


def model_to_dict(model: Model, detunings=None,
                  interconnect_kappas=None) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "type": model.kind,
        "modes": model.n_modes,
        "ports": model.n_ports,
        "M": encode_matrix(model.m_mat),
        "N": encode_matrix(model.n_mat),
        "S": encode_matrix(model.s_mat),
    }
    if detunings is not None:
        out["detunings"] = [float(v) for v in detunings]
    if interconnect_kappas is not None:
        out["interconnect_kappas"] = [float(v) for v in interconnect_kappas]
    return out


def model_from_dict(data: dict, where: str = "model") -> tuple:
    """Returns (Model, options dict with detunings/interconnect kappas)."""
    _check_version(data, where)
    kind = _require(data, "type", where)
    if kind not in ("passive", "general"):
        raise ValidationError(f"{where}.type: unknown model type {kind!r}")
    m_mat = decode_matrix(_require(data, "M", where), f"{where}.M")
    n_mat = decode_matrix(_require(data, "N", where), f"{where}.N")
    if "S" in data:
        s_mat = decode_matrix(data["S"], f"{where}.S")
    else:
        s_mat = np.eye(n_mat.shape[0], dtype=complex)
    try:
        model = Model(kind=kind, m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
    except Exception as exc:
        raise ValidationError(f"{where}: {exc}") from None
    opts = {}
    if "detunings" in data:
        opts["detunings"] = np.asarray(data["detunings"], dtype=float)
    if "interconnect_kappas" in data:
        opts["interconnect_kappa"] = np.asarray(
            data["interconnect_kappas"], dtype=float)
    return model, opts


def load_model(path: str) -> tuple:
    return model_from_dict(load_json(path), where=path)


def schedule_to_dict(schedule: DeviceSchedule) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bogoliubov" if schedule.doubled else "unitary",
        "channels": schedule.channels,
        "devices": [
            {"kind": d.kind, "channels": list(d.channels),
             "params": {k: float(v) for k, v in d.params.items()}}
            for d in schedule.devices
        ],
    }


def schedule_from_dict(data: dict, where: str = "schedule") -> DeviceSchedule:
    _check_version(data, where)
    kind = _require(data, "kind", where)
    if kind not in ("unitary", "bogoliubov"):
        raise ValidationError(f"{where}.kind: unknown kind {kind!r}")
    schedule = DeviceSchedule(
        channels=int(_require(data, "channels", where)),
        doubled=kind == "bogoliubov")
    for i, dd in enumerate(_require(data, "devices", where)):
        schedule.devices.append(Device(
            kind=_require(dd, "kind", f"{where}.devices[{i}]"),
            channels=tuple(_require(dd, "channels", f"{where}.devices[{i}]")),
            params=dict(dd.get("params", {}))))
    return schedule


def _network_to_dict(matrix: np.ndarray, schedule: DeviceSchedule | None) -> dict:
    out = {"matrix": encode_matrix(matrix)}
    if schedule is not None:
        out["schedule"] = schedule_to_dict(schedule)
    return out


def realization_to_dict(real, pre_schedule=None, post_schedule=None,
                        feedback_schedule=None) -> dict:
    """Serialize a PassiveRealization or GeneralRealization as a netlist."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "type": real.kind,
        "pre_network": _network_to_dict(real.pre, pre_schedule),
        "post_network": _network_to_dict(real.post, post_schedule),
        "feedback": dict(
            _network_to_dict(real.r_feedback, feedback_schedule),
            X=encode_matrix(real.x)),
        "reduced": {
            "N_hat": encode_matrix(real.nhat),
            "M_hat": encode_matrix(real.mhat),
            "M_conc": encode_matrix(real.m_conc),
            "detunings": [float(v) for v in real.detunings],
            "interconnect_kappas": [float(v) for v in real.kappas_tilde],
        },
    }
    if isinstance(real, PassiveRealization):
        out["classification"] = {
            "rank": real.rank,
            "singular_values": [float(v) for v in real.sigma],
        }
    elif isinstance(real, GeneralRealization):
        fact = real.factorization
        out["classification"] = {
            "rank": fact.r,
            "residual": fact.residual,
            "blocks": [
                {"kind": b.kind, "size": b.size,
                 "value": [float(np.real(b.value)), float(np.imag(b.value))]}
                for b in fact.blocks
            ],
        }
        out["cavities"] = [
            {"mode": c.mode, "role": c.role, "detuning": float(c.detuning),
             "ports": [
                 {"port": p.port, "kappa": p.kappa, "g": p.g,
                  "phi": p.phi, "theta": p.theta} for p in c.ports]}
            for c in real.cavities
        ]
        out["devices"] = [
            {"kind": d.kind, "channels": list(d.channels),
             "matrix": encode_matrix(d.matrix)} for d in real.devices
        ]
    return out


@dataclass
class LoadedRealization:
    """The verification-relevant part of a serialized netlist."""

    kind: str
    nhat: np.ndarray
    m_conc: np.ndarray
    ntilde: np.ndarray
    r_feedback: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    data: dict


def realization_from_dict(data: dict,
                          where: str = "netlist") -> LoadedRealization:
    _check_version(data, where)
    kind = _require(data, "type", where)
    if kind not in ("passive", "general"):
        raise ValidationError(f"{where}.type: unknown type {kind!r}")
    reduced = _require(data, "reduced", where)
    nhat = decode_matrix(_require(reduced, "N_hat", f"{where}.reduced"),
                         f"{where}.reduced.N_hat")
    m_conc = decode_matrix(_require(reduced, "M_conc", f"{where}.reduced"),
                           f"{where}.reduced.M_conc")
    kappas = np.asarray(
        _require(reduced, "interconnect_kappas", f"{where}.reduced"),
        dtype=float)
    roots = np.sqrt(kappas)
    if kind == "general":
        roots = np.concatenate([roots, roots])
    if roots.shape[0] != m_conc.shape[0]:
        raise ValidationError(
            f"{where}.reduced: interconnect rate count does not match the "
            "Hamiltonian dimension")
    ntilde = np.diag(roots).astype(complex)
    fb = _require(data, "feedback", where)
    r_feedback = decode_matrix(_require(fb, "matrix", f"{where}.feedback"),
                               f"{where}.feedback.matrix")
    pre = decode_matrix(
        _require(_require(data, "pre_network", where), "matrix",
                 f"{where}.pre_network"), f"{where}.pre_network.matrix")
    post = decode_matrix(
        _require(_require(data, "post_network", where), "matrix",
                 f"{where}.post_network"), f"{where}.post_network.matrix")
    return LoadedRealization(kind=kind, nhat=nhat, m_conc=m_conc,
                             ntilde=ntilde, r_feedback=r_feedback,
                             pre=pre, post=post, data=data)


def load_realization(path: str) -> LoadedRealization:
    return realization_from_dict(load_json(path), where=path)


def report_to_dict(report: VerifyReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "num_freqs": report.num_freqs,
        "seed": report.seed,
        "tolerance": report.tol,
        "points": [[float(s.real), float(s.imag)] for s in report.points],
        "errors": [float(e) for e in report.errors],
        "max_error": report.max_error,
        "passed": bool(report.passed),
    }

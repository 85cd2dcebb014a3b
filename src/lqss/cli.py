"""Command line interface.

Subcommands::

    lqss synth      --input model.json --output netlist.json
                    [--detuning-file d.json] [--interconnect-kappa K]
                    [--tol 1e-9]
    lqss verify     --model model.json --netlist netlist.json
                    [--freqs 20] [--seed 42] [--tol 1e-8] [--output r.json]
    lqss decompose  --input matrix.json [--kind unitary|bogoliubov]
                    --output schedule.json

A ``--detuning-file`` (a list, or an object with a ``detunings`` list) and
``--interconnect-kappa`` override the ``detunings`` and
``interconnect_kappas`` of the model file; without them the model file's
values are used.  Without ``--kind``, ``decompose`` reads the matrix as
Bogoliubov when it passes that check and as unitary otherwise.

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 unsupported structure, 4 numerical failure.  Set the LQSS_LOG environment
variable (DEBUG/INFO/WARNING) to control log verbosity.

``main`` runs the OpenBLAS copies that numpy and scipy load with one thread
each, unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set, in which case
that count is kept.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys

import numpy as np
import orjson

from . import modelio
from .errors import (
    LqssError,
    NumericalError,
    ParameterError,
    StructureError,
    UnsupportedStructureError,
    ValidationError,
)
from .general import synthesize
from .lapack import OPENBLAS_THREAD_SETTERS
from .netlist import schedule_static
from .statespace import verify_realization

log = logging.getLogger("lqss")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERICAL = 4


def _setup_logging() -> None:
    level = os.environ.get("LQSS_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")


def _pin_blas_threads() -> None:
    """One thread in each OpenBLAS pool, unless the environment sets a count.

    The CLI's work is many small BLAS and LAPACK calls, which threads slow
    down.  numpy and scipy each load their own OpenBLAS with its own pool,
    and ``lapack`` finds both setters once, at import.  Library callers
    keep their own settings: only ``main`` calls this.
    """
    if any(var in os.environ
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    for setter in OPENBLAS_THREAD_SETTERS:
        setter(1)


def _emit_error(exc: Exception) -> None:
    # a path from the command line may hold surrogate escapes of bytes that
    # are not UTF-8, and orjson encodes only valid UTF-8
    message = str(exc).encode("utf-8", "backslashreplace").decode()
    payload = {"error": type(exc).__name__, "message": message}
    if hasattr(exc, "eigenvalue"):
        payload["eigenvalue"] = [float(np.real(exc.eigenvalue)),
                                 float(np.imag(exc.eigenvalue))]
    sys.stderr.write(
        orjson.dumps(payload, option=orjson.OPT_APPEND_NEWLINE).decode())


def _load_detunings(path: str | None):
    if path is None:
        return None
    data = modelio.load_json(path)
    if isinstance(data, dict):
        if "detunings" not in data:
            raise ValidationError(f"{path}: missing 'detunings' field")
        data = data["detunings"]
    return data


def _check_writable(path: str | None) -> None:
    """Refuse an output path that cannot be written, before any work.

    The error is the one ``modelio.dump_json`` raises at the end; the file
    itself is neither created nor truncated here.
    """
    if path is None:
        return
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValidationError(f"{path}: cannot write ({os.strerror(code)})")


def _check_tolerance(tol: float) -> None:
    # a NaN tolerance would pass or fail every comparison
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"--tol must be a finite number >= 0, not {tol}")


def _schedule(matrix, kind, label):
    """The device schedule of one synthesized network; a network that cannot
    be scheduled is a numerical failure of synthesis, since it was built
    unitary or Bogoliubov."""
    try:
        return schedule_static(matrix, kind=kind)
    except LqssError as exc:
        raise NumericalError(
            f"no device schedule for the {label}: {exc}") from None


def cmd_synth(args) -> int:
    _check_tolerance(args.tol)
    _check_writable(args.output)
    model, opts = modelio.load_model(args.input)
    detunings = _load_detunings(args.detuning_file)
    if detunings is None:
        detunings = opts.get("detunings")
    kappa = args.interconnect_kappa
    if kappa is None:
        kappa = opts.get("interconnect_kappa")
    log.info("synthesizing %s model with %d modes / %d ports",
             model.kind, model.n_modes, model.n_ports)
    real = synthesize(model, detunings, kappa)
    resid = real.factorization_residual
    if not resid <= args.tol:  # NaN too
        raise NumericalError(
            f"coupling factorization residual {resid:.3e} exceeds the "
            f"requested tolerance {args.tol:.1e}")
    network = "unitary" if model.kind == "passive" else "bogoliubov"
    pre = _schedule(real.pre, network, "pre network")
    post = _schedule(real.post, network, "post network")
    feedback = _schedule(real.r_feedback, network, "feedback network")
    # the payload is built, written and freed with the collector paused
    with modelio.paused_gc():
        modelio.dump_json(args.output, modelio.realization_to_dict(
            real, pre, post, feedback))
    print(f"synthesized {model.kind} realization -> {args.output} "
          f"(factorization residual {resid:.3e})")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.freqs < 1:
        raise ParameterError(
            f"--freqs must be at least 1, not {args.freqs}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be at least 0, not {args.seed}")
    _check_tolerance(args.tol)
    _check_writable(args.output)
    model, _ = modelio.load_model(args.model)
    real = modelio.load_realization(args.netlist)
    report = verify_realization(model, real, num_freqs=args.freqs,
                                seed=args.seed, tol=args.tol)
    if args.output:
        modelio.dump_json(args.output, modelio.report_to_dict(report))
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_decompose(args) -> int:
    _check_writable(args.output)
    data = modelio.load_json(args.input)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValidationError(f"{args.input}: expected an object with a "
                              "'matrix' field")
    matrix = modelio.decode_matrix(data["matrix"], f"{args.input}.matrix")
    schedule = schedule_static(matrix, kind=args.kind)
    payload = modelio.schedule_to_dict(schedule)
    payload["residual"] = schedule.residual
    modelio.dump_json(args.output, payload)
    print(f"decomposed {schedule.channels}-channel "
          f"{'bogoliubov' if schedule.doubled else 'unitary'} network into "
          f"{len(schedule.kinds)} devices "
          f"(residual {schedule.residual:.3e})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqss",
        description="Synthesis and verification of linear quantum "
                    "stochastic system realizations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a realization")
    p_synth.add_argument("--input", required=True)
    p_synth.add_argument("--output", required=True)
    p_synth.add_argument("--detuning-file")
    p_synth.add_argument("--interconnect-kappa", type=float)
    p_synth.add_argument("--tol", type=float, default=1e-9)
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="verify a realization against "
                                             "its model")
    p_verify.add_argument("--model", required=True)
    p_verify.add_argument("--netlist", required=True)
    p_verify.add_argument("--freqs", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="decompose a static network "
                                             "into devices")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--kind", choices=["unitary", "bogoliubov"])
    p_dec.add_argument("--output", required=True)
    p_dec.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    _pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except UnsupportedStructureError as exc:
        _emit_error(exc)
        return EXIT_UNSUPPORTED
    except StructureError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # a LAPACK routine behind numpy that fails to converge
        _emit_error(exc)
        return EXIT_NUMERICAL
    except LqssError as exc:  # ParameterError and anything else
        _emit_error(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of `lqss synth` and `lqss verify`, end to end and per layer.

    python3 perfbench/run.py --workload cli-passive --seed 1 --seconds 32 \
        --trace 0

runs one workload in this process (``lqss.cli.main`` or the library API,
never a subprocess per operation) in whole rounds, at least three and more
while the next one fits in ``--seconds``, checks every output with ``checks.py`` and prints one JSON object as
the last line of standard output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``spans.py`` with the tracing overhead.  Details, the
recorded environment and the spans go to ``perfbench/out/``.  See README.md.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads: with the default thread
# count the median of the same call ranged over 30% between processes, with
# one thread over 5%.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_ROUNDS = 3
#: fresh interpreters timed for setup_s; the median is reported
SETUP_SPAWNS = 5
MIB = 2.0 ** 20


@dataclass(frozen=True)
class Case:
    """One model of a workload's ladder.

    ``seed`` fixes the generator seed; None draws the model from --seed.
    ``known_failure`` marks a model whose verification fails today (see
    README.md); its failed operations are counted but keep ``correct`` true.
    """

    kind: str
    n: int
    m: int
    seed: int | None = None
    known_failure: bool = False


@dataclass(frozen=True)
class Workload:
    route: str          # "cli" (lqss.cli.main) or "api" (library calls)
    verify_reps: int    # verifications of each realization per round
    cases: tuple


# General models are a fixed panel: random general models fail verify on
# some seeds at every size tried, so drawing them from --seed would make the
# failed share depend on the seed.
WORKLOADS = {
    "cli-passive": Workload("cli", 3, (
        Case("passive", 24, 24), Case("passive", 48, 48),
        Case("passive", 96, 96), Case("passive", 64, 32))),
    "cli-general": Workload("cli", 3, (
        Case("general", 16, 16, seed=0), Case("general", 32, 32, seed=0),
        Case("general", 48, 32, seed=0),
        Case("general", 48, 48, seed=3, known_failure=True))),
    "api-large": Workload("api", 1, (
        Case("passive", 256, 256), Case("passive", 256, 256),
        Case("general", 64, 64, seed=0),
        Case("general", 64, 64, seed=1, known_failure=True),
        Case("general", 64, 64, seed=2, known_failure=True),
        Case("general", 64, 64, seed=3, known_failure=True),
        Case("general", 64, 64, seed=4))),
}

END_TO_END = {
    "setup_s": "s", "synth_s": "s", "verify_s": "s",
    "verify_digits_min": "digits", "sched_digits_min": "digits",
    "netlist_mb": "MiB", "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if not (SRC / "lqss" / "__init__.py").is_file():
    sys.exit(f"{SRC / 'lqss'} not found: run from a checkout of the lqss "
             "repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from lqss import cli, general, passive, statespace  # noqa: E402

import checks  # noqa: E402
from spans import LAYER_UNITS, Tracer  # noqa: E402


def random_passive_model(n, m, rng):
    """Hermitian M, dense complex N, Haar-like unitary S."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m_mat = (a + a.conj().T) / 2
    n_mat = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return m_mat, n_mat, q * (np.diag(r) / np.abs(np.diag(r)))


def random_general_model(n, m, rng, scale=0.6):
    """Doubled-up Hermitian M, doubled-up N (active part scaled), S = I."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m1, m2 = (a + a.conj().T) / 2, (b + b.T) / 2
    m_mat = np.block([[m1, m2], [m2.conj(), m1.conj()]])
    n1 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    n2 = scale * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    n_mat = np.block([[n1, n2], [n2.conj(), n1.conj()]])
    return m_mat, n_mat, np.eye(2 * m, dtype=complex)


def encode(x: np.ndarray) -> list:
    return np.stack([x.real, x.imag], axis=-1).tolist()


class Tally:
    """Operations attempted and failed, and failures outside known ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []

    def record(self, case: Case, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not case.known_failure:
                self.unexpected.append(f"{label}: {'; '.join(problems)}")


class Runner:
    """Runs the rounds of one workload and keeps their measurements."""

    def __init__(self, name: str, seed: int, work: Path):
        self.spec = WORKLOADS[name]
        self.ops = Tally()
        self.busy_s = 0.0  # time inside timed program calls, this round
        self.models = []
        for index, case in enumerate(self.spec.cases):
            rng = np.random.default_rng(
                case.seed if case.seed is not None else [seed, index])
            make = (random_passive_model if case.kind == "passive"
                    else random_general_model)
            m_mat, n_mat, s_mat = make(case.n, case.m, rng)
            entry = {
                "case": case, "label": f"{case.kind} n={case.n} m={case.m}"
                + (f" seed={case.seed}" if case.seed is not None else ""),
                "mats": {"M": m_mat, "N": n_mat, "S": s_mat},
                "points": checks.frequency_points(
                    m_mat, np.random.default_rng([seed, index, 1])),
                "synth": [], "verify": [], "max_error": [],
                "sched_resid": [], "network_resid": [], "tf_error": [],
                "netlist_bytes": 0, "output_bytes": 0,
                "checked": None, "outcome": None, "checks_run": 0,
            }
            if self.spec.route == "cli":
                entry["model_path"] = work / f"model{index}.json"
                entry["netlist_path"] = work / f"netlist{index}.json"
                entry["report_path"] = work / f"report{index}.json"
                entry["model_path"].write_text(json.dumps({
                    "schema_version": 1, "type": case.kind,
                    "M": encode(m_mat), "N": encode(n_mat), "S": encode(s_mat),
                }))
            else:
                entry["model"] = statespace.Model(
                    kind=case.kind, m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
            self.models.append(entry)

    def round(self) -> None:
        for entry in self.models:
            if self.spec.route == "cli":
                self._cli_case(entry)
            else:
                self._api_case(entry)

    def _cli(self, argv: list) -> tuple:
        """(exit code, seconds, problems) of one in-process lqss command."""
        problems = []
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # an uncaught program error fails the operation
            code = None
            problems.append(traceback.format_exc(limit=1).strip())
        seconds = time.perf_counter() - start
        if code != 0 and code is not None:
            problems.append(f"lqss {argv[0]} exited with {code}")
        return code, seconds, problems

    def _cli_case(self, entry: dict) -> None:
        case = entry["case"]
        code, seconds, problems = self._cli(
            ["synth", "--input", str(entry["model_path"]),
             "--output", str(entry["netlist_path"])])
        self._timed(entry, "synth", seconds)
        outcome = None
        if code == 0:
            data = entry["netlist_path"].read_bytes()
            entry["netlist_bytes"] = len(data)
            outcome = self._checked(entry, hashlib.sha256(data).digest(),
                                    lambda: self._check_netlist(entry, data))
            problems += outcome.synth_problems
        self.ops.record(case, f"synth {entry['label']}", problems)
        for _ in range(self.spec.verify_reps):
            if outcome is None:
                self.ops.record(case, f"verify {entry['label']}",
                                ["no netlist to verify"])
                continue
            code, seconds, problems = self._cli(
                ["verify", "--model", str(entry["model_path"]),
                 "--netlist", str(entry["netlist_path"]),
                 "--output", str(entry["report_path"])])
            self._timed(entry, "verify", seconds)
            if code in (0, 1):
                with open(entry["report_path"]) as fh:
                    report = json.load(fh)
                entry["max_error"].append(report["max_error"])
                if not report["passed"]:
                    problems.append("lqss verify reported FAIL (max error "
                                    f"{report['max_error']:.3e})")
            self.ops.record(case, f"verify {entry['label']}",
                            problems + outcome.verify_problems)

    def _api_case(self, entry: dict) -> None:
        case, mats = entry["case"], entry["mats"]
        synthesize = (passive.synthesize_passive if case.kind == "passive"
                      else general.synthesize_general)
        gc.collect()
        start = time.perf_counter()
        try:
            real = synthesize(mats["M"], mats["N"], mats["S"])
        except Exception as exc:  # a program error fails the operation
            real, problems = None, [f"synthesis raised {exc!r}"]
        self._timed(entry, "synth", time.perf_counter() - start)
        outcome = None
        if real is not None:
            parts = checks.realization_parts(real)
            entry["output_bytes"] = sum(a.nbytes for a in parts.values())
            key = hashlib.sha256(b"".join(
                np.ascontiguousarray(a).tobytes() for a in parts.values()))
            outcome = self._checked(
                entry, key.digest(), lambda: checks.check_realization(
                    case.kind, mats, parts, entry["points"]))
            problems = outcome.synth_problems
        self.ops.record(case, f"synth {entry['label']}", problems)
        for _ in range(self.spec.verify_reps):
            if real is None:
                self.ops.record(case, f"verify {entry['label']}",
                                ["no realization to verify"])
                continue
            problems = list(outcome.verify_problems)
            gc.collect()
            start = time.perf_counter()
            try:
                report = statespace.verify_realization(entry["model"], real)
            except Exception as exc:  # a program error fails the operation
                report = None
                problems.append(f"verification raised {exc!r}")
            self._timed(entry, "verify", time.perf_counter() - start)
            if report is not None:
                entry["max_error"].append(report.max_error)
                if not report.passed:
                    problems.append("verification reported FAIL (max error "
                                    f"{report.max_error:.3e})")
            self.ops.record(case, f"verify {entry['label']}", problems)

    def _timed(self, entry: dict, key: str, seconds: float) -> None:
        entry[key].append(seconds)
        self.busy_s += seconds

    @staticmethod
    def _check_netlist(entry: dict, data: bytes):
        netlist = json.loads(data)
        return checks.check_realization(
            entry["case"].kind, entry["mats"], checks.netlist_parts(netlist),
            entry["points"], netlist)

    @staticmethod
    def _checked(entry: dict, digest: bytes, check):
        """The outcome of ``check``, run only when the output differs from
        the one last checked: rounds repeat the same inputs, and an output
        identical to a checked one needs no second check."""
        if digest != entry["checked"]:
            entry["checked"], entry["outcome"] = digest, check()
            entry["checks_run"] += 1
        outcome = entry["outcome"]
        entry["tf_error"].append(outcome.tf_error)
        entry["network_resid"].append(outcome.network_residual)
        if outcome.schedule_residual is not None:
            entry["sched_resid"].append(outcome.schedule_residual)
        return outcome

    def end_to_end(self) -> dict:
        """Per-round metrics: per-model medians over rounds, summed."""
        def digits(values):  # 0 when nothing was measured
            if not values:
                return 0.0
            return -math.log10(max(max(values), sys.float_info.min))

        synth = sum(statistics.median(e["synth"]) for e in self.models)
        verify = sum(self.spec.verify_reps * statistics.median(e["verify"])
                     for e in self.models if e["verify"])
        if self.spec.route == "cli":
            written = sum(e["netlist_bytes"] for e in self.models)
            sched = [r for e in self.models for r in e["sched_resid"]]
        else:  # nothing written or scheduled: returned matrices, networks
            written = sum(e["output_bytes"] for e in self.models)
            sched = [r for e in self.models for r in e["network_resid"]]
        return {
            "synth_s": synth,
            "verify_s": verify,
            "verify_digits_min": digits(
                [x for e in self.models for x in e["max_error"]]),
            "sched_digits_min": digits(sched),
            "netlist_mb": written / MIB,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def details(self) -> list:
        return [{
            "model": e["label"], "known_failure": e["case"].known_failure,
            "synth_s": e["synth"], "verify_s": e["verify"],
            "max_error": e["max_error"], "tf_error": e["tf_error"],
            "network_residual": e["network_resid"],
            "schedule_residual": e["sched_resid"],
            "checks_run": e["checks_run"],
        } for e in self.models]


def measure_setup() -> float:
    """Median wall time of a cold `import lqss.cli` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lqss.cli"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setup_s = measure_setup() if not args.trace else None
        runner = Runner(args.workload, args.seed, work)
        tracer = Tracer()
        walls = []
        busy = {"untraced": [], "traced": []}
        start = time.perf_counter()
        while len(walls) < MIN_ROUNDS or (time.perf_counter() - start
                                          + max(walls) <= args.seconds):
            traced = bool(args.trace) and len(walls) % 2 == 1
            if traced:
                tracer.install()
            began = time.perf_counter()
            runner.busy_s = 0.0
            try:
                runner.round()
            finally:
                walls.append(time.perf_counter() - began)
                busy["traced" if traced else "untraced"].append(runner.busy_s)
                if traced:
                    tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = tracer.layer_metrics(len(busy["traced"]))
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(busy["traced"])
            / statistics.median(busy["untraced"]) - 1.0)
        units = LAYER_UNITS
    else:
        metrics = dict(runner.end_to_end(), setup_s=setup_s)
        units = END_TO_END
    result = {
        "correct": not runner.ops.unexpected,
        "attempted": runner.ops.attempted,
        "failed": runner.ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  round_walls_s=walls, program_s_per_round=busy,
                  unexpected=runner.ops.unexpected,
                  environment=environment(), models=runner.details())
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p}
             for n, s, e, p in tracer.spans]))
    return result


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests for the command line interface and JSON round trips."""

import gc
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

from helpers import (
    counted_builds,
    failing_gees,
    model_to_dict,
    planted_coupling,
    random_bogoliubov,
    random_general_model,
    random_passive_model,
    random_unitary,
    read_json,
    schedule_residual,
    write_json,
)
from lqss import (
    cli,
    krein,
    modelio,
    synthesize,
    synthesize_general,
    synthesize_passive,
)
from lqss.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    main,
)
from lqss.errors import NumericalError, ParameterError, ValidationError
from lqss.krein import phi_to_doubled
from lqss.netlist import DeviceSchedule, schedule_static
from lqss.statespace import Model, verify_realization
from test_passive import M3, N3
from test_netlist import strongly_squeezing
from test_spectral import JORDAN3_WITNESS, nonneutral_coupling

SRC = Path(__file__).resolve().parents[1] / "src"


def same_json(a, b):
    """Equal JSON values of equal types, floats compared bit for bit."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_json(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same_json(x, y) for x, y in zip(a, b)))
    if isinstance(a, float):
        return type(b) is float and struct.pack("<d", a) == struct.pack(
            "<d", b)
    return type(a) is type(b) and a == b


def overflowing_model(kind):
    """A model file, as a dict, whose coupling has finite entries and a
    Frobenius norm that overflows: ``random_general_model(3, 2)``'s N
    times 1e160, or the passive N3 times 1e200."""
    if kind == "general":
        m_mat, n_mat = random_general_model(3, 2, np.random.default_rng(0))
        n_mat, s_mat = n_mat * 1e160, np.eye(4)
    else:
        m_mat, n_mat, s_mat = M3, N3 * 1e200, np.eye(3)
    return {"schema_version": modelio.SCHEMA_VERSION, "type": kind,
            "M": modelio.encode_matrix(m_mat),
            "N": modelio.encode_matrix(n_mat),
            "S": modelio.encode_matrix(s_mat)}


def write_model(path, model, **extra):
    payload = model_to_dict(model)
    payload.update(extra)
    modelio.dump_json(str(path), payload)
    return str(path)


@pytest.fixture
def passive_model_file(tmp_path):
    model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
    return write_model(tmp_path / "model.json", model)


@pytest.fixture
def general_model_file(tmp_path):
    rng = np.random.default_rng(91)
    n1 = rng.normal(size=(2, 2))
    n2 = 0.4 * rng.normal(size=(2, 2))
    n_mat = np.block([[n1, n2], [n2, n1]]).astype(complex)
    a = rng.normal(size=(2, 2))
    m1 = (a + a.T) / 2
    b = rng.normal(size=(2, 2))
    m2 = (b + b.T) / 2
    m_mat = np.block([[m1, m2], [m2, m1]]).astype(complex)
    model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                  s_mat=np.eye(4))
    return write_model(tmp_path / "gmodel.json", model)


class TestMatrixCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(92)
        x = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        back = modelio.decode_matrix(modelio.encode_matrix(x), "test")
        assert np.allclose(back, x, atol=1e-15)

    def test_bad_shape_reports_location(self):
        with pytest.raises(ValidationError, match="model.M"):
            modelio.decode_matrix([[1.0, 2.0]], "model.M")

    def test_non_numeric(self):
        with pytest.raises(ValidationError, match="not a numeric"):
            modelio.decode_matrix([[["a", "b"]]], "x")

    @staticmethod
    def asarray_decode(data, where):
        """``decode_matrix`` as it read every input with ``np.asarray``."""
        try:
            arr = np.asarray(data, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}: not a numeric matrix") from None
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValidationError(
                f"{where}: expected a matrix of [re, im] pairs, got shape "
                f"{arr.shape}")
        return arr[..., 0] + 1j * arr[..., 1]

    @staticmethod
    def outcome(decode, data):
        try:
            arr = decode(data, "m")
        except Exception as exc:
            return type(exc), str(exc)
        return arr.shape, arr.dtype, arr.tobytes()

    @pytest.mark.parametrize("data", [
        [[[1, 2]]], [[[1, 2.5], [-3, 0.0]]],
        [[[-0.0, 5e-324]], [[1e-300, -1.7976931348623157e308]]],
        [[[["1", "2"]]]],
        np.stack([np.eye(3), -np.eye(3)], -1).tolist(),
        [[1.0, 2.0]], [[["a", "b"]]], [[[1, 2, 3]]], [[[1, 2], [3]]],
        [[[1, 2, 3], [4]]], [[[1, 2]], [[3, 4], [5, 6]]], [[5, [1, 2]]],
        [["12"]], [["12", "34"]], [[[1], [2]]], [[{"a": 1, "b": 2}]],
        [[[1, [2]]]], [[[[1, 2]]]], [], [[]], 5, "ab", None, {"a": 1},
        [[(1, 2)]], ((([1, 2],),),),
    ])
    def test_same_arrays_and_errors_as_asarray(self, data):
        assert (self.outcome(modelio.decode_matrix, data)
                == self.outcome(self.asarray_decode, data))

    @pytest.mark.parametrize("data", [
        [[["1", " 2.5 "]]], [[[None, True]]],
        [[[1e308, -0.0], [float("nan"), "-1e-300"]]],
    ], ids=["strings", "null_and_bool", "one_string"])
    def test_non_numbers_are_refused(self, data):
        # np.asarray reads "1.5" and true as numbers and null as NaN
        with pytest.raises(ValidationError, match=r"^m: not a numeric "):
            modelio.decode_matrix(data, "m")


class TestModelCodec:
    def test_roundtrip(self):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        data = model_to_dict(model, detunings=[1.0, 2.0, 3.0])
        back, opts = modelio.model_from_dict(data)
        assert back.kind == "passive"
        assert np.allclose(back.m_mat, M3)
        assert np.allclose(opts["detunings"], [1.0, 2.0, 3.0])

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="missing required field"):
            modelio.model_from_dict({"schema_version": 1, "type": "passive"})

    def test_bad_version(self):
        with pytest.raises(ValidationError, match="schema_version"):
            modelio.model_from_dict({"schema_version": 99})

    def test_unknown_type(self):
        with pytest.raises(ValidationError, match="unknown model type"):
            modelio.model_from_dict(
                {"schema_version": 1, "type": "quantum"})


class TestSynth:
    def test_passive_roundtrip(self, passive_model_file, tmp_path):
        out = str(tmp_path / "net.json")
        assert main(["synth", "--input", passive_model_file,
                     "--output", out]) == EXIT_OK
        data = read_json(out)
        assert data["type"] == "passive"
        assert data["classification"]["rank"] == 2
        assert data["factorization_residual"] < 1e-10
        # the stored netlist must verify against the model it came from
        assert main(["verify", "--model", passive_model_file,
                     "--netlist", out]) == EXIT_OK

    def test_general_roundtrip(self, general_model_file, tmp_path):
        out = str(tmp_path / "gnet.json")
        assert main(["synth", "--input", general_model_file,
                     "--output", out]) == EXIT_OK
        data = read_json(out)
        assert data["type"] == "general"
        assert data["cavities"]
        assert main(["verify", "--model", general_model_file,
                     "--netlist", out]) == EXIT_OK

    def test_model_is_built_once(self, general_model_file, tmp_path,
                                 monkeypatch):
        # the model file is checked as it loads, and synthesis reuses it
        built = counted_builds(monkeypatch)
        assert main(["synth", "--input", general_model_file,
                     "--output", str(tmp_path / "gnet.json")]) == EXIT_OK
        assert built == ["general"]

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_network_without_schedule_fails(self, kind, passive_model_file,
                                            general_model_file, tmp_path,
                                            monkeypatch, capsys):
        # a netlist holds all three schedules or is not written
        synthesized, original = [], cli.synthesize

        def synthesize(*args):
            synthesized.append(original(*args))
            return synthesized[-1]

        def schedule(matrix, kind):
            if matrix is synthesized[0].r_feedback:
                raise NumericalError("static network schedule residual too "
                                     "large")
            return schedule_static(matrix, kind=kind)

        monkeypatch.setattr(cli, "synthesize", synthesize)
        monkeypatch.setattr(cli, "schedule_static", schedule)
        path = passive_model_file if kind == "passive" else general_model_file
        out = tmp_path / "net.json"
        capsys.readouterr()
        assert main(["synth", "--input", path,
                     "--output", str(out)]) == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NumericalError"
        assert err["message"] == ("no device schedule for the feedback "
                                  "network: static network schedule residual "
                                  "too large")
        assert not out.exists()

    def test_zero_coupling_interconnect_only(self, tmp_path):
        model = Model(kind="passive", m_mat=M3,
                      n_mat=np.zeros((3, 3)), s_mat=np.eye(3))
        path = write_model(tmp_path / "zero.json", model)
        out = str(tmp_path / "zero_net.json")
        assert main(["synth", "--input", path, "--output", out]) == EXIT_OK
        data = read_json(out)
        assert np.linalg.norm(
            modelio.decode_matrix(data["reduced"]["N_hat"], "N_hat")) == 0.0
        assert data["classification"]["rank"] == 0
        assert main(["verify", "--model", path, "--netlist", out]) == EXIT_OK

    def test_passive_schedules_are_unitary(self, tmp_path):
        # V and V^dag S of this model are real 2 x 2 unitaries, which are
        # also doubled-up Bogoliubov matrices on one channel; a passive
        # realization still gets beamsplitter schedules on two channels
        model = Model(kind="passive", m_mat=np.array([[1.0, 0.3],
                                                      [0.3, -0.5]]),
                      n_mat=np.diag([2.0, 1.0]), s_mat=np.eye(2))
        path = write_model(tmp_path / "real.json", model)
        out = str(tmp_path / "real_net.json")
        assert main(["synth", "--input", path, "--output", out]) == EXIT_OK
        data = read_json(out)
        for network in ("pre_network", "post_network"):
            schedule = data[network]["schedule"]
            assert (schedule["kind"], schedule["channels"]) == ("unitary", 2)
        assert main(["verify", "--model", path, "--netlist", out]) == EXIT_OK

    def test_detunings_from_model_file(self, tmp_path):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        path = write_model(tmp_path / "det.json", model,
                           detunings=[0.5, -0.5, 1.0])
        out = str(tmp_path / "det_net.json")
        assert main(["synth", "--input", path, "--output", out]) == EXIT_OK
        data = read_json(out)
        assert data["reduced"]["detunings"] == [0.5, -0.5, 1.0]
        assert main(["verify", "--model", path, "--netlist", out]) == EXIT_OK

    @pytest.mark.parametrize("as_object", [False, True])
    def test_detuning_file(self, as_object, tmp_path):
        # the file's detunings override those of the model file
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        path = write_model(tmp_path / "det.json", model,
                           detunings=[9.0, 9.0, 9.0])
        detunings = [0.25, -1.0, 2.0]
        dpath = str(tmp_path / "d.json")
        modelio.dump_json(dpath, {"detunings": detunings} if as_object
                          else detunings)
        out = str(tmp_path / "det_net.json")
        assert main(["synth", "--input", path, "--output", out,
                     "--detuning-file", dpath]) == EXIT_OK
        data = read_json(out)
        assert data["reduced"]["detunings"] == detunings
        assert main(["verify", "--model", path, "--netlist", out]) == EXIT_OK

    @pytest.mark.parametrize("in_file", ["model", "detuning file"])
    @pytest.mark.parametrize("detunings", [["a", 1, 2], ["1", "2", "3"],
                                           [True, False, True],
                                           [1.0, None, 2.0],
                                           [[1.0], [2.0], [3.0]], [1.0, 2.0],
                                           1.0])
    def test_malformed_detunings(self, detunings, in_file, tmp_path, capsys):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        argv = ["synth", "--output", str(tmp_path / "net.json")]
        if in_file == "model":
            path = write_model(tmp_path / "bad_det.json", model,
                               detunings=detunings)
        else:
            path = write_model(tmp_path / "model.json", model)
            dpath = str(tmp_path / "d.json")
            modelio.dump_json(dpath, detunings)
            argv += ["--detuning-file", dpath]
        assert main(argv + ["--input", path]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "expected 3 detunings" in err["message"]

    @pytest.mark.parametrize("flag, stored", [
        (None, [2.0, 2.0, 2.0]), ("5", [5.0, 5.0, 5.0])])
    def test_interconnect_kappa_flag_overrides_model_file(self, flag, stored,
                                                          tmp_path):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        path = write_model(tmp_path / "rates.json", model,
                           interconnect_kappas=[2.0, 2.0, 2.0])
        out = str(tmp_path / "rates_net.json")
        argv = ["synth", "--input", path, "--output", out]
        if flag is not None:
            argv += ["--interconnect-kappa", flag]
        assert main(argv) == EXIT_OK
        data = read_json(out)
        assert data["reduced"]["interconnect_kappas"] == stored

    @pytest.mark.parametrize("kappas, stored", [
        (2.0, [2.0, 2.0, 2.0]), ([0.5, 1.0, 2.0], [0.5, 1.0, 2.0])])
    def test_interconnect_kappas_from_model_file(self, kappas, stored,
                                                 tmp_path):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        path = write_model(tmp_path / "rates.json", model,
                           interconnect_kappas=kappas)
        out = str(tmp_path / "rates_net.json")
        assert main(["synth", "--input", path, "--output", out]) == EXIT_OK
        data = read_json(out)
        assert data["reduced"]["interconnect_kappas"] == stored
        assert main(["verify", "--model", path, "--netlist", out]) == EXIT_OK

    @pytest.mark.parametrize("kappas", [[[1.0, 2.0], [3.0, 4.0]],
                                        [1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
                                        ["a", 1.0, 1.0], {"0": 1.0},
                                        [1.0, -1.0, 1.0], ["2", "2", "2"],
                                        True, [1.0, [1.0], 1.0]])
    def test_malformed_interconnect_kappas_in_model_file(self, kappas,
                                                         tmp_path, capsys):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        path = write_model(tmp_path / "bad_rates.json", model,
                           interconnect_kappas=kappas)
        code = main(["synth", "--input", path,
                     "--output", str(tmp_path / "net.json")])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "positive interconnect rate or 3, one" in err["message"]

    @pytest.mark.parametrize("flag", ["inf", "nan"])
    def test_non_finite_interconnect_kappa_flag(self, flag, tmp_path,
                                                capsys):
        # JSON has no inf: a netlist would store null, which verify refuses
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        path = write_model(tmp_path / "model.json", model)
        out = tmp_path / "net.json"
        code = main(["synth", "--input", path, "--output", str(out),
                     "--interconnect-kappa", flag])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "all finite" in err["message"]
        assert not out.exists()

    def test_missing_input_file(self, tmp_path):
        assert main(["synth", "--input", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "o.json")]) == EXIT_VALIDATION

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["synth", "--input", str(path),
                     "--output", str(tmp_path / "o.json")]) == EXIT_VALIDATION

    def test_unattainable_tolerance(self, passive_model_file, tmp_path):
        code = main(["synth", "--input", passive_model_file,
                     "--output", str(tmp_path / "o.json"), "--tol", "0"])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("kind", ["general", "passive"])
    def test_overflowing_coupling(self, kind, tmp_path, capsys):
        # ||N||_F overflows, and every structure check scales its tolerance
        # by it: the model check refuses N first, naming it, and no netlist
        # is written
        path = tmp_path / "big.json"
        write_json(path, overflowing_model(kind))
        out = tmp_path / "o.json"
        capsys.readouterr()
        code = main(["synth", "--input", str(path), "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError",
            "message": f"{path}: coupling matrix N is too large: its "
                       "Frobenius norm overflows"}
        assert not out.exists()

    def test_overflowing_coupling_warns_nothing(self, tmp_path):
        # numpy's warnings are errors in this run, so a product or norm
        # that overflows ahead of the refusal would end it with exit 1
        path = tmp_path / "big.json"
        write_json(path, overflowing_model("general"))
        out = tmp_path / "o.json"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "lqss.cli",
             "synth", "--input", str(path), "--output", str(out)],
            env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_VALIDATION, run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] == "ValidationError"
        assert not out.exists()

    def test_jordan3_unsupported(self, tmp_path):
        n_mat = phi_to_doubled(JORDAN3_WITNESS)
        model = Model(kind="general", m_mat=np.zeros((6, 6)),
                      n_mat=n_mat, s_mat=np.eye(6))
        path = write_model(tmp_path / "j3.json", model)
        code = main(["synth", "--input", path,
                     "--output", str(tmp_path / "o.json")])
        assert code == EXIT_UNSUPPORTED

    def test_nonneutral_degenerate_unsupported(self, tmp_path, capsys):
        n_mat = nonneutral_coupling()
        model = Model(kind="general", m_mat=np.zeros((2, 2)),
                      n_mat=n_mat, s_mat=np.eye(4))
        path = write_model(tmp_path / "deg.json", model)
        code = main(["synth", "--input", path,
                     "--output", str(tmp_path / "o.json")])
        assert code == EXIT_UNSUPPORTED
        err = json.loads(capsys.readouterr().err)
        assert "neutral" in err["message"]

    def test_zero_jordan_block_outside_kernel_unsupported(self, tmp_path,
                                                          capsys):
        # a size-2 Jordan block at eigenvalue zero whose eigenvector N does
        # not annihilate has a singular canonical block
        coupling, _, m, n = planted_coupling([("jordan", 0.0)],
                                             np.random.default_rng(0))
        model = Model(kind="general", m_mat=np.zeros((2 * n, 2 * n)),
                      n_mat=coupling, s_mat=np.eye(2 * m))
        path = write_model(tmp_path / "j2.json", model)
        out = tmp_path / "o.json"
        code = main(["synth", "--input", path, "--output", str(out)])
        assert code == EXIT_UNSUPPORTED
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnsupportedStructureError"
        assert ("size-2 Jordan block at eigenvalue zero with eigenvector "
                "outside Ker N") in err["message"]
        assert not out.exists()

    def test_detuning_object_without_detunings(self, passive_model_file,
                                               tmp_path, capsys):
        dpath = str(tmp_path / "d.json")
        modelio.dump_json(dpath, {"detuning": [0.0, 0.0, 0.0]})
        out = tmp_path / "o.json"
        code = main(["synth", "--input", passive_model_file, "--output",
                     str(out), "--detuning-file", dpath])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"] == f"{dpath}: missing 'detunings' field"
        assert not out.exists()


class TestArguments:
    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--tol", "nan"], "--tol"),
        (["synth", "--tol", "inf"], "--tol"),
        (["synth", "--tol=-1e-9"], "--tol"),
        (["verify", "--freqs", "0"], "--freqs"),
        (["verify", "--freqs", "-3"], "--freqs"),
        (["verify", "--tol", "nan"], "--tol"),
        (["verify", "--tol", "-1"], "--tol"),
        (["verify", "--seed", "-1"], "--seed"),
    ], ids=lambda value: "_".join(value) if isinstance(value, list)
        else value)
    def test_bad_value_is_a_validation_exit(self, argv, flag, tmp_path,
                                            passive_model_file, capsys):
        net = str(tmp_path / "net.json")
        assert main(["synth", "--input", passive_model_file,
                     "--output", net]) == EXIT_OK
        capsys.readouterr()
        files = (["--input", passive_model_file, "--output",
                  str(tmp_path / "o.json")] if argv[0] == "synth" else
                 ["--model", passive_model_file, "--netlist", net])
        assert main(argv[:1] + files + argv[1:]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert flag in err["message"]

    def test_verify_needs_a_frequency(self):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        real = synthesize_passive(M3, N3, np.eye(3))
        with pytest.raises(ParameterError, match="num_freqs"):
            verify_realization(model, real, num_freqs=0)

    def test_verify_needs_a_nonnegative_seed(self):
        model = Model(kind="passive", m_mat=M3, n_mat=N3)
        real = synthesize_passive(M3, N3)
        with pytest.raises(ParameterError, match="seed must be at least 0"):
            verify_realization(model, real, seed=-1)


class TestPausedGc:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_state_is_restored(self, gc_state, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"a": [1, 2]}')
        bad.write_text("{not json")
        assert modelio.load_json(str(good)) == {"a": [1, 2]}
        assert gc.isenabled() is gc_state
        with pytest.raises(ValidationError, match="invalid JSON"):
            modelio.load_json(str(bad))
        assert gc.isenabled() is gc_state
        with pytest.raises(ValidationError, match="cannot read"):
            modelio.load_model(str(tmp_path / "missing.json"))
        assert gc.isenabled() is gc_state
        with pytest.raises(RuntimeError):
            with modelio.paused_gc():
                assert not gc.isenabled()
                raise RuntimeError
        assert gc.isenabled() is gc_state


class TestVerify:
    def test_perturbed_netlist_fails(self, passive_model_file, tmp_path):
        out = str(tmp_path / "net.json")
        main(["synth", "--input", passive_model_file, "--output", out])
        data = read_json(out)
        r = modelio.decode_matrix(data["feedback"]["matrix"], "r")
        data["feedback"]["matrix"] = modelio.encode_matrix(
            r * np.exp(0.03j))
        write_json(out, data)
        assert main(["verify", "--model", passive_model_file,
                     "--netlist", out]) == EXIT_VERIFY_FAILED

    def test_report_written(self, passive_model_file, tmp_path):
        out = str(tmp_path / "net.json")
        rep = str(tmp_path / "report.json")
        main(["synth", "--input", passive_model_file, "--output", out])
        assert main(["verify", "--model", passive_model_file,
                     "--netlist", out, "--freqs", "1",
                     "--output", rep]) == EXIT_OK
        report = read_json(rep)
        assert report["passed"] is True
        assert len(report["errors"]) == 2  # one frequency, two contours
        worst = int(np.argmax(report["errors"]))
        assert report["worst_point"] == report["points"][worst]
        assert report["max_error"] == report["errors"][worst]

    def test_netlist_of_another_size(self, tmp_path, capsys):
        rng = np.random.default_rng(96)
        paths = {}
        for n in (4, 6):
            m_mat, n_mat, s_mat = random_passive_model(n, n, rng)
            model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat,
                          s_mat=s_mat)
            paths[n] = write_model(tmp_path / f"model{n}.json", model)
            assert main(["synth", "--input", paths[n], "--output",
                         str(tmp_path / f"net{n}.json")]) == EXIT_OK
        capsys.readouterr()
        code = main(["verify", "--model", paths[4],
                     "--netlist", str(tmp_path / "net6.json")])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "6x6" in err["message"] and "4x4" in err["message"]

    @pytest.mark.parametrize("kappas", [1.0, [[1.0, 1.0, 1.0]], ["a"],
                                        {"0": 1.0}, [1.0, -1.0, 1.0]])
    def test_malformed_interconnect_kappas(self, kappas, passive_model_file,
                                            tmp_path, capsys):
        out = str(tmp_path / "net.json")
        main(["synth", "--input", passive_model_file, "--output", out])
        data = read_json(out)
        data["reduced"]["interconnect_kappas"] = kappas
        write_json(out, data)
        capsys.readouterr()
        code = main(["verify", "--model", passive_model_file,
                     "--netlist", out])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "reduced.interconnect_kappas" in err["message"]

    def test_interconnect_rate_count(self, passive_model_file, tmp_path,
                                     capsys):
        # the rates parse, so their count is checked by verification
        out = str(tmp_path / "net.json")
        main(["synth", "--input", passive_model_file, "--output", out])
        data = read_json(out)
        data["reduced"]["interconnect_kappas"].pop()
        write_json(out, data)
        capsys.readouterr()
        code = main(["verify", "--model", passive_model_file,
                     "--netlist", out])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "interconnect rates" in err["message"]

    @staticmethod
    def with_feedback(tmp_path, r_feedback):
        """Paths of a 4-mode, 3-port passive model and of its netlist with
        the feedback network replaced by ``r_feedback``."""
        m_mat, n_mat, s_mat = random_passive_model(
            4, 3, np.random.default_rng(3))
        model = write_model(tmp_path / "model.json", Model(
            kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat))
        out = str(tmp_path / "net.json")
        assert main(["synth", "--input", model, "--output", out]) == EXIT_OK
        data = read_json(out)
        data["feedback"]["matrix"] = modelio.encode_matrix(r_feedback)
        write_json(out, data)
        return model, out

    @pytest.mark.parametrize("diagonal", [[1, 1, 1, 1], [1, -1, -1, -1]])
    def test_feedback_with_unit_eigenvalue(self, diagonal, tmp_path,
                                           capsys):
        # I - R is singular: the loop cannot be closed
        model, net = self.with_feedback(tmp_path, np.diag(diagonal))
        capsys.readouterr()
        code = main(["verify", "--model", model, "--netlist", net])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnitEigenvalueError"
        assert err["eigenvalue"] == [1.0, 0.0]

    def test_feedback_of_another_size(self, tmp_path, capsys):
        model, net = self.with_feedback(tmp_path, -np.eye(3))
        capsys.readouterr()
        code = main(["verify", "--model", model, "--netlist", net])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "feedback network is 3x3" in err["message"]
        assert "needs 4x4" in err["message"]

    def test_model_that_synth_refuses(self, passive_model_file, tmp_path,
                                      capsys):
        # verify reads the model through the same check as synth
        out = str(tmp_path / "net.json")
        assert main(["synth", "--input", passive_model_file,
                     "--output", out]) == EXIT_OK
        data = read_json(passive_model_file)
        data["M"][0][1] = [5.0, 0.0]  # M no longer Hermitian
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["verify", "--model", str(bad), "--netlist", out])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{bad}: ")
        assert "Hermitian" in err["message"]

    @pytest.mark.parametrize("location, value", [
        ("feedback.matrix", None), ("pre_network.matrix", None),
        ("reduced.N_hat", None), ("feedback.matrix", "0.5"),
        ("feedback.matrix", True), ("reduced.interconnect_kappas", True),
        ("reduced.interconnect_kappas", "2")])
    def test_non_number_in_netlist(self, location, value, passive_model_file,
                                   tmp_path, capsys):
        out = str(tmp_path / "net.json")
        assert main(["synth", "--input", passive_model_file,
                     "--output", out]) == EXIT_OK
        data = read_json(out)
        part, key = location.split(".")
        if key == "interconnect_kappas":
            data[part][key][0] = value
        else:
            data[part][key][0][0][0] = value
        write_json(out, data)
        capsys.readouterr()
        code = main(["verify", "--model", passive_model_file,
                     "--netlist", out])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{out}.{location}: ")

    def test_general_model_that_synth_refuses(self, general_model_file,
                                              tmp_path, capsys):
        # a coupling matrix that is not doubled-up, against the netlist of
        # the model before the change
        out = str(tmp_path / "net.json")
        assert main(["synth", "--input", general_model_file,
                     "--output", out]) == EXIT_OK
        data = read_json(general_model_file)
        data["N"][0][0][0] += 0.5
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["verify", "--model", str(bad), "--netlist", out])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{bad}: coupling matrix is not "
                                         "doubled-up")

    def test_netlist_of_unknown_type(self, passive_model_file, tmp_path,
                                     capsys):
        out = str(tmp_path / "net.json")
        assert main(["synth", "--input", passive_model_file,
                     "--output", out]) == EXIT_OK
        data = modelio.load_json(out)
        data["type"] = "active"
        bad = str(tmp_path / "bad_net.json")
        modelio.dump_json(bad, data)
        code = main(["verify", "--model", passive_model_file,
                     "--netlist", bad])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"] == f"{bad}.type: unknown type 'active'"

    def test_malformed_netlist(self, passive_model_file, tmp_path, capsys):
        bad = tmp_path / "bad_net.json"
        bad.write_text(json.dumps({"schema_version": 1, "type": "passive"}))
        code = main(["verify", "--model", passive_model_file,
                     "--netlist", str(bad)])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert "reduced" in err["message"]


class TestNetlistFile:
    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_roundtrip_is_bit_identical(self, kind, passive_model_file,
                                        general_model_file, tmp_path):
        path = passive_model_file if kind == "passive" else general_model_file
        out = tmp_path / "net.json"
        code = main(["synth", "--input", path, "--output", str(out)])
        assert code == EXIT_OK
        assert out.read_text().count("\n") == 1  # one line of compact JSON
        model, _ = modelio.load_model(path)
        synthesize = (synthesize_passive if kind == "passive"
                      else synthesize_general)
        real = synthesize(model.m_mat, model.n_mat, model.s_mat)
        loaded = modelio.load_realization(str(out))
        for name in ("pre", "post", "r_feedback", "nhat", "m_conc"):
            assert np.array_equal(getattr(loaded, name),
                                  getattr(real, name)), name

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_residual_is_the_library_residual(self, kind, passive_model_file,
                                              general_model_file, tmp_path):
        path = passive_model_file if kind == "passive" else general_model_file
        out = tmp_path / "net.json"
        assert main(["synth", "--input", path,
                     "--output", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert list(data)[-1] == "factorization_residual"
        real = synthesize(modelio.load_model(path)[0])
        assert same_json(data["factorization_residual"],
                         real.factorization_residual)
        if kind == "general":
            assert same_json(data["classification"]["residual"],
                             real.factorization_residual)

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_netlist_with_feedback_generator_still_loads(
            self, kind, passive_model_file, general_model_file, tmp_path):
        # netlists no longer store X = cayley(R); older ones that carry it
        # load and verify as before
        path = passive_model_file if kind == "passive" else general_model_file
        out = tmp_path / "net.json"
        main(["synth", "--input", path, "--output", str(out)])
        data = json.loads(out.read_text())
        assert "X" not in data["feedback"]
        model, _ = modelio.load_model(path)
        fresh = verify_realization(model, modelio.load_realization(str(out)))
        synthesize = (synthesize_passive if kind == "passive"
                      else synthesize_general)
        real = synthesize(model.m_mat, model.n_mat, model.s_mat)
        data["feedback"]["X"] = modelio.encode_matrix(real.x)
        old = tmp_path / "old_net.json"
        modelio.dump_json(str(old), data)
        loaded = modelio.load_realization(str(old))
        assert verify_realization(model, loaded).max_error == fresh.max_error
        assert main(["verify", "--model", path,
                     "--netlist", str(old)]) == EXIT_OK

    def test_indented_netlist_still_loads(self, passive_model_file, tmp_path):
        out = tmp_path / "net.json"
        main(["synth", "--input", passive_model_file, "--output", str(out)])
        compact = modelio.load_realization(str(out))
        indented = tmp_path / "indented.json"
        with open(indented, "w") as fh:
            json.dump(json.loads(out.read_text()), fh, indent=2)
        loaded = modelio.load_realization(str(indented))
        for name in ("pre", "post", "r_feedback", "nhat", "m_conc"):
            assert np.array_equal(getattr(loaded, name),
                                  getattr(compact, name)), name
        assert main(["verify", "--model", passive_model_file,
                     "--netlist", str(indented)]) == EXIT_OK


class TestFileErrors:
    """Files that cannot be read or written, or are not standard JSON, are
    validation errors (exit 2) that name the file."""

    @pytest.fixture
    def files(self, passive_model_file, tmp_path):
        """Paths of the passive example's model, its netlist, its pre
        network as a matrix file, and an output."""
        netlist = str(tmp_path / "net.json")
        assert main(["synth", "--input", passive_model_file,
                     "--output", netlist]) == EXIT_OK
        matrix = str(tmp_path / "matrix.json")
        modelio.dump_json(matrix, {"matrix": modelio.load_json(netlist)[
            "pre_network"]["matrix"]})
        return {"model": passive_model_file, "netlist": netlist,
                "matrix": matrix, "output": str(tmp_path / "out.json")}

    @staticmethod
    def argv(command, files, **override):
        """``lqss command`` on ``files``, with the paths in ``override``."""
        files = {**files, "input": files["matrix" if command == "decompose"
                                         else "model"], **override}
        names = {"synth": ["input", "output"],
                 "verify": ["model", "netlist", "output"],
                 "decompose": ["input", "output"]}[command]
        return [command] + [arg for name in names
                            for arg in (f"--{name}", files[name])]

    @staticmethod
    def error(capsys):
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        return err["message"]

    @pytest.mark.parametrize("command, field", [
        ("synth", "input"), ("verify", "model"), ("verify", "netlist"),
        ("decompose", "input")])
    def test_input_is_a_directory(self, command, field, files, tmp_path,
                                  capsys):
        argv = self.argv(command, files, **{field: str(tmp_path)})
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        assert f"{tmp_path}: cannot read" in self.error(capsys)

    @pytest.mark.parametrize("command", ["synth", "verify", "decompose"])
    def test_output_in_missing_directory(self, command, files, tmp_path,
                                         capsys, monkeypatch):
        # the output path is checked before any input is read
        def refuse(*args, **kwargs):
            raise AssertionError("work done before the output was checked")

        for module, name in [
                (modelio, "load_json"), (modelio, "load_model"),
                (cli, "synthesize"), (cli, "schedule_static"),
                (cli, "verify_realization")]:
            monkeypatch.setattr(module, name, refuse)
        out = str(tmp_path / "missing" / "out.json")
        capsys.readouterr()
        assert main(self.argv(command, files, output=out)) == EXIT_VALIDATION
        assert (f"{out}: cannot write (No such file or directory)"
                in self.error(capsys))

    @pytest.mark.parametrize("command", ["synth", "verify", "decompose"])
    def test_output_is_a_directory(self, command, files, tmp_path, capsys):
        capsys.readouterr()
        argv = self.argv(command, files, output=str(tmp_path))
        assert main(argv) == EXIT_VALIDATION
        assert f"{tmp_path}: cannot write (Is a directory)" in self.error(
            capsys)

    def test_failed_synth_leaves_output_alone(self, files, tmp_path, capsys):
        # the early check neither creates nor truncates the output
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        out = tmp_path / "old.json"
        out.write_text("old")
        assert main(self.argv("synth", files, input=str(bad),
                              output=str(out))) == EXIT_VALIDATION
        assert out.read_text() == "old"
        missing = tmp_path / "new.json"
        assert main(self.argv("synth", files, input=str(bad),
                              output=str(missing))) == EXIT_VALIDATION
        assert not missing.exists()

    def test_path_that_is_not_utf8(self, tmp_path, capsys):
        # bytes of a path that are not UTF-8 reach Python as surrogate
        # escapes; the error line spells them out
        path = str(tmp_path / "\udcff.json")
        assert main(["synth", "--input", path, "--output",
                     str(tmp_path / "o.json")]) == EXIT_VALIDATION
        assert "\\udcff.json: cannot read" in self.error(capsys)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1e400"])
    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_nonfinite_number_in_model_file(self, kind, token,
                                            passive_model_file,
                                            general_model_file, tmp_path,
                                            capsys):
        # the standard library reads these as NaN or inf; an infinite N made
        # the passive SVD never return
        path = passive_model_file if kind == "passive" else general_model_file
        netlist = str(tmp_path / "net.json")
        assert main(["synth", "--input", path, "--output", netlist]) == EXIT_OK
        data = modelio.load_json(path)
        data["N"][0][1][0] = 12345.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace("12345.5", token))
        files = {"model": str(bad), "netlist": netlist,
                 "output": str(tmp_path / "out.json")}
        capsys.readouterr()
        for command in ("synth", "verify"):
            assert main(self.argv(command, files)) == EXIT_VALIDATION
            assert "invalid JSON" in self.error(capsys)

    @pytest.mark.parametrize("command, field", [
        ("synth", "input"), ("verify", "model"), ("verify", "netlist"),
        ("decompose", "input")])
    def test_file_that_is_not_utf8(self, command, field, files, tmp_path,
                                   capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"schema_version": 1, "type": "passiv\xe9"}')
        capsys.readouterr()
        assert main(self.argv(command, files,
                              **{field: str(bad)})) == EXIT_VALIDATION
        assert "invalid JSON" in self.error(capsys)


class TestInterop:
    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_stdlib_json_reads_every_file_the_same(
            self, kind, passive_model_file, general_model_file, tmp_path,
            capsys):
        # outside tools read lqss files with the standard library's json;
        # they must see the same values, floats bit for bit, and lqss must
        # read files the standard library writes the same way
        path = passive_model_file if kind == "passive" else general_model_file
        net, rep = str(tmp_path / "net.json"), str(tmp_path / "rep.json")
        matrix, sched = str(tmp_path / "u.json"), str(tmp_path / "s.json")
        assert main(["synth", "--input", path, "--output", net]) == EXIT_OK
        assert main(["verify", "--model", path, "--netlist", net,
                     "--output", rep]) == EXIT_OK
        modelio.dump_json(matrix, {"matrix": modelio.load_json(net)[
            "post_network"]["matrix"]})
        assert main(["decompose", "--input", matrix, "--output",
                     sched]) == EXIT_OK
        for written in (path, net, rep, matrix, sched):
            with open(written) as fh:
                value = json.load(fh)
            assert same_json(value, modelio.load_json(written)), written
            rewritten = str(tmp_path / "stdlib.json")
            with open(rewritten, "w") as fh:
                json.dump(value, fh, indent=1)
            assert same_json(modelio.load_json(rewritten), value), written
        capsys.readouterr()
        assert main(["verify", "--model", path, "--netlist",
                     str(tmp_path / "missing.json")]) == EXIT_VALIDATION
        line = capsys.readouterr().err
        assert line.endswith("\n") and line.count("\n") == 1
        assert same_json(json.loads(line), orjson.loads(line))


class TestWrittenSchedules:
    """Every schedule that lqss writes lists each device's first parameter,
    and a beamsplitter's psi only when it is not zero, as floats; its
    records, with a psi they leave out read as 0, multiply out to its
    network."""

    KEYS = {"beamsplitter": [{"theta"}, {"theta", "psi"}],
            "phase": [{"theta"}], "squeezer": [{"x"}]}

    @classmethod
    def assert_written(cls, schedule, matrix, tol):
        for dev in schedule["devices"]:
            params = dev["params"]
            assert set(params) in cls.KEYS[dev["kind"]], dev
            assert all(isinstance(value, float) for value in params.values())
            assert params.get("psi") != 0.0
        assert schedule_residual(schedule, matrix) < tol
        # m^2 real parameters per m-channel unitary, and m squeezers
        m = schedule["channels"]
        count = sum(len(dev["params"]) for dev in schedule["devices"])
        assert count <= (m * m if schedule["kind"] == "unitary"
                         else 2 * m * m + m)

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_synth(self, kind, tmp_path):
        rng = np.random.default_rng(95)
        if kind == "passive":
            m_mat, n_mat, s_mat = random_passive_model(6, 4, rng)
        else:
            (m_mat, n_mat), s_mat = random_general_model(4, 3, rng), None
        path = write_model(tmp_path / "model.json", Model(
            kind=kind, m_mat=m_mat, n_mat=n_mat, s_mat=s_mat))
        out = str(tmp_path / "net.json")
        assert main(["synth", "--input", path, "--output", out]) == EXIT_OK
        data = read_json(out)
        for key in ("pre_network", "post_network", "feedback"):
            schedule = data[key]["schedule"]
            assert schedule["kind"] == ("unitary" if kind == "passive"
                                        else "bogoliubov")
            self.assert_written(
                schedule, modelio.decode_matrix(data[key]["matrix"], key),
                1e-7)

    @pytest.mark.parametrize("kind", ["unitary", "bogoliubov"])
    def test_decompose(self, kind, tmp_path):
        matrix = (random_unitary(7, np.random.default_rng(96))
                  if kind == "unitary" else random_bogoliubov(4, seed=96))
        path = tmp_path / "m.json"
        write_json(path, {"matrix": modelio.encode_matrix(matrix)})
        out = str(tmp_path / "sched.json")
        assert main(["decompose", "--input", str(path), "--kind", kind,
                     "--output", out]) == EXIT_OK
        schedule = read_json(out)
        assert schedule["kind"] == kind
        self.assert_written(schedule, matrix, 1e-8 if kind == "unitary"
                            else 1e-7)


class TestDecompose:
    def test_unitary(self, tmp_path):
        rng = np.random.default_rng(93)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(z)
        path = tmp_path / "u.json"
        path.write_text(json.dumps(
            {"matrix": modelio.encode_matrix(q)}))
        out = str(tmp_path / "sched.json")
        assert main(["decompose", "--input", str(path), "--kind", "unitary",
                     "--output", out]) == EXIT_OK
        sched = schedule_static(q, kind="unitary")
        assert same_json(read_json(out)["devices"], sched.devices)
        assert schedule_residual(sched, q) < 1e-8

    def test_bogoliubov(self, tmp_path):
        r = random_bogoliubov(2, seed=94)
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"matrix": modelio.encode_matrix(r)}))
        out = str(tmp_path / "sched.json")
        assert main(["decompose", "--input", str(path),
                     "--output", out]) == EXIT_OK
        written = read_json(out)
        sched = schedule_static(r)
        assert written["kind"] == "bogoliubov" and sched.doubled
        assert same_json(written["devices"], sched.devices)
        assert schedule_residual(sched, r) < 1e-7

    @pytest.mark.parametrize("kind, products", [("unitary", 1),
                                                 ("bogoliubov", 2)])
    def test_reports_the_checked_residual(self, kind, products, tmp_path,
                                          monkeypatch):
        # the residual is the one schedule_static checked: one product per
        # triangular factor, and no further multiplication of the schedule
        matrix = (random_bogoliubov(3, seed=97) if kind == "bogoliubov"
                  else random_unitary(5, np.random.default_rng(97)))
        expected = schedule_static(matrix, kind=kind).residual
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": modelio.encode_matrix(matrix)}))
        out = str(tmp_path / "sched.json")
        calls = []
        product = DeviceSchedule.matrix
        monkeypatch.setattr(DeviceSchedule, "matrix",
                            lambda self: calls.append(self) or product(self))
        assert main(["decompose", "--input", str(path), "--kind", kind,
                     "--output", out]) == EXIT_OK
        assert len(calls) == products
        assert read_json(out)["residual"] == expected

    @pytest.mark.parametrize("bogoliubov", [True, False])
    def test_detected_kind_is_checked_once(self, bogoliubov, tmp_path,
                                           monkeypatch):
        # without --kind, the one Bogoliubov check both picks the kind and
        # guards the factorization
        matrix = (random_bogoliubov(2, seed=98) if bogoliubov
                  else random_unitary(4, np.random.default_rng(98)))
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": modelio.encode_matrix(matrix)}))
        out = str(tmp_path / "sched.json")
        calls = []
        residual = krein.bogoliubov_residual
        monkeypatch.setattr(krein, "bogoliubov_residual",
                            lambda r: calls.append(r) or residual(r))
        assert main(["decompose", "--input", str(path),
                     "--output", out]) == EXIT_OK
        assert len(calls) == 1
        written = read_json(out)
        assert written["kind"] == ("bogoliubov" if bogoliubov
                                   else "unitary")
        sched = schedule_static(matrix, kind=written["kind"])
        assert same_json(written["devices"], sched.devices)
        assert schedule_residual(sched, matrix) < 1e-7

    def test_strong_squeezing(self, tmp_path):
        # a Bogoliubov network with x up to 9.9 is scheduled, not refused
        # as "static network is not unitary"
        matrix = strongly_squeezing(36, 27)
        path = tmp_path / "m.json"
        write_json(path, {"matrix": modelio.encode_matrix(matrix)})
        out = str(tmp_path / "sched.json")
        assert main(["decompose", "--input", str(path),
                     "--output", out]) == EXIT_OK
        written = read_json(out)
        assert written["kind"] == "bogoliubov"
        assert schedule_residual(written, matrix) <= 1e-12

    def test_missing_matrix_field(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2}))
        code = main(["decompose", "--input", str(path),
                     "--output", str(tmp_path / "o.json")])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert "matrix" in err["message"]

    @pytest.mark.parametrize("matrix, kind", [
        (np.ones((2, 2)), "unitary"),
        # a wide matrix with orthonormal rows passes U U^dag = I; the unitary
        # check refuses its shape, whether or not the kind is given
        (np.eye(2, 3), None), (np.eye(2, 3), "unitary")],
        ids=["ones-unitary", "wide", "wide-unitary"])
    def test_nonunitary_matrix(self, matrix, kind, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": modelio.encode_matrix(matrix)}))
        out = tmp_path / "o.json"
        argv = ["decompose", "--input", str(path), "--output", str(out)]
        capsys.readouterr()
        assert main(argv + ["--kind", kind] * (kind is not None)) == (
            EXIT_VALIDATION)
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "StructureError",
                       "message": "static network is not unitary"}
        assert not out.exists()


class TestLapackFailures:
    """A LAPACK routine that reports failure ends the command with exit 4
    and one JSON line on stderr, never with exit 1 (verification failed):
    a Schur reduction through ``lapack.schur`` raises ``NumericalError``,
    and numpy's ``LinAlgError`` is mapped to the same exit."""

    @staticmethod
    def failing_numpy(monkeypatch, command):
        # the first call that each command makes of numpy's LAPACK
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg,
                            "svd" if command == "synth" else "norm", fail)

    @pytest.mark.parametrize("fault, error, message", [
        ("gees", "NumericalError",
         "Schur form of a 4 x 4 matrix not found (LAPACK dgees info 1)"),
        ("numpy", "LinAlgError", "SVD did not converge")])
    @pytest.mark.parametrize("command", ["synth", "verify"])
    def test_exit_code(self, command, fault, error, message,
                       general_model_file, tmp_path, monkeypatch, capsys):
        netlist = str(tmp_path / "net.json")
        if command == "verify":
            assert main(["synth", "--input", general_model_file,
                         "--output", netlist]) == EXIT_OK
            argv = ["verify", "--model", general_model_file,
                    "--netlist", netlist]
        else:
            argv = ["synth", "--input", general_model_file,
                    "--output", netlist]
        if fault == "gees":
            # the QR algorithm failed, as LAPACK reports it
            failing_gees(monkeypatch, 1)
        else:
            self.failing_numpy(monkeypatch, command)
        capsys.readouterr()
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": error, "message": message}


class TestBlasThreads:
    """``main`` runs the OpenBLAS pools of numpy and scipy with one thread
    each, unless the environment sets a thread count."""

    SCRIPT = """\
import ctypes, glob, os, sys
from lqss import cli
code = cli.main(sys.argv[1:])
counts = []
for package, symbol in (("numpy", "scipy_openblas_get_num_threads64_"),
                        ("scipy", "scipy_openblas_get_num_threads")):
    root = os.path.dirname(os.path.dirname(__import__(package).__file__))
    for path in glob.glob(os.path.join(root, package + ".libs",
                                       "libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(path), symbol)
        getter.argtypes, getter.restype = [], ctypes.c_int
        counts.append(getter())
print(code, *counts)
"""

    @pytest.mark.parametrize("setting, threads", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "2"}, 2)], ids=["unset", "openblas", "omp"])
    def test_pools(self, setting, threads, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"matrix": modelio.encode_matrix(
            random_bogoliubov(3, seed=99))})
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}
        env.update(setting, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, "decompose", "--input",
             str(path), "--output", str(tmp_path / "s.json")],
            env=env, capture_output=True, text=True, check=True)
        code, *counts = map(int, run.stdout.splitlines()[-1].split())
        if len(counts) != 2:
            pytest.skip("numpy and scipy do not both bundle OpenBLAS here")
        assert code == EXIT_OK
        assert counts == [threads, threads]

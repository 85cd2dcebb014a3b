"""End-to-end tests for the command line interface and JSON round trips."""

import json

import numpy as np
import pytest

from helpers import random_passive_model
from lqss import modelio, synthesize_general, synthesize_passive
from lqss.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    main,
)
from lqss.errors import ValidationError
from lqss.krein import phi_to_doubled, random_bogoliubov
from lqss.statespace import Model
from test_passive import M3, N3
from test_spectral import JORDAN3_WITNESS, nonneutral_coupling


def write_model(path, model, **extra):
    payload = modelio.model_to_dict(model)
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


class TestModelCodec:
    def test_roundtrip(self):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        data = modelio.model_to_dict(model, detunings=[1.0, 2.0, 3.0])
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
        data = json.load(open(out))
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
        data = json.load(open(out))
        assert data["type"] == "general"
        assert data["cavities"]
        assert main(["verify", "--model", general_model_file,
                     "--netlist", out]) == EXIT_OK

    def test_zero_coupling_interconnect_only(self, tmp_path):
        model = Model(kind="passive", m_mat=M3,
                      n_mat=np.zeros((3, 3)), s_mat=np.eye(3))
        path = write_model(tmp_path / "zero.json", model)
        out = str(tmp_path / "zero_net.json")
        assert main(["synth", "--input", path, "--output", out]) == EXIT_OK
        data = json.load(open(out))
        assert np.linalg.norm(
            modelio.decode_matrix(data["reduced"]["N_hat"], "N_hat")) == 0.0
        assert data["classification"]["rank"] == 0
        assert main(["verify", "--model", path, "--netlist", out]) == EXIT_OK

    def test_detunings_from_model_file(self, tmp_path):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        path = write_model(tmp_path / "det.json", model,
                           detunings=[0.5, -0.5, 1.0])
        out = str(tmp_path / "det_net.json")
        assert main(["synth", "--input", path, "--output", out]) == EXIT_OK
        data = json.load(open(out))
        assert data["reduced"]["detunings"] == [0.5, -0.5, 1.0]
        assert main(["verify", "--model", path, "--netlist", out]) == EXIT_OK

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


class TestVerify:
    def test_perturbed_netlist_fails(self, passive_model_file, tmp_path):
        out = str(tmp_path / "net.json")
        main(["synth", "--input", passive_model_file, "--output", out])
        data = json.load(open(out))
        r = modelio.decode_matrix(data["feedback"]["matrix"], "r")
        data["feedback"]["matrix"] = modelio.encode_matrix(
            r * np.exp(0.03j))
        json.dump(data, open(out, "w"))
        assert main(["verify", "--model", passive_model_file,
                     "--netlist", out]) == EXIT_VERIFY_FAILED

    def test_report_written(self, passive_model_file, tmp_path):
        out = str(tmp_path / "net.json")
        rep = str(tmp_path / "report.json")
        main(["synth", "--input", passive_model_file, "--output", out])
        assert main(["verify", "--model", passive_model_file,
                     "--netlist", out, "--freqs", "1",
                     "--output", rep]) == EXIT_OK
        report = json.load(open(rep))
        assert report["passed"] is True
        assert len(report["errors"]) == 2  # one frequency, two contours

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
        sched = modelio.schedule_from_dict(json.load(open(out)))
        assert sched.residual(q) < 1e-8

    def test_bogoliubov(self, tmp_path):
        r = random_bogoliubov(2, seed=94)
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"matrix": modelio.encode_matrix(r)}))
        out = str(tmp_path / "sched.json")
        assert main(["decompose", "--input", str(path),
                     "--output", out]) == EXIT_OK
        sched = modelio.schedule_from_dict(json.load(open(out)))
        assert sched.doubled
        assert sched.residual(r) < 1e-7

    def test_missing_matrix_field(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2}))
        code = main(["decompose", "--input", str(path),
                     "--output", str(tmp_path / "o.json")])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert "matrix" in err["message"]

    def test_nonunitary_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"matrix": modelio.encode_matrix(np.ones((2, 2)))}))
        code = main(["decompose", "--input", str(path), "--kind", "unitary",
                     "--output", str(tmp_path / "o.json")])
        assert code == EXIT_VALIDATION


class TestScheduleCodec:
    def test_roundtrip(self, tmp_path):
        from lqss.netlist import schedule_static
        r = random_bogoliubov(2, seed=95)
        sched = schedule_static(r)
        back = modelio.schedule_from_dict(modelio.schedule_to_dict(sched))
        assert np.allclose(back.matrix(), sched.matrix(), atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown kind"):
            modelio.schedule_from_dict(
                {"schema_version": 1, "kind": "optical"})

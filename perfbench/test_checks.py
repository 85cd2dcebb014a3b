"""The benchmark's own checks accept lqss's outputs and flag altered ones.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import copy
import json

import numpy as np
import pytest

from lqss import cli
from lqss.modelio import encode_matrix

import checks


def small_model(kind: str, n: int = 4, m: int = 3) -> dict:
    rng = np.random.default_rng(5)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, n1 = cplx(n, n), cplx(m, n)
    if kind == "passive":
        return {"M": (a + a.conj().T) / 2, "N": n1, "S": np.eye(m)}
    b, n2 = cplx(n, n), 0.5 * cplx(m, n)
    m1, m2 = (a + a.conj().T) / 2, (b + b.T) / 2
    return {"M": np.block([[m1, m2], [m2.conj(), m1.conj()]]),
            "N": np.block([[n1, n2], [n2.conj(), n1.conj()]]),
            "S": np.eye(2 * m)}


@pytest.fixture(params=["passive", "general"])
def synthesized(request, tmp_path):
    """(kind, model matrices, netlist dict) from `lqss synth`."""
    kind = request.param
    mats = small_model(kind)
    model_path, netlist_path = tmp_path / "model.json", tmp_path / "net.json"
    model_path.write_text(json.dumps(dict(
        {key: encode_matrix(value) for key, value in mats.items()},
        schema_version=1, type=kind)))
    assert cli.main(["synth", "--input", str(model_path),
                     "--output", str(netlist_path)]) == 0
    return kind, mats, json.loads(netlist_path.read_text())


def check(kind, mats, netlist):
    points = checks.frequency_points(mats["M"], np.random.default_rng(0))
    return checks.check_realization(
        kind, mats, checks.netlist_parts(netlist), points, netlist)


def test_unaltered_netlist_passes(synthesized):
    outcome = check(*synthesized)
    assert outcome.problems == []
    assert outcome.tf_error < 1e-10
    assert outcome.schedule_residual < 1e-10


def test_perturbed_feedback_matrix_is_flagged(synthesized):
    kind, mats, netlist = synthesized
    altered = copy.deepcopy(netlist)
    altered["feedback"]["matrix"][0][1][0] += 1e-4
    outcome = check(kind, mats, altered)
    assert any("transfer function" in p for p in outcome.verify_problems)
    assert any("feedback schedule" in p for p in outcome.synth_problems)


def test_perturbed_device_parameter_is_flagged(synthesized):
    kind, mats, netlist = synthesized
    altered = copy.deepcopy(netlist)
    devices = altered["post_network"]["schedule"]["devices"]
    splitter = next(d for d in devices if d["kind"] == "beamsplitter")
    splitter["params"]["theta"] += 1e-4
    outcome = check(kind, mats, altered)
    assert outcome.verify_problems == []  # the matrices are unchanged
    assert any("post_network schedule misses" in p
               for p in outcome.synth_problems)


def test_missing_schedule_is_flagged(synthesized):
    kind, mats, netlist = synthesized
    altered = copy.deepcopy(netlist)
    del altered["pre_network"]["schedule"]
    outcome = check(kind, mats, altered)
    assert "pre_network has no device schedule" in outcome.synth_problems

"""The JSON text ``serialize.dump_json`` writes: every document kind the
commands write parses back to the object that was encoded, doubles
bit-exactly, from a single line; a report stored in the earlier indented
layout still verifies."""

import contextlib
import io
import json

import pytest

import kmsflow as kf
from kmsflow import serialize
from kmsflow.cli import main


def _bit_equal(a, b) -> bool:
    """a and b are the same JSON value, with the same types and every float
    the same double (float.hex tells -0.0 from 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, dict):
        return list(a) == list(b) and all(_bit_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_bit_equal, a, b))
    return a == b


def _encoded(argv) -> list:
    """The objects of the dump_json calls of one CLI run, in call order."""
    objects = []
    dump_json = serialize.dump_json

    def recording(obj, path=None):
        objects.append(obj)
        return dump_json(obj, path)

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(serialize, "dump_json", recording)
        main(argv)
    return objects


@pytest.fixture
def documents(tmp_path) -> dict:
    """Kind -> object of each document kind the commands write: the
    density and Psi of ``random``, the calculus and families of ``derive
    --dump`` and the derive report itself, whose reports nest metrics."""
    ctx, _ = kf.random_instance(3, 1)
    docs = {"matrix": serialize.matrix_to_json(ctx.rho)}
    docs["density"], docs["superoperator"], _ = _encoded([
        "random", "--n", "3", "--seed", "1",
        "--rho-out", str(tmp_path / "rho.json"), "--psi-out", str(tmp_path / "psi.json")])
    docs["dump"], docs["derive_report"] = _encoded([
        "derive", "--method", "both", "--n", "3", "--seed", "1",
        "--dump", str(tmp_path / "dump.json")])
    return docs


def test_documents_round_trip_bit_exactly_on_one_line(documents, tmp_path):
    assert set(documents["dump"]) == {"gns_calculus", "gns_family", "kraus_family"}
    assert set(documents["derive_report"]["results"]["uniqueness"]["metrics"]) >= {
        "kept_gap_a", "kept_gap_b"}
    for kind, doc in documents.items():
        path = tmp_path / f"{kind}.json"
        text = serialize.dump_json(doc, str(path))
        assert "\n" not in text, kind
        assert path.read_text() == text + "\n", kind
        assert _bit_equal(json.loads(text), doc), kind
        assert _bit_equal(serialize.load_json(str(path)), doc), kind


def test_verify_reads_a_report_in_the_indented_layout(tmp_path):
    # reports written before the single-line layout stay valid
    single, indented = tmp_path / "single.json", tmp_path / "indented.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["derive", "--n", "2", "--seed", "3", "--out", str(single)]) == 0
    doc = json.loads(single.read_text())
    indented.write_text(json.dumps(doc, indent=2) + "\n")
    assert indented.read_text().count("\n") > 100
    verdicts = []
    for path in (single, indented):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--report", str(path)]) == 0
        verdicts.append(json.loads(out.getvalue())["results"])
    assert verdicts[0] == verdicts[1]
    assert verdicts[1]["idempotent"] == {"pass": True, "mismatches": []}
    assert len(verdicts[1]) > 4

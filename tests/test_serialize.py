import json

import numpy as np
import pytest

from convexsphere.bodies import ball, from_radial, from_support_samples, from_vertices
from convexsphere.errors import InputError
from convexsphere.fields import build_field, radial_body, sample_unit_F, thicken
from convexsphere.polynomials import project
from convexsphere.serialize import (
    body_doc,
    body_from_doc,
    dump_json,
    field_doc,
    grid_from_meta,
    grid_meta,
    load_body,
    load_field,
    load_json,
    load_poly,
    poly_doc,
    poly_from_doc,
    read_jsonl,
    save_body,
    save_field,
    save_poly,
    write_csv,
    write_jsonl,
)
from convexsphere.util import content_hash


def test_dump_is_deterministic(tmp_path):
    doc = {"kind": "demo", "values": [1.0, 2.0], "name": "x"}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(dict(doc), str(p1))
    dump_json(dict(doc), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_saved_docs_carry_envelope(tmp_path, grid3):
    # the doc builders stamp every saved document with a format version,
    # the toolkit version, and a content hash over the rest of the doc
    body = ball(grid3, 1.0)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_body(body, str(p1))
    save_body(body, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    doc = load_json(str(p1))
    assert doc["format_version"] == 1
    assert "toolkit_version" in doc
    rest = {k: v for k, v in doc.items() if k != "content_hash"}
    assert doc["content_hash"] == content_hash(rest)


def test_load_json_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "a": 1,\n  "b": oops\n}\n')
    with pytest.raises(InputError) as info:
        load_json(str(bad))
    assert "line 3" in str(info.value)


def test_grid_meta_roundtrip(grid3):
    meta = grid_meta(grid3)
    back = grid_from_meta(meta)
    assert back == grid3
    meta_bad = dict(meta)
    meta_bad["grid_key"] = "0" * 16
    with pytest.raises(InputError):
        grid_from_meta(meta_bad)


def test_poly_roundtrip(tmp_path, grid3):
    p = project(grid3, grid3.nodes[:, 0] ** 2 - grid3.nodes[:, 1] ** 2, 4)
    path = tmp_path / "poly.json"
    save_poly(p, str(path))
    q = load_poly(str(path))
    assert q.n == p.n and q.d == p.d
    assert np.abs(q.coeffs - p.coeffs).max() < 1e-15
    assert np.abs(q.samples - p.samples).max() < 1e-12


def test_body_roundtrip_vertex_form(tmp_path, grid3):
    body = from_vertices(grid3, np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, -1.0, -1.0]]))
    path = tmp_path / "body.json"
    save_body(body, str(path))
    back = load_body(str(path))
    assert np.abs(back.support - body.support).max() < 1e-14
    # exact evaluator survives the roundtrip
    assert back._exact_terms() is not None


def test_body_roundtrip_minkowski_form(tmp_path, grid3):
    body = thicken(from_vertices(grid3, np.array([[0.2, 0.0, 0.0]])), 0.8)
    path = tmp_path / "mink.json"
    save_body(body, str(path))
    back = load_body(str(path))
    assert np.abs(back.support - body.support).max() < 1e-14
    assert back.ball_radius == pytest.approx(0.8)


def test_body_roundtrip_radial_profile(tmp_path, grid3):
    phi = sample_unit_F(3, 8, 1, seed=3, grid=grid3)[0]
    body = radial_body(grid3, phi, 0.02)
    path = tmp_path / "prof.json"
    save_body(body, str(path))
    back = load_body(str(path))
    assert back.radial_profile is not None
    eps, poly = back.radial_profile
    assert eps == pytest.approx(0.02)
    assert np.abs(back.radial_samples() - body.radial_samples()).max() < 1e-12


def test_body_roundtrip_plain_radial(tmp_path, grid2):
    th = grid2.angles
    body = from_radial(grid2, 1.0 + 0.2 * np.cos(4 * th))
    path = tmp_path / "rad.json"
    save_body(body, str(path))
    back = load_body(str(path))
    assert np.abs(back.radial_samples() - body.radial_samples()).max() < 1e-15
    assert np.abs(back.support - body.support).max() < 1e-15


def test_field_roundtrip(tmp_path, grid3):
    fld = build_field(
        grid3,
        {"type": "ambient_quad",
         "matrix": np.diag([1.0, -0.5, -0.5, 0.25]).tolist(),
         "N": 4, "eps": 0.02},
        seed=2,
        count=3,
    )
    path = tmp_path / "field.json"
    save_field(fld, str(path))
    back = load_field(str(path))
    assert back.frames.shape == fld.frames.shape
    assert np.abs(back.frames - fld.frames).max() < 1e-15
    for a, b in zip(back.bodies, fld.bodies):
        assert np.abs(a.support - b.support).max() < 1e-12


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "rows.jsonl"
    header = {"kind": "sweep"}
    rows = [{"i": 0, "v": 1.5}, {"i": 1, "v": -2.0}]
    write_jsonl(str(path), header, rows)
    h, back = read_jsonl(str(path))
    assert h["kind"] == "sweep"
    assert back == rows


def test_jsonl_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "h"}\n{"ok": 1}\nnot json\n')
    with pytest.raises(InputError) as info:
        read_jsonl(str(path))
    assert "line 3" in str(info.value)


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [[1, 2.5], [3, -4.0]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3


def test_content_hash_detects_tampering(tmp_path, grid3):
    # loaders recompute the stamp and refuse a doc edited after saving,
    # naming the file in the error
    body = ball(grid3, 1.0)
    path = tmp_path / "ball.json"
    save_body(body, str(path))
    doc = json.loads(path.read_text())
    doc["ball_radius"] = 2.0
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="content_hash does not match") as info:
        load_body(str(path))
    assert str(path) in str(info.value)

    del doc["content_hash"]
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="no content_hash"):
        load_body(str(path))


def test_poly_and_field_loads_check_content_hash(tmp_path, grid3):
    p = project(grid3, grid3.nodes[:, 0] ** 2 - grid3.nodes[:, 1] ** 2, 4)
    poly_path = str(tmp_path / "poly.json")
    save_poly(p, poly_path)
    doc = load_json(poly_path)
    doc["coeffs"][0] += 1.0
    dump_json(doc, poly_path)
    with pytest.raises(InputError, match="content_hash"):
        load_poly(poly_path)

    fld = build_field(
        grid3,
        {"type": "ambient_quad", "matrix": np.diag([1.0, -0.5, -0.5]).tolist(), "eps": 0.02},
        seed=1,
        count=2,
    )
    field_path = str(tmp_path / "field.json")
    save_field(fld, field_path)
    doc = load_json(field_path)
    doc["bodies"][0]["radial_profile"]["eps"] = 0.03
    dump_json(doc, field_path)
    with pytest.raises(InputError, match="content_hash"):
        load_field(field_path)



def _restamp(doc):
    doc["content_hash"] = content_hash({k: v for k, v in doc.items() if k != "content_hash"})
    return doc


def test_loads_check_grid_key(tmp_path, grid3):
    # documents record the key of their grid; a key that does not match
    # the grid rebuilt (or given) at load time is refused even when the
    # content hash is restamped over the edit
    phi = sample_unit_F(3, 8, 1, seed=3, grid=grid3)[0]
    body = radial_body(grid3, phi, 0.02)
    for doc in (body_doc(body), poly_doc(phi)):
        assert doc["grid_key"] == grid3.key
    path = str(tmp_path / "prof.json")
    save_body(body, path)

    doc = load_json(path)
    doc["grid_key"] = "0" * 16
    dump_json(_restamp(doc), path)
    with pytest.raises(InputError, match="grid"):
        load_body(path)

    poly_path = str(tmp_path / "poly.json")
    doc = poly_doc(phi)
    doc["grid_key"] = "0" * 16
    dump_json(_restamp(doc), poly_path)
    with pytest.raises(InputError, match="grid"):
        load_poly(poly_path)
    with pytest.raises(InputError, match="grid key"):
        poly_from_doc(doc, grid3)

    # a body loaded on a grid other than its own
    with pytest.raises(InputError, match="grid key"):
        body_from_doc(body_doc(body), grid3.refined())

    fld = build_field(
        grid3,
        {"type": "ambient_quad", "matrix": np.diag([1.0, -0.5, -0.5]).tolist(), "eps": 0.02},
        seed=1,
        count=2,
    )
    field_path = str(tmp_path / "field.json")
    doc = field_doc(fld)
    assert doc["grid_key"] == grid3.key
    doc["bodies"][1]["grid_key"] = "0" * 16
    dump_json(_restamp(doc), field_path)
    with pytest.raises(InputError, match="grid key"):
        load_field(field_path)


def test_documents_without_grid_key_still_load(tmp_path, grid3):
    phi = sample_unit_F(3, 8, 1, seed=3, grid=grid3)[0]
    body = radial_body(grid3, phi, 0.02)
    doc = body_doc(body)
    del doc["grid_key"]
    del doc["radial_profile"]["poly"]["grid_key"]
    path = str(tmp_path / "old.json")
    dump_json(_restamp(doc), path)
    back = load_body(path)
    assert np.abs(back.radial_samples() - body.radial_samples()).max() < 1e-12

def test_field_rejects_mis_sized_ambient_matrix(grid3):
    with pytest.raises(InputError):
        build_field(
            grid3,
            {"type": "ambient_quad",
             "matrix": np.diag([1.0, -0.5, -0.5]).tolist(),
             "N": 4},
            seed=2,
            count=2,
        )

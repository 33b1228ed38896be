import json

import numpy as np
import pytest

from convexsphere.bodies import ball, from_radial, from_support_samples, from_vertices, random_polytope
from convexsphere.errors import InputError
from convexsphere.fields import (
    ambient_quad_field,
    quad_pair_field,
    radial_body,
    sample_unit_F,
    thicken,
)
from convexsphere.groups import random_frames
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
    save_body,
    save_field,
    save_poly,
    write_csv,
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
    assert back.terms is not None


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
    assert np.abs(back.radial - body.radial).max() < 1e-12


def test_body_roundtrip_plain_radial(tmp_path, grid2):
    th = grid2.angles
    body = from_radial(grid2, 1.0 + 0.2 * np.cos(4 * th))
    path = tmp_path / "rad.json"
    save_body(body, str(path))
    back = load_body(str(path))
    assert np.abs(back.radial - body.radial).max() < 1e-15
    assert np.abs(back.support - body.support).max() < 1e-15


def test_body_roundtrip_support_samples(tmp_path, grid3):
    # the samples of a random polytope reload bit for bit, and so does the
    # outer polytope evaluated off the grid
    rng = np.random.default_rng(0)
    body = from_support_samples(grid3, random_polytope(grid3, 12, rng).support)
    path = tmp_path / "outer.json"
    save_body(body, str(path))
    back = load_body(str(path))
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    assert back.sampled_support is not None
    assert np.array_equal(back.support, body.support)
    assert np.array_equal(back.support_eval(dirs), body.support_eval(dirs))


def test_unattained_support_samples_are_refused_at_load(tmp_path, grid3):
    # random samples: most planes miss the outer polytope of the others,
    # so the document would load as a body whose support is not its samples
    rng = np.random.default_rng(4)
    body = from_support_samples(grid3, 1.0 + 0.2 * rng.random(grid3.size))
    path = tmp_path / "outer.json"
    save_body(body, str(path))
    with pytest.raises(InputError, match="above the support"):
        load_body(str(path))
    # and a sample at or below 0 leaves no outer polytope to evaluate
    h = body.support.copy()
    h[0] = -0.5
    save_body(from_support_samples(grid3, h), str(path))
    with pytest.raises(InputError, match="positive support"):
        load_body(str(path))


def _field(grid, big_n, count, seed):
    frames = random_frames(3, big_n, count, np.random.default_rng(seed))
    return ambient_quad_field(grid, frames, np.diag([1.0, -0.5, -0.5, 0.25][:big_n]), eps=0.02)


def test_field_roundtrip(tmp_path, grid3):
    fld = _field(grid3, 4, 3, seed=2)
    path = tmp_path / "field.json"
    save_field(fld, str(path))
    back = load_field(str(path))
    assert back.frames.shape == fld.frames.shape
    assert np.abs(back.frames - fld.frames).max() < 1e-15
    for a, b in zip(back.bodies, fld.bodies):
        assert np.abs(a.support - b.support).max() < 1e-12

    # a field document is its frames and bodies; older documents that also
    # carry a descriptor and an adjacency load, their hash still checked
    doc = field_doc(fld)
    assert set(doc) - {"n", "resolution", "grid_key"} == {
        "kind", "frames", "bodies", "format_version", "toolkit_version", "content_hash"}
    doc["descriptor"] = {"type": "ambient_quad", "N": 4, "eps": 0.02}
    doc["adjacency"] = [[0, 1], [1, 2]]
    dump_json(_restamp(doc), str(path))
    assert len(load_field(str(path)).bodies) == 3
    doc["descriptor"]["eps"] = 0.03
    dump_json(doc, str(path))
    with pytest.raises(InputError, match="content_hash"):
        load_field(str(path))


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

    fld = _field(grid3, 3, 2, seed=1)
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

    fld = _field(grid3, 3, 2, seed=1)
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
    assert np.abs(back.radial - body.radial).max() < 1e-12

def test_field_rejects_mis_sized_ambient_matrix(grid3):
    frames = random_frames(3, 4, 2, np.random.default_rng(2))
    with pytest.raises(InputError):
        ambient_quad_field(grid3, frames, np.diag([1.0, -0.5, -0.5]))


def _save_edited(doc, path, edit):
    edit(doc)
    dump_json(_restamp(doc), path)
    return path


def test_load_body_wraps_structural_faults(tmp_path, grid3):
    # a restamped document whose structure is wrong is refused with the
    # path, never with a bare KeyError
    body = thicken(from_vertices(grid3, np.array([[0.2, 0.0, 0.0]])), 0.8)
    path = _save_edited(body_doc(body), str(tmp_path / "body.json"),
                        lambda d: d["minkowski_terms"][0].pop("vertices"))
    with pytest.raises(InputError, match="invalid convex_body document") as info:
        load_body(path)
    assert path in str(info.value)

    def negative_sample(d):
        d["radial"][0] = -1.0

    path = _save_edited(body_doc(from_radial(grid3, np.ones(grid3.size))),
                        str(tmp_path / "radial.json"), negative_sample)
    with pytest.raises(InputError, match="radial sample") as info:
        load_body(path)
    assert path in str(info.value)


def test_load_body_refuses_a_profile_that_is_not_even(tmp_path, grid3):
    # a profile document loads through radial_body, which refuses a
    # polynomial with an odd part
    phi = sample_unit_F(3, 8, 1, seed=1, grid=grid3)[0]
    assert phi.basis.degrees[1] == 1

    def odd_part(d):
        d["radial_profile"]["poly"]["coeffs"][1] = 0.5

    path = _save_edited(body_doc(radial_body(grid3, phi, 0.02)), str(tmp_path / "odd.json"),
                        odd_part)
    with pytest.raises(InputError, match="must be even") as info:
        load_body(path)
    assert path in str(info.value)


@pytest.mark.parametrize("key, value", [("radial", "nan"), ("support", "inf")])
def test_load_body_refuses_non_finite_samples(tmp_path, grid3, key, value):
    # json parses NaN and Infinity; restamped, the document passes the hash check
    body = from_radial(grid3, np.ones(grid3.size))
    doc = body_doc(body)
    if key == "support":
        doc["support"] = doc.pop("radial")

    def edit(d):
        d[key][5] = float(value)

    path = _save_edited(doc, str(tmp_path / "body.json"), edit)
    with pytest.raises(InputError, match=f"{key} sample {value} is not finite") as info:
        load_body(path)
    assert path in str(info.value)


def test_load_poly_refuses_non_finite_coefficients(tmp_path, grid3):
    p = project(grid3, grid3.nodes[:, 0] ** 2 - grid3.nodes[:, 1] ** 2, 4)

    def edit(d):
        d["coeffs"][1] = float("nan")

    path = _save_edited(poly_doc(p), str(tmp_path / "poly.json"), edit)
    with pytest.raises(InputError, match="polynomial coefficient nan is not finite") as info:
        load_poly(path)
    assert path in str(info.value)


def test_load_poly_wraps_structural_faults(tmp_path, grid3):
    p = project(grid3, grid3.nodes[:, 0] ** 2 - grid3.nodes[:, 1] ** 2, 4)
    path = _save_edited(poly_doc(p), str(tmp_path / "poly.json"), lambda d: d.pop("coeffs"))
    with pytest.raises(InputError, match="invalid spherical_poly document") as info:
        load_poly(path)
    assert path in str(info.value)


def test_load_field_wraps_structural_faults(tmp_path, grid3):
    frames = random_frames(3, 3, 2, np.random.default_rng(1))
    fld = quad_pair_field(grid3, frames, np.diag([1.0, -0.5, -0.5]), np.diag([1.0, 0.0, -1.0]),
                          t=0.4, rho=0.05)
    path = _save_edited(field_doc(fld), str(tmp_path / "field.json"),
                        lambda d: d["bodies"][1]["minkowski_terms"][0].pop("weight"))
    with pytest.raises(InputError, match="invalid body_field document") as info:
        load_field(path)
    assert path in str(info.value)


def _set_weight(d):
    d["minkowski_terms"][0]["weight"] = -1.0


def _set_nan_vertex(d):
    d["minkowski_terms"][0]["vertices"][0][1] = float("nan")


def _set_radius(d):
    d["ball_radius"] = -3.0


def _empty_term(d):
    d["minkowski_terms"][0]["vertices"] = []


@pytest.mark.parametrize("edit, message", [
    (_set_weight, "weight"),
    (_set_nan_vertex, "not finite"),
    (_set_radius, "ball radius"),
    (_empty_term, "not lists of points"),
])
def test_load_body_refuses_invalid_terms(tmp_path, grid3, edit, message):
    # restamped so the hash check passes; the term check must refuse it
    body = thicken(from_vertices(grid3, np.array([[0.2, 0.0, 0.0], [0.0, 0.3, 0.0]])), 0.5)
    path = _save_edited(body_doc(body), str(tmp_path / "body.json"), edit)
    with pytest.raises(InputError, match=message) as info:
        load_body(path)
    assert path in str(info.value)


def test_top_level_vertices_document_has_no_geometry(tmp_path, grid3):
    doc = body_doc(from_vertices(grid3, np.eye(3)))
    doc["vertices"] = doc.pop("minkowski_terms")[0]["vertices"]
    path = str(tmp_path / "old.json")
    dump_json(_restamp(doc), path)
    with pytest.raises(InputError, match="no geometry"):
        load_body(path)

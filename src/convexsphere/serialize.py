"""JSON persistence for grids, polynomials, bodies and fields.

Every document carries a kind tag, the toolkit version, and a content
hash over its canonical payload, so reports embedding a document can
state exactly what they were computed from. Loaders recompute that
hash and refuse a document whose payload no longer matches it.
Polynomial, body and field documents record the grid_key of their
grid, and loaders refuse a document whose key differs from the grid it
is loaded on (documents without a key still load). A body document
holds the body's one description and loads through the constructor of
its kind; a field document holds its frames and bodies (keys that older
documents carry beside them are covered by the hash and otherwise
ignored). Terms are listed one by one, {"weight", "vertices"} each, and
bodies.from_terms refuses negative or non-finite weights and radii and
empty or non-finite vertex sets; fields.radial_body refuses a profile
that is not even or not positive; validate_body refuses support samples
that are not positive or not all attained. Every invalid document is refused
with an InputError naming its path. Nothing here writes timestamps; rerunning
a command on the same input produces byte-identical files.
"""

import json
import os

import numpy as np

from .bodies import ConvexBody, from_radial, from_support_samples, from_terms, validate_body
from .errors import ConvexSphereError, InputError
from .fields import BodyField, radial_body
from .polynomials import SphericalPoly, get_basis
from .sphere import SphereGrid, build_grid
from .util import _jsonable, content_hash

FORMAT_VERSION = 1


def _finalize(doc: dict) -> dict:
    from . import __version__

    doc["format_version"] = FORMAT_VERSION
    doc["toolkit_version"] = __version__
    doc["content_hash"] = content_hash(
        {k: v for k, v in doc.items() if k != "content_hash"}
    )
    return doc


def dump_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=_jsonable)
        fh.write("\n")


def load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc


def _load_checked(path: str, kind: str, build):
    """Read a saved document, check its kind, recompute its content
    hash, so a document edited after it was stamped is refused, and
    build the object with build(doc). Every package error that build
    raises (an InputError, a non-positive radial sample), and every
    structural fault it meets (missing keys, wrong types or values),
    leaves here as an InputError naming the path."""
    doc = load_json(path)
    if doc.get("kind") != kind:
        raise InputError(f"{path}: expected kind {kind!r}, found {doc.get('kind')!r}")
    stored = doc.get("content_hash")
    if stored is None:
        raise InputError(f"{path}: document has no content_hash")
    if stored != content_hash({k: v for k, v in doc.items() if k != "content_hash"}):
        raise InputError(f"{path}: content_hash does not match the document")
    try:
        return build(doc)
    except ConvexSphereError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: invalid {kind} document ({exc!r})") from exc


# -- grids -------------------------------------------------------------------


def grid_meta(grid: SphereGrid) -> dict:
    return {"n": grid.n, "resolution": grid.resolution, "grid_key": grid.key}


def grid_from_meta(meta: dict, grid: SphereGrid | None = None) -> SphereGrid:
    """The grid a document was computed on: rebuilt from its n and
    resolution, or the one given. A stored grid_key must match it;
    documents written before keys were stored carry none and are not
    checked."""
    if grid is None:
        grid = build_grid(int(meta["n"]), int(meta["resolution"]))
    want = meta.get("grid_key")
    if want is not None and want != grid.key:
        raise InputError(
            f"grid key mismatch: the document stores {want}, the grid is {grid.key}"
        )
    return grid


# -- spherical polynomials ---------------------------------------------------


def poly_doc(poly: SphericalPoly) -> dict:
    doc = {
        "kind": "spherical_poly",
        **grid_meta(poly.grid),
        "d": poly.d,
        "coeffs": poly.coeffs.tolist(),
    }
    return _finalize(doc)


def save_poly(poly: SphericalPoly, path: str) -> None:
    dump_json(poly_doc(poly), path)


def poly_from_doc(doc: dict, grid: SphereGrid | None = None) -> SphericalPoly:
    n, d = int(doc["n"]), int(doc["d"])
    grid = grid_from_meta(doc, grid)
    return SphericalPoly(doc["coeffs"], get_basis(n, d, grid))


def load_poly(path: str, grid: SphereGrid | None = None) -> SphericalPoly:
    return _load_checked(path, "spherical_poly", lambda doc: poly_from_doc(doc, grid))


# -- convex bodies -----------------------------------------------------------


def body_doc(body: ConvexBody) -> dict:
    doc = {
        "kind": "convex_body",
        **grid_meta(body.grid),
        "ball_radius": body.ball_radius,
    }
    if body.terms is not None:
        rows, offsets, weights = body.terms
        doc["minkowski_terms"] = [
            {"weight": w, "vertices": v.tolist()}
            for w, v in zip(weights.tolist(), np.split(rows, offsets[1:-1]))
        ]
    elif body.radial_profile is not None:
        eps, phi = body.radial_profile
        doc["radial_profile"] = {"eps": eps, "poly": poly_doc(phi)}
    elif body.sampled_radial is not None:
        doc["radial"] = body.sampled_radial.tolist()
    else:
        doc["support"] = body.sampled_support.tolist()
    return _finalize(doc)


def save_body(body: ConvexBody, path: str) -> None:
    dump_json(body_doc(body), path)


def body_from_doc(doc: dict, grid: SphereGrid | None = None) -> ConvexBody:
    grid = grid_from_meta(doc, grid)
    if "radial_profile" in doc:
        prof = doc["radial_profile"]
        return radial_body(grid, poly_from_doc(prof["poly"], grid), float(prof["eps"]))
    if "minkowski_terms" in doc:
        terms = doc["minkowski_terms"]
        verts = [np.asarray(t["vertices"], dtype=float) for t in terms]
        if any(v.ndim != 2 for v in verts):
            raise InputError("minkowski term vertices are not lists of points")
        return from_terms(
            grid,
            np.concatenate([np.empty((0, grid.n))] + verts),
            np.cumsum([0] + [v.shape[0] for v in verts]),
            [t["weight"] for t in terms],
            doc.get("ball_radius", 0.0),
        )
    for key, build in (("radial", from_radial), ("support", from_support_samples)):
        if key in doc:
            samples = np.asarray(doc[key], dtype=float)
            if samples.shape != (grid.size,):
                raise InputError(
                    f"{key} sample count {samples.shape} does not match grid size {grid.size}"
                )
            body = build(grid, samples)
            if key == "support":
                validate_body(body)
            return body
    raise InputError("body document has no geometry")


def load_body(path: str, grid: SphereGrid | None = None) -> ConvexBody:
    return _load_checked(path, "convex_body", lambda doc: body_from_doc(doc, grid))


# -- body fields -------------------------------------------------------------


def field_doc(fld: BodyField) -> dict:
    doc = {
        "kind": "body_field",
        **grid_meta(fld.grid),
        "frames": fld.frames.tolist(),
        "bodies": [body_doc(b) for b in fld.bodies],
    }
    return _finalize(doc)


def save_field(fld: BodyField, path: str) -> None:
    dump_json(field_doc(fld), path)


def load_field(path: str) -> BodyField:
    def build(doc):
        grid = grid_from_meta(doc)
        return BodyField(doc["frames"], [body_from_doc(b, grid) for b in doc["bodies"]])

    return _load_checked(path, "body_field", build)


def write_csv(path: str, columns: list, rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)

"""JSON persistence for grids, polynomials, bodies, fields, sweeps.

Every document carries a kind tag, the toolkit version, and a content
hash over its canonical payload, so reports embedding a document can
state exactly what they were computed from. Loaders recompute that
hash and refuse a document whose payload no longer matches it.
Polynomial, body and field documents record the grid_key of their
grid, and loaders refuse a document whose key differs from the grid it
is loaded on (documents without a key still load). Loaders rebuild
exact evaluators (vertex sets, Minkowski terms, radial profiles) rather
than trusting stored samples, and reject structurally invalid input
with the path in the message. Nothing here writes timestamps; rerunning
a command on the same input produces byte-identical files.
"""

import json
import os

import numpy as np

from .bodies import ConvexBody, from_radial, from_support_samples, from_vertices
from .errors import InputError
from .fields import BodyField
from .polynomials import SphericalPoly, get_basis
from .sphere import SphereGrid, build_grid
from .util import content_hash

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
        json.dump(doc, fh, indent=1, sort_keys=True, default=_np_default)
        fh.write("\n")


def _np_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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


def _load_checked(path: str, kind: str) -> dict:
    """Read a saved document, check its kind, and recompute its content
    hash, so a document edited after it was stamped is refused."""
    doc = load_json(path)
    if doc.get("kind") != kind:
        raise InputError(f"{path}: expected kind {kind!r}, found {doc.get('kind')!r}")
    stored = doc.get("content_hash")
    if stored is None:
        raise InputError(f"{path}: document has no content_hash")
    if stored != content_hash({k: v for k, v in doc.items() if k != "content_hash"}):
        raise InputError(f"{path}: content_hash does not match the document")
    return doc


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
    basis = get_basis(n, d, grid)
    coeffs = np.asarray(doc["coeffs"], dtype=float)
    if coeffs.shape != (basis.dim,):
        raise InputError(
            f"coefficient count {coeffs.shape} does not match basis dim {basis.dim}"
        )
    return SphericalPoly(n, d, coeffs, basis)


def load_poly(path: str, grid: SphereGrid | None = None) -> SphericalPoly:
    doc = _load_checked(path, "spherical_poly")
    return poly_from_doc(doc, grid)


# -- convex bodies -----------------------------------------------------------


def body_doc(body: ConvexBody) -> dict:
    doc = {
        "kind": "convex_body",
        **grid_meta(body.grid),
        "ball_radius": body.ball_radius,
    }
    if body.radial_profile is not None:
        eps, phi = body.radial_profile
        doc["radial_profile"] = {"eps": eps, "poly": poly_doc(phi)}
    elif body.minkowski_terms is not None:
        doc["minkowski_terms"] = [
            {"weight": w, "vertices": v.tolist()} for w, v in body.minkowski_terms
        ]
    elif body.vertices is not None:
        doc["vertices"] = body.vertices.tolist()
    elif body.radial is not None:
        doc["radial"] = body.radial.tolist()
    else:
        doc["support"] = body.support.tolist()
    return _finalize(doc)


def save_body(body: ConvexBody, path: str) -> None:
    dump_json(body_doc(body), path)


def body_from_doc(doc: dict, grid: SphereGrid | None = None) -> ConvexBody:
    n = int(doc["n"])
    grid = grid_from_meta(doc, grid)
    rho = float(doc.get("ball_radius", 0.0))
    if "radial_profile" in doc:
        prof = doc["radial_profile"]
        phi = poly_from_doc(prof["poly"], grid)
        eps = float(prof["eps"])
        return from_radial(grid, 1.0 + eps * phi.samples, profile=(eps, phi))
    if "minkowski_terms" in doc:
        terms = [
            (float(t["weight"]), np.asarray(t["vertices"], dtype=float))
            for t in doc["minkowski_terms"]
        ]
        for _, v in terms:
            if v.ndim != 2 or v.shape[1] != n:
                raise InputError("minkowski term vertices must be points in R^n")
        body = ConvexBody(
            grid, np.empty(grid.size), minkowski_terms=terms, ball_radius=rho
        )
        body.support = body.support_eval(grid.nodes)
        return body
    if "vertices" in doc:
        verts = np.asarray(doc["vertices"], dtype=float)
        if verts.ndim != 2 or verts.shape[1] != n:
            raise InputError("vertices must be points in R^n")
        body = from_vertices(grid, verts)
        if rho:
            body.minkowski_terms = [(1.0, verts)]
            body.vertices = None
            body.ball_radius = rho
            body.support = body.support_eval(grid.nodes)
        return body
    if "radial" in doc:
        r = np.asarray(doc["radial"], dtype=float)
        if r.shape != (grid.size,):
            raise InputError(
                f"radial sample count {r.shape} does not match grid size {grid.size}"
            )
        return from_radial(grid, r)
    if "support" in doc:
        h = np.asarray(doc["support"], dtype=float)
        if h.shape != (grid.size,):
            raise InputError(
                f"support sample count {h.shape} does not match grid size {grid.size}"
            )
        return from_support_samples(grid, h, ball_radius=rho)
    raise InputError("body document has no geometry")


def load_body(path: str, grid: SphereGrid | None = None) -> ConvexBody:
    doc = _load_checked(path, "convex_body")
    try:
        return body_from_doc(doc, grid)
    except InputError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: invalid body document ({exc})") from exc


# -- body fields -------------------------------------------------------------


def field_doc(fld: BodyField) -> dict:
    doc = {
        "kind": "body_field",
        **grid_meta(fld.grid),
        "frames": fld.frames.tolist(),
        "descriptor": fld.descriptor,
        "adjacency": [list(p) for p in fld.adjacency],
        "bodies": [body_doc(b) for b in fld.bodies],
    }
    return _finalize(doc)


def save_field(fld: BodyField, path: str) -> None:
    dump_json(field_doc(fld), path)


def load_field(path: str) -> BodyField:
    doc = _load_checked(path, "body_field")
    grid = grid_from_meta(doc)
    frames = np.asarray(doc["frames"], dtype=float)
    bodies = [body_from_doc(b, grid) for b in doc["bodies"]]
    adjacency = [tuple(p) for p in doc.get("adjacency", [])] or None
    return BodyField(frames, bodies, doc.get("descriptor", {}), grid, adjacency)


# -- JSONL sweeps ------------------------------------------------------------


def write_jsonl(path: str, header: dict, rows) -> None:
    header = dict(header)
    header.setdefault("kind", "sweep")
    with open(path, "w") as fh:
        fh.write(json.dumps(_finalize(header), sort_keys=True, default=_np_default))
        fh.write("\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, default=_np_default))
            fh.write("\n")


def read_jsonl(path: str):
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise InputError(
                    f"malformed JSON in {path} at line {ln}: {exc.msg}"
                ) from exc
    if not rows:
        raise InputError(f"{path} is empty")
    return rows[0], rows[1:]


def write_csv(path: str, columns: list, rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)

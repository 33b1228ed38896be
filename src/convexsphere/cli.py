"""Command-line drivers.

Six subcommands: metrics (distances between two stored bodies),
counterexample (certified-epsilon pipeline and field sweep), round2d
(round-section search), symmetrize (group averaging), swclass (mod-2
obstruction classes), bivec (double-cover checks). Every report embeds
the resolved configuration, the toolkit version, the grid key, and a
content hash, and contains no timestamps, so reruns on identical input
are byte-identical.

Exit codes: 0 success, 1 the computation ran but the asserted property
failed (certification failures at an overridden eps, budget overflow),
2 invalid input (missing files, malformed JSON, bad parameters).
"""

import argparse
import os
import sys

import numpy as np
from scipy.linalg import expm

from . import __version__, bivectors as bv
from .bodies import (
    bm_distance,
    certify_convex_radial,
    check_c0_l2_bound,
    distance_to_ball,
    group_average,
    hausdorff,
    invariance_defect,
)
from .config import ExperimentConfig, _parse_pairs
from .errors import (
    BudgetExceeded,
    ConvexSphereError,
    GridMismatch,
    InputError,
    NonpositiveRadius,
)
from .fields import (
    DEPTH_TOL,
    find_epsilon,
    quad_pair_field,
    radial_body,
    sample_unit_F,
    separation_delta,
)
from .groups import random_rotations, sample_group
from .mod2poly import express_elementary, stiefel_whitney_top, sw_product_chain
from .polynomials import odd_even_split
from .sections import (
    cube_family,
    ellipsoid_family,
    polytope_family,
    round_section_search,
)
from .serialize import (
    _finalize,
    dump_json,
    load_body,
    load_json,
    poly_doc,
    save_body,
    write_csv,
)
from .sphere import build_grid, integrate


def _out_dir(cfg: ExperimentConfig) -> str:
    out = cfg.out or os.environ.get("CONVEXSPHERE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _report(cfg: ExperimentConfig, name: str, payload: dict) -> dict:
    doc = {"kind": f"report/{name}", "config": cfg.to_dict()}
    doc.update(payload)
    doc = _finalize(doc)
    path = os.path.join(_out_dir(cfg), f"{name}.json")
    dump_json(doc, path)
    print(f"wrote {path}")
    return doc


def cmd_metrics(cfg: ExperimentConfig) -> int:
    if not cfg.body_a or not cfg.body_b:
        raise InputError("metrics needs body_a=<path> and body_b=<path>")
    a = load_body(cfg.body_a)
    b = load_body(cfg.body_b)
    if a.grid != b.grid:
        raise GridMismatch(
            f"bodies live on different grids: n={a.n} r={a.grid.resolution} "
            f"vs n={b.n} r={b.grid.resolution}"
        )
    bound = check_c0_l2_bound(a.grid, a.support, b.support)
    rows = {
        "grid": {"n": a.n, "resolution": a.grid.resolution, "grid_key": a.grid.key},
        "banach_mazur": bm_distance(a, b, refine=True),
        "hausdorff": hausdorff(a, b),
        "distance_to_ball_a": distance_to_ball(a),
        "distance_to_ball_b": distance_to_ball(b),
        "c0_l2": bound,
    }
    _report(cfg, "metrics", rows)
    print(
        f"d_bm={rows['banach_mazur']:.6g} d_h={rows['hausdorff']:.6g} "
        f"c0<=bound: {bound['ok']}"
    )
    return 0


_SWEEP_FRAMES = 21  # frames along the path of the octahedron field sweep


def _octahedron_field_sweep(grid, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    amb = []
    for _ in range(2):
        a = rng.normal(size=(5, 5))
        a = 0.5 * (a + a.T)
        amb.append(a - (np.trace(a) / 5.0) * np.eye(5))
    w0 = np.linalg.qr(rng.normal(size=(5, 3)))[0].T
    skew = rng.normal(size=(5, 5))
    skew = skew - skew.T
    frames = np.stack(
        [w0 @ expm(s * skew) for s in np.linspace(0.0, 0.4, _SWEEP_FRAMES)]
    )
    rep = quad_pair_field(grid, frames, amb[0], amb[1]).continuity_report()
    return {
        "frames": _SWEEP_FRAMES,
        "max_adjacent_d_h": rep["max_d_h"],
        "pairs": rep["pairs"],
    }


def cmd_counterexample(cfg: ExperimentConfig) -> int:
    if cfg.n not in (3, 4):
        raise InputError(f"counterexample needs n in {{3, 4}}, got n={cfg.n}")
    if cfg.samples < 1:
        raise InputError(f"counterexample needs samples >= 1, got {cfg.samples}")
    if cfg.eps is not None and not (np.isfinite(cfg.eps) and cfg.eps >= 0):
        raise InputError(f"counterexample needs a finite eps >= 0, got {cfg.eps}")
    grid = build_grid(cfg.n, cfg.resolution)
    payload = {"n": cfg.n, "grid_key": grid.key}
    phis = sample_unit_F(cfg.n, cfg.d, cfg.samples, cfg.seed, grid)
    if cfg.eps is None:
        manifest = find_epsilon(
            cfg.n, cfg.samples, cfg.seed, grid=grid, d=cfg.d, phis=phis
        )
        eps = manifest["eps_star"]
        payload["eps_source"] = "bisection"
        payload["find_epsilon"] = {
            k: v for k, v in manifest.items() if k != "history"
        }
    else:
        eps = cfg.eps
        payload["eps_source"] = "override"
    payload["eps"] = eps

    bodies = []
    failures = []
    for i, phi in enumerate(phis):
        try:
            body = radial_body(grid, phi, eps)
        except (InputError, NonpositiveRadius):
            failures.append((i, "radius"))
            continue
        # a bisected eps_star has passed find_epsilon's own certificate on
        # every sample; only a given eps needs checking
        if cfg.eps is None or certify_convex_radial(
            body, tol=DEPTH_TOL * float(body.radial.max())
        ):
            bodies.append(body)
        else:
            failures.append((i, "certificate"))
    payload["certified"] = len(bodies)
    payload["failed"] = len(failures)
    payload["pass_rate"] = len(bodies) / max(1, cfg.samples)

    if failures:
        idx, why = failures[0]
        dump = {
            "kind": "failing_sample",
            "sample_index": idx,
            "reason": why,
            "eps": eps,
            "poly": poly_doc(phis[idx]),
        }
        path = os.path.join(_out_dir(cfg), "failing_sample.json")
        dump_json(_finalize(dump), path)
        payload["failing_sample"] = path
        _report(cfg, "counterexample", payload)
        print(
            f"certification failed on {len(failures)}/{cfg.samples} samples "
            f"at eps={eps:.6g}; first failure written to {path}"
        )
        return 1

    payload["delta"] = separation_delta(bodies)
    if cfg.n == 3:
        sweep = _octahedron_field_sweep(grid, cfg.seed)
        payload["octahedron_sweep"] = sweep
        csv_path = os.path.join(_out_dir(cfg), "octahedron_sweep.csv")
        write_csv(
            csv_path,
            ["i", "j", "d_h"],
            [(p["i"], p["j"], repr(p["d_h"])) for p in sweep["pairs"]],
        )
        payload["octahedron_sweep_csv"] = csv_path
    _report(cfg, "counterexample", payload)
    print(
        f"eps={eps:.6g} certified {len(bodies)}/{cfg.samples} "
        f"delta={payload['delta']:.6g}"
    )
    return 0


def cmd_round2d(cfg: ExperimentConfig) -> int:
    fam_name = cfg.family or ("ellipsoid" if cfg.axes else None)
    if fam_name == "ellipsoid":
        if not cfg.axes:
            raise InputError("round2d family=ellipsoid needs axes=a,b,c")
        family = ellipsoid_family(cfg.axes)
    elif fam_name == "cube":
        if not cfg.ambient_n:
            raise InputError("round2d family=cube needs ambient_n=<N>")
        family = cube_family(cfg.ambient_n)
    elif fam_name == "polytope":
        if not cfg.vertices:
            raise InputError("round2d family=polytope needs vertices=<path>")
        doc = load_json(cfg.vertices)
        pts = doc["vertices"] if isinstance(doc, dict) else doc
        family = polytope_family(np.asarray(pts, dtype=float))
    else:
        raise InputError("round2d needs family in {ellipsoid, cube, polytope}")

    tol = cfg.tol if cfg.tol is not None else 1e-8
    out = round_section_search(family, d=cfg.d, tol=tol, seed=cfg.seed)
    payload = {
        "family": fam_name,
        "ambient_dim": family.ambient_dim,
        "frame": out["frame"].tolist(),
        "radius": out["radius"],
        "energy": out["energy"],
        "converged": out["converged"],
        "trace": out["trace"],
    }
    _report(cfg, "round2d", payload)
    state = "round section" if out["converged"] else "best frame found (no round section)"
    print(f"{state}: radius={out['radius']:.9g} energy={out['energy']:.3g}")
    return 0


def cmd_symmetrize(cfg: ExperimentConfig) -> int:
    if not cfg.body:
        raise InputError("symmetrize needs body=<path>")
    body = load_body(cfg.body)
    tag = cfg.group or "pm"
    sample = sample_group(tag, body.n, cfg.count, seed=cfg.seed)
    before = invariance_defect(body, sample)
    avg = group_average(body, sample)
    after = invariance_defect(avg, sample)
    odd = odd_even_split(body.grid, body.support)[1]
    odd_residual = float(np.sqrt(integrate(body.grid, odd**2)))
    out_path = os.path.join(_out_dir(cfg), "averaged_body.json")
    save_body(avg, out_path)
    payload = {
        "group": tag,
        "elements": int(sample.elements.shape[0]),
        "defect_before": before,
        "defect_after": after,
        "hausdorff_to_average": hausdorff(body, avg),
        "odd_residual_l2": odd_residual,
        "averaged_body": out_path,
    }
    _report(cfg, "symmetrize", payload)
    print(
        f"defect {before:.3g} -> {after:.3g}, "
        f"d_h(body, avg)={payload['hausdorff_to_average']:.6g}"
    )
    return 0


def cmd_swclass(cfg: ExperimentConfig) -> int:
    payload = {"n": cfg.n}
    try:
        if cfg.chain:
            d_max = cfg.d_max if cfg.d_max is not None else cfg.d
            chain = sw_product_chain(cfg.n, d_max)
            poly = chain["poly"]
            payload.update(mode="chain", d_max=d_max, stages=chain["stages"],
                           all_ones=chain["all_ones"])
        else:
            top = stiefel_whitney_top(cfg.n, cfg.d, allow_even=cfg.allow_even)
            poly = top.poly
            payload.update(mode="single", d=cfg.d, factor_count=top.factor_count,
                           all_ones=top.all_ones)
        payload.update(monomials=poly.monomial_count, degree=poly.degree())
    except BudgetExceeded as exc:
        partial = exc.details.get("partial")
        payload.update(
            {
                "mode": "chain" if cfg.chain else "single",
                "budget_exceeded": str(exc),
                "partial_monomials": None if partial is None else partial.monomial_count,
            }
        )
        _report(cfg, "swclass", payload)
        print(f"budget exceeded: {exc}")
        return 1

    if poly.monomial_count <= 4096:
        payload["exponents"] = poly.exponents().tolist()
    if cfg.elementary:
        expr = express_elementary(poly)
        payload["elementary"] = sorted([list(k) for k in expr])
    _report(cfg, "swclass", payload)
    print(
        f"monomials={poly.monomial_count} degree={poly.degree()} "
        f"all_ones={payload['all_ones']}"
    )
    return 0


def cmd_bivec(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    hom = 0.0
    for _ in range(cfg.trials):
        r1, r2 = random_rotations(4, 2, rng)
        for sign in (+1, -1):
            lhs = bv.rho_pm(r1 @ r2, sign)
            rhs = bv.rho_pm(r1, sign) @ bv.rho_pm(r2, sign)
            hom = max(hom, float(np.max(np.abs(lhs - rhs))))
    wedge = [0.0, 0.0, 0.0]
    for _ in range(cfg.trials):
        wp = bv.unit_pm(+1, rng.normal(size=3))
        wm = bv.unit_pm(-1, rng.normal(size=3))
        wedge[0] = max(wedge[0], abs(bv.wedge_coeff(wp, wp) - 1.0))
        wedge[1] = max(wedge[1], abs(bv.wedge_coeff(wm, wm) + 1.0))
        wedge[2] = max(wedge[2], abs(bv.wedge_coeff(wp, wm)))
    torus = sample_group("torus", 4, cfg.count, seed=cfg.seed)
    omega = bv.unit_pm(+1, [1.0, 0.0, 0.0])
    torus_reports = [bv.invariant_plane_check(el, omega) for el in torus.elements]
    preimages = []
    for axis in range(3):
        target = bv.axis_rotation3(axis, np.pi / 3)
        got = bv.rho_preimage(target, +1)
        preimages.append(
            {"axis": axis, "residual": got["residual"], "converged": got["converged"]}
        )
    payload = {
        "trials": cfg.trials,
        "homomorphism_defect": hom,
        "wedge_defects": {
            "self_dual": wedge[0],
            "anti_self_dual": wedge[1],
            "mixed": wedge[2],
        },
        "torus_all_ok": all(r["ok"] for r in torus_reports),
        "torus_reports": torus_reports,
        "preimages": preimages,
    }
    _report(cfg, "bivec", payload)
    residuals = ", ".join(f"{p['residual']:.2g}" for p in preimages)
    print(
        f"homomorphism defect {hom:.3g}, torus planes ok: {payload['torus_all_ok']}, "
        f"preimage residuals [{residuals}]"
    )
    return 0


_COMMANDS = {
    "metrics": cmd_metrics,
    "counterexample": cmd_counterexample,
    "round2d": cmd_round2d,
    "symmetrize": cmd_symmetrize,
    "swclass": cmd_swclass,
    "bivec": cmd_bivec,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexsphere",
        description="Support-function calculus and obstruction checks on spheres.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} driver")
        p.add_argument(
            "settings",
            nargs="*",
            help="key=value settings (see convexsphere.config for keys)",
        )
        p.add_argument("--config", help="JSON config file; key=value settings override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base = ExperimentConfig.from_json_file(args.config).to_dict() if args.config else {}
        cfg = ExperimentConfig.from_dict(
            {**base, **_parse_pairs(args.settings), "experiment": args.command}
        )
        return _COMMANDS[args.command](cfg)
    except ConvexSphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line drivers: convexsphere [--config FILE] COMMAND [key=value ...].

Six commands: metrics (distances between two stored bodies),
counterexample (certified-epsilon pipeline and field sweep), round2d
(round-section search), symmetrize (group averaging), swclass (mod-2
obstruction classes), bivec (double-cover checks). Each cmd_* returns
(payload, exit code, summary) and main writes the one report. Every
report embeds the resolved configuration, the toolkit version, the grid
key, and a content hash, names the files beside it by file name, and
contains no timestamps, so reruns on identical input are byte-identical.

Exit codes: 0 success, 1 the computation ran but the asserted property
failed (certification failures at an overridden eps, budget overflow),
2 invalid input (missing files, malformed JSON, bad parameters).
"""

import argparse
import os
import sys

import numpy as np

from . import __version__, bivectors as bv
from .bodies import (bm_distance, check_c0_l2_bound, distance_to_ball, group_average, hausdorff,
                     invariance_defect)
from .config import ExperimentConfig, _parse_pairs
from .errors import BudgetExceeded, ConvexSphereError, GridMismatch, InputError, NonpositiveRadius
from .fields import (depth_certificate, find_epsilon, quad_pair_field, radial_body, sample_unit_F,
                     separation_delta)
from .groups import random_rotations, sample_group
from .mod2poly import express_elementary, stiefel_whitney_top, sw_product_chain
from .polynomials import odd_even_split
from .sections import cube_family, ellipsoid_family, polytope_family, round_section_search
from .serialize import _finalize, dump_json, load_body, load_json, poly_doc, save_body, write_csv
from .sphere import build_grid, integrate
from .util import skew_exp


def _out_dir(cfg: ExperimentConfig) -> str:
    out = cfg.out or os.environ.get("CONVEXSPHERE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _report(cfg: ExperimentConfig, out: str, name: str, payload: dict) -> str:
    """Write the report of a command into out; its config leaves out the
    output directory, so the same run gives the same bytes in any one."""
    path = os.path.join(out, f"{name}.json")
    config = {k: v for k, v in cfg.to_dict().items() if k != "out"}
    dump_json(_finalize({"kind": f"report/{name}", "config": config, **payload}), path)
    return path


def cmd_metrics(cfg: ExperimentConfig, out: str) -> tuple[dict, int, str]:
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
    return rows, 0, (
        f"d_bm={rows['banach_mazur']:.6g} d_h={rows['hausdorff']:.6g} "
        f"c0<=bound: {bound['ok']}"
    )


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
    frames = w0 @ skew_exp(skew, np.linspace(0.0, 0.4, _SWEEP_FRAMES))
    rep = quad_pair_field(grid, frames, amb[0], amb[1]).continuity_report()
    return {
        "frames": _SWEEP_FRAMES,
        "max_adjacent_d_h": rep["max_d_h"],
        "pairs": rep["pairs"],
    }


def cmd_counterexample(cfg: ExperimentConfig, out: str) -> tuple[dict, int, str]:
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
        if cfg.eps is None or depth_certificate(grid, body.radial)[0]:
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
        payload["failing_sample"] = "failing_sample.json"
        path = os.path.join(out, payload["failing_sample"])
        dump_json(_finalize(dump), path)
        return payload, 1, (
            f"certification failed on {len(failures)}/{cfg.samples} samples "
            f"at eps={eps:.6g}; first failure written to {path}"
        )

    payload["delta"] = separation_delta(bodies)
    if cfg.n == 3:
        sweep = _octahedron_field_sweep(grid, cfg.seed)
        payload["octahedron_sweep"] = sweep
        payload["octahedron_sweep_csv"] = "octahedron_sweep.csv"
        write_csv(
            os.path.join(out, payload["octahedron_sweep_csv"]),
            ["i", "j", "d_h"],
            [(p["i"], p["j"], repr(p["d_h"])) for p in sweep["pairs"]],
        )
    return payload, 0, (
        f"eps={eps:.6g} certified {len(bodies)}/{cfg.samples} "
        f"delta={payload['delta']:.6g}"
    )


def cmd_round2d(cfg: ExperimentConfig, out: str) -> tuple[dict, int, str]:
    fam_name = cfg.family or ("ellipsoid" if cfg.axes else None)
    if fam_name == "ellipsoid":
        if not cfg.axes:
            raise InputError("round2d family=ellipsoid needs axes=a,b,c")
        family = ellipsoid_family(cfg.axes)
    elif fam_name == "cube":
        if cfg.ambient_n is None or cfg.ambient_n < 2:
            raise InputError(f"round2d family=cube needs ambient_n >= 2, got {cfg.ambient_n}")
        family = cube_family(cfg.ambient_n)
    elif fam_name == "polytope":
        if not cfg.vertices:
            raise InputError("round2d family=polytope needs vertices=<path>")
        doc = load_json(cfg.vertices)
        try:
            pts = np.asarray(doc["vertices"] if isinstance(doc, dict) else doc, dtype=float)
        except (KeyError, TypeError, ValueError):
            pts = None
        if pts is None or pts.ndim != 2 or not np.isfinite(pts).all():
            raise InputError(f"{cfg.vertices}: no finite vertex list, bare or under 'vertices'")
        family = polytope_family(pts)
    else:
        raise InputError("round2d needs family in {ellipsoid, cube, polytope}")

    tol = cfg.tol if cfg.tol is not None else 1e-8
    found = round_section_search(family, d=cfg.d, tol=tol, seed=cfg.seed)
    payload = {
        "family": fam_name,
        "ambient_dim": family.ambient_dim,
        "frame": found["frame"].tolist(),
        "radius": found["radius"],
        "energy": found["energy"],
        "converged": found["converged"],
        "trace": found["trace"],
    }
    state = "round section" if found["converged"] else "best frame found (no round section)"
    return payload, 0, f"{state}: radius={found['radius']:.9g} energy={found['energy']:.3g}"


def cmd_symmetrize(cfg: ExperimentConfig, out: str) -> tuple[dict, int, str]:
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
    save_body(avg, os.path.join(out, "averaged_body.json"))
    payload = {
        "group": tag,
        "elements": int(sample.elements.shape[0]),
        "defect_before": before,
        "defect_after": after,
        "hausdorff_to_average": hausdorff(body, avg),
        "odd_residual_l2": odd_residual,
        "averaged_body": "averaged_body.json",
    }
    return payload, 0, (
        f"defect {before:.3g} -> {after:.3g}, "
        f"d_h(body, avg)={payload['hausdorff_to_average']:.6g}"
    )


def cmd_swclass(cfg: ExperimentConfig, out: str) -> tuple[dict, int, str]:
    payload = {"n": cfg.n, "mode": "chain" if cfg.chain else "single"}
    try:
        if cfg.chain:
            d_max = cfg.d_max if cfg.d_max is not None else cfg.d
            chain = sw_product_chain(cfg.n, d_max)
            poly = chain["poly"]
            payload.update(d_max=d_max, stages=chain["stages"],
                           all_ones=chain["all_ones"])
        else:
            top = stiefel_whitney_top(cfg.n, cfg.d, allow_even=cfg.allow_even)
            poly = top.poly
            payload.update(d=cfg.d, factor_count=top.factor_count,
                           all_ones=top.all_ones)
        payload.update(monomials=poly.monomial_count, degree=poly.degree())
    except BudgetExceeded as exc:
        partial = exc.details.get("partial")
        payload["budget_exceeded"] = str(exc)
        payload["partial_monomials"] = None if partial is None else partial.monomial_count
        return payload, 1, f"budget exceeded: {exc}"

    if poly.monomial_count <= 4096:
        payload["exponents"] = poly.exponents().tolist()
    if cfg.elementary:
        expr = express_elementary(poly)
        payload["elementary"] = sorted([list(k) for k in expr])
    return payload, 0, (
        f"monomials={poly.monomial_count} degree={poly.degree()} "
        f"all_ones={payload['all_ones']}"
    )


def cmd_bivec(cfg: ExperimentConfig, out: str) -> tuple[dict, int, str]:
    if cfg.trials < 1:
        raise InputError(f"bivec needs trials >= 1, got {cfg.trials}")
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
    residuals = ", ".join(f"{p['residual']:.2g}" for p in preimages)
    return payload, 0, (
        f"homomorphism defect {hom:.3g}, torus planes ok: {payload['torus_all_ok']}, "
        f"preimage residuals [{residuals}]"
    )


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
    parser.add_argument("--config", help="JSON config file; key=value settings override")
    parser.add_argument("command", choices=_COMMANDS, help="the driver to run")
    parser.add_argument("settings", nargs="*", help="key=value settings (keys: convexsphere.config)")
    return parser


def main(argv=None) -> int:
    # intermixed, so that --config may follow the command or a setting
    args = build_parser().parse_intermixed_args(argv)
    try:
        base = ExperimentConfig.from_json_file(args.config).to_dict() if args.config else {}
        cfg = ExperimentConfig.from_dict(
            {**base, **_parse_pairs(args.settings), "experiment": args.command}
        )
        out = _out_dir(cfg)
        payload, code, summary = _COMMANDS[args.command](cfg, out)
        path = _report(cfg, out, args.command, payload)
    except ConvexSphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path}\n{summary}")
    return code


if __name__ == "__main__":
    sys.exit(main())

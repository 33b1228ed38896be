"""Spans around the calls into convexsphere's layers, from outside the library.

`install(tracer)` replaces module attributes (and two methods) with
wrappers that record one span per call: name, start, end, parent and a
small info dict. Spans are kept in memory; `layer_metrics` turns them
into per-layer self times and counts, and `Tracer.dump` writes them out.
Time spent on the tracer's own bookkeeping (notably the reachable-pair
census of hull_gaps, a full G x G scan) is taken off the span clock, so
it shows in no layer and not in the tracing overhead, which is left
with the cost of the span wrappers. While `tracer.active` is false the
wrappers call straight through and record nothing.
"""

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

KERNELS = ("support_max_dot", "hull_gaps", "minkowski_support", "radial_from_support")
CLI_COMMANDS = ("counterexample", "metrics", "symmetrize")

#: Span names whose self time is reported as `<name>.s`.
TIMED = (
    "sphere.build_grid",
    "polynomials.get_basis",
    "polynomials.eval_point",
    "polynomials.eval_batch",
    "polynomials.rotate_poly",
    "fields.sample_unit_F",
    "fields.find_epsilon",
    "fields.separation_delta",
    "bodies.polish",
    "bodies.certify_convex_radial",
    "bodies.support_eval",
    "bodies.group_average",
    "bodies.invariance_defect",
    "bodies.bm_distance",
    "bodies.distance_to_ball",
    "groups.sample_group",
    "serialize.save_body",
    "serialize.load_body",
    "serialize.dump_json",
) + tuple(f"backend.{k}" for k in KERNELS) + tuple(f"cli.main.{c}" for c in CLI_COMMANDS)

#: Counters reported as they are.
COUNTED = (
    "polynomials.get_basis.builds",
    "polynomials.eval_point.calls",
    "polynomials.eval_batch.points",
    "fields.find_epsilon.steps",
    "fields.find_epsilon.scans",
    "bodies.polish.calls",
    "bodies.polish.fevals",
    "bodies.certify_convex_radial.calls",
    "bodies.support_eval.points",
    "serialize.save_body.bytes",
    "serialize.load_body.bytes",
) + tuple(f"backend.{k}.{f}" for k in KERNELS for f in ("calls", "pairs", "bytes"))


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []        # [name, start, end, parent index, info]
        self.counts = defaultdict(float)
        self._stack = []
        self._excluded = 0.0   # bookkeeping seconds removed from the span clock

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def enclosing(self, name):
        """Info dict of the innermost open span called `name`, or None."""
        for idx in reversed(self._stack):
            if self.spans[idx][0] == name:
                return self.spans[idx][4]
        return None

    def call(self, name, fn, args, kwargs=None, info=None, after=None):
        """fn(*args, **kwargs) inside a span; `after(args, kwargs, result)`
        runs on the tracer's own time."""
        kwargs = kwargs or {}
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = [name, self.now(), None, parent, {} if info is None else info]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = self.now()
            self._stack.pop()
        if after is not None:
            t0 = time.perf_counter()
            after(args, kwargs, out)
            self._excluded += time.perf_counter() - t0
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in self.spans],
                fh,
            )


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def reachable_pairs(cloud, dirs) -> int:
    """Pairs (i, j) with <u_i, u_j> >= 1 - (rmax - rmin)/rmin, u_i the
    direction and r the norm of cloud point i: the only directions at
    which the hull gap of node i can be attained (ROADMAP item 3)."""
    r = np.linalg.norm(cloud, axis=1)
    rmin, rmax = float(r.min()), float(r.max())
    if rmin <= 0.0:
        return cloud.shape[0] * dirs.shape[0]
    thr = 1.0 - (rmax - rmin) / rmin
    u = cloud / r[:, None]
    return sum(
        int(np.count_nonzero(u[a:a + 256] @ dirs.T >= thr)) for a in range(0, u.shape[0], 256)
    )


def install(tracer: Tracer):
    """Wrap the library entry points for the rest of the process."""
    from convexsphere import backend, bodies, cli, fields, groups, polynomials, serialize, sphere

    count = tracer.counts

    def replace(owner, attr, wrapper):
        """Swap owner.attr, and every convexsphere module's imported copy of it."""
        original = getattr(owner, attr)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                m for name, m in list(sys.modules.items())
                if m is not owner and name.split(".")[0] == "convexsphere"
                and getattr(m, attr, None) is original
            ]
        for h in holders:
            setattr(h, attr, wrapper)

    def wrap(owner, attr, name, after=None, info=None):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            inf = info(args, kwargs) if info is not None and tracer.active else None
            return tracer.call(name, fn, args, kwargs, inf, after)

        replace(owner, attr, wrapper)

    def incr(key, by=1):
        count[key] += by

    # -- backend kernels: calls, pairs scanned, computed bytes ---------------
    def kernel(kname, m_pos, dirs_pos):
        def after(args, kwargs, out):
            dirs = np.asarray(args[dirs_pos])
            incr(f"backend.{kname}.calls")
            incr(f"backend.{kname}.pairs", np.shape(args[m_pos])[0] * dirs.shape[0])
            incr(f"backend.{kname}.bytes",
                 sum(a.nbytes for a in args if isinstance(a, np.ndarray)) + out.nbytes)
            if kname == "hull_gaps":
                incr("backend.hull_gaps.reachable", reachable_pairs(np.asarray(args[0]), dirs))
                fe = tracer.enclosing("fields.find_epsilon")
                if fe is not None and fe["grid_size"] == dirs.shape[0]:
                    incr("fields.find_epsilon.scans")

        wrap(backend, kname, f"backend.{kname}", after)

    kernel("support_max_dot", 0, 1)
    kernel("hull_gaps", 0, 1)
    kernel("minkowski_support", 0, 4)
    kernel("radial_from_support", 2, 1)

    wrap(sphere, "build_grid", "sphere.build_grid")
    wrap(groups, "sample_group", "groups.sample_group")

    # -- polynomials ---------------------------------------------------------
    cache = polynomials._BASIS_CACHE
    get_basis = polynomials.get_basis

    def get_basis_wrapper(*args, **kwargs):
        before = len(cache)
        return tracer.call("polynomials.get_basis", get_basis, args, kwargs, after=lambda a, k, out:
                           incr("polynomials.get_basis.builds", len(cache) - before))

    replace(polynomials, "get_basis", get_basis_wrapper)

    basis_eval = polynomials.Basis.eval

    def basis_eval_wrapper(self, points):
        if np.shape(points)[0] == 1:
            return tracer.call("polynomials.eval_point", basis_eval, (self, points),
                               after=lambda a, k, out: incr("polynomials.eval_point.calls"))
        return tracer.call("polynomials.eval_batch", basis_eval, (self, points),
                           after=lambda a, k, out: incr("polynomials.eval_batch.points",
                                                        np.shape(points)[0]))

    replace(polynomials.Basis, "eval", basis_eval_wrapper)
    wrap(polynomials, "rotate_poly", "polynomials.rotate_poly")

    # -- fields --------------------------------------------------------------
    def fe_info(args, kwargs):
        grid = _arg(args, kwargs, 3, "grid")
        return {"grid_size": None if grid is None else grid.size}

    def fe_after(args, kwargs, out):
        incr("fields.find_epsilon.calls")
        incr("fields.find_epsilon.steps", out["bisection_steps"])

    wrap(fields, "sample_unit_F", "fields.sample_unit_F")
    wrap(fields, "find_epsilon", "fields.find_epsilon", fe_after, fe_info)
    wrap(fields, "separation_delta", "fields.separation_delta")

    # -- bodies --------------------------------------------------------------
    polish = bodies._polish_extreme

    def polish_wrapper(fun, u0, maximize, *rest, **kwargs):
        if not tracer.active:
            return polish(fun, u0, maximize, *rest, **kwargs)
        seen = []

        def counted(pts):
            val = fun(pts)
            seen.append(float(val[0]))
            return val

        def after(args, kw, out):
            incr("bodies.polish.calls")
            incr("bodies.polish.fevals", len(seen))
            # the first evaluation is at u0, the grid node the polish starts from
            if seen and (out > seen[0] if maximize else out < seen[0]):
                incr("bodies.polish.improved_calls")

        return tracer.call("bodies.polish", polish, (counted, u0, maximize) + rest, kwargs,
                           after=after)

    replace(bodies, "_polish_extreme", polish_wrapper)

    wrap(bodies, "certify_convex_radial", "bodies.certify_convex_radial",
         lambda a, k, out: incr("bodies.certify_convex_radial.calls"))
    support_eval = bodies.ConvexBody.support_eval

    def support_eval_wrapper(self, points):
        return tracer.call("bodies.support_eval", support_eval, (self, points),
                           after=lambda a, k, out: incr("bodies.support_eval.points", out.shape[0]))

    replace(bodies.ConvexBody, "support_eval", support_eval_wrapper)
    for attr in ("group_average", "invariance_defect", "bm_distance", "distance_to_ball"):
        wrap(bodies, attr, f"bodies.{attr}")

    # -- serialize: file sizes of what was written and read -----------------
    wrap(serialize, "save_body", "serialize.save_body",
         lambda a, k, out: incr("serialize.save_body.bytes",
                                os.path.getsize(_arg(a, k, 1, "path"))))
    wrap(serialize, "load_body", "serialize.load_body",
         lambda a, k, out: incr("serialize.load_body.bytes",
                                os.path.getsize(_arg(a, k, 0, "path"))))
    wrap(serialize, "dump_json", "serialize.dump_json")

    # -- cli: one span name per subcommand ----------------------------------
    main = cli.main

    def main_wrapper(argv=None):
        command = (argv if argv is not None else sys.argv[1:])[0]
        return tracer.call(f"cli.main.{command}", main, (argv,))

    replace(cli, "main", main_wrapper)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Self times, counts and ratios of the spans recorded so far;
    `trace.coverage` is the share of `wall_s` inside top-level spans."""
    self_s = defaultdict(float)
    top = 0.0
    for name, start, end, parent, _ in tracer.spans:
        dur = end - start
        self_s[name] += dur
        if parent is None:
            top += dur
        else:
            self_s[tracer.spans[parent][0]] -= dur
    c = tracer.counts
    out = {f"{name}.s": self_s.get(name, 0.0) for name in TIMED}
    out.update({key: c.get(key, 0.0) for key in COUNTED})

    def ratio(num, den):
        return num / den if den else 0.0

    out["fields.find_epsilon.scans_per_step"] = ratio(
        c.get("fields.find_epsilon.scans", 0.0),
        c.get("fields.find_epsilon.steps", 0.0) + c.get("fields.find_epsilon.calls", 0.0),
    )
    out["bodies.polish.improved"] = ratio(
        c.get("bodies.polish.improved_calls", 0.0), c.get("bodies.polish.calls", 0.0))
    out["backend.hull_gaps.reachable_share"] = ratio(
        c.get("backend.hull_gaps.reachable", 0.0), c.get("backend.hull_gaps.pairs", 0.0))
    out["trace.coverage"] = ratio(top, wall_s)
    return out

"""Configuration parsing and end-to-end command-line drivers.

CLI tests call cli.main() in process with key=value settings and
inspect exit codes plus the JSON reports, so the whole argparse ->
config -> driver -> serialize path is covered without subprocesses.
"""

import json

import numpy as np
import pytest

from convexsphere import cli
from convexsphere.bodies import ball, from_vertices
from convexsphere.fields import thicken
from convexsphere.config import ExperimentConfig
from convexsphere.errors import BudgetExceeded, ConfigError
from convexsphere.mod2poly import Mod2SymPoly
from convexsphere.serialize import load_body, load_json, save_body


# -- config parsing ----------------------------------------------------------


def test_from_pairs_coerces_types():
    cfg = ExperimentConfig.from_pairs(
        ["n=4", "eps=0.125", "axes=1,2,3", "group=pm", "chain=true", "tol=none"]
    )
    assert cfg.n == 4 and isinstance(cfg.n, int)
    assert cfg.eps == 0.125 and isinstance(cfg.eps, float)
    assert cfg.axes == (1.0, 2.0, 3.0)
    assert cfg.group == "pm"
    assert cfg.chain is True
    assert cfg.tol is None


def test_from_pairs_rejects_unknown_key():
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_pairs(["epz=0.1"])
    msg = str(info.value)
    assert "epz" in msg and "valid keys" in msg and "eps" in msg


def test_from_pairs_rejects_bad_value_and_missing_equals():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_pairs(["n=three"])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_pairs(["n"])


def test_dict_roundtrip():
    cfg = ExperimentConfig.from_pairs(["n=2", "axes=0.5,2", "samples=7"])
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"nope": 1})


def test_from_json_file_errors(tmp_path):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_json_file(str(tmp_path / "missing.json"))
    assert "no such config file" in str(info.value)

    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "n": oops\n}\n')
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_json_file(str(bad))
    assert "line 2" in str(info.value)

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(str(arr))


# -- argparse shell ----------------------------------------------------------


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_unknown_setting_exits_2(capsys):
    assert cli.main(["swclass", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["swclass", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "no such config file" in capsys.readouterr().err


def test_config_file_with_overrides(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 2, "d": 5, "out": str(tmp_path)}))
    rc = cli.main(["swclass", "--config", str(conf), "d=3", "elementary=true"])
    assert rc == 0
    capsys.readouterr()
    doc = load_json(str(tmp_path / "swclass.json"))
    assert doc["config"]["n"] == 2
    assert doc["config"]["d"] == 3


# -- metrics -----------------------------------------------------------------


def test_metrics_end_to_end(tmp_path, grid2, capsys):
    square = from_vertices(
        grid2, np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
    )
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_body(ball(grid2, 1.0), str(pa))
    save_body(square, str(pb))
    rc = cli.main(
        ["metrics", f"body_a={pa}", f"body_b={pb}", f"out={tmp_path}"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "d_bm=" in out and "d_h=" in out
    doc = load_json(str(tmp_path / "metrics.json"))
    assert doc["kind"] == "report/metrics"
    assert doc["format_version"] == 1 and "content_hash" in doc
    # unit square against the unit disk: vertices stick out by sqrt(2)/2
    assert abs(doc["hausdorff"] - 0.5) < 1e-10
    assert abs(doc["banach_mazur"] - 0.5 * np.log(2.0)) < 1e-6
    assert doc["c0_l2"]["ok"] is True


def test_metrics_grid_mismatch_exits_2(tmp_path, grid2, grid3, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_body(ball(grid2, 1.0), str(pa))
    save_body(ball(grid3, 1.0), str(pb))
    rc = cli.main(["metrics", f"body_a={pa}", f"body_b={pb}", f"out={tmp_path}"])
    assert rc == 2
    assert "different grids" in capsys.readouterr().err


def test_metrics_requires_both_paths(capsys):
    assert cli.main(["metrics", "body_a=only.json"]) == 2
    capsys.readouterr()


# -- counterexample ----------------------------------------------------------


def test_counterexample_certifies_at_small_eps(tmp_path, capsys):
    rc = cli.main(
        [
            "counterexample",
            "n=3",
            "samples=6",
            "eps=0.01",
            "seed=5",
            f"out={tmp_path}",
        ]
    )
    assert rc == 0
    assert "certified 6/6" in capsys.readouterr().out
    doc = load_json(str(tmp_path / "counterexample.json"))
    assert doc["eps_source"] == "override"
    assert doc["certified"] == 6 and doc["failed"] == 0
    assert doc["delta"] > 0.0
    sweep = doc["octahedron_sweep"]
    assert sweep["frames"] == 21
    assert np.isfinite(sweep["max_adjacent_d_h"])
    assert (tmp_path / "octahedron_sweep.csv").exists()


def test_counterexample_reports_failures_at_huge_eps(tmp_path, capsys):
    rc = cli.main(
        [
            "counterexample",
            "n=3",
            "samples=5",
            "eps=3.0",
            "seed=5",
            f"out={tmp_path}",
        ]
    )
    assert rc == 1
    assert "certification failed" in capsys.readouterr().out
    doc = load_json(str(tmp_path / "counterexample.json"))
    assert doc["failed"] > 0
    fail = load_json(str(tmp_path / "failing_sample.json"))
    assert fail["kind"] == "failing_sample"
    assert fail["reason"] in ("radius", "certificate")
    assert fail["poly"]["kind"] == "spherical_poly"


def test_counterexample_rejects_bad_dimension(capsys):
    assert cli.main(["counterexample", "n=2"]) == 2
    capsys.readouterr()


# -- round2d -----------------------------------------------------------------


def test_round2d_ellipsoid(tmp_path, capsys):
    rc = cli.main(
        ["round2d", "family=ellipsoid", "axes=1,2,3", "seed=0", f"out={tmp_path}"]
    )
    assert rc == 0
    assert "round section" in capsys.readouterr().out
    doc = load_json(str(tmp_path / "round2d.json"))
    assert doc["converged"] is True
    assert abs(doc["radius"] - 2.0) < 1e-5
    assert doc["energy"] < 1e-8
    frame = np.asarray(doc["frame"])
    assert frame.shape == (2, 3)


def _check_best_frame(doc, big_n):
    assert doc["converged"] is False
    assert np.isfinite(doc["radius"])
    frame = np.asarray(doc["frame"])
    assert frame.shape == (2, big_n)
    assert np.abs(frame @ frame.T - np.eye(2)).max() < 1e-10


def test_round2d_cube(tmp_path, capsys):
    rc = cli.main(["round2d", "family=cube", "ambient_n=4", "seed=0", f"out={tmp_path}"])
    assert rc == 0
    assert "no round section" in capsys.readouterr().out
    _check_best_frame(load_json(str(tmp_path / "round2d.json")), 4)


def test_round2d_polytope(tmp_path, capsys):
    verts = np.random.default_rng(2).normal(size=(10, 3))
    path = tmp_path / "verts.json"
    path.write_text(json.dumps({"vertices": (verts - verts.mean(axis=0)).tolist()}))
    rc = cli.main(["round2d", "family=polytope", f"vertices={path}", "seed=0", f"out={tmp_path}"])
    assert rc == 0
    assert "no round section" in capsys.readouterr().out
    _check_best_frame(load_json(str(tmp_path / "round2d.json")), 3)


def test_round2d_needs_family(capsys):
    assert cli.main(["round2d", "seed=1"]) == 2
    capsys.readouterr()


# -- symmetrize --------------------------------------------------------------


def test_symmetrize_pm_group(tmp_path, grid3, capsys):
    body = thicken(from_vertices(grid3, np.array([[0.3, 0.0, 0.0]])), 1.0)
    path = tmp_path / "shifted.json"
    save_body(body, str(path))
    rc = cli.main(
        ["symmetrize", f"body={path}", "group=pm", "seed=0", f"out={tmp_path}"]
    )
    assert rc == 0
    capsys.readouterr()
    doc = load_json(str(tmp_path / "symmetrize.json"))
    assert doc["defect_after"] < 1e-10
    assert doc["defect_before"] > 0.1
    # pm average of a ball shifted by 0.3 is the centered unit ball
    avg = load_body(str(tmp_path / "averaged_body.json"))
    assert np.abs(avg.support - 1.0).max() < 1e-12
    # node-sampled d_h slightly undershoots 0.3 because no grid node
    # points exactly along the shift direction
    assert 0.29 < doc["hausdorff_to_average"] <= 0.3 + 1e-12


# -- swclass -----------------------------------------------------------------


def test_swclass_single_with_elementary(tmp_path, capsys):
    rc = cli.main(["swclass", "n=2", "d=3", "elementary=true", f"out={tmp_path}"])
    assert rc == 0
    assert "all_ones=1" in capsys.readouterr().out
    doc = load_json(str(tmp_path / "swclass.json"))
    assert doc["mode"] == "single"
    assert doc["all_ones"] == 1
    assert doc["exponents"] == [[2, 2]]
    assert doc["elementary"] == [[0, 2]]


def test_swclass_chain(tmp_path, capsys):
    rc = cli.main(["swclass", "n=3", "d_max=5", "chain=true", f"out={tmp_path}"])
    assert rc == 0
    capsys.readouterr()
    doc = load_json(str(tmp_path / "swclass.json"))
    assert doc["mode"] == "chain"
    assert doc["all_ones"] == 1
    assert len(doc["stages"]) == 3
    assert doc["monomials"] >= 1


def test_swclass_even_degree_exits_2(capsys):
    assert cli.main(["swclass", "n=3", "d=4"]) == 2
    capsys.readouterr()


def test_swclass_budget_exit_code(tmp_path, capsys, monkeypatch):
    # the real budget is 2^23 monomials; simulate the overflow so the
    # driver's partial-result report stays cheap to exercise
    partial = Mod2SymPoly.from_exponents(2, [(1, 1)])

    def boom(n, d, allow_even=False):
        raise BudgetExceeded("expansion exceeded budget", {"partial": partial})

    monkeypatch.setattr(cli, "stiefel_whitney_top", boom)
    rc = cli.main(["swclass", "n=2", "d=3", f"out={tmp_path}"])
    assert rc == 1
    assert "budget exceeded" in capsys.readouterr().out
    doc = load_json(str(tmp_path / "swclass.json"))
    assert doc["partial_monomials"] == 1
    assert "budget_exceeded" in doc


# -- bivec -------------------------------------------------------------------


def test_bivec_driver(tmp_path, capsys):
    rc = cli.main(["bivec", "trials=30", "count=6", "seed=3", f"out={tmp_path}"])
    assert rc == 0
    assert "torus planes ok: True" in capsys.readouterr().out
    doc = load_json(str(tmp_path / "bivec.json"))
    assert doc["homomorphism_defect"] < 1e-10
    wd = doc["wedge_defects"]
    assert max(wd["self_dual"], wd["anti_self_dual"], wd["mixed"]) < 1e-10
    assert all(p["converged"] for p in doc["preimages"])
    assert all(p["residual"] < 1e-8 for p in doc["preimages"])


# -- output handling ---------------------------------------------------------


def test_out_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONVEXSPHERE_OUT", str(tmp_path / "envdir"))
    rc = cli.main(["swclass", "n=2", "d=3"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "envdir" / "swclass.json").exists()


def test_reports_are_rerun_identical(tmp_path, capsys, monkeypatch):
    # no timestamps anywhere, so a rerun with the same settings must be
    # byte-identical; out dirs differ only through the environment, which
    # is not embedded in the report
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    monkeypatch.setenv("CONVEXSPHERE_OUT", str(d1))
    assert cli.main(["swclass", "n=3", "d=5"]) == 0
    monkeypatch.setenv("CONVEXSPHERE_OUT", str(d2))
    assert cli.main(["swclass", "n=3", "d=5"]) == 0
    capsys.readouterr()
    assert (d1 / "swclass.json").read_bytes() == (d2 / "swclass.json").read_bytes()

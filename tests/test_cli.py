import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scca
from scca import (FitConfig, TuneGrid, ViewMatrix, center_scale, cv_tune, gen_rank_one,
                  load_view, perm_tune, write_view)
from scca.cli import load_solution, main
from scca.simulate import RankOneSpec

from conftest import make_views

SMALL = ["--n", "20", "--p", "40,30", "--sigma", "0.15", "--supports", "5:5,4:4"]


def _simulate(tmp_path, seed="3", extra=()):
    out = tmp_path / "data"
    code = main(["simulate", "--model", "pair", *SMALL, "--seed", seed,
                 "--out", str(out), *extra])
    assert code == 0
    return out


def _write_small_views(tmp_path, seed=4):
    spec = RankOneSpec(p=(40, 30), n=20, sigma=(0.15, 0.15), seed=seed,
                       supports=((5, 5), (4, 4)))
    x1, x2, truths = gen_rank_one(spec)
    write_view(x1, tmp_path / "x1.csv")
    write_view(x2, tmp_path / "x2.csv")
    return x1, x2, truths


def test_simulate_writes_files_and_is_deterministic(tmp_path):
    out1 = _simulate(tmp_path / "a")
    out2 = _simulate(tmp_path / "b")
    for name in ("x1.csv", "x2.csv", "truth1.csv", "truth2.csv"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    view = load_view(out1 / "x1.csv")
    assert view.data.shape == (20, 40)


def test_scca_run_and_solution_roundtrip(tmp_path):
    x1, x2, _ = _write_small_views(tmp_path)
    block = center_scale(x1).data.T @ center_scale(x2).data / 20
    g1 = 0.4 * np.linalg.norm(block, axis=1).max()
    g2 = 0.4 * np.linalg.norm(block, axis=0).max()
    out = tmp_path / "run"
    code = main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--gamma1", str(g1), "--gamma2",
                 str(g2), "--no-scale", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["format"] == "scca-solution"
    assert doc["metadata"]["config"]["gamma1"] == pytest.approx(g1)
    sol, names, config = load_solution(out / "solution.json")
    assert names[0] == x1.names
    # active entries match patterns
    for i in range(2):
        direction = sol.directions[i][:, 0]
        bits = sol.patterns[i][0].bits
        assert np.array_equal(direction != 0, bits)


def test_scca_zero_gamma_dense(tmp_path):
    _write_small_views(tmp_path)
    out = tmp_path / "dense"
    code = main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--no-scale", "--out", str(out)])
    assert code == 0
    sol, _names, _cfg = load_solution(out / "solution.json")
    assert sol.patterns[0][0].active_count == 40
    assert sol.patterns[1][0].active_count == 30


def test_scca_l0_penalty(tmp_path):
    _write_small_views(tmp_path, seed=20)
    out = tmp_path / "l0"
    code = main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--penalty", "l0", "--gamma1",
                 "0.25", "--gamma2", "0.25", "--no-scale", "--out", str(out)])
    assert code == 0
    sol, _n, cfg = load_solution(out / "solution.json")
    assert cfg["penalty"] == "l0"
    assert 0 < sol.patterns[0][0].active_count


def test_scca_missing_file_exits_1(tmp_path):
    assert main(["scca", "--x1", str(tmp_path / "nope.csv"), "--x2",
                 str(tmp_path / "nope2.csv")]) == 1


def test_scca_empty_support_exits_2(tmp_path):
    _write_small_views(tmp_path)
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--gamma2", "1e9", "--no-scale",
                 "--out", str(tmp_path / "o")]) == 2


def test_usage_error_exits_1():
    assert main(["frobnicate"]) == 1
    assert main(["scca"]) == 1  # missing required inputs


def test_byte_identical_reruns(tmp_path):
    _write_small_views(tmp_path)
    args = ["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
            str(tmp_path / "x2.csv"), "--gamma1", "0.5", "--gamma2", "0.5",
            "--no-scale", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    assert ((tmp_path / "r1" / "solution.json").read_bytes()
            == (tmp_path / "r2" / "solution.json").read_bytes())


def test_mscca_matches_scca_for_two_views(tmp_path):
    x1, x2, _ = _write_small_views(tmp_path, seed=6)
    block = center_scale(x1).data.T @ center_scale(x2).data / 20
    g1 = 0.35 * np.linalg.norm(block, axis=1).max()
    g2 = 0.35 * np.linalg.norm(block, axis=0).max()
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--gamma1", str(g1), "--gamma2",
                 str(g2), "--no-scale", "--out", str(tmp_path / "pair")]) == 0
    assert main(["mscca", "--views", str(tmp_path / "x1.csv"),
                 str(tmp_path / "x2.csv"), "--gamma1", str(g1), "--gamma2",
                 str(g2), "--no-scale", "--out", str(tmp_path / "multi")]) == 0
    pair, _n, _c = load_solution(tmp_path / "pair" / "solution.json")
    multi, _n2, _c2 = load_solution(tmp_path / "multi" / "solution.json")
    for i in range(2):
        assert (pair.patterns[i][0].bits.tolist()
                == multi.patterns[i][0].bits.tolist())


def test_mscca_bad_gamma_matrix_exits_1(tmp_path):
    _write_small_views(tmp_path)
    assert main(["mscca", "--views", str(tmp_path / "x1.csv"),
                 str(tmp_path / "x2.csv"), "--gamma-matrix", "[[0,1,0],[1,0,0],[0,0,0]]",
                 "--out", str(tmp_path / "o")]) == 1


def test_dscca_eps_zero_matches_scca(tmp_path):
    x1, x2, truths = _write_small_views(tmp_path, seed=8)
    y = center_scale(x1).data @ truths[0]
    (tmp_path / "y.csv").write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    block = center_scale(x1).data.T @ center_scale(x2).data / 20
    g1 = 0.35 * np.linalg.norm(block, axis=1).max()
    g2 = 0.35 * np.linalg.norm(block, axis=0).max()
    common = ["--gamma1", str(g1), "--gamma2", str(g2), "--no-scale"]
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), *common,
                 "--out", str(tmp_path / "plain")]) == 0
    assert main(["dscca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--y", str(tmp_path / "y.csv"),
                 "--eps1", "0", "--eps2", "0", *common,
                 "--out", str(tmp_path / "dir")]) == 0
    plain, _n, _c = load_solution(tmp_path / "plain" / "solution.json")
    directed, _n2, _c2 = load_solution(tmp_path / "dir" / "solution.json")
    for i in range(2):
        assert (plain.patterns[i][0].bits.tolist()
                == directed.patterns[i][0].bits.tolist())


def test_dscca_length_mismatch_exits_1(tmp_path):
    _write_small_views(tmp_path)
    (tmp_path / "y.csv").write_text("y\n1.0\n2.0\n3.0\n")
    assert main(["dscca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--y", str(tmp_path / "y.csv"),
                 "--out", str(tmp_path / "o")]) == 1


def test_dscca_stacked_and_two_stage_modes(tmp_path):
    x1, x2, truths = _write_small_views(tmp_path, seed=10)
    y = center_scale(x1).data @ truths[0]
    (tmp_path / "y.csv").write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    for mode in ("stacked", "two-stage"):
        code = main(["dscca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                     str(tmp_path / "x2.csv"), "--y", str(tmp_path / "y.csv"),
                     "--mode", mode, "--gamma1", "0.05", "--gamma2", "0.05",
                     "--no-scale", "--out", str(tmp_path / mode)])
        assert code == 0
        sol, _n, _c = load_solution(tmp_path / mode / "solution.json")
        assert sol.factor_count == 1


def test_dscca_prints_its_warnings(tmp_path, capsys):
    # supports wider than n make the GEP stage two take its automatic ridge
    x1, x2, truths = _write_small_views(tmp_path, seed=10)
    y = center_scale(x1).data @ truths[0]
    (tmp_path / "y.csv").write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    capsys.readouterr()
    assert main(["dscca", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
                 "--y", str(tmp_path / "y.csv"), "--mode", "dot", "--stage2", "gep",
                 "--gamma1", "0", "--gamma2", "0", "--no-scale",
                 "--out", str(tmp_path / "o")]) == 0
    warnings = json.loads((tmp_path / "o" / "solution.json").read_text())["warnings"]
    assert any(w.startswith("singular within-view covariance: applied ridge") for w in warnings)
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings)


def test_dscca_l0_penalty_fails_loudly_outside_two_stage(tmp_path, capsys):
    x1, x2, truths = _write_small_views(tmp_path, seed=10)
    y = center_scale(x1).data @ truths[0]
    (tmp_path / "y.csv").write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    data = ["--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
            "--y", str(tmp_path / "y.csv"), "--gamma1", "0.05", "--gamma2", "0.05",
            "--no-scale", "--penalty", "l0"]
    capsys.readouterr()
    for mode in ("dot", "reg", "stacked"):
        out = tmp_path / mode
        assert main(["dscca", *data, "--mode", mode, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: directed stage one is defined for the 'l1' penalty only\n")
        assert not (out / "solution.json").exists()
    assert main(["dscca", *data, "--mode", "two-stage", "--out", str(tmp_path / "ts")]) == 0
    doc = json.loads((tmp_path / "ts" / "solution.json").read_text())
    assert doc["metadata"]["config"]["penalty"] == "l0"


def test_tune_single_cell_and_reproducible(tmp_path):
    _write_small_views(tmp_path, seed=12)
    args = ["tune", "--x1", str(tmp_path / "x1.csv"), "--x2",
            str(tmp_path / "x2.csv"), "--gamma1-grid", "0.5", "--gamma2-grid",
            "0.5", "--permutations", "10", "--no-scale", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "t1")]) == 0
    assert main(args + ["--out", str(tmp_path / "t2")]) == 0
    b1 = (tmp_path / "t1" / "tune.json").read_bytes()
    assert b1 == (tmp_path / "t2" / "tune.json").read_bytes()
    doc = json.loads(b1)
    assert doc["report"]["chosen"]["gamma1"] == 0.5


def test_config_file_with_flag_precedence(tmp_path):
    _write_small_views(tmp_path, seed=14)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma1": 0.4, "gamma2": 0.4, "scale": False}))
    out = tmp_path / "out"
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--config", str(cfg),
                 "--gamma2", "0.6", "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["metadata"]["config"]["gamma1"] == 0.4   # from config
    assert doc["metadata"]["config"]["gamma2"] == 0.6   # flag wins
    assert doc["metadata"]["config"]["scale"] is False


def test_report_commands(tmp_path):
    from scca import ViewMatrix
    rng = np.random.default_rng(16)
    write_view(ViewMatrix(rng.standard_normal((20, 8)),
                          [f"A{j}" for j in range(8)]), tmp_path / "x1.csv")
    write_view(ViewMatrix(rng.standard_normal((20, 6)),
                          [f"B{j}" for j in range(6)]), tmp_path / "x2.csv")
    out = tmp_path / "fit"
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--factors", "2",
                 "--no-scale", "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    code = main(["report", "--solution", str(out / "solution.json"), "--views",
                 str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv"),
                 "--kind", "biplot", "--format", "csv", "--out", str(rep)])
    assert code == 0
    assert (rep / "biplot.csv").exists()
    # byte determinism of report emission
    rep2 = tmp_path / "rep2"
    main(["report", "--solution", str(out / "solution.json"), "--views",
          str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv"),
          "--kind", "biplot", "--format", "csv", "--out", str(rep2)])
    assert ((rep / "biplot.csv").read_bytes() == (rep2 / "biplot.csv").read_bytes())


def test_report_single_factor_exits_2(tmp_path):
    _write_small_views(tmp_path, seed=18)
    out = tmp_path / "fit1"
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2",
                 str(tmp_path / "x2.csv"), "--gamma1", "0.3", "--gamma2", "0.3",
                 "--no-scale", "--out", str(out)]) == 0
    assert main(["report", "--solution", str(out / "solution.json"), "--views",
                 str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv"),
                 "--out", str(tmp_path / "r")]) == 2


def test_simulate_three_view_and_sweep(tmp_path):
    out = tmp_path / "three"
    assert main(["simulate", "--model", "three", "--n", "20",
                 "--p", "30,24,36", "--sigma", "0.1,0.1,0.1",
                 "--supports", "4:4,4:4,4:4", "--out", str(out)]) == 0
    for name in ("x1.csv", "x2.csv", "x3.csv", "truth3.csv"):
        assert (out / name).exists()


def test_mscca_prints_stage_one_max_iter_warnings(tmp_path, capsys):
    out = tmp_path / "three"
    assert main(["simulate", "--model", "three", "--n", "20",
                 "--p", "30,24,36", "--sigma", "0.1,0.1,0.1",
                 "--supports", "4:4,4:4,4:4", "--out", str(out)]) == 0
    views = ["--views", *(str(out / f"x{i}.csv") for i in (1, 2, 3)),
             "--gamma-matrix", "[[0,0.1,0.1],[0.1,0,0.1],[0.1,0.1,0]]"]
    capsys.readouterr()
    assert main(["mscca", *views, "--max-iter", "1", "--out", str(tmp_path / "cut")]) == 0
    # view 2 converges in its single sweep (the default run needs one sweep there too)
    expected = [f"view {s}: stage one reached max_iter (1 sweeps)" for s in (3, 1)]
    assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in expected]
    doc = json.loads((tmp_path / "cut" / "solution.json").read_text())
    assert doc["warnings"] == expected
    assert main(["mscca", *views, "--out", str(tmp_path / "full")]) == 0
    assert "max_iter" not in capsys.readouterr().err


THREE = ["simulate", "--model", "three", "--n", "20", "--p", "30,24,36",
         "--sigma", "0.1,0.1,0.1", "--supports", "4:4,3:5,4:4"]


def test_simulate_config_arrays_mean_what_their_flags_mean(tmp_path):
    flags = tmp_path / "flags"
    assert main([*THREE, "--out", str(flags)]) == 0
    for k, supports in enumerate(([[4, 4], [3, 5], [4, 4]], ["4:4", "3:5", "4:4"])):
        cfg = tmp_path / f"simulate{k}.json"
        cfg.write_text(json.dumps({"p": [30, 24, 36], "sigma": [0.1, 0.1, 0.1],
                                   "supports": supports}))
        out = tmp_path / f"config{k}"
        assert main(["simulate", "--model", "three", "--n", "20", "--config", str(cfg),
                     "--out", str(out)]) == 0
        for name in ("x1.csv", "x2.csv", "x3.csv", "truth2.csv"):
            assert (out / name).read_bytes() == (flags / name).read_bytes()


def test_mscca_config_gamma_matrix_array_means_what_the_flag_means(tmp_path):
    flags = tmp_path / "flags"
    assert main([*THREE, "--out", str(flags)]) == 0
    matrix = [[0, 0.1, 0.1], [0.1, 0, 0.1], [0.1, 0.1, 0]]
    views = ["--views", *(str(flags / f"x{i}.csv") for i in (1, 2, 3))]
    cfg = tmp_path / "mscca.json"
    cfg.write_text(json.dumps({"gamma_matrix": matrix}))
    assert main(["mscca", *views, "--gamma-matrix", json.dumps(matrix),
                 "--out", str(tmp_path / "mscca-flag")]) == 0
    assert main(["mscca", *views, "--config", str(cfg),
                 "--out", str(tmp_path / "mscca-config")]) == 0
    assert ((tmp_path / "mscca-flag" / "solution.json").read_bytes()
            == (tmp_path / "mscca-config" / "solution.json").read_bytes())


def test_mscca_long_inline_gamma_matrix_means_what_the_compact_one_means(tmp_path):
    # inline JSON longer than a file name may be is parsed, never looked up as a path
    data = tmp_path / "data"
    assert main([*THREE, "--out", str(data)]) == 0
    matrix = [[0, 0.1, 0.1], [0.1, 0, 0.1], [0.1, 0.1, 0]]
    views = ["--views", *(str(data / f"x{i}.csv") for i in (1, 2, 3))]
    padded = json.dumps(matrix, indent=40)
    assert len(padded) > 255
    stored = tmp_path / "gamma.json"
    stored.write_text(padded)
    outputs = []
    for k, spec in enumerate((json.dumps(matrix), padded, str(stored))):
        out = tmp_path / f"mscca{k}"
        assert main(["mscca", *views, "--gamma-matrix", spec, "--out", str(out)]) == 0
        outputs.append((out / "solution.json").read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _two_samples(tmp_path) -> list[str]:
    """Views of n=2 samples; the second has a single coordinate."""
    (tmp_path / "x1.csv").write_text("a,b,c\n1.0,2.0,0.5\n3.0,1.0,2.5\n")
    (tmp_path / "x2.csv").write_text("y\n0.3\n1.7\n")
    return ["--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv")]


def test_two_samples_and_a_one_coordinate_view_fit(tmp_path, capsys):
    pair = _two_samples(tmp_path)
    assert main(["scca", *pair, "--out", str(tmp_path / "full")]) == 0
    # at n=2 the centred cross block has rank one, so every start is already
    # the fixed point and one update is a converged solve, not a max_iter cut
    assert main(["scca", *pair, "--max-iter", "1", "--out", str(tmp_path / "cut")]) == 0
    assert "max_iter" not in capsys.readouterr().err
    full, cut = (json.loads((tmp_path / d / "solution.json").read_text())
                 for d in ("full", "cut"))
    assert cut["warnings"] == full["warnings"] == []
    for got, want in zip(cut["factors"], full["factors"]):
        assert got["patterns"] == want["patterns"]
        np.testing.assert_allclose(got["directions"][0], want["directions"][0], atol=1e-12)


def test_gamma_above_every_projection_exits_2(tmp_path, capsys):
    x1, x2, _ = _write_small_views(tmp_path)
    block = center_scale(x1).data.T @ center_scale(x2).data / x1.n
    # |c_i'z| <= ||c_i|| for a unit z, so no coordinate of either view can be active
    gamma = repr(1.01 * float(max(np.linalg.norm(block, axis=0).max(),
                                  np.linalg.norm(block, axis=1).max())))
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
                 "--no-scale", "--gamma1", gamma, "--gamma2", gamma,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "support collapsed" in err
    assert not (tmp_path / "o" / "solution.json").exists()


def test_dscca_reg_wide_view_error_line(tmp_path, capsys):
    _write_small_views(tmp_path, seed=5)   # n=20 < p
    y = np.random.default_rng(5).standard_normal(20)
    (tmp_path / "y.csv").write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    capsys.readouterr()
    assert main(["dscca", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
                 "--y", str(tmp_path / "y.csv"), "--mode", "reg", "--gamma1", "0.1",
                 "--gamma2", "0.1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: normal equations are singular; re-run with ridge > 0\n")


def test_mscca_gep_applies_the_automatic_ridge(tmp_path, capsys):
    out = tmp_path / "three"
    assert main(["simulate", "--model", "three", "--n", "20", "--p", "30,24,36",
                 "--supports", "3:3,3:3,3:3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["mscca", "--views", *(str(out / f"x{i}.csv") for i in (1, 2, 3)),
                 "--gamma-matrix", "[[0,0.1,0.1],[0.1,0,0.1],[0.1,0.1,0]]",
                 "--stage2", "gep", "--out", str(tmp_path / "fit")]) == 0
    err = capsys.readouterr().err
    doc = json.loads((tmp_path / "fit" / "solution.json").read_text())
    ridge = [w for w in doc["warnings"] if w.startswith("singular within-view covariance")]
    assert len(ridge) == 1 and f"warning: {ridge[0]}" in err.splitlines()
    assert doc["normalization"] == "cov"


def test_dscca_stacked_rejects_stage2(tmp_path, capsys):
    x1, x2, truths = _write_small_views(tmp_path, seed=10)
    y = center_scale(x1).data @ truths[0]
    (tmp_path / "y.csv").write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    data = ["dscca", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
            "--y", str(tmp_path / "y.csv"), "--mode", "stacked", "--gamma1", "0.05",
            "--gamma2", "0.05", "--no-scale"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"stage2": "svd"}))
    capsys.readouterr()
    assert main([*data, "--stage2", "power", "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    for extra in (["--stage2", "gep"], ["--config", str(config)]):
        out = tmp_path / "o"
        assert main([*data, *extra, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --stage2 does not apply to --mode stacked, which has no stage two\n")
        assert not (out / "solution.json").exists()
    assert main([*data, "--out", str(tmp_path / "plain")]) == 0
    doc = json.loads((tmp_path / "plain" / "solution.json").read_text())
    assert doc["metadata"]["config"]["stage2"] == "svd"


def test_flags_only_where_they_are_read(tmp_path, capsys):
    x = str(tmp_path / "missing.csv")
    report = ["report", "--solution", x, "--views", x]
    tune = ["tune", "--x1", x, "--x2", x, "--gamma1-grid", "0.1", "--gamma2-grid", "0.1"]
    for argv in (["scca", "--x1", x, "--x2", x, "--jobs", "2"],
                 [*report, "--stage2", "power"],
                 ["simulate", "--jobs", "4"],
                 [*report, "--penalty", "l0"],
                 [*report, "--gamma1", "0.1"],
                 [*report, "--gamma2", "0.1"],
                 [*report, "--tol", "1e-6"],
                 [*report, "--max-iter", "5"],
                 [*report, "--seed", "1"],
                 [*report, "--no-scale"],
                 [*tune, "--gamma1", "0.1"],
                 [*tune, "--gamma2", "0.1"],
                 ["simulate", "--gamma1", "0.1"],
                 ["simulate", "--gamma2", "0.1"],
                 ["simulate", "--scale"],
                 ["simulate", "--delimiter", ";"]):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    # the stage-two value is checked before any input file is read, from a flag or a config
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"stage2": "svd"}))
    for argv, choices in ((["tune", "--x1", x, "--x2", x, "--gamma1-grid", "0.1",
                            "--gamma2-grid", "0.1", "--stage2", "power"], "'svd' or 'gep'"),
                          (["scca", "--x1", x, "--x2", x, "--stage2", "power"], "'svd' or 'gep'"),
                          (["mscca", "--views", x, x, "--config", str(config)],
                           "'power' or 'gep'")):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: --stage2 must be {choices}\n"


def test_config_keys_must_be_options_of_the_subcommand(tmp_path, capsys):
    # a key the subcommand does not read exits 1 before an input is read, as
    # the same flag on the command line does
    x = str(tmp_path / "missing.csv")
    argvs = {"scca": ["scca", "--x1", x, "--x2", x],
             "mscca": ["mscca", "--views", x, x],
             "dscca": ["dscca", "--x1", x, "--x2", x, "--y", x],
             "tune": ["tune", "--x1", x, "--x2", x, "--gamma1-grid", "0.1",
                      "--gamma2-grid", "0.1"],
             "simulate": ["simulate"],
             "report": ["report", "--solution", x, "--views", x]}
    cases = [("tune", "gamma1", 0.5), ("report", "scale", False), ("report", "no-scale", True),
             ("simulate", "delimiter", ";"), ("scca", "x1", x), ("scca", "config", x),
             ("mscca", "gamma1_grid", [0.1])]
    cases += [(command, "max-iters", 5) for command in argvs]
    config = tmp_path / "cfg.json"
    for command, key, value in cases:
        config.write_text(json.dumps({"out": str(tmp_path / "o"), key: value}))
        assert main([*argvs[command], "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: --config key '{key}' is not an option of {command}\n")
    assert not (tmp_path / "o").exists()


def test_a_config_of_its_own_options_works_for_every_subcommand(tmp_path):
    def config(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return ["--config", str(path)]

    def echo(out, name="solution.json"):
        return json.loads((tmp_path / out / name).read_text())["metadata"]["config"]

    assert main(["simulate", *config("simulate", {"model": "null", "n": 20, "p": [12, 10],
                                                  "seed": 1}),
                 "--out", str(tmp_path / "data")]) == 0
    assert load_view(tmp_path / "data" / "x1.csv").data.shape == (20, 12)
    x1, x2 = str(tmp_path / "data" / "x1.csv"), str(tmp_path / "data" / "x2.csv")
    y = tmp_path / "y.csv"
    y.write_text("y\n" + "\n".join(str(v) for v in np.linspace(-1.0, 1.0, 20)) + "\n")
    assert main(["scca", "--x1", x1, "--x2", x2, "--out", str(tmp_path / "fit"),
                 *config("scca", {"gamma1": 0.0, "max-iter": 500, "factors": 2,
                                  "stage2": "svd", "delimiter": ","})]) == 0
    assert (echo("fit")["max_iter"], echo("fit")["factors"], echo("fit")["stage2"]) == (
        500, 2, "svd")
    assert main(["mscca", "--views", x1, x2, "--out", str(tmp_path / "m"),
                 *config("mscca", {"gamma_matrix": [[0, 0.01], [0.01, 0]],
                                   "scale": False})]) == 0
    assert echo("m")["gamma_matrix"] == [[0.0, 0.01], [0.01, 0.0]] and not echo("m")["scale"]
    assert main(["dscca", "--x1", x1, "--x2", x2, "--y", str(y), "--out", str(tmp_path / "d"),
                 *config("dscca", {"mode": "two-stage", "keep-fraction": 0.5,
                                   "eps1": 0.5})]) == 0
    assert (echo("d")["mode"], echo("d")["eps1"]) == ("two-stage", 0.5)
    assert main(["tune", "--x1", x1, "--x2", x2, "--out", str(tmp_path / "t"),
                 *config("tune", {"gamma1_grid": [0.0], "gamma2-grid": "0", "permutations": 3,
                                  "method": "perm", "jobs": 1, "seed": 2})]) == 0
    report = json.loads((tmp_path / "t" / "tune.json").read_text())
    assert len(report["report"]["traces"][0][0]) == 3 and echo("t", "tune.json")["seed"] == 2
    assert main(["report", "--solution", str(tmp_path / "fit" / "solution.json"),
                 "--views", x1, x2, "--out", str(tmp_path / "r"),
                 *config("report", {"kind": "interp", "format": "json", "markers": 3})]) == 0
    assert (tmp_path / "r" / "interp.json").exists()


def test_tune_method_from_config_is_checked_before_inputs(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"method": "cvv"}))
    missing = str(tmp_path / "missing.csv")
    grids = ["--gamma1-grid", "0.5", "--gamma2-grid", "0.5", "--config", str(config)]
    assert main(["tune", "--x1", missing, "--x2", missing, *grids,
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: method must be 'cv' or 'perm'\n"
    _write_small_views(tmp_path, seed=12)
    out = tmp_path / "t"
    assert main(["tune", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
                 *grids, "--permutations", "3", "--out", str(out)]) == 1
    assert not (out / "tune.json").exists()


def test_dscca_mode_from_config_is_checked_before_inputs(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "bogus"}))
    missing = str(tmp_path / "missing.csv")
    assert main(["dscca", "--x1", missing, "--x2", missing, "--y", missing,
                 "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: mode must be dot, reg, stacked or two-stage\n"


@pytest.mark.parametrize("header", ["a,a,b", "a,,b"])
def test_duplicate_or_blank_header_names_exit_1(tmp_path, capsys, header):
    (tmp_path / "x1.csv").write_text(header + "\n1,2,3\n4,5,7\n2,1,1\n")
    (tmp_path / "x2.csv").write_text("c,d\n1,2\n3,1\n0,5\n")
    capsys.readouterr()
    assert main(["scca", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: ")
    assert not (tmp_path / "o" / "solution.json").exists()


def test_scca_prints_max_iter_warnings(tmp_path, capsys):
    x1, x2 = make_views(20, 40, 30, seed=1)
    write_view(x1, tmp_path / "x1.csv")
    write_view(x2, tmp_path / "x2.csv")
    fit = ["scca", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
           "--gamma1", "0.1", "--gamma2", "0.1"]
    capsys.readouterr()
    assert main([*fit, "--max-iter", "1", "--out", str(tmp_path / "cut")]) == 0
    expected = ["factor 1: view 1: stage one reached max_iter (1 iterations)",
                "factor 1: view 2: stage one reached max_iter (1 iterations)",
                "stage two reached max_iter (1 iterations)"]
    assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in expected]
    doc = json.loads((tmp_path / "cut" / "solution.json").read_text())
    assert doc["warnings"] == expected
    assert main([*fit, "--out", str(tmp_path / "full")]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "full" / "solution.json").read_text())["warnings"] == []


def _views_with_a_constant_column(tmp_path):
    """A 20 x 8 view whose column 'c3' is constant, a 20 x 6 partner and an
    accessory; returns their paths."""
    x1, x2 = make_views(20, 8, 6, seed=7)
    data = x1.data.copy()
    data[:, 2] = 5.0
    write_view(ViewMatrix(data, [f"c{j + 1}" for j in range(8)]), tmp_path / "x1.csv")
    write_view(x2, tmp_path / "x2.csv")
    y = np.random.default_rng(7).standard_normal(20)
    (tmp_path / "y.csv").write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    return [str(tmp_path / name) for name in ("x1.csv", "x2.csv", "y.csv")]


@pytest.mark.parametrize("command", [
    ["scca"], ["mscca"], ["dscca", "--mode", "dot"], ["dscca", "--mode", "stacked"],
    ["dscca", "--mode", "two-stage"]])
def test_fits_report_constant_columns(tmp_path, capsys, command):
    x1, x2, y = _views_with_a_constant_column(tmp_path)
    inputs = {"scca": ["--x1", x1, "--x2", x2], "mscca": ["--views", x1, x2],
              "dscca": ["--x1", x1, "--x2", x2, "--y", y]}[command[0]]
    capsys.readouterr()
    assert main([*command, *inputs, "--out", str(tmp_path / "o")]) == 0
    warnings = json.loads((tmp_path / "o" / "solution.json").read_text())["warnings"]
    assert warnings[0] == "view 1: constant column 'c3' zeroed during scaling"
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings)
    # without scaling nothing is divided, so nothing is reported
    assert main([*command, *inputs, "--no-scale", "--out", str(tmp_path / "raw")]) == 0
    doc = json.loads((tmp_path / "raw" / "solution.json").read_text())
    assert not any("constant column" in w for w in doc["warnings"])


@pytest.mark.parametrize("method", ["cv", "perm"])
def test_tune_prints_constant_columns_but_keeps_its_report(tmp_path, capsys, method):
    x1, x2, _y = _views_with_a_constant_column(tmp_path)
    run = ["tune", "--x1", x1, "--x2", x2, "--method", method, "--gamma1-grid", "0,0.1",
           "--gamma2-grid", "0", "--folds", "2", "--permutations", "3"]
    capsys.readouterr()
    assert main([*run, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == (
        "warning: view 1: constant column 'c3' zeroed during scaling\n")
    doc = json.loads((tmp_path / "o" / "tune.json").read_text())
    assert set(doc) == {"metadata", "report"}
    assert "warnings" not in doc["report"]
    # the same sweep through the library writes the same report
    grid = TuneGrid((0.0, 0.1), (0.0,), folds=2, permutations=3, seed=0)
    tune = cv_tune if method == "cv" else perm_tune
    report = tune(load_view(x1), load_view(x2), grid, cfg=FitConfig(scale=True))
    assert doc["report"] == json.loads(report.to_json())


def test_scipy_loads_only_for_the_gep_pencil():
    # importing the command line must not import scipy; a GEP fit still works
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import scca.cli\n"
        "from scca import ViewMatrix, center_scale, fit_pair\n"
        "assert 'scipy' not in sys.modules, 'scipy imported with the command line'\n"
        "rng = np.random.default_rng(0)\n"
        "x1, x2 = (center_scale(ViewMatrix(rng.standard_normal((30, p)),"
        " [f'v{j}' for j in range(p)])) for p in (6, 5))\n"
        "sol = fit_pair(x1, x2, 0.0, 0.0, stage2='gep')\n"
        "assert sol.normalization == 'cov' and 'scipy' in sys.modules\n")
    src = str(Path(scca.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_report_prints_constant_columns(tmp_path, capsys):
    x1, x2, _y = _views_with_a_constant_column(tmp_path)
    fit = tmp_path / "fit"
    assert main(["scca", "--x1", x1, "--x2", x2, "--factors", "2", "--out", str(fit)]) == 0
    capsys.readouterr()
    assert main(["report", "--solution", str(fit / "solution.json"), "--views", x1, x2,
                 "--out", str(tmp_path / "rep")]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: view 1: constant column 'c3' zeroed during scaling\n"
    assert out == f"{tmp_path / 'rep' / 'biplot.csv'}\n"


def _bad_inputs(tmp_path) -> dict:
    """Paths of 20 x 6 and 20 x 5 views that fit, the same first view with a
    nan, an inf or a short row as its fourth sample (line 5), and a 15-row
    second view."""
    rng = np.random.default_rng(21)
    d1, d2 = rng.standard_normal((20, 6)), rng.standard_normal((20, 5))
    paths = {name: tmp_path / f"{name}.csv" for name in
             ("x1", "x2", "nan", "inf", "ragged", "short")}
    write_view(ViewMatrix(d1, [f"a{j + 1}" for j in range(6)]), paths["x1"])
    write_view(ViewMatrix(d2, [f"b{j + 1}" for j in range(5)]), paths["x2"])
    write_view(ViewMatrix(d2[:15], [f"b{j + 1}" for j in range(5)]), paths["short"])
    lines = paths["x1"].read_text().splitlines()
    cells = lines[4].split(",")
    for bad, row in (("nan", cells[:2] + ["nan"] + cells[3:]),
                     ("inf", cells[:2] + ["inf"] + cells[3:]), ("ragged", cells[:5])):
        paths[bad].write_text("\n".join(lines[:4] + [",".join(row)] + lines[5:]) + "\n")
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("command", ["scca", "tune", "report", "interp"])
@pytest.mark.parametrize("x1,x2,message", [
    ("nan", "x2", "line 5: non-finite value 'nan' in column 3"),
    ("inf", "x2", "line 5: non-finite value 'inf' in column 3"),
    ("ragged", "x2", "line 5: expected 6 fields, got 5"),
    ("x1", "short", "sample counts differ: 20 vs 15"),
])
def test_bad_input_exits_1_naming_the_fault(tmp_path, capsys, command, x1, x2, message):
    paths = _bad_inputs(tmp_path)
    fit = tmp_path / "fit"
    assert main(["scca", "--x1", paths["x1"], "--x2", paths["x2"], "--gamma1", "0",
                 "--gamma2", "0", "--factors", "2", "--out", str(fit)]) == 0
    argv = {"scca": ["scca", "--x1", paths[x1], "--x2", paths[x2]],
            "tune": ["tune", "--x1", paths[x1], "--x2", paths[x2], "--gamma1-grid", "0.1",
                     "--gamma2-grid", "0.1", "--permutations", "3"],
            "report": ["report", "--solution", str(fit / "solution.json"),
                       "--views", paths[x1], paths[x2]],
            "interp": ["report", "--kind", "interp", "--solution", str(fit / "solution.json"),
                       "--views", paths[x1], paths[x2]]}[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_tune_grids_from_config_mean_what_their_flags_mean(tmp_path, capsys):
    _write_small_views(tmp_path, seed=12)
    views = ["--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
             "--permutations", "5", "--seed", "2"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gamma1_grid": [0.3, 0.5], "gamma2_grid": "0.4,0.6"}))
    assert main(["tune", *views, "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    assert main(["tune", *views, "--gamma1-grid", "0.3,0.5", "--gamma2-grid", "0.4,0.6",
                 "--out", str(tmp_path / "f")]) == 0
    assert ((tmp_path / "c" / "tune.json").read_bytes()
            == (tmp_path / "f" / "tune.json").read_bytes())
    # a flag wins over the config's grid
    assert main(["tune", *views, "--config", str(config), "--gamma1-grid", "0.35",
                 "--out", str(tmp_path / "w")]) == 0
    echo = json.loads((tmp_path / "w" / "tune.json").read_text())["metadata"]["config"]
    assert (echo["gamma1_grid"], echo["gamma2_grid"]) == ([0.35], [0.4, 0.6])


def test_tune_without_a_grid_exits_1_naming_it(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gamma1_grid": [0.3]}))
    for extra, key in (([], "gamma1_grid"), (["--gamma1-grid", "0.3"], "gamma2_grid"),
                       (["--config", str(config)], "gamma2_grid")):
        assert main(["tune", "--x1", missing, "--x2", missing, *extra,
                     "--out", str(tmp_path / "o")]) == 1
        flag = "--" + key.replace("_", "-")
        assert capsys.readouterr().err == (
            f"error: {flag} is required (the flag, or '{key}' in --config)\n")
    # a bare number is not a grid: exit 1 with a message, not a traceback
    config.write_text(json.dumps({"gamma1_grid": 0.3, "gamma2_grid": [0.3]}))
    assert main(["tune", "--x1", missing, "--x2", missing, "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: expected comma-separated numbers or a JSON array, got 0.3\n")


@pytest.mark.parametrize("method", ["perm", "cv"])
def test_tune_jobs_below_one_exits_1(tmp_path, capsys, method):
    _write_small_views(tmp_path)
    out = tmp_path / "o"
    assert main(["tune", "--method", method, "--x1", str(tmp_path / "x1.csv"),
                 "--x2", str(tmp_path / "x2.csv"), "--gamma1-grid", "0.1",
                 "--gamma2-grid", "0.1", "--folds", "2", "--permutations", "3",
                 "--jobs", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: jobs must be at least 1, got 0\n"
    assert not (out / "tune.json").exists()

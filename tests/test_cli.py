"""CLI contract: flags, exit codes, output determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import hcbounds
from hcbounds import __version__, oracle_check
from hcbounds.cli import main
from hcbounds._runtime import thread_cap


SRC = str(Path(hcbounds.__file__).resolve().parents[1])


def expected_meta():
    return {
        "threads": thread_cap(),
        "versions": {"hcbounds": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }


def exit_code(argv) -> int:
    """main's exit status, whether main returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SINGLETON = json.dumps(
    {
        "components": [
            {"weight": 0.8, "label": 1, "law": {"kind": "atom", "x": 0.5}},
            {"weight": 0.2, "label": -1, "law": {"kind": "atom", "x": 0.5}},
        ]
    }
)


class TestTransformCommand:
    def test_hinge_linear_single_affine_segment(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["transform", "--loss", "hinge", "--class", "linear", "--B", "0.8", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        segs = doc["transform"]["segments"]
        assert len(segs) == 1 and segs[0]["kind"] == "affine"
        assert segs[0]["coefficients"][0] == pytest.approx(0.8)
        assert doc["inverse"]["segments"][0]["coefficients"][0] == pytest.approx(1.25)
        assert doc["meta"] == expected_meta()

    def test_sup_hinge_without_beta_rejected(self, capsys):
        code = main(["transform", "--loss", "sup-hinge", "--class", "linear", "--gamma", "0.1"])
        assert code == 2
        assert "no nontrivial" in capsys.readouterr().err

    def test_quadratic_unrestricted_is_pure_square(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(["transform", "--loss", "quadratic", "--class", "all", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [s["kind"] for s in doc["transform"]["segments"]] == ["power"]
        assert doc["transform"]["segments"][0]["coefficients"] == [1.0, 2.0]

    @pytest.mark.parametrize("B", ["1e200", "1.3e154"])
    def test_huge_bias_budget_inverse_is_unbounded_one(self, tmp_path, capsys, B):
        # the inverse's knot B^2 (or the affine piece's value 2B*B there)
        # overflows, so it is dropped: sqrt(y) below it, as for B = inf
        docs = []
        for budget in (B, "inf"):
            out = tmp_path / f"q{budget}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["transform", "--loss", "quadratic", "--class", "linear", "--B", budget,
                             "--out", str(out)])
            assert code == 0
            assert capsys.readouterr().err == ""
            docs.append(json.loads(out.read_text()))
        huge, unbounded = docs
        for key in ("direction", "relaxed", "breakpoints", "segments"):
            assert huge["inverse"][key] == unbounded["inverse"][key]
        assert huge["inverse"]["breakpoints"] == [0.0, "inf"]
        assert huge["transform"]["segments"] == unbounded["transform"]["segments"]

    def test_sup_loss_requires_gamma(self, capsys):
        assert main(["transform", "--loss", "sup-rho-margin", "--class", "linear"]) == 2

    def test_massart_adversarial_route(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["transform", "--loss", "sup-hinge", "--class", "linear", "--gamma", "0.1",
             "--massart-beta", "0.5", "--B", "1.0", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["transform"]["segments"][0]["coefficients"][0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "loss_args",
        [["--loss", "quadratic", "--class", "all", "--massart-beta", "0.25"],
         ["--loss", "sup-hinge", "--class", "linear", "--gamma", "0.1", "--massart-beta", "0.5"]],
        ids=["quadratic-all", "sup-hinge-linear"],
    )
    def test_massart_with_eps_rejected(self, tmp_path, capsys, loss_args):
        out = tmp_path / "m.json"
        assert main(["transform", *loss_args, "--eps", "0.1", "--out", str(out)]) == 2
        assert "eps must be 0" in capsys.readouterr().err
        assert not out.exists()
        assert main(["transform", *loss_args, "--eps", "0", "--out", str(out)]) == 0

    def test_unknown_loss(self, capsys):
        assert main(["transform", "--loss", "cubic"]) == 2
        assert "unknown loss 'cubic'" in capsys.readouterr().err


class TestTransformCsv:
    def test_csv_holds_the_json_samples(self, tmp_path):
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        flags = ["transform", "--loss", "logistic", "--class", "linear", "--B", "0.8", "--grid-n", "5"]
        assert main([*flags, "--format", "csv", "--out", str(csv_out)]) == 0
        assert main([*flags, "--out", str(json_out)]) == 0
        header, *lines = csv_out.read_text().splitlines()
        samples = json.loads(json_out.read_text())["samples"]
        assert header == "t,T" and len(lines) == 5
        assert [[float(v) for v in line.split(",")] for line in lines] == [
            [float(format(s["t"], ".12g")), float(format(s["T"], ".12g"))] for s in samples
        ]

    def test_csv_needs_out(self, capsys):
        assert main(["transform", "--loss", "hinge", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert "--format csv requires --out" in captured.err and captured.out == ""


class TestSpecFlagsTheLossOrClassDoesNotRead:
    """--k is read only by a sigmoid loss, --rho only by a rho-margin loss,
    --Lambda only by transform's --class relu, and --W and --B only by
    --class linear and relu; given elsewhere, on the command line or in a
    config file, they exit 2 instead of being ignored.  bound has no
    --Lambda at all, so argparse refuses it there."""

    COMMANDS = {
        "transform": ["transform", "--class", "linear"],
        "bound": ["bound", "--class", "linear", "--w", "-0.4", "--dist", SINGLETON],
    }
    STRAY = [
        (["--loss", "hinge", "--k", "2"], "--k"),
        (["--loss", "hinge", "--rho", "0.5"], "--rho"),
        (["--loss", "sigmoid", "--rho", "0.5", "--Lambda", "0.5"], "--Lambda, --rho"),
        (["--loss", "rho-margin", "--k", "2"], "--k"),
        (["--loss", "logistic", "--class", "all", "--W", "7", "--B", "0.3"], "--B, --W"),
        (["--loss", "quadratic", "--class", "all", "--B", "inf"], "--B"),
    ]

    @pytest.mark.parametrize("flags, named", STRAY, ids=["k-hinge", "rho-hinge", "rho-Lambda-sigmoid", "k-rho-margin",
                                                         "W-B-all", "B-inf-all"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_the_run_does_not_read(self, capsys, command, flags, named):
        assert exit_code([*self.COMMANDS[command], *flags]) == 2
        bound_lambda = command == "bound" and "--Lambda" in flags
        assert ("unrecognized arguments: --Lambda 0.5" if bound_lambda else f"does not use {named} (") in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key, value, cls", [("k", 2, "linear"), ("rho", 0.5, "linear"), ("Lambda", 0.5, "linear"),
                                                 ("W", 7, "all"), ("B", 0.3, "all")])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_key_the_run_does_not_read(self, tmp_path, capsys, command, key, value, cls):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([*self.COMMANDS[command], "--loss", "hinge", "--class", cls, "--config", str(cfg)]) == 2
        bound_lambda = command == "bound" and key == "Lambda"
        assert ("unknown config keys: ['Lambda']" if bound_lambda else f"does not use --{key} (") in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags, field, label", [
        (["--loss", "rho-margin", "--rho", "0.5"], "loss", "rho-margin(rho=0.5)"),
        (["--loss", "sigmoid", "--k", "2"], "loss", "sigmoid(k=2)"),
        (["--loss", "hinge", "--class", "relu", "--Lambda", "0.5"], "class_params", "relu(Lambda=0.5,W=1,B=1)"),
        (["--loss", "hinge", "--W", "3", "--B", "0.8"], "class_params", "linear(W=3,B=0.8)"),
    ], ids=["rho", "k", "Lambda", "W-B"])
    def test_read_flags_reach_the_transform(self, tmp_path, flags, field, label):
        out, cfg_out, cfg = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cfg.json"
        assert main([*self.COMMANDS["transform"], *flags, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["transform"][field] == doc["inverse"][field] == label
        # the same parameter from a config file
        cfg.write_text(json.dumps({flags[-2].lstrip("-"): float(flags[-1])}))
        assert main([*self.COMMANDS["transform"], *flags[:-2], "--config", str(cfg), "--out", str(cfg_out)]) == 0
        assert out.read_bytes() == cfg_out.read_bytes()

    def test_read_flag_reaches_the_bound_report(self, tmp_path):
        out = tmp_path / "b.json"
        assert main([*self.COMMANDS["bound"], "--loss", "rho-margin", "--rho", "0.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["components"]["transform"] == "rho-margin(rho=0.5)"


class TestOneTransformSelector:
    """transform and bound pick their transform through one selector, and the
    JSON inverse of transform is the Gamma that bound applies."""

    @pytest.mark.parametrize(
        "loss_args, end",
        [(["--loss", "hinge", "--class", "linear", "--B", "0.8"], "inf"),
         (["--loss", "sup-rho-margin", "--class", "linear", "--B", "0.8", "--gamma", "0.1"], 0.8),
         (["--loss", "logistic", "--class", "all", "--massart-beta", "0.25"], 1.0),
         (["--loss", "sup-hinge", "--class", "linear", "--gamma", "0.1", "--massart-beta", "0.25"], 1.0)],
        ids=["standard", "sup-rho-margin", "massart", "massart-sup"],
    )
    def test_inverse_never_null(self, tmp_path, loss_args, end):
        out = tmp_path / "t.json"
        assert main(["transform", *loss_args, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["inverse"]["direction"] == "inverse"
        top = doc["inverse"]["breakpoints"][-1]
        if end == "inf":
            assert top == "inf"
        else:  # the inverse's domain is the forward's range [0, T(1)]
            assert top == doc["samples"][-1]["T"] == pytest.approx(end, rel=1e-15)

    @pytest.mark.parametrize(
        "command",
        [["transform"], ["bound", "--dist", "sect7-adv", "--W", "1", "--B", "0.5", "--w", "0.7", "--b", "-0.2"]],
        ids=["transform", "bound"],
    )
    def test_sup_rho_margin_with_beta_rejected(self, capsys, command):
        code = main([*command, "--loss", "sup-rho-margin", "--class", "linear", "--gamma", "0.1",
                     "--massart-beta", "0.25"])
        assert code == 2
        assert "Massart-modified worst-case transform not derived for rho-margin" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["transform"], ["bound", "--W", "5", "--B", "0.5", "--dist", "sect7-adv"]],
                             ids=["transform", "bound"])
    @pytest.mark.parametrize("loss, gamma, msg", [("hinge", "0.1", "--gamma > 0 requires a sup- loss"),
                                                  ("sup-hinge", "0", "sup-hinge requires --gamma > 0")],
                             ids=["plain-loss-with-gamma", "sup-loss-without-gamma"])
    def test_loss_must_match_gamma(self, capsys, command, loss, gamma, msg):
        # both commands name the flag and the prefix, not the library's spec check
        assert main(command + ["--loss", loss, "--gamma", gamma, "--class", "linear"]) == 2
        assert msg in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(900) overflows
    def test_non_finite_surrogate_risk_exits_2(self, capsys):
        code = main(["bound", "--loss", "exponential", "--class", "linear", "--W", "1000", "--B", "0.5",
                     "--w", "900", "--b", "0", "--dist", "sect7-nonadv", "--sigma", "0.1"])
        assert code == 2
        assert "R_surrogate(h) is not finite" in capsys.readouterr().err


class TestBoundCommand:
    def test_singleton_inline_json(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(
            ["bound", "--loss", "hinge", "--class", "linear", "--B", "0.5",
             "--dist", SINGLETON, "--w", "-0.4", "--b", "0", "--mode", "exact", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True
        assert doc["lhs"] == pytest.approx(0.6)
        assert doc["rhs"] == pytest.approx(1.44)
        assert doc["meta"] == expected_meta()

    def test_mc_mode_deterministic_files(self, tmp_path):
        args = ["bound", "--loss", "quadratic", "--class", "all", "--dist", "sect7-nonadv",
                "--sigma", "0.1", "--massart-beta", "0.5", "--mode", "mc", "--n", "50000",
                "--seed", "7", "--w", "-5", "--b", "0"]
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("loss", ["quadratic", "exponential"])
    @pytest.mark.parametrize("sigma", ["0.1", "0.02"])
    def test_overflowing_bias_budget_reports(self, tmp_path, loss, sigma):
        # B = 1e200 overflows the surrogate on much of the search grid; at
        # sigma 0.02 the far tail's density also underflows to 0 there
        out = tmp_path / "b.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bound", "--loss", loss, "--class", "linear", "--W", "1", "--B", "1e200",
                         "--w", "0.5", "--b", "0.1", "--dist", "sect7-nonadv", "--sigma", sigma,
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True
        split = doc["components"]
        assert all(math.isfinite(v) for v in (doc["lhs"], doc["rhs"], split["M_surrogate"], split["surrogate_excess"]))

    def test_unrestricted_bias_writes_a_null_split(self, tmp_path):
        # --B inf: the verdict holds, but the margin-loss search cannot run
        out = tmp_path / "b.json"
        code = main(["bound", "--loss", "hinge", "--class", "linear", "--W", "5", "--B", "inf",
                     "--dist", "sect7-nonadv", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True and doc["lhs"] == 0.75
        assert doc["components"]["surrogate_excess"] is None and doc["components"]["M_surrogate"] is None
        assert doc["provenance"]["surrogate_best_in_class_tol"] is None
        assert "finite W and B" in doc["provenance"]["surrogate_split"]

    def test_overflowing_bias_budget_under_warnings_as_errors(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hcbounds.cli", "bound", "--loss", "quadratic",
             "--class", "linear", "--W", "1", "--B", "1e200", "--w", "0.5", "--b", "0.1",
             "--dist", "sect7-nonadv", "--sigma", "0.02"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["holds"] is True

    def test_invalid_beta_rejected(self, capsys):
        code = main(["bound", "--loss", "quadratic", "--class", "all", "--dist", "sect7-nonadv",
                     "--massart-beta", "0.7"])
        assert code == 2

    @pytest.mark.parametrize("dist, mass", [
        # eta crosses (0.25, 0.75) on a band 1.1e-4 wide, between two points of a grid of spacing 2e-4
        ({"components": [
            {"weight": 0.5, "label": 1, "law": {"kind": "truncnormal", "lo": -1, "hi": 1, "mean": 0.10263, "std": 5e-4}},
            {"weight": 0.5, "label": -1, "law": {"kind": "truncnormal", "lo": -1, "hi": 1, "mean": 0.09763, "std": 5e-4}},
        ]}, r"3\.4\d*e-07"),
        ({"components": [{"weight": 0.6, "label": 1, "law": {"kind": "atom", "x": 0.3}},
                         {"weight": 0.4, "label": -1, "law": {"kind": "atom", "x": 0.3}}]}, "1"),
    ], ids=["narrow-band", "atom-at-eta-0.6"])
    def test_massart_violation_exits_2_naming_its_mass(self, capsys, dist, mass):
        # |eta - 1/2| < 0.25 on positive mass lies outside the noise condition the bound assumes
        code = main(["bound", "--loss", "quadratic", "--class", "all", "--massart-beta", "0.25", "--w", "1",
                     "--b=-0.1", "--dist", json.dumps(dist)])
        assert code == 2
        assert re.search(rf"\|eta - 1/2\| >= 0.25 on mass {mass} \(at x = ", capsys.readouterr().err)

    def test_single_sample_monte_carlo_rejected(self, capsys):
        code = main(["bound", "--loss", "quadratic", "--class", "all", "--dist", "sect7-nonadv",
                     "--massart-beta", "0.5", "--mode", "mc", "--n", "1"])
        assert code == 2
        assert "sample size" in capsys.readouterr().err

    def test_zero_mass_component_rejected(self, capsys):
        dist = json.dumps(
            {"components": [{"weight": 1.0, "label": 1,
                             "law": {"kind": "truncnormal", "lo": 0.5, "hi": 1.0, "mean": 0.0, "std": 0.01}}]}
        )
        code = main(["bound", "--loss", "hinge", "--class", "linear", "--dist", dist])
        assert code == 2
        assert "no floating-point mass" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0.1", "0"])
    def test_eps_is_not_a_bound_flag(self, capsys, eps):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--loss", "hinge", "--class", "linear", "--B", "0.5",
                  "--dist", SINGLETON, "--w", "-0.4", "--eps", eps])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err

    def test_failed_quadrature_is_a_validation_error(self, capsys):
        # the score -1e308*(x + 1) overflows to -inf, and the logistic loss there to inf, on the
        # label +1 component (the logistic risk integrates, the exponential one is closed form)
        dist = json.dumps({"components": [
            {"weight": 0.5, "label": 1, "law": {"kind": "truncnormal", "lo": 0.1, "hi": 1.0, "mean": 0.1, "std": 0.1}},
            {"weight": 0.5, "label": -1, "law": {"kind": "truncnormal", "lo": -1.0, "hi": -0.1, "mean": -0.1,
                                                  "std": 0.1}},
        ]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["bound", "--loss", "logistic", "--class", "linear", "--W", "1e308", "--B", "1e308",
                         "--w=-1e308", "--b=-1e308", "--dist", dist])
        assert code == 2
        assert "integrand not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--loss", "sup-rho-margin", "--gamma", "0.1"]])
    def test_out_of_class_hypothesis_rejected(self, capsys, extra):
        code = main(["bound", "--loss", "rho-margin", "--class", "linear", "--W", "1", "--B", "0.5",
                     "--w", "3", "--b", "2", "--dist", "sect7-nonadv", *extra])
        assert code == 2
        assert "outside the class" in capsys.readouterr().err

    def test_default_w_needs_wider_class(self, capsys):
        # the default h(x) = -5x lies outside the default linear class (W = 1)
        args = ["bound", "--loss", "hinge", "--class", "linear", "--dist", SINGLETON]
        assert main(args) == 2
        assert "|w| = 5.0 exceeds W = 1.0" in capsys.readouterr().err
        assert main(args + ["--W", "5"]) == 0

    @pytest.mark.parametrize(
        "args, surrogate_excess, m_surrogate, repins",
        [
            ("--loss hinge --class linear --W 1 --B 0.5 --w -0.8 --b 0.1 --dist sect7-nonadv --sigma 0.05",
             "0x1.2fb5e5ddb1480p-7", "0x1.308b94155c4c4p-1",
             {"surrogate_excess": "0x1.2fb5e5ddb14c0p-7", "M_surrogate": "0x1.308b94155c4c2p-1"}),
            ("--loss sup-rho-margin --class linear --W 1 --B 0.5 --gamma 0.1 --w 0.7 --b -0.2 "
             "--dist sect7-adv --sigma 0.1", "0x1.397a07b9229fap-2", "0x1.bbb8749a04050p-4",
             {"surrogate_excess": "0x1.397a07b9229fcp-2", "M_surrogate": "0x1.bbb8749a1c0c4p-4"}),
            ("--loss quadratic --class all --w -5 --b 0 --dist sect7-nonadv --sigma 0.1",
             "0x1.9e0b6b501a1d3p+1", "0x0.0p+0", {"surrogate_excess": "0x1.9e0b6b501a1d2p+1"}),
        ],
        ids=["linear", "adversarial-linear", "all"],
    )
    def test_surrogate_split_pinned(self, tmp_path, args, surrogate_excess, m_surrogate, repins):
        # pinned while assemble_bound still ran the surrogate search itself;
        # repins: the fields the Gauss-Kronrod quadrature, its 4-way panel
        # refinement, the closed-form exact risks and the closed-form E[C*]
        # moved, within 1e-10
        out = tmp_path / "split.json"
        assert main(["bound", *args.split(), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"lhs", "rhs", "components", "mc_stderr_lhs", "mc_stderr_rhs", "holds",
                            "slack", "saturated", "relaxed_inverse", "provenance", "meta"}
        assert set(doc["components"]) == {"surrogate_excess", "M_surrogate", "M_target", "transform"}
        for key, anchor in (("surrogate_excess", surrogate_excess), ("M_surrogate", m_surrogate)):
            pin = repins.get(key, anchor)
            assert doc["components"][key].hex() == pin
            assert abs(float.fromhex(pin) - float.fromhex(anchor)) <= 1e-10
        # the surrogate search's certified gap; the unrestricted class needs no search
        assert 0.0 <= doc["provenance"]["surrogate_best_in_class_tol"] <= (0.0 if "--class all" in args else 1e-6)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("grid_n", ["0", "1", "-3"])
    def test_grid_n_below_two_rejected(self, tmp_path, capsys, fmt, grid_n):
        out = tmp_path / "t.out"
        code = main(["transform", "--loss", "hinge", "--grid-n", grid_n, "--format", fmt, "--out", str(out)])
        assert code == 2
        assert f"--grid-n must be >= 2 to sample both t = 0 and t = 1, got {grid_n}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_n_two_samples_both_ends(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["transform", "--loss", "hinge", "--grid-n", "2", "--out", str(out)]) == 0
        assert [s["t"] for s in json.loads(out.read_text())["samples"]] == [0.0, 1.0]

    def test_dist_file_path(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(SINGLETON)
        out = tmp_path / "rep.json"
        code = main(["bound", "--loss", "hinge", "--class", "linear", "--B", "0.5",
                     "--dist", str(path), "--w", "-0.4", "--b", "0", "--out", str(out)])
        assert code == 0

    def test_zero_risk_hypothesis_has_zero_estimation_error(self, tmp_path):
        # h splits the two lobes at x = 0.6; a (w, b) grid search with
        # B << W missed that threshold and reported lhs = -3.6e-3
        lobes = [{"weight": 0.5, "label": -1, "law": {"kind": "truncnormal", "lo": -1.0, "hi": 0.6, "mean": 0.2,
                                                        "std": 0.3}},
                 {"weight": 0.5, "label": 1, "law": {"kind": "truncnormal", "lo": 0.6, "hi": 1.0, "mean": 0.8,
                                                       "std": 0.2}}]
        out = tmp_path / "rep.json"
        code = main(["bound", "--loss", "hinge", "--class", "linear", "--W", "1", "--B", "0.001",
                     "--w", "0.001", "--b", "-0.0006", "--dist", json.dumps({"components": lobes}), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["lhs"] == 0.0 and doc["components"]["M_target"] >= 0.0
        assert doc["provenance"]["best_in_class_tol"] == 0.0


class TestBoundFlagsTheRunDoesNotRead:
    """--n/--seed are read only with --mode mc, --sigma only with a preset
    --dist; given elsewhere, on the command line or in a config file, they
    exit 2 instead of being ignored."""

    PRESET = ["bound", "--loss", "hinge", "--class", "linear", "--W", "5", "--B", "0.5", "--dist", "sect7-nonadv"]
    INLINE = ["bound", "--loss", "hinge", "--class", "linear", "--B", "0.5", "--w", "-0.4", "--dist", SINGLETON]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--n", "7"], "--n"),
            (["--seed", "3"], "--seed"),
            (["--mode", "exact", "--n", "7", "--seed", "3"], "--n, --seed"),
        ],
    )
    def test_sample_flags_without_monte_carlo(self, capsys, flags, named):
        assert main([*self.PRESET, *flags]) == 2
        assert f"does not use {named} (" in capsys.readouterr().err

    def test_sigma_with_inline_json(self, capsys):
        assert main([*self.INLINE, "--sigma", "0.05"]) == 2
        assert "does not use --sigma (" in capsys.readouterr().err

    def test_sigma_with_dist_path(self, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_text(SINGLETON)
        args = [*self.INLINE[:-1], str(path), "--sigma", "0.1", "--n", "100"]
        assert main(args) == 2
        assert "does not use --n, --sigma (" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("n", 1000), ("seed", 3)])
    def test_config_key_without_monte_carlo(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([*self.PRESET, "--config", str(cfg)]) == 2
        assert f"does not use --{key} (" in capsys.readouterr().err

    def test_config_sigma_with_inline_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.1}))
        assert main([*self.INLINE, "--config", str(cfg)]) == 2
        assert "does not use --sigma (" in capsys.readouterr().err

    def test_read_flags_still_accepted(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.PRESET, "--sigma", "0.1", "--mode", "mc", "--n", "20000", "--seed", "3",
                     "--out", str(out1)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.1, "mode": "mc", "n": 20000, "seed": 3}))
        assert main([*self.PRESET, "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["provenance"]["n"] == 20000

    def test_defaults_fill_in_when_read(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.PRESET, "--out", str(out1)]) == 0
        assert main([*self.PRESET, "--sigma", "0.05", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestOracleCheckCommand:
    def test_pass_at_coarse_grid(self, capsys):
        assert main(["oracle-check", "--grid-n", "501", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_tampered_forms_fail(self, capsys):
        assert main(["oracle-check", "--grid-n", "501", "--instances", "2", "--tamper"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_one_sided_check_catches_overshoot_within_tolerance(self, monkeypatch, tmp_path, capsys):
        # a closed form 1e-6 above the oracle passes the two-sided 2e-3 check;
        # the grid never undershoots the infimum, so the one-sided check fails it
        real = oracle_check.min_conditional_risk
        monkeypatch.setattr(oracle_check, "min_conditional_risk", lambda *a: real(*a) + 1e-6)
        out = tmp_path / "oc.json"
        assert main(["oracle-check", "--grid-n", "501", "--instances", "2", "--out", str(out)]) == 1
        assert "closed_over_oracle=" in capsys.readouterr().out
        rows = {r["label"]: r for r in json.loads(out.read_text())["rows"]}
        hinge_row = rows["hinge / linear"]
        assert hinge_row["max_dev_min_risk"] <= hinge_row["threshold"]
        assert hinge_row["max_closed_over_oracle"] >= 1e-6 and not hinge_row["passed"]
        assert rows["sup-rho-margin / linear"]["passed"]
        fields = {"label", "instances", "max_dev_min_risk", "max_dev_transform", "max_closed_over_oracle",
                  "threshold", "passed"}
        assert all(set(r) == fields for r in rows.values())

    def test_out_carries_meta(self, tmp_path):
        out = tmp_path / "oc.json"
        assert main(["oracle-check", "--grid-n", "37", "--instances", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"rows", "meta"} and doc["meta"] == expected_meta()

    # a usage error, not a failed check: exit 2 with a message, no traceback
    @pytest.mark.parametrize("flag, value, msg", [
        ("--instances", "0", "instances"),
        ("--grid-n", "1", "grid_n must be >= 2"),
        ("--grid-n", "0", "grid_n must be >= 2"),
        ("--grid-n", "-5", "grid_n must be >= 2"),
    ])
    def test_bad_sizes_rejected(self, capsys, flag, value, msg):
        assert main(["oracle-check", flag, value]) == 2
        assert msg in capsys.readouterr().err


class TestSweepCommand:
    def test_deterministic_outputs(self, tmp_path, capsys):
        base = ["sweep", "--experiment", "sect7-nonadv", "--n", "20000", "--seed", "3",
                "--sigmas", "0.2,0.05"]
        assert main(base + ["--out", str(tmp_path / "s1")]) == 0
        assert main(base + ["--out", str(tmp_path / "s2")]) == 0
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
        meta = json.loads((tmp_path / "s1.json").read_text())["meta"]
        assert {k: meta[k] for k in ("threads", "versions")} == expected_meta()

    def test_figure1_emission(self, tmp_path):
        assert main(["sweep", "--experiment", "figure1", "--out", str(tmp_path / "f"),
                     "--format", "csv"]) == 0
        header = (tmp_path / "f.csv").read_text().splitlines()[0]
        assert header == "loss,curve,x,y"

    def test_figure1_grid_n_is_what_meta_records(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert main(["sweep", "--experiment", "figure1", "--grid-n", "120", "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads((tmp_path / "f.json").read_text())
        assert doc["meta"]["grid_n"] == 120
        hinge_rows = [r for r in doc["rows"] if r["loss"] == "hinge" and r["curve"] == "transform"]
        assert len(hinge_rows) == 120
        # below the smooth-curve floor the run is refused, not silently widened
        assert main(["sweep", "--experiment", "figure1", "--grid-n", "50", "--out", str(tmp_path / "g"),
                     "--format", "json"]) == 2
        assert "grid_n >= 100" in capsys.readouterr().err
        assert not (tmp_path / "g.json").exists()

    def test_adversarial_preset(self, tmp_path):
        assert main(["sweep", "--experiment", "sect7-adv", "--n", "20000", "--seed", "3",
                     "--sigmas", "0.2,0.05", "--out", str(tmp_path / "a")]) == 0
        rows = json.loads((tmp_path / "a.json").read_text())["rows"]
        assert all(r["holds"] for r in rows)

    @pytest.mark.parametrize(
        "experiment, flags, named",
        [
            ("sect7-nonadv", ["--gamma", "0.7", "--W", "9", "--grid-n", "3"], "--W, --gamma, --grid-n"),
            # the value equals the adversarial default: given is what counts
            ("sect7-nonadv", ["--gamma", "0.1"], "--gamma"),
            ("sect7-adv", ["--B", "0.8"], "--B"),
            ("figure1", ["--n", "20000", "--seed", "3", "--sigmas", "0.2"], "--n, --seed, --sigmas"),
            ("figure1", ["--gamma", "0.2", "--w", "1", "--b", "0"], "--b, --gamma, --w"),
        ],
    )
    def test_flags_the_experiment_does_not_read_rejected(self, tmp_path, capsys, experiment, flags, named):
        out = tmp_path / "s"
        assert main(["sweep", "--experiment", experiment, *flags, "--out", str(out)]) == 2
        assert f"--experiment {experiment} does not use {named}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_config_key_the_experiment_does_not_read_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.3}))
        assert main(["sweep", "--experiment", "sect7-nonadv", "--config", str(cfg)]) == 2
        assert "does not use --gamma" in capsys.readouterr().err

    def test_meta_records_gamma_only_when_adversarial(self, tmp_path):
        common = ["--n", "20000", "--seed", "3", "--sigmas", "0.2", "--format", "json"]
        assert main(["sweep", "--experiment", "sect7-nonadv", *common, "--out", str(tmp_path / "s")]) == 0
        assert main(["sweep", "--experiment", "sect7-adv", *common, "--out", str(tmp_path / "a")]) == 0
        nonadv = json.loads((tmp_path / "s.json").read_text())["meta"]
        adv = json.loads((tmp_path / "a.json").read_text())["meta"]
        assert "gamma" not in nonadv and adv["gamma"] == 0.1
        assert {k: nonadv[k] for k in ("sigmas", "n", "seed", "w", "b")} == {
            "sigmas": [0.2], "n": 20000, "seed": 3, "w": -5.0, "b": 0.0
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--experiment", "bogus"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": "0.8", "loss": "hinge"}))
        out = tmp_path / "t.json"
        code = main(["transform", "--loss", "hinge", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["transform"]["segments"][0]["coefficients"][0] == pytest.approx(0.8)

    # 1.0 is --B's default: given is what counts
    @pytest.mark.parametrize("B", [0.4, 1.0])
    def test_explicit_flag_overrides_config(self, tmp_path, B):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": "0.8"}))
        out = tmp_path / "t.json"
        main(["transform", "--loss", "hinge", "--B", str(B), "--config", str(cfg), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["transform"]["segments"][0]["coefficients"][0] == pytest.approx(B)

    # a tampered grid-5 check fails every row; a false switch must leave it off
    @pytest.mark.parametrize("tamper, code", [(False, 0), (True, 1)])
    def test_config_switch(self, tmp_path, capsys, tamper, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tamper": tamper}))
        assert main(["oracle-check", "--grid-n", "5", "--instances", "1", "--config", str(cfg)]) == code
        assert ("[FAIL]" in capsys.readouterr().out) is tamper

    # a config file cannot name another config file
    @pytest.mark.parametrize("values, unknown", [({"bogus_key": 1}, "bogus_key"), ({"config": "x"}, "config")])
    def test_unknown_config_keys_rejected(self, tmp_path, capsys, values, unknown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main(["transform", "--loss", "hinge", "--config", str(cfg)]) == 2
        assert f"unknown config keys: ['{unknown}']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["transform", "--loss", "hinge"],
        ["bound", "--loss", "hinge", "--class", "linear", "--W", "5", "--B", "0.5", "--dist", "sect7-nonadv"],
    ], ids=["transform", "bound"])
    def test_norm_index_config_key_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2}))
        assert main([*command, "--config", str(cfg)]) == 2
        assert "unknown config keys: ['p']" in capsys.readouterr().err


    def test_values_typed_like_flags(self, tmp_path):
        # "2" for a float flag and 0.5 for a string one parse as --W 2 --B 0.5 do
        out1, out2, cfg = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cfg.json"
        assert main(["transform", "--loss", "hinge", "--W", "2", "--B", "0.5", "--out", str(out1)]) == 0
        cfg.write_text(json.dumps({"W": "2", "B": 0.5}))
        assert main(["transform", "--loss", "hinge", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command, values, msg", [
        (["sweep", "--experiment", "sect7-nonadv"], {"n": "abc"}, "argument --n: invalid int value: 'abc'"),
        (["oracle-check"], {"instances": 2.5}, "argument --instances: invalid int value: '2.5'"),
        (["transform", "--loss", "hinge"], {"W": "two"}, "argument --W: invalid float value: 'two'"),
        (["transform", "--loss", "hinge"], {"W": [2]}, "config key 'W' takes a string or a number, got [2]"),
        (["transform", "--loss", "hinge"], {"eps": True}, "config key 'eps' takes a string or a number"),
        (["transform", "--loss", "hinge"], {"format": "xml"}, "argument --format: invalid choice: 'xml'"),
        (["oracle-check"], {"tamper": 1}, "config key 'tamper' takes true or false, got 1"),
    ], ids=["sweep-n", "oracle-check-instances", "transform-W", "transform-W-list", "transform-eps-bool",
            "transform-format", "oracle-check-tamper"])
    def test_wrongly_typed_values_rejected(self, tmp_path, capsys, command, values, msg):
        # a value of the wrong type is refused by this reader, a string or a
        # number that its flag cannot parse by argparse
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert exit_code([*command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert msg in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("flags, required", [
        (["transform", "--class", "linear", "--B", "0.8"], {"loss": "hinge"}),
        (["bound", "--class", "linear", "--B", "0.5", "--w", "-0.4"], {"loss": "hinge", "dist": SINGLETON}),
        (["sweep", "--n", "20000", "--seed", "3", "--sigmas", "0.2", "--format", "json"],
         {"experiment": "sect7-nonadv"}),
    ], ids=["transform", "bound", "sweep"])
    def test_config_supplies_required_flags(self, tmp_path, flags, required):
        out1, out2, cfg = tmp_path / "a", tmp_path / "b", tmp_path / "cfg.json"
        given = [f"--{key}={value}" for key, value in required.items()]
        assert main([*flags, *given, "--out", str(out1)]) == 0
        cfg.write_text(json.dumps(required))
        assert main([*flags, "--config", str(cfg), "--out", str(out2)]) == 0
        if flags[0] == "sweep":
            out1, out2 = out1.with_suffix(".json"), out2.with_suffix(".json")
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("text", ["null", "5", "[{}]"])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["transform", "--loss", "hinge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"must hold a JSON object, got {text}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestUnreadableInputs:
    """A malformed --dist or a path that cannot be read or written exits 2
    with a message, never 1 with a traceback."""

    BOUND = ["bound", "--loss", "hinge", "--class", "linear", "--B", "0.5", "--w", "-0.4"]
    ATOM = {"kind": "atom", "x": 0.5}

    @pytest.mark.parametrize("dist, msg", [
        ({"components": 5}, "'components' takes a list, got 5"),
        ({"components": [5]}, "each of 'components' takes a JSON object, got 5"),
        ({"components": [{"weight": 1.0, "label": 1, "law": 5}]}, "'law' takes a JSON object, got 5"),
        ({"components": [{"weight": None, "label": 1, "law": ATOM}]}, "'weight' takes a number, got None"),
        ({"components": [{"weight": 1.0, "label": 1, "law": {"kind": "atom", "x": [0.5]}}]},
         "'x' takes a number, got [0.5]"),
        ({"components": [{"weight": 1.0, "label": 1.7, "law": ATOM}]}, "'label' takes an integer, got 1.7"),
        ({"components": [{"weight": True, "label": 1, "law": ATOM}]}, "'weight' takes a number, got True"),
        ({"components": [{"weight": "1.0", "label": 1, "law": ATOM}]}, "'weight' takes a number, got '1.0'"),
    ], ids=["components-number", "component-number", "law-number", "weight-null", "atom-x-list", "label-fraction",
            "weight-bool", "weight-numeric-string"])
    def test_malformed_dist_exits_2(self, capsys, dist, msg):
        assert main([*self.BOUND, "--dist", json.dumps(dist)]) == 2
        assert msg in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dist", "--config", "--out"])
    def test_directory_path_exits_2(self, tmp_path, capsys, flag):
        # a second --dist replaces the first
        assert main([*self.BOUND, "--dist", SINGLETON, flag, str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err


class TestNonFiniteHypothesis:
    """A slope or bias that is not finite, or a sweep's h whose loss
    overflows, is a usage error: exit 2 with a message naming it, not a
    failed check (exit 1)."""

    SWEEP = ["sweep", "--experiment", "sect7-nonadv", "--n", "10000", "--sigmas", "0.2"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command, msg", [
        (["bound", "--loss", "quadratic", "--class", "linear", "--W", "5", "--w", "nan", "--dist", "sect7-nonadv"],
         "h needs a finite w, got w = nan"),
        (["bound", "--loss", "quadratic", "--class", "all", "--b", "nan", "--dist", "sect7-nonadv"],
         "h needs a finite b, got b = nan"),
        ([*SWEEP, "--w", "-1000"], "the exponential risk of h(x) = -1000.0*x + 0.0 at sigma 0.2 is not finite"),
        ([*SWEEP, "--w", "nan"], "the sweeps' h needs a finite w, got w = nan"),
    ], ids=["bound-w-nan", "bound-all-b-nan", "sweep-w-overflow", "sweep-w-nan"])
    def test_exits_2(self, tmp_path, capsys, command, msg):
        assert main([*command, "--out", str(tmp_path / "o")]) == 2
        assert msg in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestNonFiniteLossParameters:
    """A sigmoid k or rho-margin rho that is not finite is a usage error
    (exit 2), not a crash with the failed-check code 1."""

    SPEC = ["--class", "linear", "--W", "5", "--B", "0.5"]

    @pytest.mark.parametrize("command, msg", [
        (["transform", "--loss", "rho-margin", "--rho", "inf"],
         "rho-margin loss requires a finite rho > 0, got rho=inf"),
        (["bound", "--loss", "rho-margin", "--rho", "inf", "--dist", "sect7-nonadv"],
         "rho-margin loss requires a finite rho > 0, got rho=inf"),
        (["transform", "--loss", "sigmoid", "--k", "inf"], "sigmoid loss requires a finite k > 0, got k=inf"),
        (["bound", "--loss", "sigmoid", "--k", "inf", "--dist", "sect7-nonadv"],
         "sigmoid loss requires a finite k > 0, got k=inf"),
    ], ids=["transform-rho-inf", "bound-rho-inf", "transform-k-inf", "bound-k-inf"])
    def test_exits_2(self, capsys, command, msg):
        assert main([*command, *self.SPEC]) == 2
        assert msg in capsys.readouterr().err

    def test_overflowing_sigmoid_curvature_falls_back_to_the_corner_bound(self, tmp_path):
        # k^2 overflows (k >~ 1.3e154): the cell's curvature is inf and the
        # search bounds it by its corners' largest margin instead
        out = tmp_path / "b.json"
        assert main(["bound", "--loss", "sigmoid", "--k", "1e160", *self.SPEC, "--dist", "sect7-nonadv",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True and math.isfinite(doc["provenance"]["surrogate_best_in_class_tol"])


class TestRetiredFlags:
    """Inputs are scalars, so no --p; bound does not truncate, so no --eps;
    bound's target follows from --loss, so no --target; bound has no
    best-in-class route for the ReLU class, so no --class relu (and no
    --Lambda: TestSpecFlagsTheLossOrClassDoesNotRead), which transform keeps."""

    BOUND = ["bound", "--loss", "hinge", "--W", "5", "--B", "0.5", "--dist", "sect7-nonadv"]

    def test_bound_relu_class_exits_2_at_parse_time(self, tmp_path, capsys):
        assert exit_code([*self.BOUND, "--class", "relu"]) == 2
        err = capsys.readouterr().err
        assert "argument --class: invalid choice: 'relu'" in err and "best-in-class" not in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cls": "relu"}))
        assert exit_code([*self.BOUND, "--config", str(cfg)]) == 2
        assert "argument --class: invalid choice: 'relu'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["transform", "--loss", "hinge", "--class", "linear", "--B", "0.8"],
        ["bound", "--loss", "hinge", "--class", "linear", "--W", "5", "--B", "0.5", "--dist", "sect7-nonadv"],
    ], ids=["transform", "bound"])
    def test_p_flag_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--p", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["zero-one", "adversarial-zero-one"])
    def test_target_flag_exits_2(self, tmp_path, capsys, target):
        bound = ["bound", "--loss", "hinge", "--class", "linear", "--W", "5", "--B", "0.5", "--dist", "sect7-nonadv"]
        assert exit_code([*bound, "--target", target]) == 2
        assert "unrecognized arguments: --target" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": target}))
        assert main([*bound, "--config", str(cfg)]) == 2
        assert "unknown config keys: ['target']" in capsys.readouterr().err


class TestEnvironment:
    def test_thread_cap_validated(self, monkeypatch, capsys):
        monkeypatch.setenv("HCB_THREADS", "not-a-number")
        assert main(["transform", "--loss", "hinge"]) == 2
        monkeypatch.setenv("HCB_THREADS", "4")
        assert main(["transform", "--loss", "hinge"]) == 0


class TestExitCodes:
    """Exit 1 means a bound or check that fails and nothing else: extreme
    finite inputs report, or exit 2 with a message, with RuntimeWarning
    raised as an error; any other exception is an internal error, exit 3."""

    BOUND = ["bound", "--class", "linear", "--dist", "sect7-nonadv"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command, msg", [
        (["sweep", "--experiment", "sect7-nonadv", "--n", "10000", "--sigmas", "0.2", "--w=-1000"],
         "the exponential risk of h(x) = -1000.0*x + 0.0 at sigma 0.2 is not finite"),
        (["bound", "--loss", "exponential", "--class", "all", "--w=-1000", "--b", "0", "--dist", "sect7-nonadv",
          "--sigma", "0.2", "--mode", "mc", "--n", "200000"], "surrogate risk R_surrogate(h) is not finite (inf)"),
        # each leaf's hinge sum is finite, their total is not
        (["sweep", "--experiment", "sect7-adv", "--gamma", "0.1", "--n", "200000", "--sigmas", "0.2", "--w=-5e303"],
         "the hinge risk of h(x) = -5e+303*x + 0.0 at sigma 0.2 is not finite (mean inf"),
    ], ids=["sweep-exp-overflow", "bound-mc-exp-overflow", "sweep-hinge-total-overflow"])
    def test_overflowing_monte_carlo_loss_exits_2(self, tmp_path, monkeypatch, capsys, command, msg, threads):
        # numpy's error state is per thread: each sampling block and reduction leaf sets its own
        monkeypatch.setenv("HCB_THREADS", threads)
        assert main([*command, "--out", str(tmp_path / "o")]) == 2
        assert msg in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_sweep_reads_an_infinite_stderr(self, tmp_path, monkeypatch, capsys, threads):
        # as ``bound --mode mc`` reads it: the spread about an inf mean, inf - inf, is no NaN stderr
        monkeypatch.setenv("HCB_THREADS", threads)
        command = ["sweep", "--experiment", "sect7-nonadv", "--n", "10000", "--sigmas", "0.2", "--w=-1000"]
        assert main([*command, "--out", str(tmp_path / "o")]) == 2
        assert "is not finite (mean inf, stderr inf)" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_slope_clips_its_threshold_to_a_support_end(self, tmp_path, capsys):
        # -b/w overflows to -inf: the truncated normals' error masses are whole or empty
        out = tmp_path / "b.json"
        args = ["--loss", "hinge", "--W", "1", "--B", "0.5", "--w", "1e-310", "--b", "0.4", "--out", str(out)]
        assert main([*self.BOUND, *args]) == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True and doc["lhs"] == 0.375

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sigmoid_cell_width_falls_back_to_the_corner_bound(self, tmp_path, capsys):
        # the square of a cell's width overflows at W = 1e200; B = 1e-300 lies in
        # the tiny-budget regime, where a false violation (exit 1) is known
        out = tmp_path / "b.json"
        args = ["--loss", "sigmoid", "--W", "1e+200", "--B", "1e-300", "--w", "7.0", "--b", "5e-324", "--out", str(out)]
        code = main([*self.BOUND, *args])
        doc = json.loads(out.read_text())
        assert code == (0 if doc["holds"] else 1)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("loss, B, slope", [("exponential", "5e-324", "0.0"), ("hinge", "5e-324", "5e-324")],
                             ids=["relaxed-chord-slope-0", "inverse-slope-overflows"])
    def test_subnormal_bias_budget_has_no_gamma(self, capsys, loss, B, slope):
        args = ["--loss", loss, "--W", "5e-324", "--B", B, "--w", "5e-324", "--b", "0.0"]
        assert main([*self.BOUND, *args]) == 2
        err = capsys.readouterr().err
        assert f"has an affine piece of slope {slope}, whose inverse is not a finite float" in err
        assert "the bias budget B is too small" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args", [
        # Gamma's slope 1/B times y passes the largest double: rhs is inf
        "--loss hinge --W 1e10 --B 1e-300 --w=-1e10 --b=1e-300 --sigma 0.2",
        # W|x| + B passes the largest double in E[C*]
        "--loss sigmoid --W 1.7e308 --B 1.7e308 --w=0.0 --b=1e200 --sigma 0.05",
        # the zero-one threshold scan's candidate scores pass it
        "--loss logistic --W 1.7e308 --B 1.7e308 --w=1.0 --b=1.0 --sigma 0.05",
        # the search's first cells: wl + wh would pass it at their centres (the h = -inf message)
        "--loss rho-margin --W 1.7e308 --B 900 --w=-1e-300 --b=-900 --sigma 0.01",
        # the robust reach W*max(|x|, gamma) - gamma*W + B passes it
        "--loss sup-rho-margin --gamma 0.1 --W 1.7e308 --B 1.7e308 --w=-0.3 --b=-900 --sigma 0.05 --dist sect7-adv",
    ], ids=["gamma-of-y", "score-bound", "zero-one-scores", "cell-centres", "robust-reach"])
    def test_overflow_past_the_largest_double_reports(self, tmp_path, capsys, args):
        # each exited 2 or 3 (a RuntimeWarning raised) before; about 0.2-1 s each
        out = tmp_path / "b.json"
        assert main([*self.BOUND, *args.split(), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["holds"] is True
        assert capsys.readouterr().err == ""

    def test_help_lists_every_exit_code(self, capsys):
        # --help prints the whole module docstring, exit codes included
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "Exit codes: 0 success, 1 a bound or check that fails, 2 a validation error, 3 an internal error" in text

    def test_any_other_exception_is_an_internal_error(self, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(hcbounds.cli, "cmd_transform", boom)
        assert main(["transform", "--loss", "hinge"]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

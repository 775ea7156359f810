"""CLI contract: flags, exit codes, output determinism."""

import json
import warnings

import numpy as np
import pytest
import scipy

from hcbounds import __version__, oracle_check
from hcbounds.cli import main
from hcbounds.conditional import thread_cap


def expected_meta():
    return {
        "threads": thread_cap(),
        "versions": {"hcbounds": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }


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
        code = main(["transform", "--loss", "quadratic", "--class", "all", "--B", "inf", "--out", str(out)])
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
        assert "--eps must be 0" in capsys.readouterr().err
        assert not out.exists()
        assert main(["transform", *loss_args, "--eps", "0", "--out", str(out)]) == 0


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
            ["bound", "--target", "zero-one", "--loss", "hinge", "--class", "linear", "--B", "0.5",
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

    def test_invalid_beta_rejected(self, capsys):
        code = main(["bound", "--loss", "quadratic", "--class", "all", "--dist", "sect7-nonadv",
                     "--massart-beta", "0.7"])
        assert code == 2

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

    @pytest.mark.parametrize(
        "target, loss",
        [("adversarial-zero-one", "hinge"), ("zero-one", "sup-hinge")],
    )
    def test_target_must_match_loss(self, capsys, target, loss):
        code = main(["bound", "--target", target, "--loss", loss, "--class", "linear", "--gamma", "0.1",
                     "--massart-beta", "0.5", "--dist", "sect7-adv", "--w", "-0.5"])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_nonzero_eps_rejected(self, capsys):
        code = main(["bound", "--loss", "hinge", "--class", "linear", "--B", "0.5",
                     "--dist", SINGLETON, "--w", "-0.4", "--eps", "0.1"])
        assert code == 2
        assert "--eps must be 0" in capsys.readouterr().err

    def test_failed_quadrature_is_a_validation_error(self, capsys):
        # exp(900 * |x|) overflows on the continuous components
        dist = json.dumps({"components": [
            {"weight": 0.5, "label": 1, "law": {"kind": "truncnormal", "lo": 0.1, "hi": 1.0, "mean": 0.1, "std": 0.1}},
            {"weight": 0.5, "label": -1, "law": {"kind": "truncnormal", "lo": -1.0, "hi": -0.1, "mean": -0.1,
                                                  "std": 0.1}},
        ]})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["bound", "--loss", "exponential", "--class", "linear", "--W", "1000", "--B", "0.5",
                         "--w", "-900", "--b", "0", "--dist", dist])
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
        assert "||w||_q = 5.0 exceeds W = 1.0" in capsys.readouterr().err
        assert main(args + ["--W", "5"]) == 0

    @pytest.mark.parametrize(
        "args, surrogate_excess, m_surrogate, repins",
        [
            ("--loss hinge --class linear --W 1 --B 0.5 --w -0.8 --b 0.1 --dist sect7-nonadv --sigma 0.05",
             "0x1.2fb5e5ddb1480p-7", "0x1.308b94155c4c4p-1",
             {"surrogate_excess": "0x1.2fb5e5ddb1500p-7", "M_surrogate": "0x1.308b94155c4c2p-1"}),
            ("--loss sup-rho-margin --class linear --W 1 --B 0.5 --gamma 0.1 --w 0.7 --b -0.2 "
             "--dist sect7-adv --sigma 0.1", "0x1.397a07b9229fap-2", "0x1.bbb8749a04050p-4",
             {"surrogate_excess": "0x1.397a07b9229fep-2", "M_surrogate": "0x1.bbb8749a1d540p-4"}),
            ("--loss quadratic --class all --B inf --w -5 --b 0 --dist sect7-nonadv --sigma 0.1",
             "0x1.9e0b6b501a1d3p+1", "0x0.0p+0", {"surrogate_excess": "0x1.9e0b6b501a1d2p+1"}),
        ],
        ids=["linear", "adversarial-linear", "all"],
    )
    def test_surrogate_split_pinned(self, tmp_path, args, surrogate_excess, m_surrogate, repins):
        # pinned while assemble_bound still ran the surrogate search itself;
        # repins: the fields the Gauss-Kronrod quadrature moved, within 1e-10
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

    def test_dist_file_path(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(SINGLETON)
        out = tmp_path / "rep.json"
        code = main(["bound", "--loss", "hinge", "--class", "linear", "--B", "0.5",
                     "--dist", str(path), "--w", "-0.4", "--b", "0", "--out", str(out)])
        assert code == 0


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

    def test_zero_instances_rejected(self, capsys):
        assert main(["oracle-check", "--instances", "0"]) == 2


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

    def test_adversarial_preset(self, tmp_path):
        assert main(["sweep", "--experiment", "sect7-adv", "--n", "20000", "--seed", "3",
                     "--sigmas", "0.2,0.05", "--out", str(tmp_path / "a")]) == 0
        rows = json.loads((tmp_path / "a.json").read_text())["rows"]
        assert all(r["holds"] for r in rows)

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

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"B": "0.8"}))
        out = tmp_path / "t.json"
        main(["transform", "--loss", "hinge", "--B", "0.4", "--config", str(cfg), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["transform"]["segments"][0]["coefficients"][0] == pytest.approx(0.4)

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert main(["transform", "--loss", "hinge", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestEnvironment:
    def test_thread_cap_validated(self, monkeypatch, capsys):
        monkeypatch.setenv("HCB_THREADS", "not-a-number")
        assert main(["transform", "--loss", "hinge"]) == 2
        monkeypatch.setenv("HCB_THREADS", "4")
        assert main(["transform", "--loss", "hinge"]) == 0

"""Command-line interface: subcommands, file formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fractarc
from fractarc import arc as arc_mod
from fractarc.dimension import LatticeSample, box_count
from fractarc.cli import (EXIT_CONFIG, EXIT_CONSTRUCTION, EXIT_OK,
                          ConfigError, RunConfig,
                          UnitIntervalModel, arc_estimate, build_model,
                          decode_rational,
                          dump_json, encode_rational, load_config_file, main,
                          model_from_dict, model_to_dict, parse_ratio_spec,
                          run_verification)
from oracles import RowView

LOG2_3 = math.log(2.0) / math.log(3.0)


class TestRationalCodec:
    def test_round_trip(self):
        for value in (F(0), F(1), F(3, 32), F(-7, 5)):
            assert decode_rational(encode_rational(value)) == value

    def test_parse_variants(self):
        assert decode_rational("5/8") == F(5, 8)
        assert decode_rational("3") == F(3)


class TestConfig:
    def test_ratio_spec_parsing(self):
        assert parse_ratio_spec("dyadic") == ("dyadic", {})
        family, params = parse_ratio_spec("geometric:q=1/3")
        assert family == "geometric" and params["q"] == F(1, 3)
        with pytest.raises(ConfigError):
            parse_ratio_spec("fibonacci")

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("c = 2.0   # target\ndepth=1\nseed = 9\n\nratios=dyadic\n")
        values = load_config_file(path)
        assert values == {"c": "2.0", "depth": "1", "seed": "9", "ratios": "dyadic"}

    def test_config_rejects_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_run_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(target_dimension=0.5)
        with pytest.raises(ConfigError):
            RunConfig(depth=0)
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match="finite"):
                RunConfig(target_dimension=value)

    def test_config_file_drives_build_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c=1.6309297535714574\ndepth=1\nratios=harmonic\nseed=3\n")
        out = tmp_path / "m.json"
        assert main(["build", "--config", str(cfg), "--depth", "2",
                     "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["config"]["ratio_family"] == "harmonic"
        assert data["depth"] == 2  # flag wins over the file
        reloaded, config = model_from_dict(data)
        assert run_verification(reloaded, config)["passed"]


class TestBuildCommand:
    def test_degenerate_dimension_one(self, tmp_path):
        out = tmp_path / "unit.json"
        rc = main(["build", "--c", "1.0", "--out", str(out)])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert data["kind"] == "unit_interval"

    def test_figure_configuration(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        rc = main(["build", "--c", repr(1 + LOG2_3), "--depth", "2",
                   "--out", str(out)])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert data["kind"] == "arc"
        assert data["ambient_dimension"] == 2
        cells = [c for c in data["cells"] if c["generation"] == 2]
        assert len(cells) == 16
        assert len(data["connectors"]) == 15

    def test_dimension_two_gets_three_ambient_axes(self, tmp_path):
        out = tmp_path / "model3d.json"
        rc = main(["build", "--c", "2.0", "--depth", "1", "--out", str(out)])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert data["ambient_dimension"] == 3
        assert data["factor"]["copies"] == 2
        assert decode_rational(data["factor"]["ratio"]) == F(1, 4)
        assert len(data["connectors"]) == 7

    def test_budget_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        for depth in (9, 5000):
            rc = main(["build", "--c", "2.5", "--depth", str(depth), "--out", str(out)])
            assert rc == EXIT_CONSTRUCTION
            assert f"needs 2^{depth * 3} cells" in capsys.readouterr().err
            assert not out.exists()

    def test_illegal_connector_exit_code(self, tmp_path, capsys, monkeypatch):
        def refuse(shape, generation, parent_id):
            raise arc_mod.RoutingFailed("the straight connector is not legal")

        # route() looks the checker up in the module, so the patch reaches it
        monkeypatch.setattr(arc_mod, "route_connectors", refuse)
        out = tmp_path / "model.json"
        rc = main(["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(out)])
        assert rc == EXIT_CONSTRUCTION
        assert "construction failed: the straight connector" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_fresh_build_passes(self, tmp_path):
        out = tmp_path / "model.json"
        main(["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(out)])
        rc = main(["verify", "--model", str(out), "--seed", "5", "--samples", "60",
                   "--out", str(tmp_path / "report.json")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"]
        names = {check["name"] for check in report["checks"]}
        assert {"injectivity", "containment", "uniform_perfectness",
                "mass_bounds"} <= names

    def test_corrupted_model_fails(self, tmp_path):
        out = tmp_path / "model.json"
        main(["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(out)])
        data = json.loads(out.read_text())
        # bend one connector through the middle of another cell
        data["connectors"][3]["vertices"][0] = ["1/2", "1/2"]
        out.write_text(json.dumps(data))
        rc = main(["verify", "--model", str(out), "--samples", "20"])
        assert rc == EXIT_CONFIG

    def test_unit_interval_vacuous(self, tmp_path):
        out = tmp_path / "unit.json"
        main(["build", "--c", "1.0", "--out", str(out)])
        assert main(["verify", "--model", str(out)]) == EXIT_OK

    def test_missing_model_is_config_error(self, tmp_path):
        rc = main(["verify", "--model", str(tmp_path / "absent.json")])
        assert rc == EXIT_CONFIG


class TestBadInput:
    """Undecodable files and non-finite dimensions from outside exit 2 with
    one line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "{latin1}"],
        ["build", "--config", "{latin1}", "--out", "{out}"],
        ["build", "--c", "inf", "--out", "{out}"],
        ["build", "--c", "nan", "--out", "{out}"],
        # a factor dimension of 0.0005: the ratio 2^-2000 is below the floats
        ["build", "--c", "1.0005", "--out", "{out}"],
        # geometric bases outside (0, 1), and one whose ratios decay too slowly
        ["build", "--ratios", "geometric:q=2", "--out", "{out}"],
        ["build", "--ratios", "geometric:q=0", "--out", "{out}"],
        ["build", "--ratios", "geometric:q=0.97", "--out", "{out}"],
        # estimate flags outside the snowflake exponent's (0, 1] and the
        # scaling ratio's (0, 1/2)
        ["estimate", "--preset", "snowflake", "--eps", "0", "--out", "{out}"],
        ["estimate", "--preset", "snowflake", "--eps", "2", "--out", "{out}"],
        ["estimate", "--preset", "rug", "--eps", "2", "--out", "{out}"],
        ["estimate", "--preset", "cantor", "--ratio", "1/2", "--out", "{out}"],
        ["estimate", "--preset", "cantor", "--ratio", "0", "--out", "{out}"],
        ["estimate", "--preset", "cantor", "--ratio", "3/5", "--out", "{out}"],
    ], ids=["verify-latin1-model", "build-latin1-config", "build-c-inf", "build-c-nan",
            "build-c-ratio-below-floats", "build-geometric-q-2", "build-geometric-q-0",
            "build-geometric-q-0.97", "snowflake-eps-0", "snowflake-eps-2", "rug-eps-2",
            "cantor-ratio-1/2", "cantor-ratio-0", "cantor-ratio-3/5"])
    def test_exits_2_with_one_line(self, argv, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes('c = 2.5  # "caf\xe9"\n'.encode("latin-1"))
        out = tmp_path / "out.json"
        assert main([arg.format(latin1=latin1, out=out) for arg in argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["--preset", "cantor", "--eps", "5"], "eps"),
        (["--preset", "cantor", "--copies", "2"], "copies"),
        (["--preset", "product", "--eps", "1/2"], "eps"),
        (["--preset", "snowflake", "--ratio", "1/3"], "ratio"),
        (["--preset", "snowflake", "--model", "{model}"], "model"),
        (["--preset", "rug", "--model", "{model}", "--eps", "2"], "eps"),
        (["--preset", "rug", "--model", "{unit}", "--eps", "1/2"], "eps"),
        (["--preset", "rug", "--copies", "2"], "copies"),
        (["--preset", "arc", "--model", "{model}", "--generation", "4"], "generation"),
        (["--preset", "arc", "--model", "{model}", "--eps", "koch"], "eps"),
    ])
    def test_estimate_refuses_a_flag_its_preset_does_not_read(self, argv, flag, tmp_path,
                                                               capsys):
        model, unit = tmp_path / "model.json", tmp_path / "unit.json"
        out = tmp_path / "out.json"
        assert main(["build", "--depth", "1", "--out", str(model)]) == EXIT_OK
        assert main(["build", "--c", "1", "--out", str(unit)]) == EXIT_OK
        capsys.readouterr()
        argv = [arg.format(model=model, unit=unit) for arg in argv]
        assert main(["estimate", *argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        assert f"does not read --{flag}" in err
        assert not out.exists()

    def test_estimate_rug_refuses_a_unit_interval_model(self, tmp_path, capsys):
        # the rug over the unit interval is the snowflake rug, made without --model
        unit, out = tmp_path / "unit.json", tmp_path / "out.json"
        assert main(["build", "--c", "1", "--out", str(unit)]) == EXIT_OK
        capsys.readouterr()
        argv = ["estimate", "--preset", "rug", "--model", str(unit), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("configuration error: rug estimation needs an arc model; "
                       "drop --model for the snowflake rug\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--c", "2.5"], ["--depth", "3"],
                                      ["--ratios", "harmonic"], ["--samples", "10"]])
    def test_estimate_has_no_build_flags(self, flag, capsys):
        # an estimate builds no model, so argparse refuses the build flags
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "--preset", "cantor", *flag])
        assert exit_info.value.code == EXIT_CONFIG
        # --c reads as an ambiguous prefix of --config, --copies and --csv
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "ambiguous option: --c" in err

    def test_tiny_factor_dimension_builds_with_the_exact_ratio(self, tmp_path):
        # limit_denominator would snap the ratio 2^(-1/0.01), about 2^-100, to 0
        out = tmp_path / "model.json"
        assert main(["build", "--c", "1.01", "--depth", "2", "--out", str(out)]) == EXIT_OK
        ratio = decode_rational(json.loads(out.read_text())["factor"]["ratio"])
        assert ratio == F(2.0 ** (-1.0 / (1.01 - 1.0))) and ratio < F(1, 2 ** 99)
        assert main(["verify", "--model", str(out), "--samples", "20"]) == EXIT_OK


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "{model}", "--samples", "0"],
        ["verify", "--model", "{model}", "--samples", "-5"],
        ["estimate", "--preset", "product", "--copies", "0"],
        ["estimate", "--preset", "cantor", "--generation", "0"],
    ])
    def test_non_positive_count_is_config_error(self, argv, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["build", "--c", repr(1 + LOG2_3), "--depth", "1", "--out", str(model)])
        capsys.readouterr()
        assert main([arg.format(model=model) for arg in argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert "PASS" not in captured.out


class TestClosedStdout:
    def test_build_and_verify_keep_their_exit_code(self, tmp_path):
        # stdout on a pipe whose reader has gone: no traceback, and the exit
        # code a reader would have seen, buffered or not
        model = tmp_path / "model.json"
        commands = (["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(model)],
                    ["verify", "--model", str(model), "--samples", "20"])
        env = {**os.environ, "PYTHONPATH": str(Path(fractarc.__file__).parents[1])}
        for unbuffered in ("1", ""):
            for argv in commands:
                read_end, write_end = os.pipe()
                os.close(read_end)
                try:
                    run = subprocess.run(
                        [sys.executable, "-m", "fractarc.cli", *argv], stdout=write_end,
                        stderr=subprocess.PIPE, env={**env, "PYTHONUNBUFFERED": unbuffered},
                        timeout=300)
                finally:
                    os.close(write_end)
                assert run.returncode == EXIT_OK, run.stderr.decode()
                assert run.stderr == b""


class TestEstimateCommand:
    def test_cantor_preset(self, tmp_path, capsys):
        rc = main(["estimate", "--preset", "cantor", "--ratio", "1/3",
                   "--generation", "10", "--out", str(tmp_path / "est.json"),
                   "--csv", str(tmp_path / "counts.csv")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "est.json").read_text())
        assert abs(report["slope"] - LOG2_3) < 0.05
        csv_lines = (tmp_path / "counts.csv").read_text().splitlines()
        assert csv_lines[0] == "delta,count,log_inv_delta,log_count"
        assert len(csv_lines) == len(report["scales"]) + 1

    def test_arc_preset_requires_model(self):
        assert main(["estimate", "--preset", "arc"]) == EXIT_CONFIG

    def test_unit_interval_estimate(self, tmp_path):
        model = tmp_path / "unit.json"
        main(["build", "--c", "1.0", "--out", str(model)])
        rc = main(["estimate", "--preset", "arc", "--model", str(model),
                   "--out", str(tmp_path / "est.json")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "est.json").read_text())
        assert abs(report["slope"] - 1.0) < 0.05

    def test_refused_window_is_construction_error(self, tmp_path, capsys):
        rc = main(["estimate", "--preset", "cantor", "--generation", "5",
                   "--scales", "2:9"])
        assert rc == EXIT_CONSTRUCTION
        capsys.readouterr()
        # generation 3's default window (2, 1) holds no scale at all
        rc = main(["estimate", "--preset", "cantor", "--generation", "3"])
        assert rc == EXIT_CONSTRUCTION
        err = capsys.readouterr().err
        assert err == "estimation failed: need at least 3 scales to fit a slope\n"

    def test_cantor_generation_over_the_cap_is_refused(self, capsys):
        # the cap is checked before any interval is built
        rc = main(["estimate", "--preset", "cantor", "--generation", "30"])
        assert rc == EXIT_CONSTRUCTION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds the build cap 20" in err
        assert "Traceback" not in err

    def test_sample_over_the_budget_is_refused(self, capsys):
        # 2^resolution is checked against the budget before any allocation
        for argv in (["--preset", "snowflake", "--generation", "26"],
                     ["--preset", "rug", "--generation", "40"]):
            assert main(["estimate", *argv]) == EXIT_CONSTRUCTION
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "exceeds the budget 2097152" in err
            assert "Traceback" not in err

    def test_net_window_finer_than_the_sample_is_refused(self, capsys):
        # 2^-40 lies far below the generation-14 grid's 2^(-14 eps)
        for preset in ("snowflake", "rug"):
            assert main(["estimate", "--preset", preset, "--scales", "2:40"]) == EXIT_CONSTRUCTION
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "finer than the sample resolution" in err

    def test_default_arc_window_follows_the_exact_resolution(self, tmp_path):
        # spatial depth 3: r^3 for r = 362027637/912252481 ~ 2^(-4/3) lies just
        # above 1/16, so the finest admissible scale is 1/8 and the window (1, 3)
        model = tmp_path / "spatial-3.json"
        assert main(["build", "--c", "2.5", "--depth", "3", "--out", str(model)]) == EXIT_OK
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(["estimate", "--preset", "arc", "--model", str(model),
                     "--out", str(default)]) == EXIT_OK
        assert main(["estimate", "--preset", "arc", "--model", str(model),
                     "--scales", "1:3", "--out", str(explicit)]) == EXIT_OK
        assert default.read_bytes() == explicit.read_bytes()
        # sha256 of the explicit 1:3 report, pinned from the float-resolution code
        assert hashlib.sha256(default.read_bytes()).hexdigest() == (
            "2359c5de2a8f8c2fd094a5edd0e355dc4ac61df29cca427cbb650ee5bdbb8ccb")

    @pytest.mark.xfail(strict=True, reason=(
        "arc_estimate box-counts the float vertex cloud: on spatial-4 one "
        "coordinate 15/16 - eps rounds to 15/16, so delta = 1/32 counts 7935 "
        "boxes where the exact points meet 8640"))
    def test_arc_estimate_counts_the_exact_vertex_cloud(self):
        model = build_model(RunConfig(target_dimension=2.5, depth=4))
        views = RowView(model)
        points = {v for conn in views.cumulative_connectors(4) for v in conn.vertices}
        points.update(p for cell in views.generation_cells(4) for p in cell.corners())
        exact = LatticeSample.from_points(sorted(points))
        series = arc_estimate(model)
        assert series.scales[-1] == F(1, 32)
        assert box_count(exact, F(1, 32)) == 8640
        assert series.counts[-1] == 8640

    def test_default_arc_window_with_two_scales_is_refused(self, tmp_path, capsys):
        model = tmp_path / "spatial-2.json"
        assert main(["build", "--c", "2.5", "--depth", "2", "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        assert main(["estimate", "--preset", "arc", "--model", str(model)]) == EXIT_CONSTRUCTION
        assert "need at least 3 scales" in capsys.readouterr().err

    def test_three_copy_product_scales_its_window(self, tmp_path):
        est = tmp_path / "est.json"
        rc = main(["estimate", "--preset", "product", "--copies", "3",
                   "--ratio", "1/3", "--out", str(est)])
        assert rc == EXIT_OK
        report = json.loads(est.read_text())
        assert abs(report["gap"]) < 1e-9  # matched scales are exact

    def test_rug_over_arc_model(self, tmp_path):
        model = tmp_path / "model.json"
        main(["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(model)])
        est = tmp_path / "est.json"
        rc = main(["estimate", "--preset", "rug", "--model", str(model),
                   "--out", str(est)])
        assert rc == EXIT_OK
        report = json.loads(est.read_text())
        assert report["expected"]["hausdorff_dimension"] == pytest.approx(2 + LOG2_3)
        assert 1.5 < report["slope"] < 2 + LOG2_3 + 0.5


class TestExportCommand:
    @pytest.fixture()
    def model_path(self, tmp_path):
        out = tmp_path / "model.json"
        main(["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(out)])
        return out

    def test_svg_counts(self, model_path, tmp_path):
        svg = tmp_path / "fig.svg"
        assert main(["export", "--model", str(model_path), "--format", "svg",
                     "--out", str(svg)]) == EXIT_OK
        text = svg.read_text()
        assert text.count("<rect") == 16
        assert text.count("<polyline") == 15

    def test_svg_rejected_for_higher_dimensions(self, tmp_path):
        model = tmp_path / "model3d.json"
        main(["build", "--c", "2.0", "--depth", "1", "--out", str(model)])
        rc = main(["export", "--model", str(model), "--format", "svg",
                   "--out", str(tmp_path / "fig.svg")])
        assert rc == EXIT_CONFIG

    def test_json_round_trip_identity(self, model_path, tmp_path):
        # spatial boxes carry the snapped 2^(-4/3) denominators
        spatial = tmp_path / "spatial.json"
        assert main(["build", "--c", "2.5", "--depth", "2", "--out", str(spatial)]) == EXIT_OK
        for path in (model_path, spatial):
            model, config = model_from_dict(json.loads(path.read_text()))
            assert dump_json(model_to_dict(model, config)) == path.read_text()

    def test_csv_export(self, model_path, tmp_path):
        out = tmp_path / "counts.csv"
        assert main(["export", "--model", str(model_path), "--format", "csv",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("delta,")
        assert len(lines) > 3


class TestReproducibility:
    def test_identical_seeds_identical_bytes(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            model = tmp_path / f"model_{run}.json"
            report = tmp_path / f"est_{run}.json"
            csv = tmp_path / f"counts_{run}.csv"
            assert main(["build", "--c", repr(1 + LOG2_3), "--depth", "2",
                         "--seed", "42", "--out", str(model)]) == EXIT_OK
            assert main(["estimate", "--preset", "arc", "--model", str(model),
                         "--seed", "42", "--out", str(report),
                         "--csv", str(csv)]) == EXIT_OK
            outputs.append((model.read_bytes(), report.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_loaded_model_verifies_like_fresh(self, tmp_path):
        model = tmp_path / "model.json"
        main(["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(model)])
        loaded, config = model_from_dict(json.loads(model.read_text()))
        config.samples = 40
        report = run_verification(loaded, config)
        assert report["passed"]

"""Command-line interface: subcommands, file formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fractarc
from fractarc.cli import (EXIT_CONFIG, EXIT_CONSTRUCTION, EXIT_OK,
                          EXIT_VERIFICATION, ConfigError, RunConfig,
                          UnitIntervalModel, build_model, decode_rational,
                          dump_json, encode_rational, load_config_file, main,
                          model_from_dict, model_to_dict, parse_ratio_spec,
                          run_verification)

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
        assert rc == EXIT_VERIFICATION

    def test_unit_interval_vacuous(self, tmp_path):
        out = tmp_path / "unit.json"
        main(["build", "--c", "1.0", "--out", str(out)])
        assert main(["verify", "--model", str(out)]) == EXIT_OK

    def test_missing_model_is_config_error(self, tmp_path):
        rc = main(["verify", "--model", str(tmp_path / "absent.json")])
        assert rc == EXIT_CONFIG


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

    def test_refused_window_is_construction_error(self, tmp_path):
        rc = main(["estimate", "--preset", "cantor", "--generation", "5",
                   "--scales", "2:9"])
        assert rc == EXIT_CONSTRUCTION

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

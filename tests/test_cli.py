"""Command-line interface: subcommands, file formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import fractarc
from fractarc import arc as arc_mod
from fractarc.cli import (EXIT_CONFIG, EXIT_CONSTRUCTION, EXIT_OK,
                          ConfigError, RunConfig,
                          UnitIntervalModel, arc_estimate, build_model,
                          decode_rational,
                          dump_json, encode_rational, load_config_file, main,
                          model_from_dict, model_to_dict, parse_ratio_spec,
                          run_verification)
from oracles import RowView, cloud_box_count, lattice_sample

LOG2_3 = math.log(2.0) / math.log(3.0)


class TestRationalCodec:
    def test_round_trip(self):
        for value in (F(0), F(1), F(3, 32), F(-7, 5)):
            assert decode_rational(encode_rational(value)) == value

    def test_parse_variants(self):
        assert decode_rational("5/8") == F(5, 8)
        assert decode_rational("3") == F(3)


def ratio_config(spec: str) -> RunConfig:
    family, params = parse_ratio_spec(spec)
    return RunConfig(ratio_family=family, ratio_params=params)


class TestConfig:
    def test_ratio_spec_parsing(self):
        assert parse_ratio_spec("dyadic") == ("dyadic", {})
        family, params = parse_ratio_spec("geometric:q=1/3")
        assert family == "geometric" and params["q"] == F(1, 3)
        with pytest.raises(ConfigError, match="^unknown ratio family 'fibonacci'$"):
            ratio_config("fibonacci")

    @pytest.mark.parametrize("spec,why", [
        ("dyadic:q=1/2", "ratio parameter 'q' is not read by the dyadic family"),
        ("harmonic: q = 1/2", "ratio parameter 'q' is not read by the harmonic family"),
        ("geometric:q=1/2,z=3", "ratio parameter 'z' is not read by the geometric family"),
        ("geometric:q=1/2,q=1/3", "ratio parameter 'q' is set twice"),
        ("geometric: q=1/2, q =1/2", "ratio parameter 'q' is set twice"),
    ])
    def test_a_ratio_parameter_no_family_reads_is_refused(self, spec, why, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"^{why}$"):
            ratio_config(spec)
        out = tmp_path / "m.json"
        assert main(["build", "--ratios", spec, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: --ratios: {why}\n"
        cfg = tmp_path / "build.cfg"
        cfg.write_text(f"ratios = {spec}\n")
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: config key 'ratios': {why}\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, params, why", [
        ("dyadic", {"z": F(3)}, "ratio parameter 'z' is not read by the dyadic family"),
        ("geometric", {"q": F(1, 3), "r": F(1, 2)},
         "ratio parameter 'r' is not read by the geometric family"),
        ("geometric", {}, "geometric ratios need a parameter q"),
        ("fibonacci", {}, "unknown ratio family 'fibonacci'"),
    ])
    def test_run_config_checks_its_ratio_family(self, family, params, why):
        with pytest.raises(ConfigError, match=f"^{why}$"):
            RunConfig(ratio_family=family, ratio_params=params)
        assert RunConfig(ratio_family="geometric",
                         ratio_params={"q": F(1, 3)}).ratio_sequence().kind == "geometric"

    @pytest.mark.parametrize("preset", ["cantor", "product", "snowflake", "rug", "arc"])
    def test_a_negative_scale_exponent_is_refused(self, preset, tmp_path, capsys):
        argv = ["estimate", "--preset", preset]
        if preset == "arc":
            model = tmp_path / "m.json"
            assert main(["build", "--depth", "2", "--out", str(model)]) == EXIT_OK
            argv += ["--model", str(model)]
        capsys.readouterr()
        why = "bad scale window (-1, 2): the exponents need 0 <= coarse <= fine"
        out = tmp_path / "est.json"
        assert main([*argv, "--scales=-1:2", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: --scales: {why}\n"
        cfg = tmp_path / "est.cfg"
        cfg.write_text("scales = -1:2\n")
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: config key 'scales': {why}\n")
        assert not out.exists()
        # the coarsest scale, exponent 0, is admitted
        assert main([*argv, "--scales=0:2", "--out", str(out)]) == EXIT_OK

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

    @pytest.mark.parametrize("key", ["c = 7", "depth = 9", "ratios = harmonic",
                                     "samples = 3"])
    def test_estimate_refuses_a_build_key_in_its_config(self, key, tmp_path, capsys):
        # argparse refuses these as estimate flags; the file may not slip them in
        cfg, out = tmp_path / "est.cfg", tmp_path / "est.json"
        cfg.write_text(f"scales = 2:6\n{key}\n")
        argv = ["estimate", "--preset", "cantor", "--generation", "8", "--config", str(cfg),
                "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        name = key.split()[0]
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: estimate does not read the config key {name!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["build"], ["estimate", "--preset", "cantor"]])
    def test_an_unknown_config_key_is_refused(self, argv, tmp_path, capsys):
        cfg, out = tmp_path / "f.cfg", tmp_path / "out.json"
        cfg.write_text("depth = 1\ndpeth = 3\n" if argv == ["build"] else "dpeth = 3\n")
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: unknown config key 'dpeth'\n")
        assert not out.exists()

    def test_a_repeated_config_key_is_refused(self, tmp_path, capsys):
        cfg, out = tmp_path / "dup.cfg", tmp_path / "out.json"
        cfg.write_text("depth = 1\nseed = 2\ndepth = 2\n")
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}:3: config key 'depth' is already set on line 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,line,why", [
        (["build"], "c=", "could not convert string to float: ''"),
        (["build"], "depth = two", "invalid literal for int() with base 10: 'two'"),
        (["estimate", "--preset", "cantor"], "scales = 9:3",
         "bad scale window (9, 3): the exponents need 0 <= coarse <= fine"),
    ], ids=["empty-c", "word-depth", "reversed-scales"])
    def test_a_bad_config_value_names_its_key_and_file(self, command, line, why,
                                                       tmp_path, capsys):
        cfg, out = tmp_path / "f.cfg", tmp_path / "out.json"
        cfg.write_text(f"{line}\n")
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        key = line.split("=")[0].strip()
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: config key {key!r}: {why}\n")
        assert not out.exists()

    def test_a_bad_flag_value_names_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("depth = 0\n")
        out = tmp_path / "out.json"
        # the flag wins over the file's value and is the one refused
        assert main(["build", "--config", str(cfg), "--depth", "-1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: --depth: depth must be at least 1\n")

    def test_estimate_reads_scales_from_its_config(self, tmp_path):
        cfg, by_file, by_flag = (tmp_path / name for name in ("est.cfg", "a.json", "b.json"))
        cfg.write_text("scales = 2:6\n")
        base = ["estimate", "--preset", "cantor", "--generation", "8"]
        assert main([*base, "--config", str(cfg), "--out", str(by_file)]) == EXIT_OK
        assert main([*base, "--scales", "2:6", "--out", str(by_flag)]) == EXIT_OK
        assert by_file.read_bytes() == by_flag.read_bytes()
        assert json.loads(by_file.read_text())["scales"] == [3.0 ** -i for i in range(2, 7)]

    def test_estimate_refuses_a_seed(self, tmp_path, capsys):
        # estimates draw no random numbers, so a seed would be ignored
        cfg, out = tmp_path / "est.cfg", tmp_path / "out.json"
        cfg.write_text("seed = 4\nscales = 2:6\n")
        base = ["estimate", "--preset", "cantor", "--generation", "8", "--out", str(out)]
        assert main([*base, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: estimate does not read the config key 'seed'\n")
        with pytest.raises(SystemExit) as refused:
            main([*base, "--seed", "4"])
        assert refused.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --seed 4" in capsys.readouterr().err
        assert not out.exists()


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

        # construction looks the checker up in the module, so the patch reaches it
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

    @pytest.mark.parametrize("config", [RunConfig(depth=5),
                                        RunConfig(target_dimension=2.5, depth=3)],
                             ids=["planar-5", "spatial-3"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeded_reports_pass_every_check(self, config, seed):
        report = run_verification(build_model(config), replace(config, seed=seed))
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [
            ("injectivity", True), ("containment", True), ("uniform_perfectness", True),
            ("mass_bounds", True)]
        assert [d["depth"] for d in report["checks"][1]["per_depth"]] == list(
            range(1, config.depth + 1))

    @pytest.mark.parametrize("config", [RunConfig(depth=5, samples=20),
                                        RunConfig(target_dimension=2.5, depth=3, samples=20)],
                             ids=["planar-5", "spatial-3"])
    def test_verification_repeats_no_construction_work(self, config, monkeypatch):
        # construction decided every check: verify keys no parent shape,
        # makes no corner and runs no clearance test
        arc = build_model(config)
        calls = []
        for owner, name in ((arc_mod, "_parent_shapes"), (arc_mod, "_path_legal"),
                            (arc_mod.ArcApproximation, "corners")):
            def counting(*args, inner=getattr(owner, name), name=name):
                calls.append(name)
                return inner(*args)
            monkeypatch.setattr(owner, name, counting)
        assert run_verification(arc, config)["passed"]
        assert calls == []

    def test_containment_is_decided_in_one_call(self, monkeypatch):
        # one call at the model's depth reports every depth, and each bound
        # is that generation's cell diameter
        real, calls = arc_mod.verify_containment, []

        def record(arc, k):
            calls.append(k)
            return real(arc, k)

        monkeypatch.setattr(arc_mod, "verify_containment", record)
        config = RunConfig(depth=4, samples=20)
        arc = build_model(config)
        check = run_verification(arc, config)["checks"][1]
        assert calls == [4] and check["name"] == "containment" and check["passed"]
        assert check["per_depth"] == [{"depth": k, "bound": real(arc, k).bound}
                                      for k in range(1, 5)]

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

    @pytest.mark.parametrize("argv", [
        ["build", "--depth", "1", "--out", "{dir}"],
        ["build", "--depth", "1", "--out", "{file}/model.json"],
        ["verify", "--model", "{model}", "--samples", "20", "--out", "{dir}"],
        ["verify", "--model", "{model}", "--samples", "20", "--out", "{file}/x.json"],
        ["estimate", "--preset", "cantor", "--generation", "8", "--out", "{dir}"],
        ["estimate", "--preset", "cantor", "--generation", "8", "--csv", "{file}/x.csv"],
        ["export", "--model", "{model}", "--format", "json", "--out", "{dir}"],
        ["export", "--model", "{model}", "--format", "svg", "--out", "{file}/x.svg"],
        ["export", "--model", "{model}", "--format", "csv", "--out", "{dir}"],
    ], ids=["build-dir", "build-under-file", "verify-dir", "verify-under-file",
            "estimate-out-dir", "estimate-csv-under-file", "export-json-dir",
            "export-svg-under-file", "export-csv-dir"])
    def test_an_output_that_cannot_be_written_exits_2(self, argv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["build", "--depth", "2", "--out", str(model)]) == EXIT_OK
        directory = tmp_path / "taken"
        directory.mkdir()
        file = tmp_path / "plain.txt"
        file.write_text("text\n")
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        argv = [arg.format(model=model, dir=directory, file=file) for arg in argv]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        target = argv[-1]
        assert err.startswith(f"configuration error: cannot write {target}: "), err
        assert err.count("\n") == 1, err
        # no temporary file is left, and nothing in the way is touched
        assert sorted(tmp_path.rglob("*")) == before
        assert file.read_text() == "text\n" and not any(directory.iterdir())

    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "{model}", "--samples", "20"],
        ["export", "--model", "{model}", "--format", "json", "--out", "{out}"],
        ["export", "--model", "{model}", "--format", "svg", "--out", "{out}"],
        ["estimate", "--preset", "arc", "--model", "{model}", "--out", "{out}"],
    ], ids=["verify", "export-json", "export-svg", "estimate"])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_a_model_that_cannot_be_read_exits_2(self, argv, kind, tmp_path, capsys):
        model = tmp_path / "model.json"
        if kind == "directory":
            model.mkdir()
        out = tmp_path / "out"
        argv = [arg.format(model=model, out=out) for arg in argv]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read model {model}: "), err
        assert err.count("\n") == 1, err
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
        # cantor generation 3's default window (2, 1) holds no scale at all;
        # product generation 3's default window (1, 1) holds one
        for argv in (["--preset", "cantor", "--generation", "3"],
                     ["--preset", "cantor", "--scales", "2:3"],
                     ["--preset", "product", "--generation", "3"],
                     ["--preset", "product", "--generation", "2"],
                     ["--preset", "product", "--scales", "2:3"]):
            assert main(["estimate", *argv]) == EXIT_CONSTRUCTION
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

    def test_rug_is_counted_on_its_factors(self, tmp_path, monkeypatch):
        # the product sample and its ball test are never used: each would raise
        from fractarc import metric

        model = tmp_path / "planar-4.json"
        assert main(["build", "--c", "1.6309297535714574", "--depth", "4",
                     "--out", str(model)]) == EXIT_OK

        def product_used(*args):
            raise AssertionError("the rug's product sample was used")
        monkeypatch.setattr(metric.RugSpace, "sample", product_used)
        monkeypatch.setattr(metric.RugSpace, "within", product_used)
        for argv, counts in ((["--eps", "koch"], [24, 112, 512, 2368]),
                             (["--model", str(model)], [48, 256, 1024])):
            out = tmp_path / "est.json"
            assert main(["estimate", "--preset", "rug", *argv, "--out", str(out)]) == EXIT_OK
            assert json.loads(out.read_text())["counts"] == counts

    def test_rug_budget_edges(self, tmp_path, capsys):
        # a whole rug stays capped at 2^21 points, though no longer allocated
        model = tmp_path / "planar-1.json"  # a vertex cloud of 16 points
        assert main(["build", "--depth", "1", "--out", str(model)]) == EXIT_OK
        for argv, total in ((["--generation", "10"], None),
                            (["--generation", "11"], 2 ** 22),
                            (["--model", str(model), "--generation", "17"], None),
                            (["--model", str(model), "--generation", "18"], 2 ** 22)):
            capsys.readouterr()
            rc = main(["estimate", "--preset", "rug", *argv])
            if total is None:
                assert rc == EXIT_OK
            else:
                assert rc == EXIT_CONSTRUCTION
                assert capsys.readouterr().err == (
                    f"estimation failed: rug sample of {total} points exceeds "
                    "the budget 2097152\n")

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
        "arc_estimate counts the float-rounded axis ends: on spatial-4 one "
        "end 15/16 - eps rounds to 15/16, so delta = 1/32 counts 7935 boxes "
        "where the exact points meet 8640"))
    def test_arc_estimate_counts_the_exact_vertex_cloud(self):
        model = build_model(RunConfig(target_dimension=2.5, depth=4))
        views = RowView(model)
        points = {v for conn in views.cumulative_connectors(4) for v in conn.vertices}
        points.update(p for cell in views.generation_cells(4) for p in cell.corners())
        exact = lattice_sample(sorted(points))
        series = arc_estimate(model)
        assert series.scales[-1] == F(1, 32)
        assert cloud_box_count(exact, F(1, 32)) == 8640
        assert series.counts[-1] == 8640

    def test_default_arc_window_with_two_scales_is_refused(self, tmp_path, capsys):
        model = tmp_path / "spatial-2.json"
        assert main(["build", "--c", "2.5", "--depth", "2", "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        assert main(["estimate", "--preset", "arc", "--model", str(model)]) == EXIT_CONSTRUCTION
        assert "need at least 3 scales" in capsys.readouterr().err

    @pytest.mark.parametrize("copies,generation", [(2, 12), (3, 8)])
    def test_product_cap_is_kept(self, copies, generation, tmp_path, capsys):
        # the preset counts on the axes, but keeps its 2^22-cell resolution limit
        out = tmp_path / "est.json"
        assert main(["estimate", "--preset", "product", "--copies", str(copies),
                     "--generation", str(generation), "--out", str(out)]) == EXIT_CONSTRUCTION
        assert capsys.readouterr().err == (
            f"estimation failed: {2 ** (copies * generation)} cells at generation "
            f"{generation} exceed the sample cap 4194304\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("build,why", [
        (["--c", repr(1 + LOG2_3), "--depth", "3", "--scales", "3:4"],
         "need at least 3 scales to fit a slope"),
        (["--c", repr(1 + LOG2_3), "--depth", "2", "--scales", "2:9"],
         "scale 0.001953125 is finer than the sample resolution 0.1111111111111111; "
         "deepen the sample instead"),
        (["--c", "1.0", "--depth", "2", "--scales", "3:4"],
         "need at least 3 scales to fit a slope"),
        (["--c", "1.0", "--depth", "2", "--scales", "2:12"],
         "scale 0.000244140625 is finer than the sample resolution 0.0009765625; "
         "deepen the sample instead"),
        (["--c", "2.5", "--depth", "2"], "need at least 3 scales to fit a slope"),
    ], ids=["planar-two-scales", "planar-finer", "interval-two-scales", "interval-finer",
            "spatial-default-two-scales"])
    def test_csv_refuses_the_windows_estimate_refuses(self, build, why, tmp_path, capsys):
        # the csv holds the arc preset's counts unfitted, but refuses every
        # window the estimate refuses, with the same line and exit code
        model = tmp_path / "model.json"
        assert main(["build", *build, "--out", str(model)]) == EXIT_OK
        window = build[build.index("--scales"):] if "--scales" in build else []
        capsys.readouterr()
        out = tmp_path / "counts.csv"
        assert main(["export", "--model", str(model), "--format", "csv",
                     "--out", str(out)]) == EXIT_CONSTRUCTION
        exported = capsys.readouterr()
        assert main(["estimate", "--preset", "arc", "--model", str(model), *window,
                     "--out", str(tmp_path / "est.json")]) == EXIT_CONSTRUCTION
        estimated = capsys.readouterr()
        assert exported.err == estimated.err == f"estimation failed: {why}\n"
        assert exported.out == estimated.out == ""
        assert not out.exists() and not (tmp_path / "est.json").exists()


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
                         "--out", str(report),
                         "--csv", str(csv)]) == EXIT_OK
            outputs.append((model.read_bytes(), report.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_the_generation_budget_variable_changes_nothing(self, tmp_path):
        # the generation cap is a constant: FRACTARC_GENERATION_BUDGET, which
        # once overrode it, leaves every output and exit code as it is
        env = {k: v for k, v in os.environ.items() if k != "FRACTARC_GENERATION_BUDGET"}
        env["PYTHONPATH"] = str(Path(fractarc.__file__).parents[1])

        def outputs(budget):
            out = tmp_path / (budget or "unset")
            out.mkdir()
            commands = [
                ["build", "--c", repr(1 + LOG2_3), "--depth", "5", "--out", f"{out}/model.json"],
                ["verify", "--model", f"{out}/model.json", "--seed", "1",
                 "--out", f"{out}/verify.json"],
                ["export", "--model", f"{out}/model.json", "--format", "csv",
                 "--out", f"{out}/counts.csv"],
                ["estimate", "--preset", "cantor", "--out", f"{out}/cantor.json"]]
            run_env = env if budget is None else {**env, "FRACTARC_GENERATION_BUDGET": budget}
            codes = [subprocess.run([sys.executable, "-m", "fractarc.cli", *argv], env=run_env,
                                    capture_output=True, timeout=300).returncode
                     for argv in commands]
            return codes, {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        unset = outputs(None)
        assert unset[0] == [EXIT_OK] * 4 and len(unset[1]) == 4
        for budget in ("3", "8", "40"):
            assert outputs(budget) == unset, budget

    def test_loaded_model_verifies_like_fresh(self, tmp_path):
        model = tmp_path / "model.json"
        main(["build", "--c", repr(1 + LOG2_3), "--depth", "2", "--out", str(model)])
        loaded, config = model_from_dict(json.loads(model.read_text()))
        config.samples = 40
        report = run_verification(loaded, config)
        assert report["passed"]

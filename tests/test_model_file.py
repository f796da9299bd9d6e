"""Model JSON: byte identity, the derived skeleton check, malformed files."""

import copy
import hashlib
import io
import json
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc import cli
from fractarc.cli import (EXIT_CONFIG, ConfigError, RunConfig, build_model,
                          decode_rational, dump_json, main, model_from_dict,
                          model_text, run_verification)
from oracles import RowView, reference_model_dict

PLANAR = ["--c", "1.6309297535714574"]
SPATIAL = ["--c", "2.5"]

#: sha256 of ``build`` output, recorded before the parameter tree and the
#: cells became derived; planar depth 4 and spatial depth 3 are also
#: perfbench/digests.json's planar-4.json and spatial-3.json.
DIGESTS = {
    ("planar", 4): "9ebf4f8a663ab9b0933f62e4f29f440f81d6a2ec6d2500fae6f4065c0e9d4621",
    ("spatial", 2): "6e06db6374c9fa09f6df052141e500aba465c2673ecd6bac0277e27a8cead371",
    ("spatial", 3): "52dadab18d3e11accc47a4d879cebae6d25ff248d5339c3faf2b4981e82296cb",
}


def run(*argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Model files keyed by (family, depth), built once per module."""
    root = tmp_path_factory.mktemp("models")
    out = {}
    for family, flags, depth in (("planar", PLANAR, 2), ("planar", PLANAR, 4),
                                 ("spatial", SPATIAL, 2), ("spatial", SPATIAL, 3),
                                 ("unit", ["--c", "1"], 2)):
        path = root / f"{family}-{depth}.json"
        assert run("build", *flags, "--depth", str(depth), "--out", str(path)) == 0
        out[family, depth] = path
    return out


class TestByteIdentity:
    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_build_output_is_pinned(self, models, key):
        assert hashlib.sha256(models[key].read_bytes()).hexdigest() == DIGESTS[key]


def reference_evaluate(data, arc):
    """evaluate(t, k) by walking the file's parameter tree as the stored-tree
    code did, over the arc's ``RowView``: descend into the closed child
    interval holding t, the used one on a boundary."""
    views = RowView(arc)
    rows = [(decode_rational(r["lo"]), decode_rational(r["hi"]), r)
            for r in data["param_intervals"]]

    def evaluate(t, k):
        lo, hi, node = rows[0]
        while True:
            if node["status"] == "used":
                frac = float((F(t) - lo) / (hi - lo))
                return views.connectors[node["link"]].point_at(frac), 0.0
            if node["depth"] == k:
                near = views.cells[node["link"]].near_corner
                return tuple(float(c) for c in near), arc.cell_diameter(k)
            matches = [rows[i] for i in node["children"] if rows[i][0] <= t <= rows[i][1]]
            lo, hi, node = next((m for m in matches if m[2]["status"] == "used"), matches[0])

    return evaluate


@pytest.fixture(scope="module")
def loaded(models):
    """(digit-evaluated arc, reference evaluate) for planar depth 4 and
    spatial depth 2."""
    out = []
    for key in (("planar", 4), ("spatial", 2)):
        data = json.loads(models[key].read_text())
        arc, _ = model_from_dict(data)
        out.append((arc, reference_evaluate(data, arc)))
    return out


#: Target dimensions drawn by the writer oracle: planar arcs below 2,
#: spatial arcs from 2, and the unit interval at 1.
TARGETS = (1.0, 1.05, 1.3, 1.6309297535714574, 1.9, 2.0, 2.5, 2.9)


@st.composite
def run_configs(draw):
    family = draw(st.sampled_from(["dyadic", "harmonic", "geometric"]))
    params = ({"q": draw(st.fractions(F(1, 10), F(9, 10), max_denominator=12))}
              if family == "geometric" else {})
    scales = draw(st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(3, 6))))
    return RunConfig(target_dimension=draw(st.sampled_from(TARGETS)), ratio_family=family,
                     ratio_params=params, depth=draw(st.integers(1, 4)),
                     seed=draw(st.integers(0, 2 ** 40)), scales=scales,
                     samples=draw(st.integers(1, 500)))


class TestCanonicalText:
    """``model_text`` is the text of the reference path, and the loader
    accepts exactly that text without parsing it."""

    @settings(max_examples=30, deadline=None)
    @given(config=run_configs())
    def test_writer_matches_reference(self, config):
        model = build_model(config)
        assert model_text(model, config) == dump_json(reference_model_dict(model, config))

    @pytest.mark.parametrize("key", [("planar", 2), ("spatial", 3), ("unit", 2)])
    def test_canonical_file_is_not_parsed(self, models, monkeypatch, key):
        reference = model_from_dict(json.loads(models[key].read_text()))

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads ran on a canonical file")

        monkeypatch.setattr(json, "loads", refuse)
        model, config = cli._load_model(models[key])
        assert config == reference[1]
        assert model_text(model, config) == models[key].read_text()

    def test_compact_file_loads_the_same_model(self, models, tmp_path):
        canonical = models["spatial", 2]
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(json.loads(canonical.read_text())))
        (model, config), (again, same) = cli._load_model(canonical), cli._load_model(compact)
        assert same == config
        assert model_text(again, same) == model_text(model, config)
        config.samples = 30
        assert run_verification(again, config) == run_verification(model, config)


def fallback_load(path, monkeypatch):
    """``_load_model`` with the byte compare turned off: the row check alone."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_load_canonical", lambda text: None)
        return cli._load_model(path)


def with_bom(text):
    return "\ufeff" + text


def trailing_newline(text):
    return text + "\n"


def trailing_byte(text):
    return text + "x"


def trailing_nul(text):
    return text + "\0"


def truncated(text):
    # the last byte is the final newline, which JSON does not need
    return text[:-1]


def second_config_last(text):
    # json.loads keeps the last of two equal keys
    config = RunConfig(target_dimension=1.6309297535714574, depth=1).as_dict()
    return text[:-len("\n}\n")] + ',\n  "config": ' + json.dumps(config) + "\n}\n"


def second_config_first(text):
    config = RunConfig(target_dimension=1.6309297535714574, depth=1).as_dict()
    return '{\n  "config": ' + json.dumps(config, indent=2) + "," + text[1:]


class TestNearCanonical:
    """Text that differs from the canonical text by a few bytes is never
    accepted as a model other than the one the row check finds."""

    @pytest.mark.parametrize("corrupt, accepted", [
        (with_bom, False), (trailing_newline, True), (trailing_byte, False),
        (trailing_nul, False), (truncated, True),
        (second_config_last, False), (second_config_first, True)])
    def test_same_verdict_as_the_row_check(self, models, tmp_path, monkeypatch,
                                           corrupt, accepted):
        path = tmp_path / "near.json"
        path.write_text(corrupt(models["planar", 2].read_text()))
        outcomes = []
        for load in (cli._load_model, lambda p: fallback_load(p, monkeypatch)):
            try:
                model, config = load(path)
            except ConfigError:
                outcomes.append(None)
            else:
                outcomes.append((config, model_text(model, config)))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is not None) == accepted
        if accepted:
            assert outcomes[0][1] == models["planar", 2].read_text()


class TestStreamedLoad:
    """``_load_canonical`` reads the file in blocks and holds one at a time."""

    @pytest.mark.parametrize("key", [("planar", 2), ("unit", 2)])
    def test_small_blocks_accept_exactly_the_canonical_file(self, models, tmp_path,
                                                            monkeypatch, key):
        text = models[key].read_text()
        start = text.index('\n  "config": ')
        path = tmp_path / "model.json"
        # a block boundary inside the config key, at the first block or a later one
        for block in (1, start + 5, (start + 5) // 2):
            monkeypatch.setattr(cli, "_BLOCK", block)
            path.write_text(text)
            model, config = cli._load_canonical(path)
            assert model_text(model, config) == text
            for near in (truncated, trailing_byte, trailing_nul,
                         lambda t: t[:-3] + "x" + t[-2:]):
                path.write_text(near(text))
                assert cli._load_canonical(path) is None

    def test_load_holds_less_than_the_file(self, models, tmp_path):
        path = tmp_path / "planar-5.json"
        assert run("build", *PLANAR, "--depth", "5", "--out", str(path)) == 0
        cli._load_model(models["planar", 2])  # the arc module is imported once
        tracemalloc.start()
        try:
            model, config = cli._load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.depth == 5
        assert peak < path.stat().st_size, (peak, path.stat().st_size)

    def test_spatial_build_stays_within_its_recorded_peak(self):
        # the peak of the int64 and object-array engine on spatial-4, which
        # sets the peak of the benchmark's spatial ops; the columns of ints
        # keep only the distinct parent shapes while they key them
        build_model(RunConfig(target_dimension=2.5, depth=2))  # modules imported once
        tracemalloc.start()
        try:
            model = build_model(RunConfig(target_dimension=2.5, depth=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.depth == 4
        assert peak <= 3_690_000, peak


class TestDigitEvaluate:
    """The digit ``evaluate`` against a walk of the written tree."""

    def test_every_boundary(self, loaded):
        for arc, reference in loaded:
            p = 2 * arc.branching - 1
            for j in range(p ** arc.depth + 1):
                t = F(j, p ** arc.depth)
                for k in range(1, arc.depth + 1):
                    assert arc.evaluate(t, k) == reference(t, k), (t, k)

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 1.0), k=st.integers(1, 4))
    def test_random_parameters(self, loaded, t, k):
        for arc, reference in loaded:
            depth = min(k, arc.depth)
            assert arc.evaluate(t, depth) == reference(t, depth)


def tamper_hi(data):
    row = next(r for r in data["param_intervals"] if r["status"] == "used" and r["depth"] == 2)
    row["hi"] = "1/2"
    return f"param_intervals[{row['id']}].hi"


def tamper_lo(data):
    data["param_intervals"][3]["lo"] = "0/1"
    return "param_intervals[3].lo"


def tamper_status(data):
    first, second = data["param_intervals"][1:3]
    first["status"], second["status"] = second["status"], first["status"]
    return "param_intervals[1].status"


def tamper_interval(data):
    data["connectors"][4]["interval"] += 1
    return "connectors[4].interval"


def tamper_parent(data):
    data["cells"][7]["parent"] = 2
    return "cells[7].parent"


def tamper_box(data):
    data["cells"][-1]["box"][0][1] = "99/100"
    return f"cells[{len(data['cells']) - 1}].box"


def tamper_address(data):
    first, second = data["cells"][1:3]
    first["address"], second["address"] = second["address"], first["address"]
    return "cells[1].address"


def tamper_factor(data):
    data["factor"]["ratio"] = "1/4"
    return "model.factor"


def tamper_vertex(data):
    data["connectors"][3]["vertices"][0] = ["1/2", "1/2"]
    return "connectors[3].vertices"


class TestSkeletonCheck:
    """Every cell, connector, index field and header field is checked
    against the one derived from the config on load."""

    @pytest.mark.parametrize("tamper", [tamper_hi, tamper_lo, tamper_status,
                                        tamper_interval, tamper_parent, tamper_box,
                                        tamper_address, tamper_factor, tamper_vertex])
    @pytest.mark.parametrize("write", [json.dumps, dump_json], ids=["compact", "canonical"])
    def test_tampered_index_field_exits_2_naming_it(self, models, tmp_path, capsys, tamper,
                                                    write):
        data = json.loads(models["planar", 2].read_text())
        field = tamper(data)
        path = tmp_path / "tampered.json"
        path.write_text(write(data))
        for argv in (["verify", "--model", str(path)],
                     ["export", "--model", str(path), "--format", "json",
                      "--out", str(tmp_path / "out.json")],
                     ["estimate", "--preset", "arc", "--model", str(path)]):
            assert run(*argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and field in err, err
        assert not (tmp_path / "out.json").exists()


def list_at_top(data):
    return [data]


def zero_denominator(data):
    data["cells"][3]["box"][0][0] = "1/0"
    return data


def empty_vertices(data):
    data["connectors"][2]["vertices"] = []
    return data


def depth_beyond_cells(data):
    data["depth"] = 3
    return data


def huge_depth(data):
    data["depth"] = 10 ** 30
    return data


def huge_target_dimension(data):
    data["config"]["target_dimension"] = 10 ** 400  # past the float range
    return data


class TestMalformedModel:
    @pytest.mark.parametrize("corrupt", [list_at_top, zero_denominator, empty_vertices,
                                         depth_beyond_cells, huge_depth,
                                         huge_target_dimension])
    def test_exits_2(self, models, tmp_path, capsys, corrupt):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(corrupt(json.loads(models["planar", 2].read_text()))))
        assert run("verify", "--model", str(path)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("family, params, why", [
    ("dyadic", {"z": "3/1"}, "ratio parameter 'z' is not read by the dyadic family"),
    ("dyadic", {"q": "1/3"}, "ratio parameter 'q' is not read by the dyadic family"),
    ("geometric", {}, "geometric ratios need a parameter q"),
    ("fibonacci", {}, "unknown ratio family 'fibonacci'"),
])
def test_ratio_parameters_its_family_does_not_read_exit_2(models, tmp_path, capsys,
                                                           family, params, why):
    data = json.loads(models["planar", 2].read_text())
    data["config"].update(ratio_family=family, ratio_params=params)
    path = tmp_path / "ratios.json"
    path.write_text(dump_json(data))
    out = tmp_path / "out.json"
    for argv in (["verify", "--model", str(path)],
                 ["export", "--model", str(path), "--format", "json", "--out", str(out)]):
        assert run(*argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("depth", True), ("seed", True), ("samples", True), ("target_dimension", True),
    ("scales", [True, 4]), ("scales", [2, True]),
])
def test_boolean_config_values_exit_2(models, tmp_path, capsys, key, value):
    # JSON true loads as a Python bool, which is an int equal to 1
    data = json.loads(models["planar", 2].read_text())
    data["config"][key] = value
    path = tmp_path / "bool.json"
    path.write_text(dump_json(data))
    out = tmp_path / "out.json"
    for argv in (["verify", "--model", str(path)],
                 ["export", "--model", str(path), "--format", "json", "--out", str(out)],
                 ["estimate", "--preset", "arc", "--model", str(path)]):
        assert run(*argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {key} must be a number, not a boolean\n")
    assert not out.exists()


def test_json_nested_past_the_stack_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    for argv in (["verify", "--model", str(path)],
                 ["export", "--model", str(path), "--format", "json",
                  "--out", str(tmp_path / "out.json")],
                 ["estimate", "--preset", "arc", "--model", str(path)]):
        assert run(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: model {path} is not valid JSON: "), err
        assert err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_paths(value, prefix + (i,))


replacements = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30),
    st.sampled_from([-1, 2 ** 31, 2 ** 64, 10 ** 30, 0.5, "", "x", "1/0", "-1/3",
                     [], {}, [[]], ["0/1"]]))


class TestLoaderFuzz:
    @pytest.fixture(scope="class")
    def base(self, models):
        data = json.loads(models["planar", 2].read_text())
        return data, [p for p in json_paths(data) if p]

    @settings(max_examples=80, deadline=None)
    @given(choice=st.data())
    def test_verify_never_raises(self, base, tmp_path_factory, choice):
        data, paths = base
        data = copy.deepcopy(data)
        path = choice.draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if choice.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = choice.draw(replacements)
        out = tmp_path_factory.getbasetemp() / "fuzzed.json"
        out.write_text(json.dumps(data))
        report = out.with_name("fuzzed-report.json")
        report.unlink(missing_ok=True)
        assert run("verify", "--model", str(out), "--samples", "5", "--seed", "1",
                   "--out", str(report)) in (0, 1, 2)
        # a file that loads is rebuilt from its config, so neither check can fail
        if report.exists():
            checks = json.loads(report.read_text())["checks"]
            assert all(c["passed"] for c in checks if c["name"] in ("injectivity",
                                                                    "containment"))

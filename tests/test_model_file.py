"""Model JSON: byte identity, the derived skeleton check, malformed files."""

import copy
import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc.cli import EXIT_CONFIG, decode_rational, main, model_from_dict

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
                                 ("spatial", SPATIAL, 2), ("spatial", SPATIAL, 3)):
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
    code did: descend into the closed child interval holding t, the used one
    on a boundary."""
    rows = [(decode_rational(r["lo"]), decode_rational(r["hi"]), r)
            for r in data["param_intervals"]]

    def evaluate(t, k):
        lo, hi, node = rows[0]
        while True:
            if node["status"] == "used":
                frac = float((F(t) - lo) / (hi - lo))
                return arc.connectors[node["link"]].point_at(frac), 0.0
            if node["depth"] == k:
                near = arc.cells[node["link"]].near_corner
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
    def test_tampered_index_field_exits_2_naming_it(self, models, tmp_path, capsys, tamper):
        data = json.loads(models["planar", 2].read_text())
        field = tamper(data)
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
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


class TestMalformedModel:
    @pytest.mark.parametrize("corrupt", [list_at_top, zero_denominator, empty_vertices,
                                         depth_beyond_cells, huge_depth])
    def test_exits_2(self, models, tmp_path, capsys, corrupt):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(corrupt(json.loads(models["planar", 2].read_text()))))
        assert run("verify", "--model", str(path)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")


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
        assert run("verify", "--model", str(out), "--samples", "5", "--seed", "1") in (0, 1, 2)

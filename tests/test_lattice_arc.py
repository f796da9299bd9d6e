"""The lattice arc against the object grower it replaced, and the commands
that must run without making a ``Fraction``."""

import dataclasses
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc import arc as arc_mod
from fractarc.arc import modulus_of_continuity, verify_containment
from fractarc.cli import (RunConfig, build_model, counting_summary, dump_json, main,
                          model_text, render_svg)
from oracles import (Address, ObjectArc, RowView, fraction_evaluate, near_point,
                     object_containment, object_counting_summary, object_render_svg,
                     object_vertex_cloud, reference_model_dict, sample_addresses,
                     scan_containment)

PLANAR = ["--c", "1.6309297535714574"]
SPATIAL = ["--c", "2.5"]

#: Planar targets below 2, spatial ones from 2.
TARGETS = (1.05, 1.3, 1.6309297535714574, 1.9, 2.0, 2.5, 2.9)


@st.composite
def arc_configs(draw):
    family = draw(st.sampled_from(["dyadic", "harmonic", "geometric"]))
    params = ({"q": draw(st.fractions(F(1, 10), F(9, 10), max_denominator=12))}
              if family == "geometric" else {})
    return RunConfig(target_dimension=draw(st.sampled_from(TARGETS)), ratio_family=family,
                     ratio_params=params, depth=draw(st.integers(1, 4)))


def connector_fields(conn):
    """A connector's fields, without the float caches ``point_at`` fills."""
    return tuple(getattr(conn, f.name) for f in dataclasses.fields(conn)
                 if not f.name.startswith("_"))


class TestAgainstObjectGrower:
    @settings(max_examples=30, deadline=None)
    @given(config=arc_configs(), data=st.data())
    def test_lattice_arc_matches_the_object_arc(self, config, data):
        arc = build_model(config)
        oracle = ObjectArc(arc.base_set, arc.product, config.depth)
        assert model_text(arc, config) == dump_json(reference_model_dict(oracle, config))
        if arc.ambient_dimension == 2:
            assert "".join(render_svg(arc)) == object_render_svg(oracle)
        assert counting_summary(arc) == object_counting_summary(oracle)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        addresses = sample_addresses(arc, 20, rng)
        p = 2 * arc.branching - 1
        for k in range(1, arc.depth + 1):
            assert np.array_equal(arc.vertex_cloud(k), object_vertex_cloud(oracle, k))
            # the sampled check on the lattice arc's cloud and on the object arc's
            sampled = scan_containment(arc, k, addresses)
            assert (sampled.max_distance, sampled.bound) == object_containment(oracle, k,
                                                                               addresses)
            assert verify_containment(arc, k) == arc_mod.ContainmentReport(k, sampled.bound,
                                                                           True)
            ts = data.draw(st.lists(st.floats(0.0, 1.0) | st.integers(0, p ** k).map(
                lambda n, k=k: F(n, p ** k)), min_size=1, max_size=8))
            for t in ts:
                assert arc.evaluate(t, k) == fraction_evaluate(oracle, t, k), (t, k)
        if arc.depth >= 2:
            # the cutoff is depth - 1, so every connector above the deepest
            # generation bounds the Lipschitz rate
            rep = modulus_of_continuity(arc, arc.cell_diameter(arc.depth - 1) * (1 + 1e-9))
            assert rep.cutoff_depth == arc.depth - 1
            assert rep.lipschitz_bound == max(
                c.lipschitz for c in oracle.cumulative_connectors(arc.depth - 1))
            assert rep.delta_prime == float(F(1, p ** arc.depth)) / 2.0
        views = RowView(arc)
        assert views.cells == oracle.cells
        assert ([connector_fields(c) for c in views.connectors]
                == [connector_fields(c) for c in oracle.connectors])

    @settings(max_examples=30, deadline=None)
    @given(config=arc_configs(), data=st.data())
    def test_cell_at_finds_the_cell_of_each_address(self, config, data):
        arc = build_model(config)
        views = RowView(arc)
        k = data.draw(st.integers(0, arc.depth))
        cell = data.draw(st.sampled_from(views.generation_cells(k)))
        assert views.cell_at(cell.address) is cell
        assert near_point(arc, Address(cell.address)) == tuple(
            float(c) for c in cell.near_corner)

    def test_cell_at_refuses_an_unbuilt_address(self):
        views = RowView(build_model(RunConfig(depth=2)))
        for words in (("000", "000"), ("0", "00"), ("0",), ("2", "0")):
            with pytest.raises(KeyError):
                views.cell_at(words)


class TestViews:
    def test_views_are_assignable_and_leave_the_rows(self):
        arc = build_model(RunConfig(depth=2))
        views = RowView(arc)
        views.connectors = views.connectors[:3]
        views.cells = views.cells[:5]
        assert len(views.connectors) == 3 and len(views.cells) == 5
        assert len(RowView(arc).cells) == 21 and len(RowView(arc).connectors) == 15


def run(*argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


class TestHotPaths:
    def test_commands_build_no_fraction(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a hot path built a Fraction")

        monkeypatch.setattr(arc_mod, "Fraction", refuse)
        with pytest.raises(AssertionError):
            build_model(RunConfig(depth=1)).cell_diameter_sq(1)  # trips the patch
        for name, flags, depth, formats in (("planar", PLANAR, 4, ("json", "svg", "csv")),
                                            ("spatial", SPATIAL, 3, ("json", "csv"))):
            model = tmp_path / f"{name}.json"
            assert run("build", *flags, "--depth", depth, "--out", model) == 0
            for fmt in formats:
                assert run("export", "--model", model, "--format", fmt,
                           "--out", tmp_path / f"export-{name}.{fmt}") == 0
            assert (tmp_path / f"export-{name}.json").read_bytes() == model.read_bytes()
            assert run("estimate", "--preset", "arc", "--model", model) == 0

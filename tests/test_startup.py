"""What a fresh process loads: the package's lazy public names, and the
engine modules each CLI command imports."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fractarc
from fractarc.cli import EXIT_OK, main

#: The public names and the module each one comes from, as the package
#: imported them eagerly before they were loaded on first use, less
#: ``CantorInterval``, which left for the test oracles with the interval views,
#: and ``Address``, which left with the sampled containment check once
#: ``verify_containment`` proved containment from the rows.
PUBLIC = {
    "cantor": ["GenerationBudgetError", "ProductCantor", "RatioCantorSet", "RatioSequence",
               "SelfSimilarCantor", "product_for_dimension", "scaling_for_dimension",
               "uniform_perfectness_constant", "verify_uniform_perfectness"],
    "measure": ["BallMassBracket", "MassBoundCertificate", "NaturalMeasure",
                "mass_bound_sequence", "verify_mass_bounds"],
    "arc": ["ArcApproximation", "RoutingFailed", "build_arc", "modulus_of_continuity",
            "route_connectors", "verify_containment", "verify_injectivity"],
    "metric": ["RugSpace", "SnowflakeMetric", "VON_KOCH_EXPONENT"],
    "dimension": ["BoxCountSeries", "DimensionEstimate", "ball_net_count", "box_count",
                  "box_count_series", "estimate_dimension", "expected_dimensions"],
    "geometry": [],
}
ENV = {**os.environ, "PYTHONPATH": str(Path(fractarc.__file__).parents[1])}
PLANAR = ["--c", repr(1.0 + math.log(2.0) / math.log(3.0))]


def fresh(code: str, *argv: str) -> str:
    """Last stdout line of ``python -c code argv`` in a fresh process."""
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, env=ENV, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


class TestPublicNames:
    def test_all_is_the_eager_packages_names(self):
        expected = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])
        assert fractarc.__all__ == expected
        assert len(expected) == 37

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_each_name_is_its_modules_object(self, module):
        engine = importlib.import_module(f"fractarc.{module}")
        assert getattr(fractarc, module) is engine
        for name in PUBLIC[module]:
            assert getattr(fractarc, name) is getattr(engine, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from fractarc import *", namespace)
        for name in fractarc.__all__:
            assert namespace[name] is getattr(fractarc, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fractarc.no_such_name
        with pytest.raises(ImportError):
            exec("from fractarc import no_such_name", {})
        assert set(fractarc.__all__) <= set(dir(fractarc))

    def test_importing_the_package_loads_no_engine_module(self):
        code = ("import sys, fractarc; "
                "print(sorted(m for m in sys.modules if m.startswith('fractarc')))")
        assert fresh(code) == "['fractarc']"

    def test_importing_the_cli_loads_no_numpy(self):
        assert fresh("import sys, fractarc.cli; print('numpy' in sys.modules)") == "False"


#: Runs one command through ``cli.main`` and prints its exit code, the
#: engine modules then loaded, and whether numpy.ma and numpy were imported.
COMMAND = """\
import json, sys
from fractarc import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("fractarc.")), "numpy.ma" in sys.modules,
                  "numpy" in sys.modules]))
"""

#: The library continuity check on a model file, as the benchmark runs it:
#: prints the violations found and whether numpy was imported.
CONTINUITY = """\
import json, random, sys
from fractarc import arc, cli
model, _ = cli._load_model(sys.argv[1])
modulus = arc.modulus_of_continuity(model, 0.5)
violations = arc.continuity_violations(model, 0.5, modulus.delta, 500, random.Random(1))
print(json.dumps([violations, "numpy" in sys.modules]))
"""

ESTIMATE = ["cli", "cantor", "dimension"]
ARC = ["cli", "cantor", "arc", "geometry"]


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "planar-2.json"
    assert main(["build", *PLANAR, "--depth", "2", "--out", str(path)]) == EXIT_OK
    return path


class TestCommandModules:
    # the estimate presets fit a slope and net-count with numpy; the csv
    # export only box-counts, on Python ints, and no other command imports it
    @pytest.mark.parametrize("argv,modules,numpy_free", [
        (["estimate", "--preset", "cantor", "--generation", "8"], ESTIMATE, False),
        (["estimate", "--preset", "product", "--generation", "6"], ESTIMATE, False),
        (["estimate", "--preset", "snowflake", "--generation", "10"], ESTIMATE + ["metric"],
         False),
        (["estimate", "--preset", "rug", "--generation", "7"], ESTIMATE + ["metric"], False),
        (["estimate", "--preset", "arc", "--model", "{model}"], ARC + ["dimension"], False),
        (["build", *PLANAR, "--depth", "2", "--out", "{dir}/built.json"], ARC, True),
        (["export", "--model", "{model}", "--format", "svg", "--out", "{dir}/m.svg"], ARC,
         True),
        (["export", "--model", "{model}", "--format", "json", "--out", "{dir}/m.json"], ARC,
         True),
        (["export", "--model", "{model}", "--format", "csv", "--out", "{dir}/m.csv"],
         ARC + ["dimension"], True),
        (["verify", "--model", "{model}", "--samples", "20"], ARC + ["measure"], True),
    ], ids=["estimate-cantor", "estimate-product", "estimate-snowflake", "estimate-rug",
            "estimate-arc", "build", "export-svg", "export-json", "export-csv", "verify"])
    def test_command_loads_only_its_engine_modules(self, argv, modules, numpy_free, model,
                                                   tmp_path):
        argv = [arg.format(dir=tmp_path, model=model) for arg in argv]
        code, loaded, numpy_ma, numpy = json.loads(fresh(COMMAND, *argv))
        assert code == EXIT_OK
        assert loaded == sorted(modules)
        assert not numpy_ma
        assert numpy is not numpy_free

    def test_continuity_check_loads_no_numpy(self, model):
        violations, numpy = json.loads(fresh(CONTINUITY, str(model)))
        assert violations == 0
        assert not numpy

"""Which layers a command-line process runs, and that tracing still reaches them.

The upper layers of gradix are registered lazily by the package, so a
process compiles and runs only the modules its verb touches.  Each case
runs one verb in a fresh interpreter and pins the gradix modules that
actually ran: a module that was never touched is still a lazy placeholder
(``importlib.util._LazyModule``), not a plain module.

The benchmark's tracer (bench/tracing.py) looks each traced module up in
``sys.modules`` when it installs and patches the functions it lists.  The
last check installs it after ``import gradix.cli`` and requires every
listed function, and the command line's view of it, to be the traced one.
"""

import json
import os
import subprocess
import sys

import pytest

import gradix

FIXTURES = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "fixtures"))
BENCH = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "bench"))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(gradix.__file__)))

GROUPOID_LAYERS = {"cli", "errors", "fields", "groupoids", "specfiles"}

RUN_VERB = """
import json, sys, types
import gradix.cli
code = gradix.cli.run(sys.argv[1:])
ran = sorted(k[len("gradix."):] for k, m in sys.modules.items()
             if k.startswith("gradix.") and type(m) is types.ModuleType)
print(json.dumps({"code": code, "ran": ran}))
"""

INSTALL_TRACER = """
import importlib.util, json, sys
import gradix.cli
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracing.Tracer().install()
missed = []
for module, path, _ in tracing.SPANS:
    owner = sys.modules["gradix." + module]
    for part in path.split("."):
        owner = getattr(owner, part)
    if not hasattr(owner, "__wrapped__"):
        missed.append(module + "." + path)
cli = sys.modules["gradix.cli"]
seen_by_cli = [cli.structure.wedderburn_decompose, cli.elimination.rank_all, cli.categories.ring_of_category]
missed += [fn.__name__ for fn in seen_by_cli if not hasattr(fn, "__wrapped__")]
print(json.dumps(missed))
"""


def _python(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=30
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def fx(name):
    return os.path.join(FIXTURES, name)


def ran_layers(*argv):
    result = _python(RUN_VERB, *argv)
    return result["code"], set(result["ran"])


@pytest.mark.parametrize(
    "name, code", [("pair3.groupoid.json", 0), ("broken/group_assoc.json", 1), ("broken/raw_assoc.json", 1)]
)
def test_validate_of_a_groupoid_runs_the_groupoid_layers_only(name, code):
    assert ran_layers("validate", fx(name)) == (code, GROUPOID_LAYERS)


def test_validate_of_a_raw_groupoid_runs_the_groupoid_layers_only(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(
        {"raw": {"objects": [0], "morphisms": [{"source": 0, "target": 0}], "compose": [[0, 0, 0]]}}
    ))
    assert ran_layers("validate", str(path)) == (0, GROUPOID_LAYERS)


@pytest.mark.parametrize("name, code", [("pair_ring.json", 0), ("broken/ring_cocycle.json", 1)])
def test_validate_of_a_ring_adds_the_division_layer(name, code):
    assert ran_layers("validate", fx(name)) == (code, GROUPOID_LAYERS | {"division"})


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["rank", "rank1.matrix.json"], {"structure", "categories", "modules", "matrix_ring"}),
        (["invert", "unimodular.matrix.json"], {"structure", "categories", "modules", "matrix_ring"}),
        (["solve", "unimodular.matrix.json", "rhs.matrix.json"], {"structure", "categories", "modules", "matrix_ring"}),
        (["classify", "pfm_m3.ring.json"], {"elimination", "modules", "categories"}),
        (["decompose", "pfm_m3.ring.json"], {"elimination", "modules", "categories"}),
        (["iso", "pfm_m3.ring.json", "pfm_m3.ring.json"], {"elimination", "modules", "categories"}),
        (["category", "to-ring", "two_sizes.category.json"], {"structure", "division", "matrix_ring"}),
    ],
)
def test_verb_runs_none_of_the_layers_it_does_not_use(argv, absent):
    code, ran = ran_layers(*(fx(a) if a.endswith(".json") else a for a in argv))
    assert code == 0
    assert "cli" in ran
    assert not ran & absent, sorted(ran & absent)


def test_the_benchmark_tracer_installs_over_the_lazy_layers():
    assert _python(INSTALL_TRACER, os.path.join(BENCH, "tracing.py")) == []

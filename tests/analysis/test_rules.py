"""Each invariant rule fires on a violating snippet and stays quiet on
a conforming one."""

import ast
from pathlib import Path

import pytest

from repro.analysis.findings import Context, ModuleInfo
from repro.analysis.graph import ImportGraph
from repro.analysis.project import ProjectModel
from repro.analysis.rules import (
    BackendContractRule,
    DeterminismRule,
    ErrorDisciplineRule,
    LayeringRule,
    RuleConfig,
    SlotsRule,
    default_rules,
)


def make_module(name: str, source: str) -> ModuleInfo:
    path = "src/" + name.replace(".", "/") + ".py"
    return ModuleInfo(name=name, path=path, tree=ast.parse(source))


def run_rule(rule, *modules: ModuleInfo):
    table = {module.name: module for module in modules}
    graph = ImportGraph.build(table)
    context = Context(
        project=ProjectModel(root=Path(".")), modules=table
    )
    findings = []
    for module in modules:
        findings.extend(rule.check(module, graph, context))
    return findings


@pytest.fixture()
def config() -> RuleConfig:
    return RuleConfig()


class TestLayeringRule:
    def test_upward_import_fires(self, config):
        # pipeline (band 2) importing the framework (band 6) is upward.
        bad = make_module(
            "repro.core.pipeline", "from repro.core import framework\n"
        )
        top = make_module("repro.core.framework", "")
        findings = run_rule(LayeringRule(config), bad, top)
        assert [f.rule for f in findings] == ["layering"]
        assert "upward" in findings[0].message

    def test_lazy_upward_import_fires_and_is_labelled(self, config):
        bad = make_module(
            "repro.core.pipeline",
            "def f():\n    from repro.core import framework\n",
        )
        top = make_module("repro.core.framework", "")
        findings = run_rule(LayeringRule(config), bad, top)
        assert len(findings) == 1
        assert "(lazy import)" in findings[0].message

    def test_downward_import_passes(self, config):
        good = make_module(
            "repro.core.framework", "from repro.core import pipeline\n"
        )
        low = make_module("repro.core.pipeline", "")
        assert run_rule(LayeringRule(config), good, low) == []

    def test_type_checking_import_is_exempt(self, config):
        ok = make_module(
            "repro.core.pipeline",
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core import framework\n",
        )
        top = make_module("repro.core.framework", "")
        assert run_rule(LayeringRule(config), ok, top) == []

    def test_unmapped_project_module_fires(self, config):
        stray = make_module("repro.newsubsystem.thing", "")
        findings = run_rule(LayeringRule(config), stray)
        assert len(findings) == 1
        assert "not assigned to a layer" in findings[0].message

    def test_foreign_module_is_out_of_scope(self, config):
        other = make_module("tests.core.test_x", "import repro\n")
        assert run_rule(LayeringRule(config), other) == []


class TestDeterminismRule:
    def test_wall_clock_fires(self, config):
        bad = make_module(
            "repro.hw.engine", "import time\nT = time.time()\n"
        )
        findings = run_rule(DeterminismRule(config), bad)
        assert [f.rule for f in findings] == ["determinism"]
        assert "time.time" in findings[0].message

    def test_aliased_from_import_fires(self, config):
        bad = make_module(
            "repro.core.trace",
            "from time import perf_counter as pc\nT = pc()\n",
        )
        findings = run_rule(DeterminismRule(config), bad)
        assert len(findings) == 1
        assert "time.perf_counter" in findings[0].message

    def test_unseeded_random_fires(self, config):
        bad = make_module(
            "repro.fleet.router", "import random\nX = random.random()\n"
        )
        assert len(run_rule(DeterminismRule(config), bad)) == 1

    def test_unseeded_constructor_fires(self, config):
        bad = make_module(
            "repro.core.faults",
            "import random\nGEN = random.Random()\n",
        )
        assert len(run_rule(DeterminismRule(config), bad)) == 1

    def test_seeded_constructor_passes(self, config):
        good = make_module(
            "repro.core.faults",
            "import random\nimport numpy as np\n"
            "GEN = random.Random(7)\n"
            "RS = np.random.RandomState(3)\n",
        )
        assert run_rule(DeterminismRule(config), good) == []

    def test_allowlisted_site_passes(self, config):
        # The executor's per-shard wall accounting is sanctioned in the
        # config.
        good = make_module(
            "repro.core.executor",
            "from time import perf_counter\nT = perf_counter()\n",
        )
        assert run_rule(DeterminismRule(config), good) == []

    def test_out_of_scope_module_passes(self, config):
        other = make_module(
            "repro.dft.basis", "import time\nT = time.time()\n"
        )
        assert run_rule(DeterminismRule(config), other) == []


BACKEND_OK = """
from typing import Protocol

class SimulationBackend(Protocol):
    name: str

FAILED_REASON = "it cannot"

class GoodBackend:
    name = "good"
    def simulate(self, executor, shard_jobs, arrivals, lane_log):
        if not shard_jobs:
            return None
        return [], 0.0, 0
    def unsupported_reason(self, executor, shard_jobs):
        return FAILED_REASON

def register_backend(backend):
    pass

register_backend(GoodBackend())
"""

BACKEND_BAD = """
REASON = "named"

class ForgottenBackend:
    name = "forgotten"
    def simulate(self, executor, shard_jobs, arrivals, lane_log):
        try:
            return [], 0.0, 0
        except Exception:
            return None
    def unsupported_reason(self, executor, shard_jobs):
        return "an inline reason"

class SilentBackend:
    name = "silent"
    def simulate(self, executor, shard_jobs, arrivals, lane_log):
        if not shard_jobs:
            return None
        return [], 0.0, 0

def register_backend(backend):
    pass

register_backend(SilentBackend())
"""


class TestBackendContractRule:
    def test_conforming_module_passes(self, config):
        good = make_module("repro.core.backends", BACKEND_OK)
        assert run_rule(BackendContractRule(config), good) == []

    def test_violations_fire(self, config):
        bad = make_module("repro.core.backends", BACKEND_BAD)
        findings = run_rule(BackendContractRule(config), bad)
        messages = "\n".join(f.message for f in findings)
        assert "ForgottenBackend is never passed" in messages
        assert "except handler that returns" in messages
        assert "inline reason" in messages
        assert "defines no unsupported_reason" in messages
        assert len(findings) == 4

    def test_other_modules_are_out_of_scope(self, config):
        other = make_module("repro.core.executor", BACKEND_BAD)
        assert run_rule(BackendContractRule(config), other) == []


class TestSlotsRule:
    def test_plain_class_fires(self, config):
        bad = make_module(
            "repro.hw.engine", "class Hot:\n    def __init__(self): pass\n"
        )
        findings = run_rule(SlotsRule(config), bad)
        assert [f.rule for f in findings] == ["slots"]
        assert "Hot" in findings[0].message

    def test_slots_and_slotted_dataclass_pass(self, config):
        good = make_module(
            "repro.core.executor",
            "from dataclasses import dataclass\n"
            "class A:\n    __slots__ = ('x',)\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class B:\n    x: int\n",
        )
        assert run_rule(SlotsRule(config), good) == []

    def test_exceptions_and_protocols_exempt(self, config):
        good = make_module(
            "repro.hw.vector_replay",
            "from typing import Protocol\n"
            "class _Declined(Exception):\n    pass\n"
            "class Shape(Protocol):\n    x: int\n",
        )
        assert run_rule(SlotsRule(config), good) == []

    def test_other_modules_are_out_of_scope(self, config):
        other = make_module("repro.core.framework", "class Cold:\n    pass\n")
        assert run_rule(SlotsRule(config), other) == []


class TestErrorDisciplineRule:
    @pytest.mark.parametrize(
        "module", ["repro.fleet.pool", "repro.core.arrivals", "repro.core.lru"]
    )
    def test_value_error_fires(self, config, module):
        bad = make_module(
            module,
            "def f(x):\n"
            "    if not x:\n"
            "        raise ValueError('no jobs')\n",
        )
        findings = run_rule(ErrorDisciplineRule(config), bad)
        assert [f.rule for f in findings] == ["error-discipline"]

    def test_config_error_passes(self, config):
        good = make_module(
            "repro.cli",
            "from repro.errors import ConfigError\n"
            "def f(x):\n"
            "    if not x:\n"
            "        raise ConfigError('no jobs')\n",
        )
        assert run_rule(ErrorDisciplineRule(config), good) == []

    def test_out_of_scope_module_passes(self, config):
        other = make_module(
            "repro.hw.engine", "def f():\n    raise ValueError('fine here')\n"
        )
        assert run_rule(ErrorDisciplineRule(config), other) == []


class TestDefaultRules:
    def test_five_rules_with_unique_ids(self):
        rules = default_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == 5
        assert len(set(ids)) == 5
        assert set(ids) == {
            "layering",
            "determinism",
            "backend-contract",
            "slots",
            "error-discipline",
        }

"""The five repo-specific invariant rules.

Each rule encodes a guarantee earlier PRs established by construction
and tests enforce only where a test author remembered to look:

- :class:`LayeringRule` — the ROADMAP's bottom-up stack: imports only
  point downward (or sideways within a band).
- :class:`DeterminismRule` — virtual-time modules never read wall
  clocks or unseeded entropy; the few sanctioned wall-timing sites
  (backend auto-tuning, serving benchmarks) live in an explicit
  allowlist here, not in inline comments.
- :class:`BackendContractRule` — every simulation backend is reachable
  from the registry walk, declines with named reason constants, and
  never swallows errors in its ``simulate`` path.
- :class:`SlotsRule` — hot-loop classes declare ``__slots__``.
- :class:`ErrorDisciplineRule` — user-facing validation raises the
  :mod:`repro.errors` hierarchy, never bare ``ValueError``.

Adding a rule: implement :class:`repro.analysis.findings.Rule`, give
it a unique ``id``, and append an instance in :func:`default_rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Context, Finding, ModuleInfo
from repro.analysis.graph import ImportGraph


def _matches_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


@dataclass(slots=True)
class RuleConfig:
    """Shared, explicit configuration for the default rule set.

    Everything the rules treat specially is named here — scopes,
    allowlists, hot-path modules — so sanctioned exceptions are one
    greppable declaration instead of scattered inline pragmas.
    """

    #: Top-level package the layering rule expects to find in the map.
    project_prefix: str = "repro"

    #: Modules that run on virtual (simulated) time and must stay
    #: bit-deterministic for a fixed seed.
    determinism_scope: tuple[str, ...] = (
        "repro.core",
        "repro.hw",
        "repro.fleet",
        "repro.experiments.scale_serving",
    )

    #: Sanctioned wall-clock sites: (module, dotted call).  These
    #: measure *host* wall time (per-shard and fleet accounting,
    #: serving benchmarks) and never feed simulated timestamps.
    determinism_allowlist: frozenset[tuple[str, str]] = frozenset(
        {
            # Per-shard ShardTiming wall accounting (backend_timings).
            ("repro.core.executor", "time.perf_counter"),
            # WorkerPool wall/sim speedup accounting.
            ("repro.fleet.pool", "time.perf_counter"),
            # Serving benchmark harness timing.
            ("repro.experiments.scale_serving", "time.perf_counter"),
        }
    )

    #: Seeded-constructor calls exempt from the entropy ban *when
    #: called with an explicit seed argument*.
    seeded_constructors: frozenset[str] = frozenset(
        {
            "random.Random",
            "random.SystemRandom",  # still flagged: no seed parameter
            "numpy.random.RandomState",
            "numpy.random.default_rng",
            "numpy.random.Generator",
            "numpy.random.SeedSequence",
        }
    )

    #: The registry module the backend-contract rule inspects.
    backend_module: str = "repro.core.backends"

    #: Hot-path modules whose classes must declare ``__slots__``.
    slots_modules: tuple[str, ...] = (
        "repro.hw.engine",
        "repro.hw.vector_replay",
        "repro.core.executor",
    )

    #: User-facing modules where validation must raise the
    #: :mod:`repro.errors` hierarchy.
    error_scope: tuple[str, ...] = (
        "repro.cli",
        "repro.core",
        "repro.fleet",
    )


def _alias_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from time
    import perf_counter as pc`` maps ``pc`` to ``time.perf_counter``.
    Function-local imports are included — a lazy wall-clock import is
    still a wall-clock read.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def _dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute chain to its imported dotted origin."""
    parts: list[str] = []
    probe = node
    while isinstance(probe, ast.Attribute):
        parts.append(probe.attr)
        probe = probe.value
    if not isinstance(probe, ast.Name):
        return None
    root = aliases.get(probe.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


@dataclass(slots=True)
class LayeringRule:
    """Imports only point downward through the ROADMAP's layer stack."""

    config: RuleConfig
    id: str = "layering"
    severity: str = "error"

    def check(
        self, module: ModuleInfo, graph: ImportGraph, context: Context
    ) -> list[Finding]:
        project = context.project
        findings: list[Finding] = []
        ordinal = project.ordinal_of(module.name)
        in_project = _matches_scope(
            module.name, (self.config.project_prefix,)
        )
        if in_project and ordinal is None:
            findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=module.path,
                    line=1,
                    message=(
                        f"module {module.name} is not assigned to a layer"
                    ),
                    hint=(
                        "add it to MODULE_LAYERS or PREFIX_LAYERS in "
                        "repro/analysis/project.py so the layering rule "
                        "covers it"
                    ),
                )
            )
            return findings
        if ordinal is None:
            return findings
        layer = project.layer_of(module.name)
        for edge in graph.imports_of(module.name):
            if edge.type_checking:
                continue  # erased at runtime; no layering pressure
            target_ordinal = project.ordinal_of(edge.target)
            if target_ordinal is None or target_ordinal <= ordinal:
                continue
            target_layer = project.layer_of(edge.target)
            lazy = " (lazy import)" if edge.lazy else ""
            findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=module.path,
                    line=edge.line,
                    message=(
                        f"{module.name} [{layer}] imports {edge.target} "
                        f"[{target_layer}] upward{lazy}"
                    ),
                    hint=(
                        "invert the dependency or move the shared code "
                        "into a band at or below "
                        f"{layer!r} (see ROADMAP architecture)"
                    ),
                )
            )
        return findings


#: Wall-clock and entropy callables that break seeded virtual-time
#: determinism.  Prefix entries (trailing dot) ban a whole namespace.
_BANNED_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)
_BANNED_PREFIXES: tuple[str, ...] = ("random.", "numpy.random.", "secrets.")


@dataclass(slots=True)
class DeterminismRule:
    """No wall clocks or unseeded entropy in virtual-time modules."""

    config: RuleConfig
    id: str = "determinism"
    severity: str = "error"

    def check(
        self, module: ModuleInfo, graph: ImportGraph, context: Context
    ) -> list[Finding]:
        if not _matches_scope(module.name, self.config.determinism_scope):
            return []
        aliases = _alias_map(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, aliases)
            if dotted is None:
                continue
            if not self._is_banned(dotted, node):
                continue
            if (module.name, dotted) in self.config.determinism_allowlist:
                continue
            findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=module.path,
                    line=node.lineno,
                    message=(
                        f"call to {dotted} in virtual-time module "
                        f"{module.name}"
                    ),
                    hint=(
                        "derive time from the simulation clock and "
                        "entropy from an explicit seed; a sanctioned "
                        "wall-timing site belongs in "
                        "RuleConfig.determinism_allowlist "
                        "(repro/analysis/rules.py), not here"
                    ),
                )
            )
        return findings

    def _is_banned(self, dotted: str, node: ast.Call) -> bool:
        if dotted in self.config.seeded_constructors:
            if dotted == "random.SystemRandom":
                return True  # OS entropy; cannot be seeded
            return not (node.args or node.keywords)  # unseeded
        if dotted in _BANNED_CALLS:
            return True
        return any(dotted.startswith(p) for p in _BANNED_PREFIXES)


@dataclass(slots=True)
class BackendContractRule:
    """Registry reachability + named decline reasons + no swallowed
    errors in ``simulate``."""

    config: RuleConfig
    id: str = "backend-contract"
    severity: str = "error"

    def check(
        self, module: ModuleInfo, graph: ImportGraph, context: Context
    ) -> list[Finding]:
        if module.name != self.config.backend_module:
            return []
        tree = module.tree
        findings: list[Finding] = []
        reason_constants = self._reason_constants(tree)
        registered = self._registered_classes(tree)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if self._is_protocol(node):
                continue
            if not node.name.endswith("Backend"):
                continue
            if node.name not in registered:
                findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"backend class {node.name} is never passed "
                            "to register_backend() at module level"
                        ),
                        hint=(
                            "register it (engine must stay last) or "
                            "delete the dead backend"
                        ),
                    )
                )
            findings.extend(self._check_methods(module, node, reason_constants))
        return findings

    @staticmethod
    def _is_protocol(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            if name == "Protocol":
                return True
        return False

    @staticmethod
    def _reason_constants(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and "REASON" in target.id
                        and target.id.upper() == target.id
                    ):
                        names.add(target.id)
        return names

    @staticmethod
    def _registered_classes(tree: ast.Module) -> set[str]:
        registered: set[str] = set()
        for node in tree.body:
            if not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "register_backend"
            ):
                continue
            for arg in node.value.args:
                if isinstance(arg, ast.Call) and isinstance(
                    arg.func, ast.Name
                ):
                    registered.add(arg.func.id)
                elif isinstance(arg, ast.Name):
                    registered.add(arg.id)
        return registered

    def _check_methods(
        self,
        module: ModuleInfo,
        klass: ast.ClassDef,
        reason_constants: set[str],
    ) -> list[Finding]:
        findings: list[Finding] = []
        methods = {
            item.name: item
            for item in klass.body
            if isinstance(item, ast.FunctionDef)
        }
        simulate = methods.get("simulate")
        declines = False
        if simulate is not None:
            for node in ast.walk(simulate):
                if isinstance(node, ast.ExceptHandler):
                    bare = node.type is None
                    swallows = any(
                        isinstance(inner, ast.Return)
                        for inner in ast.walk(node)
                    )
                    if bare or swallows:
                        what = (
                            "a bare except"
                            if bare
                            else "an except handler that returns"
                        )
                        findings.append(
                            Finding(
                                rule=self.id,
                                severity=self.severity,
                                path=module.path,
                                line=node.lineno,
                                message=(
                                    f"{klass.name}.simulate contains "
                                    f"{what} (silent fallback)"
                                ),
                                hint=(
                                    "decline explicitly by returning "
                                    "None with a named reason in "
                                    "unsupported_reason, or let the "
                                    "error propagate"
                                ),
                            )
                        )
                if isinstance(node, ast.Return) and (
                    node.value is None
                    or (
                        isinstance(node.value, ast.Constant)
                        and node.value.value is None
                    )
                ):
                    declines = True
        if declines and "unsupported_reason" not in methods:
            findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=module.path,
                    line=simulate.lineno,
                    message=(
                        f"{klass.name}.simulate declines shards but the "
                        "class defines no unsupported_reason"
                    ),
                    hint=(
                        "add unsupported_reason(executor, shard_jobs) "
                        "returning a named *_REASON constant so forced-"
                        "backend errors can explain the decline"
                    ),
                )
            )
        reason = methods.get("unsupported_reason")
        if reason is not None:
            for node in ast.walk(reason):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                if isinstance(node.value, ast.Constant) and (
                    node.value.value is None
                ):
                    continue
                names = {
                    inner.id
                    for inner in ast.walk(node.value)
                    if isinstance(inner, ast.Name)
                }
                if names & reason_constants:
                    continue
                findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"{klass.name}.unsupported_reason returns an "
                            "inline reason instead of a named *_REASON "
                            "constant"
                        ),
                        hint=(
                            "hoist the text to a module-level UPPER_CASE "
                            "*_REASON constant (templates may use "
                            ".format) so errors and docs quote one "
                            "source of truth"
                        ),
                    )
                )
        return findings


@dataclass(slots=True)
class SlotsRule:
    """Classes in hot-loop modules declare ``__slots__``."""

    config: RuleConfig
    id: str = "slots"
    severity: str = "error"

    def check(
        self, module: ModuleInfo, graph: ImportGraph, context: Context
    ) -> list[Finding]:
        if module.name not in self.config.slots_modules:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt(node) or self._has_slots(node):
                continue
            findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=module.path,
                    line=node.lineno,
                    message=(
                        f"class {node.name} in hot-path module "
                        f"{module.name} does not declare __slots__"
                    ),
                    hint=(
                        "add __slots__ (or slots=True on the dataclass "
                        "decorator) to keep per-instance dicts out of "
                        "the event loop"
                    ),
                )
            )
        return findings

    @staticmethod
    def _exempt(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            if name == "Protocol" or name.endswith(("Exception", "Error")):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for item in node.body:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name) and (
                        target.id == "__slots__"
                    ):
                        return True
            if isinstance(item, ast.AnnAssign) and (
                isinstance(item.target, ast.Name)
                and item.target.id == "__slots__"
            ):
                return True
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name != "dataclass":
                continue
            for keyword in decorator.keywords:
                if keyword.arg == "slots" and (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        return False


@dataclass(slots=True)
class ErrorDisciplineRule:
    """User-facing validation raises the repro.errors hierarchy."""

    config: RuleConfig
    id: str = "error-discipline"
    severity: str = "error"

    def check(
        self, module: ModuleInfo, graph: ImportGraph, context: Context
    ) -> list[Finding]:
        if not _matches_scope(module.name, self.config.error_scope):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name != "ValueError":
                continue
            findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=module.path,
                    line=node.lineno,
                    message=(
                        f"raise ValueError in user-facing module "
                        f"{module.name}"
                    ),
                    hint=(
                        "raise ConfigError (bad input) or "
                        "SimulationError (runtime contract) from "
                        "repro.errors so callers can catch ReproError"
                    ),
                )
            )
        return findings


def default_rules(
    config: RuleConfig | None = None,
) -> list[object]:
    """The shipped rule set, in documentation order."""
    config = config or RuleConfig()
    return [
        LayeringRule(config),
        DeterminismRule(config),
        BackendContractRule(config),
        SlotsRule(config),
        ErrorDisciplineRule(config),
    ]


DEFAULT_CONFIG = RuleConfig()

"""Schedulable stage graphs: general DAGs, with the paper's chain as the
canonical instance.

A :class:`Pipeline` is a validated directed acyclic graph of
:class:`Stage` nodes connected by byte-weighted :class:`Edge` data
dependencies.  Validation happens at construction: duplicate or unknown
stage names and cycles are rejected, and the graph indexes (name lookup,
predecessor/successor adjacency, topological order) are built once so
every query afterwards is O(1)/O(degree).

Two builders ship with the package:

- :func:`build_pipeline` — the paper's Fig. 1 LR-TDDFT chain,

      pseudopotential -> face_split -> fft -> global_comm -> gemm -> syevd,

  byte-for-byte identical to the original linear pipeline (the Fig. 7 /
  Table I numbers depend on it);
- :func:`build_kpoint_pipeline` — a branching variant that splits the
  face-split/FFT middle section across independent k-point batches which
  fan back into the global communication stage, so a DAG-aware scheduler
  can overlap the batches on distinct devices.

Each stage carries its analytic workload (:mod:`repro.dft.workload`) and
its function-level IR (for the SCA); edges are weighted with the bytes
live between the two stages — the quantity the DT term of Eq. 1 charges
when a placement boundary cuts the edge.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

from repro.core.ir import KernelFunction, function_from_workload
from repro.dft.workload import ProblemSize, stage_workloads
from repro.errors import ConfigError
from repro.model import KernelWorkload, PhaseName


@dataclass(frozen=True)
class Stage:
    """One schedulable phase of the pipeline."""

    name: str
    workload: KernelWorkload
    function: KernelFunction


@dataclass(frozen=True)
class Edge:
    """Data dependency between two stages, weighted in bytes."""

    src: str
    dst: str
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ConfigError("edge bytes must be non-negative")
        if self.src == self.dst:
            raise ConfigError(f"self-edge on stage {self.src!r}")


@dataclass(frozen=True)
class Pipeline:
    """A validated DAG of stages with byte-weighted data edges.

    ``stages`` keeps its given order (builders emit a topological order
    for readability) but all scheduling code should use
    :attr:`topological_order`, which is recomputed from the edges and is
    what the validator certifies to be cycle-free.
    """

    problem: ProblemSize
    stages: tuple[Stage, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate stage names in pipeline")
        by_name = {s.name: s for s in self.stages}
        for edge in self.edges:
            if edge.src not in by_name or edge.dst not in by_name:
                raise ConfigError(
                    f"edge {edge.src}->{edge.dst} references unknown stage"
                )

        in_edges: dict[str, list[Edge]] = {n: [] for n in names}
        out_edges: dict[str, list[Edge]] = {n: [] for n in names}
        for edge in self.edges:
            out_edges[edge.src].append(edge)
            in_edges[edge.dst].append(edge)

        # Kahn's algorithm: certifies acyclicity and yields the canonical
        # topological order (ties broken by declaration order).
        indegree = {n: len(in_edges[n]) for n in names}
        ready = deque(n for n in names if indegree[n] == 0)
        topo: list[str] = []
        while ready:
            node = ready.popleft()
            topo.append(node)
            for edge in out_edges[node]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(topo) != len(names):
            cyclic = sorted(n for n in names if indegree[n] > 0)
            raise ConfigError(f"pipeline graph has a cycle through {cyclic}")

        # Frozen dataclass: attach the derived indexes as plain attributes
        # (they are functions of the declared fields, so eq/repr need not
        # see them).
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self, "_in_edges", {n: tuple(es) for n, es in in_edges.items()}
        )
        object.__setattr__(
            self, "_out_edges", {n: tuple(es) for n, es in out_edges.items()}
        )
        object.__setattr__(self, "_topo_order", tuple(topo))
        position = {n: i for i, n in enumerate(topo)}
        object.__setattr__(
            self,
            "_predecessor_positions",
            tuple(
                tuple(position[e.src] for e in in_edges[n]) for n in topo
            ),
        )
        # Shape predicates are queried per job at batch-serving scale
        # (the executor's chain fast path asks for every batch member),
        # so derive them once with the other indexes.
        object.__setattr__(
            self,
            "_entry_stages",
            tuple(n for n in topo if not in_edges[n]),
        )
        object.__setattr__(
            self,
            "_is_chain",
            all(
                len(in_edges[n]) <= 1 and len(out_edges[n]) <= 1
                for n in topo
            ),
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def stage(self, name: str) -> Stage:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigError(f"no stage named {name!r}") from None

    def edges_between(self, src: str, dst: str) -> list[Edge]:
        self.stage(dst)  # validate both endpoints
        return [e for e in self._out_edges[self.stage(src).name] if e.dst == dst]

    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------
    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topo_order

    def in_edges(self, name: str) -> tuple[Edge, ...]:
        return self._in_edges[self.stage(name).name]

    def out_edges(self, name: str) -> tuple[Edge, ...]:
        return self._out_edges[self.stage(name).name]

    def predecessors(self, name: str) -> tuple[str, ...]:
        return tuple(e.src for e in self.in_edges(name))

    def successors(self, name: str) -> tuple[str, ...]:
        return tuple(e.dst for e in self.out_edges(name))

    @property
    def predecessor_positions(self) -> tuple[tuple[int, ...], ...]:
        """Per stage in :attr:`topological_order`, its predecessors'
        topological positions in in-edge order — the DAG replay's
        program shape, derived once per pipeline."""
        return self._predecessor_positions

    @property
    def entry_stages(self) -> tuple[str, ...]:
        return self._entry_stages

    @property
    def exit_stages(self) -> tuple[str, ...]:
        return tuple(n for n in self._topo_order if not self._out_edges[n])

    @property
    def is_chain(self) -> bool:
        """True when every stage has at most one predecessor and one
        successor — the shape the original linear executor assumed."""
        return self._is_chain

    @property
    def structural_hash(self) -> str:
        """Content hash of everything scheduling/execution can observe.

        Covers the problem dimensions, every stage's workload numbers and
        live-in/out sets, and the byte-weighted edge list — so two
        pipelines built for the same problem by the same builder hash
        equal, while any change to a workload coefficient, edge weight or
        graph shape changes the hash.  This is the content-addressed key
        the serving fast path memoizes schedules, SCA reports and solo
        makespans under (:mod:`repro.core.signature`).

        Floats are folded in via ``repr`` (exact round-trip), so the hash
        distinguishes values that differ in any bit.
        """
        try:
            return self._structural_hash
        except AttributeError:
            pass
        digest = hashlib.sha256()
        p = self.problem
        digest.update(
            repr(
                (
                    p.n_atoms,
                    p.grid_side,
                    p.n_valence,
                    p.n_conduction,
                    p.n_active_valence,
                    p.n_active_conduction,
                )
            ).encode()
        )
        for stage in self.stages:
            w = stage.workload
            digest.update(
                repr(
                    (
                        stage.name,
                        str(w.name),
                        w.flops,
                        w.bytes_read,
                        w.bytes_written,
                        w.comm_bytes,
                        w.working_set,
                        w.footprint,
                        w.access_pattern.value,
                        w.parallel_tasks,
                        stage.function.live_in_bytes,
                        stage.function.live_out_bytes,
                        # Per-segment contents, not just the count: the
                        # SCA's consistency verdict and time estimates
                        # depend on how flops/bytes distribute across
                        # segments, so two hand-built pipelines that
                        # differ only inside a segment must hash apart.
                        tuple(
                            (
                                segment.name,
                                segment.flops,
                                segment.bytes_read,
                                segment.bytes_written,
                                segment.access_pattern.value,
                                segment.instructions,
                            )
                            for segment in stage.function.segments
                        ),
                    )
                ).encode()
            )
        for edge in self.edges:
            digest.update(repr((edge.src, edge.dst, edge.nbytes)).encode())
        value = digest.hexdigest()
        object.__setattr__(self, "_structural_hash", value)
        return value

    def residual(self, completed) -> "Pipeline":
        """The suffix subgraph left after checkpointing ``completed``.

        ``completed`` is a collection of stage names whose work already
        finished (a checkpoint frontier recorded at failure time).  The
        residual pipeline keeps every other stage and only the edges
        between kept stages: an edge crossing the frontier carries data
        the checkpoint already materialized next to its consumer, so the
        resumed job pays neither its transfer cost nor its Eq. 1
        overhead term.  Kept stages retain their declaration order, so
        the residual of a residual is well-defined and deterministic.

        The frontier recorded by the executor is downward-closed by
        construction (a stage only completes after all predecessors
        did), which makes the residual a genuine suffix of the DAG.
        Completing every stage leaves nothing to resume and is rejected
        — a failed job always has at least the failing stage left.
        """
        frontier = set(completed)
        unknown = sorted(frontier - set(self._by_name))
        if unknown:
            raise ConfigError(
                f"checkpoint frontier names unknown stages {unknown}"
            )
        kept = tuple(s for s in self.stages if s.name not in frontier)
        if not frontier:
            return self
        if not kept:
            raise ConfigError(
                "checkpoint frontier covers every stage; nothing to resume"
            )
        kept_names = {s.name for s in kept}
        kept_edges = tuple(
            e
            for e in self.edges
            if e.src in kept_names and e.dst in kept_names
        )
        return Pipeline(problem=self.problem, stages=kept, edges=kept_edges)

    def critical_path_length(self, node_weight) -> float:
        """Longest path through the DAG, nodes weighted by
        ``node_weight(stage_name) -> float`` (edges free).  The lower
        bound any schedule's makespan must respect."""
        longest: dict[str, float] = {}
        for name in self._topo_order:
            upstream = max(
                (longest[e.src] for e in self._in_edges[name]), default=0.0
            )
            longest[name] = upstream + node_weight(name)
        return max(longest.values(), default=0.0)


#: Canonical stage order of the LR-TDDFT pipeline.
STAGE_ORDER = (
    PhaseName.PSEUDOPOTENTIAL,
    PhaseName.FACE_SPLIT,
    PhaseName.FFT,
    PhaseName.GLOBAL_COMM,
    PhaseName.GEMM,
    PhaseName.SYEVD,
)


def _live_bytes(problem: ProblemSize) -> dict[str, float]:
    """The byte volumes live between the Fig. 1 phases."""
    orbital_bytes = (
        (problem.n_active_valence + problem.n_active_conduction)
        * problem.n_grid
        * 16.0
    )
    pair_bytes = float(problem.n_pairs) * problem.n_grid * 16.0
    # Between the transposes and the coupling GEMM the live data is the
    # pair matrix restricted to the wavefunction G-sphere.
    sphere_bytes = float(problem.n_pairs) * problem.n_pw * 16.0
    coupling_bytes = float(problem.n_pairs) ** 2 * 16.0
    return {
        "orbital": orbital_bytes,
        "pair": pair_bytes,
        "sphere": sphere_bytes,
        "coupling": coupling_bytes,
    }


def build_pipeline(problem: ProblemSize) -> Pipeline:
    """Assemble the Fig. 1 pipeline for one Si_N problem."""
    workloads = stage_workloads(problem)
    live = _live_bytes(problem)
    orbital_bytes = live["orbital"]
    pair_bytes = live["pair"]
    sphere_bytes = live["sphere"]
    coupling_bytes = live["coupling"]

    live_sets = {
        PhaseName.PSEUDOPOTENTIAL: (orbital_bytes, orbital_bytes),
        PhaseName.FACE_SPLIT: (orbital_bytes, pair_bytes),
        PhaseName.FFT: (pair_bytes, pair_bytes),
        PhaseName.GLOBAL_COMM: (pair_bytes, sphere_bytes),
        PhaseName.GEMM: (sphere_bytes, coupling_bytes),
        PhaseName.SYEVD: (coupling_bytes, coupling_bytes),
    }

    stages = tuple(
        Stage(
            name=str(phase),
            workload=workloads[phase],
            function=function_from_workload(
                workloads[phase],
                live_in_bytes=live_sets[phase][0],
                live_out_bytes=live_sets[phase][1],
            ),
        )
        for phase in STAGE_ORDER
    )

    edge_bytes = {
        (PhaseName.PSEUDOPOTENTIAL, PhaseName.FACE_SPLIT): orbital_bytes,
        (PhaseName.FACE_SPLIT, PhaseName.FFT): pair_bytes,
        (PhaseName.FFT, PhaseName.GLOBAL_COMM): pair_bytes,
        # After the transposes only the reduced response sphere feeds the
        # coupling-matrix GEMM.
        (PhaseName.GLOBAL_COMM, PhaseName.GEMM): sphere_bytes,
        (PhaseName.GEMM, PhaseName.SYEVD): coupling_bytes,
    }
    edges = tuple(
        Edge(src=str(src), dst=str(dst), nbytes=nbytes)
        for (src, dst), nbytes in edge_bytes.items()
    )
    return Pipeline(problem=problem, stages=stages, edges=edges)


def build_kpoint_pipeline(problem: ProblemSize, n_kpoints: int = 2) -> Pipeline:
    """A branching LR-TDDFT pipeline: the face-split/FFT middle section is
    split across ``n_kpoints`` independent k-point batches.

    Shape (for ``n_kpoints=2``)::

        pseudopotential -+-> face_split[k0] -> fft[k0] -+-> global_comm -> gemm -> syevd
                         +-> face_split[k1] -> fft[k1] -+

    Each branch carries ``1/n_kpoints`` of the chain's face-split and FFT
    workload (the pair batches are independent between the transforms), so
    the total work is conserved while a DAG scheduler is free to overlap
    the branches on distinct devices.  The fan-in at ``global_comm``
    models the alltoall that gathers every batch's transformed pairs.
    """
    if n_kpoints < 1:
        raise ConfigError(f"n_kpoints must be >= 1, got {n_kpoints}")
    workloads = stage_workloads(problem)
    live = _live_bytes(problem)
    orbital_bytes = live["orbital"]
    pair_bytes = live["pair"]
    sphere_bytes = live["sphere"]
    coupling_bytes = live["coupling"]
    share = 1.0 / n_kpoints

    def whole_stage(phase: PhaseName, live_in: float, live_out: float) -> Stage:
        return Stage(
            name=str(phase),
            workload=workloads[phase],
            function=function_from_workload(
                workloads[phase], live_in_bytes=live_in, live_out_bytes=live_out
            ),
        )

    def branch_stage(phase: PhaseName, k: int, live_in: float, live_out: float) -> Stage:
        scaled = workloads[phase].scaled(share)
        return Stage(
            name=f"{phase}[k{k}]",
            workload=scaled,
            function=function_from_workload(
                scaled, live_in_bytes=live_in, live_out_bytes=live_out
            ),
        )

    stages = [
        whole_stage(PhaseName.PSEUDOPOTENTIAL, orbital_bytes, orbital_bytes)
    ]
    edges: list[Edge] = []
    for k in range(n_kpoints):
        face = branch_stage(
            PhaseName.FACE_SPLIT, k, orbital_bytes * share, pair_bytes * share
        )
        fft = branch_stage(
            PhaseName.FFT, k, pair_bytes * share, pair_bytes * share
        )
        stages.extend([face, fft])
        edges.append(
            Edge(
                src=str(PhaseName.PSEUDOPOTENTIAL),
                dst=face.name,
                nbytes=orbital_bytes * share,
            )
        )
        edges.append(Edge(src=face.name, dst=fft.name, nbytes=pair_bytes * share))
        edges.append(
            Edge(
                src=fft.name,
                dst=str(PhaseName.GLOBAL_COMM),
                nbytes=pair_bytes * share,
            )
        )
    stages.append(whole_stage(PhaseName.GLOBAL_COMM, pair_bytes, sphere_bytes))
    stages.append(whole_stage(PhaseName.GEMM, sphere_bytes, coupling_bytes))
    stages.append(whole_stage(PhaseName.SYEVD, coupling_bytes, coupling_bytes))
    edges.append(
        Edge(
            src=str(PhaseName.GLOBAL_COMM),
            dst=str(PhaseName.GEMM),
            nbytes=sphere_bytes,
        )
    )
    edges.append(
        Edge(
            src=str(PhaseName.GEMM),
            dst=str(PhaseName.SYEVD),
            nbytes=coupling_bytes,
        )
    )
    return Pipeline(problem=problem, stages=tuple(stages), edges=tuple(edges))

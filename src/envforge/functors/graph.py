"""Compile functor specs into a deduplicated DAG with a topological schedule.

Node identity is a structural hash over (functor name, resolved config with
references kept as store keys, children hashes), so two episodes share the
graph while the sampled values change.  Identical specs collapse to one node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..epp import SampledParameters
from ..parts import Platform
from .base import (
    Extractor,
    Functor,
    FunctorError,
    FunctorNode,
    FunctorSpec,
    UnknownExtractorTarget,
)


class CycleDetected(FunctorError):
    def __init__(self, names: list[str]):
        super().__init__(f"functor specs form a cycle: {' -> '.join(names)}")


class UnknownFunctor(FunctorError):
    def __init__(self, name: str):
        self.functor = name
        super().__init__(f"no functor registered under '{name}'")


FUNCTOR_REGISTRY: dict[str, type[Functor]] = {}


def register_functor(name: str, cls: type[Functor]) -> None:
    if name in FUNCTOR_REGISTRY:
        raise ValueError(f"functor '{name}' already registered")
    FUNCTOR_REGISTRY[name] = cls


def get_functor_class(name: str) -> type[Functor]:
    cls = FUNCTOR_REGISTRY.get(name)
    if cls is None:
        raise UnknownFunctor(name)
    return cls


def _canonical(value):
    """JSON-stable form of a config value for structural hashing."""
    if isinstance(value, dict):
        return {k: _canonical(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def canonical_hash(
    functor: str,
    config: dict,
    references: dict[str, str],
    children: dict[str, str],
    extractor_id: tuple[str, str | None] | None,
) -> str:
    payload = json.dumps(
        {
            "functor": functor,
            "config": _canonical(config),
            "references": _canonical(references),
            "children": {k: children[k] for k in sorted(children)},
            "extractor": list(extractor_id) if extractor_id else None,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CompiledGraph:
    """Deduplicated functor DAG plus per-kind evaluation schedules."""

    nodes: dict[str, FunctorNode] = field(default_factory=dict)
    by_name: dict[str, FunctorNode] = field(default_factory=dict)
    topo_order: list[str] = field(default_factory=list)
    # top-level nodes per role, in spec order (deduplicated)
    glues: list[FunctorNode] = field(default_factory=list)
    dones: list[FunctorNode] = field(default_factory=list)
    rewards: list[FunctorNode] = field(default_factory=list)
    shared_dones: list[FunctorNode] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def reset(self, sample: SampledParameters) -> None:
        """Start an episode: bind every functor to ``sample``, then clear its state."""
        for node in self.nodes.values():
            node.functor.bind(sample)
            node.functor.reset()

    def order_index(self, node_id: str) -> int:
        return self.topo_order.index(node_id)


class GraphBuilder:
    def __init__(self, platforms: dict[str, Platform]):
        self.platforms = platforms
        self.graph = CompiledGraph()
        self._named_specs: dict[str, FunctorSpec] = {}
        self._building: list[str] = []

    def build(
        self,
        glues: list[FunctorSpec],
        dones: list[FunctorSpec] | None = None,
        rewards: list[FunctorSpec] | None = None,
        shared_dones: list[FunctorSpec] | None = None,
    ) -> CompiledGraph:
        all_specs = [
            ("glues", glues),
            ("dones", dones or []),
            ("rewards", rewards or []),
            ("shared_dones", shared_dones or []),
        ]
        for _, specs in all_specs:
            for spec in specs:
                name = spec.display_name
                if name not in self._named_specs:
                    self._named_specs[name] = spec
        for role, specs in all_specs:
            target: list[FunctorNode] = getattr(self.graph, role)
            for spec in specs:
                node = self._compile(spec)
                if node not in target:
                    target.append(node)
        return self.graph

    def _compile(self, spec: FunctorSpec) -> FunctorNode:
        name = spec.display_name
        if name in self._building:
            raise CycleDetected(self._building + [name])
        self._building.append(name)
        try:
            cls = get_functor_class(spec.functor)

            children: dict[str, FunctorNode] = {}
            for key, child_spec in _wrapped_items(spec.wrapped):
                children[key] = self._resolve_child(child_spec)

            extractor_node = None
            if spec.extractor is not None:
                if spec.extractor.glue not in self._named_specs:
                    raise UnknownExtractorTarget(spec.extractor.glue)
                extractor_node = self._compile(self._named_specs[spec.extractor.glue])

            node_id = canonical_hash(
                spec.functor,
                spec.config,
                spec.references,
                {k: n.id for k, n in children.items()},
                (extractor_node.id, spec.extractor.key) if extractor_node else None,
            )
            if node_id in self.graph.nodes:
                return self.graph.nodes[node_id]

            extractor = None
            if extractor_node is not None:
                try:
                    extractor = Extractor(extractor_node, spec.extractor.key)
                except FunctorError as exc:
                    raise FunctorError(f"{name} ({spec.functor}): extractor: {exc}") from exc
            functor = cls(spec, children, extractor, self.platforms)
            child_ids = tuple(n.id for n in children.values())
            if extractor_node is not None:
                child_ids = child_ids + (extractor_node.id,)
            node = FunctorNode(node_id, cls.kind, name, functor, child_ids)
            if node.kind == "glue":
                try:
                    node.observation_space = functor.observation_space()
                    node.action_space = functor.action_space()
                except ValueError as exc:
                    raise FunctorError(f"{name} ({spec.functor}): {exc}") from exc
            self.graph.nodes[node_id] = node
            self.graph.by_name.setdefault(name, node)
            self.graph.topo_order.append(node_id)  # children compiled first
            return node
        finally:
            self._building.pop()

    def _resolve_child(self, child: FunctorSpec | str) -> FunctorNode:
        if isinstance(child, str):
            if child not in self._named_specs:
                raise UnknownExtractorTarget(child)
            return self._compile(self._named_specs[child])
        return self._compile(child)


def _wrapped_items(wrapped) -> list[tuple[str, FunctorSpec | str]]:
    if wrapped is None:
        return []
    if isinstance(wrapped, (FunctorSpec, str)):
        return [("wrapped", wrapped)]
    if isinstance(wrapped, list):
        return [(str(i), w) for i, w in enumerate(wrapped)]
    if isinstance(wrapped, dict):
        return list(wrapped.items())
    raise FunctorError(f"invalid wrapped specification: {wrapped!r}")


def build_graph(
    platforms: dict[str, Platform],
    glues: list[FunctorSpec],
    dones: list[FunctorSpec] | None = None,
    rewards: list[FunctorSpec] | None = None,
    shared_dones: list[FunctorSpec] | None = None,
) -> CompiledGraph:
    return GraphBuilder(platforms).build(glues, dones, rewards, shared_dones)

"""Compile functor specs into a deduplicated DAG.

A node is a named functor: its identity is a hash over its display name and
its structure (functor name, config with references kept as store keys,
children's identities), so two episodes share the graph while the sampled
values change.  Repeats of one spec, and identical subtrees of one display
name, collapse to one node.  ``GraphBuilder`` owns each namespace of names.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..epp import SampledParameters
from ..params import BuildErrors, wrapped_path
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
    """Functor specs read each other, through name references, in a cycle."""


class UnknownFunctor(FunctorError):
    """A spec names a functor that is not registered."""


FUNCTOR_REGISTRY: dict[str, type[Functor]] = {}


def register_functor(name: str, cls: type[Functor]) -> None:
    if name in FUNCTOR_REGISTRY:
        raise ValueError(f"functor '{name}' already registered")
    FUNCTOR_REGISTRY[name] = cls


def get_functor_class(name: str) -> type[Functor]:
    cls = FUNCTOR_REGISTRY.get(name)
    if cls is None:
        message = f"no functor registered under '{name}'"
        raise UnknownFunctor(message, [("functor", "UnknownFunctor", message)])
    return cls


def canonical(value):
    """JSON-stable form of a config value for structural hashing (keys as strings)."""
    if isinstance(value, dict):
        return {str(k): canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def canonical_hash(
    name: str,
    functor: str,
    config: dict,
    references: dict[str, str],
    children: dict[str, str],
    extractor_id: tuple[str, str | None] | None,
) -> str:
    payload = json.dumps(
        {
            "name": name,
            "functor": functor,
            "config": canonical(config),
            "references": canonical(references),
            "children": {k: children[k] for k in sorted(children)},
            "extractor": list(extractor_id) if extractor_id else None,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CompiledGraph:
    """Deduplicated functor DAG plus its top-level nodes per role.

    A node's role is the list its spec was given in, not its class: the
    environment's shared graph holds its shared dones as ``dones``.  Each
    node follows its children in ``nodes``.
    """

    nodes: dict[str, FunctorNode] = field(default_factory=dict)
    # top-level nodes per role, in spec order (deduplicated)
    glues: list[FunctorNode] = field(default_factory=list)
    dones: list[FunctorNode] = field(default_factory=list)
    rewards: list[FunctorNode] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def reset(self, sample: SampledParameters) -> None:
        """Start an episode: bind every functor to ``sample``, then clear its state."""
        for node in self.nodes.values():
            node.functor.bind(sample)
            node.functor.reset()


class GraphBuilder:
    """Compiles the glue, done and reward specs of one agent, or of the
    environment's shared dones, into one graph.  A spec that fails is reported
    at its ``path`` and every spec that reads it is skipped; ``build`` then
    raises the first error, listing every one (see ``params.BuildErrors``).

    The specs of one ``build`` share one namespace: ``step`` keys dones and
    reward components by name, so a spec whose name a different spec took is
    a ``DuplicateName`` at its path (one with none, the environment's own
    ``EpisodeHorizon``, at the taker's)."""

    def __init__(self, platforms: dict[str, Platform]):
        self.platforms = platforms
        self.graph = CompiledGraph()
        self.errors = BuildErrors()
        self._named_specs: dict[str, FunctorSpec] = {}
        self._building: list[FunctorSpec] = []
        # id() of each spec that failed, or that reads one that did
        self._failed: set[int] = set()

    def build(
        self,
        glues: list[FunctorSpec],
        dones: list[FunctorSpec] | None = None,
        rewards: list[FunctorSpec] | None = None,
    ) -> CompiledGraph:
        all_specs = [("glues", glues), ("dones", dones or []), ("rewards", rewards or [])]
        for _, specs in all_specs:
            for spec in specs:
                taken = self._named_specs.setdefault(spec.display_name, spec)
                if taken != spec:
                    error = ("", "DuplicateName", f"another functor is already named '{spec.display_name}'")
                    self.errors.add(FunctorError.listing(spec.label, [error]), spec.path or taken.path)
        for role, specs in all_specs:
            target: list[FunctorNode] = getattr(self.graph, role)
            for spec in specs:
                node = self._compile(spec)
                if node is not None and node not in target:
                    target.append(node)
        self.errors.check()
        return self.graph

    def _compile(self, spec: FunctorSpec) -> FunctorNode | None:
        """The node of ``spec``, or None if it failed or reads a spec that did."""
        if id(spec) in self._failed:
            return None
        self._building.append(spec)
        node = self.errors.attempt(self._node, spec, path=spec.path)
        self._building.pop()
        if node is None:
            self._failed.add(id(spec))
        return node

    def _node(self, spec: FunctorSpec) -> FunctorNode | None:
        cls = get_functor_class(spec.functor)
        children = {
            key: self._resolve(child, spec, wrapped_path(key)) for key, child in _wrapped_items(spec.wrapped)
        }
        extractor_node = None
        if spec.extractor is not None:
            extractor_node = self._resolve(spec.extractor.glue, spec, "extractor/glue")
            if extractor_node is None:
                return None
        if None in children.values():
            return None

        node_id = canonical_hash(
            spec.display_name,
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
                errors = [("extractor", code, message) for _, code, message in exc.errors]
                raise FunctorError.listing(spec.label, errors) from exc
        functor = cls(spec, children, extractor, self.platforms)
        child_ids = tuple(n.id for n in children.values())
        if extractor_node is not None:
            child_ids = child_ids + (extractor_node.id,)
        node = FunctorNode(node_id, cls.kind, spec.display_name, functor, child_ids)
        if node.kind == "glue":
            try:
                node.observation_space = functor.observation_space()
                node.action_space = functor.action_space()
            except ValueError as exc:
                raise FunctorError.listing(spec.label, [("", "TypeMismatch", str(exc))]) from exc
        self.graph.nodes[node_id] = node  # after its children, compiled above
        return node

    def _resolve(self, child: FunctorSpec | str, parent: FunctorSpec, path: str) -> FunctorNode | None:
        """The node of ``child``, a spec or the name of a top-level one, that
        ``parent`` reads at ``path``."""
        if isinstance(child, FunctorSpec):
            return self._compile(child)
        target = self._named_specs.get(child)
        if target is None:
            error = (path, "UnknownReference", f"no functor named '{child}'")
            raise UnknownExtractorTarget.listing(parent.label, [error])
        if any(spec is target for spec in self._building):
            names = " -> ".join([spec.display_name for spec in self._building] + [child])
            error = (path, "ReferenceCycle", f"functor specs form a cycle: {names}")
            raise CycleDetected.listing(parent.label, [error])
        return self._compile(target)


def _wrapped_items(wrapped) -> list[tuple[str, FunctorSpec | str]]:
    if wrapped is None:
        return []
    if isinstance(wrapped, (FunctorSpec, str)):
        return [("wrapped", wrapped)]
    if isinstance(wrapped, list):
        return [(str(i), w) for i, w in enumerate(wrapped)]
    if isinstance(wrapped, dict):
        return list(wrapped.items())
    message = f"invalid wrapped specification: {wrapped!r}"
    raise FunctorError(message, [("wrapped", "TypeMismatch", message)])


def build_graph(
    platforms: dict[str, Platform],
    glues: list[FunctorSpec],
    dones: list[FunctorSpec] | None = None,
    rewards: list[FunctorSpec] | None = None,
) -> CompiledGraph:
    return GraphBuilder(platforms).build(glues, dones, rewards)

"""Sweep plans: declarative expansion of one base spec into many.

A :class:`SweepSpec` takes a base scenario (or spec) plus a set of *axes*
and expands them into a list of :class:`SweepTask`s — one fully-resolved,
picklable :class:`~repro.session.ScenarioSpec` per experiment.  Three
expansion modes cover the paper-reproduction workloads:

* ``grid`` (default) — the cartesian product of all axes, in axis
  declaration order (first axis varies slowest);
* ``zip`` — axes advance in lockstep (all must have equal length);
* seed replication — :meth:`SweepSpec.replicate` adds a ``seed`` axis, the
  common "same experiment, N seeds" pattern.

Axis paths address the spec declaratively.  Apart from three named roots,
a path is a chain of dataclass field names starting at
:class:`~repro.session.ScenarioSpec`::

    seed                      a plain ScenarioSpec field (likewise name,
                              stacks, seed_ecmp, compile_traces, hosts, ...)
    collector.<field>         a field of a sub-spec: CollectorSpec (shards,
                              epoch_s, ...), FaultSpec (faults.loss_rate),
                              RemediationSpec (remediation.policy) or
                              RecorderSpec (recorder.capacity)
    collector.tree.<field>    a field of a nested sub-spec (TreeSpec,
                              likewise collector.shed.<field> for ShedSpec)
    topology.<kwarg>          a topology-builder keyword
    workload.<name>.<kwarg>   a keyword of the named workload declaration
    tpp.<name>.<field>        a field of the named TPP declaration
                              (sample_frequency, num_hops, priority, ...)

A sub-spec the base does not declare is built from its defaults.  Every
level is rewritten with :func:`dataclasses.replace`, so a sub-spec's own
``__post_init__`` validates (and normalises) the value: a bad axis value
fails at :meth:`SweepSpec.axis`, not inside a worker.

Expansion is pure and deterministic: the same plan always yields the same
tasks in the same order with the same labels and fingerprints, which is
what lets the runner's manifest recognise completed work across runs.
"""

from __future__ import annotations

import copy
import functools
import itertools
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Iterable, Optional, Sequence, Union

from repro.session import Scenario, ScenarioSpec
from repro.session.spec import SpecError, ensure_picklable

__all__ = ["Axis", "SweepSpec", "SweepTask"]

#: Roots that name one entry of a declared collection (or, for topology,
#: one builder keyword) rather than a ScenarioSpec field.
_NAMED_ROOTS = ("topology", "workload", "tpp")

#: Every other root is a ScenarioSpec field.
_FIELD_ROOTS = frozenset(spec_field.name for spec_field in fields(ScenarioSpec))


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a dotted path and the values it takes."""

    path: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.path!r} needs at least one value")


@dataclass
class SweepTask:
    """One fully-resolved experiment: label + overrides + picklable spec."""

    index: int
    label: str
    overrides: dict[str, Any]
    spec: ScenarioSpec
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = self.spec.fingerprint()


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@functools.lru_cache(maxsize=None)
def _subspec_class(owner: type, name: str) -> Optional[type]:
    """The dataclass field ``owner.name`` declares (``Optional[X]`` -> X)."""
    hint = typing.get_type_hints(owner)[name]
    for candidate in (hint, *typing.get_args(hint)):
        if isinstance(candidate, type) and is_dataclass(candidate):
            return candidate
    return None


def _replaced(path: str, root: str, sub: Any, parts: list[str], value: Any) -> Any:
    """A copy of the dataclass ``sub`` (addressed as ``root``) with the
    field ``parts`` names set to ``value``.

    Each level is rewritten with :func:`dataclasses.replace`, so every
    sub-spec's ``__post_init__`` validation runs again and sibling tasks
    sharing the base spec never alias state.  A ``None`` sub-spec on the
    way down is built from its defaults.
    """
    name, rest = parts[0], parts[1:]
    if name not in {spec_field.name for spec_field in fields(sub)}:
        raise SpecError(f"axis path {path!r}: {type(sub).__name__} has no "
                        f"field {name!r}")
    if rest:
        current = getattr(sub, name)
        if current is None:
            cls = _subspec_class(type(sub), name)
            current = cls() if cls is not None else None
        if not is_dataclass(current):
            raise SpecError(f"axis path {path!r} must be {root}.<field> or "
                            f"{root}.<sub-spec>.<field>; "
                            f"{type(sub).__name__}.{name} is not a sub-spec")
        value = _replaced(path, root, current, rest, value)
    return replace(sub, **{name: value})


def _index_of(entries: list, name: str, path: str, kind: str) -> int:
    for index, entry in enumerate(entries):
        if entry.name == name:
            return index
    raise SpecError(f"axis path {path!r}: no declared {kind} {name!r} "
                    f"(have {[entry.name for entry in entries]})")


def _apply_override(spec: ScenarioSpec, path: str, value: Any) -> None:
    """Set one axis value on a (deep-copied) spec, validating the path.

    A path names a ScenarioSpec field and, through sub-spec fields, a
    field of a sub-spec (``collector.tree.fanin``).  Only the three named
    roots below address something else.
    """
    head, _, rest = path.partition(".")
    if head == "topology":
        if not rest:
            raise SpecError(f"axis path {path!r} needs a topology kwarg name")
        spec.topology_kwargs[rest] = value
        return
    if head == "workload":
        wname, _, kwarg = rest.partition(".")
        if not wname or not kwarg:
            raise SpecError(f"axis path {path!r} must be workload.<name>.<kwarg>")
        index = _index_of(spec.workloads, wname, path, "workload")
        spec.workloads[index].kwargs[kwarg] = value
        return
    if head == "tpp":
        tname, _, attr = rest.partition(".")
        if not tname or not attr:
            raise SpecError(f"axis path {path!r} must be tpp.<name>.<field>")
        index = _index_of(spec.tpps, tname, path, "TPP")
        spec.tpps[index] = _replaced(path, f"tpp.{tname}", spec.tpps[index],
                                     attr.split("."), value)
        return
    if head not in _FIELD_ROOTS:
        raise SpecError(f"axis path {path!r}: unknown root {head!r}; expected "
                        f"one of {sorted(_FIELD_ROOTS | set(_NAMED_ROOTS))}")
    sub_cls = _subspec_class(ScenarioSpec, head)
    if sub_cls is None:
        if rest:
            raise SpecError(f"axis path {path!r}: {head!r} takes no sub-path")
        setattr(spec, head, value)
        return
    if not rest:
        raise SpecError(f"axis path {path!r} must be {head}.<field>")
    current = getattr(spec, head)
    setattr(spec, head, _replaced(path, head, current if current is not None
                                  else sub_cls(), rest.split("."), value))


class SweepSpec:
    """A base spec plus swept axes; :meth:`expand` yields the task list.

    Args:
        base: a :class:`Scenario` (converted via ``to_spec()``, so it must
            be spec-serializable) or an already-extracted
            :class:`ScenarioSpec`.
        mode: ``"grid"`` (cartesian product, default) or ``"zip"``
            (lockstep axes of equal length).
    """

    def __init__(self, base: Union[Scenario, ScenarioSpec], *,
                 mode: str = "grid") -> None:
        if mode not in ("grid", "zip"):
            raise ValueError(f"unknown sweep mode {mode!r}; use 'grid' or 'zip'")
        if isinstance(base, Scenario):
            base = base.to_spec()
        elif isinstance(base, ScenarioSpec):
            base = copy.deepcopy(base).validate()
        else:
            raise TypeError("base must be a Scenario or a ScenarioSpec")
        self.base = base
        self.mode = mode
        self.axes: list[Axis] = []

    # ---------------------------------------------------------------- fluency
    def axis(self, path: str, values: Iterable[Any]) -> "SweepSpec":
        """Add one swept dimension (see the module docstring for paths)."""
        values = tuple(values)
        if any(axis.path == path for axis in self.axes):
            raise ValueError(f"axis {path!r} is already declared")
        ensure_picklable(list(values), f"axis {path!r} values")
        # Validate the path (and each value's applicability) eagerly, on a
        # throwaway copy, so typos fail at declaration — not inside a worker.
        probe = copy.deepcopy(self.base)
        for value in values:
            _apply_override(probe, path, value)
        self.axes.append(Axis(path, values))
        return self

    def replicate(self, seeds: Union[int, Sequence[int]],
                  base_seed: Optional[int] = None) -> "SweepSpec":
        """Seed replication: run every point under each of these seeds.

        ``seeds`` is either an explicit sequence or a count ``n``, which
        expands to ``base_seed, base_seed+1, ..., base_seed+n-1``
        (``base_seed`` defaults to the base spec's seed).
        """
        if isinstance(seeds, int):
            if seeds < 1:
                raise ValueError("replicate(n) needs n >= 1")
            start = self.base.seed if base_seed is None else base_seed
            seeds = range(start, start + seeds)
        return self.axis("seed", seeds)

    # -------------------------------------------------------------- expansion
    def _combinations(self) -> Iterable[tuple[Any, ...]]:
        if not self.axes:
            return [()]
        if self.mode == "grid":
            return itertools.product(*(axis.values for axis in self.axes))
        lengths = {len(axis.values) for axis in self.axes}
        if len(lengths) != 1:
            raise ValueError(
                f"zip mode needs equal-length axes; got "
                f"{ {axis.path: len(axis.values) for axis in self.axes} }")
        return zip(*(axis.values for axis in self.axes))

    def expand(self) -> list[SweepTask]:
        """The deterministic task list: one resolved spec per combination."""
        tasks: list[SweepTask] = []
        for combo in self._combinations():
            overrides = {axis.path: value
                         for axis, value in zip(self.axes, combo)}
            spec = copy.deepcopy(self.base)
            for path, value in overrides.items():
                _apply_override(spec, path, value)
            label = ",".join(f"{path}={_format_value(value)}"
                             for path, value in overrides.items()) or "base"
            tasks.append(SweepTask(index=len(tasks), label=label,
                                   overrides=overrides, spec=spec))
        fingerprints: dict[str, str] = {}
        for task in tasks:
            if task.fingerprint in fingerprints:
                raise ValueError(
                    f"sweep points {fingerprints[task.fingerprint]!r} and "
                    f"{task.label!r} resolve to identical specs; "
                    f"de-duplicate the axes")
            fingerprints[task.fingerprint] = task.label
        return tasks

    def __len__(self) -> int:
        if not self.axes:
            return 1
        if self.mode == "grid":
            total = 1
            for axis in self.axes:
                total *= len(axis.values)
            return total
        return len(self.axes[0].values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        axes = {axis.path: len(axis.values) for axis in self.axes}
        return (f"<SweepSpec base={self.base.name!r} mode={self.mode!r} "
                f"axes={axes} points={len(self)}>")

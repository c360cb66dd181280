"""Span recorder for the traced benchmark run.

The program itself has no tracing hooks, so the traced run wraps the
functions each layer exposes, from outside: the public functions of
``crypto``, ``protocol``, ``gametheory`` and ``cli`` (in their home module
and in every module that imported them by value), the public methods of the
three contract classes, ``Ledger.transfer``/``advance_time``, and each group
backend's ``mul``/``add``/``decode``.  ``Ledger.record`` is only counted.

Spans are kept in memory as columns (name, start, end, parent, op id) and
written out once the run ends.  The program is single-threaded, so spans
nest strictly; no layer queues or waits, which is why spans carry busy time
only.
"""

from __future__ import annotations

import collections
import contextlib
import gzip
import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from countercollusion import cli, contracts, crypto, gametheory, ledger, protocol

MODULES = (crypto, ledger, contracts, protocol, gametheory, cli)

#: Public functions wrapped as spans, by layer.  ``gametheory``'s inner
#: helpers (``node_value``, ``play``, ...) are left out: they run thousands
#: of times per analysis and their wrappers would swamp the measurement.
SPAN_FUNCTIONS = {
    crypto: [name for name in crypto.__all__ if inspect.isfunction(getattr(crypto, name))],
    protocol: ["run_scenario", "ttp_resolve"],
    gametheory: ["build_game", "check_sequential_rationality", "check_consistency",
                 "analyze_reference", "payoff_crosscheck"],
}

CONTRACT_CLASSES = {
    "contracts.prisoners": contracts.PrisonersContract,
    "contracts.colluders": contracts.ColludersContract,
    "contracts.traitors": contracts.TraitorsContract,
}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.  ``name`` is the span name, or the counter name
    when ``count_only``; ``label(args, result)`` attaches a label (e.g. the
    game family) to each span."""

    owner: object
    attr: str
    name: str
    label: Optional[Callable] = None
    count_only: bool = False


class Recorder:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.labels: dict[int, object] = {}
        self.counters: collections.Counter = collections.Counter()
        self.op_id = -1
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int = -1, op: int = 0) -> int:
        """Append a finished span (used by tests to build synthetic traces)."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.name) - 1

    def wrap(self, fn: Callable, target: Target) -> Callable:
        if target.count_only:
            counters, key = self.counters, target.name

            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self.name_id(target.name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, labels, label, clock = self.stack, self.labels, target.label, time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if label is not None:
                labels[idx] = label(args, result)
            return result

        return spanned

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\tlabel\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op[i]}\t{self.labels.get(i, '')}\n")


def _neq_proofs(args, _result) -> int:
    return sum(isinstance(a, crypto.NeqProof) for a in args)


_LABELS = {
    "protocol.run_scenario": lambda args, result: result.game_family,
    "gametheory.analyze_reference": lambda args, result: args[0],
    "contracts.prisoners.dispute": _neq_proofs,
}


def default_targets() -> list[Target]:
    """Every wrap point of the traced run."""
    targets = []
    for home, names in SPAN_FUNCTIONS.items():
        for name in names:
            span = f"{home.__name__.rsplit('.', 1)[1]}.{name}"
            fn = getattr(home, name)
            # wrap the name wherever it was imported by value, too
            for module in MODULES:
                if vars(module).get(name) is fn:
                    targets.append(Target(module, name, span, _LABELS.get(span)))
    targets.append(Target(cli, "main", "cli"))
    for prefix, cls in CONTRACT_CLASSES.items():
        for attr, raw in vars(cls).items():
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not attr.startswith("_") and inspect.isfunction(fn):
                span = f"{prefix}.{attr}"
                targets.append(Target(cls, attr, span, _LABELS.get(span)))
    targets.append(Target(ledger.Ledger, "transfer", "ledger.transfer"))
    targets.append(Target(ledger.Ledger, "advance_time", "ledger.advance_time"))
    targets.append(Target(ledger.Ledger, "record", "ledger.log_entries", count_only=True))
    for group in ("toy", "secp256k1"):
        backend = type(crypto.setup(group).backend)
        targets.append(Target(backend, "mul", "crypto.group_mul"))
        targets.append(Target(backend, "add", "crypto.group_add"))
        targets.append(Target(backend, "decode", "crypto.decode"))
    return targets


@contextlib.contextmanager
def tracing(recorder: Recorder, targets: list[Target]):
    """Install a wrapper on every target; restore each original on exit."""
    installed = []
    try:
        for target in targets:
            raw = vars(target.owner)[target.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(raw.__func__, target))
            else:
                wrapped = recorder.wrap(raw, target)
            setattr(target.owner, target.attr, wrapped)
            installed.append((target, raw))
        yield recorder
    finally:
        for target, raw in reversed(installed):
            setattr(target.owner, target.attr, raw)


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(recorder: Recorder) -> tuple[dict[str, SpanStats], dict[tuple[str, object], SpanStats]]:
    """Aggregate spans by name and by (name, label).

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so children never overlap.
    """
    n = len(recorder.name)
    child = [0.0] * n
    for i in range(n):
        p = recorder.parent[i]
        if p >= 0:
            child[p] += recorder.end[i] - recorder.start[i]
    by_name: dict[str, SpanStats] = {}
    by_label: dict[tuple[str, object], SpanStats] = {}
    for i in range(n):
        dur = recorder.end[i] - recorder.start[i]
        name = recorder.names[recorder.name[i]]
        keys = [(by_name, name)]
        if i in recorder.labels:
            keys.append((by_label, (name, recorder.labels[i])))
        for table, key in keys:
            stats = table.setdefault(key, SpanStats())
            stats.count += 1
            stats.total_s += dur
            stats.self_s += dur - child[i]
    return by_name, by_label

"""Edge-insertion timelines and their on-disk formats.

An instance is a directed graph on ``n`` vertices revealed edge by edge.
Positions are 1-based: "time t" means the graph holding the first ``t``
edges of the timeline.

File formats (whitespace separated decimals):

* instance file:   header ``n m W epsilon source`` followed by ``m`` lines
  ``tail head weight`` in arrival order,
* prediction file: lines ``tail head weight`` only,
* query file:      lines ``v t`` (single source), ``i j t`` (all pairs,
  offline) or ``i j`` (all pairs, online).

Vertex ids are dense and 0-based; weights are integers in ``[1, W]``.
Engines require the timeline length to be a power of two; short timelines
are padded with weight-1 self-loops at the source, which can never relax
a distance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

UNREACHABLE = math.inf


@dataclass(frozen=True)
class EdgeInsert:
    """One directed weighted edge together with its timeline identity."""

    edge_id: int
    tail: int
    head: int
    weight: int

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.tail, self.head, self.weight)


def check_edge(edge: EdgeInsert, n: int, W: int) -> None:
    """Raise ValueError unless the edge joins vertices in [0, n) with a weight in [1, W]."""
    if not (0 <= edge.tail < n and 0 <= edge.head < n):
        raise ValueError("vertex id out of range")
    if not 1 <= edge.weight <= W:
        raise ValueError("weight out of range")


def check_arrival(edge: EdgeInsert, timeline: InsertSequence, t: int, n: int, W: int) -> int:
    """The arrival gate both online engines share, run before any state changes.

    Rejects what check_edge rejects, an arrival after m (t counts the earlier
    ones) and an id the timeline knows with another triple.  Returns the id's
    timeline position, to which each engine applies its own rules.
    """
    check_edge(edge, n, W)
    if t >= len(timeline):
        raise ValueError("more than m insertions")
    known = timeline.columns.triple(edge.edge_id)
    if known is not None and known != edge.triple:
        raise ValueError("arriving edge conflicts with its predicted description")
    return timeline.position_of(edge.edge_id)


def check_prediction(prediction: Iterable[EdgeInsert], instance: ProblemInstance) -> None:
    """check_edge every predicted edge, and reject one that gives a true edge's id another triple."""
    true_triples = {e.edge_id: e.triple for e in instance.sigma}
    for e in prediction:
        check_edge(e, instance.n, instance.W)
        if true_triples.get(e.edge_id, e.triple) != e.triple:
            raise ValueError(f"predicted edge {e.edge_id} conflicts with the true edge of that id")


class EdgeColumns:
    """The fields of a timeline's edges, one dict per field, keyed by edge id.

    head, tail and weight cover every edge the timeline has held, including
    edges a truncation dropped; position holds an edge's 1-based position,
    or ``absent`` (length + 1) once it has left the timeline.  order lists
    the edge ids by position.  Keys cost nothing in proportion to an id's
    value, so huge and negative ids need no special case.

    into is the per-head in-edge index: into[v] lists the ids of the
    timeline's edges into v in position order, and hops[v] their
    (tail, weight) pairs in the same order, so the edges into v among the
    first t are the first bisect_right(into[v], t, key=position) of each.
    """

    def __init__(self, edges: Sequence[EdgeInsert]):
        self.order: list[int] = [e.edge_id for e in edges]
        self.absent = len(self.order) + 1
        self.head: dict[int, int] = {e.edge_id: e.head for e in edges}
        self.tail: dict[int, int] = {e.edge_id: e.tail for e in edges}
        self.weight: dict[int, int] = {e.edge_id: e.weight for e in edges}
        self.position: dict[int, int] = {eid: p for p, eid in enumerate(self.order, start=1)}
        self.into: dict[int, list[int]] = {}
        self.hops: dict[int, list[tuple[int, int]]] = {}
        for e in edges:
            self.into.setdefault(e.head, []).append(e.edge_id)
            self.hops.setdefault(e.head, []).append((e.tail, e.weight))

    def relink(self, gone: int, edge_id: int) -> None:
        """Take edge gone out of its head's index lists, then put edge_id into its head's at its position."""
        v = self.head[gone]
        i = self.into[v].index(gone)
        del self.into[v][i], self.hops[v][i]
        v = self.head[edge_id]
        into = self.into.setdefault(v, [])
        i = bisect_left(into, self.position[edge_id], key=self.position.__getitem__)
        into.insert(i, edge_id)
        self.hops.setdefault(v, []).insert(i, (self.tail[edge_id], self.weight[edge_id]))

    def position_of(self, edge_id: int) -> int:
        """1-based position of the edge, or ``absent`` when the timeline does not hold it."""
        return self.position.get(edge_id, self.absent)

    def triple(self, edge_id: int) -> tuple[int, int, int] | None:
        """(tail, head, weight) of an edge the timeline holds or has held, else None."""
        head = self.head.get(edge_id)
        if head is None:
            return None
        return (self.tail[edge_id], head, self.weight[edge_id])


class InsertSequence:
    """An ordered edge timeline with 1-based positional lookup.

    ``real_len`` marks where padding starts: edges at indices >= real_len
    are synthetic self-loops appended to reach a power-of-two length.

    Two corrections rewrite the order: move_forward pulls an edge forward
    and shifts the displaced block right, insert_truncating splices in a
    new edge and drops the last one.  Both keep the edge list and the
    columns current, at a cost linear in the shifted span plus the
    in-degrees of the heads whose index lists change.  Every structure
    built on a sequence shares its columns, so only an online engine calls
    the corrections, and only on the copy it owns.
    """

    def __init__(self, edges: Iterable[EdgeInsert], real_len: int | None = None):
        self.edges: list[EdgeInsert] = list(edges)
        self.real_len = len(self.edges) if real_len is None else real_len
        if len({e.edge_id for e in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge id within a sequence")

    @cached_property
    def columns(self) -> EdgeColumns:
        """Built on first use, so sequences that are only passed along never pay for it."""
        return EdgeColumns(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[EdgeInsert]:
        return iter(self.edges)

    def __getitem__(self, i: int) -> EdgeInsert:
        return self.edges[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InsertSequence):
            return NotImplemented
        return self.edges == other.edges and self.real_len == other.real_len

    def __repr__(self) -> str:
        return f"InsertSequence({len(self.edges)} edges, real_len={self.real_len})"

    def position_of(self, edge_id: int) -> int:
        """1-based position of the edge, or ``len(self) + 1`` when absent."""
        return self.columns.position_of(edge_id)

    def ids(self) -> list[int]:
        return [e.edge_id for e in self.edges]

    def max_edge_id(self) -> int:
        return max((e.edge_id for e in self.edges), default=-1)

    def _reindex(self, lo_pos: int, hi_pos: int) -> None:
        order, position = self.columns.order, self.columns.position
        for i in range(lo_pos - 1, hi_pos):
            position[order[i]] = i + 1

    def move_forward(self, edge_id: int, t: int) -> None:
        """Move the edge to position t <= its current position."""
        t_prime = self.position_of(edge_id)
        if t_prime > len(self):
            raise ValueError("edge not in the timeline")
        if t > t_prime:
            raise ValueError("can only move an edge toward the front")
        self.edges.insert(t - 1, self.edges.pop(t_prime - 1))
        cols = self.columns
        cols.order.insert(t - 1, cols.order.pop(t_prime - 1))
        self._reindex(t, t_prime)
        # The shifted block keeps its relative order, so only the moved edge
        # changes place in its head's index lists.
        cols.relink(edge_id, edge_id)

    def insert_truncating(self, edge: EdgeInsert, t: int) -> EdgeInsert:
        """Insert at position t, drop the last edge, and return it."""
        cols = self.columns
        eid = edge.edge_id
        if self.position_of(eid) <= len(self):
            raise ValueError("edge already present in the timeline")
        self.edges.insert(t - 1, edge)
        dropped = self.edges.pop()
        cols.order.insert(t - 1, eid)
        cols.order.pop()
        cols.head[eid], cols.tail[eid], cols.weight[eid] = edge.head, edge.tail, edge.weight
        cols.position[dropped.edge_id] = cols.absent
        self._reindex(t, len(self))
        cols.relink(dropped.edge_id, eid)
        return dropped


@dataclass(frozen=True)
class ProblemInstance:
    n: int
    W: int
    epsilon: float
    source: int
    sigma: InsertSequence

    @property
    def m(self) -> int:
        return len(self.sigma)


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    return source


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            out.append((i, line))
    return out


def _parse_edge_line(lineno: int, line: str, n: int, W: int) -> tuple[int, int, int]:
    """The (tail, head, weight) of one edge line, range-checked against n and W."""
    tokens = line.split()
    if len(tokens) != 3:
        raise ValueError(f"line {lineno}: malformed line, expected 'tail head weight'")
    try:
        tail, head, weight = int(tokens[0]), int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ValueError(f"line {lineno}: malformed line") from None
    if not (0 <= tail < n and 0 <= head < n):
        raise ValueError(f"line {lineno}: vertex id out of range")
    if not 1 <= weight <= W:
        raise ValueError(f"line {lineno}: weight out of range")
    return (tail, head, weight)


def parse_instance(source) -> ProblemInstance:
    """Parse an instance file; raises ValueError with the offending line."""
    lines = _content_lines(_read_text(source))
    if not lines:
        raise ValueError("empty instance file")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 5:
        raise ValueError(f"line {lineno}: malformed header, expected 'n m W epsilon source'")
    try:
        n, m, W = int(tokens[0]), int(tokens[1]), int(tokens[2])
        epsilon = float(tokens[3])
        src = int(tokens[4])
    except ValueError:
        raise ValueError(f"line {lineno}: malformed header") from None
    if n < 1:
        raise ValueError("vertex count must be positive")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    if W < 1:
        raise ValueError("weight bound must be positive")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 <= src < n:
        raise ValueError("source out of range")
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    seen: set[tuple[int, int, int]] = set()
    for edge_id, (lineno, line) in enumerate(body):
        triple = _parse_edge_line(lineno, line, n, W)
        if triple in seen:
            raise ValueError(f"line {lineno}: duplicate edge {triple}")
        seen.add(triple)
        edges.append(EdgeInsert(edge_id, *triple))
    return ProblemInstance(n=n, W=W, epsilon=epsilon, source=src, sigma=InsertSequence(edges))


def serialize_instance(instance: ProblemInstance) -> str:
    out = [f"{instance.n} {instance.m} {instance.W} {instance.epsilon!r} {instance.source}"]
    out.extend(f"{e.tail} {e.head} {e.weight}" for e in instance.sigma)
    return "\n".join(out) + "\n"


def _next_power_of_two(x: int) -> int:
    if x <= 1:
        return 1
    return 1 << (x - 1).bit_length()


def pad_to_power_of_two(seq: InsertSequence, source: int, minimum: int = 1) -> InsertSequence:
    """Append weight-1 self-loops at the source until the length is a power of two."""
    target = _next_power_of_two(max(len(seq), minimum))
    if target == len(seq):
        return seq
    next_id = seq.max_edge_id() + 1
    dummies = [EdgeInsert(next_id + i, source, source, 1) for i in range(target - len(seq))]
    return InsertSequence(seq.edges + dummies, real_len=seq.real_len)


def prepare_for_build(instance: ProblemInstance) -> ProblemInstance:
    """Instance with its timeline padded to a power of two of at least 2.

    The grids degenerate at length 1, hence the floor of 2.
    """
    seq = pad_to_power_of_two(instance.sigma, instance.source, minimum=2)
    if seq is instance.sigma:
        return instance
    return replace(instance, sigma=seq)


def parse_prediction(source, instance: ProblemInstance) -> list[EdgeInsert]:
    """Parse a prediction file against an instance.

    Triples found in the instance timeline adopt that edge's id; unknown
    triples get fresh ids (they are predicted edges that may never arrive).
    A triple may repeat only as often as the timeline itself holds copies,
    which only happens for padding self-loops.
    """
    lines = _content_lines(_read_text(source))
    queues: dict[tuple[int, int, int], deque[EdgeInsert]] = {}
    for e in instance.sigma:
        queues.setdefault(e.triple, deque()).append(e)
    phantom_triples: set[tuple[int, int, int]] = set()
    next_id = instance.sigma.max_edge_id() + 1
    out: list[EdgeInsert] = []
    for lineno, line in lines:
        triple = _parse_edge_line(lineno, line, instance.n, instance.W)
        queue = queues.get(triple)
        if queue:
            out.append(queue.popleft())
        elif queue is not None or triple in phantom_triples:
            raise ValueError(f"line {lineno}: duplicate edge {triple}")
        else:
            phantom_triples.add(triple)
            out.append(EdgeInsert(next_id, *triple))
            next_id += 1
    return out


def serialize_prediction(edges: Iterable[EdgeInsert]) -> str:
    lines = [f"{e.tail} {e.head} {e.weight}" for e in edges]
    return "\n".join(lines) + ("\n" if lines else "")


def align_prediction(pred_edges: list[EdgeInsert], instance: ProblemInstance) -> InsertSequence:
    """Normalize a prediction to the instance's (padded) length.

    Overlong predictions are truncated.  Short ones first reuse the
    instance's own padding edges, so a prediction that matched the raw
    timeline stays position-for-position identical after padding, then
    fall back to fresh self-loops that will never arrive.

    A prediction numbered against the unpadded timeline may give an
    unpredicted edge an id that padding took later; such an edge is
    renumbered so that it stays distinct from the padding edge.
    """
    m = instance.m
    out = list(pred_edges[:m])
    if len({e.edge_id for e in out}) != len(out):
        raise ValueError("duplicate edge id within a prediction")
    padding = instance.sigma.edges[instance.sigma.real_len:]
    padding_triples = {d.edge_id: d.triple for d in padding}
    next_id = max(instance.sigma.max_edge_id(), max((e.edge_id for e in out), default=-1)) + 1
    for i, e in enumerate(out):
        triple = padding_triples.get(e.edge_id)
        if triple is not None and triple != e.triple:
            out[i] = EdgeInsert(next_id, *e.triple)
            next_id += 1
    present = {e.edge_id for e in out}
    for dummy in padding:
        if len(out) >= m:
            break
        if dummy.edge_id not in present:
            out.append(dummy)
            present.add(dummy.edge_id)
    while len(out) < m:
        out.append(EdgeInsert(next_id, instance.source, instance.source, 1))
        next_id += 1
    return InsertSequence(out)


def parse_query_file(source, arity: int) -> list[tuple[int, ...]]:
    """Parse a query file whose lines hold ``arity`` integers each."""
    out = []
    for lineno, line in _content_lines(_read_text(source)):
        tokens = line.split()
        if len(tokens) != arity:
            raise ValueError(f"line {lineno}: expected {arity} integers")
        try:
            out.append(tuple(int(tok) for tok in tokens))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed line") from None
    return out

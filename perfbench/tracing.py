"""Layer spans recorded from outside the program.

The tracer wraps tscodec's public layer functions where their callers look
them up (module globals, class attributes and the coder registry), so the
program itself carries no tracing code. Spans stay in memory and are
written out when the run ends. A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple

MARK = "_perfbench_span"


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Sum of self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end)
    return dict(out)


class Tracer:
    """Records spans and counts per pass while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.passes: list[tuple[dict[str, float], dict[str, int]]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = 0
        self._pass_start = 0
        self._restore: list[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording a span; ``name`` may be a function of the args.

        ``count(counts, args, result)`` adds the call's counts after it returns.
        """

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self._op, label, start, end))
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(wrapper, MARK, name if isinstance(name, str) else fn.__name__)
        return wrapper

    def op(self, name: str, fn, *args):
        """Run one benchmark operation as a root span with a fresh op id."""
        self._op += 1
        return self.wrap(name, fn)(*args)

    def end_pass(self) -> None:
        """Close the current pass: keep its self times and counts."""
        spans = self.spans[self._pass_start :]
        self._pass_start = len(self.spans)
        self.passes.append((self_times(spans), dict(self.counts)))
        self.counts = defaultdict(int)

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, name, count=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, count))
        else:
            wrapped = self.wrap(name, original, count)
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self, tscodec) -> None:
        """Wrap every traced layer function of an imported ``tscodec``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        container, transforms = tscodec.container, tscodec.transforms
        registry = tscodec.coders.registry

        def tokens_out(counts, args, result):
            counts["transforms.tokens_out"] += int(result[0].size)

        def side_bytes(counts, args, result):
            counts["transforms.side_bytes"] += len(result)

        def backend_payload(counts, args, result):
            counts[f"backends.{args[1].backend_id}.payload_bytes"] += len(result)

        self._patch(container, "chain_apply", "transforms.chain_apply", tokens_out)
        self._patch(container, "chain_invert", "transforms.chain_invert")
        self._patch(container, "serialize_series", "backends.serialize")
        self._patch(container, "deserialize_series", "backends.deserialize")
        self._patch(
            container, "backend_compress",
            lambda args: f"backends.{args[1].backend_id}.compress", backend_payload,
        )
        self._patch(
            container, "backend_decompress", lambda args: f"backends.{args[1].backend_id}.decompress"
        )
        for stage in ("delta", "rle0", "quars"):
            self._patch(transforms, f"{stage}_encode", f"transforms.{stage}.encode")
            self._patch(transforms, f"{stage}_decode", f"transforms.{stage}.decode")
        self._patch(transforms.QuarsMap, "to_bytes", "transforms.quars.map_to_bytes", side_bytes)
        self._patch(transforms.QuarsMap, "from_bytes", "transforms.quars.map_from_bytes")

        # CoderInfo is frozen: swap whole entries, in both lookup tables.
        originals = dict(registry.CODERS)
        for key, info in originals.items():
            if info.encode is None:
                continue
            traced = dataclasses.replace(
                info,
                encode=self.wrap(f"coders.{key}.encode", info.encode, _coder_counts(key)),
                decode=self.wrap(f"coders.{key}.decode", info.decode),
            )
            registry.CODERS[key] = traced
            registry.CODER_BY_ID[info.id_byte] = traced

        def restore_coders():
            for key, info in originals.items():
                registry.CODERS[key] = info
                registry.CODER_BY_ID[info.id_byte] = info

        self._restore.append(restore_coders)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _coder_counts(key: str):
    def count(counts, args, result):
        header, payload = result
        counts[f"coders.{key}.tokens"] += len(args[0])
        counts[f"coders.{key}.header_bytes"] += len(header)
        counts[f"coders.{key}.payload_bytes"] += len(payload)

    return count


def installed_wrappers(tscodec) -> list[str]:
    """Names of traced wrappers still reachable from ``tscodec``'s layers."""
    container, transforms = tscodec.container, tscodec.transforms
    found = [getattr(v, MARK) for v in vars(container).values() if hasattr(v, MARK)]
    found += [getattr(v, MARK) for v in vars(transforms).values() if hasattr(v, MARK)]
    for attr in ("to_bytes", "from_bytes"):
        fn = transforms.QuarsMap.__dict__[attr]
        fn = getattr(fn, "__func__", fn)
        if hasattr(fn, MARK):
            found.append(getattr(fn, MARK))
    registry = tscodec.coders.registry
    for info in (*registry.CODERS.values(), *registry.CODER_BY_ID.values()):
        found += [getattr(fn, MARK) for fn in (info.encode, info.decode) if hasattr(fn, MARK)]
    return found

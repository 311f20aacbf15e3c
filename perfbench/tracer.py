"""Outside-in span tracer for the strictform modules.

The tracer replaces public functions of the seven ``strictform`` modules with
timing wrappers, without editing the package.  A span ``[name, start, end,
parent]`` is recorded in memory when a call crosses from one module into
another (a layer boundary) and for every call of the functions in ``NAMED``,
whose per-function numbers the benchmark reports.  A call that stays inside
the caller's module is charged to the caller.  Self time is a span's
duration minus the durations of its child spans, so the self times of all
spans under one root add up to the root's duration.

Two details keep the numbers honest:

* ``from .measures import dstar`` copies the function object into the
  namespaces of ``purify`` and ``cli``.  Patching only ``measures.dstar``
  would leave those copies untimed, so every ``strictform.*`` namespace that
  holds the original object is rebound to the wrapper.
* ``LanguageOracle.words`` is a generator function: calling it does no work.
  Its cost is charged to ``generators.words`` spans opened around each
  ``next()`` of the returned iterator, under whichever span consumes it.

Run as a script, it executes one traced CLI job in its own process:

    PYTHONPATH=src python3 perfbench/tracer.py OUT_PREFIX purify --config c.json

and writes ``OUT_PREFIX.json`` (exit code, traced wall, layer metrics) and
``OUT_PREFIX.spans.jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("arrays", "markers", "measures", "generators", "purify", "assemble", "cli")

# Public methods traced besides the module-level functions, as
# (module, class, method); spans are named "<module>.<method>".
METHODS = (
    ("generators", "GeneratorSpec", "word"),
    ("generators", "GeneratorSpec", "oracle"),
    ("generators", "LanguageOracle", "contains"),
    ("generators", "LanguageOracle", "occurrences"),
    ("generators", "LanguageOracle", "words"),
)

# Functions that get a span on every call, also from their own module.
NAMED = frozenset({
    "measures.empirical_measure", "measures.dstar",
    "purify.classify", "purify.replace_bad",
    "generators.word", "generators.occurrences", "generators.words",
    "assemble.transition_length", "assemble.tabbed_rectangles",
    "assemble.lifted_contains",
    "markers.check_balanced", "markers.build_marker_system",
    "arrays.extract_rectangle", "arrays.lift_binary",
})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_slabs(tracer, args, kwargs, result):
    # sliding windows counted: for each row count, one per (width, offset)
    r = _arg(args, kwargs, 0, "r")
    max_rows, max_width = _arg(args, kwargs, 1, "truncation")
    windows = sum(r.width - w + 1 for w in range(1, max_width + 1))
    tracer.counts["measures.empirical_measure.slabs"] += max_rows * windows


def _count_classify(tracer, args, kwargs, result):
    rect = _arg(args, kwargs, 0, "rect")
    family = _arg(args, kwargs, 1, "family")
    tracer.classify_keys.add((family.path, family.gamma, rect.without_marks()))


def _count_replaced(tracer, args, kwargs, result):
    tracer.counts["purify.replace_bad.replaced_columns"] += result[2]


def _count_positions(tracer, args, kwargs, result):
    tracer.counts["generators.occurrences.positions"] += len(result)


def _count_windows(tracer, args, kwargs, result):
    ms = _arg(args, kwargs, 0, "ms")
    window = _arg(args, kwargs, 2, "window")
    tracer.counts["markers.check_balanced.windows"] += max(0, ms.hi - ms.lo - window + 1)


COUNTERS = {
    "measures.empirical_measure": _count_slabs,
    "purify.classify": _count_classify,
    "purify.replace_bad": _count_replaced,
    "generators.occurrences": _count_positions,
    "markers.check_balanced": _count_windows,
}
LAZY = frozenset({"generators.words"})


class Tracer:
    """Wraps the strictform public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        # open spans: their indices and modules; -1/None is the caller
        self.stack: list[int] = [-1]
        self.modules: list[str | None] = [None]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.classify_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"strictform.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(fn)] = self._wrap(f"{mname}.{attr}", fn)
        # rebind every alias: a name imported with "from .x import f" holds
        # the same function object as x.f
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])
        for mname, cls_name, meth in METHODS:
            cls = getattr(mods[mname], cls_name)
            self._patch(cls, meth, self._wrap(f"{mname}.{meth}", vars(cls)[meth]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _open(self, name: str, module: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.modules.append(module)
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()
        self.modules.pop()

    def _wrap(self, name, fn):
        module = name.split(".")[0]
        named = name in NAMED
        count = COUNTERS.get(name)
        lazy = name in LAZY
        calls, errors, modules = self.calls, self.errors, self.modules

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not named and modules[-1] == module:
                return fn(*args, **kwargs)
            calls[name] += 1
            span = self._open(name, module)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                self._close(span)
            if count is not None:
                count(self, args, kwargs, result)
            if lazy:
                return self._consume(name, module, result)
            return result

        return traced

    def _consume(self, name, module, iterator):
        """Re-yield ``iterator``, timing each step as a span of ``name``."""
        while True:
            span = self._open(name, module)
            try:
                item = next(iterator)
            except StopIteration:
                return
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self._close(span)
            yield item

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, float]:
        """Self time per span name, and the sum of |self time| over spans.

        With proper nesting no self time is negative, so the second value
        equals the root span's duration.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        total = 0.0
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
            total += abs(end - start - covered)
        return out, total

    def layer_metrics(self) -> dict[str, float]:
        """Per-module and per-function numbers, keyed by metric name."""
        own, _ = self.self_times()
        out: dict[str, float] = {}
        for m in MODULES:
            out[f"{m}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == m)
            out[f"{m}.errors"] = self.errors[m]
        for name, value in own.items():
            out[f"{name}.self_s"] = value
        for name, value in self.calls.items():
            out[f"{name}.calls"] = value
        out.update(self.counts)
        classify_calls = self.calls["purify.classify"]
        out["purify.classify.distinct_ratio"] = (
            len(self.classify_keys) / classify_calls if classify_calls else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def main(prefix: str, argv: list[str]) -> int:
    """Run ``strictform.cli.main(argv)`` under a tracer; write the results."""
    tracer = Tracer()
    with tracer:
        cli_main = sys.modules["strictform.cli"].main
        start = perf_counter()
        code = cli_main(argv)
        wall = perf_counter() - start
    _, self_sum = tracer.self_times()
    result = {
        "exit": code,
        "wall_s": wall,
        "self_sum_s": self_sum,
        "spans": len(tracer.spans),
        "layers": tracer.layer_metrics(),
    }
    with open(prefix + ".json", "w") as f:
        json.dump(result, f)
    tracer.write_spans(prefix + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

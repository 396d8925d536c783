"""Spans recorded from outside the program, around calls into its layers.

A `Tracer` replaces chosen module attributes (say `sde.simulate_paths`)
with wrappers that record one span per call: name, start, end, parent
span and run id.  Callers that look the function up through its module
at call time, which is how the package calls across modules, then pass
through the wrapper.  Spans stay in memory until the benchmark writes
them out.  Nothing is wrapped until `install` is called, and
`uninstall` puts every original back.
"""

import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 at the top
    run: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, targets):
        """targets: iterable of (module, attribute, span name, observe).

        observe(result, args, kwargs) -> dict, or None, adds values
        from a call's result to its span.  A target whose attribute the
        module does not have is skipped and listed in `missing`.
        """
        self.targets = tuple(targets)
        self.spans = []
        self.run = 0
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for module, attr, name, observe in self.targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, observe))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, fn, name, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.run)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.attrs.update(observe(result, args, kwargs))
            return result

        return traced

    def spans_of_run(self, run):
        """(spans, self times) of one run, parents re-indexed into the list."""
        idx = [i for i, s in enumerate(self.spans) if s.run == run]
        pos = {old: new for new, old in enumerate(idx)}
        local = [self.spans[i] for i in idx]
        parents = [pos.get(s.parent, -1) for s in local]
        return local, self_times(local, parents)


def self_times(spans, parents=None):
    """Each span's duration minus the durations of its direct children.

    The tracer keeps one call stack, so a span's children run one after
    another inside it and never overlap.
    """
    if parents is None:
        parents = [s.parent for s in spans]
    selfs = [s.end - s.start for s in spans]
    for span, p in zip(spans, parents):
        if p >= 0:
            selfs[p] -= span.end - span.start
    return selfs

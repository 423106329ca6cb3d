"""Layer spans recorded from outside the program under test.

:class:`SpanRecorder` wraps methods on objects the harness built — a
monitor's ``submit_many``, its queue's ``take``, the HMD's ``analyze``
— with a timing shim installed as an instance attribute, so the
program itself carries no instrumentation and the class stays
untouched.  Spans nest through one stack: a layer's *self* time is its
span's duration minus the time its child spans cover, so the self
times of all layers partition the time spent inside any wrapped call.

A hook whose target no longer resolves (a later change deleted or
renamed the layer) is recorded as *missing* instead of raising, so the
same benchmark code still measures a tree where that layer is gone.
"""

from __future__ import annotations

import time
from collections import defaultdict

_ABSENT = object()


class SpanRecorder:
    """Self time and call counts per layer, from wrapped methods."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        # One running child-time total per open span; slot 0 collects
        # the top-level spans, i.e. all time covered by any layer.
        self._stack = [0]
        self._installed: list[tuple[object, str, object]] = []
        self._hooked: set[str] = set()
        self._failed: set[str] = set()

    @property
    def missing(self) -> list[str]:
        """Layers none of whose hook targets could be resolved."""
        return sorted(self._failed - self._hooked)

    @property
    def covered_ns(self) -> int:
        """Time spent inside top-level spans (the sum of all self times)."""
        return self._stack[0]

    def hook(self, layer: str, root, path: str) -> bool:
        """Time ``root.<path>`` (a dotted path to a method) as ``layer``.

        Returns False, and marks the layer missing unless another hook
        for it succeeds, when the path does not resolve to a callable
        or the owning object refuses instance attributes.
        """
        *parents, attr = path.split(".")
        owner = root
        try:
            for name in parents:
                owner = getattr(owner, name)
            target = getattr(owner, attr)
        except AttributeError:
            target = None
        if not callable(target):
            self._failed.add(layer)
            return False

        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return target(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[layer] += duration - stack.pop()
                calls[layer] += 1
                stack[-1] += duration

        own = getattr(owner, "__dict__", {})
        previous = own.get(attr, _ABSENT)
        try:
            setattr(owner, attr, span)
        except AttributeError:
            self._failed.add(layer)
            return False
        self._installed.append((owner, attr, previous))
        self._hooked.add(layer)
        return True

    def remove(self) -> None:
        """Uninstall every wrapper, restoring the original attributes."""
        for owner, attr, previous in reversed(self._installed):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._installed.clear()


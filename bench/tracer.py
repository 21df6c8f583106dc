"""Call tracing from outside the program: rebind names to timing wrappers.

Each wrapper replaces one name where its caller looks it up (a module
global or a class attribute), so ``criteria.log_det`` is wrapped for the
calls ``ScenarioEnsemble`` makes and ``optimizer.phi_D`` for the calls the
swarm objective makes.  Spans are aggregated by (function, parent) with a
call count, total time and the time covered by child spans, because a
compromise search makes millions of criterion calls; full spans (start,
end, parent) are kept only for names marked ``full``.  ``restore`` puts
every original binding back.
"""

from __future__ import annotations

import itertools
from time import perf_counter

ROOT_SPAN = "<root>"


def rebind(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)``; return the
    original, or None when ``owner`` has no such attribute of its own."""
    original = vars(owner).get(attr)
    if original is None:
        return None
    setattr(owner, attr, make_wrapper(original))
    return original


class Tracer:
    def __init__(self):
        # Each frame: [span name, child seconds, span id].
        self._stack = [[ROOT_SPAN, 0.0, 0]]
        self._ids = itertools.count(1)
        self.job = None
        self.aggregate: dict[tuple[str, str], list] = {}
        self.zeros: dict[str, int] = {}
        self.spans: list[dict] = []
        self.fired: dict[str, int] = {}
        self.missing: list[str] = []
        self._bindings: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, full: bool = False, zero=None):
        """Trace calls through ``owner.attr`` as span ``name``.

        ``zero`` is a predicate on the return value; matching results are
        counted in ``zeros[name]``.  Returns the binding's label, or None
        when the name no longer exists (listed in ``missing``).
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.fired[label] = 0
        stack, aggregate, fired = self._stack, self.aggregate, self.fired

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                frame = [name, 0.0, next(self._ids)]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    dt = end - start
                    stack.pop()
                    parent = stack[-1]
                    parent[1] += dt
                    entry = aggregate.get((name, parent[0]))
                    if entry is None:
                        entry = aggregate[(name, parent[0])] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += frame[1]
                    fired[label] += 1
                    if full:
                        self.spans.append({
                            "id": frame[2], "parent": parent[2], "name": name,
                            "job": self.job, "start": start, "end": end,
                        })
                if zero is not None and zero(result):
                    self.zeros[name] = self.zeros.get(name, 0) + 1
                return result

            traced.__wrapped__ = fn
            return traced

        original = rebind(owner, attr, make_wrapper)
        if original is None:
            self.missing.append(label)
            del self.fired[label]
            return None
        self._bindings.append((owner, attr, original))
        return label

    def restore(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds, summed over
        parents."""
        out: dict[str, dict] = {}
        for (name, _parent), (calls, total, child) in self.aggregate.items():
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += calls
            t["s"] += total
            t["self_s"] += total - child
        return out

    def table(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": calls, "s": total,
             "self_s": total - child}
            for (name, parent), (calls, total, child) in sorted(
                self.aggregate.items(), key=lambda kv: -kv[1][1]
            )
        ]

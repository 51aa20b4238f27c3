"""Outside-in tracer: wraps the public functions of wildinv's layers from the
benchmark's side, leaving src/ untouched.

A function is wrapped once and the wrapper is bound under every name a
caller resolves: the defining module's attribute, every `from x import name`
copy (addpoly's `rref` and `nullspace`, ff's `_solve_mod`, sympmod's and
espgroup's `build_context`) and the package re-exports. Each wrapped call
records a span (id, name, start, end, parent id, report id) and adds to the
function's calls, total time and self time (total minus the time covered by
wrapped children). `FieldElement.__mul__` is counted, not timed.
"""

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "invariants", "ambient", "sympmod", "quotient", "rootsys",
          "counts", "addpoly", "ff", "linalg")
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []
        self.dropped = 0
        self.report_id = 0
        self.mul_calls = 0
        self.fields_built = 0
        self.field_build_s = 0.0
        self.vd_distinct = 0
        self._vd_keys = set()
        self._fields_seen = set()
        self._stack = []  # per active call: [span id, child time]
        self._active = {}  # name -> recursion depth, so total_s counts outermost calls
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # -- bookkeeping -----------------------------------------------------------

    def begin_report(self, report_id):
        """Start a report: spans get its id, distinct (R, k) restart."""
        self.report_id = report_id
        self._vd_keys = set()

    def _wrap(self, name, fn):
        tr = self
        stat = tr.stats.setdefault(name, [0, 0.0, 0.0])
        hook = {"ff.field_create": tr._field_hook,
                "counts.value_distribution": tr._vd_hook}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tr._next_id
            tr._next_id += 1
            parent = tr._stack[-1][0] if tr._stack else -1
            frame = [sid, 0.0]
            tr._stack.append(frame)
            depth = tr._active.get(name, 0)
            tr._active[name] = depth + 1
            built = hook(args) if hook else False
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                tr._stack.pop()
                tr._active[name] = depth
                stat[0] += 1
                if depth == 0:
                    stat[1] += dt
                stat[2] += dt - frame[1]
                if tr._stack:
                    tr._stack[-1][1] += dt
                if built:
                    tr.fields_built += 1
                    tr.field_build_s += dt
                if len(tr.spans) < SPAN_CAP:
                    tr.spans.append((sid, name, t0, t1, parent, tr.report_id))
                else:
                    tr.dropped += 1

        return wrapper

    # Both hooked functions are called positionally everywhere in wildinv.
    def _field_hook(self, args):
        """True (a build) when this (p, n) was not yet made in this process."""
        key = tuple(args[:2])
        if key in self._fields_seen:
            return False
        self._fields_seen.add(key)
        return True

    def _vd_hook(self, args):
        R, k = args[:2]
        key = (tuple(c.coords for c in R.coeffs), R.base.p, R.base.n, k)
        if key not in self._vd_keys:
            self._vd_keys.add(key)
            self.vd_distinct += 1
        return False

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every public function of the layers under every bound name."""
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "wildinv" or n.startswith("wildinv."))}
        ff = mods["wildinv.ff"]
        self._fields_seen.update(getattr(ff, "_FIELD_CACHE", {}).keys())
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"wildinv.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cls = ff.FieldElement
        mul = cls.__mul__
        tr = self

        def counted_mul(a, b):
            tr.mul_calls += 1
            return mul(a, b)

        for attr in ("__mul__", "__rmul__"):
            self._patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, counted_mul)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def summary(self):
        return {
            "functions": self.stats,
            "mul_calls": self.mul_calls,
            "fields_built": self.fields_built,
            "field_build_s": self.field_build_s,
            "vd_distinct": self.vd_distinct,
            "spans": self.spans,
            "dropped": self.dropped,
        }

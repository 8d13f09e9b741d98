"""Per-layer tracing from outside the program.

The tracer wraps gforge's public functions and methods with timing shims.
A module-level function is replaced under every name that holds it in a
loaded gforge module (``gforge.cli.verify_partial_action`` as well as
``gforge.boundary.verify_partial_action``), so calls between modules are
seen too.  A method is replaced on its class, which catches every caller.

While ``recording`` is set, each call becomes a span: name, start, end,
parent span and verdict id, kept in flat arrays and written out when the
run ends.  Call counts and self time are summed whether or not spans are
kept.  Self time is a
span's duration minus the time of the spans directly inside it; calls
nest on one thread, so children never overlap.
"""
from __future__ import annotations

import array
import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (metric prefix, targets as "module:Class.attr" or "module:function")
LAYERS = (
    ("words.mul", ("gforge.words:ReducedWord.__mul__",)),
    ("words.from_pair", ("gforge.words:ReducedWord.from_pair",)),
    ("graph.make_path", ("gforge.graph:Graph.make_path",)),
    ("graph.concat", ("gforge.graph:Graph.concat",)),
    ("graph.strip_prefix", ("gforge.graph:Graph.strip_prefix",)),
    ("graph.paths_up_to", ("gforge.graph:Graph.paths_up_to",)),
    ("graph.shortest_path", ("gforge.graph:Graph.shortest_path",)),
    ("graph.condition_pi", ("gforge.graph:condition_pi",)),
    ("boundary.point_init", ("gforge.boundary:BoundaryPoint.__init__",)),
    ("boundary.shift", ("gforge.boundary:BoundaryPoint.shift",)),
    ("boundary.startswith", ("gforge.boundary:BoundaryPoint.startswith",)),
    ("boundary.head", ("gforge.boundary:BoundaryPoint.head",)),
    ("boundary.probe_points", ("gforge.boundary:probe_points",)),
    ("boundary.sample_point", ("gforge.boundary:sample_point",)),
    ("boundary.compact_open_init", ("gforge.boundary:CompactOpen.__init__",)),
    ("boundary.intersect", ("gforge.boundary:CompactOpen.intersect",)),
    ("boundary.difference", ("gforge.boundary:CompactOpen.difference",)),
    ("boundary.set_eq", ("gforge.boundary:CompactOpen.__eq__",)),
    ("boundary.from_word", ("gforge.boundary:PartialWord.from_word",)),
    ("boundary.act_point", ("gforge.boundary:PartialWord.act_point",)),
    ("boundary.act_set", ("gforge.boundary:PartialWord.act_set",)),
    ("boundary.admissible_words", ("gforge.boundary:admissible_words",)),
    ("boundary.verify_partial_action",
     ("gforge.boundary:verify_partial_action",)),
    ("boundary.topological_freeness_report",
     ("gforge.boundary:topological_freeness_report",)),
    ("groupoid.to_dr", ("gforge.groupoid:to_dr",)),
    ("groupoid.to_ptg", ("gforge.groupoid:to_ptg",)),
    ("groupoid.compose", ("gforge.groupoid:compose",)),
    ("orbit.coe_check", ("gforge.orbit:coe_check",)),
    ("orbit.oe_check", ("gforge.orbit:oe_check",)),
    ("orbit.coe_to_oe", ("gforge.orbit:coe_to_oe",)),
    ("orbit.oe_to_coe", ("gforge.orbit:oe_to_coe",)),
    ("paradox.find_witness", ("gforge.paradox:find_witness",)),
    ("paradox.verify_witness", ("gforge.paradox:verify_witness",)),
    ("paradox.paradox_report", ("gforge.paradox:paradox_report",)),
    ("invsgp.verify_partial_hom", ("gforge.invsgp:verify_partial_hom",)),
    ("invsgp.check_boundary_invariance",
     ("gforge.invsgp:check_boundary_invariance",)),
    ("semigroups.independence_report",
     ("gforge.semigroups:NkFamily.independence_report",
      "gforge.semigroups:FreeMonoidFamily.independence_report",
      "gforge.semigroups:AffineFamily.independence_report")),
    ("semigroups.g0_report",
     ("gforge.semigroups:NkFamily.g0_report",
      "gforge.semigroups:FreeMonoidFamily.g0_report",
      "gforge.semigroups:AffineFamily.g0_report")),
    ("semigroups.boundary_paradox_witness",
     ("gforge.semigroups:boundary_paradox_witness",)),
    ("semigroups.axb_paradox_witness",
     ("gforge.semigroups:axb_paradox_witness",)),
    ("cli.main", ("gforge.cli:main",)),
    ("reports.render", ("gforge.reports:render",)),
)


def _literal_eq(args, result):
    # CompactOpen.__eq__ answers from the parts tuples before any algebra
    a, b = args[0], args[1]
    return type(a) is type(b) and a.parts == b.parts


def _empty_map(args, result):
    return result.is_empty_map


def _found(args, result):
    return result is not None


# ratio name -> (layer, predicate on (args, result)); share of calls that hit
RATIOS = {
    "boundary.set_eq.literal_share": ("boundary.set_eq", _literal_eq),
    "boundary.from_word.empty_share": ("boundary.from_word", _empty_map),
    "paradox.find_witness.found_share": ("paradox.find_witness", _found),
}

# fields of one span, in the order they are written
SPAN_FIELDS = (("name", "H"), ("start_ns", "q"), ("end_ns", "q"),
               ("parent", "i"), ("verdict", "i"))


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for layer, _ in LAYERS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
    for name in RATIOS:
        out[name] = "share"
    out["trace.overhead"] = "ratio"
    return out


class Tracer:
    """Installs the shims and owns every span they record."""

    def __init__(self):
        self.names = [layer for layer, _ in LAYERS]
        self.columns = {f: array.array(code) for f, code in SPAN_FIELDS}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.hits = {name: 0 for name in RATIOS}
        self.verdict = -1
        self.recording = True     # spans are kept while set; totals always
        self._stack = []          # open span indices
        self._child_ns = []       # time of finished children, per open span
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = {layer: (name, pred) for name, (layer, pred) in RATIOS.items()}
        for idx, (layer, targets) in enumerate(LAYERS):
            for target in targets:
                self._patch(target, idx, hooks.get(layer))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _patch(self, target, idx, hook):
        modname, _, path = target.partition(":")
        module = importlib.import_module(modname)
        if "." in path:
            clsname, attr = path.split(".")
            cls = getattr(module, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._shim(raw.__func__, idx, hook))
            else:
                new = self._shim(raw, idx, hook)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        fn = getattr(module, path)
        shim = self._shim(fn, idx, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gforge" or name.startswith("gforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, shim)

    def _shim(self, fn, idx, hook):
        cols = self.columns
        c_name, c_start, c_end = cols["name"], cols["start_ns"], cols["end_ns"]
        c_parent, c_verdict = cols["parent"], cols["verdict"]
        stack, child_ns = self._stack, self._child_ns
        calls, self_ns, hits = self.calls, self.self_ns, self.hits
        ratio = hook[0] if hook else None
        pred = hook[1] if hook else None

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            record = self.recording
            if record:
                span = len(c_start)
                c_name.append(idx)
                c_parent.append(stack[-1] if stack else -1)
                c_verdict.append(self.verdict)
                c_end.append(0)
                stack.append(span)
            child_ns.append(0)
            t0 = perf_counter_ns()
            if record:
                c_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                if record:
                    c_end[span] = t1
                    stack.pop()
                inner = child_ns.pop()
                dur = t1 - t0
                self_ns[idx] += dur - inner
                calls[idx] += 1
                if child_ns:
                    child_ns[-1] += dur
            if pred is not None and pred(args, result):
                hits[ratio] += 1
            return result

        return shim

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Calls and self seconds per pass over the item list, plus ratios."""
        out = {}
        for i, layer in enumerate(self.names):
            out[f"{layer}.calls"] = self.calls[i] / passes
            out[f"{layer}.self_s"] = self.self_ns[i] / passes / 1e9
        index = {layer: i for i, layer in enumerate(self.names)}
        for name, (layer, _) in RATIOS.items():
            base = self.calls[index[layer]]
            out[name] = self.hits[name] / base if base else 0.0
        return out

    def write(self, stem, header: dict):
        """Spans as raw arrays, one column after another, in
        stem + '-spans.bin'; the JSON in stem + '-trace.json' describes
        them and carries the header."""
        n = len(self.columns["start_ns"])
        layout = []
        with open(f"{stem}-spans.bin", "wb") as fh:
            for field, code in SPAN_FIELDS:
                col = self.columns[field]
                layout.append({"field": field, "typecode": code,
                               "itemsize": col.itemsize})
                col.tofile(fh)
        doc = dict(header)
        doc["spans"] = {"count": n, "names": self.names, "columns": layout,
                        "byteorder": sys.byteorder}
        with open(f"{stem}-trace.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)

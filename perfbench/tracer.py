"""Per-layer tracing of `cointerval` from outside the package.

The tracer patches public functions and methods of the package while it
is active and restores them on exit; nothing under `src/` knows about
it.  A function is replaced under every name it is bound to in any
`cointerval` module (`from .homology import boundary_matrices` binds it
again in `resolution`, `cli` imports its commands by name), so a call is
seen whichever module makes it.  A target that no longer exists is
reported in `absent` and its metrics read 0.

Three kinds of target:
  span   -- a timed span with an id and a parent id; self time is the
            span's duration minus its children's.  Spans stay in memory
            until `write_spans`.
  count  -- calls only, for functions called hundreds of thousands of
            times per op, where a span would cost more than the call.
  yield  -- a generator; counts the items it yields.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

PACKAGE = "cointerval"


def _matrix_entries(rows):
    return len(rows) * len(rows[0]) if rows else 0


def _rank_mod_layer(args, kwargs):
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    return "kernels.rank_gf2" if p == 2 else "kernels.rank_modp"


def _kernel_counts(layer, args, kwargs, result, stats):
    entries = _matrix_entries(args[0] if args else kwargs.get("rows"))
    stats[layer + ".entries"] += entries
    if entries > stats[layer + ".max_shape"]:
        stats[layer + ".max_shape"] = entries


def _count_len(key):
    def after(layer, args, kwargs, result, stats):
        stats[key] += len(result)
    return after


def _verify_counts(layer, args, kwargs, result, stats):
    nonempty = sum(1 for _a, s in result.alpha_status if s != "empty")
    stats["resolution.downsets_nonempty"] += nonempty
    stats["resolution._downsets_swept"] += len(result.alpha_status)


def _dump_counts(layer, args, kwargs, result, stats):
    stats["dumpio._faces_found"] += sum(
        len(result.boundary(c)) for c in result.all_cells() if result.dim(c)
    )


def _geometry_counts(layer, args, kwargs, result, stats):
    stats["staircase._faces_kept"] += sum(
        len(faces) for faces in result.faces_by_dim.values()
    )


# (module, attribute path, kind, layer name or chooser, after-hook)
TARGETS = (
    ("cli", "main", "span", "cli.main", None),
    ("hypergraph", "read_hypergraph", "span", "hypergraph.read_hypergraph", None),
    ("hypergraph", "find_cointerval_labeling", "span",
     "hypergraph.find_cointerval_labeling", None),
    ("hypergraph", "find_strongly_stable_labeling", "span",
     "hypergraph.find_strongly_stable_labeling", None),
    ("hypergraph", "Hypergraph.is_strongly_stable", "count",
     "hypergraph.is_strongly_stable", None),
    ("hypergraph", "Hypergraph.is_cointerval", "count",
     "hypergraph.is_cointerval", None),
    ("complexes", "build_complex", "span", "complexes.build_complex",
     _count_len("complexes.cells_built")),
    ("complexes", "LabeledComplex.lcm_lattice", "span", "complexes.lcm_lattice",
     _count_len("complexes.lattice_elements")),
    ("complexes", "LabeledComplex.downset_leq", "span", "complexes.downset",
     _count_len("complexes.downset.cells")),
    ("complexes", "LabeledComplex.downset_lt", "span", "complexes.downset",
     _count_len("complexes.downset.cells")),
    ("homology", "boundary_matrices", "span", "homology.boundary_matrices", None),
    ("homology", "_assert_squares_to_zero", "span", "homology.d2_check", None),
    ("homology", "ChainComplex.homology_ranks", "span",
     "homology.homology_ranks", None),
    ("_kernels", "rank_mod", "span", _rank_mod_layer, _kernel_counts),
    ("_kernels", "rank_bareiss", "span", "kernels.rank_q", _kernel_counts),
    ("_kernels", "nullspace_rational", "span", "kernels.nullspace_q", None),
    ("resolution", "verify_resolution", "span", "resolution.verify_resolution",
     _verify_counts),
    ("resolution", "verify_minimal", "span", "resolution.verify_minimal", None),
    ("resolution", "betti_from_faces", "span", "resolution.betti_from_faces", None),
    ("resolution", "betti_hochster", "span", "resolution.betti_hochster", None),
    ("dumpio", "parse_complex_dump", "span", "dumpio.parse_complex_dump",
     _dump_counts),
    ("dumpio", "_below", "count", "dumpio.below_tests", None),
    ("staircase", "restrict_to_graph", "span", "staircase.restrict_to_graph",
     _geometry_counts),
    ("staircase", "weak_tuples", "yield", "staircase.weak_tuples", None),
    ("staircase", "export_geometry", "span", "staircase.export_geometry", None),
    ("covers", "linear_width", "span", "covers.linear_width", None),
    ("covers", "join", "span", "covers.join", None),
    ("covers", "glued_resolution", "span", "covers.glued_resolution", None),
    ("casestudy", "enumerate_classes", "span", "casestudy.enumerate_classes", None),
    ("casestudy", "burnside_count", "span", "casestudy.burnside_count", None),
    ("casestudy", "classify_all", "span", "casestudy.classify_all", None),
)

_KERNELS = ("kernels.rank_gf2", "kernels.rank_modp", "kernels.rank_q")

# Every per-layer metric, in report order, with its unit.
METRICS = (
    ("cli.main.self_s", "s"),
    ("hypergraph.read_hypergraph.self_s", "s"),
    ("hypergraph.find_cointerval_labeling.self_s", "s"),
    ("hypergraph.find_strongly_stable_labeling.self_s", "s"),
    ("hypergraph.is_strongly_stable.calls", "count"),
    ("hypergraph.is_cointerval.calls", "count"),
    ("complexes.build_complex.self_s", "s"),
    ("complexes.cells_built", "count"),
    ("complexes.lcm_lattice.self_s", "s"),
    ("complexes.lattice_elements", "count"),
    ("complexes.downset.calls", "count"),
    ("complexes.downset.self_s", "s"),
    ("complexes.downset.cells", "count"),
    ("homology.boundary_matrices.self_s", "s"),
    ("homology.d2_check.calls", "count"),
    ("homology.d2_check.self_s", "s"),
    ("homology.homology_ranks.self_s", "s"),
    *(
        (f"{k}.{m}", u)
        for k in _KERNELS
        for m, u in (("calls", "count"), ("self_s", "s"),
                     ("entries", "count"), ("max_shape", "entries"))
    ),
    ("kernels.nullspace_q.calls", "count"),
    ("kernels.nullspace_q.self_s", "s"),
    ("resolution.verify_resolution.self_s", "s"),
    ("resolution.downsets_nonempty", "count"),
    ("resolution.downsets_nonempty_frac", "ratio"),
    ("resolution.verify_minimal.self_s", "s"),
    ("resolution.betti_from_faces.self_s", "s"),
    ("resolution.betti_hochster.self_s", "s"),
    ("dumpio.parse_complex_dump.self_s", "s"),
    ("dumpio.below_tests", "count"),
    ("dumpio.faces_found_frac", "ratio"),
    ("staircase.restrict_to_graph.self_s", "s"),
    ("staircase.weak_tuples.yielded", "count"),
    ("staircase.faces_kept", "count"),
    ("staircase.faces_kept_frac", "ratio"),
    ("staircase.export_geometry.self_s", "s"),
    ("covers.linear_width.self_s", "s"),
    ("covers.join.self_s", "s"),
    ("covers.glued_resolution.self_s", "s"),
    ("casestudy.enumerate_classes.self_s", "s"),
    ("casestudy.burnside_count.self_s", "s"),
    ("casestudy.classify_all.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class _Stats(dict):
    def __missing__(self, key):
        return 0


def _resolve(module_name, path):
    """(owner, attribute, value) for `module.path`, or None if absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Patch the targets on `__enter__`, restore them on `__exit__`.

    `stats` accumulates over every activation; spans are appended to
    flat arrays (id, parent id, layer index, start, end).
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = _Stats()
        self.absent = []
        self.layers = []
        self._layer_index = {}
        self._stack = []
        self._next_id = 1
        self._patches = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # --- spans ---------------------------------------------------------
    def _open(self, layer):
        idx = self._layer_index.get(layer)
        if idx is None:
            idx = self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
        sid = self._next_id
        self._next_id += 1
        # [id, layer index, start, time covered by children]
        self._stack.append([sid, idx, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        sid, idx, start, child = self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        layer = self.layers[idx]
        self.stats[layer + ".calls"] += 1
        self.stats[layer + ".self_s"] += duration - child
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_layer.append(idx)
        self.span_start.append(start)
        self.span_end.append(end)

    def reset_stack(self):
        """Drop open spans after an op was cut off mid-call."""
        self._stack.clear()

    # --- wrappers ------------------------------------------------------
    def _span(self, orig, layer, after):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(name, args, kwargs, result, tracer.stats)
            return result

        return wrapper

    def _count(self, orig, layer):
        stats = self.stats
        key = layer + ".calls"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stats[key] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _yield(self, orig, layer):
        stats = self.stats
        key = layer + ".yielded"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            for item in orig(*args, **kwargs):
                stats[key] += 1
                yield item

        return wrapper

    # --- patching ------------------------------------------------------
    def _patch(self, owner, attr, new):
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, new)

    def __enter__(self):
        self.absent = []
        for module_name, path, kind, layer, after in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, orig = found
            if kind == "span":
                wrapper = self._span(orig, layer, after)
            elif kind == "count":
                wrapper = self._count(orig, layer)
            else:
                wrapper = self._yield(orig, layer)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig, had = self._patches.pop()
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        return False

    # --- reporting -----------------------------------------------------
    def metrics(self, passes, overhead_frac):
        """Every METRICS entry, per pass over the corpus."""
        s = self.stats
        derived = {
            "resolution.downsets_nonempty_frac": _ratio(
                s["resolution.downsets_nonempty"],
                s["resolution._downsets_swept"],
            ),
            "dumpio.faces_found_frac": _ratio(
                s["dumpio._faces_found"], s["dumpio.below_tests.calls"]
            ),
            "staircase.faces_kept": s["staircase._faces_kept"] / passes,
            "staircase.faces_kept_frac": _ratio(
                s["staircase._faces_kept"], s["staircase.weak_tuples.yielded"]
            ),
            "dumpio.below_tests": s["dumpio.below_tests.calls"] / passes,
            "staircase.weak_tuples.yielded":
                s["staircase.weak_tuples.yielded"] / passes,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, unit in METRICS:
            if name in derived:
                value = derived[name]
            elif name.endswith(".max_shape"):
                value = s[name]
            else:
                value = s[name] / passes
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path, header):
        """Write every span as `id parent layer start end` (TSV)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("# layers: " + " ".join(self.layers) + "\n")
            fh.write("id\tparent\tlayer\tstart_s\tend_s\n")
            for row in zip(self.span_id, self.span_parent, self.span_layer,
                           self.span_start, self.span_end):
                fh.write("%d\t%d\t%d\t%.9f\t%.9f\n" % row)


def _ratio(num, den):
    return num / den if den else 0.0

"""Span tracer for the traced benchmark pass.

The tracer wraps, from outside the package, every public module-level
function of each layer module plus a few class methods, and records one
span per call.  Spans are aggregated in memory per (name, parent) as
[calls, total seconds, seconds covered by child spans], so a pass with
millions of CycloElt operations keeps a bounded trace and exactnum time
is not charged to the caller's self time.

Binding: every by-name reference to a wrapped function is replaced, not
only the one in its home module (``char_table`` is imported into
constel, taut, verify and cli; ``staircase`` into hilb and constel), and
so are references held in module-level lists and dicts
(``verify.CRITERIA``, ``cli.HANDLERS``).  ``Tracer.restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "dihedral_mckay"

LAYERS = (
    "verify",
    "exactnum",
    "reps",
    "constel",
    "polyring",
    "charts",
    "hilb",
    "intersect",
    "taut",
    "cli",
)

# Class methods traced in addition to the public module-level functions.
METHODS = {
    "exactnum": {"CycloElt": ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")},
    "constel": {"Constellation": ("__init__", "validate", "character")},
    "polyring": {"Ideal": ("normal_form",)},
    "intersect": {"CurveConfig": ("negative_definite",)},
    "taut": {"PairingTable": ("__init__",)},
}

CYCLO_OPS = tuple(
    f"exactnum.CycloElt.{op}" for op in ("__add__", "__sub__", "__mul__", "__neg__")
)

# Spans whose distinct arguments are recorded, for the reuse ratios.
KEYED = ("constel.socle_table", "hilb.boundary_intersection_numbers")


class BindingError(RuntimeError):
    """A named boundary is missing, or idle where it is predicted busy."""


def _calls(name):
    return lambda t: t.calls(name)


def _self(name):
    return lambda t: t.self_s(name)


def _total(name):
    return lambda t: t.total_s(name)


def _layer_self(layer):
    return lambda t: t.layer_self_s(layer)


def _reuse(name):
    return lambda t: (len(t.keys[name]) / t.calls(name)) if t.calls(name) else 0.0


# Per-layer metric name -> (unit, function of the finished Tracer).
METRICS = {}
for _k in range(1, 12):
    METRICS[f"verify.criterion_{_k}_s"] = ("s", _total(f"verify.criterion_{_k}"))
METRICS.update(
    {
        "exactnum.self_s": ("s", _layer_self("exactnum")),
        "exactnum.cyclo_ops": ("count", lambda t: sum(t.calls(op) for op in CYCLO_OPS)),
        "exactnum.cyc_mul.calls": ("count", _calls("exactnum.cyc_mul")),
        "exactnum.rational_value.calls": ("count", _calls("exactnum.rational_value")),
        "exactnum.phi_reductions": ("count", lambda t: t.phi_reductions),
        "reps.self_s": ("s", _layer_self("reps")),
        "reps.char_table.calls": ("count", _calls("reps.char_table")),
        "reps.char_table.hit_ratio": ("ratio", lambda t: t.char_table_hit_ratio()),
        "reps.inner_product.calls": ("count", _calls("reps.inner_product")),
        "reps.decompose.calls": ("count", _calls("reps.decompose")),
        "constel.self_s": ("s", _layer_self("constel")),
        "constel.constellations_built": ("count", _calls("constel.Constellation.__init__")),
        "constel.validate_s": ("s", _total("constel.Constellation.validate")),
        "constel.character.calls": ("count", _calls("constel.Constellation.character")),
        "constel.socle.calls": ("count", _calls("constel.socle")),
        "constel.top.calls": ("count", _calls("constel.top")),
        "constel.submodule_closure.calls": ("count", _calls("constel.submodule_closure")),
        "constel.theta_check.calls": ("count", _calls("constel.theta_check")),
        "constel.socle_table.calls": ("count", _calls("constel.socle_table")),
        "constel.socle_table.reuse_ratio": ("ratio", _reuse("constel.socle_table")),
        "polyring.self_s": ("s", _layer_self("polyring")),
        "polyring.groebner_basis.calls": ("count", _calls("polyring.groebner_basis")),
        "polyring.groebner_basis.self_s": ("s", _self("polyring.groebner_basis")),
        "polyring.normal_form.calls": ("count", _calls("polyring.Ideal.normal_form")),
        "polyring.staircase.calls": ("count", _calls("polyring.staircase")),
        "charts.self_s": ("s", _layer_self("charts")),
        "charts.express_monomial.calls": ("count", _calls("charts.express_monomial")),
        "charts.pullback_orders.calls": ("count", _calls("charts.pullback_orders")),
        "charts.verify_gluing.calls": ("count", _calls("charts.verify_gluing")),
        "hilb.self_s": ("s", _layer_self("hilb")),
        "hilb.cluster_ideal.calls": ("count", _calls("hilb.cluster_ideal")),
        "hilb.boundary_intersection_numbers.calls": (
            "count",
            _calls("hilb.boundary_intersection_numbers"),
        ),
        "hilb.boundary_intersection_numbers.reuse_ratio": (
            "ratio",
            _reuse("hilb.boundary_intersection_numbers"),
        ),
        "hilb.build_flop_atlas.calls": ("count", _calls("hilb.build_flop_atlas")),
        "intersect.self_s": ("s", _layer_self("intersect")),
        "intersect.z2_fold.calls": ("count", _calls("intersect.z2_fold")),
        "intersect.negative_definite.calls": (
            "count",
            _calls("intersect.CurveConfig.negative_definite"),
        ),
        "intersect.is_maximal.calls": ("count", _calls("intersect.is_maximal")),
        "taut.self_s": ("s", _layer_self("taut")),
        "taut.pairing_tables_built": ("count", _calls("taut.PairingTable.__init__")),
        "taut.torsion_check.calls": ("count", _calls("taut.torsion_check")),
        "taut.fm_cross_check.calls": ("count", _calls("taut.fm_cross_check")),
        "cli.calls": ("count", _calls("cli.main")),
        "cli.self_s": ("s", _layer_self("cli")),
    }
)

# Spans a metric above names; each must exist in the package.
NAMED = (
    [f"verify.criterion_{k}" for k in range(1, 12)]
    + list(CYCLO_OPS)
    + [
        "exactnum.cyc_mul",
        "exactnum.rational_value",
        "reps.char_table",
        "reps.inner_product",
        "reps.decompose",
        "constel.Constellation.__init__",
        "constel.Constellation.validate",
        "constel.Constellation.character",
        "constel.socle",
        "constel.top",
        "constel.submodule_closure",
        "constel.theta_check",
        "constel.socle_table",
        "polyring.groebner_basis",
        "polyring.Ideal.normal_form",
        "polyring.staircase",
        "charts.express_monomial",
        "charts.pullback_orders",
        "charts.verify_gluing",
        "hilb.cluster_ideal",
        "hilb.boundary_intersection_numbers",
        "hilb.build_flop_atlas",
        "intersect.z2_fold",
        "intersect.CurveConfig.negative_definite",
        "intersect.is_maximal",
        "taut.PairingTable.__init__",
        "taut.torsion_check",
        "taut.fm_cross_check",
        "cli.main",
    ]
)

_CONSTEL_BUSY = [
    "constel.Constellation.__init__",
    "constel.Constellation.validate",
    "constel.Constellation.character",
    "constel.socle",
    "constel.top",
    "constel.submodule_closure",
    "constel.theta_check",
    "constel.socle_table",
    "exactnum.rational_value",
    "reps.char_table",
    "reps.decompose",
    "polyring.Ideal.normal_form",
    "polyring.staircase",
    "polyring.groebner_basis",
    "hilb.cluster_ideal",
    "taut.fm_cross_check",
    "exactnum.CycloElt.__add__",
    "exactnum.CycloElt.__sub__",
    "exactnum.CycloElt.__mul__",
]

_GEOMETRY_BUSY = [
    "polyring.groebner_basis",
    "polyring.staircase",
    "charts.express_monomial",
    "charts.pullback_orders",
    "hilb.cluster_ideal",
    "hilb.boundary_intersection_numbers",
    "hilb.build_flop_atlas",
    "intersect.z2_fold",
    "intersect.CurveConfig.negative_definite",
    "intersect.is_maximal",
    "taut.PairingTable.__init__",
    "taut.torsion_check",
]

# Spans predicted to be called on each workload; zero calls fail the run.
BUSY = {
    "verify-full": sorted(
        set(_CONSTEL_BUSY + _GEOMETRY_BUSY)
        | {f"verify.criterion_{k}" for k in range(1, 12)}
        | {"exactnum.cyc_mul", "reps.inner_product", "charts.verify_gluing"}
    ),
    "modules-large-n": sorted(set(_CONSTEL_BUSY) | {"cli.main"}),
    "geometry-sweep": _GEOMETRY_BUSY,
}


class Tracer:
    """Wraps the package's layer boundaries and aggregates their spans."""

    def __init__(self):
        self.agg = {}  # (name, parent name) -> [calls, total_s, child_s]
        self.keys = {name: set() for name in KEYED}
        self.phi_reductions = 0
        self._stack = [["<root>", 0.0]]
        self._patched = []  # (setter, getter, owner, key, original) in patch order
        self._originals = {}  # span name -> original callable
        self.modules = {}

    # --- patching ---------------------------------------------------------

    def install(self):
        """Wrap every boundary; raise BindingError if a named one is missing."""
        for layer in LAYERS:
            self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        targets = {}  # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                targets[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in names:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is None:
                        continue
                    if id(fn) not in targets:
                        targets[id(fn)] = self._wrap(fn, f"{layer}.{fn.__qualname__}")
                    self._set(cls, meth, fn, targets[id(fn)])
        missing = [name for name in NAMED if name not in self._originals]
        if missing:
            raise BindingError(f"named boundaries missing from the package: {missing}")
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    self._set(mod, attr, obj, targets[id(obj)])
                elif type(obj) is list:
                    for i, item in enumerate(obj):
                        if id(item) in targets:
                            self._set_item(obj, i, item, targets[id(item)])
                elif type(obj) is dict:
                    for key, item in list(obj.items()):
                        if id(item) in targets:
                            self._set_item(obj, key, item, targets[id(item)])

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((setattr, getattr, owner, attr, original))

    def _set_item(self, container, key, original, wrapper):
        container[key] = wrapper
        self._patched.append(
            (type(container).__setitem__, type(container).__getitem__, container, key, original)
        )

    def restore(self):
        """Put every original callable back and check that it is back."""
        for put, get, owner, key, original in reversed(self._patched):
            put(owner, key, original)
        left = [key for _, get, owner, key, orig in self._patched if get(owner, key) is not orig]
        self._patched = []
        if left:
            raise BindingError(f"wrappers left in place after restore: {left}")

    def _wrap(self, fn, name):
        self._originals[name] = fn
        stack = self._stack
        agg = self.agg
        clock = time.perf_counter
        keys = self.keys.get(name)
        if keys is not None:
            sig = inspect.signature(fn)
        # A Phi_n reduction is a rational_value call on a non-constant
        # element, told apart with the (unwrapped) strict extractor.
        is_rational_value = name == "exactnum.rational_value"
        if is_rational_value:
            home = sys.modules[fn.__module__]
            expect_rational, not_rational = home.expect_rational, home.NotRational

        def span(*args, **kwargs):
            if keys is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.add(tuple(bound.arguments.values()))
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                if is_rational_value:
                    try:
                        expect_rational(args[0])
                    except not_rational:
                        self.phi_reductions += 1
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]

        return functools.update_wrapper(span, fn)

    # --- reading the trace ---------------------------------------------

    def calls(self, name):
        return sum(r[0] for (n, _), r in self.agg.items() if n == name)

    def total_s(self, name):
        return sum(r[1] for (n, _), r in self.agg.items() if n == name)

    def self_s(self, name):
        return sum(r[1] - r[2] for (n, _), r in self.agg.items() if n == name)

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(r[1] - r[2] for (n, _), r in self.agg.items() if n.startswith(prefix))

    def char_table_hit_ratio(self):
        info = self._originals["reps.char_table"].cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def check_busy(self, workload):
        idle = [name for name in BUSY[workload] if self.calls(name) == 0]
        if idle:
            raise BindingError(f"{workload}: predicted-busy boundaries got no calls: {idle}")

    def metrics(self):
        return {name: (fn(self), unit) for name, (unit, fn) in METRICS.items()}

    def spans(self):
        """The aggregated trace: one record per (name, parent)."""
        return [
            {
                "name": name,
                "parent": parent,
                "calls": r[0],
                "total_s": r[1],
                "self_s": r[1] - r[2],
            }
            for (name, parent), r in sorted(self.agg.items())
        ]

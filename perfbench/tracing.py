"""Per-layer tracing of multifan from outside the package.

`Tracer.install` replaces public functions and methods of every module of
the package with wrappers, at every name that binds them: the defining
module, each module that imported the name, and the package namespace.
Coarse functions get timed spans with a parent link (the span on top of
the stack when they were called); hot leaves such as `dot` and group
iteration only count calls.  A span's self time is its duration minus
the time of the spans it called.  `Tracer.uninstall` puts every original
object back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

WRAPPED = "_perfbench_original"

# Spans: public functions and methods, by module.  Cheap accessors
# (MultiFan.edge, MultiFan.dual_basis_of, LaurentSeries.coefficient, ...)
# are left out on purpose: their caller's self time absorbs them.
SPANS = {
    "lattices": [
        "hermite_normal_form", "smith_normal_form", "determinant", "rref", "rank",
        "kernel_basis", "matrix_inverse", "dual_basis", "solve_in_span",
        "integral_solution", "quotient_group", "annihilator_basis",
        "plane_line_intersection", "primitive_vector", "scale_to_integer",
    ],
    "fans": [
        "MultiFan.__init__", "MultiFan.faces_of_card", "MultiFan.cones_containing",
        "MultiFan.face_coordinates", "is_generic", "degree", "sample_generic_vector",
        "chamber_vectors", "precompleteness", "is_precomplete", "project",
        "is_complete", "fan_degree", "star_subdivide", "projective_space_fan",
        "random_complete_fan",
    ],
    "cyclotomic": [
        "CyclotomicNumber.__add__", "CyclotomicNumber.__radd__",
        "CyclotomicNumber.__neg__", "CyclotomicNumber.__sub__",
        "CyclotomicNumber.__rsub__", "CyclotomicNumber.__mul__",
        "CyclotomicNumber.__rmul__", "CyclotomicNumber.__truediv__",
        "CyclotomicNumber.__rtruediv__", "CyclotomicNumber.__eq__",
        "CyclotomicNumber.inverse", "CyclotomicNumber.promote",
        "root_of_unity", "common_conductor", "cyclotomic_polynomial",
        "LaurentSeries.__add__", "LaurentSeries.__sub__", "LaurentSeries.__mul__",
        "LaurentSeries.scale", "LaurentSeries.is_zero_on",
        "todd_factor_series", "exp_series",
    ],
    "facering": [
        "EquivariantClass.__init__", "EquivariantClass.__add__",
        "EquivariantClass.__mul__", "EquivariantClass.__sub__",
        "ray_class", "face_class", "embed_weight", "SupportClass.restrict",
        "SupportClass.is_T_Cartier", "SupportClass.to_class", "SupportClass.scale",
        "restrict_eval", "pushforward_eval", "p_star", "graded_monomials",
        "CohomologyQuotient.__init__", "CohomologyQuotient.reduce",
    ],
    "polytopes": [
        "MultiPolytope.__init__", "MultiPolytope.top_cones", "dh_evaluate",
        "count_bruteforce", "count_formula", "count_face", "volume",
    ],
    "todd": [
        "ascending_subsets", "wedge_coordinates", "wedge_pair", "face_wedge",
        "sample_generic_plane", "morelli_coefficient", "todd_face_coefficient",
        "todd_pushforward", "todd_genus", "ehrhart_coefficients",
        "face_decomposition_residual", "cohomology_decomposition_residual",
        "spanning_classes", "cone_todd_series", "check_subdivision_cover",
        "subdivision_residual",
    ],
    "fanio": [
        "format_rational", "parse_rational", "parse_document", "load_document",
        "render_document", "document_from_fan", "FanDocument.fan",
        "FanDocument.support",
    ],
    "cli": [
        "main", "cmd_validate", "cmd_ehrhart", "cmd_count", "cmd_volume",
        "cmd_todd", "cmd_morelli", "cmd_subdivide_check",
    ],
}

# Count-only wrappers on hot leaves.
COUNTERS = {"lattices": ["dot"]}
GROUP_ITER = ("lattices", "FiniteAbelianGroup.__iter__")

SERIES_NAMES = ("LaurentSeries.", "todd_factor_series", "exp_series")


def layer_of(module: str, qualname: str) -> str:
    """Layer name of a span; cyclotomic splits into scalar and series."""
    if module == "cyclotomic":
        if qualname.startswith(SERIES_NAMES):
            return "cyclotomic.series"
        return "cyclotomic.scalar"
    return module


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.stack = []  # [span name, time of child spans]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # inclusive time of outermost calls
        self.depth = Counter()
        self.values = Counter()  # observed quantities, e.g. group orders
        self.maxima = Counter()
        self.layer = {}  # span name -> layer
        self._patches = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack = self.stack
        calls = self.calls
        depth = self.depth
        self_s = self.self_s
        outer_s = self.outer_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                self_s[name] += elapsed - frame[1]
                if not depth[name]:
                    outer_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, parent, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _group_iter(self, name, fn):
        calls = self.calls

        def wrapper(group):
            for item in fn(group):
                calls[name] += 1
                yield item

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper, original):
        setattr(wrapper, WRAPPED, original)
        for key in ("__name__", "__qualname__", "__doc__", "__module__"):
            try:
                setattr(wrapper, key, getattr(original, key))
            except AttributeError:
                pass
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _bind(self, package_modules, module, qualname, make):
        """Wrap `module.qualname` at every name that binds it.

        A name the package no longer defines raises AttributeError: the
        metrics built on it would read 0 and pass for a speed-up, so a
        change to the layer map has to be made here.
        """
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            if attr not in vars(cls):
                raise AttributeError(f"{module.__name__}.{qualname} is not defined")
            original = vars(cls)[attr]
            self._patch(cls, attr, make(original), original)
            return
        original = getattr(module, qualname)
        wrapper = make(original)
        for mod in package_modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper, original)

    def install(self, package: str = "multifan") -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = {short: importlib.import_module(f"{package}.{short}") for short in SPANS}
        package_modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for short, names in SPANS.items():
            module = layers[short]
            for qualname in names:
                name = f"{short}.{qualname}"
                self.layer[name] = layer_of(short, qualname)
                observe = OBSERVERS.get(name)
                self._bind(package_modules, module, qualname,
                           lambda fn, name=name, observe=observe: self._span(name, fn, observe))
        for short, names in COUNTERS.items():
            module = layers[short]
            for qualname in names:
                name = f"{short}.{qualname}"
                self._bind(package_modules, module, qualname,
                           lambda fn, name=name: self._counter(name, fn))
        short, qualname = GROUP_ITER
        self._bind(package_modules, layers[short], qualname,
                   lambda fn: self._group_iter("ihloop.pairs", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum((t for name, t in self.self_s.items() if self.layer[name] == layer), 0.0)

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        c = self.calls
        v = self.values

        def calls_of(*names):
            return sum(c[n] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        pairs = c["ihloop.pairs"]
        mul = calls_of("cyclotomic.CyclotomicNumber.__mul__", "cyclotomic.CyclotomicNumber.__rmul__")
        planes = v["planes_accepted"]
        brute_points = v["brute_points"]
        return {
            "lattices.self_s": (self.layer_self_s("lattices"), "s"),
            "lattices.smith_calls": (c["lattices.smith_normal_form"], "count"),
            "lattices.quotient_group_calls": (c["lattices.quotient_group"], "count"),
            "lattices.group_elements": (v["group_elements"], "count"),
            "lattices.dot_calls": (c["lattices.dot"], "count"),
            "fans.self_s": (self.layer_self_s("fans"), "s"),
            "fans.precompleteness_s": (self.outer_s["fans.precompleteness"], "s"),
            "fans.sample_vector_calls": (c["fans.sample_generic_vector"], "count"),
            "fans.sample_accept_ratio": (
                ratio(c["fans.sample_generic_vector"], v["sampler_is_generic"]), "ratio"),
            "cyclotomic.scalar_self_s": (self.layer_self_s("cyclotomic.scalar"), "s"),
            "cyclotomic.mul_calls": (mul, "count"),
            "cyclotomic.add_calls": (
                calls_of("cyclotomic.CyclotomicNumber.__add__",
                         "cyclotomic.CyclotomicNumber.__radd__"), "count"),
            "cyclotomic.inverse_calls": (c["cyclotomic.CyclotomicNumber.inverse"], "count"),
            "cyclotomic.promote_calls": (v["promotions"], "count"),
            "cyclotomic.max_conductor": (self.maxima["conductor"], "count"),
            "cyclotomic.series_self_s": (self.layer_self_s("cyclotomic.series"), "s"),
            "cyclotomic.series_mul_calls": (c["cyclotomic.LaurentSeries.__mul__"], "count"),
            "cyclotomic.todd_factor_calls": (c["cyclotomic.todd_factor_series"], "count"),
            "cyclotomic.max_window": (self.maxima["window"], "count"),
            "ihloop.pairs": (pairs, "count"),
            "ihloop.scalar_mul_per_pair": (ratio(mul, pairs), "ratio"),
            "facering.self_s": (self.layer_self_s("facering"), "s"),
            "facering.p_star_calls": (c["facering.p_star"], "count"),
            "facering.pushforward_calls": (c["facering.pushforward_eval"], "count"),
            "todd.self_s": (self.layer_self_s("todd"), "s"),
            "todd.pushforward_s": (self.outer_s["todd.todd_pushforward"], "s"),
            "todd.ehrhart_s": (self.outer_s["todd.ehrhart_coefficients"], "s"),
            "todd.morelli_calls": (c["todd.morelli_coefficient"], "count"),
            "todd.face_residual_s": (self.outer_s["todd.face_decomposition_residual"], "s"),
            "todd.plane_accept_ratio": (
                ratio(planes, planes + v["planes_rejected"]), "ratio"),
            "polytopes.self_s": (self.layer_self_s("polytopes"), "s"),
            "polytopes.formula_s": (self.outer_s["polytopes.count_formula"], "s"),
            "polytopes.bruteforce_s": (self.outer_s["polytopes.count_bruteforce"], "s"),
            "polytopes.brute_points": (brute_points, "count"),
            "polytopes.brute_useful_ratio": (ratio(v["brute_nonzero"], brute_points), "ratio"),
            "fanio.parse_s": (self.outer_s["fanio.load_document"], "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
            "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
        }


# -- observers: record quantities a span returns or receives ------------------


def _observe_group(tracer, parent, args, result):
    tracer.values["group_elements"] += result.order


def _observe_promote(tracer, parent, args, result):
    number, m = args
    if result is not number:
        tracer.values["promotions"] += 1
        tracer.maxima["conductor"] = max(tracer.maxima["conductor"], m)


def _observe_root(tracer, parent, args, result):
    tracer.maxima["conductor"] = max(tracer.maxima["conductor"], result.conductor)


def _observe_window(tracer, parent, args, result):
    tracer.maxima["window"] = max(tracer.maxima["window"], len(result.coeffs))


def _observe_plane(tracer, parent, args, result):
    tracer.values["planes_accepted"] += 1
    tracer.values["planes_rejected"] += result.rejected


def _observe_generic(tracer, parent, args, result):
    if parent == "fans.sample_generic_vector":
        tracer.values["sampler_is_generic"] += 1


def _observe_dh(tracer, parent, args, result):
    if parent == "polytopes.count_bruteforce":
        tracer.values["brute_points"] += 1
        if result != 0:
            tracer.values["brute_nonzero"] += 1


OBSERVERS = {
    "lattices.quotient_group": _observe_group,
    "fans.is_generic": _observe_generic,
    "cyclotomic.CyclotomicNumber.promote": _observe_promote,
    "cyclotomic.root_of_unity": _observe_root,
    "cyclotomic.LaurentSeries.__mul__": _observe_window,
    "cyclotomic.todd_factor_series": _observe_window,
    "todd.sample_generic_plane": _observe_plane,
    "polytopes.dh_evaluate": _observe_dh,
}


def leftover_wrappers(package: str = "multifan") -> list:
    """Names in the package still bound to a tracing wrapper."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for name, value in vars(mod).items():
            if hasattr(value, WRAPPED):
                found.append(f"{modname}.{name}")
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPED):
                        found.append(f"{modname}.{name}.{attr}")
    return found

"""Outside-in tracer: spans around lctforge's public functions.

The program is not changed.  ``Tracer.install`` replaces each traced
function with a timing wrapper at every place it is looked up: the
module that defines it and every ``lctforge`` module that imported it
by name (``from .linprog import lp_optimize`` binds a second name, and
calls go through that one).  ``SparsePoly.__mul__`` and ``__rmul__``
are wrapped on the class.  ``uninstall`` puts the originals back, so
untraced and traced passes can run in one process.

A span is ``[name, start_ns, end_ns, parent, input_id]``, with parent
the index of the enclosing span or -1.  Spans stay in memory until the
caller writes them out.
"""

import functools
import inspect
import sys
from time import perf_counter_ns

# (span name, defining module, attribute) of the functions whose own
# metrics the benchmark reports.
TARGETS = [
    ("cli.main", "lctforge.cli", "main"),
    ("certs.parse_cert", "lctforge.certs", "parse_cert"),
    ("certs.run_certificate", "lctforge.certs", "run_certificate"),
    ("linprog.lp_optimize", "lctforge.linprog", "lp_optimize"),
    ("resolution.du_val_coefficient_bounds", "lctforge.resolution",
     "du_val_coefficient_bounds"),
    ("sparsepoly.poly_equal", "lctforge.sparsepoly", "poly_equal"),
    ("polyid.parse_polyid", "lctforge.polyid", "parse_polyid"),
    ("polyid.run_polyid", "lctforge.polyid", "run_polyid"),
    ("surfaces.parse_ledger", "lctforge.surfaces", "parse_ledger"),
    ("surfaces.ledger_consistency", "lctforge.surfaces",
     "ledger_consistency"),
    ("surfaces.amplitude", "lctforge.surfaces", "amplitude"),
]

# Modules whose public functions are all traced, one span name each,
# and summed into one `<module>.calls` / `<module>.self_s` pair.
WHOLE_MODULES = ["localineq", "lattice"]

MUL = "sparsepoly.mul"


def _bits(x):
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _terms(poly):
    return len(getattr(poly, "terms", ()))


class Tracer:
    def __init__(self):
        self.input_id = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.reset()

    # -------------------------------------------------------- recording

    def reset(self):
        self.spans = []
        self.counters = {"sparsepoly.term_products": 0,
                         "sparsepoly.max_terms": 0,
                         "resolution.maxima": 0,
                         "certs.steps": 0,
                         "certs.steps_error": 0,
                         "rational.max_bits": 0}

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, 0, 0, stack[-1] if stack else -1, self.input_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _max(self, key, value):
        if value > self.counters[key]:
            self.counters[key] = value

    def _before_mul(self, args):
        a, b = args
        self.counters["sparsepoly.term_products"] += \
            _terms(a) * (_terms(b) if hasattr(b, "terms") else 1)

    def _after_mul(self, args, result):
        self._max("sparsepoly.max_terms",
                  max(_terms(args[0]), _terms(args[1]), _terms(result)))

    def _after_lp(self, args, result):
        value = getattr(result, "value", None)
        if value is not None:
            self._max("rational.max_bits", _bits(value))
            for x in result.witness:
                self._max("rational.max_bits", _bits(x))

    def _after_duval(self, args, result):
        self.counters["resolution.maxima"] += len(result)

    def _after_run(self, args, result):
        for step in result.steps:
            self.counters["certs.steps"] += 1
            if step.status == "ERROR":
                self.counters["certs.steps_error"] += 1
            if step.value is not None:
                self._max("rational.max_bits", _bits(step.value))

    # ----------------------------------------------------- installation

    @staticmethod
    def _targets():
        """(span name, module, attribute) of every traced function.  A
        whole module that is not loaded is listed with attribute None."""
        out = list(TARGETS)
        for short in WHOLE_MODULES:
            name = f"lctforge.{short}"
            module = sys.modules.get(name)
            if module is None:
                out.append((short, name, None))
                continue
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == name):
                    out.append((f"{short}.{attr}", name, attr))
        return out

    def install(self):
        """Wrap every target at each of its lookup sites.  Returns the
        names of targets that could not be found."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lctforge" or name.startswith("lctforge.")]
        hooks = {
            "linprog.lp_optimize": (None, self._after_lp),
            "resolution.du_val_coefficient_bounds": (None, self._after_duval),
            "certs.run_certificate": (None, self._after_run),
        }
        missing = []
        for name, module_name, attr in self._targets():
            original = getattr(sys.modules.get(module_name), attr or "", None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original,
                                 *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        poly = getattr(sys.modules.get("lctforge.sparsepoly"), "SparsePoly",
                       None)
        if poly is None:
            missing.append(MUL)
        else:
            for attr in ("__mul__", "__rmul__"):
                original = poly.__dict__[attr]
                self._patches.append((poly, attr, original))
                setattr(poly, attr, self._wrap(MUL, original,
                                               self._before_mul,
                                               self._after_mul))
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ---------------------------------------------------------------- analysis


def self_times(spans):
    """Self time of each span in ns: its duration minus the time its
    child spans cover.  Spans come from one thread, so children of one
    span never overlap and their durations add."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _per(numerator, denominator, scale):
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(spans, counters, wall_s):
    """Per-layer metrics of one traced pass that took wall_s seconds."""
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for (name, *_), ns in zip(spans, selfs):
        for key in (name, name.split(".", 1)[0]):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + ns / 1e9
    # LP solves made on behalf of du_val_coefficient_bounds
    duval_lp = 0
    for name, _, _, parent, _ in spans:
        if name != "linprog.lp_optimize":
            continue
        while parent >= 0 and \
                spans[parent][0] != "resolution.du_val_coefficient_bounds":
            parent = spans[parent][3]
        duval_lp += parent >= 0

    def c(key):
        return calls.get(key, 0)

    def s(key):
        return self_s.get(key, 0.0)

    lp, duval, mul = ("linprog.lp_optimize",
                      "resolution.du_val_coefficient_bounds", MUL)
    steps = counters["certs.steps"]
    certs_self = s("certs.parse_cert") + s("certs.run_certificate")
    return {
        f"{lp}.calls": c(lp),
        f"{lp}.self_s": s(lp),
        f"{lp}.ms_per_call": _per(s(lp), c(lp), 1e3),
        f"{duval}.calls": c(duval),
        f"{duval}.self_s": s(duval),
        "resolution.lp_calls_per_bound":
            _per(duval_lp, counters["resolution.maxima"], 1),
        f"{mul}.calls": c(mul),
        f"{mul}.self_s": s(mul),
        "sparsepoly.term_products": counters["sparsepoly.term_products"],
        "sparsepoly.ns_per_term_product":
            _per(s(mul), counters["sparsepoly.term_products"], 1e9),
        "sparsepoly.max_terms": counters["sparsepoly.max_terms"],
        "sparsepoly.poly_equal.self_s": s("sparsepoly.poly_equal"),
        "polyid.parse_polyid.self_s": s("polyid.parse_polyid"),
        "polyid.run_polyid.self_s": s("polyid.run_polyid"),
        "certs.parse_cert.self_s": s("certs.parse_cert"),
        "certs.run_certificate.self_s": s("certs.run_certificate"),
        "certs.steps": steps,
        "certs.steps_error": counters["certs.steps_error"],
        "certs.us_per_step": _per(certs_self, steps, 1e6),
        "localineq.calls": c("localineq"),
        "localineq.self_s": s("localineq"),
        "localineq.us_per_call": _per(s("localineq"), c("localineq"), 1e6),
        "surfaces.parse_ledger.self_s": s("surfaces.parse_ledger"),
        "surfaces.ledger_consistency.self_s":
            s("surfaces.ledger_consistency"),
        "lattice.calls": c("lattice"),
        "lattice.self_s": s("lattice"),
        "cli.main.self_s": s("cli.main"),
        "rational.max_bits": counters["rational.max_bits"],
        "trace.coverage": _per(sum(selfs) / 1e9, wall_s, 1),
    }

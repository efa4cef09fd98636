"""Spans around the calls into each qrlab layer, installed from outside.

`Tracer.install` replaces every qrlab module's binding of each traced
function with a timing wrapper (modules import by name, so `conic` holds its
own `factorize` and `symbols` its own `is_probable_prime`), and `uninstall`
puts the originals back.  Spans stay in memory as tuples
(function id, start ns, end ns, parent span index, op id) until the run
ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict

# (layer, module, function) for every traced function; "Class.method" names
# a classmethod.  The cli layer is traced only to attribute its self time.
FUNCTIONS = (
    ("rational", "qrlab.rational", "factorize"),
    ("rational", "qrlab.rational", "is_probable_prime"),
    ("rational", "qrlab.rational", "rational_factor_exponents"),
    ("rational", "qrlab.rational", "vp_split"),
    ("rational", "qrlab.rational", "sqrt_mod_prime"),
    ("kernels", "qrlab.kernels", "trial_factor_range"),
    ("symbols", "qrlab.symbols", "legendre"),
    ("symbols", "qrlab.symbols", "eps4"),
    ("symbols", "qrlab.symbols", "eps8"),
    ("hilbert", "qrlab.hilbert", "hilbert_symbol"),
    ("hilbert", "qrlab.hilbert", "hilbert_vector"),
    ("hilbert", "qrlab.hilbert", "local_solve_witness"),
    ("padic", "qrlab.padic", "PAdicElement.from_rational"),
    ("padic", "qrlab.padic", "hensel_lift"),
    ("padic", "qrlab.padic", "padic_sqrt"),
    ("padic", "qrlab.padic", "square_class"),
    ("conic", "qrlab.conic", "solve_conic"),
    ("conic", "qrlab.conic", "descent_step"),
    ("cli", "qrlab.cli", "run"),
)
LAYERS = ("rational", "kernels", "symbols", "padic", "hilbert", "conic", "cli")
OP = "op"  # the root span the benchmark opens around each operation
NAMES = (OP,) + tuple(f"{layer}.{fn}" for layer, _, fn in FUNCTIONS)
_SOLVE_CONIC = NAMES.index("conic.solve_conic")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.op_id = -1
        self.depths: list[int] = []  # descent_depth of every solve_conic result
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fid: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op_id)
            if fid == _SOLVE_CONIC:
                self.depths.append(result.descent_depth)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, op, args):
        """Call op(args) inside a root span."""
        self.op_id = op_id
        return self._wrap(0, op)(args)

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("qrlab")]
        for fid, (_, modname, fn_name) in enumerate(FUNCTIONS, start=1):
            mod = sys.modules.get(modname)
            if mod is None:
                continue  # the workload never imports it, so never calls it
            if "." in fn_name:
                cls_name, attr = fn_name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                setattr(cls, attr, classmethod(self._wrap(fid, raw.__func__)))
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(mod, fn_name)
            wrapped = self._wrap(fid, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: str):
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op,name,start_ns,end_ns,parent\n")
            for fid, t0, t1, parent, op in self.spans:
                f.write(f"{op},{NAMES[fid]},{t0},{t1},{parent}\n")


# ---------------------------------------------------------------------------
# deriving the per-layer metrics

def self_times(spans) -> tuple[Counter, dict]:
    """(calls, self ns) per function id.  A span's self time is its duration
    minus the durations of its direct children; one thread runs them one at
    a time, so children never overlap each other."""
    calls: Counter = Counter()
    self_ns: dict = defaultdict(int)
    for fid, t0, t1, parent, _ in spans:
        d = t1 - t0
        calls[fid] += 1
        self_ns[fid] += d
        if parent >= 0:
            self_ns[spans[parent][0]] -= d
    return calls, self_ns


def layer_metrics(spans, depths, n_ops: int) -> dict[str, float]:
    """calls_per_op and self_ms_per_op per reported function, self_share per
    layer, and the descent depths of the solve_conic results."""
    calls, self_ns = self_times(spans)
    op_ns = sum(t1 - t0 for fid, t0, t1, _, _ in spans if fid == 0)
    out: dict[str, float] = {}
    for fid, (layer, _, fn) in enumerate(FUNCTIONS, start=1):
        if layer != "cli":
            out[f"{layer}.{fn}.calls_per_op"] = calls[fid] / n_ops
            out[f"{layer}.{fn}.self_ms_per_op"] = self_ns[fid] / 1e6 / n_ops
    for layer in LAYERS:
        ns = sum(self_ns[fid] for fid, f in enumerate(FUNCTIONS, start=1) if f[0] == layer)
        out[f"{layer}.self_share"] = ns / op_ns if op_ns else 0.0
    out["conic.descent_depth_mean"] = sum(depths) / len(depths) if depths else 0.0
    out["conic.descent_depth_max"] = float(max(depths, default=0))
    return out

"""Spans around calls into proxsplit, installed by wrapping at run time.

Every wrapped call records one span: its name (``module.Qualname``), start,
end, parent span and an integer tag (the operator a matvec or a norm
estimate works on, else -1).  Spans live in flat arrays in memory and are
written once, at the end of the run.  Self time is a span's duration minus
the time its child spans cover.

The traced run wraps every public function and public method of the layers
in ``LAYERS``.  The untraced run wraps only the calls that ``setup_s`` and
``solve_s`` are made of (``CORE``), a few per pass.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("ct", "rng", "linops", "prox", "product", "solvers", "cli")
SOLVES = {"solvers.solve_dfb": "dfb", "solvers.solve_pdfb": "pdfb",
          "solvers.solve_admm": "admm"}
# The set-up calls: instance build and assembly, and tv-denoise's own
# problem build in the benchmark's workloads module.
BUILD = ("ct.build_instance", "ct.PiccsInstance.composite",
         "ct.PiccsInstance.admm_problem", "workloads.tv_problems")
VALIDATE = "solvers.validate_params"
CORE = BUILD + (VALIDATE,) + tuple(SOLVES)
MATVECS = ("linops.LinearOperator.apply",
           "linops.LinearOperator.adjoint_apply")
NORM = "linops.op_norm_sq"
PROJECTOR = "ct.build_projector"


def matvec_bytes(rows, cols, nnz):
    """Computed, not measured, bytes one sparse matvec moves: 12 per stored
    nonzero (value and column index) plus the 8-byte input and output."""
    return 12 * nnz + 8 * (rows + cols)


def _public_callables(module):
    """(owner, attribute, span name) of each public function and method
    defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, fn in sorted(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield obj, attr, f"{layer}.{name}.{attr}"


class Tracer:
    """Records spans for the wrapped calls of one process."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.ops = []           # (rows, cols, nnz, op) per tagged operator
        self._op_ids = {}
        # (span, result or exception) of each solve and projector build
        self.captured = []

    # -- installation -----------------------------------------------------

    def install(self, full, own):
        """Wrap the traced set (``full``) or only ``CORE``, and the ``CORE``
        calls of the benchmark's own module ``own``."""
        import proxsplit
        mods = [sys.modules[f"proxsplit.{layer}"] for layer in LAYERS]
        everywhere = [proxsplit] + mods + [own]
        for module in mods + [own]:
            for owner, attr, span in _public_callables(module):
                if (not full or module is own) and span not in CORE:
                    continue
                orig = vars(owner)[attr]
                wrapped = self._wrap(orig, span)
                if inspect.isclass(owner):
                    setattr(owner, attr, wrapped)
                    continue
                # Rebind every module-level name of the function, so calls
                # made through another module's import see the wrapper.
                for mod in everywhere:
                    if vars(mod).get(attr) is orig:
                        setattr(mod, attr, wrapped)

    def _op(self, op):
        key = id(op)
        if key not in self._op_ids:
            mat = op.matrix
            nnz = mat.nnz if hasattr(mat, "nnz") else mat.size
            self._op_ids[key] = len(self.ops)
            self.ops.append((op.rows, op.cols, int(nnz), op))
        return self._op_ids[key]

    def _wrap(self, fn, span):
        nid = len(self.names)
        self.names.append(span)
        name, parent, tag = self.name, self.parent, self.tag
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tagged = span in MATVECS or span == NORM
        capture = span in SOLVES or span == PROJECTOR
        captured = self.captured

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            tag.append(self._op(args[0]) if tagged else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if capture:
                    captured.append((span, exc))
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if capture:
                captured.append((span, out))
            return out
        return wrapper

    # -- bookkeeping --------------------------------------------------------

    def mark(self):
        return len(self.start)

    def truncate(self, n):
        """Forget spans recorded after ``mark()`` returned ``n``."""
        for arr in (self.name, self.parent, self.tag, self.start, self.end):
            del arr[n:]

    def arrays(self, lo=0, hi=None):
        hi = len(self.start) if hi is None else hi
        return Spans(self.names,
                     np.array(self.name[lo:hi], np.int64),
                     np.array(self.parent[lo:hi], np.int64) - lo,
                     np.array(self.tag[lo:hi], np.int64),
                     np.array(self.start[lo:hi]),
                     np.array(self.end[lo:hi]))

    def write(self, path, run_id):
        """Write every span once, compressed, tagged with the run id."""
        s = self.arrays()
        np.savez_compressed(
            path, run_id=np.array(run_id), names=np.array(self.names),
            name=s.name, parent=s.parent, tag=s.tag, start=s.start,
            end=s.end,
            ops=np.array([o[:3] for o in self.ops], dtype=np.int64))


class Spans:
    """A contiguous slice of a tracer's spans, with derived quantities."""

    def __init__(self, names, name, parent, tag, start, end):
        self.names = names
        self.name, self.parent, self.tag = name, parent, tag
        self.start, self.end = start, end
        self.dur = end - start
        child = np.zeros(len(name))
        inside = parent >= 0
        np.add.at(child, parent[inside], self.dur[inside])
        self.self_time = self.dur - child
        layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
        self.layer = layer_of[name] if len(name) else np.array([], str)

    def of(self, *spans):
        """Boolean mask of the spans named ``spans``."""
        ids = [self.names.index(s) for s in spans if s in self.names]
        return np.isin(self.name, ids)

    def within(self, *spans):
        """Mask of spans that are, or descend from, a span named ``spans``.

        Each sweep extends the mask one level down the call tree.
        """
        out = self.of(*spans)
        has = self.parent >= 0
        while True:
            grown = out.copy()
            grown[has] |= out[self.parent[has]]
            if (grown == out).all():
                return out
            out = grown

    def outermost(self, mask):
        """Spans in ``mask`` whose parent is not in ``mask``."""
        par_in = np.zeros(len(mask), bool)
        has = self.parent >= 0
        par_in[has] = mask[self.parent[has]]
        return mask & ~par_in

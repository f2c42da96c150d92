"""Per-layer spans recorded from outside the program.

The tracer times calls into each layer's public functions by replacing
those functions with timing wrappers for the duration of one traced
drive and putting the originals back afterwards, so untraced runs
execute the program's own code unchanged.  Nothing inside ``src/`` is
instrumented.

A span is one outermost call into a layer.  Spans nest per thread
(a DT-CWT forward on the FPGA engine contains the HLS line calls it
makes), and a layer's *self* time is its span time minus the time of
the child spans it contains, so the self times of all layers plus the
unattributed remainder add up to the wall time of a single-threaded
drive.  A call into a layer from inside the same layer (``frame_time``
calling ``forward_time``) is part of the outer span, not a new call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layers whose spans are waiting, not work: they overlap other
#: threads' work, so they stay out of the wall-time budget
WAIT_LAYERS = ("serve.admission_wait", "serve.lease_wait")


def _bytes_pushed(args, result) -> Dict[str, float]:
    return {"video.bt656_bytes": len(args[1])}


def _lease_granted(args, result) -> Dict[str, float]:
    return {"serve.leases_granted": 0 if result is None else 1}


#: (module, class or None for a module function, functions, layer,
#: optional counter hook called with (args, result) after each span)
TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str,
                     Optional[Callable]], ...] = (
    ("repro.video.webcam", "WebcamSimulator", ("capture",),
     "video.webcam", None),
    ("repro.video.thermal", "ThermalCameraSimulator", ("capture_bt656",),
     "video.thermal_encode", None),
    ("repro.video.bt656", "Bt656Decoder", ("push_bytes",),
     "video.bt656_decode", _bytes_pushed),
    ("repro.video.scaler", "VideoScaler", ("scale",), "video.scaler", None),
    # the session imports these two by name, so its module globals are
    # the call sites to replace
    ("repro.session.session", None, ("resize_to",), "session.resize", None),
    ("repro.session.session", None, ("fusion_report",), "core.metrics",
     None),
    ("repro.graph.planner", "Planner", ("lower",), "graph.lower", None),
    ("repro.hw.engine", "Engine",
     ("frame_time", "forward_time", "inverse_time", "fusion_time"),
     "hw.cost_model", None),
    ("repro.dtcwt.transform2d", "Dtcwt2D", ("forward", "forward_batch"),
     "dtcwt.forward", None),
    ("repro.dtcwt.transform2d", "Dtcwt2D", ("inverse", "inverse_batch"),
     "dtcwt.inverse", None),
    ("repro.hw.hls", "HlsWaveletEngine", ("forward_line", "inverse_line"),
     "hw.hls", None),
    ("repro.core.fusion", "ImageFusion",
     ("combine", "combine_many", "combine_stack", "combine_stack_many"),
     "core.fusion_rules", None),
    ("repro.serve.admission", "AdmissionController", ("admit",),
     "serve.admission_wait", None),
    ("repro.serve.pool", "EnginePool", ("lease", "try_lease"),
     "serve.lease_wait", _lease_granted),
)


def _owners(module: str, cls: Optional[str], name: str) -> List[object]:
    """Every object whose own namespace defines ``name``: the module,
    or the class and each subclass overriding it (engine subclasses
    each define their own ``forward_time``)."""
    mod = importlib.import_module(module)
    if cls is None:
        return [mod]
    pending, owners = [getattr(mod, cls)], []
    while pending:
        klass = pending.pop()
        if inspect.isfunction(klass.__dict__.get(name)):
            owners.append(klass)
        pending.extend(klass.__subclasses__())
    return owners


class Tracer:
    """Records spans while installed (use as a context manager).

    ``phase`` tags every span with the part of the run it belongs to
    (``"setup"`` while constructing, ``"drive"`` while streaming), so
    construction-time layers report per construction and frame-time
    layers per frame.
    """

    def __init__(self):
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (phase, layer) -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[Tuple[str, str], float] = {}
        self._installed: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for module, cls, names, layer, hook in TARGETS:
                for name in names:
                    for owner in _owners(module, cls, name):
                        original = (getattr(owner, name) if cls is None
                                    else owner.__dict__[name])
                        self._installed.append((owner, name, original))
                        setattr(owner, name,
                                self._wrap(original, layer, hook))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original function back, in reverse order."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- spans -------------------------------------------------------------
    def _stack(self) -> List[List[object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, hook: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]  # layer, seconds covered by children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer._record(layer, elapsed, elapsed - frame[1])
            if hook is not None:
                tracer._count(hook(args, result))
            return result
        return traced

    def _record(self, layer: str, inclusive: float, own: float) -> None:
        with self._lock:
            row = self.spans.setdefault((self.phase, layer), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += inclusive
            row[2] += own

    def _count(self, increments: Dict[str, float]) -> None:
        with self._lock:
            for name, value in increments.items():
                key = (self.phase, name)
                self.counters[key] = self.counters.get(key, 0.0) + value

    # -- results -----------------------------------------------------------
    def calls(self, phase: str, layer: str) -> int:
        return int(self.spans.get((phase, layer), (0, 0.0, 0.0))[0])

    def inclusive_s(self, phase: str, layer: str) -> float:
        return self.spans.get((phase, layer), (0, 0.0, 0.0))[1]

    def self_s(self, phase: str, layer: str) -> float:
        return self.spans.get((phase, layer), (0, 0.0, 0.0))[2]

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get((phase, name), 0.0)

    def work_self_s(self, phase: str) -> float:
        """Self seconds of every work layer in ``phase``."""
        return sum(row[2] for (p, layer), row in self.spans.items()
                   if p == phase and layer not in WAIT_LAYERS)

"""Per-layer span ledger, recorded from the benchmark's own files.

:class:`Ledger` wraps the public functions of each layer the P3 paths
cross, records a span per call, and turns the spans into a per-request
ledger of call counts and self time.  A span's self time is its
duration minus the time its child spans cover, so the self times of
one request's spans add up to the time spent inside named layers.

Spans nest through a :class:`contextvars.ContextVar`: every asyncio
task carries its own chain, and work the front door offloads to its
thread pool is run inside a copy of the offloading task's context, so
pool-thread spans are children of the request that caused them.

Code the simulated provider runs (its decode, resizes and re-encodes)
is recorded under ``system.psp.<function>`` instead of the function's
own layer, so the codec rows show P3's work only.

:meth:`Ledger.install` patches every binding of a target in the
loaded ``repro`` modules and :meth:`Ledger.restore` puts each original
back; the untraced run executes the unmodified program.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Module-level functions: (module, attribute, span name).
FUNCTIONS = (
    ("repro.jpeg.codec", "decode_coefficients", "jpeg.codec.decode_coefficients"),
    ("repro.jpeg.codec", "encode_coefficients", "jpeg.codec.encode_coefficients"),
    ("repro.jpeg.dct", "inverse_dct", "jpeg.dct.inverse_dct"),
    ("repro.jpeg.dct", "forward_dct", "jpeg.dct.forward_dct"),
    ("repro.jpeg.decoder", "coefficients_to_planes", "jpeg.decoder.coefficients_to_planes"),
    ("repro.jpeg.color", "ycbcr_to_rgb", "jpeg.color.ycbcr_to_rgb"),
    ("repro.jpeg.color", "rgb_to_ycbcr", "jpeg.color.rgb_to_ycbcr"),
    ("repro.transforms.resize", "resize_plane", "transforms.resize.resize_plane"),
    ("repro.core.splitting", "split_image", "core.splitting.split_image"),
    ("repro.core.serialization", "serialize_secret", "core.serialization.serialize_secret"),
    ("repro.core.serialization", "deserialize_secret", "core.serialization.deserialize_secret"),
    ("repro.crypto.envelope", "seal_envelope", "crypto.envelope.seal_envelope"),
    ("repro.crypto.envelope", "open_envelope", "crypto.envelope.open_envelope"),
    (
        "repro.core.linear",
        "reconstruct_transformed_planes",
        "core.linear.reconstruct_transformed_planes",
    ),
    ("repro.system.gateway", "pixel_response", "system.gateway.pixel_response"),
)

#: Methods: (module, class, method, span name).
METHODS = (
    ("repro.system.psp", "PhotoSharingProvider", "upload", "system.psp.upload"),
    ("repro.system.psp", "PhotoSharingProvider", "download", "system.psp.download"),
    ("repro.system.storage", "CloudStorage", "put", "system.storage.put"),
    ("repro.system.storage", "CloudStorage", "get", "system.storage.get"),
    ("repro.serve.engine", "ServingEngine", "serve", "serve.engine.serve"),
    ("repro.serve.engine", "ServingEngine", "serve_cached", "serve.engine.serve_cached"),
    ("repro.system.gateway", "P3Gateway", "handle", "system.gateway.handle"),
    ("repro.system.gateway", "P3Gateway", "view_request", "system.gateway.view_request"),
    ("repro.serve.admission", "AdmissionController", "try_admit", "serve.admission.try_admit"),
    ("repro.serve.admission", "AdmissionController", "release", "serve.admission.release"),
)

#: Coroutine methods: (module, class, method, span name).
COROUTINES = (
    ("repro.serve.async_gateway", "AsyncGateway", "handle", "serve.async_gateway.handle"),
    ("repro.serve.async_gateway", "AsyncGateway", "_await_grant", "serve.admission.queue_wait"),
    ("repro.api.executors", "AsyncExecutor", "offload", "api.executors.offload"),
)

#: Spans that are the front door's own dispatch, not a stage of work:
#: their self time counts as unattributed in :meth:`Ledger.coverage`.
DISPATCH = ("serve.async_gateway.handle", "api.executors.offload")

#: Spans whose inclusive time is reported too (the simulator's total).
INCLUSIVE = ("system.psp.upload", "system.psp.download")

#: Byte counts: span name -> how to size one call.
BYTES = {
    "system.storage.put": lambda args, result: len(args[2]),
    "system.storage.get": lambda args, result: len(result),
}

PSP_PREFIX = "system.psp."

_current: contextvars.ContextVar["Frame | None"] = contextvars.ContextVar(
    "p3bench_span", default=None
)


class Frame:
    """One open span."""

    __slots__ = ("name", "parent", "child_s", "in_psp")

    def __init__(self, name: str, parent: "Frame | None") -> None:
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.in_psp = name.startswith(PSP_PREFIX) or (
            parent is not None and parent.in_psp
        )


class Ledger:
    """Span totals for one traced phase."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.bytes: dict[str, int] = defaultdict(int)
        self.requests = 0
        self.request_s = 0.0
        self.request_self_s = 0.0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> tuple[Frame, contextvars.Token]:
        parent = _current.get()
        if parent is not None and parent.in_psp and not name.startswith(PSP_PREFIX):
            name = PSP_PREFIX + name.rsplit(".", 1)[-1]
        frame = Frame(name, parent)
        return frame, _current.set(frame)

    def _close(
        self, frame: Frame, token: contextvars.Token, elapsed: float
    ) -> None:
        _current.reset(token)
        with self._lock:
            self.calls[frame.name] += 1
            self.self_s[frame.name] += elapsed - frame.child_s
            self.total_s[frame.name] += elapsed
            if frame.parent is not None:
                frame.parent.child_s += elapsed

    def begin_request(self) -> tuple[Frame, contextvars.Token, float]:
        """Open the root span of one client request."""
        frame = Frame("request", None)
        return frame, _current.set(frame), time.perf_counter()

    def end_request(
        self, opened: tuple[Frame, contextvars.Token, float]
    ) -> None:
        frame, token, start = opened
        elapsed = time.perf_counter() - start
        _current.reset(token)
        with self._lock:
            self.requests += 1
            self.request_s += elapsed
            self.request_self_s += elapsed - frame.child_s

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sizer = BYTES.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame, token = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, token, time.perf_counter() - start)
            if sizer is not None:
                size = sizer(args, result)
                with self._lock:
                    self.bytes[name] += size
            return result

        return span

    def _wrap_coroutine(self, name: str, fn: Callable) -> Callable:
        offload = name == "api.executors.offload"

        @functools.wraps(fn)
        async def span(*args, **kwargs):
            frame, token = self._open(name)
            start = time.perf_counter()
            try:
                if offload:
                    # run_in_executor does not carry context variables
                    # into the pool thread; run the work inside a copy
                    # of this task's context so its spans nest here.
                    executor, work, item = args
                    context = contextvars.copy_context()
                    args = (executor, functools.partial(context.run, work), item)
                return await fn(*args, **kwargs)
            finally:
                self._close(frame, token, time.perf_counter() - start)

        return span

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`restore` undoes exactly this."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for module_name, attribute, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self._wrap(span_name, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for targets, wrap in ((METHODS, self._wrap), (COROUTINES, self._wrap_coroutine)):
            for module_name, class_name, method, span_name in targets:
                owner = getattr(importlib.import_module(module_name), class_name)
                self._patch(owner, method, wrap(span_name, owner.__dict__[method]))

    def _patch(self, owner: Any, attribute: str, wrapper: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every original binding back, in reverse order."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- the per-request ledger -----------------------------------------------

    def coverage(self) -> float:
        """Share of request wall time spent inside a named layer below
        the front door's dispatch."""
        if self.request_s <= 0:
            return 0.0
        unattributed = self.request_self_s + sum(
            self.self_s.get(name, 0.0) for name in DISPATCH
        )
        return 1.0 - unattributed / self.request_s

    def per_request(self) -> dict[str, float]:
        """Every span's calls and self milliseconds per request."""
        n = max(self.requests, 1)
        rows: dict[str, float] = {}
        for name in sorted(self.calls):
            rows[f"{name}.calls"] = self.calls[name] / n
            rows[f"{name}.self_ms"] = self.self_s[name] * 1000.0 / n
            if name in INCLUSIVE:
                rows[f"{name}.total_ms"] = self.total_s[name] * 1000.0 / n
        for name, size in self.bytes.items():
            rows[f"{name}.bytes"] = size / n
        return rows


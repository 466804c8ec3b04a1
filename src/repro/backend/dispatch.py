"""Backend registry and ambient selection: ``get_backend`` / ``use_backend``.

The engines (:mod:`repro.simulation.batch`, :mod:`repro.simulation.scenarios`,
:mod:`repro.simulation.dynamics`, :mod:`repro.simulation.topology`) never
import an array library directly for their tensor math; they ask this module
for the *active* :class:`ArrayBackend` and call its ops.  Selection is
ambient, so swapping the array library requires no engine-code changes:

* ``use_backend("numpy")`` — a re-entrant context manager pushing a backend
  onto a per-process stack (innermost wins, nesting restores the outer
  choice on exit);
* ``REPRO_BACKEND`` — the environment variable consulted when the stack is
  empty (read at call time, so test harnesses can monkeypatch it);
* the default — the NumPy reference backend, bit-identical to the
  pre-backend engines.

Backends are registered as zero-argument factories, mirroring the delay-model
registry of :mod:`repro.simulation.topology`; instances are cached after the
first successful construction (backends are stateless dispatch tables).  A
name that is not registered, or a factory whose optional dependency is
missing, raises :class:`~repro.errors.BackendUnavailableError` — callers
that probe for a backend catch that one class and fall back or skip.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

from ..errors import BackendError, BackendUnavailableError

__all__ = [
    "ArrayBackend",
    "ARRAY_OPS",
    "register_backend",
    "get_backend",
    "use_backend",
    "list_backends",
    "backend_specs",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
]

#: Environment variable naming the backend used when no ``use_backend``
#: context is active.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The backend used when neither a context nor the environment selects one.
DEFAULT_BACKEND = "numpy"

#: The array operations every backend must provide — the complete tensor-op
#: surface of the four engine modules.  Anything an engine hot path needs
#: and is not listed here must go through Python operators (``+``, ``>``,
#: ``&``, fancy indexing), which dispatch through the array type itself.
ARRAY_OPS = (
    # creation / conversion
    "asarray",
    "ascontiguousarray",
    "zeros",
    "empty",
    "full",
    "arange",
    "tile",
    "concatenate",
    "pad",
    "copy",
    # elementwise (all accept ``out=``)
    "add",
    "subtract",
    "multiply",
    "maximum",
    "minimum",
    "equal",
    "greater",
    "greater_equal",
    "less_equal",
    "logical_and",
    "logical_or",
    "logical_not",
    "where",
    "copyto",
    # scans
    "cumsum",
    "maximum_accumulate",
    "minimum_accumulate",
    # indexing / sorting
    "nonzero",
    "argsort",
    # host boundary
    "from_host",
    "to_host",
    # host-seeded RNG bridge
    "binomial",
    "random",
    "integers",
    "geometric",
)

#: Dtype attributes every backend exposes (native dtype objects).
DTYPE_ATTRS = ("int64", "int32", "uint8", "bool_", "float64", "float32")


class ArrayBackend:
    """One array library's dispatch table for the engine tensor ops.

    Subclasses provide every name in :data:`ARRAY_OPS` (as methods or
    staticmethod-wrapped library functions) and every dtype attribute in
    :data:`DTYPE_ATTRS`.  Two contracts keep results reproducible across
    backends:

    * **host-seeded RNG bridging** — the random ops (``binomial``,
      ``random``, ``integers``, ``geometric``) always draw on the *host*
      through the caller's :class:`numpy.random.Generator` and then move the
      tensor to the device via ``from_host``.  One seed therefore produces
      one bit stream no matter which backend executes the math.
    * **host boundary** — engine results are converted back to host NumPy
      with ``to_host`` before they reach result objects, caches or the
      analysis layer, which stay backend-agnostic consumers.
    """

    name: str = "abstract"

    def payload(self) -> Dict[str, object]:
        """Primary fields as a plain dict (diagnostics / cache keys)."""
        return {"name": self.name}

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()!r})"


_REGISTRY: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
#: The ``use_backend`` stack; innermost entry wins.
_ACTIVE: List[ArrayBackend] = []


def register_backend(
    name: str, factory: Callable[[], ArrayBackend], overwrite: bool = False
) -> None:
    """Register a zero-argument backend factory under ``name``."""
    if not name:
        raise BackendError("backend name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise BackendError(
            f"backend {name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def list_backends() -> List[str]:
    """Names of all registered backends, sorted (availability not probed)."""
    return sorted(_REGISTRY)


def _build(name: str) -> ArrayBackend:
    if name in _INSTANCES:
        return _INSTANCES[name]
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BackendUnavailableError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None
    backend = factory()
    if not isinstance(backend, ArrayBackend):
        raise BackendError(
            f"backend factory {name!r} returned {backend!r}, "
            "not an ArrayBackend"
        )
    _INSTANCES[name] = backend
    return backend


def get_backend(backend: Union[None, str, ArrayBackend] = None) -> ArrayBackend:
    """Resolve the active backend.

    ``None`` consults the ambient selection: the innermost ``use_backend``
    context if one is active, else the :data:`BACKEND_ENV_VAR` environment
    variable, else :data:`DEFAULT_BACKEND`.  A string is looked up in the
    registry; an :class:`ArrayBackend` instance passes through unchanged.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is not None:
        return _build(backend)
    if _ACTIVE:
        return _ACTIVE[-1]
    # An unset *or empty* variable means the default — CI matrices and
    # shell scripts routinely export FOO="" for the baseline leg.
    return _build(os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND)


@contextmanager
def use_backend(backend: Union[str, ArrayBackend]) -> Iterator[ArrayBackend]:
    """Make ``backend`` the ambient selection for the context's duration.

    Contexts nest: the innermost selection wins and exiting restores the
    enclosing one, so a sweep can pin a backend for one grid while a
    library-internal helper temporarily drops back to NumPy.
    """
    resolved = get_backend(backend)
    _ACTIVE.append(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.pop()


def backend_specs() -> Dict[str, Dict[str, object]]:
    """Name → payload (or availability error) for every registered backend.

    Unavailable backends report ``{"available": False, "error": ...}``
    instead of raising, so introspection never crashes on a machine without
    a registered backend's optional dependencies.
    """
    specs: Dict[str, Dict[str, object]] = {}
    for name in list_backends():
        try:
            payload = _build(name).payload()
            payload.setdefault("available", True)
            specs[name] = payload
        except BackendError as error:
            specs[name] = {"name": name, "available": False, "error": str(error)}
    return specs

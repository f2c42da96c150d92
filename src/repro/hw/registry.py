"""The engine registry: name -> factory, the one table every layer
resolves engine names through.

:func:`create_engine` builds one engine, :func:`create_engines` a
serving pool's inventory, and :func:`default_engines` /
:func:`precision_candidates` the ARM/NEON/FPGA trio a session's
adaptive or online binding chooses from; a lowered plan builds only
the forced placements its binding lacks.  An out-of-tree backend calls
:func:`register_engine` to become selectable by name everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .arm import ArmEngine
from .engine import Engine
from .fpga import FpgaEngine
from .gpu import GpuEngine
from .jit import JitEngine
from .neon import NeonEngine

#: The paper's engine trio, in presentation order.  Extension engines
#: (jit, gpu) are registered and selectable by name, but scheduler
#: defaults stay pinned to this set so default behaviour (and every
#: seeded parity figure) is unchanged by registering more engines.
DEFAULT_ENGINE_NAMES: Tuple[str, ...] = ("arm", "neon", "fpga")

#: Name -> zero-argument factory.  Insertion order is meaningful: it is
#: the paper's presentation order (ARM scalar, NEON SIMD, FPGA) and the
#: order :func:`default_engines` returns, which schedulers rely on
#: (e.g. the per-level scheduler runs the fusion stage on entry 0).
_REGISTRY: Dict[str, Callable[[], Engine]] = {}


def register_engine(name: str, factory: Callable[[], Engine],
                    replace: bool = False) -> None:
    """Make ``factory`` selectable as ``name`` throughout the package."""
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"engine name must be a non-empty string, "
                                 f"got {name!r}")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"engine {name!r} is already registered; pass replace=True "
            f"to override it"
        )
    _REGISTRY[name] = factory


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def create_engine(name: str) -> Engine:
    """Instantiate the engine registered as ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
    return factory()


def create_engines(spec: Union[Mapping[str, int], Sequence[str]]
                   ) -> Tuple[Engine, ...]:
    """Instantiate a mixed set of engines from ``spec``.

    ``spec`` is either a mapping of engine name -> instance count
    (``{"arm": 1, "fpga": 2}``) or a plain sequence of names, repeats
    allowed (``("arm", "fpga", "fpga")``).  This is the constructor
    behind :class:`repro.serve.EnginePool`: a serving deployment
    describes its hardware inventory once, declaratively, and every
    instance comes from the registry factory for its name — so leased
    instances of one name are freely interchangeable without changing
    results.
    """
    if isinstance(spec, Mapping):
        pairs = []
        for name, count in spec.items():
            if not isinstance(count, int) or count < 1:
                raise ConfigurationError(
                    f"engine count for {name!r} must be a positive "
                    f"integer, got {count!r}")
            pairs.extend(name for _ in range(count))
    elif isinstance(spec, (list, tuple)):
        pairs = list(spec)
    else:
        raise ConfigurationError(
            f"engine spec must be a name->count mapping or a sequence "
            f"of engine names, got {spec!r}")
    if not pairs:
        raise ConfigurationError("engine spec cannot be empty")
    return tuple(create_engine(name) for name in pairs)


def default_engines() -> Tuple[Engine, ...]:
    """One instance of each of the paper's three engines.

    Deliberately *not* "everything registered": the adaptive/online
    schedulers and the sweep runner consume this set, and growing it
    implicitly whenever an extension engine is registered would
    silently change default scheduling decisions.
    Extension engines participate by explicit selection
    (``engine="jit"``, forced stage placement).
    """
    return tuple(create_engine(name) for name in DEFAULT_ENGINE_NAMES)


def precision_candidates(precision: Union[str, None] = None
                         ) -> Tuple[Engine, ...]:
    """The default engine set narrowed to a working precision.

    ``None`` (engine-native) keeps the full paper trio; an explicit
    precision drops engines whose datapath cannot run it (the
    float32-only FPGA under ``"float64"``).  Schedulers consume this so
    a precision-pinned session never selects an engine that would have
    to silently change dtype.
    """
    engines = default_engines()
    if precision is None:
        return engines
    return tuple(e for e in engines
                 if precision in e.supported_precisions)


register_engine("arm", ArmEngine)
register_engine("neon", NeonEngine)
register_engine("fpga", FpgaEngine)
register_engine("jit", JitEngine)
register_engine("gpu", GpuEngine)

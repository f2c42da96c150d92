"""Common interface of the modelled compute engines (ARM, NEON, FPGA, ...).

An engine bundles two things, mirroring the paper's methodology:

* a **functional path** — a :class:`repro.dtcwt.Dtcwt2D` wired to the
  engine's kernel backend, so every engine *actually computes* the
  transform (results are cross-checked in the tests), and
* an **analytic timing model** — one method, :meth:`Engine.passes_time`,
  prices a list of filtering passes (:mod:`repro.hw.work`) in a given
  direction, decomposed the way the paper discusses (compute /
  transfer / command / overhead).  Every modelled transform time is
  that price: the whole-image forward and inverse times below, and
  the per-level prices the
  :class:`~repro.core.adaptive.PerLevelScheduler` composes.  Whole
  images are evaluated once per configuration and memoized
  process-wide.

The fusion rule always executes on the ARM (the paper accelerates only
the transforms), so :meth:`Engine.fusion_time` is shared.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..dtcwt.backend import KernelBackend
from ..dtcwt.coeffs import DtcwtBanks, dtcwt_banks
from ..dtcwt.transform2d import Dtcwt2D
from ..errors import ConfigurationError
from ..types import FrameShape, TimingBreakdown
from .calibration import DEFAULT_CALIBRATION, Calibration
from .platform import DEFAULT_PLATFORM, ZynqPlatform
from .work import FilterPass, WorkModel

#: Process-wide cost-model memo: (kind, engine type, platform,
#: calibration, id(banks), engine parameters, shape, levels[, sources])
#: -> (banks, breakdown).  ``DtcwtBanks`` holds arrays and cannot be
#: hashed, so it is keyed by identity; the entry keeps a strong
#: reference so that id is never reused while the entry lives.  The
#: table holds one entry per configuration a process asks about and is
#: never evicted: a model result cannot go stale.
_MODEL_MEMO: Dict[tuple, Tuple[DtcwtBanks, TimingBreakdown]] = {}

_T = TypeVar("_T")


def by_direction(direction: str, forward: _T, inverse: _T) -> _T:
    """``forward`` or ``inverse``, as ``direction`` names."""
    if direction == "forward":
        return forward
    if direction == "inverse":
        return inverse
    raise ConfigurationError(
        f"direction must be 'forward' or 'inverse', got {direction!r}")


class Engine(ABC):
    """One way of executing the DT-CWT transforms on the ZYNQ."""

    #: short identifier used in reports ("arm", "neon", "fpga")
    name: str = "engine"
    #: key into the power model for the whole-pipeline execution mode
    power_mode: str = "arm"
    #: working precisions this engine's datapath can run; the FIRST
    #: entry is the engine's *native* precision, used when no explicit
    #: precision is requested (``None``).  Every modelled device is
    #: float32-native like the HLS datapath; most also accept an
    #: explicit float64 request, the FPGA being the hardware-fixed
    #: exception.
    supported_precisions: Tuple[str, ...] = ("float32", "float64")

    def __init__(self, platform: ZynqPlatform = DEFAULT_PLATFORM,
                 calibration: Calibration = DEFAULT_CALIBRATION,
                 banks: Optional[DtcwtBanks] = None):
        self.platform = platform
        self.calibration = calibration
        self.banks = banks if banks is not None else dtcwt_banks()

    # ------------------------------------------------------------------
    # functional path
    # ------------------------------------------------------------------
    def make_backend(self, precision: Optional[str] = None):
        """A fresh kernel backend computing this engine's arithmetic.

        ``precision`` is ``None`` (engine-native — every output stays
        bitwise-identical to the historical default) or one of
        :attr:`supported_precisions`.  Host engines share the one
        host formulation (:class:`~repro.dtcwt.backend.KernelBackend`)
        and differ only in their cost models; the FPGA overrides this
        with the HLS datapath emulation.
        """
        return KernelBackend(dtype=self.working_dtype(precision))

    def working_dtype(self, precision: Optional[str] = None) -> np.dtype:
        """The numpy dtype the backend will compute in, after
        validating ``precision`` against :attr:`supported_precisions`."""
        if precision is None:
            precision = self.supported_precisions[0]
        if precision not in self.supported_precisions:
            raise ConfigurationError(
                f"engine {self.name!r} does not support precision "
                f"{precision!r}; supported: {self.supported_precisions}"
            )
        return np.dtype(precision)

    def transform(self, levels: int = 3,
                  precision: Optional[str] = None) -> Dtcwt2D:
        """A ready-to-use functional transform on this engine."""
        return Dtcwt2D(levels=levels, banks=self.banks,
                       backend=self.make_backend(precision))

    # ------------------------------------------------------------------
    # analytic timing
    # ------------------------------------------------------------------
    #
    # The public methods are the memoized entry points (see
    # ``_MODEL_MEMO``).  The live model is ``_forward_time``/
    # ``_inverse_time``: one image's pass list priced by
    # :meth:`passes_time`, which stays the reference the memoized
    # results are checked against.
    def forward_time(self, shape: FrameShape, levels: int = 3) -> TimingBreakdown:
        """Latency of the forward DT-CWT of ONE image."""
        return self._memoized("forward", self._forward_time, shape, levels)

    def inverse_time(self, shape: FrameShape, levels: int = 3) -> TimingBreakdown:
        """Latency of the inverse DT-CWT producing ONE image."""
        return self._memoized("inverse", self._inverse_time, shape, levels)

    def fusion_time(self, shape: FrameShape, levels: int = 3) -> TimingBreakdown:
        """Latency of the coefficient fusion rule (always on the ARM)."""
        return self._memoized("fusion", self._fusion_time, shape, levels)

    def frame_time(self, shape: FrameShape, levels: int = 3,
                   sources: int = 2) -> TimingBreakdown:
        """Latency of one fused frame: ``sources`` forwards, fusion, one
        inverse.

        The paper's pair (``sources=2``) is the quantity Fig. 9(b)
        plots (x10 frames).
        """
        if sources < 1:
            raise ConfigurationError(
                f"a fused frame needs at least one source, got {sources}")
        return self._memoized("frame", self._frame_time, shape, levels,
                              sources)

    @abstractmethod
    def passes_time(self, passes: Sequence[FilterPass],
                    direction: str) -> TimingBreakdown:
        """Latency of running ``passes`` (all ``"forward"`` or all
        ``"inverse"``, per ``direction``) on this engine: the one
        pass-pricing method of the timing model."""

    def _forward_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        """Live model of :meth:`forward_time`."""
        return self.passes_time(
            self.work_model(shape, levels).forward_passes(), "forward")

    def _inverse_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        """Live model of :meth:`inverse_time`."""
        return self.passes_time(
            self.work_model(shape, levels).inverse_passes(), "inverse")

    def _fusion_time(self, shape: FrameShape, levels: int) -> TimingBreakdown:
        work = self.work_model(shape, levels)
        seconds = work.fusion_coefficients() * self.calibration.arm_fuse_coeff_s
        return TimingBreakdown(compute_s=seconds)

    def _frame_time(self, shape: FrameShape, levels: int,
                    sources: int) -> TimingBreakdown:
        fwd = self.forward_time(shape, levels)
        total = fwd
        for _ in range(sources - 1):
            total = total + fwd
        return total + self.fusion_time(shape, levels) \
            + self.inverse_time(shape, levels)

    def _model_params(self) -> Tuple[Hashable, ...]:
        """Engine-specific model inputs beyond platform, calibration
        and banks (part of the memo key)."""
        return ()

    def _memoized(self, kind: str, live: Callable[..., TimingBreakdown],
                  *args: Hashable) -> TimingBreakdown:
        key = (kind, type(self), self.platform, self.calibration,
               id(self.banks), self._model_params()) + args
        entry = _MODEL_MEMO.get(key)
        if entry is None:
            # threads racing here may each evaluate the model; the
            # first stored entry wins and every caller gets that one
            entry = _MODEL_MEMO.setdefault(key, (self.banks, live(*args)))
        return entry[1]

    def forward_stage_time(self, shape: FrameShape, levels: int = 3) -> float:
        """Seconds of forward-transform work per fused frame (two images).

        Matches what Fig. 9(a) plots per frame.
        """
        return 2.0 * self.forward_time(shape, levels).total_s

    def inverse_stage_time(self, shape: FrameShape, levels: int = 3) -> float:
        """Seconds of inverse-transform work per fused frame (Fig. 9(c))."""
        return self.inverse_time(shape, levels).total_s

    def work_model(self, shape: FrameShape, levels: int) -> WorkModel:
        return WorkModel(shape, levels=levels, banks=self.banks)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"

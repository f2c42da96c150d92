"""Model of the paper's kernel-level Linux driver (Section V, Fig. 5).

The real driver ``kmalloc``s physically-contiguous buffers the
accelerator can master, exposes them to user space through ``mmap`` and
steers data movement with ``ioctl`` (read/write offsets into the kernel
memory).  The kernel memory is split into **two areas** so that the user
-space ``memcpy`` of one area overlaps the hardware's processing of the
other — the double-buffering pipeline drawn in Fig. 5.

This module models both the *protocol* (so the FPGA engine exercises
realistic mmap/ioctl sequences and the tests can assert on protocol
violations) and the *timing* (an event-driven simulation of the Fig. 5
schedule that the FPGA timing estimator uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from ..errors import DriverError
from ..types import TimingBreakdown
from .platform import DEFAULT_PLATFORM, ZynqPlatform

# ioctl command numbers (arbitrary but stable, like a real driver header)
IOCTL_SET_READ_OFFSET = 0x5701
IOCTL_SET_WRITE_OFFSET = 0x5702
IOCTL_GET_PHYS_ADDR = 0x5703
IOCTL_SELECT_AREA = 0x5704

#: Simulated physical base address of the kmalloc'd region.
_PHYS_BASE = 0x1F00_0000


@dataclass
class KernelBuffer:
    """One ``kmalloc`` allocation: physical address + backing storage."""

    phys_addr: int
    words: int
    storage: np.ndarray

    @classmethod
    def allocate(cls, words: int, phys_addr: int) -> "KernelBuffer":
        return cls(phys_addr=phys_addr, words=words,
                   storage=np.zeros(words, dtype=np.float32))


@dataclass
class PassCost:
    """Cost of a single accelerator invocation, as seen by the driver.

    ``ps_in_s``/``ps_out_s`` are the user-space memcpy times for the
    input and output payloads; ``hw_s`` the PL-side latency;
    ``cmd_s`` the per-activation control cost (completion check,
    ioctl, AXI-Lite command writes).
    """

    ps_in_s: float
    ps_out_s: float
    hw_s: float
    cmd_s: float


class WaveletDriver:
    """Protocol + timing model of the wavelet-engine character device."""

    def __init__(self, platform: ZynqPlatform = DEFAULT_PLATFORM):
        self.platform = platform
        area = platform.buffer_area_words
        self._input = KernelBuffer.allocate(platform.io_buffer_words, _PHYS_BASE)
        self._output = KernelBuffer.allocate(
            platform.io_buffer_words, _PHYS_BASE + 4 * platform.io_buffer_words
        )
        self._area_words = area
        self._read_offset = 0
        self._write_offset = 0
        self._mapped: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    def mmap(self, which: str) -> np.ndarray:
        """Map a kernel buffer into user space (returns a live view)."""
        buf = self._buffer(which)
        view = buf.storage.view()
        self._mapped[buf.phys_addr] = view
        return view

    def ioctl(self, command: int, arg: int = 0) -> int:
        """Driver control calls, mirroring the paper's offset mechanism."""
        if command == IOCTL_SET_READ_OFFSET:
            self._check_offset(arg)
            self._read_offset = arg
            return 0
        if command == IOCTL_SET_WRITE_OFFSET:
            self._check_offset(arg)
            self._write_offset = arg
            return 0
        if command == IOCTL_GET_PHYS_ADDR:
            if arg == 0:
                return self._input.phys_addr
            if arg == 1:
                return self._output.phys_addr
            raise DriverError(f"unknown buffer selector {arg}")
        if command == IOCTL_SELECT_AREA:
            if arg not in range(self.platform.io_buffer_areas):
                raise DriverError(
                    f"area {arg} out of range "
                    f"(platform has {self.platform.io_buffer_areas})"
                )
            offset = arg * self._area_words
            self._read_offset = offset
            self._write_offset = offset
            return 0
        raise DriverError(f"unknown ioctl command 0x{command:04x}")

    @property
    def read_offset(self) -> int:
        return self._read_offset

    @property
    def write_offset(self) -> int:
        return self._write_offset

    @property
    def area_words(self) -> int:
        """Words per double-buffer area; bounds the line length."""
        return self._area_words

    def write_line(self, data: np.ndarray, area: int = 0) -> np.ndarray:
        """User-space memcpy of one line into an input buffer area."""
        data = np.asarray(data, dtype=np.float32)
        if len(data) > self._area_words:
            raise DriverError(
                f"line of {len(data)} words exceeds the {self._area_words}-word "
                "buffer area (the paper supports widths up to 2048 pixels)"
            )
        self.ioctl(IOCTL_SELECT_AREA, area)
        start = self._read_offset
        self._input.storage[start: start + len(data)] = data
        return self._input.storage[start: start + len(data)]

    def read_line(self, words: int, area: int = 0) -> np.ndarray:
        """User-space memcpy of one result line out of an output area."""
        if words > self._area_words:
            raise DriverError(
                f"read of {words} words exceeds the {self._area_words}-word area"
            )
        self.ioctl(IOCTL_SELECT_AREA, area)
        start = self._write_offset
        return self._output.storage[start: start + words].copy()

    def store_result(self, data: np.ndarray, area: int = 0) -> None:
        """Hardware-side write of results into an output area."""
        data = np.asarray(data, dtype=np.float32)
        if len(data) > self._area_words:
            raise DriverError("hardware result exceeds buffer area")
        start = area * self._area_words
        self._output.storage[start: start + len(data)] = data

    def _buffer(self, which: str) -> KernelBuffer:
        if which == "input":
            return self._input
        if which == "output":
            return self._output
        raise DriverError(f"unknown buffer {which!r} (use 'input'/'output')")

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset < self.platform.io_buffer_words:
            raise DriverError(
                f"offset {offset} outside the {self.platform.io_buffer_words}-word "
                "kernel buffer"
            )

    # ------------------------------------------------------------------
    # Fig. 5 schedule simulation
    # ------------------------------------------------------------------
    def schedule(self, passes: Iterable[PassCost],
                 double_buffered: bool = True) -> TimingBreakdown:
        """Simulate the driver's pipeline over a sequence of invocations.

        With double buffering the user-space memcpys of pass ``i+1``
        (input) and pass ``i-1`` (output) run while the hardware chews
        on pass ``i``; the per-activation command cost always
        serializes (the app must observe completion before activating).
        Without double buffering everything serializes, which is the
        ablation case for ``benchmarks/bench_double_buffering.py``.
        """
        passes = list(passes)
        if not passes:
            return TimingBreakdown()

        compute = transfer = command = 0.0
        if not double_buffered:
            for cost in passes:
                command += cost.cmd_s
                transfer += cost.ps_in_s + cost.ps_out_s
                compute += cost.hw_s
        else:
            # Double-buffered pipeline: in steady state each slot overlaps
            # the hardware run of pass i with the PS-side copies of
            # neighbours.
            transfer += passes[0].ps_in_s  # fill the first buffer
            for i, cost in enumerate(passes):
                command += cost.cmd_s
                ps_overlapped = cost.ps_out_s
                if i + 1 < len(passes):
                    ps_overlapped += passes[i + 1].ps_in_s
                compute += cost.hw_s
                slack = ps_overlapped - cost.hw_s
                if slack > 0.0:  # PS copies are the bottleneck of this slot
                    transfer += slack
        return TimingBreakdown(compute_s=compute, transfer_s=transfer,
                               command_s=command)

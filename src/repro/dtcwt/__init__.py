"""Wavelet substrate: DT-CWT, DWT and the filter banks they use.

Public entry points:

* :func:`repro.dtcwt.forward` / :func:`repro.dtcwt.inverse` — one-shot
  2-D DT-CWT.
* :class:`repro.dtcwt.Dtcwt2D` — reusable transform object (choose
  levels, banks, backend).
* :class:`repro.dtcwt.Dwt2D` — classic real DWT baseline.
* :func:`repro.dtcwt.dtcwt_banks` — filter construction (see
  :mod:`repro.dtcwt.coeffs` for the design methods).
"""

from .backend import NUMBA_AVAILABLE, KernelBackend, ScratchPool
from .coeffs import (
    BiorthogonalBank,
    DtcwtBanks,
    QshiftBank,
    biorthogonal_bank,
    dtcwt_banks,
    orthonormal_dwt_filter,
    qshift_bank,
)
from .dwt import Dwt2D, DwtPyramid, subband_mosaic
from .filter_analysis import (
    BankCharacterization,
    characterize,
    frequency_response,
    stopband_attenuation_db,
    vanishing_moments,
)
from .transform1d import (
    Dtcwt1D,
    Dtcwt1dPyramid,
    analytic_quality,
    equivalent_complex_wavelet,
)
from .transform2d import (
    ORIENTATIONS,
    Dtcwt2D,
    DtcwtPyramid,
    c2q,
    forward,
    inverse,
    q2c,
)

__all__ = [
    "KernelBackend",
    "ScratchPool",
    "NUMBA_AVAILABLE",
    "BiorthogonalBank",
    "DtcwtBanks",
    "QshiftBank",
    "biorthogonal_bank",
    "dtcwt_banks",
    "orthonormal_dwt_filter",
    "qshift_bank",
    "Dwt2D",
    "DwtPyramid",
    "subband_mosaic",
    "BankCharacterization",
    "characterize",
    "frequency_response",
    "stopband_attenuation_db",
    "vanishing_moments",
    "Dtcwt1D",
    "Dtcwt1dPyramid",
    "analytic_quality",
    "equivalent_complex_wavelet",
    "ORIENTATIONS",
    "Dtcwt2D",
    "DtcwtPyramid",
    "c2q",
    "q2c",
    "forward",
    "inverse",
]

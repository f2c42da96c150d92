"""2-D DT-CWT: perfect reconstruction, structure, unitarity, edge cases."""

import numpy as np
import pytest

from repro.dtcwt import Dtcwt2D, dtcwt_banks
from repro.dtcwt.backend import KernelBackend
from repro.dtcwt.transform2d import ORIENTATIONS, c2q, q2c
from repro.errors import TransformError


class TestPerfectReconstruction:
    @pytest.mark.parametrize("shape", [(72, 88), (24, 32), (40, 40), (48, 64)])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_roundtrip(self, rng, shape, levels):
        x = rng.standard_normal(shape)
        t = Dtcwt2D(levels=levels)
        assert np.max(np.abs(t.inverse(t.forward(x)) - x)) < 1e-10

    def test_odd_sizes_pad_and_crop(self, rng):
        x = rng.standard_normal((35, 35))
        t = Dtcwt2D(levels=3)
        rec = t.inverse(t.forward(x))
        assert rec.shape == (35, 35)
        assert np.max(np.abs(rec - x)) < 1e-10

    def test_constant_image(self):
        x = np.full((32, 32), 7.0)
        t = Dtcwt2D(levels=2)
        pyr = t.forward(x)
        # a constant image has (almost) no high-pass energy
        for band in pyr.highpasses:
            assert np.max(np.abs(band)) < 1e-9
        assert np.max(np.abs(t.inverse(pyr) - x)) < 1e-10

    def test_float32_backend_roundtrip(self, rng):
        x = rng.standard_normal((24, 32)).astype(np.float32)
        t = Dtcwt2D(levels=3, backend=KernelBackend(dtype=np.float32))
        rec = t.inverse(t.forward(x))
        assert rec.dtype == np.float32
        assert np.max(np.abs(rec - x)) < 1e-4

    def test_12tap_paper_banks_roundtrip(self, rng):
        x = rng.standard_normal((40, 40))
        t = Dtcwt2D(levels=3, banks=dtcwt_banks(qshift_length=12))
        assert np.max(np.abs(t.inverse(t.forward(x)) - x)) < 1e-10

    def test_legall_banks_roundtrip(self, rng):
        x = rng.standard_normal((32, 32))
        t = Dtcwt2D(levels=2, banks=dtcwt_banks(level1="legall53"))
        assert np.max(np.abs(t.inverse(t.forward(x)) - x)) < 1e-10


class TestPyramidStructure:
    def test_band_shapes(self, rng):
        x = rng.standard_normal((72, 88))
        pyr = Dtcwt2D(levels=3).forward(x)
        assert [h.shape for h in pyr.highpasses] == [
            (6, 36, 44), (6, 18, 22), (6, 9, 11)]
        assert pyr.lowpass.shape == (2, 2, 9, 11)
        assert pyr.levels == 3
        assert pyr.original_shape == (72, 88)

    def test_bands_are_complex(self, rng):
        pyr = Dtcwt2D(levels=2).forward(rng.standard_normal((32, 32)))
        for band in pyr.highpasses:
            assert np.iscomplexobj(band)

    def test_orientation_count(self):
        assert len(ORIENTATIONS) == 6

    def test_total_coefficients(self, rng):
        pyr = Dtcwt2D(levels=2).forward(rng.standard_normal((32, 32)))
        expected = (6 * 16 * 16) + (6 * 8 * 8) + (4 * 8 * 8)
        assert pyr.total_coefficients == expected

    def test_copy_is_deep(self, rng):
        pyr = Dtcwt2D(levels=1).forward(rng.standard_normal((16, 16)))
        dup = pyr.copy()
        dup.highpasses[0][:] = 0
        assert np.max(np.abs(pyr.highpasses[0])) > 0

    def test_level_mismatch_raises(self, rng):
        t2, t3 = Dtcwt2D(levels=2), Dtcwt2D(levels=3)
        pyr = t2.forward(rng.standard_normal((32, 32)))
        with pytest.raises(TransformError):
            t3.inverse(pyr)

    def test_bad_levels_raises(self):
        with pytest.raises(TransformError):
            Dtcwt2D(levels=0)


class TestQ2C:
    def test_roundtrip_exact(self, rng):
        quads = [rng.standard_normal((8, 8)) for _ in range(4)]
        z_pos, z_neg = q2c(*quads)
        back = c2q(z_pos, z_neg)
        for original, recovered in zip(quads, back):
            assert np.allclose(original, recovered)

    def test_unitary(self, rng):
        """q2c preserves energy (it is an orthonormal change of basis)."""
        quads = [rng.standard_normal((8, 8)) for _ in range(4)]
        z_pos, z_neg = q2c(*quads)
        energy_in = sum(float(np.sum(q ** 2)) for q in quads)
        energy_out = float(np.sum(np.abs(z_pos) ** 2 + np.abs(z_neg) ** 2))
        assert np.isclose(energy_in, energy_out)


class TestLinearity:
    def test_transform_is_linear(self, rng):
        t = Dtcwt2D(levels=2)
        x = rng.standard_normal((32, 32))
        y = rng.standard_normal((32, 32))
        pyr_sum = t.forward(2.0 * x + 3.0 * y)
        pyr_x = t.forward(x)
        pyr_y = t.forward(y)
        for level in range(2):
            combined = 2.0 * pyr_x.highpasses[level] + 3.0 * pyr_y.highpasses[level]
            assert np.allclose(pyr_sum.highpasses[level], combined, atol=1e-10)

    def test_energy_conservation(self, rng):
        """Level-1 redundancy is exactly 4x; the transform's total energy
        relates to the input through the tight frame property."""
        t = Dtcwt2D(levels=3)
        x = rng.standard_normal((64, 64))
        pyr = t.forward(x)
        total = (float(np.sum(np.abs(pyr.lowpass) ** 2))
                 + sum(float(np.sum(np.abs(h) ** 2)) for h in pyr.highpasses))
        input_energy = float(np.sum(x ** 2))
        # 4:1 redundant tight-ish frame: energy close to 4x input energy
        assert 3.5 * input_energy < total < 4.5 * input_energy


class TestShiftInvariance:
    """The property that justifies the DT-CWT in the paper (Section III)."""

    @staticmethod
    def _band_energy_cv(transform, image, level, axis):
        energies = []
        for shift in range(8):
            pyr = transform.forward(np.roll(image, shift, axis=axis))
            energies.append(float(np.sum(np.abs(pyr.highpasses[level]) ** 2)))
        energies = np.asarray(energies)
        return float(energies.std() / energies.mean())

    def test_dtcwt_much_more_stable_than_dwt(self):
        from repro.dtcwt import Dwt2D
        yy, xx = np.mgrid[0:64, 0:64]
        image = np.exp(-((yy - 32) ** 2) / 18.0) * np.cos(0.4 * xx)

        t_cplx = Dtcwt2D(levels=3)
        cv_dtcwt = self._band_energy_cv(t_cplx, image, level=2, axis=0)

        t_real = Dwt2D(levels=3)
        energies = []
        for shift in range(8):
            pyr = t_real.forward(np.roll(image, shift, axis=0))
            energies.append(float(np.sum(pyr.details[2] ** 2)))
        energies = np.asarray(energies)
        cv_dwt = float(energies.std() / energies.mean())

        assert cv_dtcwt < 0.02, f"DT-CWT shift CV too high: {cv_dtcwt}"
        assert cv_dtcwt < cv_dwt / 20.0, (
            f"DT-CWT ({cv_dtcwt:.4f}) should be far more stable "
            f"than DWT ({cv_dwt:.4f})"
        )

    def test_shift_by_full_period_is_exact(self, rng):
        """Shifting by 2^levels samples permutes coefficients exactly."""
        t = Dtcwt2D(levels=2)
        x = rng.standard_normal((32, 32))
        base = t.forward(x)
        shifted = t.forward(np.roll(x, 4, axis=0))
        rolled = np.roll(base.highpasses[1], 1, axis=1)
        assert np.allclose(np.abs(shifted.highpasses[1]),
                           np.abs(rolled), atol=1e-9)


class TestOrientationSelectivity:
    def test_oriented_gratings_excite_distinct_bands(self):
        """+45 and -45 degree gratings must energize different subbands —
        the directionality that separates DT-CWT from the real DWT."""
        yy, xx = np.mgrid[0:64, 0:64]
        plus45 = np.cos(0.8 * (xx + yy))
        minus45 = np.cos(0.8 * (xx - yy))
        t = Dtcwt2D(levels=2)

        def band_energies(img):
            pyr = t.forward(img)
            return np.array([float(np.sum(np.abs(pyr.highpasses[0][b]) ** 2))
                             for b in range(6)])

        e_plus = band_energies(plus45)
        e_minus = band_energies(minus45)
        assert int(np.argmax(e_plus)) != int(np.argmax(e_minus))
        # each grating concentrates energy: dominant band >= 2x the median
        for energies in (e_plus, e_minus):
            assert energies.max() > 2.0 * np.median(energies)

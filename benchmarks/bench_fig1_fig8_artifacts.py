"""Fig. 1 and Fig. 8 — the paper's illustrative figures, as artifacts.

* Fig. 1 is the classic DWT sub-band mosaic; regenerated from the real
  transform and saved as a PGM.
* Fig. 8 shows the three demo frames (webcam / thermal / fused);
  regenerated by running the actual capture+fusion system and composing
  the triptych panel.

Artifacts land in ``benchmarks/artifacts/`` so a reviewer can open
them next to the paper.
"""

from pathlib import Path

import numpy as np

from repro.dtcwt import Dwt2D, subband_mosaic
from repro.io import colorize_fusion, write_pgm, write_ppm
from repro.session import CaptureChainSource, FusionConfig, FusionSession
from repro.types import FrameShape
from repro.video.display import triptych
from repro.video.scene import SyntheticScene

from conftest import format_line

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"


def test_fig1_dwt_mosaic(report):
    scene = SyntheticScene(width=128, height=128, seed=8)
    image = scene.render_visible(0.0)
    pyramid = Dwt2D(levels=3).forward(image)
    mosaic = subband_mosaic(pyramid)

    # normalize band energies for display (sub-bands are small-amplitude)
    display = np.abs(mosaic)
    lowpass_rows = pyramid.lowpass.shape[0]
    display[:lowpass_rows, :pyramid.lowpass.shape[1]] = \
        pyramid.lowpass / pyramid.lowpass.max() * 255.0
    high = display[display > 0]
    scale = np.percentile(high, 99) if high.size else 1.0
    display = np.clip(display / scale * 255.0, 0, 255)

    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / "fig1_dwt_mosaic.pgm"
    write_pgm(path, display)
    report(format_line("Fig. 1 DWT sub-band mosaic", "3-level layout",
                       str(path.name)))

    assert mosaic.shape == (128, 128)
    assert path.exists() and path.stat().st_size > 128 * 128


def test_fig8_demo_frames(report):
    source = CaptureChainSource(scene=SyntheticScene(seed=2016))
    with FusionSession(FusionConfig(engine="neon",
                                    fusion_shape=FrameShape(88, 72),
                                    levels=3,
                                    quality_metrics=False)) as session:
        record, = session.stream(source, limit=1)

    panel = triptych(record.visible, record.thermal,
                     record.frame.pixels.astype(np.float64))
    ARTIFACTS.mkdir(exist_ok=True)
    panel_path = ARTIFACTS / "fig8_triptych.pgm"
    write_pgm(panel_path, panel)
    overlay_path = ARTIFACTS / "fig8_hot_overlay.ppm"
    write_ppm(overlay_path,
              colorize_fusion(record.frame.pixels, record.thermal))
    report(format_line("Fig. 8 demo frames", "webcam|thermal|fused",
                       f"{panel_path.name}, {overlay_path.name}"))

    assert panel_path.exists()
    assert overlay_path.exists()
    # the fused frame carries content from both sources
    fused = record.frame.pixels.astype(np.float64)
    corr_v = np.corrcoef(fused.ravel(), record.visible.ravel())[0, 1]
    corr_t = np.corrcoef(fused.ravel(), record.thermal.ravel())[0, 1]
    assert corr_v > 0.2 and corr_t > 0.2


def test_triptych_kernel(benchmark, rng=None):
    rng = np.random.default_rng(9)
    frames = [rng.uniform(0, 255, (72, 88)) for _ in range(3)]
    panel = benchmark(triptych, *frames)
    assert panel.dtype == np.uint8

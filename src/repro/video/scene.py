"""Synthetic multi-sensor scene model.

The paper's cameras watch a real scene (a person in a lab, Fig. 8); we
have no cameras, so this module renders a *shared world* into the two
modalities the system fuses:

* the **visible** rendering sees reflectance: textured background,
  high-frequency structure, illumination and shadows — but warm objects
  may be low contrast (a person in the dark);
* the **thermal** rendering sees temperature: warm bodies glow
  regardless of illumination, backgrounds are flat, optics are soft and
  the sensor adds NETD noise — but surface texture is invisible.

Because both renderings sample the same geometry, fusion genuinely adds
information (the motivating property of multi-sensor fusion), and the
ground-truth world lets tests assert that fused frames contain both the
visible-only texture and the thermal-only targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..errors import VideoError


@dataclass
class WarmObject:
    """A moving warm target (person, vehicle) in world coordinates.

    Positions are fractions of the scene extent; velocity in fractions
    per second.  ``visible_contrast`` is deliberately small for people
    in low light — the case where fusion pays off.
    """

    x: float
    y: float
    vx: float
    vy: float
    radius: float
    temperature_c: float = 34.0
    visible_contrast: float = 10.0

    def position_at(self, t_s: float) -> Tuple[float, float]:
        """Bounce inside [0, 1] x [0, 1]."""
        def bounce(p0: float, v: float) -> float:
            p = p0 + v * t_s
            p = math.fmod(p, 2.0)
            if p < 0:
                p += 2.0
            return 2.0 - p if p > 1.0 else p
        return bounce(self.x, self.vx), bounce(self.y, self.vy)


@dataclass
class SyntheticScene:
    """A deterministic world renderable into visible and thermal frames."""

    width: int = 352
    height: int = 288
    seed: int = 2016
    ambient_c: float = 18.0
    illumination: float = 0.75
    objects: List[WarmObject] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 8:
            raise VideoError("scene must be at least 8x8 pixels")
        if not self.objects:
            self.objects = [
                WarmObject(x=0.25, y=0.55, vx=0.05, vy=0.012, radius=0.06,
                           temperature_c=34.0, visible_contrast=8.0),
                WarmObject(x=0.70, y=0.35, vx=-0.03, vy=0.02, radius=0.10,
                           temperature_c=60.0, visible_contrast=25.0),
            ]
        rng = np.random.default_rng(self.seed)
        self._texture = rng.normal(0.0, 1.0, (self.height, self.width))
        # smooth the texture once so it has realistic spatial correlation
        self._texture = (self._texture
                         + np.roll(self._texture, 1, 0)
                         + np.roll(self._texture, 1, 1)
                         + np.roll(self._texture, (1, 1), (0, 1))) / 4.0
        # separable coordinates: a (W,) row and an (H, 1) column that
        # broadcast to the full grid with the same floats elementwise
        self._gx = np.arange(self.width) / max(1, self.width - 1)
        self._gy = (np.arange(self.height) / max(1, self.height - 1))[:, None]
        self._noise_rng = np.random.default_rng(self.seed + 1)
        # the depth modality draws from its own stream so adding a
        # third render never perturbs the visible/thermal noise
        # sequence (N=2 streams stay bitwise-identical)
        self._depth_rng = np.random.default_rng(self.seed + 2)
        #: modality -> ((illumination, ambient_c) it was built for, layers)
        self._backgrounds: Dict[str, Tuple[Tuple[float, float], np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _background(self, modality: str) -> np.ndarray:
        """A fresh copy of one modality's time-independent layers: the
        terms every frame adds first, built on first use and rebuilt
        once ``illumination`` or ``ambient_c`` has been reassigned."""
        key = (self.illumination, self.ambient_c)
        cached = self._backgrounds.get(modality)
        if cached is None or cached[0] != key:
            if modality == "visible":
                # background structure: textured wall with strong vertical edge
                layers = (90.0 + 60.0 * self.illumination * self._gy
                          + 18.0 * self._texture)
                layers += 35.0 * (self._gx > 0.62)              # bright doorway
                layers += 12.0 * np.sin(2 * np.pi * self._gx * 12)  # blind slats
            elif modality == "thermal":
                layers = np.full((self.height, self.width), self.ambient_c)
                layers += 2.0 * self._gy                    # warm floor gradient
            else:
                layers = np.full((self.height, self.width), 4.0)
                layers -= 1.5 * self._gy                  # floor slopes nearer
                layers += 0.4 * (self._gx > 0.62)         # doorway recess
            cached = self._backgrounds[modality] = (key, layers)
        return cached[1].copy()

    def _object_masks(self, t_s: float) -> Iterator[Tuple[np.ndarray, WarmObject]]:
        """Each object's Gaussian footprint, a fresh array per object."""
        for obj in self.objects:
            ox, oy = obj.position_at(t_s)
            # -(a + b) is (-a) + (-b) bit for bit, so the negation
            # rides on the row and the column instead of the grid
            mask = np.add(-(self._gx - ox) ** 2, -(self._gy - oy) ** 2)
            mask /= 2.0 * obj.radius ** 2
            yield np.exp(mask, out=mask), obj

    def render_visible(self, t_s: float, noise_sigma: float = 1.5) -> np.ndarray:
        """Visible-band frame (float, 0..255): texture + structure + objects."""
        image = self._background("visible")
        for mask, obj in self._object_masks(t_s):
            mask *= obj.visible_contrast
            image += mask
        image += self._noise_rng.normal(0.0, noise_sigma, image.shape)
        return np.clip(image, 0.0, 255.0, out=image)

    def render_thermal(self, t_s: float, netd_c: float = 0.08,
                       blur: int = 2) -> np.ndarray:
        """LWIR frame (float, 0..255): temperature map through soft optics.

        ``netd_c`` models the sensor's noise-equivalent temperature
        difference; ``blur`` the optics' softness in pixels.
        """
        temps = self._background("thermal")
        for mask, obj in self._object_masks(t_s):
            mask *= obj.temperature_c - self.ambient_c
            temps += mask
        temps += self._noise_rng.normal(0.0, netd_c, temps.shape)
        temps = _cross_blur(temps, blur)
        # radiometric mapping: ambient-20C .. ambient+50C onto 0..255
        lo, hi = self.ambient_c - 20.0, self.ambient_c + 50.0
        temps -= lo
        temps /= hi - lo
        temps *= 255.0
        return np.clip(temps, 0.0, 255.0, out=temps)

    def render_depth(self, t_s: float, noise_mm: float = 4.0) -> np.ndarray:
        """Depth frame (float, 0..255, near = bright): ranging sensor.

        The world is a wall 4 m out behind a floor plane sloping toward
        the viewer; objects protrude in front of the wall in proportion
        to their radius (a person reads nearer than their silhouette on
        the wall).  ``noise_mm`` models the ranging sensor's per-pixel
        jitter.  Depth sees geometry the other two modalities cannot:
        it is blind to texture *and* temperature.
        """
        depth_m = self._background("depth")
        for mask, obj in self._object_masks(t_s):
            # an object stands 1..2 m in front of whatever is behind
            # it, with a hard silhouette the way a ranging sensor sees
            protrusion = 1.0 + 10.0 * obj.radius
            depth_m -= protrusion * (mask > 0.35)
        depth_m += self._depth_rng.normal(0.0, noise_mm / 1000.0,
                                          depth_m.shape)
        # map 0.2 m .. 4.5 m onto 255..0 (near = bright)
        lo, hi = 0.2, 4.5
        scaled = (np.clip(depth_m, lo, hi) - lo) / (hi - lo)
        return (1.0 - scaled) * 255.0

    def render(self, modality: str, t_s: float) -> np.ndarray:
        """Render one named modality — the N-way source entry point."""
        renderers = {
            "visible": self.render_visible,
            "thermal": self.render_thermal,
            "depth": self.render_depth,
        }
        try:
            renderer = renderers[modality]
        except KeyError:
            raise VideoError(
                f"unknown scene modality {modality!r}; expected one of "
                f"{sorted(renderers)}") from None
        return renderer(t_s)

    def hottest_position(self, t_s: float) -> Tuple[int, int]:
        """Pixel coordinates (row, col) of the hottest object center."""
        obj = max(self.objects, key=lambda o: o.temperature_c)
        ox, oy = obj.position_at(t_s)
        return int(round(oy * (self.height - 1))), int(round(ox * (self.width - 1)))


def _cross_blur(temps: np.ndarray, passes: int) -> np.ndarray:
    """``passes`` rounds of the 5-point cross mean on a torus: slice adds
    into a second buffer, summed ``((((t + up) + down) + left) + right)
    / 5`` in the order of the ``np.roll`` form they replace."""
    if passes <= 0:
        return temps
    out = np.empty_like(temps)
    for _ in range(passes):
        np.add(temps[1:], temps[:-1], out=out[1:])      # + roll(t, 1, 0)
        np.add(temps[0], temps[-1], out=out[0])
        out[:-1] += temps[1:]                           # + roll(t, -1, 0)
        out[-1] += temps[0]
        out[:, 1:] += temps[:, :-1]                     # + roll(t, 1, 1)
        out[:, 0] += temps[:, -1]
        out[:, :-1] += temps[:, 1:]                     # + roll(t, -1, 1)
        out[:, -1] += temps[:, 0]
        out /= 5.0
        temps, out = out, temps
    return temps

"""Seeded section generator for the benchmark.

Every section is produced from jittered, equispaced polar angles about a
centre point, so consecutive vertices turn the same way and every angular
gap stays below pi.  Such a polygon is star-shaped about its centre and
therefore simple; :func:`check_section` verifies that independently of the
library (vectorised segment-intersection test, strict angular gaps, no
straight or zero-angle corners).  The generator never skips an input that
fails the check: it raises, because the generator itself is then wrong.

Nothing here imports ``conebounds``: sections are plain JSON dicts, the same
shape the library's ``section_from_json`` and the CLI's ``--section`` files
accept.
"""

from __future__ import annotations

import math

import numpy as np

#: Jitter of each polar angle, as a share of the equal spacing 2*pi/n.
#: With 0.2 the largest gap is 1.4 * 2*pi/n < pi for every n >= 3.
ANGLE_JITTER = 0.2

#: Corners closer than this (in radians) to a straight or zero angle are
#: regenerated: they are not genuine vertices.
MIN_TURN = 1e-6


class GeneratorError(RuntimeError):
    """The generator produced a section that fails its own validity check."""


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent random stream per (seed, purpose)."""
    tag = int.from_bytes(stream.encode("utf-8")[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([int(seed), tag])


def jittered_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Increasing polar angles, each gap between 0.6 and 1.4 times 2*pi/n."""
    k = np.arange(n) + rng.uniform(-ANGLE_JITTER, ANGLE_JITTER, n)
    t = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * k / n
    gaps = np.diff(np.append(t, t[0] + 2.0 * math.pi))
    if not (np.all(gaps > 0.0) and np.all(gaps < math.pi)):
        raise GeneratorError("angular gaps must lie in (0, pi)")
    return t


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def has_crossing_edges(v: np.ndarray) -> bool:
    """True if two non-adjacent edges touch or cross (collinear counts too).

    All edge pairs at once: edge i runs from v[i] to v[i+1].  Conservative:
    any zero orientation between non-adjacent edges counts as touching.
    """
    a = v
    d = np.roll(v, -1, axis=0) - v
    rel_a = a[None, :, :] - a[:, None, :]          # a_j - a_i
    rel_b = rel_a + d[None, :, :]                   # b_j - a_i
    o1 = _cross(d[:, None, :], rel_a)               # orient(a_i, b_i, a_j)
    o2 = _cross(d[:, None, :], rel_b)               # orient(a_i, b_i, b_j)
    hit = (o1 * o2 <= 0.0) & (o1.T * o2.T <= 0.0)
    n = len(v)
    idx = np.arange(n)
    gap = (idx[None, :] - idx[:, None]) % n
    nonadjacent = (gap > 1) & (gap < n - 1)
    return bool(np.any(hit & nonadjacent))


def check_section(obj: dict) -> None:
    """Raise :class:`GeneratorError` unless ``obj`` is a valid section."""
    if "disc" in obj:
        r = obj["disc"]["radius"]
        if not (math.isfinite(r) and r > 0.0):
            raise GeneratorError("disc radius must be positive")
        return
    v = np.asarray(obj["polygon"], dtype=float)
    n = len(v)
    if n < 3 or not np.all(np.isfinite(v)):
        raise GeneratorError("polygon needs 3 finite vertices")
    d = np.roll(v, -1, axis=0) - v
    turn = np.arctan2(_cross(np.roll(d, 1, axis=0), d),
                      np.sum(np.roll(d, 1, axis=0) * d, axis=1))
    if np.any(np.abs(turn) < MIN_TURN) or np.any(math.pi - np.abs(turn) < MIN_TURN):
        raise GeneratorError("straight or zero-angle corner")
    area2 = float(np.sum(_cross(v, np.roll(v, -1, axis=0))))
    if not area2 > 0.0:
        raise GeneratorError("polygon is not counterclockwise")
    if has_crossing_edges(v):
        raise GeneratorError("polygon boundary self-intersects")


def _polygon(points: np.ndarray) -> dict:
    obj = {"polygon": [[float(x), float(y)] for x, y in points]}
    check_section(obj)
    return obj


def convex_polygon(rng: np.random.Generator, n: int) -> dict:
    """n points on a random off-centre ellipse, in angular order: convex."""
    t = jittered_angles(rng, n)
    a, b = rng.uniform(0.6, 1.4, 2)
    psi = rng.uniform(0.0, math.pi)
    centre = rng.uniform(-0.6, 0.6, 2)
    x, y = a * np.cos(t), b * np.sin(t)
    c, s = math.cos(psi), math.sin(psi)
    return _polygon(np.stack([centre[0] + c * x - s * y,
                              centre[1] + s * x + c * y], axis=1))


def star_polygon(rng: np.random.Generator, n: int) -> dict:
    """Non-convex n-gon (n >= 5), star-shaped about a random off-centre point.

    Radii vary randomly; one random vertex is then pulled inside the chord
    of its two neighbours, so at least one corner is reflex by construction.
    With n >= 5 two consecutive gaps span less than pi, so that chord always
    crosses the vertex's ray.
    """
    if n < 5:
        raise GeneratorError("star polygons need at least 5 vertices")
    t = jittered_angles(rng, n)
    r = rng.uniform(0.7, 1.3) * (1.0 + rng.uniform(0.2, 0.5)
                                 * rng.uniform(-1.0, 1.0, n))
    k = int(rng.integers(n))
    e = np.array([math.cos(t[k]), math.sin(t[k])])
    p = r[k - 1] * np.array([math.cos(t[k - 1]), math.sin(t[k - 1])])
    q = r[(k + 1) % n] * np.array([math.cos(t[(k + 1) % n]),
                                   math.sin(t[(k + 1) % n])])
    rho = _cross(p, q) / _cross(e, q - p)   # where the ray meets the chord
    r[k] = rng.uniform(0.3, 0.8) * rho
    centre = rng.uniform(-0.6, 0.6, 2)
    return _polygon(centre + np.stack([r * np.cos(t), r * np.sin(t)], axis=1))


def off_centre_disc(rng: np.random.Generator) -> dict:
    c = rng.uniform(-1.0, 1.0, 2)
    return {"disc": {"center": [float(c[0]), float(c[1])],
                     "radius": float(rng.uniform(0.3, 1.5))}}


def random_field(rng: np.random.Generator, lo: float = 0.5,
                 hi: float = 2.0) -> tuple:
    """Uniform direction on the sphere, magnitude uniform in [lo, hi]."""
    u = rng.normal(size=3)
    u *= rng.uniform(lo, hi) / np.linalg.norm(u)
    return tuple(float(c) for c in u)


def vertex_histogram(sections) -> dict:
    """Vertex-count histogram of section dicts; discs are counted as "disc"."""
    counts: dict[int, int] = {}
    discs = 0
    for s in sections:
        if "disc" in s:
            discs += 1
        else:
            counts[len(s["polygon"])] = counts.get(len(s["polygon"]), 0) + 1
    hist = {str(n): counts[n] for n in sorted(counts)}
    return {**hist, "disc": discs} if discs else hist

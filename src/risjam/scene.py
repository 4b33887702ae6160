"""Physical scenario description: node geometry, RIS lattice, antenna patterns.

All powers are stored in dBm in configs and converted to linear watts for the
math. Distances are meters, frequencies Hz, angles radians. The RIS lattice is
a centered uniform rectangular grid in the surface plane; the canonical
element order is row-major and the panel is split vertically into an Eve half
(negative-y columns) and a Bob half (positive-y columns).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

_SCENARIO_KEYS = (
    "fc_hz",
    "fs_hz",
    "pt_dbm",
    "noise_bob_dbm",
    "noise_eve_dbm",
    "cs_tx",
    "an_tx",
    "bob",
    "eve",
    "ris_rows",
    "ris_cols",
    "ris_spacing_m",
    "ris_center",
    "tx_gain_dbi",
    "pattern_kind",
)


class DegenerateGeometryError(ValueError):
    """Raised when a geometric configuration has no physical meaning (e.g. zero range)."""


class ScenarioFormatError(ValueError):
    """Raised for malformed or non-conforming scenario files."""


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    if p_w <= 0.0:
        return -math.inf
    return 10.0 * math.log10(p_w) + 30.0


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def distance(a: Position3D, b: Position3D) -> float:
    """Euclidean distance in meters."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


@dataclass(frozen=True)
class RisGeometry:
    """Centered uniform rectangular RIS lattice.

    `normal` is the unit normal of the surface plane (the side facing the
    transmitters); element positions span the plane orthogonal to it.
    """

    rows: int
    cols: int
    spacing: float
    center: Position3D
    normal: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if (self.rows * self.cols) % 2 != 0:
            raise ValueError("element count must be even (two equal partitions)")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        n = np.asarray(self.normal, dtype=float)
        nn = np.linalg.norm(n)
        if not nn > 0.0 or not np.all(np.isfinite(n)):
            raise ValueError("normal must be a nonzero finite vector")
        object.__setattr__(self, "normal", tuple(n / nn))

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-plane (column, row) axes for a surface with the given unit normal.

    Columns run along u (the horizontal axis, +y for a +x-facing panel), rows
    along v (vertical). The reference up vector is +z unless the normal is
    (anti)parallel to it.
    """
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(normal, up))) > 1.0 - 1e-9:
        up = np.array([1.0, 0.0, 0.0])
    u = np.cross(up, normal)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    return u, v


def element_positions(g: RisGeometry) -> np.ndarray:
    """(N, 3) element centers in canonical row-major order (top row first).

    The lattice is centered on g.center; column index increases along the
    in-plane horizontal axis, so for the default +x normal the first cols/2
    columns sit at negative y (Eve's side) and the rest at positive y.
    """
    u, v = _plane_basis(np.asarray(g.normal, dtype=float))
    row_off = ((g.rows - 1) / 2.0 - np.arange(g.rows)) * g.spacing
    col_off = (np.arange(g.cols) - (g.cols - 1) / 2.0) * g.spacing
    pos = g.center.as_array() + col_off[None, :, None] * u + row_off[:, None, None] * v
    return pos.reshape(g.n_elements, 3)


def partition_split(g: RisGeometry) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bob_indices, eve_indices) of the vertical half-panel split.

    Eve's partition is the low-column half (negative-y side for the default
    orientation, matching an eavesdropper placed at negative y); Bob's is the
    high-column half. Indices refer to the canonical row-major element order.
    """
    if g.cols % 2 != 0:
        raise ValueError("vertical split requires an even column count")
    half = g.cols // 2
    grid = np.arange(g.n_elements).reshape(g.rows, g.cols)
    return tuple(grid[:, half:].ravel().tolist()), tuple(grid[:, :half].ravel().tolist())


@dataclass(frozen=True)
class AntennaPattern:
    """Directional power pattern, either cosine-shaped or isotropic.

    For the cosine kind the power gain is
    boresight * cos(az)^(2*az_exponent) * cos(el)^(2*el_exponent) on the front
    hemisphere and exactly zero on/behind the aperture plane. The isotropic
    kind returns the boresight gain in every direction.
    """

    kind: str
    az_exponent: float = 1.0
    el_exponent: float = 1.0
    boresight_gain_dbi: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cosine", "isotropic"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.az_exponent < 0 or self.el_exponent < 0:
            raise ValueError("pattern exponents must be non-negative")

    @property
    def boresight_linear(self) -> float:
        return 10.0 ** (self.boresight_gain_dbi / 10.0)


ISOTROPIC = AntennaPattern(kind="isotropic")


def pattern_gain(p: AntennaPattern, direction: np.ndarray) -> float:
    """Linear power gain toward a unit direction given in the pattern frame.

    The pattern frame has +x along boresight, +y along the horizontal
    (azimuth) axis and +z along the vertical (elevation) axis; use
    `rotation_to_frame` to map world directions into it.
    """
    g0 = p.boresight_linear
    if p.kind == "isotropic":
        return g0
    d = np.asarray(direction, dtype=float)
    return _cosine_gain(g0, 2.0 * p.az_exponent, 2.0 * p.el_exponent,
                        float(d[0]), float(d[1]), float(d[2]))


def pattern_gains(p: AntennaPattern, directions: np.ndarray) -> np.ndarray:
    """pattern_gain for each row of an (N, 3) array of pattern-frame directions."""
    d = np.asarray(directions, dtype=float)
    g0 = p.boresight_linear
    if p.kind == "isotropic":
        return np.full(d.shape[0], g0)
    a2, e2 = 2.0 * p.az_exponent, 2.0 * p.el_exponent
    return np.array([_cosine_gain(g0, a2, e2, x, y, z) for x, y, z in d.tolist()])


def _cosine_gain(g0: float, a2: float, e2: float, x: float, y: float, z: float) -> float:
    # Scalar libm calls on purpose: numpy's vectorized arcsin, arctan2 and
    # cos round differently in the last bit on some CPUs, and the channel
    # digests are pinned to these.
    if x <= 0.0:
        return 0.0
    el = math.asin(max(-1.0, min(1.0, z)))
    az = math.atan2(y, x)
    if abs(az) >= math.pi / 2 or abs(el) >= math.pi / 2:
        return 0.0
    return g0 * math.cos(az) ** a2 * math.cos(el) ** e2


def rotation_to_frame(boresight: np.ndarray) -> np.ndarray:
    """3x3 matrix mapping world vectors into the pattern frame of a boresight."""
    b = np.asarray(boresight, dtype=float)
    nb = np.linalg.norm(b)
    if not nb > 0.0:
        raise DegenerateGeometryError("boresight vector must be nonzero")
    x = b / nb
    u, v = _plane_basis(x)
    return np.vstack([x, u, v])


def fspl(d: float, fc: float) -> float:
    """Free-space power attenuation (lambda / 4 pi d)^2; always <= 1 beyond lambda/4pi."""
    if d <= 0.0:
        raise DegenerateGeometryError("free-space path loss undefined for non-positive range")
    if fc <= 0.0:
        raise ValueError("carrier frequency must be positive")
    lam = SPEED_OF_LIGHT / fc
    return (lam / (4.0 * math.pi * d)) ** 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Full physical description of the link.

    fs_hz is carried as metadata only (capacity math is per Hz); pt_dbm is the
    total transmit power shared by the communication and noise signals.
    """

    fc_hz: float
    fs_hz: float
    pt_dbm: float
    noise_bob_dbm: float
    noise_eve_dbm: float
    cs_tx: Position3D
    an_tx: Position3D
    bob: Position3D
    eve: Position3D
    ris: RisGeometry
    tx_pattern: AntennaPattern
    ris_element_pattern: AntennaPattern
    _elements: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.fc_hz > 0.0:
            raise ValueError("carrier frequency must be positive")
        for name in ("pt_dbm", "noise_bob_dbm", "noise_eve_dbm", "fs_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        elems = element_positions(self.ris)
        if not np.all(np.isfinite(elems)):
            raise ValueError("RIS element coordinates must be finite")
        center, normal = self.ris.center.as_array(), np.asarray(self.ris.normal)
        for node_name in ("cs_tx", "an_tx", "bob", "eve"):
            node = getattr(self, node_name).as_array()
            # The surface reflects into the half-space it faces; behind it the
            # cosine element pattern is zero, so the couplings would vanish
            # without a reason given.
            if not float(np.dot(node - center, normal)) > 0.0:
                raise DegenerateGeometryError(
                    f"{node_name} is not in front of the RIS surface plane"
                )
            if np.min(np.linalg.norm(elems - node, axis=1)) < 1e-9:
                raise DegenerateGeometryError(
                    f"{node_name} coincides with an RIS element position"
                )
        elems.setflags(write=False)
        object.__setattr__(self, "_elements", elems)

    @property
    def elements(self) -> np.ndarray:
        """(N, 3) read-only element centers, canonical order."""
        return self._elements

    @property
    def pt_watts(self) -> float:
        return dbm_to_watts(self.pt_dbm)

    @property
    def noise_bob_watts(self) -> float:
        return dbm_to_watts(self.noise_bob_dbm)

    @property
    def noise_eve_watts(self) -> float:
        return dbm_to_watts(self.noise_eve_dbm)


def _parse_triple(value: str, key: str) -> Position3D:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise ScenarioFormatError(f"key {key!r} expects 'x, y, z', got {value!r}")
    try:
        return Position3D(*(float(p) for p in parts))
    except ValueError as exc:
        raise ScenarioFormatError(f"key {key!r}: {exc}") from exc


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the flat `key = value` scenario format (one pair per line, # comments).

    Unknown and missing keys are hard errors: a scenario file either matches
    the schema exactly or is rejected.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise ScenarioFormatError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioFormatError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    missing = [k for k in _SCENARIO_KEYS if k not in values]
    if missing:
        raise ScenarioFormatError(f"missing keys: {', '.join(missing)}")

    def num(key: str) -> float:
        try:
            return float(values[key])
        except ValueError as exc:
            raise ScenarioFormatError(f"key {key!r}: not a number: {values[key]!r}") from exc

    def count(key: str) -> int:
        v = num(key)
        if v != int(v):
            raise ScenarioFormatError(f"key {key!r}: expected an integer, got {values[key]!r}")
        return int(v)

    kind = values["pattern_kind"]
    if kind not in ("cosine", "isotropic"):
        raise ScenarioFormatError(f"pattern_kind must be 'cosine' or 'isotropic', got {kind!r}")
    try:
        ris = RisGeometry(
            rows=count("ris_rows"),
            cols=count("ris_cols"),
            spacing=num("ris_spacing_m"),
            center=_parse_triple(values["ris_center"], "ris_center"),
        )
        return ScenarioConfig(
            fc_hz=num("fc_hz"),
            fs_hz=num("fs_hz"),
            pt_dbm=num("pt_dbm"),
            noise_bob_dbm=num("noise_bob_dbm"),
            noise_eve_dbm=num("noise_eve_dbm"),
            cs_tx=_parse_triple(values["cs_tx"], "cs_tx"),
            an_tx=_parse_triple(values["an_tx"], "an_tx"),
            bob=_parse_triple(values["bob"], "bob"),
            eve=_parse_triple(values["eve"], "eve"),
            ris=ris,
            tx_pattern=AntennaPattern(kind=kind, boresight_gain_dbi=num("tx_gain_dbi")),
            ris_element_pattern=AntennaPattern(kind=kind),
        )
    except (ValueError, DegenerateGeometryError) as exc:
        if isinstance(exc, ScenarioFormatError):
            raise
        raise ScenarioFormatError(str(exc)) from exc


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def format_scenario(sc: ScenarioConfig) -> str:
    """Canonical text form of a scenario (parse/format round-trips)."""

    def triple(p: Position3D) -> str:
        return f"{p.x!r}, {p.y!r}, {p.z!r}"

    lines = [
        f"fc_hz = {sc.fc_hz!r}",
        f"fs_hz = {sc.fs_hz!r}",
        f"pt_dbm = {sc.pt_dbm!r}",
        f"noise_bob_dbm = {sc.noise_bob_dbm!r}",
        f"noise_eve_dbm = {sc.noise_eve_dbm!r}",
        f"cs_tx = {triple(sc.cs_tx)}",
        f"an_tx = {triple(sc.an_tx)}",
        f"bob = {triple(sc.bob)}",
        f"eve = {triple(sc.eve)}",
        f"ris_rows = {sc.ris.rows}",
        f"ris_cols = {sc.ris.cols}",
        f"ris_spacing_m = {sc.ris.spacing!r}",
        f"ris_center = {triple(sc.ris.center)}",
        f"tx_gain_dbi = {sc.tx_pattern.boresight_gain_dbi!r}",
        f"pattern_kind = {sc.tx_pattern.kind}",
    ]
    return "\n".join(lines) + "\n"


def save_scenario(sc: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scenario(sc))


def scenario_hash(sc: ScenarioConfig) -> str:
    """Short content hash of the canonical scenario text."""
    return hashlib.sha256(format_scenario(sc).encode("utf-8")).hexdigest()[:16]

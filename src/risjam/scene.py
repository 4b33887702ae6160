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
from dataclasses import dataclass, field, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

#: Unit normal of every RIS surface plane: the panel faces +x, its columns run
#: along +y and its rows along z.
PANEL_NORMAL = (1.0, 0.0, 0.0)


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
    """Centered uniform rectangular RIS lattice in a plane facing PANEL_NORMAL."""

    rows: int
    cols: int
    spacing: float
    center: Position3D

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if (self.rows * self.cols) % 2 != 0:
            raise ValueError("element count must be even (two equal partitions)")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")

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
    in-plane horizontal axis, so the first cols/2 columns sit at negative y
    (Eve's side) and the rest at positive y.
    """
    u, v = _plane_basis(np.asarray(PANEL_NORMAL))
    row_off = ((g.rows - 1) / 2.0 - np.arange(g.rows)) * g.spacing
    col_off = (np.arange(g.cols) - (g.cols - 1) / 2.0) * g.spacing
    pos = g.center.as_array() + col_off[None, :, None] * u + row_off[:, None, None] * v
    return pos.reshape(g.n_elements, 3)


def partition_split(g: RisGeometry) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bob_indices, eve_indices) of the vertical half-panel split.

    Eve's partition is the low-column half (negative-y side, matching an
    eavesdropper placed at negative y); Bob's is the high-column half.
    Indices refer to the canonical row-major element order.
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
            raise ValueError(f"pattern kind must be 'cosine' or 'isotropic', got {self.kind!r}")
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
    """Full physical description of the link: one field per scenario-file key, in file order.

    fs_hz is carried as metadata only (capacity math is per Hz); pt_dbm is the
    total transmit power shared by the communication and noise signals.
    pattern_kind shapes both transmit antennas (boresight gain tx_gain_dbi) and
    the RIS elements. The lattice, both patterns and the read-only (N, 3)
    element centers are derived from the fields once, on construction.
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
    ris_rows: int
    ris_cols: int
    ris_spacing_m: float
    ris_center: Position3D
    tx_gain_dbi: float
    pattern_kind: str
    ris: RisGeometry = field(init=False, repr=False, compare=False)
    tx_pattern: AntennaPattern = field(init=False, repr=False, compare=False)
    ris_element_pattern: AntennaPattern = field(init=False, repr=False, compare=False)
    elements: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.fc_hz < math.inf:
            raise ValueError(f"fc_hz must be positive and finite, got {self.fc_hz!r}")
        for name in ("pt_dbm", "noise_bob_dbm", "noise_eve_dbm", "fs_hz", "tx_gain_dbi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        ris = RisGeometry(self.ris_rows, self.ris_cols, self.ris_spacing_m, self.ris_center)
        object.__setattr__(self, "ris", ris)
        object.__setattr__(self, "tx_pattern",
                           AntennaPattern(self.pattern_kind, boresight_gain_dbi=self.tx_gain_dbi))
        object.__setattr__(self, "ris_element_pattern", AntennaPattern(self.pattern_kind))
        # 10 ** (x / 10) overflows for x above ~3083 and is 0 for x below ~-3237,
        # with x the gain in dBi or the power in dBm minus 30.
        for key, owner, linear in (("pt_dbm", self, "pt_watts"),
                                   ("noise_bob_dbm", self, "noise_bob_watts"),
                                   ("noise_eve_dbm", self, "noise_eve_watts"),
                                   ("tx_gain_dbi", self.tx_pattern, "boresight_linear")):
            try:
                value = getattr(owner, linear)
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} = {getattr(self, key)!r} has no finite positive linear value")
        elems = element_positions(ris)
        if not np.all(np.isfinite(elems)):
            raise ValueError("RIS element coordinates must be finite")
        center, wavelength = ris.center.as_array(), SPEED_OF_LIGHT / self.fc_hz
        for node_name in ("cs_tx", "an_tx", "bob", "eve"):
            node = getattr(self, node_name).as_array()
            # The surface reflects into the half-space it faces; behind it the
            # cosine element pattern is zero, so the couplings would vanish
            # without a reason given.
            if not float(np.dot(node - center, PANEL_NORMAL)) > 0.0:
                raise DegenerateGeometryError(
                    f"{node_name} is not in front of the RIS surface plane"
                )
            # Inside one wavelength of an element the free-space hop model
            # stops holding: at lambda/(4 pi) its path "loss" reaches 1.
            if np.min(np.linalg.norm(elems - node, axis=1)) < wavelength:
                raise DegenerateGeometryError(
                    f"{node_name} is within one wavelength ({wavelength:.3g} m) "
                    "of an RIS element, in its near field"
                )
        elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    @property
    def pt_watts(self) -> float:
        return dbm_to_watts(self.pt_dbm)

    @property
    def noise_bob_watts(self) -> float:
        return dbm_to_watts(self.noise_bob_dbm)

    @property
    def noise_eve_watts(self) -> float:
        return dbm_to_watts(self.noise_eve_dbm)


def _parse_count(value: str) -> int:
    v = float(value)
    if not v.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(v)


def _parse_triple(value: str) -> Position3D:
    parts = value.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'x, y, z', got {value!r}")
    return Position3D(*(float(p) for p in parts))


def _format_triple(p: Position3D) -> str:
    return f"{p.x!r}, {p.y!r}, {p.z!r}"


# (parse, format) of a value's text, by the type name a ScenarioConfig field
# declares (annotations are strings under `from __future__ import annotations`).
_CODECS = {
    "float": (float, repr),
    "int": (_parse_count, str),
    "str": (str, str),
    "Position3D": (_parse_triple, _format_triple),
}

# One per scenario-file key, in file order.
_FILE_FIELDS = tuple(f for f in fields(ScenarioConfig) if f.init)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the flat `key = value` scenario format (one pair per line, # comments).

    Unknown and missing keys are hard errors: a scenario file either matches
    the schema exactly or is rejected.
    """
    values: dict[str, str] = {}
    names = [f.name for f in _FILE_FIELDS]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in names:
            raise ScenarioFormatError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioFormatError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    missing = [k for k in names if k not in values]
    if missing:
        raise ScenarioFormatError(f"missing keys: {', '.join(missing)}")
    kwargs = {}
    for f in _FILE_FIELDS:
        parse, _ = _CODECS[f.type]
        try:
            kwargs[f.name] = parse(values[f.name])
        except ValueError as exc:
            raise ScenarioFormatError(f"key {f.name!r}: {exc}") from exc
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def format_scenario(sc: ScenarioConfig) -> str:
    """Canonical text form of a scenario (parse/format round-trips)."""
    return "".join(
        f"{f.name} = {_CODECS[f.type][1](getattr(sc, f.name))}\n" for f in _FILE_FIELDS
    )


def save_scenario(sc: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scenario(sc))


def scenario_hash(sc: ScenarioConfig) -> str:
    """Short content hash of the canonical scenario text."""
    return hashlib.sha256(format_scenario(sc).encode("utf-8")).hexdigest()[:16]

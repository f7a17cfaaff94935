"""Surface data model, orbifold volume, and degenerating families.

A surface is described by its signature (genus, cusps, elliptic orders), a
sorted length spectrum, a list of small eigenvalues below 1/4, and the subset
of cone indices scheduled to degenerate into cusps.  Length spectra and
eigenvalues are model inputs; nothing is computed from group presentations.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

from .errors import DomainError, InvariantViolation, ParseError, SignatureError

__all__ = [
    "SurfaceData",
    "DegeneratingFamily",
    "gauss_bonnet_volume",
    "hecke_family",
    "load_surface",
    "save_surface",
]

INF_ORDER = math.inf


def _check_order(q) -> float:
    if q == INF_ORDER:
        return INF_ORDER
    if not isinstance(q, numbers.Real) or not q >= 2 or q != int(q):
        raise DomainError(f"cone order must be an integer >= 2 or inf, got {q}")
    return int(q)


def gauss_bonnet_volume(genus: int, cusps: int, orders) -> float:
    """Hyperbolic area 2 pi (2g - 2 + p + sum_j (1 - 1/q_j)) of the orbifold
    with the given signature.  Raises SignatureError when the signature
    admits no hyperbolic structure."""
    if genus < 0 or cusps < 0:
        raise DomainError("genus and cusp count must be nonnegative")
    total = 2.0 * genus - 2.0 + cusps
    for q in orders:
        q = _check_order(q)
        total += 1.0 if q == INF_ORDER else 1.0 - 1.0 / q
    if total <= 0:
        raise SignatureError(
            f"signature (g={genus}, p={cusps}, orders={list(orders)}) admits "
            "no hyperbolic structure")
    return 2.0 * math.pi * total


@dataclass(frozen=True)
class SurfaceData:
    """Model of a hyperbolic surface with conical points.

    `degenerating` holds indices into `elliptic_orders` marking the cones
    scheduled to open into cusps.  The length spectrum is a sorted tuple of
    (length, multiplicity); small eigenvalues lie in [0, 1/4).  The volume is
    always the Gauss-Bonnet value of the signature; a caller-supplied value
    is cross-checked against it.
    """

    genus: int
    num_cusps: int
    elliptic_orders: tuple = ()
    degenerating: tuple = ()
    length_spectrum: tuple = ()
    small_eigenvalues: tuple = ()
    cusp_widths: tuple | None = None
    volume: float | None = None

    def __post_init__(self):
        try:
            orders = tuple(_check_order(q) for q in self.elliptic_orders)
        except DomainError as exc:
            raise InvariantViolation(str(exc)) from exc
        object.__setattr__(self, "elliptic_orders", orders)

        for i in self.degenerating:
            if i not in range(len(orders)):
                raise InvariantViolation(
                    f"degenerating index {i} outside elliptic_orders range")
        degen = tuple(sorted(set(int(i) for i in self.degenerating)))
        object.__setattr__(self, "degenerating", degen)

        spectrum = []
        for entry in self.length_spectrum:
            ell, mult = float(entry[0]), entry[1]
            if not 0 < ell < math.inf:
                raise InvariantViolation(
                    f"geodesic length must be finite and > 0, got {ell}")
            if not (mult >= 1 and float(mult).is_integer()):
                raise InvariantViolation(
                    f"multiplicity must be an integer >= 1, got {mult}")
            spectrum.append((ell, int(mult)))
        spectrum.sort()
        object.__setattr__(self, "length_spectrum", tuple(spectrum))

        eigs = tuple(sorted(float(x) for x in self.small_eigenvalues))
        for lam in eigs:
            if not 0.0 <= lam < 0.25:
                raise InvariantViolation(
                    f"small eigenvalues must lie in [0, 1/4), got {lam}")
        object.__setattr__(self, "small_eigenvalues", eigs)

        if self.cusp_widths is not None:
            widths = tuple(float(w) for w in self.cusp_widths)
            for w in widths:
                if not w > 0:
                    raise InvariantViolation(f"cusp width must be > 0, got {w}")
            object.__setattr__(self, "cusp_widths", widths)

        gb = gauss_bonnet_volume(self.genus, self.num_cusps, orders)
        if self.volume is not None:
            if not abs(self.volume - gb) <= 1e-9 * gb:
                raise InvariantViolation(
                    f"volume {self.volume} disagrees with the Gauss-Bonnet "
                    f"value {gb} beyond 1e-9 relative")
        object.__setattr__(self, "volume", gb)
        bound = 2.0 * math.pi * (2 * self.genus - 2 + self.kappa)
        if self.volume > bound + 1e-12:
            raise InvariantViolation(
                f"volume {self.volume} exceeds the cusped bound {bound}")

    @property
    def kappa(self) -> int:
        """Number of ends: cusps plus conical points."""
        return self.num_cusps + len(self.elliptic_orders)

    @property
    def degenerating_orders(self) -> tuple:
        return tuple(self.elliptic_orders[i] for i in self.degenerating)

    @property
    def kept_orders(self) -> tuple:
        """Elliptic orders outside the degenerating set."""
        return tuple(q for i, q in enumerate(self.elliptic_orders)
                     if i not in self.degenerating)

    def with_degenerating_orders(self, new_orders) -> "SurfaceData":
        """Copy with the degenerating cone orders replaced (volume refreshed)."""
        if len(new_orders) != len(self.degenerating):
            raise DomainError("one order per degenerating cone required")
        orders = list(self.elliptic_orders)
        for idx, q in zip(self.degenerating, new_orders):
            orders[idx] = _check_order(q)
        return replace(self, elliptic_orders=tuple(orders), volume=None)


@dataclass(frozen=True)
class DegeneratingFamily:
    """A surface template with a monotone schedule of degenerating orders.

    Each schedule entry assigns one order per degenerating cone and must
    dominate the previous entry componentwise.
    """

    template: SurfaceData
    schedule: tuple = ()

    def __post_init__(self):
        m = len(self.template.degenerating)
        if m == 0:
            raise InvariantViolation("template has no degenerating cones")
        rows = []
        for entry in self.schedule:
            try:
                row = tuple(_check_order(q) for q in entry)
            except DomainError as exc:
                raise InvariantViolation(str(exc)) from exc
            if len(row) != m:
                raise InvariantViolation(
                    f"schedule entry {entry} has {len(row)} orders, expected {m}")
            rows.append(row)
        for prev, cur in zip(rows[:-1], rows[1:]):
            if any(c < p for p, c in zip(prev, cur)):
                raise InvariantViolation(
                    f"schedule must be componentwise nondecreasing: "
                    f"{prev} -> {cur}")
        object.__setattr__(self, "schedule", tuple(rows))

    def __len__(self) -> int:
        return len(self.schedule)

    def member(self, k: int) -> SurfaceData:
        return self.template.with_degenerating_orders(self.schedule[k])

    def members(self):
        return [self.member(k) for k in range(len(self.schedule))]

    def log_products(self) -> list:
        """log(prod q_gamma) over the degenerating set, one per member."""
        return [sum(math.log(q) for q in row) for row in self.schedule]


# Arithmetic Hecke orders: the triangle group is commensurable with the
# modular group exactly for these.
HECKE_ARITHMETIC = (3, 4, 6)


def hecke_family(N_list) -> DegeneratingFamily:
    """Degenerating family of the Hecke groups G_N = Z/2 * Z/N: genus zero,
    one cusp, elliptic orders (2, N) with the N-cone degenerating, volume
    pi (N - 2)/N.  Length spectra and small eigenvalues are left empty:
    they are group data, not signature data.
    """
    Ns = [int(N) for N in N_list]
    if not Ns:
        raise DomainError("N_list must be nonempty")
    for N in Ns:
        if N < 3:
            raise DomainError(f"Hecke order must be >= 3, got {N}")
    template = SurfaceData(genus=0, num_cusps=1, elliptic_orders=(2, Ns[0]),
                           degenerating=(1,))
    return DegeneratingFamily(template=template,
                              schedule=tuple((N,) for N in Ns))


_SCHEMA_FIELDS = {"genus", "cusps", "elliptic_orders", "degenerating",
                  "lengths", "small_eigenvalues", "cusp_widths", "volume"}


def surface_to_dict(surface: SurfaceData) -> dict:
    out = {
        "genus": surface.genus,
        "cusps": surface.num_cusps,
        "elliptic_orders": list(surface.elliptic_orders),
        "degenerating": list(surface.degenerating),
        "lengths": [{"l": ell, "mult": mult}
                    for ell, mult in surface.length_spectrum],
        "small_eigenvalues": list(surface.small_eigenvalues),
        "volume": surface.volume,
    }
    if surface.cusp_widths is not None:
        out["cusp_widths"] = list(surface.cusp_widths)
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _list_field(data: dict, key: str, of_numbers: bool = True) -> list:
    """data[key], [] when absent, checked to be a list (of numbers when
    of_numbers is set); ParseError naming the field otherwise."""
    values = data.get(key, [])
    if not isinstance(values, list) or (
            of_numbers and not all(map(_is_number, values))):
        raise ParseError(f"field '{key}' must be a list"
                         + (" of numbers" if of_numbers else ""))
    return values


def surface_from_dict(data: dict) -> SurfaceData:
    if not isinstance(data, dict):
        raise ParseError("surface file must contain a JSON object")
    unknown = set(data) - _SCHEMA_FIELDS
    if unknown:
        raise ParseError(f"unknown surface fields: {sorted(unknown)}")
    for key in ("genus", "cusps"):
        if key not in data:
            raise ParseError(f"missing required field '{key}'")
        if type(data[key]) is not int or data[key] < 0:
            raise ParseError(f"field '{key}' must be a nonnegative integer")
    lengths = []
    for i, entry in enumerate(_list_field(data, "lengths", False)):
        try:
            ell, mult = entry["l"], entry.get("mult", 1)
        except (TypeError, KeyError) as exc:
            raise ParseError(
                f"lengths[{i}] must be an object with fields 'l' and 'mult'"
            ) from exc
        if not (_is_number(ell) and _is_number(mult)):
            raise ParseError(f"lengths[{i}]: 'l' and 'mult' must be numbers")
        lengths.append((ell, mult))
    orders = _list_field(data, "elliptic_orders", False)
    for i, q in enumerate(orders):
        if q in ("inf", None) or q == math.inf:
            raise ParseError(f"elliptic_orders[{i}]: infinite orders are cusps;"
                             " use the 'cusps' field")
    volume = data.get("volume")
    if volume is not None and not _is_number(volume):
        raise ParseError("field 'volume' must be a number")
    return SurfaceData(
        genus=data["genus"],
        num_cusps=data["cusps"],
        elliptic_orders=tuple(orders),
        degenerating=tuple(_list_field(data, "degenerating")),
        length_spectrum=tuple(lengths),
        small_eigenvalues=tuple(_list_field(data, "small_eigenvalues")),
        cusp_widths=(tuple(_list_field(data, "cusp_widths"))
                     if data.get("cusp_widths") is not None else None),
        volume=volume,
    )


def _read_json(path):
    """The parsed contents of the JSON file at path; ParseError when it
    cannot be read or decoded, naming the line and column of a syntax
    error, or when its nesting is deeper than the parser's recursion
    limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to read") from exc


def load_surface(path) -> SurfaceData:
    """Load a surface from its JSON file, normalizing (sorting) on the way in.

    Raises ParseError with field diagnostics for malformed files and
    InvariantViolation naming the failed invariant for inconsistent data.
    """
    return surface_from_dict(_read_json(path))


def save_surface(surface: SurfaceData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_dict(surface), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_family(path) -> DegeneratingFamily:
    """Load a degenerating family: {"surface": {...}, "schedule": [[q,...],...]}."""
    data = _read_json(path)
    if not isinstance(data, dict) or "surface" not in data:
        raise ParseError("family file must be an object with a 'surface' field")
    template = surface_from_dict(data["surface"])
    schedule = data.get("schedule", [])
    if not isinstance(schedule, list):
        raise ParseError("'schedule' must be a list of order vectors")
    rows = tuple(tuple(row) if isinstance(row, list) else (row,)
                 for row in schedule)
    return DegeneratingFamily(template=template, schedule=rows)

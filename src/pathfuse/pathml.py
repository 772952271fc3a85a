"""PathML documents: an AutomationML/CAEX-style XML interchange for tool paths.

The document tree is ::

    CAEXFile FileName="<project>.aml"
      InstanceHierarchy Name="PathML"
        InternalElement Name="<project>"        (process Attributes)
          InternalElement Name="Layer_<i>"      (Attribute Index)
            InternalElement Name="Track_<j>"    (Attribute ToolActive)
              InternalElement Name="Point_<k>"  (X_mm ... Velocity_mm_s Attributes)

Every Attribute holds its value as the text of a single Value child.  Numeric
values are written with six decimals; angles are degrees, positions are
millimeters.  The writer is canonical: equal documents produce identical
bytes (UTF-8, LF line endings), so emitted files diff cleanly under version
control.

Dataclasses here are deliberately permissive: they hold whatever was parsed
or constructed, and ``validate_document`` reports every rule violation
instead of refusing to represent the data.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ._read import int_value, integer, number
from ._rows import fill_rows
from .cad import MAX_POINTS
from .errors import FrameMismatchError, ParseError, SchemaError, ValidationError
from .fusion import FusedPath
from .geometry import Frame, freeze

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

POINT_ATTRS = ("X_mm", "Y_mm", "Z_mm", "RX_deg", "RY_deg", "RZ_deg", "Velocity_mm_s")

# Each number of ProcessParameters and the PathML attribute that carries it,
# in the order the writer, the readers, the config and the program list them.
PROCESS_NUMBERS = (
    ("glue_flow_rate", "GlueFlowRate_ml_min"),
    ("wire_feed_rate", "WireFeedRate_mm_s"),
    ("layer_height", "LayerHeight_mm"),
)

# Project attribute names an extra may not take: the parser reads a point
# attribute there as a stray, not as an extra.
RESERVED_PROCESS_ATTRS = frozenset({"ProcessType", *(attr for _, attr in PROCESS_NUMBERS), *POINT_ATTRS})

# The characters XML 1.0 cannot carry, escaped or not: C0 controls other than
# tab, LF and CR, lone surrogates, U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class ProcessType(str, Enum):
    ADHESIVE = "adhesive"
    WELDING = "welding"
    OTHER = "other"


@dataclass(frozen=True)
class ProcessParameters:
    """Process metadata carried alongside the geometry.

    ``glue_flow_rate`` is ml/min, ``wire_feed_rate`` mm/s, ``layer_height``
    mm.  ``extra`` is an ordered sequence of (name, text) pairs for
    free-form attributes; order is preserved through serialization.
    """

    process_type: ProcessType
    glue_flow_rate: float | None = None
    wire_feed_rate: float | None = None
    layer_height: float | None = None
    extra: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        pt = self.process_type
        if not isinstance(pt, ProcessType):
            try:
                pt = ProcessType(str(pt))
            except ValueError:
                raise ValueError(f"unknown process type {pt!r}") from None
        object.__setattr__(self, "process_type", pt)
        for name, _ in PROCESS_NUMBERS:
            v = getattr(self, name)
            object.__setattr__(self, name, None if v is None else float(v))
        extra = self.extra
        if isinstance(extra, Mapping):
            pairs = extra.items()
        else:
            pairs = extra
        object.__setattr__(
            self, "extra", tuple((str(k), str(v)) for k, v in pairs)
        )


@dataclass(frozen=True, eq=False)
class Track:
    """A continuous tool motion; ``tool_active`` says whether the tool works here.

    ``points`` is a read-only float array of shape (n, 7), one commanded pose
    per row, columns in ``POINT_ATTRS`` order: position in mm, fixed-axis
    X-Y-Z angles in degrees, speed in mm/s.  Any (n, 7) array-like is copied
    in; empty input becomes (0, 7), any other shape raises ValueError.
    """

    name: str
    points: np.ndarray
    tool_active: bool

    def __post_init__(self):
        object.__setattr__(self, "name", str(self.name))
        (pts,) = freeze(self, points=self.points)
        if pts.size == 0:
            (pts,) = freeze(self, points=pts.reshape(0, len(POINT_ATTRS)))  # empty: no value is copied twice
        if pts.ndim != 2 or pts.shape[1] != len(POINT_ATTRS):
            raise ValueError(f"track points must have shape (n, {len(POINT_ATTRS)}), got {pts.shape}")
        if not isinstance(self.tool_active, (bool, np.bool_)):
            raise ValueError(f"tool_active must be a bool, got {self.tool_active!r}")
        object.__setattr__(self, "tool_active", bool(self.tool_active))

    def __eq__(self, other):
        if not isinstance(other, Track):
            return NotImplemented
        same = (self.name, self.tool_active) == (other.name, other.tool_active)
        return same and np.array_equal(self.points, other.points)


@dataclass(frozen=True)
class Layer:
    """One pass of the process; multi-layer documents stack these by index."""

    name: str
    index: int
    tracks: tuple[Track, ...]

    def __post_init__(self):
        object.__setattr__(self, "name", str(self.name))
        object.__setattr__(self, "index", int_value(self.index, "layer index must be an integer"))
        object.__setattr__(self, "tracks", tuple(self.tracks))


@dataclass(frozen=True)
class PathMLDocument:
    project_name: str
    process: ProcessParameters
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "project_name", str(self.project_name))
        object.__setattr__(self, "layers", tuple(self.layers))


@dataclass(frozen=True)
class Violation:
    """One document rule violation found by validate_document."""

    path: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.path}: {self.rule}: {self.detail}"


def build_document(
    path: FusedPath, process: ProcessParameters, project_name: str
) -> PathMLDocument:
    """Wrap a robot-frame fused path as a single-layer, single-track document.

    The one track is marked tool-active.  Raises FrameMismatchError if the
    path is not in robot coordinates; the document rules are checked by
    ``write_xml`` and ``validate_document``, not here.
    """
    if path.frame != Frame.R:
        raise FrameMismatchError(
            f"documents hold robot-frame paths; got frame {path.frame}"
        )
    points = np.column_stack([path.positions, np.degrees(path.orientations), path.speeds])
    return PathMLDocument(
        project_name=project_name,
        process=process,
        layers=(Layer("Layer_0", 0, (Track("Track_0", points, True),)),),
    )


def validate_document(doc: PathMLDocument) -> list[Violation]:
    """Check every document rule; returns all violations in a stable order."""
    out: list[Violation] = []
    p = doc.process

    if p.process_type == ProcessType.ADHESIVE and p.glue_flow_rate is None:
        out.append(Violation("process", "process", "adhesive requires GlueFlowRate_ml_min"))
    if p.process_type == ProcessType.WELDING and p.wire_feed_rate is None:
        out.append(Violation("process", "process", "welding requires WireFeedRate_mm_s"))
    for label, v in (
        ("GlueFlowRate_ml_min", p.glue_flow_rate),
        ("WireFeedRate_mm_s", p.wire_feed_rate),
    ):
        if v is not None and not math.isfinite(v):
            out.append(Violation("process", "finite", f"{label} is not finite"))
    if p.layer_height is not None and not (
        math.isfinite(p.layer_height) and p.layer_height > 0.0
    ):
        out.append(
            Violation("process", "process", f"LayerHeight_mm must be positive, got {p.layer_height}")
        )
    texts = [("document", "project name", doc.project_name)]
    texts += [("process", "extra", text) for pair in p.extra for text in pair]
    texts += [(layer.name, "layer name", layer.name) for layer in doc.layers]
    texts += [(f"{layer.name}/{t.name}", "track name", t.name) for layer in doc.layers for t in layer.tracks]
    for where, what, text in texts:
        if _NOT_XML.search(text):
            out.append(Violation(where, "character", f"{what} {text!r} holds a character XML 1.0 cannot carry"))
    seen_extra = set()
    for k, _ in p.extra:
        if k in RESERVED_PROCESS_ATTRS:
            out.append(
                Violation("process", "extra", f"extra key {k!r} collides with a reserved attribute")
            )
        if k in seen_extra:
            out.append(Violation("process", "extra", f"duplicate extra key {k!r}"))
        seen_extra.add(k)

    if not doc.layers:
        out.append(Violation("document", "structure", "document has no layers"))

    seen_layers = set()
    for layer in doc.layers:
        lpath = layer.name
        if layer.name in seen_layers:
            out.append(Violation("document", "name", f"duplicate layer name {layer.name!r}"))
        seen_layers.add(layer.name)
        if layer.index < 0:
            out.append(Violation(lpath, "index", f"layer index must be >= 0, got {layer.index}"))
        if not layer.tracks:
            out.append(Violation(lpath, "structure", "layer has no tracks"))
        seen_tracks = set()
        for track in layer.tracks:
            tpath = f"{lpath}/{track.name}"
            if track.name in seen_tracks:
                out.append(Violation(lpath, "name", f"duplicate track name {track.name!r}"))
            seen_tracks.add(track.name)
            if len(track.points) < 2:
                out.append(
                    Violation(tpath, "structure", f"track has {len(track.points)} point(s), needs at least 2")
                )
            speed = track.points[:, -1]
            finite = np.isfinite(track.points).all(axis=1)
            for k in np.flatnonzero(~finite | (speed < 0.0)):
                ppath = f"{tpath}/Point_{k}"
                if not finite[k]:
                    out.append(Violation(ppath, "finite", "point has a non-finite field"))
                else:
                    out.append(Violation(ppath, "velocity", f"velocity must be >= 0, got {float(speed[k])}"))
    return out


def unsign_zeros(text: str, places: int) -> str:
    """Write each ``-0.0…0`` in ``text`` as ``0.0…0``; every number there has ``places`` decimals.

    The sign goes after formatting, not by rounding first: -0.0005 still
    prints -0.001 at three places.
    """
    return text.replace("-0." + "0" * places, "0." + "0" * places)


def _escape(text: str) -> str:
    """Element text as ``xml.sax.saxutils.escape(text, {"\\r": "&#13;"})`` writes it."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;").replace("\r", "&#13;")


def _quoteattr(name: str) -> str:
    """``name`` quoted as ``xml.sax.saxutils.quoteattr(name)`` writes it: LF, CR and tab as
    character references, in ``"``, else in ``'``, else in ``"`` with ``&quot;``."""
    body = _escape(name).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' not in body:
        return f'"{body}"'
    if "'" not in body:
        return f"'{body}'"
    return '"%s"' % body.replace('"', "&quot;")


def _attr_line(indent: int, name: str, text: str) -> str:
    return f'{" " * indent}<Attribute Name={_quoteattr(name)}><Value>{_escape(text)}</Value></Attribute>'


def _open_line(indent: int, name: str) -> str:
    return f'{" " * indent}<InternalElement Name={_quoteattr(name)}>'


def _close_line(indent: int) -> str:
    return f'{" " * indent}</InternalElement>'


def _head_xml(project_name: str) -> str:
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<CAEXFile FileName={_quoteattr(project_name + '.aml')}>",
        '  <InstanceHierarchy Name="PathML">',
        _open_line(4, project_name),
    ])


_TAIL_XML = "\n".join([_close_line(4), "  </InstanceHierarchy>", "</CAEXFile>", ""])

# One Point element; filled with the point index and a row of ``Track.points``.
_POINT_XML = "\n".join(
    [_open_line(10, "Point_%d")]
    + [_attr_line(12, name, "%.6f") for name in POINT_ATTRS]
    + [_close_line(10)]
)


def _points_xml(tracks: Iterable[np.ndarray]) -> Iterator[str]:
    """The Point elements of each track's ``(n, 7)`` points, laid out as write_xml writes them."""
    rows = (np.column_stack([np.arange(len(points)), points]) for points in tracks)
    return fill_rows(_POINT_XML, rows, clean=lambda text: unsign_zeros(text, 6))


def xml_chunks(doc: PathMLDocument) -> Iterator[bytes]:
    """The canonical XML bytes of a valid document, a track at a time.

    An invalid document is refused here, before any chunk is made, with a
    ValidationError listing the problems.  The iterator yields the text up to
    each track's Points, then those Points, and last the text after the last
    track, each UTF-8 encoded, so a writer holds one track at a time.
    """
    bad = validate_document(doc)
    if bad:
        raise ValidationError(
            "cannot serialize an invalid document: " + "; ".join(str(v) for v in bad)
        )
    return _chunks(doc)


def _chunks(doc: PathMLDocument) -> Iterator[bytes]:
    lines = [_head_xml(doc.project_name)]
    p = doc.process
    lines.append(_attr_line(6, "ProcessType", p.process_type.value))
    for field, attr in PROCESS_NUMBERS:
        v = getattr(p, field)
        if v is not None:
            lines.append(_attr_line(6, attr, unsign_zeros(f"{v:.6f}", 6)))
    for k, v in p.extra:
        lines.append(_attr_line(6, k, v))

    points = _points_xml(t.points for layer in doc.layers for t in layer.tracks)
    for layer in doc.layers:
        lines.append(_open_line(6, layer.name))
        lines.append(_attr_line(8, "Index", str(layer.index)))
        for track in layer.tracks:
            lines.append(_open_line(8, track.name))
            lines.append(_attr_line(10, "ToolActive", "true" if track.tool_active else "false"))
            yield "\n".join([*lines, ""]).encode("utf-8")
            yield next(points).encode("utf-8")
            lines = ["", _close_line(8)]
        lines.append(_close_line(6))
    lines.append(_TAIL_XML)
    yield "\n".join(lines).encode("utf-8")


def write_xml(doc: PathMLDocument) -> bytes:
    """Canonical XML bytes of a valid document, ``xml_chunks(doc)`` joined; equal documents, equal bytes."""
    return b"".join(xml_chunks(doc))


# The scanner reads back exactly the layout above.  A name or text may hold
# any character but markup (& < > "), control characters, lone surrogates
# and U+FFFE/U+FFFF: XML neither escapes nor normalises the rest, so
# _quoteattr and _escape leave it alone and the tree parser returns it
# unchanged.  A name holding " is written in ' quotes, which the scanner
# leaves to the tree parser.  A point number is the writer's six-decimal
# form; every other value is any such text, read by the content rules below.
_TEXT = re.compile('[^\x00-\x1f\x7f-\x9f&<>"\ud800-\udfff\ufffe\uffff]*')
_NUMBER = r"-?[0-9]+\.[0-9]{6}"
# The scanner matches the bytes of a file: a name or text is captured as any
# bytes but ASCII controls and markup, then decoded on its own and held to _TEXT.
_NAME = r'([^\x00-\x1f\x7f&<>"]*)'


def _layout_re(template: str, name: str = _NAME) -> re.Pattern[bytes]:
    """Bytes regex of a piece of the writer's layout: ``%s``, ``%d`` holes match ``name``, ``%.6f`` a number."""
    esc = re.escape(template)
    for hole, pattern in (("%.6f", f"({_NUMBER})"), ("%d", name), ("%s", name)):
        esc = esc.replace(re.escape(hole), pattern)
    return re.compile(esc.encode("ascii"))


_HEAD_RE = _layout_re(_head_xml("%s") + "\n")
_PROCESS_ATTR_RE = _layout_re(_attr_line(6, "%s", "%s") + "\n")
_LAYER_RE = _layout_re(_open_line(6, "%s") + "\n" + _attr_line(8, "Index", "%s") + "\n")
_LAYER_END = (_close_line(6) + "\n").encode("ascii")
_TRACK_RE = _layout_re(_open_line(8, "%s") + "\n" + _attr_line(10, "ToolActive", "%s") + "\n")
_TRACK_END = ("\n" + _close_line(8) + "\n").encode("ascii")
_TAIL = _TAIL_XML.encode("ascii")
# A point block, its index captured too, and the length of its literal text:
# blocks tile a track's body exactly when they and their captures add up to it.
_POINT_ROW_RE = _layout_re(_POINT_XML + "\n", "([0-9]+)")
_POINT_LITERAL = len(_POINT_XML.replace("%d", "").replace("%.6f", "")) + 1


def _text(raw: bytes) -> str:
    """A captured name or text; ValueError unless it is UTF-8 of _TEXT's characters."""
    text = raw.decode("utf-8")
    if _TEXT.fullmatch(text) is None:
        raise ValueError(f"{text!r} holds a character the scanner leaves to the tree parser")
    return text


def _scan_canonical(data: bytes) -> PathMLDocument | None:
    """Read the exact layout write_xml emits from ``data`` without building a tree.

    Returns None on any deviation from that layout, the character set or the
    point number form above, so that _parse_tree reads the bytes instead.
    Once the whole layout has matched, the attribute texts go through the
    content rules _parse_tree applies, in document order, so the result is
    _parse_tree's document or its SchemaError.
    """
    m = _HEAD_RE.match(data)
    if m is None or m[1] != m[2]:
        return None
    project_name, pos = m[2], m.end()
    attrs = []
    while m := _PROCESS_ATTR_RE.match(data, pos):
        attrs.append(m.groups())
        pos = m.end()

    layers = []  # (name, Index text, [(name, ToolActive text, points)])
    while m := _LAYER_RE.match(data, pos):
        pos = m.end()
        tracks = []
        while t := _TRACK_RE.match(data, pos):
            # the body runs to the first closing line; an empty one ends where the head does
            start, end = t.end(), data.find(_TRACK_END, t.end() - 1) + 1
            if not end:
                return None
            rows = _POINT_ROW_RE.findall(data, start, end)
            if len(rows) * _POINT_LITERAL + len(b"".join(chain.from_iterable(rows))) != end - start:
                return None
            numbers = np.fromiter(map(float, chain.from_iterable(rows)), float, 8 * len(rows))
            tracks.append((t[1], t[2], numbers.reshape(-1, 8)[:, 1:]))
            pos = end + len(_TRACK_END) - 1
        if not data.startswith(_LAYER_END, pos):
            return None
        pos += len(_LAYER_END)
        layers.append((*m.groups(), tracks))
    if data[pos:] != _TAIL:
        return None
    try:
        project_name = _text(project_name)
        attrs = [(_text(name), _text(text)) for name, text in attrs]
        layers = [(_text(lname), _text(index), [(_text(tname), _text(flag), pts) for tname, flag, pts in tracks])
                  for lname, index, tracks in layers]
    except ValueError:  # a name or text that is not UTF-8 or holds a character _TEXT excludes
        return None

    process = _process(_attribute_dict(attrs, "project"))
    return PathMLDocument(project_name, process, tuple(
        Layer(lname, _layer_index({"Index": index}, lname, ordinal), tuple(
            Track(tname, points, _tool_active({"ToolActive": flag}, f"{lname}/{tname}"))
            for tname, flag, points in tracks
        ))
        for ordinal, (lname, index, tracks) in enumerate(layers)
    ))


# The content rules both readers apply to attribute texts, each raising
# SchemaError that names ``where``.
def _attribute_dict(pairs: Iterable[tuple[str | None, str | None]], where: str) -> dict[str, str]:
    """Ordered Name -> text of (Name, text) pairs; None is a missing Name or Value."""
    out: dict[str, str] = {}
    for name, text in pairs:
        if name is None:
            raise SchemaError(f"{where}: Attribute element without a Name")
        if name in out:
            raise SchemaError(f"{where}: duplicate attribute {name!r}")
        if text is None:
            raise SchemaError(f"{where}: attribute {name!r} has no Value child")
        out[name] = text
    return out


def _parse_float(text: str, key: str, where: str) -> float:
    try:
        return number(text)
    except ValueError:
        raise SchemaError(f"{where}: {key} is not a number: {text!r}") from None


def _no_point_attrs(attrs: dict[str, str], where: str, level: str) -> None:
    stray = next((k for k in POINT_ATTRS if k in attrs), None)
    if stray is not None:
        raise SchemaError(f"{where}: point attribute {stray!r} at {level} level; "
                          "point attributes belong inside a Point element")


def _process(attrs: dict[str, str]) -> ProcessParameters:
    """The process of the project's attributes; those it does not name are its extras."""
    _no_point_attrs(attrs, "project", "project")
    if "ProcessType" not in attrs:
        raise SchemaError("project: missing ProcessType attribute")
    try:
        process_type = ProcessType(attrs.pop("ProcessType"))
    except ValueError:
        raise SchemaError("project: unknown process type") from None
    numbers = {field: _parse_float(attrs.pop(attr), attr, "project")
               for field, attr in PROCESS_NUMBERS if attr in attrs}
    return ProcessParameters(process_type, extra=tuple(attrs.items()), **numbers)


def _layer_index(attrs: dict[str, str], where: str, ordinal: int) -> int:
    """A layer's ``Index``, ``ordinal`` where it has none; no other attribute is allowed."""
    _no_point_attrs(attrs, where, "layer")
    text = attrs.pop("Index", None)
    try:
        index = ordinal if text is None else integer(text)
    except ValueError:
        raise SchemaError(f"{where}: Index is not an integer: {text!r}") from None
    if attrs:
        raise SchemaError(f"{where}: unexpected layer attribute {next(iter(attrs))!r}")
    return index


def _tool_active(attrs: dict[str, str], where: str) -> bool:
    """A track's ``ToolActive``, true or false in any case and white space; no other attribute."""
    _no_point_attrs(attrs, where, "track")
    if "ToolActive" not in attrs:
        raise SchemaError(f"{where}: missing ToolActive attribute")
    flag = attrs.pop("ToolActive").strip().lower()
    if flag not in ("true", "false"):
        raise SchemaError(f"{where}: ToolActive must be true or false, got {flag!r}")
    if attrs:
        raise SchemaError(f"{where}: unexpected track attribute {next(iter(attrs))!r}")
    return flag == "true"


def _attributes(elem: ET.Element, where: str) -> dict[str, str]:
    """Ordered Name -> Value text for an element's Attribute children."""
    pairs = ((child.get("Name"), child.find("Value")) for child in elem if child.tag == "Attribute")
    return _attribute_dict(((name, None if v is None else v.text or "") for name, v in pairs), where)


def _internal_elements(elem: ET.Element, where: str) -> list[ET.Element]:
    out = []
    for child in elem:
        if child.tag == "InternalElement":
            out.append(child)
        elif child.tag != "Attribute":
            raise SchemaError(f"{where}: unexpected element <{child.tag}>")
    return out


def _named(elem: ET.Element, where: str) -> str:
    name = elem.get("Name")
    if name is None:
        raise SchemaError(f"{where}: InternalElement without a Name")
    return name


def parse_xml(data: bytes | str) -> PathMLDocument:
    """Parse PathML XML into a document.

    Structural problems raise SchemaError (a ParseError subtype); malformed
    XML raises ParseError with the line number.  Semantic rules are *not*
    checked here; run validate_document on the result.

    A str is encoded to UTF-8 once; a lone surrogate, which UTF-8 cannot
    carry, raises ParseError on its line as expat numbers them.  The bytes
    in the exact layout write_xml emits are read by a scanner; every other
    layout by an ElementTree walk, with the same result and the same errors.
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError as e:
            raise ParseError(f"malformed XML: {e.reason}", line=len(re.split("\r\n?|\n", data[: e.start]))) from None
    doc = _scan_canonical(data)
    return doc if doc is not None else _parse_tree(data)


def _parse_tree(data: bytes) -> PathMLDocument:
    import xml.etree.ElementTree as ET  # only input the scanner declines pays for loading it

    try:
        root = ET.fromstring(data)
    except ET.ParseError as e:
        line = e.position[0] if e.position else None
        raise ParseError(f"malformed XML: {e}", line=line) from None
    except LookupError as e:  # the XML declaration names an unknown encoding
        raise ParseError(f"malformed XML: {e}", line=1) from None

    if root.tag != "CAEXFile":
        raise SchemaError(f"root element must be <CAEXFile>, got <{root.tag}>")
    if root.get("FileName") is None:
        raise SchemaError("CAEXFile requires a FileName attribute")
    children = list(root)
    if len(children) != 1 or children[0].tag != "InstanceHierarchy":
        raise SchemaError("CAEXFile must contain exactly one InstanceHierarchy")
    hierarchy = children[0]
    if hierarchy.get("Name") != "PathML":
        raise SchemaError(
            f"InstanceHierarchy must be named 'PathML', got {hierarchy.get('Name')!r}"
        )

    projects = list(hierarchy)
    if len(projects) != 1 or projects[0].tag != "InternalElement":
        raise SchemaError("InstanceHierarchy must contain exactly one project element")
    project = projects[0]
    project_name = _named(project, "project")
    process = _process(_attributes(project, "project"))

    layers = []
    for ordinal, layer_elem in enumerate(_internal_elements(project, "project")):
        lname = _named(layer_elem, "layer")
        index = _layer_index(_attributes(layer_elem, lname), lname, ordinal)

        tracks = []
        for track_elem in _internal_elements(layer_elem, lname):
            tname = _named(track_elem, f"{lname}/track")
            where = f"{lname}/{tname}"
            tool_active = _tool_active(_attributes(track_elem, where), where)

            rows = []
            for point_elem in _internal_elements(track_elem, where):
                pname = _named(point_elem, f"{where}/point")
                pwhere = f"{where}/{pname}"
                if len(_internal_elements(point_elem, pwhere)) != 0:
                    raise SchemaError(f"{pwhere}: a Point cannot contain further elements")
                pattrs = _attributes(point_elem, pwhere)
                for key in POINT_ATTRS:
                    if key not in pattrs:
                        raise SchemaError(f"{pwhere}: missing point attribute {key}")
                rows.append([_parse_float(pattrs[key], key, pwhere) for key in POINT_ATTRS])
                for key in pattrs:
                    if key not in POINT_ATTRS:
                        raise SchemaError(f"{pwhere}: unexpected point attribute {key!r}")
            tracks.append(Track(tname, rows, tool_active))
        layers.append(Layer(lname, index, tuple(tracks)))

    return PathMLDocument(project_name, process, tuple(layers))


def _numbered_name(base: str, k: int) -> str:
    m = re.match(r"^(.*?)(\d+)$", base)
    if m:
        return f"{m.group(1)}{k}"
    return f"{base}_{k}"


def expand_layers(doc: PathMLDocument, n_layers: int, direction) -> PathMLDocument:
    """Replicate a single-layer document into ``n_layers`` stacked layers.

    Layer k is the base layer translated by ``k * layer_height * direction``
    (direction must be a unit vector).  Layers are (re)numbered 0..n-1 and
    named by the base layer's name pattern.  When the base layer is open (its
    last position is not its first), odd layers run it backwards, tracks and
    points in reverse order, so that each layer change of the emitted program
    is one layer-height step; a closed base keeps its direction in every
    layer.  ``Velocity_mm_s`` is the speed into a point, so a backwards track
    gives each point the speed of the forward move out of it (forward point i
    gets ``v[i+1]``), and its first row, the forward last point, gets the
    approach speed ``v[0]``.  ``n_layers == 1`` returns the document
    unchanged; a result of more than ``MAX_POINTS`` points raises ValueError.
    """
    n_layers = int_value(n_layers, "n_layers must be an integer")
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    if len(doc.layers) != 1:
        raise ValueError(f"expansion needs a single-layer document, got {len(doc.layers)} layers")
    h = doc.process.layer_height
    if h is None or not (math.isfinite(h) and h > 0.0):
        raise ValueError("expansion requires a positive LayerHeight_mm in the process")
    d = np.asarray(direction, dtype=float).reshape(3)
    if not np.all(np.isfinite(d)) or abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
        raise ValueError("direction must be a finite unit vector")
    if n_layers == 1:
        return doc

    base = doc.layers[0]
    total = n_layers * sum(len(t.points) for t in base.tracks)
    if total > MAX_POINTS:
        raise ValueError(f"{n_layers} layers would hold {total} points; the limit is {MAX_POINTS}")
    lift = np.arange(n_layers)[:, None] * h * d  # row k is (k * h) * d
    ends = [t.points[:, :3] for t in base.tracks if len(t.points)]
    serpentine = bool(ends) and not np.array_equal(ends[0][0], ends[-1][-1])
    stacks = []
    for track in base.tracks:
        stack = np.repeat(track.points[None], n_layers, axis=0)
        stack[:, :, :3] += lift[:, None, :]
        if serpentine:
            # backwards, forward point i is reached from point i+1 at v[i+1]; the last at v[0]
            stack[1::2, :, 6] = np.roll(stack[1::2, :, 6], -1, axis=1)
            stack[1::2] = stack[1::2, ::-1]
        stacks.append(stack)
    layers = []
    for k in range(n_layers):
        tracks = tuple(Track(t.name, s[k], t.tool_active) for t, s in zip(base.tracks, stacks))
        layers.append(Layer(_numbered_name(base.name, k), k, tracks[::-1] if serpentine and k % 2 else tracks))
    return PathMLDocument(doc.project_name, doc.process, tuple(layers))

"""Road-network snapping and geofence evaluation.

Position fixes are projected onto road edge segments with a speed-feasibility
chain: a candidate is kept only if some candidate of the previous fix lies
within reach at the network's maximum speed. Geofence regions are simple
polygons with enter/exit alerting.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .scenario import ScenarioError, _finite, read_csv_rows

ROAD_COLUMNS = ("node_a_id", "node_b_id", "ax", "ay", "bx", "by", "max_speed_mps")
MODES = ("enter", "exit")       # a geofence alerts on one of these


def _check_edge(nodes: dict, a, b, v: float) -> None:
    """Raise ValueError unless edge (a, b) joins two of nodes at v > 0."""
    if a not in nodes or b not in nodes:
        raise ValueError(f"edge ({a},{b}) references unknown node")
    if v <= 0:
        raise ValueError(f"edge ({a},{b}) max_speed {v} <= 0")


@dataclass
class RoadGraph:
    """Edge-segment road network in planar meters."""

    nodes: dict
    edges: list                      # (node_a, node_b, max_speed_mps)
    _ax: np.ndarray = field(init=False, repr=False)
    _ay: np.ndarray = field(init=False, repr=False)
    _bx: np.ndarray = field(init=False, repr=False)
    _by: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.edges:
            raise ValueError("empty road graph")
        for edge in self.edges:
            _check_edge(self.nodes, *edge)
        pa = np.array([self.nodes[a] for a, _, _ in self.edges], dtype=np.float64)
        pb = np.array([self.nodes[b] for _, b, _ in self.edges], dtype=np.float64)
        self._ax, self._ay = pa[:, 0], pa[:, 1]
        self._bx, self._by = pb[:, 0], pb[:, 1]

    @property
    def max_speed(self) -> float:
        return max(v for _, _, v in self.edges)

    def project(self, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Perpendicular-foot projection of p onto every edge segment.

        Returns (distances, points, t_parameters), one entry per edge.
        """
        px, py = float(p[0]), float(p[1])
        dx, dy = self._bx - self._ax, self._by - self._ay
        seg2 = np.maximum(dx * dx + dy * dy, 1e-30)
        t = np.clip(((px - self._ax) * dx + (py - self._ay) * dy) / seg2, 0.0, 1.0)
        qx, qy = self._ax + t * dx, self._ay + t * dy
        dist = np.hypot(px - qx, py - qy)
        return dist, np.column_stack([qx, qy]), t

    def nearest_candidates(self, p, k: int) -> list[tuple[float, tuple[float, float]]]:
        """k nearest edge projections as (distance, point), deterministic.

        Distance ties break on (edge index, segment parameter).
        """
        dist, pts, t = self.project(p)
        order = np.lexsort((t, np.arange(len(self.edges)), dist))[:k]
        return [(float(dist[i]), (float(pts[i, 0]), float(pts[i, 1])))
                for i in order]


@dataclass
class Fix:
    t: float
    position: tuple[float, float]
    snapped: tuple[float, float] | None = None
    candidates: list = field(default_factory=list)
    reseeded: bool = False


def snap_trajectory(fixes: list[Fix], graph: RoadGraph, k: int = 5) -> list[Fix]:
    """Snap a time-ordered trajectory onto the road network.

    Each fix's k nearest edge projections are filtered to those reachable
    from at least one candidate of the previous fix within
    (t_i - t_{i-1}) * max network speed. An emptied filter re-seeds from
    the unconstrained k-nearest (flagged on the fix). The snapped point is
    the nearest surviving candidate. A fix whose t is not after the
    previous fix's raises ValueError: its reach would be negative.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vmax = graph.max_speed
    out = []
    prev_pts: list[tuple[float, float]] = []
    prev_t = None
    for i, fx in enumerate(fixes):
        if prev_t is not None and not fx.t > prev_t:
            raise ValueError(f"fix {i}: t = {fx.t:g} is not after the "
                             f"previous fix's {prev_t:g}")
        cands = graph.nearest_candidates(fx.position, k)
        reseeded = False
        if prev_pts:
            reach = (fx.t - prev_t) * vmax
            kept = [c for c in cands
                    if any(np.hypot(c[1][0] - q[0], c[1][1] - q[1]) <= reach
                           for q in prev_pts)]
            if kept:
                cands = kept
            else:
                reseeded = True
        snapped = cands[0][1]
        out.append(Fix(t=fx.t, position=fx.position, snapped=snapped,
                       candidates=[c[1] for c in cands], reseeded=reseeded))
        prev_pts = [c[1] for c in cands]
        prev_t = fx.t
    return out


def point_in_polygon(p, polygon: np.ndarray) -> bool:
    """Even-odd rule ray crossing test; boundary treated half-open."""
    x, y = float(p[0]), float(p[1])
    poly = np.asarray(polygon, dtype=np.float64)
    inside = False
    j = len(poly) - 1
    for i in range(len(poly)):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def _segments_cross(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    return (orient(p1, p2, p3) * orient(p1, p2, p4) < 0 and
            orient(p3, p4, p1) * orient(p3, p4, p2) < 0)


@dataclass
class GeofenceRegion:
    polygon: np.ndarray
    mode: str = "exit"

    def __post_init__(self):
        self.polygon = np.asarray(self.polygon, dtype=np.float64)
        if self.polygon.ndim != 2 or self.polygon.shape[0] < 3 \
                or self.polygon.shape[1] != 2:
            raise ValueError("polygon needs >= 3 (x, y) vertices")
        if self.mode not in MODES:
            raise ValueError(f"mode must be enter or exit, got {self.mode!r}")
        n = len(self.polygon)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(i - j) in (0, 1, n - 1):
                    continue    # adjacent edges share a vertex
                if _segments_cross(self.polygon[i], self.polygon[(i + 1) % n],
                                   self.polygon[j], self.polygon[(j + 1) % n]):
                    raise ValueError("polygon is self-intersecting")


def geofence_events(fixes: list[Fix],
                    region: GeofenceRegion) -> list[tuple[float, str]]:
    """Alert timestamps where the tracked state transitions per region.mode.

    A fix is inside when its snapped position (when available, else the
    raw one) lies in the polygon. Only transitions matching region.mode
    emit events; the first fix sets the initial state silently.
    """
    events = []
    prev_inside = None
    for fx in fixes:
        p = fx.snapped if fx.snapped is not None else fx.position
        inside = point_in_polygon(p, region.polygon)
        if prev_inside is not None and inside != prev_inside:
            kind = "enter" if inside else "exit"
            if kind == region.mode:
                events.append((fx.t, kind))
        prev_inside = inside
    return events


def load_road_graph_csv(path) -> RoadGraph:
    """Edge list with the ROAD_COLUMNS header, one edge per row; errors
    name path, and path:line for a row."""
    nodes, edges = {}, []
    for ln, r in read_csv_rows(path, ROAD_COLUMNS):
        a, b = r["node_a_id"], r["node_b_id"]
        ax, ay, bx, by, v = _finite([r[c] for c in ROAD_COLUMNS[2:]],
                                    f"{path}:{ln}")
        for nid, xy in ((a, (ax, ay)), (b, (bx, by))):
            if nid in nodes and nodes[nid] != xy:
                raise ScenarioError(f"{path}:{ln}: node {nid} repositioned")
            nodes[nid] = xy
        try:
            _check_edge(nodes, a, b, v)
        except ValueError as e:
            raise ScenarioError(f"{path}:{ln}: {e}") from None
        edges.append((a, b, v))
    try:
        return RoadGraph(nodes=nodes, edges=edges)
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from None


def load_geofence_csv(path) -> GeofenceRegion:
    """First row 'mode,<enter|exit>', then one 'x,y' vertex per row, read
    as CSV, so a field may be quoted; whitespace-only lines are skipped.
    Errors name path, and path:line for a row."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        first = [v.strip() for v in next(reader, [])]
        if len(first) != 2 or first[0] != "mode" or first[1] not in MODES:
            raise ScenarioError(f"{path}:1: first line must be 'mode,<enter|exit>'")
        mode = first[1]
        verts = []
        for xy in reader:
            if len(xy) > 1 or "".join(xy).strip():     # not a blank line
                if len(xy) != 2:
                    raise ScenarioError(f"{path}:{reader.line_num}: expected "
                                        f"'x,y', got {','.join(xy)!r}")
                verts.append(_finite(xy, f"{path}:{reader.line_num}"))
    try:
        return GeofenceRegion(polygon=np.array(verts), mode=mode)
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from None

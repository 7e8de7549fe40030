"""Road snapping, speed-feasibility chaining, polygons, geofence alerts."""
import numpy as np
import pytest

from foldloc.roads import (Fix, GeofenceRegion, RoadGraph, geofence_events,
                           load_geofence_csv, load_road_graph_csv,
                           point_in_polygon, snap_trajectory)


def _straight_road(y=0.0, speed=20.0):
    return RoadGraph(nodes={"a": (0.0, y), "b": (1000.0, y)},
                     edges=[("a", "b", speed)])


def _two_parallel_roads(gap=100.0, speed=20.0):
    return RoadGraph(
        nodes={"a": (0.0, 0.0), "b": (1000.0, 0.0),
               "c": (0.0, gap), "d": (1000.0, gap)},
        edges=[("a", "b", speed), ("c", "d", speed)])


# ------------------------------------------------------------ projection


def test_snap_perpendicular_foot():
    g = _straight_road()
    out = snap_trajectory([Fix(t=0.0, position=(400.0, 30.0))], g)
    assert out[0].snapped == pytest.approx((400.0, 0.0))
    disp = np.hypot(out[0].snapped[0] - 400.0, out[0].snapped[1] - 30.0)
    assert disp == pytest.approx(30.0)


def test_snap_identity_on_road():
    g = _straight_road()
    out = snap_trajectory([Fix(t=0.0, position=(250.0, 0.0))], g)
    assert abs(out[0].snapped[0] - 250.0) < 1e-6
    assert abs(out[0].snapped[1]) < 1e-6


def test_snap_clamps_to_segment_end():
    g = _straight_road()
    out = snap_trajectory([Fix(t=0.0, position=(1200.0, 50.0))], g)
    assert out[0].snapped == pytest.approx((1000.0, 0.0))


def test_nearest_candidates_deterministic_ordering():
    g = _two_parallel_roads(gap=10.0)
    a = g.nearest_candidates((500.0, 5.0), 4)
    b = g.nearest_candidates((500.0, 5.0), 4)
    assert a == b
    # equidistant between the roads: the lower edge index wins the tie
    assert a[0][1] == pytest.approx((500.0, 0.0))


# ------------------------------------------------- speed-feasibility chain


def test_chain_rejects_unreachable_parallel_road():
    # 100 m hop in 1 s exceeds the 20 mps network limit; the spur at
    # y = -20 keeps the first fix's k=2 candidates off the far road
    g = RoadGraph(nodes={"a": (0.0, 0.0), "b": (1000.0, 0.0),
                         "c": (0.0, 100.0), "d": (1000.0, 100.0),
                         "e": (0.0, -20.0), "f": (1000.0, -20.0)},
                  edges=[("a", "b", 20.0), ("c", "d", 20.0),
                         ("e", "f", 20.0)])
    fixes = [Fix(t=0.0, position=(500.0, -5.0)),
             Fix(t=1.0, position=(510.0, 60.0))]
    out = snap_trajectory(fixes, g, k=2)
    assert out[0].snapped == pytest.approx((500.0, 0.0))
    # raw point is nearer the far road, but only the near road is reachable
    assert out[1].snapped == pytest.approx((510.0, 0.0))
    assert not out[1].reseeded


def test_chain_allows_reachable_hop():
    g = _two_parallel_roads(gap=100.0, speed=20.0)
    fixes = [Fix(t=0.0, position=(500.0, -5.0)),
             Fix(t=10.0, position=(510.0, 60.0))]
    out = snap_trajectory(fixes, g, k=2)
    assert out[1].snapped == pytest.approx((510.0, 100.0))


def test_chain_reseeds_when_everything_unreachable():
    g = _two_parallel_roads(gap=100.0, speed=20.0)
    fixes = [Fix(t=0.0, position=(0.0, -5.0)),
             Fix(t=0.1, position=(900.0, 60.0))]
    out = snap_trajectory(fixes, g, k=1)
    assert out[1].reseeded
    assert out[1].snapped == pytest.approx((900.0, 100.0))
    assert not out[0].reseeded


def test_chain_invariant_on_random_trajectories():
    """Every non-reseeded snap lies within reach of some candidate of the
    previous fix; every snapped point is one of its own candidates."""
    rng = np.random.default_rng(12)
    g = _two_parallel_roads(gap=40.0, speed=15.0)
    for _ in range(10):
        t = np.cumsum(rng.uniform(0.5, 3.0, size=12))
        xs = np.cumsum(rng.uniform(-20.0, 20.0, size=12)) + 500.0
        ys = rng.uniform(-10.0, 50.0, size=12)
        fixes = [Fix(t=float(ti), position=(float(x), float(y)))
                 for ti, x, y in zip(t, xs, ys)]
        out = snap_trajectory(fixes, g, k=3)
        for i, fx in enumerate(out):
            assert fx.snapped in fx.candidates
            if i == 0 or fx.reseeded:
                continue
            reach = (out[i].t - out[i - 1].t) * g.max_speed
            assert any(np.hypot(fx.snapped[0] - q[0], fx.snapped[1] - q[1])
                       <= reach + 1e-9 for q in out[i - 1].candidates)


def test_snap_rejects_bad_k():
    with pytest.raises(ValueError):
        snap_trajectory([Fix(t=0.0, position=(0.0, 0.0))], _straight_road(), k=0)


@pytest.mark.parametrize("times, message", [
    ((5.0, 4.0, 4.0), "fix 1: t = 4 is not after the previous fix's 5"),
    ((5.0, 6.0, 6.0), "fix 2: t = 6 is not after the previous fix's 6"),
], ids=["step_back", "repeated"])
def test_snap_rejects_fixes_out_of_time_order(times, message):
    """A fix no later than the previous one raises instead of re-seeding
    every later fix from a negative reach."""
    fixes = [Fix(t=t, position=(100.0 * i, 5.0)) for i, t in enumerate(times)]
    with pytest.raises(ValueError, match=message):
        snap_trajectory(fixes, _straight_road())


# ------------------------------------------------------------ graph checks


def test_empty_graph_raises():
    with pytest.raises(ValueError):
        RoadGraph(nodes={}, edges=[])


def test_unknown_node_raises():
    with pytest.raises(ValueError):
        RoadGraph(nodes={"a": (0.0, 0.0)}, edges=[("a", "zz", 10.0)])


def test_nonpositive_speed_raises():
    with pytest.raises(ValueError):
        RoadGraph(nodes={"a": (0.0, 0.0), "b": (1.0, 0.0)},
                  edges=[("a", "b", 0.0)])


# --------------------------------------------------------------- polygons


def _winding_inside(p, poly):
    """Angle-sum winding oracle, independent of the ray-crossing code."""
    v = poly - np.asarray(p, dtype=np.float64)
    ang = np.arctan2(v[:, 1], v[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return abs(d.sum()) > np.pi


def test_point_in_polygon_convex_oracle():
    ang = np.linspace(0, 2 * np.pi, 9)[:-1]
    poly = np.stack([100 * np.cos(ang), 100 * np.sin(ang)], axis=1)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-150, 150, size=(1000, 2))
    for p in pts:
        assert point_in_polygon(p, poly) == _winding_inside(p, poly)


def test_point_in_polygon_concave_oracle():
    # five-pointed star: concave simple polygon
    outer = np.linspace(0, 2 * np.pi, 6)[:-1] + np.pi / 2
    inner = outer + np.pi / 5
    poly = np.empty((10, 2))
    poly[0::2] = np.stack([100 * np.cos(outer), 100 * np.sin(outer)], axis=1)
    poly[1::2] = np.stack([40 * np.cos(inner), 40 * np.sin(inner)], axis=1)
    rng = np.random.default_rng(4)
    for p in rng.uniform(-120, 120, size=(500, 2)):
        assert point_in_polygon(p, poly) == _winding_inside(p, poly)


def test_point_in_polygon_basic():
    sq = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    assert point_in_polygon((5.0, 5.0), sq)
    assert not point_in_polygon((15.0, 5.0), sq)
    assert not point_in_polygon((-1.0, -1.0), sq)


# --------------------------------------------------------------- geofence


_SQ = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])


def _walk(points, t0=0.0, dt=1.0):
    return [Fix(t=t0 + i * dt, position=tuple(map(float, p)))
            for i, p in enumerate(points)]


def test_geofence_exit_alert():
    region = GeofenceRegion(polygon=_SQ, mode="exit")
    fixes = _walk([(50, 50), (70, 50), (130, 50), (150, 50)])
    events = geofence_events(fixes, region)
    assert events == [(2.0, "exit")]


def test_geofence_no_alert_while_inside():
    region = GeofenceRegion(polygon=_SQ, mode="exit")
    fixes = _walk([(50, 50), (60, 60), (20, 80), (90, 10)])
    assert geofence_events(fixes, region) == []


def test_geofence_enter_alert():
    region = GeofenceRegion(polygon=_SQ, mode="enter")
    fixes = _walk([(150, 50), (120, 50), (80, 50)])
    assert geofence_events(fixes, region) == [(2.0, "enter")]


def test_geofence_mode_filters_opposite_transition():
    region = GeofenceRegion(polygon=_SQ, mode="enter")
    fixes = _walk([(50, 50), (150, 50), (50, 50), (150, 50)])
    events = geofence_events(fixes, region)
    assert events == [(2.0, "enter")]


def test_geofence_crossing_parity():
    region = GeofenceRegion(polygon=_SQ, mode="exit")
    pts, inside = [], []
    for i in range(9):
        if i % 2 == 0:
            pts.append((50, 50)); inside.append(True)
        else:
            pts.append((150, 50)); inside.append(False)
    events = geofence_events(_walk(pts), region)
    expected_exits = sum(1 for a, b in zip(inside, inside[1:]) if a and not b)
    assert len(events) == expected_exits
    assert all(kind == "exit" for _, kind in events)


def test_geofence_snapped_position_preferred():
    region = GeofenceRegion(polygon=_SQ, mode="exit")
    fixes = [Fix(t=0.0, position=(50.0, 50.0)),
             Fix(t=1.0, position=(150.0, 50.0), snapped=(90.0, 50.0))]
    assert geofence_events(fixes, region) == []


def test_geofence_region_validation():
    with pytest.raises(ValueError):
        GeofenceRegion(polygon=_SQ[:2], mode="exit")
    with pytest.raises(ValueError):
        GeofenceRegion(polygon=_SQ, mode="sideways")
    bowtie = np.array([[0.0, 0.0], [10.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
    with pytest.raises(ValueError):
        GeofenceRegion(polygon=bowtie, mode="exit")


# ------------------------------------------------------------ CSV loaders


ROAD_HEADER = "node_a_id,node_b_id,ax,ay,bx,by,max_speed_mps"


def test_load_road_graph_csv(tmp_path):
    p = tmp_path / "roads.csv"
    p.write_text(ROAD_HEADER + "\n"
                 "a,b,0,0,1000,0,20\n"
                 "b,c,1000,0,1000,500,15\n")
    g = load_road_graph_csv(p)
    assert len(g.edges) == 2
    assert g.max_speed == 20.0
    assert g.nodes["c"] == (1000.0, 500.0)


def test_load_road_graph_rejects_bad_header(tmp_path):
    p = tmp_path / "roads.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_road_graph_csv(p)


def test_load_road_graph_rejects_moved_node(tmp_path):
    p = tmp_path / "roads.csv"
    p.write_text(ROAD_HEADER + "\n"
                 "a,b,0,0,1000,0,20\n"
                 "a,c,5,5,1000,500,15\n")
    with pytest.raises(ValueError):
        load_road_graph_csv(p)


def test_load_geofence_csv(tmp_path):
    p = tmp_path / "fence.csv"
    p.write_text("mode,enter\n0,0\n100,0\n100,100\n0,100\n")
    r = load_geofence_csv(p)
    assert r.mode == "enter"
    assert r.polygon.shape == (4, 2)


def test_load_geofence_rejects_bad_first_line(tmp_path):
    p = tmp_path / "fence.csv"
    p.write_text("polygon,exit\n0,0\n1,0\n1,1\n")
    with pytest.raises(ValueError):
        load_geofence_csv(p)

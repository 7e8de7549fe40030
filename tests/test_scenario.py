"""Scenario INI loading, seed substreams, cell database resolution, CSV
tables."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foldloc.frontend import CellConfig, FrontEndConfig
from foldloc.lte import BANDWIDTH_TABLE, FrameConfig, Pci
from foldloc.scenario import (CellDatabase, Scenario, ScenarioError,
                              load_cell_db, load_scenario, read_csv_rows,
                              scenario_cell_db, substream, write_csv_rows)

GOOD_INI = """\
[scenario]
seed = 7
n_frames_per_fix = 4
thresh_pss = 0.25
solver = ratio

[frontend]
noise_sigma = 0.001

[cell.a]
pci = 101
carrier_hz = 2.145e9
x = 0
y = 0

[cell.b]
pci = 202
carrier_hz = 2.145e9
x = 2000
y = 0
tx_power_dbm = 33

[trajectory]
points = 0,500,100; 1,520,100; 2,540,100
"""


def _write(tmp_path, text, name="sc.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- loading


def test_load_scenario_happy_path(tmp_path):
    sc = load_scenario(_write(tmp_path, GOOD_INI))
    assert sc.rng_seed == 7
    assert sc.n_frames_per_fix == 4
    assert sc.thresh_pss == 0.25
    assert sc.solver == "ratio"
    assert sc.front_end.noise_sigma == 0.001
    assert [c.pci.value for c in sc.cells] == [101, 202]
    assert sc.cells[1].tx_power_dbm == 33.0
    assert sc.cells[0].tx_power_dbm == 30.0
    assert sc.trajectory == [(0.0, 500.0, 100.0), (1.0, 520.0, 100.0),
                             (2.0, 540.0, 100.0)]


def test_load_scenario_static_trajectory(tmp_path):
    ini = GOOD_INI.replace("points = 0,500,100; 1,520,100; 2,540,100",
                           "static = 500 100\nn_fixes = 3")
    sc = load_scenario(_write(tmp_path, ini))
    assert sc.trajectory == [(0.0, 500.0, 100.0), (1.0, 500.0, 100.0),
                             (2.0, 500.0, 100.0)]


def test_missing_file_raises(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.ini")


def test_error_carries_section_and_key(tmp_path):
    ini = GOOD_INI.replace("pci = 101\n", "")
    with pytest.raises(ScenarioError, match=r"\[cell\.a\].*pci"):
        load_scenario(_write(tmp_path, ini))


def test_error_on_uncastable_value(tmp_path):
    ini = GOOD_INI.replace("seed = 7", "seed = seven")
    with pytest.raises(ScenarioError, match=r"\[scenario\].*seed"):
        load_scenario(_write(tmp_path, ini))


def test_error_on_bad_trajectory_point(tmp_path):
    ini = GOOD_INI.replace("points = 0,500,100; 1,520,100; 2,540,100",
                           "points = 0,500")
    with pytest.raises(ScenarioError, match="trajectory"):
        load_scenario(_write(tmp_path, ini))


@pytest.mark.parametrize("trajectory", [
    "points = 0,nan,5; 1,100,200", "points = 0,1,2; inf,100,200",
    "points = 0,1,-inf; 1,100,200", "static = nan 5", "static = 5 inf"])
def test_error_on_nonfinite_trajectory(tmp_path, trajectory):
    ini = GOOD_INI.replace("points = 0,500,100; 1,520,100; 2,540,100",
                           trajectory)
    with pytest.raises(ScenarioError, match="non-finite t, x or y"):
        load_scenario(_write(tmp_path, ini))


def test_error_on_missing_trajectory(tmp_path):
    ini = GOOD_INI.split("[trajectory]")[0]
    with pytest.raises(ScenarioError, match="trajectory"):
        load_scenario(_write(tmp_path, ini))


def test_error_on_both_trajectory_forms(tmp_path):
    ini = GOOD_INI + "static = 1 2\n"
    with pytest.raises(ScenarioError, match="not both"):
        load_scenario(_write(tmp_path, ini))


def test_error_on_unknown_bandwidth(tmp_path):
    ini = GOOD_INI.replace("pci = 101", "pci = 101\nbandwidth_mhz = 7")
    with pytest.raises(ScenarioError, match=r"\[cell\.a\]"):
        load_scenario(_write(tmp_path, ini))


def test_duplicate_cell_rejected(tmp_path):
    ini = GOOD_INI.replace("pci = 202", "pci = 101")
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(_write(tmp_path, ini))


def test_nonincreasing_trajectory_rejected(tmp_path):
    ini = GOOD_INI.replace("points = 0,500,100; 1,520,100; 2,540,100",
                           "points = 0,500,100; 1,520,100; 1,540,100")
    with pytest.raises(ScenarioError, match="increasing"):
        load_scenario(_write(tmp_path, ini))


@pytest.mark.parametrize("old, new, named", [
    ("thresh_pss = 0.25", "thresh_pss = 0.25\ntresh_sss = 0.99",
     r"\[scenario\]: unknown key 'tresh_sss'"),
    ("tx_power_dbm = 33", "tx_powr_dbm = 33",
     r"\[cell\.b\]: unknown key 'tx_powr_dbm'"),
    ("noise_sigma = 0.001", "noise_sigma = 0.001\nnoise = 0.1",
     r"\[frontend\]: unknown key 'noise'"),
    ("points =", "n_fix = 2\npoints =", r"\[trajectory\]: unknown key 'n_fix'"),
    ("[scenario]", "[scenaro]", r"unknown section \[scenaro\]"),
    ("[cell.a]", "[cells.a]", r"unknown section \[cells\.a\]"),
    ("seed = 7", "seed = 7\nmode = plain", r"\[scenario\]: unknown key 'mode'"),
    ("seed = 7", "seed = 7\nmode = phat", r"\[scenario\]: unknown key 'mode'"),
    ("seed = 7", "seed = 7\nrng_seed = 8",
     r"\[scenario\]: unknown key 'rng_seed'"),
    ("seed = 7", "seed = 7\ncorrelation_mode = plain",
     r"\[scenario\]: unknown key 'correlation_mode'"),
    ("noise_sigma = 0.001", "noise_sigma = 0.001\nadc_rate_hz = 1.92e6",
     r"\[frontend\]: unknown key 'adc_rate_hz'"),
    ("noise_sigma = 0.001", "noise_sigma = 0.001\nlpf_cutoff_hz = 1.4e6",
     r"\[frontend\]: unknown key 'lpf_cutoff_hz'"),
    ("noise_sigma = 0.001", "noise_sigma = 0.001\nlpf_transition_hz = 0.4e6",
     r"\[frontend\]: unknown key 'lpf_transition_hz'"),
    ("noise_sigma = 0.001", "noise_sigma = 0.001\nlpf_atten_db = 60",
     r"\[frontend\]: unknown key 'lpf_atten_db'"),
    ("noise_sigma = 0.001", "noise_sigma = 0.001\nsensitivity_floor_dbm = -70",
     r"\[frontend\]: unknown key 'sensitivity_floor_dbm'"),
], ids=["tresh_sss", "tx_powr_dbm", "frontend_key", "trajectory_key", "scenaro",
        "cells_section", "mode_plain", "mode_phat", "rng_seed",
        "correlation_mode", "adc_rate_hz", "lpf_cutoff_hz", "lpf_transition_hz",
        "lpf_atten_db", "sensitivity_floor_dbm"])
def test_unknown_section_or_key_rejected(tmp_path, old, new, named):
    assert old in GOOD_INI
    with pytest.raises(ScenarioError, match=named):
        load_scenario(_write(tmp_path, GOOD_INI.replace(old, new, 1)))


def test_defaults_are_the_dataclass_defaults(tmp_path):
    ini = ("[cell.a]\npci = 1\ncarrier_hz = 2.1e9\nx = 0\ny = 0\n"
           "[trajectory]\nstatic = 5 5\n")
    sc = load_scenario(_write(tmp_path, ini))
    default = Scenario(cells=sc.cells, front_end=FrontEndConfig(),
                       trajectory=[(0.0, 5.0, 5.0)])
    assert sc == default
    assert sc.front_end.noise_sigma == FrontEndConfig().noise_sigma
    assert sc.cells == [CellConfig(pci=Pci(1), carrier_hz=2.1e9)]


def test_every_setting_of_the_docstring_is_accepted(tmp_path):
    ini = """\
[scenario]
seed = 3
n_frames_per_fix = 2
thresh_pss = 0.2
thresh_sss = 0.4
solver = ratio

[frontend]
noise_sigma = 0.01

[cell.a]
pci = 7
carrier_hz = 2.1e9
x = 1
y = 2
bandwidth_mhz = 5
tx_power_dbm = 40
frame_time_origin_s = 0.001

[trajectory]
static = 5 5
n_fixes = 2
"""
    sc = load_scenario(_write(tmp_path, ini))
    assert (sc.rng_seed, sc.n_frames_per_fix, sc.thresh_pss, sc.thresh_sss,
            sc.solver) == (3, 2, 0.2, 0.4, "ratio")
    assert sc.front_end.noise_sigma == 0.01
    assert sc.cells == [CellConfig(Pci(7), 2.1e9, FrameConfig.from_bandwidth(5),
                                   (1.0, 2.0), 40.0, 0.001)]
    assert sc.trajectory == [(0.0, 5.0, 5.0), (1.0, 5.0, 5.0)]


def test_nonfinite_cell_value_names_section(tmp_path):
    ini = GOOD_INI.replace("x = 2000", "x = nan")
    with pytest.raises(ScenarioError, match=r"\[cell\.b\]: non-finite value in CellConfig"):
        load_scenario(_write(tmp_path, ini))


@pytest.mark.parametrize("old, new, named", [
    ("thresh_pss = 0.25", "thresh_pss = nan", "thresh_pss and thresh_sss"),
    ("thresh_pss = 0.25", "thresh_pss = 0.25\nthresh_sss = -inf",
     "thresh_pss and thresh_sss"),
    ("noise_sigma = 0.001", "noise_sigma = nan",
     r"\[frontend\]: non-finite value in FrontEndConfig"),
    # the floor is the constant frontend.SENSITIVITY_FLOOR_DBM, not a key
    ("noise_sigma = 0.001", "noise_sigma = 0.001\nsensitivity_floor_dbm = inf",
     r"\[frontend\]: unknown key 'sensitivity_floor_dbm'"),
    ("noise_sigma = 0.001", "noise_sigma = -0.001",
     r"\[frontend\]: noise_sigma must be >= 0"),
], ids=["thresh_pss_nan", "thresh_sss_-inf", "noise_sigma_nan",
        "sensitivity_floor_dbm_inf", "noise_sigma_negative"])
def test_nonfinite_setting_rejected(tmp_path, old, new, named):
    assert old in GOOD_INI
    with pytest.raises(ScenarioError, match=named):
        load_scenario(_write(tmp_path, GOOD_INI.replace(old, new, 1)))


@pytest.mark.parametrize("value", ["1.0", "1.5", "nan", "-1.5"])
@pytest.mark.parametrize("key", ["thresh_pss", "thresh_sss"])
def test_threshold_outside_score_range_rejected(tmp_path, key, value):
    """NCC scores lie in [-1, 1] and a detection must score above its
    threshold, so a threshold outside [-1, 1) is refused, not run."""
    ini = GOOD_INI.replace("thresh_pss = 0.25", f"{key} = {value}")
    with pytest.raises(ScenarioError, match=r"thresh_pss and thresh_sss .*\[-1, 1\)"):
        load_scenario(_write(tmp_path, ini))


def test_threshold_range_ends(tmp_path):
    for pss, sss in ((-1.0, -1.0), (0.999, 0.999)):
        ini = GOOD_INI.replace("thresh_pss = 0.25",
                               f"thresh_pss = {pss}\nthresh_sss = {sss}")
        sc = load_scenario(_write(tmp_path, ini))
        assert (sc.thresh_pss, sc.thresh_sss) == (pss, sss)


def test_default_section_rejected_by_name(tmp_path):
    ini = "[DEFAULT]\ntx_power_dbm = 40\n\n" + GOOD_INI
    with pytest.raises(ScenarioError, match=r"\[DEFAULT\] section") as e:
        load_scenario(_write(tmp_path, ini))
    assert "[frontend]" not in str(e.value)


def test_ini_syntax_error_is_scenario_error(tmp_path):
    ini = GOOD_INI.replace("seed = 7", "seed = 7\nseed = 8")
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(_write(tmp_path, ini))


def test_negative_seed_rejected_by_name(tmp_path):
    ini = GOOD_INI.replace("seed = 7", "seed = -1")
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(_write(tmp_path, ini))


def test_n_fixes_without_static_rejected(tmp_path):
    ini = GOOD_INI + "n_fixes = 3\n"
    with pytest.raises(ScenarioError, match="n_fixes"):
        load_scenario(_write(tmp_path, ini))


def test_scenario_validation_direct(cfg14):
    cell = CellConfig(pci=Pci(1), carrier_hz=2.1e9, frame_cfg=cfg14,
                      position=(0.0, 0.0))
    with pytest.raises(ScenarioError, match="no cells"):
        Scenario(cells=[], front_end=FrontEndConfig(),
                 trajectory=[(0.0, 0.0, 0.0)])
    with pytest.raises(ScenarioError, match="solver"):
        Scenario(cells=[cell], front_end=FrontEndConfig(),
                 trajectory=[(0.0, 0.0, 0.0)], solver="magic")
    with pytest.raises(ScenarioError, match="n_frames_per_fix"):
        Scenario(cells=[cell], front_end=FrontEndConfig(),
                 trajectory=[(0.0, 0.0, 0.0)], n_frames_per_fix=0)
    for point in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, np.nan)):
        with pytest.raises(ScenarioError, match="non-finite t, x or y"):
            Scenario(cells=[cell], front_end=FrontEndConfig(),
                     trajectory=[point])


# ------------------------------------------------------------- substreams


def test_substream_deterministic():
    a = substream(42, "noise", 3).standard_normal(8)
    b = substream(42, "noise", 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_substream_independent_of_draw_order():
    # drawing stream A first then B matches drawing B alone
    _ = substream(42, "noise", 0).standard_normal(1000)
    b1 = substream(42, "noise", 1).standard_normal(8)
    b2 = substream(42, "noise", 1).standard_normal(8)
    assert np.array_equal(b1, b2)


def test_substreams_differ_across_names_indices_seeds():
    draws = {
        "base": substream(1, "noise", 0).standard_normal(4).tobytes(),
        "name": substream(1, "payload", 0).standard_normal(4).tobytes(),
        "index": substream(1, "noise", 1).standard_normal(4).tobytes(),
        "seed": substream(2, "noise", 0).standard_normal(4).tobytes(),
    }
    assert len(set(draws.values())) == 4


def test_substream_unknown_name_raises():
    with pytest.raises(KeyError):
        substream(0, "not-a-stream")


# ---------------------------------------------------------- cell database


DB_HEADER = "pci,x,y,carrier_hz,bandwidth_mhz,tx_power_dbm"


def _cell(pci, x, carrier=2.1e9):
    return CellConfig(pci=Pci(pci), carrier_hz=carrier,
                      frame_cfg=FrameConfig.from_bandwidth(1.4),
                      position=(x, 0.0), tx_power_dbm=30.0)


def test_resolve_unique():
    db = CellDatabase([_cell(10, 0.0), _cell(11, 500.0)])
    assert db.resolve(10).position == (0.0, 0.0)
    assert db.resolve(99) is None


def test_resolve_ambiguous_cold_start_is_none():
    db = CellDatabase([_cell(10, 0.0), _cell(10, 9000.0, 2.2e9)])
    assert db.resolve(10) is None


def test_resolve_ambiguous_prefers_nearest_to_previous_fix():
    db = CellDatabase([_cell(10, 0.0), _cell(10, 9000.0, 2.2e9)])
    assert db.resolve(10, prev_fix=(8000.0, 100.0)).position[0] == 9000.0
    assert db.resolve(10, prev_fix=(100.0, 0.0)).position[0] == 0.0


def test_db_duplicate_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        CellDatabase([_cell(10, 0.0), _cell(10, 1.0)])


def test_db_nonfinite_rejected(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text(DB_HEADER + "\n10,nan,0,2.1e9,1.4,30\n")
    with pytest.raises(ScenarioError, match=r"cells\.csv:2: non-finite value in CellConfig"):
        load_cell_db(p)


def test_cell_config_rejects_nonfinite(cfg14):
    for kw in (dict(carrier_hz=np.inf), dict(position=(0.0, np.nan)),
               dict(tx_power_dbm=-np.inf), dict(frame_time_origin_s=np.nan)):
        args = {"pci": Pci(1), "carrier_hz": 2.1e9, "frame_cfg": cfg14, **kw}
        with pytest.raises(ValueError, match="non-finite"):
            CellConfig(**args)


def test_load_cell_db_round_trip(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text(DB_HEADER + "\n"
                 "10,0,0,2.145e9,1.4,30\n"
                 "11,2000,0,2.145e9,1.4,33\n")
    db = load_cell_db(p)
    assert len(db.cells) == 2
    c = db.cells[1]
    assert (c.pci.value, c.position, c.carrier_hz, c.frame_cfg.bandwidth_mhz,
            c.tx_power_dbm) == (11, (2000.0, 0.0), 2.145e9, 1.4, 33.0)


@pytest.mark.parametrize("row, what", [
    ("999,0,0,2.1e9,1.4,30", "PCI 999"),
    ("10,0,0,2.1e9,7.0,30", "bandwidth 7.0"),
    ("10,0,0,1000,1.4,30", "carrier"),
    ("10,0,inf,2.1e9,1.4,30", r"non-finite .*position=\(0\.0, inf\)"),
    ("10,0,0,2.1e9,1.4,nan", "non-finite .*tx_power_dbm=nan"),
    ("10,0,0,nan,1.4,30", "non-finite .*carrier_hz=nan"),
    ("10.5,0,0,2.1e9,1.4,30", "pci"),
], ids=["pci_999", "bandwidth_7", "carrier_1kHz", "y_inf", "tx_power_nan",
        "carrier_nan", "pci_10.5"])
def test_load_cell_db_rejects_bad_row(tmp_path, row, what):
    p = tmp_path / "cells.csv"
    p.write_text(DB_HEADER + "\n10,0,0,2.2e9,1.4,30\n" + row + "\n")
    with pytest.raises(ScenarioError, match=r"cells\.csv:3: .*" + what):
        load_cell_db(p)


@pytest.mark.parametrize("column", ["tx_powr_dbm", "frame_offset_s",
                                    "frame_time_origin_s"])
def test_load_cell_db_rejects_unknown_column(tmp_path, column):
    p = tmp_path / "cells.csv"
    p.write_text(f"{DB_HEADER},{column}\n10,0,0,2.2e9,1.4,30,0\n")
    with pytest.raises(ScenarioError,
                       match=rf"cells\.csv: unknown columns \['{column}'\]"):
        load_cell_db(p)


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _cells(draw):
    bw = draw(st.sampled_from(sorted(BANDWIDTH_TABLE)))
    return CellConfig(
        pci=Pci(draw(st.integers(0, 503))),
        carrier_hz=draw(st.floats(bw * 1e6, 1e12, exclude_min=True, **_finite)),
        frame_cfg=FrameConfig.from_bandwidth(bw),
        position=(draw(st.floats(-1e7, 1e7, **_finite)),
                  draw(st.floats(-1e7, 1e7, **_finite))),
        tx_power_dbm=draw(st.floats(-50.0, 90.0, **_finite)))


@settings(max_examples=200, deadline=None)
@given(cell=_cells())
def test_cell_db_row_round_trips_any_valid_cell(tmp_path_factory, cell):
    p = tmp_path_factory.mktemp("db") / "cells.csv"
    values = (cell.pci.value, *cell.position, cell.carrier_hz,
              cell.frame_cfg.bandwidth_mhz, cell.tx_power_dbm)
    p.write_text(DB_HEADER + "\n" + ",".join(map(repr, values)) + "\n")
    assert load_cell_db(p).cells == [cell]


def test_load_cell_db_without_rows_rejected(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text(DB_HEADER + "\n")
    with pytest.raises(ScenarioError, match="no cells"):
        load_cell_db(p)


def test_load_cell_db_bad_header(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text("pci,x,y\n1,2,3\n")
    with pytest.raises(ScenarioError):
        load_cell_db(p)


def test_load_cell_db_bad_field_count(tmp_path):
    p = tmp_path / "cells.csv"
    p.write_text(DB_HEADER + "\n10,0,0,2.1e9\n")
    with pytest.raises(ScenarioError, match=":2"):
        load_cell_db(p)


def test_scenario_cell_db_matches_cells(tmp_path):
    sc = load_scenario(_write(tmp_path, GOOD_INI))
    db = scenario_cell_db(sc)
    assert [c.pci.value for c in db.cells] == [101, 202]
    c = db.cells[0]
    assert (*c.position, c.carrier_hz) == (0.0, 0.0, 2.145e9)
    assert db.cells == sc.cells


# a header whose names need quoting, as the rows' text may
TABLE_COLUMNS = ("text", "a,b", 'say "x"', "number")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(
    st.text(), st.text(alphabet=',"\r\n ab'), st.text(),
    st.one_of(st.integers(), st.floats(allow_nan=False)))))
def test_csv_rows_round_trip(tmp_path, rows):
    """Text with commas, quotes and line breaks comes back as written, and
    a number as its str, which parses back to it."""
    path = tmp_path / "t.csv"
    write_csv_rows(path, TABLE_COLUMNS, rows)
    back = list(read_csv_rows(path, TABLE_COLUMNS))
    assert [r for _, r in back] == [dict(zip(TABLE_COLUMNS, (*r[:3], str(r[3]))))
                                    for r in rows]
    assert [type(r[3])(b["number"]) for (_, b), r in zip(back, rows)] == \
        [r[3] for r in rows]
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("existing", [None, "a,b\r\n1,2\r\n"])
def test_csv_rows_failing_part_way_leave_path_as_it_was(tmp_path, existing):
    """Rows that raise part-way: the error reaches the caller, no temporary
    file is left, and path keeps what it held, or stays absent."""
    path = tmp_path / "t.csv"
    if existing is not None:
        path.write_bytes(existing.encode())

    def rows():
        yield (1, 2)
        raise KeyError("row 2")

    with pytest.raises(KeyError):
        write_csv_rows(path, ("a", "b"), rows())
    assert [p.name for p in tmp_path.iterdir()] == \
        ([] if existing is None else ["t.csv"])
    if existing is not None:
        assert path.read_bytes() == existing.encode()

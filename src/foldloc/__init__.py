"""foldloc: cell identification and localization from square-law captures.

An envelope detector squares the RF it sees, folding every band's content
down to difference frequencies. LTE sync signals survive that folding with
enough structure to identify cells, recover timing to a fraction of a
sample, and localize the receiver, all from a single diode-grade front end
sampled below 2 MHz.
"""
from .amplitude import SubsampleEstimate, estimate_subsample, fit_amplitude
from .detect import (Detection, TemplateBank, build_bank, hierarchical_detect,
                     refine, stack_frames, suppress_false_positives)
from .frontend import (CellConfig, FrontEndConfig, fold_baseband,
                       lowpass_decimate, path_amplitude)
from .harness import RunReport, run_eval, run_fix, run_urban_sim
from .locate import (InsufficientAnchorsError, PositionEstimate,
                     TowerObservation, sample_to_distance, solve_tdoa,
                     trilaterate_ratio)
from .lte import FrameConfig, Pci, generate_pss, generate_sss
from .roads import (Fix, GeofenceRegion, RoadGraph, geofence_events,
                    point_in_polygon, snap_trajectory)
from .scenario import CellDatabase, Scenario, ScenarioError, load_cell_db, \
    load_scenario
from .traceio import read_trace, write_trace

__version__ = "0.1.0"

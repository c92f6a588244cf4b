"""pflsafe: power-and-force-limiting safety toolkit for collaborative robots.

Data-driven body-region limit tables, a conservative two-mass-spring
collision model, admissible speed/energy limits, directional reflected-mass
analysis over a robot workspace, and a runtime velocity/energy filter.
"""
from __future__ import annotations

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a worker per extra CPU, which spins at start-up;
# pflsafe's largest matrix is 7 x 7, which OpenBLAS runs on one thread.  A
# host that loaded numpy first or names a thread count keeps its threads.
if "numpy" not in _sys.modules and not any(
        name in _os.environ for name in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .assets import body_table_path, robot_model_path
from .body import (BodyRegionParams, BodyRegionTable, ContactMode,
                   REGION_IDS, REGION_LABELS, effective_force_limit,
                   load_body_table, max_elastic_energy)
from .collision import (CollisionOutcome, CollisionScenario,
                        CollisionTrajectory, natural_period,
                        peak_contact_state, simulate)
from .dynamics import (ManipulatorModel, ReflectedMassQuery, forward_kinematics,
                       inverse_kinematics, iso_effective_mass, load_robot_model,
                       mass_matrix, point_jacobian, reflected_mass)
from .errors import InputError, NumericalError, PflError
from .limits import SpeedLimit, compute_limit, v0_max, velocity_bounds
from .safety_filter import (TankState, filter_velocity, simulate_loop,
                            tank_init, tank_step)
from .sweep import (MassSource, SweepConfig, SweepResult, direction_set,
                    horizontal_directions, run_sweep, scaling_report,
                    sphere_directions)

__version__ = "0.1.0"

"""The benchmark's tracer (bench/tracing.py) wraps pflsafe functions by
module and name; renaming or removing one makes ``bench/run.py --trace 1``
fail in ``Tracer.install``.  These tests read its table without changing
it.  The pool builder (bench/make_pools.py) reads the loaded arm's
attributes at import, so it is loaded too, without running it."""
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves(tracing):
    for owner, attr, _ in tracing.BOUNDARIES:
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"pflsafe.{module}")
        if cls:
            target = getattr(target, cls)
        assert callable(getattr(target, attr, None)), (owner, attr)
    names = {(owner, attr) for owner, attr, _ in tracing.BOUNDARIES}
    assert {("sweep", "_sweep_scanline"), ("sweep", "inverse_kinematics"),
            ("sweep", "reflected_mass"), ("sweep", "manipulability")} <= names


@pytest.mark.parametrize("workers", [1, 2])
def test_a_traced_sweep_records_every_grid_point(tracing, tmp_path, panda,
                                                 body_table, workers):
    # bench/run.py --trace 1 needs one IK span per grid point, and checks
    # each converged (target, q) against the arm
    from pflsafe import sweep
    from pflsafe.dynamics import forward_kinematics

    original = sweep.inverse_kinematics
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        result = sweep.run_sweep(panda, body_table, sweep.SweepConfig(
            box_min=(0.6, 0.5, 0.15), box_max=(0.7, 0.8, 0.25),
            grid_spacing=0.10, n_directions=20, n_workers=workers))
    finally:
        tracer.uninstall()
    # every span was taken in this process: no worker spooled any
    assert not list(tmp_path.glob("worker-*.jsonl"))
    tracer.collect()
    assert sweep.inverse_kinematics is original
    ik = [span for span in tracer.spans
          if span[0] == "dynamics.inverse_kinematics"]
    assert (len(ik), sum(span[4]["ok"] for span in ik)) == (
        result.n_grid, result.n_reachable) == (16, 2)
    solved = tracing.solved_ik_points(tracer.spans)
    assert len(solved) == result.n_reachable
    for target, q in solved:
        reached = forward_kinematics(panda, np.array(q))[:3, 3]
        assert np.linalg.norm(reached - target) < 1e-4


def test_the_kernel_timings_run(tracing):
    # bench/run.py --trace 1 times the dynamics kernels by these calls
    timings = tracing.kernel_us(1, configs=3)
    assert len(timings) == 4
    assert all(math.isfinite(t) and t > 0 for t in timings.values())


def test_the_pool_builder_loads_with_the_sweep_seed():
    # a renamed model attribute fails here, not at the next pool rebuild;
    # main() is the five-minute rebuild and does not run
    from pflsafe.sweep import _default_seed

    path = TRACING.with_name("make_pools.py")
    spec = importlib.util.spec_from_file_location("bench_make_pools", path)
    make_pools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_pools)
    assert np.array_equal(make_pools.SEED, _default_seed(make_pools.MODEL))

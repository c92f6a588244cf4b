"""A fixed unit of reference work, timed next to every command.

The host the benchmark was built on runs the same code at two speeds that
alternate every few milliseconds to a few hundred milliseconds (the
processor time of one unit below is about 2.0 ms in the fast state and
3.5 ms in the slow one), and the share of time in the fast state drifts from
minute to minute.  A median of raw processor times therefore jumps by up to
a third when that share crosses one half.  ``run.py`` times one unit
immediately before and one immediately after each command.  A short
command runs in the state of those two units, so its times are scaled by
``REFERENCE_S`` over their mean; a long one runs through many states, so
its times are scaled by ``REFERENCE_S`` over the mean of every unit of the
run.  Either way the result is the time the command would have taken at
the reference speed.

The unit mixes what pflsafe commands spend their time on: pure-Python YAML
parsing, small dense linear algebra in numpy, and number formatting.  It
uses nothing from pflsafe, so a change to the program cannot change it.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np
import yaml

#: processor time of one unit at the reference speed: the median of the
#: unit in benchmark runs on the 2-vCPU host of bench/README.md
REFERENCE_S = 3.6e-3
#: a command with a shorter wall time shares its speed state with the units
#: timed just before and after it; a longer one spans many states, which
#: last up to about 0.4 s
SHORT_S = 0.25

_DOC = yaml.safe_dump({"links": [{
    "name": "link0", "mass": 1.0, "com": [0.0, 0.0, 0.03], "axis": [0, 0, 1],
    "inertia": [[0.01, 0.0, 0.0], [0.0, 0.02, 0.0], [0.0, 0.0, 0.03]],
    "origin": [0.0, 0.0, 0.0]}]})
# drawn with the random module: numpy.random would add about 3 MB to the
# benchmark process, whose peak resident set is a metric
_RNG = random.Random(12345)


def _gauss(rows: int, cols: int) -> np.ndarray:
    return np.array([[_RNG.gauss(0.0, 1.0) for _ in range(cols)]
                     for _ in range(rows)])


_JACOBIANS = [_gauss(3, 7) for _ in range(40)]
_A = _gauss(7, 7)
_MASS = _A @ _A.T + 7.0 * np.eye(7)
_ROWS = _gauss(60, 12).tolist()


def _unit() -> float:
    yaml.safe_load(_DOC)
    acc = 0.0
    for jac in _JACOBIANS:
        lam_inv = jac @ np.linalg.solve(_MASS, jac.T)
        acc += float(np.linalg.inv(lam_inv)[0, 0])
    text = "\n".join(",".join(f"{v:.9g}" for v in row) for row in _ROWS)
    return acc + len(text)


def measure() -> float:
    """Processor seconds of one unit.  The garbage collector is held off, so
    that a collection of the commands' garbage is not charged to the unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _unit()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def factors(commands: list[tuple[float, float, float]]) -> list[float]:
    """Factors that turn each command's times into times at the reference
    speed.  ``commands`` holds (wall seconds, unit before, unit after) for
    every timed command of a run.  A command shorter than ``SHORT_S`` gets
    ``REFERENCE_S`` over the mean of its own two units; a longer one gets
    ``REFERENCE_S`` over the mean of every unit of the run."""
    run_mean = statistics.fmean(unit for _, before, after in commands
                                for unit in (before, after))
    return [REFERENCE_S / (0.5 * (before + after)) if wall < SHORT_S
            else REFERENCE_S / run_mean for wall, before, after in commands]

"""Workspace sweep: direction sets, determinism, statistics, reports."""
import concurrent.futures
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from pflsafe import dynamics, sweep
from pflsafe.body import ContactMode, REGION_IDS, load_body_table
from pflsafe.dynamics import IKResult, ReflectedMassQuery, load_robot_model
from pflsafe.errors import InputError, NumericalError
from pflsafe.sweep import (ALL_COMBOS, MassSource, SweepConfig,
                           SweepResult, boxstats_payload, direction_set,
                           horizontal_directions, render_sweep_svg, run_sweep,
                           scaling_report, sphere_directions, summary_stats,
                           write_boxstats_json, write_scaling_csv,
                           write_sweep_csv)
from test_body import table_text
from test_dynamics import PENDULUM_YAML, SLIDER_YAML, TWO_R_YAML

# small box well inside the reachable envelope: keeps unit tests fast
TINY = dict(box_min=(0.35, -0.05, 0.40), box_max=(0.45, 0.05, 0.50),
            grid_spacing=0.05, n_directions=6)


@pytest.fixture(scope="module")
def tiny_result(panda, body_table):
    return run_sweep(panda, body_table, SweepConfig(**TINY))


def test_horizontal_directions_unit_and_planar():
    d = horizontal_directions(8)
    assert d.shape == (8, 3)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    assert np.all(d[:, 2] == 0.0)
    assert d[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert d[2] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_sphere_directions_spread():
    d = sphere_directions(20)
    assert d.shape == (20, 3)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    # Fibonacci lattice: z-coordinates are the fixed uniform ladder
    assert np.allclose(d[:, 2], 1.0 - 2.0 * (np.arange(20) + 0.5) / 20,
                       atol=1e-12)
    # near-zero mean vector and no clustered pair (frozen numeric bounds)
    assert np.linalg.norm(d.mean(axis=0)) < 0.05
    dists = [np.linalg.norm(a - b) for i, a in enumerate(d)
             for b in d[i + 1:]]
    assert min(dists) > 0.5


def test_direction_set_dispatch():
    assert np.array_equal(direction_set(6, "horizontal"),
                          horizontal_directions(6))
    assert np.array_equal(direction_set(6, "sphere"), sphere_directions(6))
    with pytest.raises(InputError, match="direction style"):
        direction_set(6, "cube")
    with pytest.raises(InputError, match="n must be >= 1, got 0"):
        direction_set(0)


def test_config_validation():
    with pytest.raises(InputError, match="grid_spacing must be > 0"):
        SweepConfig(grid_spacing=0.0)
    with pytest.raises(InputError, match="box_min must be <= box_max"):
        SweepConfig(box_min=(0.5, 0.0, 0.0), box_max=(0.4, 1.0, 1.0))
    with pytest.raises(InputError, match="n_directions must be >= 1"):
        SweepConfig(n_directions=0)
    with pytest.raises(InputError, match="n_workers must be >= 1"):
        SweepConfig(n_workers=0)
    with pytest.raises(InputError, match="unknown direction style 'diagonal'"):
        SweepConfig(direction_style="diagonal")


def test_tiny_sweep_counts(tiny_result):
    assert tiny_result.n_grid == 27
    assert tiny_result.n_reachable == 27  # box chosen fully reachable
    assert tiny_result.reflected_masses.shape == (27, 6)
    assert np.all(np.isfinite(tiny_result.reflected_masses))
    assert tiny_result.iso_mass == pytest.approx(5.545724, abs=1e-9)


def test_sweep_samples_layout(tiny_result):
    for rid in REGION_IDS:
        for mode, source in ALL_COMBOS:
            samples = tiny_result.samples[(rid, mode, source)]
            if source is MassSource.CONSTANT:
                assert samples.shape == (1,)
            else:
                assert samples.shape == (27 * 6,)
            assert np.all(samples > 0)


def test_sweep_mode_ordering_per_sample(tiny_result):
    # transient >= quasi-static free >= quasi-static clamped, elementwise
    for rid in REGION_IDS:
        for source in MassSource:
            tr = tiny_result.samples[(rid, ContactMode.TRANSIENT, source)]
            free = tiny_result.samples[
                (rid, ContactMode.QUASI_STATIC_FREE, source)]
            cl = tiny_result.samples[
                (rid, ContactMode.QUASI_STATIC_CLAMPED, source)]
            assert np.all(tr >= free)
            assert np.all(free >= cl)


def test_sweep_deterministic_rerun(panda, body_table, tiny_result):
    again = run_sweep(panda, body_table, SweepConfig(**TINY))
    for key, samples in tiny_result.samples.items():
        assert np.array_equal(samples, again.samples[key])
    assert np.array_equal(tiny_result.reflected_masses,
                          again.reflected_masses)


def test_the_worker_count_changes_nothing_and_forks_nothing(
        panda, body_table, monkeypatch):
    built = []

    class NoPool:
        """Stands in for ProcessPoolExecutor: a sweep must never build one."""

        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            raise AssertionError("the sweep built a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    # 64 points on 16 scanlines: enough grid for any worker count to fork
    big = dict(TINY, box_min=(0.30, -0.10, 0.35), n_directions=2)
    one, *others = (run_sweep(panda, body_table,
                              SweepConfig(n_workers=workers, **big))
                    for workers in (1, 2, 8))
    assert built == []

    def counts(result):
        return (result.n_grid, result.n_reachable, result.n_rejected,
                result.n_budget_spent, result.ik_iterations,
                result.n_singular, result.n_constrained_directions)

    assert one.n_grid == 64
    for other in others:
        assert np.array_equal(one.reflected_masses, other.reflected_masses)
        assert one.samples.keys() == other.samples.keys()
        for key, samples in one.samples.items():
            assert np.array_equal(samples, other.samples[key])
        assert counts(one) == counts(other)


def test_an_overflowing_grid_count_meets_the_cap_without_a_warning(
        panda, body_table):
    # the count overflows to inf on purpose: the cap check rejects it
    config = SweepConfig(box_min=(0, 0, 0.3), box_max=(1e308, 0, 0.3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match="exceeds the cap"):
            run_sweep(panda, body_table, config)
    assert caught == []


def test_sweep_counts_singular_points_and_constrained_directions(
        body_table, monkeypatch):
    # a one-link pendulum along +x at q = 0: its tool point moves only
    # along y, so the +-x directions are constrained, and a 3 x 1 Jacobian
    # has zero manipulability
    model = load_robot_model(io.StringIO(PENDULUM_YAML))
    monkeypatch.setattr(
        sweep, "inverse_kinematics",
        lambda model, target, seed, orientation: IKResult(
            np.zeros(1), True, 0, 0.0, 0.0))
    result = run_sweep(model, body_table, SweepConfig(
        box_min=(0.8, 0.0, 0.0), box_max=(0.8, 0.0, 0.0), n_directions=4))
    assert result.n_reachable == 1
    assert result.n_singular == 1
    assert result.n_constrained_directions == 2
    masses = result.reflected_masses[0]
    np.testing.assert_allclose(masses, [math.inf, 2.5, math.inf, 2.5],
                               rtol=1e-12)
    for rid in REGION_IDS:
        clamped = result.samples[
            (rid, ContactMode.QUASI_STATIC_CLAMPED, MassSource.REFLECTED)]
        assert np.all(clamped[np.isinf(masses)] == 0.0)
        assert np.all(clamped[np.isfinite(masses)] > 0.0)


# a waist about z, then a shoulder and an elbow about y, links along x:
# straight at the elbow, the arm is singular, and away from there its
# manipulability grows with |sin q3|
THREE_R_YAML = """
name: three-r
end_effector: {xyz: [0.4, 0.0, 0.0], rpy: [0.0, 0.0, 0.0]}
links:
""" + "".join(f"""
  - name: link{i}
    joint: {{xyz: {xyz}, rpy: [0.0, 0.0, 0.0], axis: {axis}}}
    mass: 2.0
    com: [0.2, 0.0, 0.0]
    inertia: {{ixx: 0.01, iyy: 0.01, izz: 0.01}}
""" for i, (xyz, axis) in enumerate([
    ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
    ([0.0, 0.0, 0.3], [0.0, 1.0, 0.0]),
    ([0.5, 0.0, 0.0], [0.0, 1.0, 0.0])]))


def test_near_singular_points_are_those_below_the_threshold(body_table,
                                                          monkeypatch):
    model = load_robot_model(io.StringIO(THREE_R_YAML))
    # the elbow angles whose manipulability lies just below and just above
    # the threshold, by bisection
    lo, hi = 0.0, 0.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dynamics.manipulability(model, [0.0, 0.0, mid]) < (
                sweep.SINGULAR_FLAG_THRESHOLD):
            lo = mid
        else:
            hi = mid
    below, above = np.array([0.0, 0.0, lo]), np.array([0.0, 0.0, hi])
    w = dynamics.manipulability(model, np.array([below, above]))
    assert w[0] < sweep.SINGULAR_FLAG_THRESHOLD <= w[1] < 1.001e-6
    # two scanlines of two points, one of each kind on each
    monkeypatch.setattr(
        sweep, "inverse_kinematics",
        lambda model, target, seed, orientation: IKResult(
            below if target[0] == 0.0 else above, True, 0, 0.0, 0.0))
    result = run_sweep(model, body_table, SweepConfig(
        box_min=(0.0, 0.0, 0.0), box_max=(0.05, 0.05, 0.0),
        grid_spacing=0.05, n_directions=4))
    assert (result.n_reachable, result.n_singular) == (4, 2)


def test_a_sweep_evaluates_its_masses_in_one_call_per_kernel(
        panda, body_table, monkeypatch):
    real_ik = sweep.inverse_kinematics
    solved, calls = [], []

    def recording_ik(model, target, seed, orientation):
        result = real_ik(model, target, seed, orientation=orientation)
        solved.append(result)
        return result

    def recording(name):
        kernel = getattr(sweep, name)

        def record(model, arg):
            q = arg if name == "manipulability" else arg.q
            calls.append((name, len(q)))
            return kernel(model, arg)
        return record

    monkeypatch.setattr(sweep, "inverse_kinematics", recording_ik)
    for name in ("manipulability", "reflected_mass"):
        monkeypatch.setattr(sweep, name, recording(name))
    # 8 scanlines of 2 points, 10 of them reachable
    result = run_sweep(panda, body_table, SweepConfig(**REACH_BOX))
    lines = [solved[i:i + 2] for i in range(0, 16, 2)]
    assert any(not any(ik.success for ik in line) for line in lines)
    assert calls == [("manipulability", 10), ("reflected_mass", 10)]
    # the masses of each configuration alone, in scanline order
    qs = [ik.q for ik in solved if ik.success]
    directions = direction_set(20, "horizontal")
    alone = [dynamics.reflected_mass(panda,
                                     ReflectedMassQuery(q=q, u=directions))
             for q in qs]
    assert np.array_equal(result.reflected_masses, np.array(alone))
    assert result.n_singular == sum(
        dynamics.manipulability(panda, q) < sweep.SINGULAR_FLAG_THRESHOLD
        for q in qs)

    # blocks of at most 4 points: one call per block, the same masses
    calls.clear()
    monkeypatch.setattr(sweep, "MASS_BLOCK_POINTS", 4)
    blocks = run_sweep(panda, body_table, SweepConfig(**REACH_BOX))
    assert [n for name, n in calls if name == "reflected_mass"] == [4, 4, 2]
    assert [n for name, n in calls if name == "manipulability"] == [4, 4, 2]
    assert np.array_equal(blocks.reflected_masses, result.reflected_masses)


def test_reflected_overflow_names_its_region_and_mode(monkeypatch):
    # a 0.2 kg pendulum with a 2 kg payload: on a Face whose budget is
    # 4.2e307 J, and on a Neck whose transient budget is 4.5e307 J, the
    # constant mass's limits are finite, the reflected mass's are not; with
    # both, the first in table x mode order is named
    model = load_robot_model(io.StringIO(
        PENDULUM_YAML.replace("mass: 2.5", "mass: 0.2")))
    face, neck = "Face,65,110,5e-308,4.4,1\n", "Neck,150,210,1e-306,1.2,2\n"
    monkeypatch.setattr(
        sweep, "inverse_kinematics",
        lambda model, target, seed, orientation: IKResult(
            np.zeros(1), True, 0, 0.0, 0.0))
    for rows, named in (({"face": face, "neck": neck}, "Face"),
                        ({"neck": neck}, "Neck")):
        table = load_body_table(table_text(**rows).encode())
        with pytest.raises(InputError, match=rf"^{named} transient: v0_max: "
                                             rf"u_s_max = .* infinite speed"):
            run_sweep(model, table, SweepConfig(
                box_min=(0.8, 0.0, 0.0), box_max=(0.8, 0.0, 0.0),
                n_directions=4, payload=2.0))


#: table rows whose constant-mass limits fail two ways: the Chest's energy
#: k0_max = m_r v0_max^2 / 2 overflows at a payload of 1e8 kg, the Lower
#: legs' speed limit at any payload.  Together, the Chest's is named: it is
#: first in table order (``test_cli.SWEEP_ERRORS``).
K0_ROWS = {"chest": "Chest,6e153,1e154,25,40,2\n",
           "lower_legs": "Lower legs,1e10,1e10,60,1e-300,2\n"}


@pytest.mark.parametrize("region, payload, error", [
    ("chest", 1.0e+8, r"Chest transient, robot_mass = 100000005.545724 kg: "
                      r"k0_max = m_r v0_max\^2 / 2 overflows"),
    ("chest", 0.0, None),
    ("lower_legs", 1.0e+8, r"Lower legs transient, robot_mass = "
                           r"100000005.545724 kg: v0_max: "),
], ids=["chest", "chest-without-payload", "lower-legs"])
def test_each_constant_row_of_the_k0_case_fails_alone(panda, monkeypatch,
                                                      region, payload, error):
    class Solved(Exception):
        """IK was reached: every constant-mass limit passed."""

    def ik(*args, **kwargs):
        raise Solved

    monkeypatch.setattr(sweep, "inverse_kinematics", ik)
    table = load_body_table(table_text(**{region: K0_ROWS[region]}).encode())
    with pytest.raises(InputError if error else Solved,
                       match=error and "^" + error):
        run_sweep(panda, table, SweepConfig(**TINY, payload=payload))


def test_sweep_of_an_unbounded_joint_raises_no_warning(body_table):
    # the seed takes the middle of a joint's range only where it is bounded;
    # the 2R arm with its tool turned upside down reaches flange-down poses
    # where q1 + q2 = 0: (1.2, 0, 0) and (0.5, 0.7, 0) of this box
    model = load_robot_model(io.StringIO(
        TWO_R_YAML.replace("rpy: [0.0, 0.0, 0.0]", f"rpy: [{math.pi}, 0, 0]", 1)
        .replace("lower: -3.14", "lower: -.inf")
        .replace("upper: 3.14", "upper: .inf")))
    assert np.isinf(model.lower_limits).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(model, body_table, SweepConfig(
            box_min=(0.5, 0.0, 0.0), box_max=(1.2, 0.7, 0.0),
            grid_spacing=0.7, n_directions=2))
    assert (result.n_grid, result.n_reachable) == (4, 2)
    assert np.array_equal(sweep._default_seed(model), np.zeros(2))


def test_the_seed_of_a_huge_bounded_joint_does_not_overflow():
    # lower + upper overflows; half of each does not
    model = load_robot_model(io.StringIO(
        SLIDER_YAML.replace("lower: -1.0", "lower: 1e308")
        .replace("upper: 1.0", "upper: 1.7e308")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seed = sweep._default_seed(model)
    assert seed.tolist() == [1.35e308]


# one a07 box on the reach boundary: 2 reachable points and 14 failing,
# every one of which the reach proof rejects before IK
BOUND_BOX = dict(box_min=(0.6, 0.5, 0.15), box_max=(0.7, 0.8, 0.25),
                 grid_spacing=0.10, n_directions=20)
# a box of the bench's `reach` pool: 10 reachable points and 6 failing, all
# of them rejected too
REACH_BOX = dict(BOUND_BOX, box_min=(-0.6, -0.7, 0.05),
                 box_max=(-0.5, -0.4, 0.15))


def test_reach_ball_only_skips_points_that_fail(panda, body_table,
                                                monkeypatch):
    outside_reach = dynamics._outside_reach
    real_ik = sweep.inverse_kinematics
    calls = []

    def recording_ik(model, target, seed, orientation):
        result = real_ik(model, target, seed, orientation=orientation)
        outside = outside_reach(model, target, orientation, 1e-4, 1e-3)
        calls.append((outside, result))
        return result

    monkeypatch.setattr(sweep, "inverse_kinematics", recording_ik)
    for box, reachable in ((BOUND_BOX, 2), (REACH_BOX, 10)):
        monkeypatch.setattr(dynamics, "_outside_reach", outside_reach)
        calls.clear()
        with_proof = run_sweep(panda, body_table, SweepConfig(**box))
        skipped = [result for outside, result in calls if outside]
        assert len(calls) == 16 and len(skipped) == 16 - reachable
        assert all(not r.success and r.iterations == 0 for r in skipped)

        calls.clear()
        monkeypatch.setattr(dynamics, "_outside_reach", lambda *args: False)
        without = run_sweep(panda, body_table, SweepConfig(**box))
        # with the check off, no rejected point converges
        unskipped = [result for outside, result in calls if outside]
        assert len(calls) == 16 and len(unskipped) == 16 - reachable
        assert all(not r.success and r.iterations == 200 for r in unskipped)
        assert np.array_equal(with_proof.reflected_masses,
                              without.reflected_masses)
        for name in ("n_grid", "n_reachable", "n_singular",
                     "n_constrained_directions"):
            assert getattr(with_proof, name) == getattr(without, name), name
        assert (with_proof.n_reachable, with_proof.n_rejected,
                with_proof.n_budget_spent) == (reachable, 16 - reachable, 0)
        assert (without.n_rejected, without.n_budget_spent) == (
            0, 16 - reachable)
        for key, samples in with_proof.samples.items():
            assert np.array_equal(samples, without.samples[key])


def test_sweep_unreachable_box_raises(panda, body_table):
    config = SweepConfig(box_min=(2.0, 2.0, 2.0), box_max=(2.1, 2.1, 2.1),
                         grid_spacing=0.05, n_directions=4)
    with pytest.raises(NumericalError, match="reachable"):
        run_sweep(panda, body_table, config)


def test_sweep_rejects_free_modes_for_pinned_region(panda):
    table = load_body_table(table_text(
        chest="Chest,140,170,25,inf,2\n").encode())
    with pytest.raises(InputError, match="Chest"):
        run_sweep(panda, table, SweepConfig(**TINY))


def test_summary_stats_against_numpy():
    data = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0])
    st = summary_stats(data)
    q1, med, q3 = np.percentile(data, [25, 50, 75])
    assert st.q1 == q1 and st.median == med and st.q3 == q3
    assert st.mean == pytest.approx(data.mean())
    assert st.maximum == 100.0
    assert st.whisker_hi == 7.0  # 100 is beyond q3 + 1.5 IQR
    assert st.whisker_lo == 1.0
    assert st.n == 8
    with pytest.raises(InputError, match="empty sample set"):
        summary_stats(np.array([]))


def _reference_stats(samples: np.ndarray) -> tuple:
    """One 1-D sample's box statistics, the whiskers from a copied subset."""
    q1, med, q3 = np.percentile(samples, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    inside = samples[(samples >= q1 - 1.5 * iqr) & (samples <= q3 + 1.5 * iqr)]
    return (np.mean(samples), q1, med, q3, np.min(inside), np.max(inside),
            np.min(samples), np.max(samples), samples.size)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 720, 26_420])
def test_stacked_summary_stats_equal_each_rows_own(n):
    rng = np.random.default_rng(n)
    rows = [rng.uniform(0.05, 3.0, n),
            np.round(rng.uniform(0.0, 2.0, n), 1),       # ties
            np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 0.4, n)),
            np.full(n, 0.25),
            rng.lognormal(0.0, 2.0, n)]                  # far outliers
    rows[2][0] = 0.0  # the speed limit of a constrained direction
    stack = np.array(rows)
    stacked = summary_stats(stack)
    assert isinstance(stacked, tuple) and len(stacked) == len(rows)
    for row, st in zip(rows, stacked):
        own = summary_stats(row)
        for name in ("mean", "q1", "median", "q3", "whisker_lo",
                     "whisker_hi", "minimum", "maximum", "n"):
            assert np.array_equal(np.float64(getattr(st, name)),
                                  np.float64(getattr(own, name))), name
        assert dataclasses.astuple(own) == _reference_stats(row)
    with pytest.raises(InputError, match="empty sample set"):
        summary_stats(np.empty((3, 0)))


#: 18 points whose speed limits have low outliers: each row's lower fence
#: q1 - 1.5 IQR binds, and each row holds a sample within 0.1 IQR below it
FENCED = dict(box_min=(0.3, -0.2, 0.2), box_max=(0.5, 0.2, 0.6),
              grid_spacing=0.2, n_directions=20)


def test_summary_stats_where_the_lower_fence_binds(panda, body_table):
    result = run_sweep(panda, body_table, SweepConfig(**FENCED))
    keys = [key for key in result.samples if key[2] is MassSource.REFLECTED]
    stacked = summary_stats(np.stack([result.samples[key] for key in keys]))
    assert len(keys) == len(stacked) == 36
    for key, st in zip(keys, stacked):
        row = result.samples[key]
        fence = st.q1 - 1.5 * (st.q3 - st.q1)
        assert st.minimum < fence <= st.whisker_lo
        assert np.any((row < fence) & (row >= fence - 0.1 * (st.q3 - st.q1)))
        assert dataclasses.astuple(st) == _reference_stats(row)
        assert st == summary_stats(row) == result.stats[key[:2]]


def test_scaling_report_percentages(tiny_result):
    rows = scaling_report(tiny_result)
    assert len(rows) == 12
    for row in rows:
        assert row.baseline_mean > 0
        for pct in row.scaling_pct.values():
            assert 0.0 < pct <= 100.0 + 1e-9
        for pct in row.worst_case_pct.values():
            assert pct > 0.0
    # worst-case column: substituting the most restrictive region's limit
    face_row = next(r for r in rows if r.region_id == "face")
    combo = (ContactMode.TRANSIENT, MassSource.CONSTANT)
    face_mean = float(np.mean(tiny_result.samples[
        ("face", combo[0], combo[1])]))
    chest_row = next(r for r in rows if r.region_id == "chest")
    assert chest_row.worst_case_pct[combo] == pytest.approx(
        100.0 * face_mean / chest_row.baseline_mean, rel=1e-12)


def test_the_worst_case_is_each_pairs_lowest_regional_mean(panda, body_table):
    # at 0.25 cm^2 the pressure limits bind, and the Skull/Forehead's stiffer
    # contact leaves it a smaller budget and lower means than the Face's
    result = run_sweep(panda, body_table, SweepConfig(**TINY,
                                                      contact_area=0.25))
    rows = scaling_report(result)
    for combo in ALL_COMBOS[1:]:
        means = {rid: float(np.mean(result.samples[(rid, *combo)]))
                 for rid in REGION_IDS}
        assert min(means, key=means.get) == "skull_forehead"
        for row in rows:
            assert row.worst_case_pct[combo] == pytest.approx(
                100.0 * means["skull_forehead"] / row.baseline_mean, rel=1e-12)


def test_sweep_csv_round_trip(tiny_result, tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(tiny_result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "region,mode,mass_source,sample"
    # exact float round trip via repr
    first = lines[1].split(",")
    key = (first[0], ContactMode(first[1]), MassSource(first[2]))
    assert float(first[3]) == tiny_result.samples[key][0]
    n_expected = sum(len(v) for v in tiny_result.samples.values())
    assert len(lines) == 1 + n_expected


def _row_by_row_sweep_csv(result: SweepResult) -> bytes:
    """The reference writer: one formatted line per sample."""
    lines = ["region,mode,mass_source,sample\n"]
    for rid in REGION_IDS:
        for mode, source in ALL_COMBOS:
            for value in result.samples[(rid, mode, source)]:
                lines.append(f"{rid},{mode.value},{source.value},"
                             f"{float(value)!r}\n")
    return "".join(lines).encode("utf-8")


def _edge_values(result: SweepResult) -> SweepResult:
    # float extremes and signed zeros, an empty row and a longer one
    edge = np.array([-0.0, 0.0, 5e-324, 1e308, 3.0, 2.0 ** 53, 1e16, 0.1])
    samples = dict(result.samples)
    keys = list(samples)
    samples[keys[0]] = edge
    samples[keys[1]] = np.empty(0)
    samples[keys[-1]] = np.concatenate([samples[keys[-1]], -edge])
    return dataclasses.replace(result, samples=samples)


def _at_bit_equal_masses(first: float, second: float):
    """A row whose samples at two bit-equal masses are ``first`` and
    ``second``: a sweep's samples follow its masses, a hand-built row need
    not."""
    def build(result: SweepResult) -> SweepResult:
        flat = result.reflected_masses.reshape(-1)
        order = np.argsort(flat, kind="stable")
        pair = next([int(a), int(b)] for a, b in zip(order, order[1:])
                    if flat[a] == flat[b])
        key = ("chest", ContactMode.TRANSIENT, MassSource.REFLECTED)
        row = result.samples[key].copy()
        row[pair] = first, second
        return dataclasses.replace(result, samples={**result.samples,
                                                    key: row})
    return build


def _short_rows(result: SweepResult) -> SweepResult:
    # rows of four samples
    return dataclasses.replace(
        result, reflected_masses=result.reflected_masses[:1, :4],
        samples={key: value[:4] for key, value in result.samples.items()})


def _signed_zeros_in_two_rows(result: SweepResult) -> SweepResult:
    # -0.0 == 0.0: a dedup keyed on values would give both rows one text
    samples = dict(result.samples)
    for mode, zero in ((ContactMode.TRANSIENT, -0.0),
                       (ContactMode.QUASI_STATIC_FREE, 0.0)):
        key = ("chest", mode, MassSource.REFLECTED)
        samples[key] = np.concatenate([[zero], samples[key][1:]])
    return dataclasses.replace(result, samples=samples)


@pytest.mark.parametrize("build, texts", [
    (_edge_values, [b",-0.0\n", b",5e-324\n"]),
    (_at_bit_equal_masses(1.0, np.nextafter(1.0, 2.0)),
     [b"chest,transient,reflected,1.0\n",
      b"chest,transient,reflected,1.0000000000000002\n"]),
    (_at_bit_equal_masses(0.0, -0.0),
     [b"chest,transient,reflected,0.0\n",
      b"chest,transient,reflected,-0.0\n"]),
    (_short_rows, []),
    (_signed_zeros_in_two_rows,
     [b"chest,transient,reflected,-0.0\n",
      b"chest,quasi_static_free,reflected,0.0\n"]),
], ids=["edge", "float-step-at-equal-masses", "signed-zero-at-equal-masses",
        "short-rows", "signed-zeros-in-two-rows"])
def test_sweep_csv_matches_the_row_by_row_writer(tiny_result, tmp_path,
                                                 build, texts):
    result = build(tiny_result)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    data = path.read_bytes()
    assert data == _row_by_row_sweep_csv(result)
    assert all(text in data for text in texts)


def test_sweep_csv_formats_each_region_in_one_distinct_cells_call(
        tiny_result, tmp_path, monkeypatch):
    columns = []
    real = sweep.distinct_cells
    monkeypatch.setattr(sweep, "distinct_cells",
                        lambda column: columns.append(column.copy())
                        or real(column))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(tiny_result, path)
    assert path.read_bytes() == _row_by_row_sweep_csv(tiny_result)
    # one call per region, over its six rows in ALL_COMBOS order
    assert len(columns) == len(REGION_IDS) == 12
    for rid, column in zip(REGION_IDS, columns):
        rows = [tiny_result.samples[rid, mode, source]
                for mode, source in ALL_COMBOS]
        assert column.dtype == np.float64
        assert column.tobytes() == np.concatenate(rows).tobytes()


def test_boxstats_json(tiny_result, tmp_path):
    path = tmp_path / "stats.json"
    write_boxstats_json(tiny_result, path)
    payload = json.loads(path.read_text())
    assert payload["counts"]["grid_points"] == 27
    assert payload["counts"]["reachable"] == 27
    assert payload["constant_effective_mass_kg"] == pytest.approx(5.545724)
    face = payload["regions"]["face"]
    key = f"{ContactMode.TRANSIENT.value}|{MassSource.REFLECTED.value}"
    st = tiny_result.stats["face", ContactMode.TRANSIENT]
    assert face[key]["median"] == st.median
    assert payload == boxstats_payload(tiny_result)


def test_box_statistics_are_computed_once_per_result(tiny_result, tmp_path,
                                                     monkeypatch):
    calls = []

    def counted(samples):
        calls.append(np.shape(samples))
        return summary_stats(samples)

    monkeypatch.setattr(sweep, "summary_stats", counted)
    result = dataclasses.replace(tiny_result)  # a new result, no statistics yet
    write_boxstats_json(result, tmp_path / "stats.json")
    svg = render_sweep_svg(result)
    scaling_report(result)
    # one stacked call, a row per region and contact mode on the reflected
    # masses, which the JSON, the box plot and the scaling report share
    assert calls == [(len(REGION_IDS) * len(ContactMode),
                      tiny_result.reflected_masses.size)]
    assert svg == render_sweep_svg(tiny_result)
    assert (json.loads((tmp_path / "stats.json").read_text())
            == boxstats_payload(tiny_result))


def test_scaling_csv(tiny_result, tmp_path):
    path = tmp_path / "scaling.csv"
    write_scaling_csv(scaling_report(tiny_result), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("region,baseline_mean_mps")
    assert len(lines) == 13


def test_render_sweep_svg(tiny_result):
    svg = render_sweep_svg(tiny_result)
    assert svg.startswith("<?xml")
    assert "<svg" in svg
    assert "Chest" in svg and "Hands/fingers" in svg
    assert svg == render_sweep_svg(tiny_result)  # deterministic

"""Body-region table: parsing, validation, force/pressure reconciliation."""
import io
import math

import pytest

from pflsafe.body import (BodyRegionParams, ContactMode, HEAD_REGIONS,
                          REGION_IDS, REGION_LABELS, binding_criterion,
                          effective_force_limit, load_body_table,
                          max_elastic_energy, normalize_region)
from pflsafe.errors import InputError

HEADER = "region,f_max_qs_N,p_max_qs_N_per_cm2,k_N_per_mm,m_h_kg,transient_mult\n"

ROWS = {
    "skull_forehead": "Skull/Forehead,130,130,150,4.4,1\n",
    "face": "Face,65,110,75,4.4,1\n",
    "neck": "Neck,150,210,50,1.2,2\n",
    "back_shoulders": "Back/Shoulders,210,210,35,40,2\n",
    "chest": "Chest,140,170,25,40,2\n",
    "abdomen": "Abdomen,110,140,10,40,2\n",
    "pelvis": "Pelvis,180,210,25,40,2\n",
    "upper_arms_elbows": "Upper arms/elbows,150,190,30,3,2\n",
    "lower_arms_wrists": "Lower arms/wrists,160,180,40,2,2\n",
    "hands_fingers": "Hands/fingers,200,200,75,0.6,2\n",
    "thighs_knees": "Thighs/knees,220,220,50,75,2\n",
    "lower_legs": "Lower legs,130,210,60,75,2\n",
}


def table_text(**overrides):
    rows = dict(ROWS, **overrides)
    return HEADER + "".join(rows.values())


def test_packaged_table_has_all_regions(body_table):
    assert [p.region_id for p in body_table] == list(REGION_IDS)
    assert len(REGION_IDS) == 12


def test_packaged_table_reference_values(body_table):
    skull = body_table["skull_forehead"]
    assert skull.f_max_qs == 130.0
    assert skull.stiffness == 150_000.0  # 150 N/mm
    assert skull.m_h == 4.4
    assert skull.transient_multiplier == 1.0

    chest = body_table["chest"]
    assert chest.f_max_qs == 140.0
    assert chest.p_max_qs == 170.0
    assert chest.stiffness == 25_000.0
    assert chest.m_h == 40.0
    assert chest.transient_multiplier == 2.0

    assert body_table["hands_fingers"].m_h == 0.6
    assert body_table["neck"].m_h == 1.2


def test_head_regions_take_no_transient_elevation(body_table):
    for params in body_table:
        expected = 1.0 if params.region_id in HEAD_REGIONS else 2.0
        assert params.transient_multiplier == expected


@pytest.mark.parametrize("raw,expected", [
    ("Skull/Forehead", "skull_forehead"),
    ("  face ", "face"),
    ("Upper arms/elbows", "upper_arms_elbows"),
    ("hands & fingers", "hands_fingers"),
    ("Lower-arms wrists", "lower_arms_wrists"),
])
def test_normalize_region(raw, expected):
    assert normalize_region(raw) == expected


def test_lookup_by_label_or_id(body_table):
    assert body_table["Chest"] is body_table["chest"]
    with pytest.raises(InputError, match="unknown region 'elbow'; valid regions"):
        body_table["elbow"]


def test_effective_force_limit_area_reconciliation(body_table):
    chest = body_table["chest"]
    # quasi-static, 1 cm^2: blanket force limit governs (140 < 170)
    assert effective_force_limit(chest, ContactMode.QUASI_STATIC_FREE) == 140.0
    # small area: pressure criterion takes over, 0.5 cm^2 * 170 N/cm^2
    assert effective_force_limit(
        chest, ContactMode.QUASI_STATIC_FREE, contact_area=0.5) == 85.0
    # transient doubles whichever criterion binds
    assert effective_force_limit(chest, ContactMode.TRANSIENT) == 280.0
    assert effective_force_limit(chest, ContactMode.TRANSIENT, 0.5) == 170.0
    # clamped contacts never take the transient elevation
    assert effective_force_limit(
        chest, ContactMode.QUASI_STATIC_CLAMPED) == 140.0


def test_binding_criterion_and_tie(body_table):
    chest = body_table["chest"]
    assert binding_criterion(chest) == "force"
    assert binding_criterion(chest, contact_area=0.5) == "pressure"
    # hands/fingers ships 200/200: exact tie at 1 cm^2 resolves to force
    assert binding_criterion(body_table["hands_fingers"]) == "force"


def test_max_elastic_energy_face(body_table):
    # 65^2 / (2 * 75000 N/m), computed by hand
    u = max_elastic_energy(body_table["face"], ContactMode.TRANSIENT)
    assert u == pytest.approx(0.028166666666666666, rel=1e-12)


@pytest.mark.parametrize("row, area, column", [
    ("Face,1e200,110,75,4.4,1\n", 1e300, "f_max_qs_N"),
    ("Face,1e250,1e200,75,4.4,1\n", 1.0, "p_max_qs_N_per_cm2"),
])
def test_an_overflowing_energy_budget_names_the_binding_column(row, area,
                                                               column):
    # the binding limit is 1e200 N, whose square overflows a float
    face = load_body_table(table_text(face=row).encode())["face"]
    with pytest.raises(InputError, match=rf"^Face transient: {column} = "
                                         rf"1e\+200 at contact_area = "):
        max_elastic_energy(face, ContactMode.TRANSIENT, area)


@pytest.mark.parametrize("area", [0.0, -1.0, math.inf, math.nan])
def test_bad_contact_area_rejected(body_table, area):
    bound = "> 0" if area <= 0 else "finite"
    with pytest.raises(InputError, match="Face: contact_area must be " + bound):
        effective_force_limit(body_table["face"], ContactMode.TRANSIENT, area)


def test_load_from_bytes_and_stream():
    text = table_text()
    assert load_body_table(text.encode())["face"].f_max_qs == 65.0
    assert load_body_table(io.StringIO(text))["face"].f_max_qs == 65.0


def test_stiffness_unit_conversion():
    table = load_body_table(table_text().encode())
    assert table["abdomen"].stiffness == 10_000.0


def test_infinite_human_mass_parses_and_flags_clamped_only():
    table = load_body_table(table_text(
        back_shoulders="Back/Shoulders,210,210,35,inf,2\n").encode())
    assert math.isinf(table["back_shoulders"].m_h)
    assert table["back_shoulders"].clamped_only
    assert not table["chest"].clamped_only


def test_missing_region_names_the_label():
    rows = dict(ROWS)
    del rows["face"]
    with pytest.raises(InputError, match="missing region: Face"):
        load_body_table((HEADER + "".join(rows.values())).encode())


def test_duplicate_region_rejected():
    text = table_text() + ROWS["chest"]
    with pytest.raises(InputError, match="duplicate region: Chest"):
        load_body_table(text.encode())


def test_bad_header_rejected():
    bad = table_text().replace("m_h_kg", "mass_kg")
    with pytest.raises(InputError, match="bad header"):
        load_body_table(bad.encode())


def test_unknown_region_row_rejected():
    with pytest.raises(InputError, match="unknown region 'Elbow'"):
        load_body_table((table_text() + "Elbow,1,1,1,1,2\n").encode())


def test_non_numeric_cell_reports_row_and_column():
    bad = table_text(chest="Chest,140,170,soft,40,2\n")
    with pytest.raises(InputError, match="k_N_per_mm"):
        load_body_table(bad.encode())


def test_negative_threshold_reports_row():
    bad = table_text(chest="Chest,-140,170,25,40,2\n")
    with pytest.raises(InputError, match="f_max_qs"):
        load_body_table(bad.encode())


def test_wrong_multiplier_for_head_rejected():
    bad = table_text(face="Face,65,110,75,4.4,2\n")
    with pytest.raises(InputError, match="Face"):
        load_body_table(bad.encode())


def test_wrong_multiplier_for_torso_rejected():
    bad = table_text(chest="Chest,140,170,25,40,1\n")
    with pytest.raises(InputError, match="Chest"):
        load_body_table(bad.encode())


def test_params_reject_nonpositive_values():
    with pytest.raises(InputError, match="Face: f_max_qs must be > 0"):
        BodyRegionParams("face", f_max_qs=0.0, p_max_qs=110.0,
                         stiffness=75000.0, m_h=4.4, transient_multiplier=1.0)
    with pytest.raises(InputError, match="unknown region id 'nose'"):
        BodyRegionParams("nose", f_max_qs=65.0, p_max_qs=110.0,
                         stiffness=75000.0, m_h=4.4, transient_multiplier=1.0)


def test_labels_cover_every_region():
    assert set(REGION_LABELS) == set(REGION_IDS)

from timedata_lab import units


def test_constants_relation():
    assert units.C_KM_PER_S == 300000.0

from timedata_lab import units


def test_constants_relation():
    assert units.LM_KM == 60 * units.C_KM_PER_S
    assert units.C_KM_PER_S == 300000.0

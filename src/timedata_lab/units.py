"""Physical constants shared by the toolkit's modules."""

# Round speed of light used throughout; downstream numbers were computed
# with 300000 km/s, not the CODATA value.
C_KM_PER_S = 300000.0
# Kilometers per light-minute, 60 * c exactly.
LM_KM = 60.0 * C_KM_PER_S

"""Canonical clinical variable vocabulary.

36 time-series (dynamic) variables plus 4 per-patient constants (static).
The tuple order below is the canonical order used everywhere: feature
grids, weight vectors, and all file formats are indexed by it.
"""

DYNAMIC_VARIABLES = (
    "Invasive (diastolic)",
    "Invasive (mean)",
    "Invasive (systolic)",
    "Non-invasive (diastolic)",
    "Non-invasive (mean)",
    "Non-invasive (systolic)",
    "Albumin",
    "ALP (Alkaline phosphatase)",
    "ALT (Alkaline transaminase)",
    "AST (Aspartate transaminase)",
    "Bilirubin",
    "BUN (Blood urea nitrogen)",
    "Cholesterol",
    "Creatinine",
    "FiO2 (Fractional inspired oxygen)",
    "Glasgow Coma Score (GCS)",
    "Glucose",
    "HCO3 (Serum bicarbonate)",
    "HCT (Hematocrit)",
    "Heart rate",
    "K (Serum potassium)",
    "Lactate",
    "Mg (Serum magnesium)",
    "Mechanical ventilation",
    "Na (Serum sodium)",
    "PaCO2",
    "PaO2",
    "pH",
    "Platelets",
    "Respiration rate",
    "SaO2",
    "Temperature",
    "Troponin-I",
    "Troponin-T",
    "Urine output",
    "WBC (White blood cell count)",
)

STATIC_VARIABLES = ("Age", "Gender", "Height", "Weight")

ALL_VARIABLES = DYNAMIC_VARIABLES + STATIC_VARIABLES

N_DYNAMIC = len(DYNAMIC_VARIABLES)
N_STATIC = len(STATIC_VARIABLES)
N_VARIABLES = N_DYNAMIC + N_STATIC

DYNAMIC_INDEX = {name: i for i, name in enumerate(DYNAMIC_VARIABLES)}
STATIC_INDEX = {name: i for i, name in enumerate(STATIC_VARIABLES)}
VARIABLE_INDEX = {name: i for i, name in enumerate(ALL_VARIABLES)}

# Observation window: the first 48 hours after ICU admission, in 2-hour frames by default.
WINDOW_HOURS = 2
HORIZON_HOURS = 48
HORIZON_MINUTES = HORIZON_HOURS * 60
N_BUCKETS = HORIZON_HOURS // WINDOW_HOURS

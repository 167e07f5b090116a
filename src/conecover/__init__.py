"""Spherical cone metrics and exceptional branched covers of the sphere.

The package answers three linked questions with exact arithmetic:

* does a vector of cone angles admit a spherical cone metric on the
  2-sphere (`decide_admissible`);
* is a candidate branch datum exceptional, i.e. realized by no branched
  self-cover of the sphere, certified by lifting an admissible angle
  vector to an inadmissible one (`certify_exceptional`,
  `search_certificate`);
* is the datum realizable at all, settled exhaustively at small degree by
  a permutation monodromy search (`find_witness`).

`classify` runs both engines on a datum and joins them into one verdict.
"""

from .angles import (
    AdmissibilityVerdict,
    AngleParseError,
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASE_EMPTY,
    CASE_NONE,
    CoaxialWitness,
    OddLatticeResult,
    coaxial_check,
    decide_admissible,
    format_angles,
    l1_distance_to_odd_lattice,
    parse_angles,
    troyanov_admissible,
)
from .branch_data import (
    BranchDatum,
    DatumParseError,
    Partition,
    ValidationReport,
    Violation,
    enumerate_data,
    format_datum,
    parse_datum,
    partitions_of,
    total_defect,
    validate_datum,
)
from .families import (
    FAMILY_IDS,
    FamilyInstance,
    all_instances,
    family_2k,
    family_2k_twos,
    family_3k,
    family_rk,
    family_rk_split,
    is_prime,
    nonprime_witness,
)
from .lift import (
    VERDICT_CERTIFIED,
    VERDICT_ORACLE,
    VERDICT_REALIZABLE,
    VERDICT_UNKNOWN,
    CertificationRefused,
    Classification,
    ExceptionalityCertificate,
    certify_exceptional,
    classify,
    lift_angles,
    search_certificate,
    verify_certificate,
)
from .monodromy import (
    DEFAULT_BUDGET,
    MonodromyWitness,
    OracleResult,
    Permutation,
    REALIZABLE,
    UNKNOWN,
    UNREALIZABLE,
    canonical_of_type,
    class_size,
    find_witness,
    format_cycles,
    parse_cycles,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityVerdict", "AngleParseError", "BranchDatum", "CASE_A", "CASE_B",
    "CASE_C", "CASE_D", "CASE_EMPTY", "CASE_NONE", "CertificationRefused",
    "Classification", "CoaxialWitness", "DEFAULT_BUDGET", "DatumParseError",
    "ExceptionalityCertificate", "FAMILY_IDS", "FamilyInstance", "MonodromyWitness",
    "OddLatticeResult", "OracleResult", "Partition", "Permutation", "REALIZABLE",
    "UNKNOWN", "UNREALIZABLE", "VERDICT_CERTIFIED", "VERDICT_ORACLE",
    "VERDICT_REALIZABLE", "VERDICT_UNKNOWN", "ValidationReport", "Violation",
    "all_instances", "canonical_of_type", "certify_exceptional", "class_size",
    "classify", "coaxial_check", "decide_admissible", "enumerate_data", "family_2k",
    "family_2k_twos", "family_3k", "family_rk", "family_rk_split", "find_witness",
    "format_angles", "format_cycles", "format_datum", "is_prime",
    "l1_distance_to_odd_lattice", "lift_angles", "nonprime_witness", "parse_angles",
    "parse_cycles", "parse_datum", "partitions_of", "search_certificate",
    "total_defect", "troyanov_admissible", "validate_datum", "verify_certificate",
    "verify_witness",
]

"""Exact character algebra and Monte Carlo tools for the q-Plancherel measure."""

from qplancherel.asymptotics import (
    cov_closed_form,
    cov_double_sum,
    limit_cov_z,
    mobius_brute,
    mobius_closed,
    reduce_covariance_via_mobius,
)
from qplancherel.characters import char_normalized, character_table
from qplancherel.hecke import (
    q_char_normalized,
    sigma_in_sigma_q,
    sigma_q_in_sigma,
)
from qplancherel.measure import (
    expectation_sigma,
    expectation_sigma_q,
    measure_probabilities,
    measure_table,
    measure_value,
    stat_w,
)
from qplancherel.montecarlo import CltReport, RunConfig, run_clt, sample_partitions
from qplancherel.observables import (
    ObservableExpansion,
    identity_cumulant,
    joint_cumulant,
    product_sigma,
)
from qplancherel.partitions import parse_partition, partition_str, partitions_of
from qplancherel.ratfunc import QPoly, QRat, one_minus_q_pow, qfactorial, qint

__all__ = [
    "QPoly",
    "QRat",
    "qint",
    "qfactorial",
    "one_minus_q_pow",
    "parse_partition",
    "partition_str",
    "partitions_of",
    "character_table",
    "char_normalized",
    "ObservableExpansion",
    "product_sigma",
    "identity_cumulant",
    "joint_cumulant",
    "sigma_q_in_sigma",
    "sigma_in_sigma_q",
    "q_char_normalized",
    "measure_table",
    "measure_value",
    "measure_probabilities",
    "expectation_sigma",
    "expectation_sigma_q",
    "stat_w",
    "cov_closed_form",
    "cov_double_sum",
    "reduce_covariance_via_mobius",
    "limit_cov_z",
    "mobius_brute",
    "mobius_closed",
    "RunConfig",
    "CltReport",
    "run_clt",
    "sample_partitions",
]

__version__ = "0.1.0"

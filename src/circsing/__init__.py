"""Singularity probabilities of random circulant Bernoulli matrices."""

from .asym import (AsymptoticValue, ConvergenceRow, approx_closed, approx_main,
                   approx_signed, convergence_table)
from .binomstats import (binom_max, binom_pdf_exact, binom_pdf_log,
                         power_sum_asymptotic, power_sum_exact)
from .errors import BudgetExceededError
from .mcsim import EstimateWithCI, sample_singularity
from .polycyc import (FirstRow, IntPolynomial, cyclotomic, fold,
                      reduce_mod_cyclotomic, singular_divisors)
from .singexact import (DivisorProbability, ProbabilityReport, divisor_bounds,
                        divisor_probability, exact_union, hnf_basis,
                        prob_bounds, prob_divisor_general,
                        prob_union_bruteforce, prob_union_closed_form, report)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticValue", "BudgetExceededError", "ConvergenceRow",
    "DivisorProbability", "EstimateWithCI", "FirstRow", "IntPolynomial",
    "ProbabilityReport", "approx_closed", "approx_main", "approx_signed",
    "binom_max", "binom_pdf_exact", "binom_pdf_log", "convergence_table",
    "cyclotomic", "divisor_bounds", "divisor_probability", "exact_union",
    "fold", "hnf_basis", "power_sum_asymptotic", "power_sum_exact",
    "prob_bounds", "prob_divisor_general", "prob_union_bruteforce",
    "prob_union_closed_form", "reduce_mod_cyclotomic", "report",
    "sample_singularity", "singular_divisors",
]

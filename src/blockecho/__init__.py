"""Matrix completion for block-wise missing data.

Modules: kernel (dense numerics), masking (MaskedMatrix, the one type for
a matrix with missing cells, and generate_mask), mf (masked KL matrix
factorization), gan (adversarial imputer), metrics and data (CSV ingestion
and synthetics, both returning MaskedMatrix, and forecasting).
"""

__version__ = "0.1.0"

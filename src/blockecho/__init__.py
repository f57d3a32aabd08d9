"""Matrix completion for block-wise missing data.

Modules: kernel (dense numerics), masking (mask generators), mf (masked
KL matrix factorization), gan (adversarial imputer), metrics and data
(ingestion/synthetics/forecasting).
"""

__version__ = "0.1.0"

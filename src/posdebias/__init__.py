"""Self-supervised position debiasing toolkit.

Splits corpora by position-bias evidence, generates low-bias candidate
responses with prompt-side mitigations, prunes them with multi-strategy
alignment gates, and fine-tunes against a target/alignment mixture loss.
Includes a synthetic end-to-end demonstration on a toy sequence model.
"""

__version__ = "0.1.0"

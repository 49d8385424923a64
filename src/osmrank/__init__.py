"""osmrank: log-linear models over ordered set partitions.

Exact combinatorics, split-merge Metropolis-Hastings inference, binary
latent units with closed-form posteriors, annealed importance sampling
for the partition function, and a collaborative-ranking pipeline with
NDCG/ERR evaluation.
"""

__version__ = "0.1.0"

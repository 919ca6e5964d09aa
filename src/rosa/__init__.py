"""Random subspace adaptation of dense networks, with exact linear solvers.

The package splits into small layers: linalg (deterministic SVD and
rank), adapters (the weight parameterizations), network (MLP with
hand-written gradients), optim (AdamW), exact (closed-form solvers
for the linear case), synthetic/training/experiments (the desk-scale
harness), checkpoint (binary model files), fileio (atomic output files),
and cli (the `rosa` command). Callers import the submodule they use;
`import rosa` alone loads none of them.
"""

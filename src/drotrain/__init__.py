"""Percentile-robust classifier training at desk scale.

Average-loss training quietly sacrifices rare, hard subgroups: the mean
stays flat while the worst decile collapses.  This package trains against
that failure mode by minimizing a distributionally robust objective whose
inner adversary has a softmax closed form, realized as hardness-weighted
mini-batch sampling with clipped importance weights.  Everything needed to
reproduce the effect end to end is here: the robust objectives and their
percentile bound, the sampler, a small MLP with exact gradients, a
stratified synthetic data generator, two training regimes with fold
ensembling and resumable checkpoints, and stratified percentile reports.

Names are imported from their modules, for example
``from drotrain.training import cross_validate``.
"""

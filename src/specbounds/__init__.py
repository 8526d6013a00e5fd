"""Spectral-norm bounds and Monte Carlo checks for Gaussian random matrices
with an inhomogeneous variance profile.

A profile is a symmetric nonnegative matrix of standard deviations b_ij;
the random matrix under study has independent centered Gaussian entries
X_ij = b_ij * g_ij (symmetrized).  The package computes the closed-form
norm bounds attached to such profiles, estimates the matching stochastic
quantities by seeded Monte Carlo, and verifies the geometric inequalities
relating them as executable properties.
"""

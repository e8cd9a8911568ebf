"""Adaptive filter switching for option-price state estimation.

A bank of nonlinear Bayesian filters (extended, unscented, particle)
tracks the hidden volatility and rate states of a Black-Scholes +
GARCH(1,1) state-space model. Each filter is scored every step against a
particle-approximated posterior information bound, and the best scorer —
per step or per state component — supplies the estimate used for
one-step-ahead price forecasting.
"""

__version__ = "0.1.0"

"""Desk-scale numerics for lower deviations of the rightmost particle of a BBM.

Closed-form rate evaluators (`rates`), the variational delayed-branching
optimizer (`varopt`), a log-domain front-equation solver (`fkpp`), exact
event-driven Monte Carlo with a conditional scenario estimator (`mc`), and a
CLI harness (`cli`).
"""

__version__ = "0.14.0"

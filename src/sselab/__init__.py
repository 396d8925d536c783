"""Qubit fidelity under stochastic Hamiltonian noise.

Simulation and closed-form analysis of pure states evolving under a
stochastic Schrodinger equation whose noise operator is driven by white
noise or an Ornstein-Uhlenbeck process.  The package computes exact
fidelity laws (finite cosine series in the noise increment), their
moments and distributions, moment-closure and Magnus-type
approximations, and verifies everything against an independent
Monte-Carlo SDE integrator.
"""

from . import approx, laws, magnus, noise, qstate, scenario, sde, stats

__all__ = [
    "approx",
    "laws",
    "magnus",
    "noise",
    "qstate",
    "scenario",
    "sde",
    "stats",
]

__version__ = "0.1.0"

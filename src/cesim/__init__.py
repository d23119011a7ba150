"""Interferometric polarization-path correlation simulator.

Closed-form evaluation of the local and joint observables of a two-arm
frequency-tagged polarization network, plus a stochastic time-tagged
photon-pair pipeline whose streaming coincidence analysis reproduces the
same observables.
"""

__version__ = "0.1.0"

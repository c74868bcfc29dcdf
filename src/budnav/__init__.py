"""Deterministic grid-world testbed for budget-routed navigation training.

A tiny instruction-following POMDP with an exact geodesic oracle, an
analytic-gradient policy, and a training loop that routes each episode
by a greedy probe: group-relative policy optimisation where the policy
is already proficient, oracle-rectified imitation where it fails.
Everything is reproducible to the byte from a single run seed.
"""

__version__ = "0.1.0"

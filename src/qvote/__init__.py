"""qvote: simulator for entanglement-based anonymous voting and its adversaries.

Two interchangeable state backends (an exact dense oracle and a scalable
branch representation), the honest voting and group-multiplication
protocols, an anti-cheating voting scheme, attack models with their
detection statistics, and a scenario-driven CLI.
"""

__version__ = "0.1.0"

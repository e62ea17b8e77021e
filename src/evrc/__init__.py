"""Deterministic engine for route-admissibility gating, reward-coverage
ratios, breakpoint classification, and evidence-graded claim gating."""

__version__ = "0.1.0"

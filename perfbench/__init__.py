"""Layered benchmark of the PPQ-trajectory system (see run.py)."""

"""Hypothesis profiles. The default profile keeps tier-1 fast; ``ci`` runs
2000 examples per property with no deadline, for a deeper check of the
exact layer:

    PYTHONPATH=src python -m pytest -q tests/test_exact.py --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)

"""Tier-1 runs Hypothesis derandomized, so two runs draw the same examples.

The profile changes nothing else (no `max_examples`, `deadline` or health
check), and derandomized Hypothesis keeps no example database.  To explore
with a fresh seed, the built-in profile named on the command line wins:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=default --hypothesis-seed=N
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

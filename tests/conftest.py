"""Hypothesis settings profiles for the tests.

Tier-1 runs the `derandomized` profile, so two runs draw the same examples.
It changes nothing else (no `max_examples`, `deadline` or health check), and
derandomized Hypothesis keeps no example database.

`tests/mutants.py` runs each mutation's tests under `mutants`: derandomized
too, without the shrink phase.  One failing example kills a mutation, so
there is nothing to gain from shrinking it, which took most of the runner's
time.

A profile named on the command line wins; to explore with a fresh seed:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=default --hypothesis-seed=N
"""

from hypothesis import Phase, settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("mutants", derandomize=True, phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("derandomized")

"""Shared test settings.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples.  Its remaining storage (a cache
of constants read from the source) goes to a temporary directory that is
removed when the run ends, so a run writes no ``.hypothesis/`` directory.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)

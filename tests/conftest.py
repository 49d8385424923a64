import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests run inside Tier-1: the same examples on every run, a bounded
# count, no per-example deadline and no example database left on disk.
settings.register_profile("tier1", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("tier1")

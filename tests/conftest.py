from hypothesis import settings

# Every @given test draws the same examples on every run: the seed comes from
# the test function, and no example saved by an earlier run is replayed.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

from hypothesis import settings

# Tier-1 runs the same bounded examples every time: no random seed, no
# example database, no per-example deadline on a loaded host.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("tier1")

from hypothesis import settings

# The same examples on every run: select with --hypothesis-profile=ci.
settings.register_profile("ci", derandomize=True)

from hypothesis import settings

# Every property test fixes its own example count except the config fuzzer
# (tests/test_cli.py::TestConfigFuzz), which takes the active profile's:
# "tier1" by default, about 2 s; "ci" (`pytest --hypothesis-profile=ci`),
# ten times as many, which CI runs as a step of its own.
settings.register_profile("tier1", max_examples=150)
settings.register_profile("ci", max_examples=1500)
settings.load_profile("tier1")

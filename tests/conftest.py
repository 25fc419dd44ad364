from hypothesis import settings

# Every property test fixes its own example count except the config fuzzer
# (tests/test_cli.py::TestConfigFuzz) and the certificate-row window
# property (tests/test_functionals.py::
# test_a_window_of_pairs_is_each_pair_alone_bit_for_bit), which take the
# active profile's: "tier1" by default, about 2 s and 1 s; "ci" (`pytest
# --hypothesis-profile=ci`), ten times as many, which CI runs outside
# tier-1: the fuzzer with the rest of tests/test_cli.py against the
# installed package, the window property in a step of its own.
settings.register_profile("tier1", max_examples=150)
settings.register_profile("ci", max_examples=1500)
settings.load_profile("tier1")

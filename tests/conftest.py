"""Shared pytest options."""


def pytest_addoption(parser):
    parser.addoption(
        "--harness-seeds", default=None, metavar="A-B",
        help="generator seeds for tests/test_differential.py, as an "
             "inclusive range A-B or a comma-separated list (default: the "
             "module's fixed tier-1 seeds)")

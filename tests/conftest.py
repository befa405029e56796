import pytest


@pytest.fixture(scope="session")
def honest_end_to_end():
    """The honest (3,2) end-to-end run, shared by the tests that check it."""
    from pbtkit.amplify import end_to_end

    return end_to_end(3, 2, "honest")

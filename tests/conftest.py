"""Fixtures shared by the config-loading tests."""

import pytest


@pytest.fixture
def unreadable_config():
    """Make a config path that cannot be read or decoded: a JSON integer past
    Python's 4300-digit int-string limit, bytes that are not UTF-8, or a directory."""

    def make(directory, kind):
        path = directory / f"{kind}.json"
        if kind == "long_integer":
            path.write_text('{"scenario_id": "A", "seed": ' + "9" * 5000 + "}")
        elif kind == "not_utf8":
            path.write_bytes(b'{"scenario_id": "A\xff"}')
        else:
            path.mkdir()
        return path

    return make

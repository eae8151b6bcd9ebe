"""Golden outputs: every bundled config against ``tests/golden/manifest.json``.

The headline numbers are always compared: verdicts, ``agrees`` and exit codes
exactly, floats to ``REL_TOL``. The result-file digests are compared only on
the numpy and BLAS the manifest was made with, since dgemm bits depend on the
BLAS core. A change that moves a digest regenerates the manifest with
``tests/golden/regenerate.py`` and states the drift.
"""

import importlib.util
import json
import math
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", os.path.join(os.path.dirname(__file__), "golden", "regenerate.py")
)
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)

REL_TOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with open(regenerate.MANIFEST, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return regenerate.collect()


def assert_close(expected, actual, where):
    """Equal structure; floats within ``REL_TOL`` relative, everything else equal."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            assert_close(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_close(e, a, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


def test_every_bundled_config_is_recorded(golden, current):
    assert sorted(current["configs"]) == sorted(golden["configs"])


def test_headline_numbers(golden, current):
    for name, record in golden["configs"].items():
        assert_close(record["headline"], current["configs"][name]["headline"], name)


def test_digests(golden, current):
    if current["stamp"] != golden["stamp"]:
        pytest.skip(
            f"the manifest's digests were made on {golden['stamp']}, this is "
            f"{current['stamp']}: dgemm bits depend on the BLAS, so only the headline "
            "numbers are compared"
        )
    moved = [
        f"{name} {key}"
        for name, record in golden["configs"].items()
        for key, digest in record["digests"].items()
        if current["configs"][name]["digests"].get(key) != digest
    ]
    assert not moved, f"result bytes moved: {moved}; regenerate the manifest and state why"


def test_changes_names_each_moved_digest_and_changed_headline_key():
    old = {"configs": {"a": {"digests": {"predict": "x", "attack": "y"},
                             "headline": {"margin1": 0.5, "verdict1": "misled"}}}}
    new = {"configs": {"a": {"digests": {"predict": "z", "attack": "y"},
                             "headline": {"margin1": 0.25, "verdict1": "misled"}},
                       "b": {"digests": {"predict": "w"}, "headline": {}}}}
    assert regenerate.changes(old, new) == [
        "a predict: moved", "a margin1: changed", "b predict: moved"
    ]

"""``bench serve`` CLI: load parsing and the committed SLO archive."""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.serve import ServeShape
from repro.serve.cli import CONFIG_BUILDERS, _parse_loads

ARCHIVE = Path(__file__).resolve().parents[2] / "serve_slo.json"


def test_parse_loads_sorts_and_drops_duplicates():
    # validate_slo and detect_knee both need points in ascending load.
    assert _parse_loads("200,60,200, 100") == (60.0, 100.0, 200.0)


@pytest.mark.parametrize("text", ["", "60,-5", "60,fast"])
def test_parse_loads_rejects_bad_lists(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_loads(text)


def test_archive_configs_match_the_builders():
    """The committed sweep archive was produced by today's configs."""
    doc = json.loads(ARCHIVE.read_text())
    assert list(doc["configs"]) == list(CONFIG_BUILDERS)
    for name, build in CONFIG_BUILDERS.items():
        assert doc["configs"][name]["shape"] == asdict(build(ServeShape()))

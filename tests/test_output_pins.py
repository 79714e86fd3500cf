"""Byte contract: every file the five stages write hashes as pinned in
output_pins.json (regenerate with make_output_pins.py)."""

import json

from make_output_pins import PINS, pipeline_hashes


def test_every_output_byte_matches_its_pin(tmp_path):
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    assert pipeline_hashes(str(tmp_path)) == pins

"""The README names every name regretopt exports and every field of the search records."""

import re
from dataclasses import fields
from pathlib import Path

import regretopt
from regretopt import BBConfig, BBStats

README = Path(__file__).resolve().parent.parent / "README.md"


def _code_names(text: str) -> set[str]:
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", text))


def test_every_exported_name_is_in_the_public_api_section():
    text = README.read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    assert set(regretopt.__all__) - _code_names(section) == set()


def test_every_search_record_field_is_named_in_the_readme():
    named = _code_names(README.read_text())
    missing = {(record.__name__, f.name) for record in (BBConfig, BBStats) for f in fields(record) if f.name not in named}
    assert missing == set()

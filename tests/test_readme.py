"""The README's Public API section names every name regretopt exports."""

import re
from pathlib import Path

import regretopt

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_in_the_public_api_section():
    text = README.read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    assert set(regretopt.__all__) - listed == set()

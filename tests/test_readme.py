"""The README names every name regretopt exports, every field of the search records and every CLI flag."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

import regretopt
from regretopt import BBConfig, BBStats
from regretopt.harness.cli import build_parser

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


def _subcommand_flags() -> dict[str, set[str]]:
    """Every subcommand's option strings, help aside."""
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }


def _flags_in(text: str) -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))


def test_every_cli_flag_is_in_the_readme():
    named = _flags_in(README.read_text())
    missing = {(name, flag) for name, flags in _subcommand_flags().items() for flag in flags if flag not in named}
    assert missing == set()


def test_every_flag_the_command_line_section_names_exists():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    known = set().union(*_subcommand_flags().values())
    assert _flags_in(section) - known == set()

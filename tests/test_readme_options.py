"""The README and the command-line parser name the same options."""

import argparse
import re
from pathlib import Path

from crtnd.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
# options of other programs that the README quotes
FOREIGN = {"--no-build-isolation"}


def parser_options() -> set[str]:
    """Every long option of the parser and of each subcommand."""
    parsers, options = [build_parser()], set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            options.update(s for s in action.option_strings if s.startswith("--"))
    return options


def readme_options() -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))


def test_every_readme_option_exists():
    assert readme_options() - FOREIGN <= parser_options()


def test_every_option_is_in_the_readme():
    assert parser_options() - {"--help"} <= readme_options()

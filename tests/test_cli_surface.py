"""The command line's help, usage and error output, byte for byte, and its parser builds.

`data/cli_surface.json` holds, for each argv below, the stdout, stderr and
exit code of `tcbounds.cli.main(argv)` with COLUMNS=100, recorded while
`main` still built every subcommand's parser on each run.  `main` now builds
only the subparser that argv[0] names, and the full tree for any other argv,
so these pin that help, usage lines and error messages did not change.
"""

import argparse
import json
from pathlib import Path

import pytest

import tcbounds.cli
from tcbounds.cli import EXIT_PINCHED, build_parser, main

DATA = Path(__file__).resolve().parent / "data"
CASES = json.loads((DATA / "cli_surface.json").read_text())
COMMANDS = ["report", "grid", "basis", "multiply", "zcl", "barspan", "export-algebra"]


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]) or "no-argv")
def test_cli_surface_matches_recorded_output(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "100")
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def subparsers(parser):
    """The subparser of each command the parser was built with, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def surface(parser):
    """Each action's option strings, dest, default, type, choices and help, and the func."""
    return ([(a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
             for a in parser._actions], parser.get_default("func"))


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_matches_the_full_tree(capsys, monkeypatch, command):
    built = []
    build = tcbounds.cli.build_parser

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(tcbounds.cli, "build_parser", spy)
    assert main([command, "-h"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: tcbounds {command} [-h]")
    [one] = built
    assert list(subparsers(one)) == [command]
    full = surface(subparsers(build_parser())[command])
    assert surface(subparsers(one)[command]) == full
    assert full[1] is getattr(tcbounds.cli, "cmd_" + command.replace("-", "_"))


def test_a_report_run_builds_two_parsers(capsys, monkeypatch):
    # the top-level parser and the report subparser, not the other six
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["report", "--m", "3", "--n", "3"]) == EXIT_PINCHED
    assert built == ["tcbounds", "tcbounds report"]
    built.clear()
    tcbounds.cli.build_parser()
    assert len(built) == 1 + len(COMMANDS)

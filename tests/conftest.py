"""Suite-wide pytest settings.

Written to a file or a pipe, pytest's progress falls back to 80 columns: 72
tests a line, so the suite's progress outgrows a dozen lines and a log that
keeps only its tail drops the head of the run.  Off a terminal the progress
is printed 160 columns wide instead (152 tests a line); on a terminal,
pytest's own width detection is left alone.  When the quiet level leaves
pytest printing no summary line, one is printed last: ``N passed`` (plus
``M failed`` and the other outcomes, as pytest words them).
"""

import os
import sys

import pytest

#: Progress width when stdout is not a terminal.
LOG_COLUMNS = "160"


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Runs before the terminal reporter reads the width; output capture is
    # suspended here, so ``sys.stdout`` is the real stream.
    if not sys.stdout.isatty():
        os.environ["COLUMNS"] = LOG_COLUMNS


def pytest_unconfigure(config):
    # ``-q`` from addopts plus ``-q`` on the command line makes pytest print no
    # summary line at all, only progress.  Print the counts as the last line,
    # where a reader of the log's tail finds them however long the run was.
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None or reporter.verbosity >= -1:
        return
    parts, _ = reporter.build_summary_stats_line()
    reporter.write_line(", ".join(text for text, _ in parts))

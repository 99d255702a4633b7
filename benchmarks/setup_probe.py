"""Set-up probe run in a fresh interpreter by ``run.py``.

Imports ``blockboot.cli``, parses the CLI arguments and the config, and prints
``time.monotonic()`` at that point.  On Linux that clock is system-wide, so
the parent subtracts the time at which it started this process.

Usage: ``python3 setup_probe.py <src-dir> <subcommand> <config-file>``
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import yaml  # noqa: E402

from blockboot import cli  # noqa: E402

args = cli.make_parser().parse_args([sys.argv[2], "--config", sys.argv[3], "--workers", "1"])
with open(sys.argv[3], encoding="utf-8") as handle:
    cli.build_config(yaml.safe_load(handle), args)
print(repr(time.monotonic()))

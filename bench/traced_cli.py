"""Run one ``gridclust`` CLI command with span recording.

Usage: python3 traced_cli.py SPANS_JSON COMMAND [ARGS...]

Behaves like the ``gridclust`` entry point (same arguments, output and exit
code), and additionally writes the spans recorded around gridclust's public
functions to SPANS_JSON.  ``cli.import`` times the import of
``gridclust.cli``; ``cli.main`` spans the whole command.
"""

from __future__ import annotations

import importlib
import json
import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, ("gridclust.cli",))
    with tracer:
        code = tracer.call("cli.main", cli.main, (args,))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

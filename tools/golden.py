"""The golden tables of ``tests/test_golden.py``, recomputed on the running
OpenBLAS kernel ("core"), which the library picks from the CPU or from
``OPENBLAS_CORETYPE``.  Run it from the root of a source checkout:

    PYTHONPATH=src python3 tools/golden.py          # the core's table
    PYTHONPATH=src python3 tools/golden.py --check  # the entries that moved

Without ``--check`` it prints the core's entry of ``GOLDEN`` in the file's
literal format, ready to paste.  ``--check`` prints each entry that differs
from the recorded table, by table and file (or arm), old value then new, and
exits 1 when one moved or the core has no table.  The values come from the
test module's own recipe, so the tool and the tests cannot drift apart.
"""

import argparse
import contextlib
import json
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))

import test_golden  # noqa: E402
from promptseg.pipeline import blas_info  # noqa: E402


def literal(core, tables):
    """``core``'s entry of ``GOLDEN``, indented as in the test module."""
    lines = [f"    {json.dumps(core)}: {{"]
    for name, table in tables.items():
        lines.append(f"        {json.dumps(name)}: {{")
        lines += [f"            {json.dumps(key)}: {json.dumps(value)},"
                  for key, value in table.items()]
        lines.append("        },")
    lines.append("    },")
    return "\n".join(lines)


def moved(recorded, tables):
    """["table: key: old -> new"] for every entry that differs, either side missing."""
    out = []
    for name, table in tables.items():
        old = recorded.get(name, {})
        for key in sorted(old.keys() | table.keys()):
            if old.get(key) != table.get(key):
                out.append(f"{name}: {key}: {old.get(key)} -> {table.get(key)}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="list the entries that moved from the recorded table")
    args = parser.parse_args(argv)
    core = blas_info()["core"]
    # the commands' own reports go to stderr, so stdout holds the table alone
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        tables = test_golden.measure(pathlib.Path(tmp))
    if not args.check:
        print(literal(core, tables))
        return 0
    if core not in test_golden.GOLDEN:
        print(f"no golden table recorded for OpenBLAS core {core!r}; "
              f"tables exist for {sorted(test_golden.GOLDEN)}")
        return 1
    lines = moved(test_golden.GOLDEN[core], tables)
    print("\n".join(lines) or f"no entry moved on core {core}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

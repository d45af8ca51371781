"""Run one ``coorbit`` CLI command with span wrappers installed.

Usage: ``python bench/traced_cli.py SPANS_JSON COMMAND [CLI ARGS...]``.
The spans are written to ``SPANS_JSON``; the exit code is the CLI's.
The working tree's ``src/`` must be on ``PYTHONPATH``.
"""

import json
import sys

import spans


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    import coorbit.cli

    recorder = spans.Recorder()
    with spans.install(recorder):
        code = coorbit.cli.main(cli_argv)
    with open(out_path, "w") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

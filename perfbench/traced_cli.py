"""Run one CLI job with layer tracing, then write its spans.

Usage: python perfbench/traced_cli.py SPANS_FILE JOB_ID -- <cli args>

Behaves like ``python -m spincycles.cli <cli args>`` (same ``main``, same
output and exit code) with the wrappers of ``tracing`` installed.
"""

import sys

import tracing


def run() -> int:
    spans_path, job_id, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE JOB_ID -- <cli args>")
    tracing.install()
    tracing.STATE["job"] = job_id
    from spincycles import cli

    try:
        return cli.main(args)
    finally:
        tracing.dump(spans_path)


if __name__ == "__main__":
    sys.exit(run())

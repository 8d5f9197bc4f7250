"""Run one ``bgf`` command with tracing on and write its spans.

Usage: ``python3 traced_cli.py SPANS.npz BGF_ARGS...``. Stdout, stderr and
the exit code are those of ``bgf BGF_ARGS...``; the import of
``bgframes.cli`` is recorded as the root span ``cli.import``.
"""

import sys

import tracer as tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Tracer()
    index = rec.open("cli.import")
    import bgframes.cli

    rec.close(index)
    rec.install()
    try:
        return bgframes.cli.main(argv)
    finally:
        rec.uninstall()
        tracing.save(out, [rec.spans()])


if __name__ == "__main__":
    sys.exit(main())

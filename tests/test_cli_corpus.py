"""Replay of a pinned corpus of CLI requests through cli.main, in process.

Each line of tests/data/cli_requests.jsonl holds the argv, the stdin, the exit
code and the stdout of one request.  The corpus covers every subcommand and
op except selftest (pinned by tests/data/selftest_seed42.jsonl): each valid
request, each of it with one dict key deleted or set to a string, or the first
entry of one list set to a string, invalid JSON, a non-object request, and an
invalid or missing --field, plus single faults the key walk does not reach.
Every request has at most one fault, so its answer does not depend on the
order in which a handler checks its input.  The corpus was captured once and
is never regenerated to fit a change.
"""

import contextlib
import io
import json
import pathlib
import sys

from tropigon import cli

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_requests.jsonl"


def call(argv, stdin):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def test_corpus_replays_byte_for_byte():
    records = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert len(records) > 400
    diffs = []
    for r in records:
        got = call(r["argv"], r["stdin"])
        if got != (r["code"], r["stdout"]):
            diffs.append((r["argv"], r["stdin"][:200], (r["code"], r["stdout"][:200]), (got[0], got[1][:200])))
    assert diffs == []

"""GitHub runs a workflow's `run:` blocks with `bash -eo pipefail`, which
ignores a failure in an `A && B` list unless it is the last command's, and
the status of a command negated with `!` wherever it stands: such a check
cannot fail the step.  Every check in the workflows must be a command of
its own."""

from pathlib import Path

import pytest

WORKFLOWS = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))


def _run_lines(text):
    """(line number, line) of every line of the workflow's `run:` blocks."""
    block = None  # the indentation of the open `run: |` key
    for number, line in enumerate(text.splitlines(), 1):
        indent = len(line) - len(line.lstrip())
        if block is not None and (not line.strip() or indent > block):
            yield number, line
            continue
        block = None
        key, _, value = line.strip().removeprefix("- ").partition(":")
        if key == "run":
            if value.strip() in ("|", ">"):
                block = indent
            else:
                yield number, value


def _shell_words(lines):
    """(line number, whether the line starts inside a quoted string, the
    text of the line outside quotes and comments) of every line of a shell
    script; a quoted string, a `python3 -c '...'` program among them, may
    span lines."""
    quote = None
    for number, line in lines:
        starts_quoted, outside = quote is not None, []
        escaped = False
        for char in line:
            if quote is None:
                if char == "#" and (not outside or outside[-1].isspace()):
                    break
                if char in "'\"":
                    quote = char
                else:
                    outside.append(char)
            elif escaped:
                escaped = False
            elif char == "\\" and quote == '"':
                escaped = True
            elif char == quote:
                quote = None
        yield number, starts_quoted, "".join(outside).strip()


def _unfailable_checks(text):
    """Line numbers of the `run:` lines that chain commands with `&&` or
    start with a `!`-negated command."""
    found = []
    for number, starts_quoted, words in _shell_words(_run_lines(text)):
        if "&&" in words or (not starts_quoted and words.startswith("!")):
            found.append(number)
    return found


def test_the_guard_finds_unfailable_checks():
    text = """\
jobs:
  t:
    steps:
      - run: test -s a && test -s b
      - name: smoke
        shell: bash
        run: |
          test -s a
          # a comment's && or ! is no command, nor is its quote mark
          test "$code" -eq 4 && ! grep -q Traceback err
          ! grep -q Traceback err
          python3 -c 'import sys; sys.exit(0 if "&&" else 1)
            and "!" is a string' "$out"
          echo '&&'
          if grep -q Traceback err; then exit 1; fi
      - name: after
        run: echo done
"""
    assert _unfailable_checks(text) == [4, 10, 11]


@pytest.mark.parametrize("path", WORKFLOWS, ids=[path.name for path in WORKFLOWS])
def test_every_check_can_fail(path):
    assert _unfailable_checks(path.read_text()) == []

"""scripts/interpreters.py's check passes on the interpreter running the
tests: the ``scenario --all`` hash and the four first-pass worker digests
hold their pins.  The script runs the same check on every Python 3.10 to
3.13 on PATH."""

import sys

from .test_scripts import load


def test_the_running_interpreter_keeps_every_pin():
    assert load("interpreters").check(sys.executable) == []


def test_the_worker_pins_are_read_from_the_digest_test():
    from .test_digests import DIGESTS
    assert load("interpreters").pinned_worker_digests() == DIGESTS

"""The pool byte-identity script (``tests/pool_outputs.py``) still runs.

The full script takes about twelve seconds, so this runs it on the first
three instances of each group and checks that it writes one digest per
command, and that the group outside the pools reaches exit 3.
"""

from __future__ import annotations

import re

from pool_outputs import COMMANDS, differences, pool_digests


def test_pool_outputs_give_one_digest_per_command(tmp_path):
    digests, exits = pool_digests(tmp_path, limit=3)
    assert len(digests) == 3 * sum(len(commands) for commands in COMMANDS.values())
    assert sum(exits.values()) == len(digests) == 30
    # Every pool command exits 0; the three infeasible sub-seeds' solve
    # reports exit 3, and so does one of their TDI checks.
    assert {key: count for key, count in exits.items() if key[1]} == {
        ("solve", 3): 3, ("check --what tdi", 3): 1}
    assert {key.split(" ", 1)[1] for key in digests} == {
        " ".join(command) for commands in COMMANDS.values() for command in commands}
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests.values())
    assert differences(digests, dict(digests)) == []
    changed = dict(digests, **{min(digests): "0" * 64})
    assert differences(digests, changed) == [min(digests)]

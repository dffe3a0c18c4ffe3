"""The pool byte-identity script (``tests/pool_outputs.py``) still runs.

The full script takes about a minute, so this runs it on the first three
entries of each pool and checks that it writes one digest per command.
"""

from __future__ import annotations

import re

from pool_outputs import COMMANDS, differences, pool_digests


def test_pool_outputs_give_one_digest_per_command(tmp_path):
    digests = pool_digests(tmp_path, limit=3)
    assert len(digests) == 3 * sum(len(commands) for commands in COMMANDS.values())
    assert {key.split(" ", 1)[1] for key in digests} == {
        " ".join(command) for commands in COMMANDS.values() for command in commands}
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests.values())
    assert differences(digests, dict(digests)) == []
    changed = dict(digests, **{min(digests): "0" * 64})
    assert differences(digests, changed) == [min(digests)]

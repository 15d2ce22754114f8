"""A measured region leaves no retired command alive behind it.

When a region finishes, the device folds its retired commands into
timeline columns and cuts their ``stream_pred`` and ``wait_toks``
(:meth:`~repro.sim.device.Device.compact`).  The result then holds
rows, not objects, and nothing else pins the command history: what
survives the region are the stream tails, one command per stream the
runtime used.  Without the compaction every retired command stays
alive through ``sim.completed`` and the stream-predecessor chains.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.apps.common import new_runtime
from repro.sim.engine import Command, EventToken

from tests.sim.test_retirement_refs import APPS

#: what a reachability walk does not enter: from a type, module or
#: function every global of the program is reachable
_OPAQUE = (type, types.ModuleType, types.FunctionType)


def _reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``,
    not entering types, modules or functions."""
    seen, stack, out = {id(root)}, [root], []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, _OPAQUE):
                continue
            seen.add(id(ref))
            out.append(ref)
            stack.append(ref)
    return out


def _live(kind):
    return [o for o in gc.get_objects() if type(o) is kind]


@pytest.mark.parametrize("app", sorted(APPS))
def test_region_result_retains_no_commands(app):
    gc.collect()
    before = {id(o) for o in _live(Command)}
    region, arrays, kernel = APPS[app]()
    rt = new_runtime("k40m", virtual=True)
    res = region.run(rt, arrays, kernel)  # the issuer is dropped on return
    gc.collect()
    assert len(res.timeline) > 0
    reached = _reachable(res)
    assert not [o for o in reached if type(o) in (Command, EventToken)]
    # one tail per stream the runtime used: its pipeline streams and
    # the synchronous-copy streams
    tails = rt.device.sim._stream_tail
    new = [c for c in _live(Command) if id(c) not in before]
    assert 0 < len(new) <= len(tails)
    assert {id(c) for c in new} <= set(map(id, tails.values()))

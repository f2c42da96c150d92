"""The unfused reference plan: every fused unit expanded back into its
member stages.

``Planner.lower`` fuses adjacent stateless stages into dispatch units
that the session drives through its stacked core; the units are the
only thing that stacks.  ``unfuse(plan)`` is the same plan with no
units, so every stage runs through the session's stage-by-stage path
(``_SessionProcessor._run_single``) under every executor — the slow
reference the fused lowering is checked against, bit for bit.
"""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

from repro.graph import Planner


def unfuse(plan):
    """``plan`` with every unit replaced by its members, in order."""
    compute = tuple(member for name in plan.compute
                    for member in plan.members(name))
    return replace(plan, compute=compute, units={})


@contextmanager
def unfused_sessions():
    """Within the block, every lowering (and so every
    :class:`~repro.session.FusionSession`) gives the unfused reference
    plan."""
    lower = Planner.lower
    with mock.patch.object(Planner, "lower",
                           lambda self, *args: unfuse(lower(self, *args))):
        yield

"""Declarative network construction (:class:`repro.net.Testbed`).

The experiments' answer to hand-wired topology blocks: declare hosts,
switches, links and VC paths; ``build(sim)`` realises them in a
deterministic order and hands back the live objects by name as a
:class:`Scenario`, which scenario builders also hand to their
measurement (and to ``repro trace``).  See ``docs/SCALE.md`` for the
before/after.
"""

from repro.net.testbed import Scenario, Testbed

__all__ = ["Scenario", "Testbed"]

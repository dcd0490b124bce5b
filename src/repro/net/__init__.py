"""Declarative network construction (:class:`repro.net.Testbed`).

The experiments' answer to hand-wired topology blocks: declare hosts,
switches, links and VC paths; ``build(sim)`` realises them in a
deterministic order and hands back the live objects by name.  Scenario
builders hand their wired parts to the measurement (and to ``repro
trace``) as a :class:`ScenarioHandle`.  See ``docs/SCALE.md`` for the
before/after.
"""

from repro.net.testbed import Scenario, ScenarioHandle, Testbed

__all__ = ["Scenario", "ScenarioHandle", "Testbed"]

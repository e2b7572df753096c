"""Distributed fault injection: global policies and the campaign fabric.

Two layers live here.

**Distributed triggers (§3.2, §7.3).**  A central controller with a global
view of a distributed system decides whether the distributed triggers
installed on individual nodes should fire.  The policies are the ones the
paper's PBFT experiments need: uniform packet loss, silencing one replica,
and the rotating 500-fault DoS attack.  :class:`CentralController` is
thread-safe — thread-pooled PBFT campaigns consult it concurrently.

**The campaign fabric (``repro-campaignd``).**  Fault-space exploration as
a long-running sharded service: a resident coordinator daemon
(:class:`~repro.distributed.campaignd.CampaignCoordinator`) accepts
campaign submissions over a line-oriented JSON wire protocol
(:mod:`~repro.distributed.protocol`, reference in ``doc/PROTOCOL.md``),
shards each campaign's deterministic schedule across worker nodes
(:class:`~repro.distributed.worker.CampaignWorker` — each wrapping the
local executor pools and boot-template caches), streams results back to
clients incrementally (:class:`~repro.distributed.client.CampaignClient`),
and checkpoints every completed run in the campaign's JSON-lines
:class:`~repro.core.exploration.store.ResultStore` *before* acknowledging
it — so a killed worker merely forfeits its lease, and a killed
coordinator resumes by resubmission against the same store.  Because
schedules, seeds, and records are pure functions of the campaign spec
(see :mod:`~repro.distributed.spec`), a multi-worker campaign's merged
results are bit-identical to a serial ``ExplorationEngine.explore`` run.

Run it::

    python -m repro.cli.campaignd serve --port 7070 &
    python -m repro.cli.campaignd worker --port 7070 &
    python -m repro.cli.campaign submit --port 7070 \\
        --target mini_git --store /tmp/git.jsonl --seed 7 --wait
"""

from repro.distributed.central_controller import (
    CentralController,
    PacketLossPolicy,
    Policy,
    RotatingAttackPolicy,
    SilenceNodePolicy,
)
from repro.distributed.campaignd import CampaignCoordinator
from repro.distributed.client import CampaignClient, CampaignServerError
from repro.distributed.spec import (
    CampaignSpec,
    build_engine,
    execution_key,
    spec_fingerprint,
)
from repro.distributed.worker import CampaignWorker

__all__ = [
    "CampaignClient",
    "CampaignCoordinator",
    "CampaignServerError",
    "CampaignSpec",
    "CampaignWorker",
    "CentralController",
    "PacketLossPolicy",
    "Policy",
    "RotatingAttackPolicy",
    "SilenceNodePolicy",
    "build_engine",
    "execution_key",
    "spec_fingerprint",
]

"""Shared test harness: a tiny two-stage pipeline on one or two ECUs.

Builds the minimal world the monitor tests need:

- ``producer`` node publishing topic ``a`` periodically,
- ``worker`` node subscribing to ``a``, computing for a controllable
  duration, then publishing topic ``b``,
- ``sink`` node subscribing to ``b``.

The local segment under test is receive(a)@worker -> publication(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core import (
    EventChain,
    EventKind,
    MKConstraint,
    MonitorThread,
    LocalSegmentRuntime,
)
from repro.core.segments import local_segment, remote_segment
from repro.dds import DdsDomain, Topic
from repro.network import JitterModel, Link, NetworkStack
from repro.ros import Node
from repro.sim import Compute, Ecu, Simulator, msec, usec


@dataclass
class Message:
    """Payload carrying the chain activation index end-to-end."""

    frame_index: int
    value: object = None
    size: int = 1000


def message_topic(name: str) -> Topic:
    return Topic(name, type_name="Message", size_fn=lambda m: m.size)


def activation_of(sample) -> Optional[int]:
    data = sample.data
    return getattr(data, "frame_index", None)


class PipelineWorld:
    """One-ECU pipeline with a monitored local segment."""

    def __init__(
        self,
        seed: int = 1,
        n_cores: int = 2,
        period: int = msec(100),
        d_mon: int = msec(20),
        worker_time: Callable[[int], int] = lambda i: msec(5),
        handler=None,
        mk: MKConstraint = MKConstraint(1, 5),
        sim_cls: type = Simulator,
    ):
        self.sim = sim_cls(seed=seed)
        self.ecu = Ecu(self.sim, "ecu1", n_cores=n_cores)
        self.domain = DdsDomain(self.sim, local_latency=usec(20))
        self.period = period
        self.topic_a = message_topic("a")
        self.topic_b = message_topic("b")

        self.producer = Node(self.domain, self.ecu, "producer", priority=40)
        self.worker = Node(self.domain, self.ecu, "worker", priority=30)
        self.sink = Node(self.domain, self.ecu, "sink", priority=20)

        self.pub_a = self.producer.create_publisher(self.topic_a)
        self.pub_b = self.worker.create_publisher(self.topic_b)
        self.worker_time = worker_time
        self.sink_received: List[tuple] = []

        def worker_cb(sample):
            duration = self.worker_time(sample.data.frame_index)
            yield Compute(duration)
            self.pub_b.publish(Message(frame_index=sample.data.frame_index, value="out"))

        self.worker_sub = self.worker.create_subscription(self.topic_a, worker_cb)
        self.sink.create_subscription(
            self.topic_b,
            lambda s: self.sink_received.append(
                (s.data.frame_index, self.sim.now, s.recovered)
            ),
        )

        # Segment + monitor.
        self.segment = local_segment(
            "seg_worker", "ecu1", "a", "b", d_mon=d_mon
        )
        self.monitor = MonitorThread(self.ecu, priority=99)
        self.runtime = LocalSegmentRuntime(
            self.segment,
            handler=handler,
            mk=mk,
            activation_fn=activation_of,
        )
        self.monitor.add_segment(self.runtime)
        self.runtime.attach_start(self.worker_sub.reader)
        self.runtime.attach_end_writer(self.pub_b.writer)

        self.chain = EventChain(
            name="test_chain",
            segments=[self.segment],
            period=period,
            budget_e2e=d_mon + msec(10),
            budget_seg=period,
            mk=mk,
        )
        from repro.core import ChainRuntime

        self.chain_runtime = ChainRuntime(self.chain)
        self.runtime.reporters.append(self.chain_runtime)

        self._frame = 0

    def publish_frames(self, count: int, period: Optional[int] = None) -> None:
        period = period or self.period
        for i in range(count):
            self.sim.schedule_at(
                msec(1) + i * period,
                lambda i=i: self.pub_a.publish(Message(frame_index=i)),
            )

    def run(self, until: int) -> None:
        self.sim.run(until=until)


def two_ecu_world(seed: int = 1, loss: float = 0.0, jitter: int = 0,
                  base_latency: int = usec(200)):
    """Two ECUs joined by links, with network stacks registered."""
    sim = Simulator(seed=seed)
    ecu1 = Ecu(sim, "ecu1", n_cores=2)
    ecu2 = Ecu(sim, "ecu2", n_cores=2)
    domain = DdsDomain(sim, local_latency=usec(20))
    domain.register_stack(ecu1, NetworkStack(ecu1, per_frame_cost=usec(10), per_byte_cost=0))
    domain.register_stack(ecu2, NetworkStack(ecu2, per_frame_cost=usec(10), per_byte_cost=0))
    jitter_model = JitterModel("uniform", jitter) if jitter else None
    domain.add_link(
        ecu1, ecu2,
        Link(sim, "e1->e2", base_latency=base_latency, loss_prob=loss,
             jitter=jitter_model, bandwidth_bps=1e12),
    )
    domain.add_link(
        ecu2, ecu1,
        Link(sim, "e2->e1", base_latency=base_latency, loss_prob=loss,
             bandwidth_bps=1e12),
    )
    return sim, ecu1, ecu2, domain

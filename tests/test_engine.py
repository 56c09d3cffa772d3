"""Unit tests for the discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from tests.event_engine import Delay, Engine, Recv, Send, Spawn


def run(*procs):
    engine = Engine()
    for node, proc in procs:
        engine.add_process(proc, node)
    return engine.run()


class TestDelay:
    def test_delays_accumulate(self):
        def proc():
            t = yield Delay(1.0)
            assert t == pytest.approx(1.0)
            t = yield Delay(2.5)
            assert t == pytest.approx(3.5)

        assert run((0, proc())) == pytest.approx(3.5)

    def test_zero_delay_is_free(self):
        def proc():
            for _ in range(1000):
                yield Delay(0.0)

        assert run((0, proc())) == 0.0

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Delay(-1.0)

    def test_nan_delay_raises(self):
        with pytest.raises(SimulationError):
            Delay(float("nan"))


class TestSendRecv:
    def test_message_arrives_after_transfer(self):
        times = {}

        def sender():
            yield Delay(1.0)
            yield Send(1, "m", transfer=0.5)

        def receiver():
            result = yield Recv(0, "m")
            times["arrival"] = float(result)

        run((0, sender()), (1, receiver()))
        assert times["arrival"] == pytest.approx(1.5)

    def test_recv_before_send_blocks(self):
        order = []

        def sender():
            yield Delay(2.0)
            order.append("send")
            yield Send(1, "m", transfer=0.0)

        def receiver():
            order.append("recv-posted")
            yield Recv(0, "m")
            order.append("recv-done")

        run((0, sender()), (1, receiver()))
        assert order == ["recv-posted", "send", "recv-done"]

    def test_send_before_recv_buffers(self):
        def sender():
            yield Send(1, "m", transfer=0.25)

        def receiver():
            yield Delay(5.0)
            result = yield Recv(0, "m")
            # Message waited in the mailbox; receiver sees its own time.
            assert float(result) == pytest.approx(5.0)

        run((0, sender()), (1, receiver()))

    def test_payload_delivery(self):
        got = []

        def sender():
            yield Send(1, "m", payload={"x": 42})

        def receiver():
            result = yield Recv(0, "m")
            got.append(result.payload)

        run((0, sender()), (1, receiver()))
        assert got == [{"x": 42}]

    def test_fifo_per_channel(self):
        got = []

        def sender():
            yield Send(1, "m", payload=1)
            yield Send(1, "m", payload=2)

        def receiver():
            a = yield Recv(0, "m")
            b = yield Recv(0, "m")
            got.extend([a.payload, b.payload])

        run((0, sender()), (1, receiver()))
        assert got == [1, 2]

    def test_tags_isolate_channels(self):
        got = []

        def sender():
            yield Send(1, "b", payload="B")
            yield Send(1, "a", payload="A")

        def receiver():
            a = yield Recv(0, "a")
            b = yield Recv(0, "b")
            got.extend([a.payload, b.payload])

        run((0, sender()), (1, receiver()))
        assert got == ["A", "B"]

    def test_negative_transfer_raises(self):
        with pytest.raises(SimulationError):
            Send(1, "m", transfer=-1.0)

    def test_deadlock_detected(self):
        def receiver():
            yield Recv(0, "never")

        with pytest.raises(SimulationError, match="deadlock"):
            run((1, receiver()))

    def test_double_recv_same_channel_raises(self):
        def r1():
            yield Recv(0, "m")

        def r2():
            yield Recv(0, "m")

        with pytest.raises(SimulationError):
            run((1, r1()), (1, r2()))


class TestSpawn:
    def test_spawned_process_runs(self):
        events = []

        def child():
            yield Delay(1.0)
            events.append("child-done")

        def parent():
            yield Spawn(child())
            yield Delay(0.5)
            events.append("parent-done")

        total = run((0, parent()))
        assert total == pytest.approx(1.0)
        assert set(events) == {"child-done", "parent-done"}


class TestDeterminism:
    def test_tie_break_by_insertion_order(self):
        order = []

        def proc(name):
            yield Delay(1.0)
            order.append(name)

        run((0, proc("a")), (1, proc("b")), (2, proc("c")))
        assert order == ["a", "b", "c"]

    def test_repeat_runs_identical(self):
        def make():
            def sender():
                for i in range(5):
                    yield Delay(0.1)
                    yield Send(1, f"m{i}", transfer=0.05)

            def receiver():
                for i in range(5):
                    yield Recv(0, f"m{i}")
                    yield Delay(0.01)

            return [(0, sender()), (1, receiver())]

        assert run(*make()) == run(*make())


class TestEngineSemantics:
    """Regression pins for semantics the hot-loop rewrite must keep."""

    def test_equal_time_events_dispatch_in_insertion_sequence(self):
        # Ties created mid-run (not just at setup) also break by the
        # order the events were pushed.
        order = []

        def proc(name, lead):
            yield Delay(lead)  # stagger the *pushes* of the tied event
            yield Delay(1.0 - lead)  # ...which all fire at t == 1.0
            order.append(name)

        run((0, proc("a", 0.00)), (1, proc("b", 0.25)), (2, proc("c", 0.50)))
        assert order == ["a", "b", "c"]

    def test_deadlock_message_names_blocked_channels(self):
        def receiver():
            yield Recv(3, "halo")

        with pytest.raises(
            SimulationError, match=r"deadlock: receivers blocked on node7<-node3:halo"
        ):
            run((7, receiver()))

    def test_send_wakes_waiter_at_delivery_time(self):
        # A blocked receiver resumes at the *delivery* time (send time
        # plus transfer), never earlier.
        times = {}

        def sender():
            yield Delay(1.0)
            yield Send(1, "m", transfer=2.0)
            yield Delay(0.0)

        def receiver():
            result = yield Recv(0, "m")
            times["resume"] = float(result)

        run((0, sender()), (1, receiver()))
        assert times["resume"] == pytest.approx(3.0)

    def test_send_wakes_waiter_immediately_with_zero_transfer(self):
        times = {}

        def sender():
            yield Delay(1.5)
            yield Send(1, "m", transfer=0.0)

        def receiver():
            result = yield Recv(0, "m")
            times["resume"] = float(result)

        run((0, sender()), (1, receiver()))
        assert times["resume"] == pytest.approx(1.5)

    def test_spawn_inherits_parent_node(self):
        # The child's sends must originate from the parent's node: a
        # receiver listening for node 2 gets the child's message.
        got = []

        def child():
            yield Delay(0.5)
            yield Send(0, "from-child", payload="hi")

        def parent():
            yield Spawn(child())
            yield Delay(0.1)

        def receiver():
            result = yield Recv(2, "from-child")
            got.append(result.payload)

        engine = Engine()
        pid_parent = engine.add_process(parent(), node=2)
        engine.add_process(receiver(), node=0)
        engine.run()
        assert got == ["hi"]
        # And the bookkeeping agrees: the spawned pid maps to node 2.
        spawned = max(engine._pid_node)
        assert spawned != pid_parent
        assert engine._pid_node[spawned] == 2

    def test_request_subclasses_still_dispatch(self):
        # The type-keyed dispatch table admits subclasses lazily.
        class SlowDelay(Delay):
            pass

        def proc():
            t = yield SlowDelay(2.0)
            assert t == pytest.approx(2.0)

        assert run((0, proc())) == pytest.approx(2.0)

    def test_generator_started_once_per_pid(self):
        # The per-pid started flag must not re-prime a generator that
        # already ran: the first resume returns the engine time, later
        # resumes return updated times.
        seen = []

        def proc():
            t = yield Delay(1.0)
            seen.append(t)
            t = yield Delay(1.0)
            seen.append(t)

        run((0, proc()))
        assert seen == [pytest.approx(1.0), pytest.approx(2.0)]


class TestEngineMisc:
    def test_empty_engine_returns_zero(self):
        assert Engine().run() == 0.0

    def test_finish_time_is_max_over_processes(self):
        def fast():
            yield Delay(1.0)

        def slow():
            yield Delay(3.0)

        assert run((0, fast()), (1, slow())) == pytest.approx(3.0)

    def test_unknown_request_raises(self):
        def proc():
            yield "not-a-request"

        with pytest.raises(SimulationError, match="unknown request"):
            run((0, proc()))

    def test_trace_hook_sees_requests(self):
        seen = []
        engine = Engine(trace_hook=lambda t, pid, req: seen.append(type(req)))

        def proc():
            yield Delay(1.0)
            yield Send(0, "m")

        engine.add_process(proc(), node=0)
        engine.run()
        assert Delay in seen and Send in seen

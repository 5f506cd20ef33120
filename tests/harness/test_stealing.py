"""Tests for the shard pool's queue dispatch (work stealing from one
shared queue).

Exercises :class:`ShardPool`'s multi-worker path over a thread executor
and over a real process pool: a straggler never strands the items behind
it, the submission-order reply contract under adversarial completion
orders, and the retry/timeout paths with their interplay with
``on_complete`` ordering.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.harness.parallel_runner import ShardPool, SweepError


# Module-level workers so the real ProcessPoolExecutor can pickle them.

def _sleepy_worker(payload):
    time.sleep(payload["sleep_s"])
    if payload["fail_first"] and payload["attempt"] == 0:
        raise RuntimeError("injected fault")
    return {"item": payload["item"], "attempt": payload["attempt"]}


def _payload_for(slow=(), fail_first=(), slow_s=0.4):
    def build(item, attempt):
        sleep_s = slow_s if (item in slow and attempt == 0) else 0.0
        return {"item": item, "attempt": attempt, "sleep_s": sleep_s,
                "fail_first": item in fail_first}
    return build


@pytest.fixture
def threads():
    with ThreadPoolExecutor(max_workers=4) as pool:
        yield pool


# --------------------------------------------------------------- stragglers

class TestQueueDispatch:
    def test_straggler_does_not_strand_later_items(self, threads):
        """A slow item 0 holds one worker while the other takes items 1-5
        off the queue; a contiguous split ([0, 1, 2], [3, 4, 5]) would
        leave 1 and 2 waiting behind 0."""
        pool = ShardPool(jobs=2, worker=_sleepy_worker)
        completions = []
        replies = pool.map(
            list(range(6)), payload=_payload_for(slow=(0,), slow_s=0.5),
            on_complete=lambda i, item, reply: completions.append(item),
            executor=threads)
        assert completions == [1, 2, 3, 4, 5, 0]
        assert [reply["item"] for reply in replies] == list(range(6))


# ------------------------------------------------------------ determinism

class TestSubmissionOrderContract:
    def test_replies_fold_in_submission_order(self, threads):
        """Later items complete first; the reply list must not care."""
        pool = ShardPool(jobs=4, worker=_sleepy_worker)
        completions = []
        replies = pool.map(
            [0, 1, 2, 3],
            payload=_payload_for(slow=(0, 1), slow_s=0.2),
            on_complete=lambda i, item, reply: completions.append(item),
            executor=threads)
        assert [reply["item"] for reply in replies] == [0, 1, 2, 3]
        # ...even though the fast items finished before the slow ones.
        assert completions.index(2) < completions.index(0)

    def test_retry_preserves_submission_order_folding(self, threads):
        """A retried shard re-enters mid-sweep; replies stay in
        submission order and its reply reflects the succeeding attempt."""
        pool = ShardPool(jobs=2, worker=_sleepy_worker, retries=1)
        retried, completions = [], []
        replies = pool.map(
            [0, 1, 2],
            payload=_payload_for(fail_first=(0,), slow=(0,), slow_s=0.2),
            on_retry=lambda item, attempt, reason: retried.append(item),
            on_complete=lambda i, item, reply: completions.append(i),
            executor=threads)
        assert [reply["item"] for reply in replies] == [0, 1, 2]
        assert replies[0]["attempt"] == 1     # the retry's reply won
        assert replies[1]["attempt"] == 0
        assert retried == [0]
        assert sorted(completions) == [0, 1, 2]
        assert completions[-1] == 0           # retried shard landed last

    def test_exhausted_retries_raise_sweep_error(self, threads):
        pool = ShardPool(jobs=2, worker=_sleepy_worker, retries=0)
        with pytest.raises(SweepError, match="shard-0.*injected fault"):
            pool.map([0, 1],
                     payload=_payload_for(fail_first=(0,)),
                     describe=lambda item: f"shard-{item}",
                     executor=threads)

    def test_timeout_then_retry_interplay(self, threads):
        """Satellite: a timed-out shard is retried and its late reply is
        discarded; on_complete still sees every item exactly once."""
        pool = ShardPool(jobs=2, worker=_sleepy_worker,
                                timeout_s=0.25, retries=1)
        timeouts, completions = [], []
        replies = pool.map(
            [0, 1],
            payload=_payload_for(slow=(0,), slow_s=1.0),
            on_timeout=lambda item, attempt: timeouts.append(item),
            on_complete=lambda i, item, reply: completions.append(item),
            executor=threads)
        assert timeouts == [0]
        assert sorted(completions) == [0, 1]
        assert [reply["item"] for reply in replies] == [0, 1]
        assert replies[0]["attempt"] == 1


class TestShardPoolFace:
    def test_process_pool_path_keeps_the_contract(self):
        """The same dispatch over a real process pool: retry and
        on_complete ordering must match."""
        pool = ShardPool(jobs=2, worker=_sleepy_worker, retries=1)
        completions = []
        replies = pool.map(
            [0, 1, 2],
            payload=_payload_for(fail_first=(0,), slow=(0,), slow_s=0.3),
            on_complete=lambda i, item, reply: completions.append(item))
        assert [reply["item"] for reply in replies] == [0, 1, 2]
        assert replies[0]["attempt"] == 1
        assert completions[-1] == 0


"""Unit tests for query building blocks, independent of the dataflow."""

import pytest

from repro.megaphone.operators import ApplicationContext
from repro.megaphone.api import Notificator
from repro.megaphone.bins import BinStore
from repro.nexmark.config import NexmarkConfig
from repro.nexmark.model import Auction, Bid
from repro.nexmark.queries import q1, q5, q7
from repro.nexmark.queries.common import ClosedAuction, closed_auctions_fold


def bid(auction=1, price=100, t=0, bidder=7):
    return Bid(auction=auction, bidder=bidder, price=price, date_time=t)


def auction(id=1, t=0, expires=100, seller=3, reserve=1, category=2):
    return Auction(
        id=id, item_name=f"item-{id}", initial_bid=10, reserve=reserve,
        date_time=t, expires=expires, seller=seller, category=category,
    )


def make_app(time=0, state=None, entries=()):
    store = BinStore(num_bins=1, state_factory=dict)
    bin_ = store.create(0)
    if state is not None:
        bin_.state = state
    return ApplicationContext(time, bin_, list(entries))


def test_q1_currency_conversion_is_exact_integer_math():
    converted = q1._convert(bid(price=1000))
    assert converted.price == 908
    assert converted.auction == 1
    # Conversion is deterministic and proportional.
    assert q1._convert(bid(price=2000)).price == 1816


def test_q5_bucket_alignment():
    assert q5._bucket(1234, 1000) == 1000
    assert q5._bucket(999, 1000) == 0
    assert q5._bucket(2000, 1000) == 2000


def test_q7_window_end():
    assert q7._window_end(0, 1000) == 1000
    assert q7._window_end(999, 1000) == 1000
    assert q7._window_end(1000, 1000) == 2000


def test_closed_auctions_fold_tracks_best_bid_and_closes():
    state = {}
    app = make_app(time=0, state=state)
    notificator = Notificator(app)
    a = auction(id=5, expires=50, reserve=20)
    out = closed_auctions_fold(0, [a], [], state, notificator)
    assert out == []
    assert app.scheduled == [(50, (0, ("close", 5)))]
    # Bids below expiry fold into the max.
    closed_auctions_fold(10, [], [bid(auction=5, price=30, t=10)], state, notificator)
    closed_auctions_fold(20, [], [bid(auction=5, price=25, t=20)], state, notificator)
    assert state[5][1] == 30
    # A bid at/after expiry is ignored.
    closed_auctions_fold(50, [], [bid(auction=5, price=99, t=50)], state, notificator)
    assert state[5][1] == 30
    # The close marker emits the winner and clears the entry.
    out = closed_auctions_fold(50, [("close", 5)], [], state, notificator)
    assert out == [
        ClosedAuction(auction=5, seller=3, category=2, price=30, expires=50)
    ]
    assert 5 not in state


def test_closed_auctions_fold_respects_reserve():
    state = {}
    app = make_app(time=0, state=state)
    notificator = Notificator(app)
    a = auction(id=9, expires=10, reserve=1000)
    closed_auctions_fold(0, [a], [bid(auction=9, price=500, t=0)], state, notificator)
    out = closed_auctions_fold(10, [("close", 9)], [], state, notificator)
    assert out == []  # reserve not met: no sale


def test_notificator_rejects_past_times():
    app = make_app(time=100)
    with pytest.raises(ValueError):
        Notificator(app).notify_at(99, "x")


def test_application_context_emit_accumulates():
    app = make_app()
    app.emit([1, 2])
    app.emit([3])
    assert app.outputs == [1, 2, 3]


def test_q5_megaphone_fold_window_semantics():
    cfg = NexmarkConfig(q5_window_ms=3000, q5_period_ms=1000)
    from repro.nexmark.queries.q5 import megaphone  # noqa: F401  (fold is nested)

    # Exercise the fold through its module-level pieces: counts buckets and
    # prunes outside the window.
    state = {}

    def fold(time, data):
        # Re-create the fold inline (mirrors q5.megaphone's fold closure).
        out = []
        for record in data:
            if isinstance(record, tuple):
                _, window_end = record
                state.get("flushes", set()).discard(window_end)
                horizon = window_end - cfg.q5_window_ms
                counts = state.get("counts", {})
                best = None
                for auction_id, buckets in list(counts.items()):
                    for b in [b for b in buckets if b < horizon]:
                        del buckets[b]
                    if not buckets:
                        del counts[auction_id]
                        continue
                    total = sum(n for b, n in buckets.items() if b < window_end)
                    if best is None or total > best[1]:
                        best = (auction_id, total)
                if best:
                    out.append((window_end,) + best)
            else:
                bucket = q5._bucket(record.date_time, cfg.q5_period_ms)
                counts = state.setdefault("counts", {})
                buckets = counts.setdefault(record.auction, {})
                buckets[bucket] = buckets.get(bucket, 0) + 1
        return out

    fold(0, [bid(auction=1, t=0), bid(auction=1, t=500), bid(auction=2, t=100)])
    out = fold(1000, [("flush", 1000)])
    assert out == [(1000, 1, 2)]
    # Far in the future: old buckets pruned away, nothing to report.
    out = fold(9000, [("flush", 9000)])
    assert out == []
    assert state["counts"] == {}

"""Event-stream operator tests (windowed counts, sessionization)."""

import datetime

import pytest

from webtext.functions.events import sessionize, windowed_counts


def _ev(eid, user, minutes, etype="click"):
    return {"event_id": eid, "user_id": user,
            "ts": datetime.datetime(2024, 1, 1) +
            datetime.timedelta(minutes=minutes),
            "event_type": etype, "value": 1.0, "props": ""}


def test_windowed_counts_tumbling_hours(ray_session):
    import ray.data

    rows = [_ev(1, 1, 5), _ev(2, 1, 25), _ev(3, 2, 65),
            _ev(4, 2, 70, "view")]
    out = windowed_counts(ray.data.from_items(rows)).take_all()
    got = {(r["event_type"], r["w"]): r["n"] for r in out}
    assert got == {
        ("click", "2024-01-01 00:00:00"): 2,
        ("click", "2024-01-01 01:00:00"): 1,
        ("view", "2024-01-01 01:00:00"): 1,
    }


def test_hopping_counts_overlapping_windows(ray_session):
    import ray.data

    from webtext.functions.events import hopping_counts

    # one event at minute 5: belongs to the 60-min windows starting at
    # -45, -30, -15, 0 (hop 15); one at minute 20 adds 15:00/-30/-15/0
    rows = [_ev(1, 1, 5), _ev(2, 1, 20, "view")]
    out = hopping_counts(ray.data.from_items(rows)).take_all()
    got = {(r["event_type"], r["w"]): r["n"] for r in out}
    assert got[("click", "2024-01-01 00:00:00")] == 1
    assert got[("click", "2023-12-31 23:15:00")] == 1
    assert got[("view", "2024-01-01 00:15:00")] == 1
    assert got[("view", "2023-12-31 23:30:00")] == 1
    # every event lands in exactly win/hop = 4 windows
    assert sum(n for (t, _), n in got.items() if t == "click") == 4
    assert sum(n for (t, _), n in got.items() if t == "view") == 4


def test_hopping_counts_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.functions.events import hopping_counts

    sf = "/root/testdata/sf0.001"
    got = sorted((r["event_type"], r["w"], r["n"]) for r in hopping_counts(
        ray.data.read_parquet(f"{sf}/events.parquet",
                              columns=["event_type", "ts"])).take_all())
    want = duckdb.sql(f"""
        SELECT event_type,
               strftime(time_bucket(INTERVAL 15 MINUTE, ts)
                        - to_minutes(15*j), '%Y-%m-%d %H:%M:%S') AS w,
               count(*)::BIGINT AS n
        FROM read_parquet('{sf}/events.parquet')
        CROSS JOIN generate_series(0,3) s(j)
        GROUP BY event_type, w ORDER BY 1, 2""").fetchall()
    assert got == [tuple(w) for w in want]


def test_sessionize_gap_semantics(ray_session):
    import ray.data

    rows = [
        _ev(1, 7, 0), _ev(2, 7, 10), _ev(3, 7, 50),   # gap 40 > 30 → split
        _ev(4, 7, 60),                                 # gap 10 → same
        _ev(5, 8, 0),                                  # single event user
    ]
    out = {r["user_id"]: r["n_sessions"]
           for r in sessionize(ray.data.from_items(rows)).take_all()}
    assert out == {7: 2, 8: 1}


def test_sessionize_deterministic_on_ts_ties(ray_session):
    import ray.data

    rows = [_ev(2, 9, 0), _ev(1, 9, 0), _ev(3, 9, 45)]
    out = sessionize(ray.data.from_items(rows)).take_all()
    assert out[0]["n_sessions"] == 2


def test_running_totals_semantics_and_negatives(ray_session):
    import ray.data

    from webtext.functions.events import running_totals

    rows = [
        dict(_ev(1, 5, 0), value=1.5),
        dict(_ev(2, 5, 10), value=-2.0),   # negative: sign-safe reset
        dict(_ev(3, 5, 20), value=0.25),
        dict(_ev(4, 6, 0), value=10.0),    # second user resets to own base
    ]
    got = {r["event_id"]: r["running_cents"]
           for r in running_totals(ray.data.from_items(rows)).take_all()}
    assert got == {1: 150, 2: -50, 3: -25, 4: 1000}


def test_running_totals_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.functions.events import running_totals

    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "value"])
    got = sorted((r["event_id"], r["user_id"], r["running_cents"])
                 for r in running_totals(ds.repartition(5)).take_all())
    want = duckdb.sql(f"""
        SELECT event_id, user_id,
               SUM(CAST(round(value*100) AS BIGINT)) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id) AS rc
        FROM read_parquet('{sf}/events.parquet')
        ORDER BY 1, 2""").fetchall()
    assert got == [tuple(w) for w in want]


def test_rolling_sums_bounded_window(ray_session):
    import ray.data

    from webtext.functions.events import rolling_sums

    rows = [dict(_ev(i, 5, i), value=float(i)) for i in range(1, 8)]
    rows.append(dict(_ev(99, 6, 0), value=3.0))  # other user isolated
    got = {r["event_id"]: r["roll_cents"]
           for r in rolling_sums(ray.data.from_items(rows),
                                 window_rows=3).take_all()}
    # window of 3 rows (2 preceding + current): 1, 1+2, 1+2+3, 2+3+4, ...
    assert got == {1: 100, 2: 300, 3: 600, 4: 900, 5: 1200, 6: 1500,
                   7: 1800, 99: 300}


def test_rolling_sums_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.functions.events import rolling_sums

    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/events.parquet",
                               columns=["event_id", "user_id", "ts",
                                        "value"])
    got = sorted((r["event_id"], r["user_id"], r["roll_cents"])
                 for r in rolling_sums(ds.repartition(5)).take_all())
    want = duckdb.sql(f"""
        SELECT event_id, user_id,
               SUM(CAST(round(value*100) AS BIGINT)) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS rc
        FROM read_parquet('{sf}/events.parquet')
        ORDER BY 1, 2""").fetchall()
    assert got == [tuple(w) for w in want]


# -- as-of join -------------------------------------------------------------

def test_asof_join_crafted_interleavings(ray_session):
    """Hand-built timeline exercising every as-of branch: inclusive
    boundary, tie on right_ts -> max right_id, key isolation, left
    before any right -> dropped, forward fill across many lefts."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import asof_join

    T = lambda s: dt.datetime(2024, 1, 1, 0, 0, s)
    left = ray.data.from_items([
        {"event_id": 1, "user_id": 10, "ts": T(5)},   # after r100 -> 100
        {"event_id": 2, "user_id": 10, "ts": T(10)},  # == r101 ts -> 101
        {"event_id": 3, "user_id": 10, "ts": T(30)},  # tie r102/r103 -> 103
        {"event_id": 4, "user_id": 20, "ts": T(1)},   # before any -> drop
        {"event_id": 5, "user_id": 20, "ts": T(50)},  # -> 200
        {"event_id": 6, "user_id": 30, "ts": T(50)},  # no rights -> drop
        {"event_id": 7, "user_id": 10, "ts": T(50)},  # fill persists -> 103
    ])
    right = ray.data.from_items([
        {"o_orderkey": 100, "o_custkey": 10, "o_orderdate": T(2)},
        {"o_orderkey": 101, "o_custkey": 10, "o_orderdate": T(10)},
        {"o_orderkey": 102, "o_custkey": 10, "o_orderdate": T(20)},
        {"o_orderkey": 103, "o_custkey": 10, "o_orderdate": T(20)},
        {"o_orderkey": 200, "o_custkey": 20, "o_orderdate": T(40)},
    ])
    got = {r["event_id"]: r["o_orderkey"]
           for r in asof_join(left, right).take_all()}
    assert got == {1: 100, 2: 101, 3: 103, 5: 200, 7: 103}


def test_asof_join_matches_duckdb(ray_session):
    """Cross-check against the SQL oracle on the real tables."""
    import duckdb
    import ray.data

    from webtext.functions.events import asof_join

    sf = "/root/testdata/sf0.001"
    got = sorted((r["event_id"], r["o_orderkey"]) for r in asof_join(
        ray.data.read_parquet(f"{sf}/events.parquet",
                              columns=["event_id", "user_id", "ts"]),
        ray.data.read_parquet(f"{sf}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_orderdate"])).take_all())
    want = duckdb.sql(f"""
        SELECT event_id, o_orderkey FROM (
          SELECT e.event_id, o.o_orderkey,
            row_number() OVER (PARTITION BY e.event_id
              ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
          FROM read_parquet('{sf}/events.parquet') e
          JOIN read_parquet('{sf}/orders.parquet') o
            ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        ) t WHERE rn = 1 ORDER BY event_id""").fetchall()
    assert got == [tuple(w) for w in want]


def test_range_join_matches_duckdb(ray_session):
    import duckdb

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    got = sorted(
        (r["view_id"], r["user_id"], r["purchase_id"], r["delta_us"])
        for r in entrymod.queries()["range_join"](sf).take_all())
    want = duckdb.sql(f"""
        SELECT a.event_id, a.user_id, b.event_id,
               (epoch_us(b.ts) - epoch_us(a.ts))::BIGINT
        FROM read_parquet('{sf}/events.parquet') a
        JOIN read_parquet('{sf}/events.parquet') b
          ON a.user_id = b.user_id
         AND a.event_type = 'view' AND b.event_type = 'purchase'
         AND b.ts >= a.ts AND b.ts < a.ts + INTERVAL 1 DAY
        ORDER BY 1, 2, 3""").fetchall()
    assert got == [tuple(w) for w in want]
    assert got  # non-trivial at sf0.001


def test_asof_join_invariant_under_repartition(ray_session):
    import ray.data

    from webtext.functions.events import asof_join

    sf = "/root/testdata/sf0.001"
    le = ray.data.read_parquet(f"{sf}/events.parquet",
                               columns=["event_id", "user_id", "ts"])
    ri = ray.data.read_parquet(f"{sf}/orders.parquet",
                               columns=["o_orderkey", "o_custkey",
                                        "o_orderdate"])
    a = sorted((r["event_id"], r["o_orderkey"])
               for r in asof_join(le, ri).take_all())
    b = sorted((r["event_id"], r["o_orderkey"])
               for r in asof_join(le.repartition(7),
                                  ri.repartition(3)).take_all())
    assert a == b


def test_distinct_users_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.functions.events import distinct_users

    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/events.parquet",
                               columns=["event_type", "user_id"])
    got = sorted((r["event_type"], r["n_users"])
                 for r in distinct_users(ds.repartition(6)).take_all())
    want = duckdb.sql(f"""
        SELECT event_type, count(DISTINCT user_id)::BIGINT
        FROM read_parquet('{sf}/events.parquet')
        GROUP BY 1 ORDER BY 1""").fetchall()
    assert got == [tuple(w) for w in want] and got


def test_pivot_events_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.functions.events import pivot_events

    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/events.parquet",
                               columns=["ts", "event_type"])
    rows = pivot_events(ds).take_all()
    got = sorted((r["day"], r["n_click"], r["n_error"], r["n_purchase"],
                  r["n_signup"], r["n_view"]) for r in rows)
    want = duckdb.sql(f"""
        SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
               sum(CASE WHEN event_type='click' THEN 1 ELSE 0 END)::BIGINT,
               sum(CASE WHEN event_type='error' THEN 1 ELSE 0 END)::BIGINT,
               sum(CASE WHEN event_type='purchase' THEN 1 ELSE 0 END)::BIGINT,
               sum(CASE WHEN event_type='signup' THEN 1 ELSE 0 END)::BIGINT,
               sum(CASE WHEN event_type='view' THEN 1 ELSE 0 END)::BIGINT
        FROM read_parquet('{sf}/events.parquet')
        GROUP BY 1 ORDER BY 1""").fetchall()
    assert got == [tuple(w) for w in want] and got


def test_hll_distinct_accuracy_and_invariance(ray_session):
    import duckdb
    import ray.data

    from webtext.functions.sketches import hll_distinct

    sf = "/root/testdata/sf0.01"
    ds = ray.data.read_parquet(f"{sf}/events.parquet",
                               columns=["user_id"])
    est = hll_distinct(ds, "user_id").take_all()[0]["n_approx"]
    exact = duckdb.sql(f"""
        SELECT count(DISTINCT user_id)
        FROM read_parquet('{sf}/events.parquet')""").fetchone()[0]
    assert abs(est - exact) / exact < 0.02, (est, exact)
    # bit-identical under repartition (pure function of the value set)
    est2 = hll_distinct(ds.repartition(9),
                        "user_id").take_all()[0]["n_approx"]
    assert est2 == est


def test_hll_distinct_string_column(ray_session):
    import ray.data

    from webtext.functions.sketches import hll_distinct

    rows = [{"k": f"user-{i % 137}"} for i in range(4000)]
    est = hll_distinct(ray.data.from_items(rows), "k") \
        .take_all()[0]["n_approx"]
    # linear-counting regime: near-exact for 137 << 4096 registers
    assert abs(est - 137) <= 3, est


def test_hll_by_group_matches_per_group_single_sketch(ray_session):
    """Disjoint per-group user sets: each group's estimate must be
    bit-identical to hll_distinct run on that group's subset alone —
    catches any register leakage across groups."""
    import ray.data

    from webtext.functions.sketches import (hll_distinct,
                                            hll_distinct_by_group)

    rows = ([{"g": "a", "uid": i} for i in range(0, 900)]
            + [{"g": "b", "uid": i} for i in range(10_000, 10_300)]
            + [{"g": "c", "uid": 42}] * 50)
    ds = ray.data.from_items(rows)
    got = {r["g"]: r["n_approx"]
           for r in hll_distinct_by_group(ds, "g", "uid").take_all()}
    for g in ("a", "b", "c"):
        solo = hll_distinct(
            ds.filter(lambda r, _g=g: r["g"] == _g), "uid") \
            .take_all()[0]["n_approx"]
        assert got[g] == solo, (g, got[g], solo)
    assert abs(got["a"] - 900) / 900 < 0.05
    assert got["c"] == 1
    # partition-invariant like the global sketch
    got2 = {r["g"]: r["n_approx"] for r in hll_distinct_by_group(
        ds.repartition(7), "g", "uid").take_all()}
    assert got2 == got


def test_lag_deltas_drops_first_event_per_user(ray_session):
    import ray.data

    from webtext.functions.events import lag_deltas

    rows = [_ev(1, 5, 0), _ev(2, 5, 10), _ev(3, 5, 11),
            _ev(4, 6, 3)]  # user 6 has one event -> no output row
    got = {r["event_id"]: r["gap_us"]
           for r in lag_deltas(ray.data.from_items(rows)).take_all()}
    assert got == {2: 600_000_000, 3: 60_000_000}


@pytest.mark.parametrize("n_parts", [1, None])
def test_per_user_scans_over_partitions_without_rows(ray_session,
                                                     monkeypatch, n_parts):
    """running_totals, rolling_sums and lag_deltas run on the hash
    exchange: at P = 1 and at P forced to the CPU count, where most
    partitions of these two users' events hold no rows, every user's
    scan is exact."""
    import ray.data

    from webtext import exchange
    from webtext.functions.events import (lag_deltas, rolling_sums,
                                          running_totals)

    monkeypatch.setattr(exchange, "_size_parts",
                        lambda nbytes, cpus: n_parts or cpus)
    rows = [dict(_ev(i, 5, 10 * i), value=float(i)) for i in range(1, 5)]
    rows.append(dict(_ev(9, 6, 0), value=-2.5))
    ds = ray.data.from_items(rows, override_num_blocks=2)

    def by_id(out, col):
        assert out.num_blocks() == (n_parts or exchange._n_parts())
        return {r["event_id"]: r[col] for r in out.take_all()}

    assert by_id(running_totals(ds), "running_cents") \
        == {1: 100, 2: 300, 3: 600, 4: 1000, 9: -250}
    assert by_id(rolling_sums(ds, window_rows=2), "roll_cents") \
        == {1: 100, 2: 300, 3: 500, 4: 700, 9: -250}
    assert by_id(lag_deltas(ds), "gap_us") \
        == {2: 600_000_000, 3: 600_000_000, 4: 600_000_000}


def test_user_growth_cumulative(ray_session):
    import ray.data

    from webtext.functions.events import user_growth

    rows = [_ev(1, 1, 0), _ev(2, 1, 2000),       # user 1 day 0 (again d1)
            _ev(3, 2, 1500), _ev(4, 3, 1500),    # users 2,3 first on d1
            _ev(5, 4, 3000)]                     # user 4 first on d2
    out = sorted(user_growth(ray.data.from_items(rows)
                             .repartition(3)).take_all(),
                 key=lambda r: r["d"])
    assert [(r["new_users"], r["cum_users"]) for r in out] == \
        [(1, 1), (2, 3), (1, 4)]


def test_outlier_filter_strict_threshold(ray_session):
    import ray.data

    from webtext.pipelines.relational import outlier_filter

    rows = [dict(_ev(i, 1, i), value=float(i)) for i in range(1, 11)]
    rows += [dict(_ev(100, 1, 0, "view"), value=50.0),
             dict(_ev(101, 1, 1, "view"), value=60.0)]
    # click p95 over 1..10 (quantile_disc) = value at rank ceil(.95*10)-1
    # = index 9 -> 10.0; strictly greater -> nothing from clicks
    got = sorted(r["event_id"] for r in outlier_filter(
        ray.data.from_items(rows), q=0.5).take_all())
    # click p50 = 5.0 -> events 6..10 pass; view p50 = 50 -> 101 passes
    assert got == [6, 7, 8, 9, 10, 101]


def test_cms_estimates_exact_when_sparse(ray_session):
    import ray.data

    from webtext.functions.sketches import cms_token_estimates

    rows = [{"doc_id": 1, "text": "a a b"}, {"doc_id": 2, "text": "b c"}]
    got = {r["token"]: r["est_n"]
           for r in cms_token_estimates(
               ray.data.from_items(rows).repartition(2),
               k=3).to_pylist()}
    assert got == {"a": 2, "b": 2, "c": 1}


def test_cms_overestimates_under_forced_collisions(ray_session):
    """Width 1 forces every token into one cell per row: the estimate
    must be the total token count (the ≥-true-count CMS bound at its
    worst), never an undercount."""
    import ray.data

    from webtext.functions.sketches import cms_token_estimates

    rows = [{"doc_id": 1, "text": "x y z z"}]
    got = {r["token"]: r["est_n"]
           for r in cms_token_estimates(ray.data.from_items(rows),
                                        k=3, w=1).to_pylist()}
    assert all(v == 4 for v in got.values())


def test_ntile_sql_convention(ray_session):
    import ray.data

    from webtext.functions.events import ntile_events

    # user 5: 6 events over 4 tiles -> sizes 2,2,1,1 (first r=2 big)
    rows = [_ev(i, 5, i) for i in range(1, 7)]
    rows += [_ev(10, 6, 0), _ev(11, 6, 1)]   # 2 events -> tiles 1,2
    rows += [_ev(20, 7, 0)]                  # 1 event -> tile 1
    got = {r["event_id"]: r["tile"]
           for r in ntile_events(ray.data.from_items(rows),
                                 n_tiles=4).take_all()}
    assert got == {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4,
                   10: 1, 11: 2, 20: 1}


def test_dense_rank_tie_semantics(ray_session):
    import ray.data

    from webtext.functions.events import dense_rank_events

    events = ray.data.from_items([
        {"event_id": 1, "user_id": 7, "value": 1.00},
        {"event_id": 2, "user_id": 7, "value": 1.00},  # tie -> rank 1
        {"event_id": 3, "user_id": 7, "value": 5.00},  # rank 2, no gap
        {"event_id": 4, "user_id": 7, "value": 0.50},  # lowest -> 1...
        {"event_id": 5, "user_id": 9, "value": 99.0},  # other user
    ]).repartition(2)
    got = {r["event_id"]: r["dense_rank"]
           for r in dense_rank_events(events).take_all()}
    assert got == {4: 1, 1: 2, 2: 2, 3: 3, 5: 1}


def test_zscore_events_crafted(ray_session):
    import math

    import ray.data

    from webtext.functions.events import zscore_events

    events = ray.data.from_items([
        {"event_id": 1, "event_type": "a", "value": 1.0},
        {"event_id": 2, "event_type": "a", "value": 2.0},
        {"event_id": 3, "event_type": "a", "value": 3.0},
        {"event_id": 4, "event_type": "b", "value": 5.0},   # n=1 -> 0
        {"event_id": 5, "event_type": "c", "value": 7.0},   # zero var
        {"event_id": 6, "event_type": "c", "value": 7.0},
    ]).repartition(3)
    got = {r["event_id"]: r["z_micro"]
           for r in zscore_events(events).take_all()}
    # type a: mean 2, sample std 1 -> z = -1, 0, +1 (in micro units)
    assert got[1] == -1_000_000 and got[2] == 0 and got[3] == 1_000_000
    assert got[4] == 0 and got[5] == 0 and got[6] == 0
    assert math.isclose(got[1], -got[3])


def test_percent_rank_sql_convention(ray_session):
    import ray.data

    from webtext.functions.events import percent_rank_events

    events = ray.data.from_items([
        {"event_id": 1, "user_id": 7, "value": 1.00},
        {"event_id": 2, "user_id": 7, "value": 1.00},  # tie shares rank
        {"event_id": 3, "user_id": 7, "value": 5.00},
        {"event_id": 4, "user_id": 7, "value": 9.00},
        {"event_id": 5, "user_id": 9, "value": 99.0},  # n=1 -> 0
    ]).repartition(2)
    got = {r["event_id"]: r["pr_micro"]
           for r in percent_rank_events(events).take_all()}
    # user 7: ranks (1,1,3,4) of n=4 -> pr = 0, 0, 2/3, 1
    assert got[1] == 0 and got[2] == 0
    assert got[3] == 666_667          # floor(2/3 * 1e6 + 0.5)
    assert got[4] == 1_000_000
    assert got[5] == 0


def test_funnel_stages_strict_order_and_stalls(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.events import funnel_stages

    T = lambda m: dt.datetime(2026, 1, 1, 0, m)
    rows = [
        # u1 full funnel in order
        {"user_id": 1, "ts": T(0), "event_type": "view"},
        {"user_id": 1, "ts": T(1), "event_type": "click"},
        {"user_id": 1, "ts": T(2), "event_type": "purchase"},
        # u2 clicks BEFORE viewing: click must not count
        {"user_id": 2, "ts": T(0), "event_type": "click"},
        {"user_id": 2, "ts": T(1), "event_type": "view"},
        # u3 click at the SAME ts as view: strict > rejects it
        {"user_id": 3, "ts": T(0), "event_type": "view"},
        {"user_id": 3, "ts": T(0), "event_type": "click"},
        # u4 never views
        {"user_id": 4, "ts": T(0), "event_type": "error"},
        # u5 view→click, purchase precedes the click
        {"user_id": 5, "ts": T(0), "event_type": "purchase"},
        {"user_id": 5, "ts": T(1), "event_type": "view"},
        {"user_id": 5, "ts": T(2), "event_type": "click"},
    ]
    ds = ray.data.from_items(rows)
    got = {r["user_id"]: r["stage"]
           for r in funnel_stages(ds).take_all()}
    assert got == {1: 3, 2: 1, 3: 1, 4: 0, 5: 2}
    got2 = {r["user_id"]: r["stage"]
            for r in funnel_stages(ds.repartition(5)).take_all()}
    assert got2 == got


def test_retention_cohorts_triangle(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.events import retention_cohorts

    D = lambda d, h=0: dt.datetime(2026, 3, 1 + d, h)
    rows = [
        # u1 joins day 0, returns day 2 (twice in one day → one row)
        {"user_id": 1, "ts": D(0)}, {"user_id": 1, "ts": D(2)},
        {"user_id": 1, "ts": D(2, 5)},
        # u2 joins day 0 only
        {"user_id": 2, "ts": D(0, 8)},
        # u3 joins day 1, returns days 2 and 3
        {"user_id": 3, "ts": D(1)}, {"user_id": 3, "ts": D(2)},
        {"user_id": 3, "ts": D(3)},
    ]
    ds = ray.data.from_items(rows)
    got = {(r["cohort"], r["day_offset"]): r["n_users"]
           for r in retention_cohorts(ds).take_all()}
    assert got == {("2026-03-01", 0): 2, ("2026-03-01", 2): 1,
                   ("2026-03-02", 0): 1, ("2026-03-02", 1): 1,
                   ("2026-03-02", 2): 1}
    got2 = {(r["cohort"], r["day_offset"]): r["n_users"]
            for r in retention_cohorts(ds.repartition(4)).take_all()}
    assert got2 == got


def test_event_transitions_crafted(ray_session):
    """Per-user ordering, cross-user isolation, and the tie-break on
    (ts, event_id) all feed the transition counts."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import event_transitions

    T = lambda m: dt.datetime(2026, 1, 1, 0, m)
    rows = [
        # u1: a -> b -> b  (same ts for the two b's: event_id orders)
        {"event_id": 1, "user_id": 1, "ts": T(0), "event_type": "a"},
        {"event_id": 3, "user_id": 1, "ts": T(1), "event_type": "b"},
        {"event_id": 2, "user_id": 1, "ts": T(1), "event_type": "b"},
        # u2: b -> a ; u1's trailing b must NOT chain into u2's b
        {"event_id": 4, "user_id": 2, "ts": T(0), "event_type": "b"},
        {"event_id": 5, "user_id": 2, "ts": T(9), "event_type": "a"},
        # u3: single event -> no transition
        {"event_id": 6, "user_id": 3, "ts": T(0), "event_type": "a"},
    ]
    got = {(r["prev_type"], r["event_type"]): r["n"]
           for r in event_transitions(
               ray.data.from_items(rows).repartition(3),
               n_buckets=4).take_all()}
    assert got == {("a", "b"): 1, ("b", "b"): 1, ("b", "a"): 1}


def test_heavy_hitters_exact_with_collisions(ray_session):
    """Width 1 collides every token into one cell, so EVERY token
    becomes a candidate — the exact second pass must still drop the
    sub-threshold ones (no false positives survive)."""
    import ray.data

    from webtext.functions.sketches import heavy_hitters

    rows = [{"text": "a a a b"}, {"text": "a b c"}]
    got = {r["token"]: r["n"]
           for r in heavy_hitters(ray.data.from_items(rows)
                                  .repartition(2),
                                  threshold=2, w=1).take_all()}
    assert got == {"a": 4, "b": 2}


def test_props_field_stats_missing_and_negative(ray_session):
    import ray.data

    from webtext.functions.events import props_field_stats

    rows = [
        {"event_type": "a", "props": '{"k": 7}'},
        {"event_type": "a", "props": '{"k": -3}'},
        {"event_type": "a", "props": '{"x": 9}'},     # no k: not counted
        {"event_type": "b", "props": '{"k":  11}'},   # extra whitespace
    ]
    got = {r["event_type"]: (r["n_with_field"], r["field_sum"])
           for r in props_field_stats(
               ray.data.from_items(rows).repartition(2)).take_all()}
    assert got == {"a": (2, 4), "b": (1, 11)}


def test_active_spans_islands_and_durations(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.events import active_spans

    T = lambda m: (dt.datetime(2026, 1, 1)
                   + dt.timedelta(minutes=m))  # noqa: E731
    rows = [
        # user 1: two islands — [0, 10, 20] then (gap > 30m) [59, 64]
        {"event_id": 1, "user_id": 1, "ts": T(0)},
        {"event_id": 2, "user_id": 1, "ts": T(10)},
        {"event_id": 3, "user_id": 1, "ts": T(20)},
        {"event_id": 4, "user_id": 1, "ts": T(59)},
        {"event_id": 5, "user_id": 1, "ts": T(64)},
        # user 2: single event — one span, zero duration
        {"event_id": 6, "user_id": 2, "ts": T(5)},
    ]
    got = {r["user_id"]: (r["n_spans"], r["active_us"])
           for r in active_spans(
               ray.data.from_items(rows).repartition(3)).take_all()}
    us = 60 * 1_000_000
    assert got[1] == (2, 20 * us + 5 * us)
    assert got[2] == (1, 0)


def test_dd_quantiles_accuracy_and_invariance(ray_session):
    import numpy as np
    import ray.data

    from webtext.functions.sketches import dd_quantiles_by_group

    rng = np.random.RandomState(7)
    vals = np.round(rng.lognormal(3.0, 1.0, 4000), 2)
    rows = [{"event_type": "a" if i % 3 else "b", "value": float(v)}
            for i, v in enumerate(vals)]
    ds = ray.data.from_items(rows).repartition(5)
    got = {(r["grp"], r["q_pct"]): r["est_cents"]
           for r in dd_quantiles_by_group(ds).take_all()}
    for grp in ("a", "b"):
        sub = np.sort(np.floor(
            np.array([r["value"] for r in rows
                      if r["event_type"] == grp]) * 100 + 0.5))
        for q in (50, 95, 99):
            exact = sub[max(0, int(np.ceil(q / 100 * len(sub))) - 1)]
            rel = abs(got[(grp, q)] - exact) / exact
            assert rel <= 1.0 / 32, (grp, q, rel)  # ≤ 2x midpoint bound
    # pure function of the value multiset: blocking-invariant
    got2 = {(r["grp"], r["q_pct"]): r["est_cents"]
            for r in dd_quantiles_by_group(
                ray.data.from_items(rows).repartition(11)).take_all()}
    assert got2 == got


def test_dd_keys_zero_and_negative_values(ray_session):
    import numpy as np

    from webtext.functions.sketches import _dd_keys, _dd_rep_cents

    keys = _dd_keys(np.array([-5, 0, 1, 2, 3, 1 << 40], dtype=np.int64))
    assert keys[0] == -1 and keys[1] == -1        # reserved bucket
    assert keys[2] == 0                            # 1 -> octave 0, sub 0
    reps = _dd_rep_cents(keys)
    assert reps[0] == 0 and reps[1] == 0
    # representative within 1/(2*32) of the value
    v = np.array([1, 2, 3, 1 << 40], dtype=np.float64)
    assert (np.abs(reps[2:] - v) / v <= 1.0 / 32).all()


def test_mode_by_type_tie_breaks_to_smallest(ray_session):
    import ray.data

    from webtext.functions.events import mode_by_type

    rows = ([{"event_type": "a", "value": 2.0}] * 3
            + [{"event_type": "a", "value": 1.0}] * 3   # tie -> min
            + [{"event_type": "a", "value": 9.0}]
            + [{"event_type": "b", "value": 5.0}])
    got = {r["event_type"]: (r["mode_cents"], r["n"])
           for r in mode_by_type(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {"a": (100, 3), "b": (500, 1)}


def test_mad_by_group_crafted(ray_session):
    import ray.data

    from webtext.pipelines.relational import mad_by_group

    # group a: values 1..7 -> median 4.00, |dev| = 3,2,1,0,1,2,3 ->
    # sorted 0,1,1,2,2,3,3 -> rank ceil(.5*7)-1 = 3 -> MAD 200 cents
    rows = [{"event_type": "a", "value": float(v)}
            for v in range(1, 8)]
    rows += [{"event_type": "b", "value": 5.0}]   # single row -> 0
    got = {r["event_type"]: r["mad_cents"]
           for r in mad_by_group(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {"a": 200, "b": 0}


def test_latest_events_tie_breaks_to_largest_eid(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.events import latest_events

    T = lambda s: dt.datetime(2024, 1, 1, 0, 0, s)
    rows = [
        {"event_id": 1, "ts": T(5), "user_id": 7,
         "event_type": "a", "value": 1.0},
        {"event_id": 2, "ts": T(9), "user_id": 7,
         "event_type": "b", "value": 2.0},      # latest for user 7
        {"event_id": 3, "ts": T(9), "user_id": 8,
         "event_type": "c", "value": 3.0},
        {"event_id": 4, "ts": T(9), "user_id": 8,
         "event_type": "d", "value": 4.5},      # tie -> larger eid
    ]
    got = {r["user_id"]: (r["event_id"], r["event_type"], r["cents"])
           for r in latest_events(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {7: (2, "b", 200), 8: (4, "d", 450)}


def test_event_cooccurrence_distinct_users(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.events import event_cooccurrence

    # user 1: a,b (twice over -> still one user); user 2: a,b,c;
    # user 3: a only (no pair)
    rows = [{"user_id": 1, "event_type": "a"},
            {"user_id": 1, "event_type": "b"},
            {"user_id": 1, "event_type": "a"},
            {"user_id": 1, "event_type": "b"},
            {"user_id": 2, "event_type": "a"},
            {"user_id": 2, "event_type": "b"},
            {"user_id": 2, "event_type": "c"},
            {"user_id": 3, "event_type": "a"}]
    got = {(r["type_a"], r["type_b"]): r["n_users"]
           for r in event_cooccurrence(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1}


def test_late_line_priority_boundary(ray_session):
    import datetime as dt

    import ray.data

    from webtext.pipelines.tpch import late_line_priority

    D = lambda d: dt.datetime(2024, 1, d)
    orders = ray.data.from_items([
        {"o_orderkey": 1, "o_orderdate": D(1),
         "o_orderpriority": "1-URGENT"},
        {"o_orderkey": 2, "o_orderdate": D(1),
         "o_orderpriority": "5-LOW"},
    ])
    lineitem = ray.data.from_items([
        # exactly +60 days: NOT late (> is strict)
        {"l_orderkey": 1, "l_shipdate": dt.datetime(2024, 3, 1),
         "l_linestatus": "O"},
        # +61 days on a high-priority order
        {"l_orderkey": 1, "l_shipdate": dt.datetime(2024, 3, 2),
         "l_linestatus": "O"},
        # +61 days on a low-priority order, other status
        {"l_orderkey": 2, "l_shipdate": dt.datetime(2024, 3, 2),
         "l_linestatus": "F"},
        # orphan orderkey: dropped by the join
        {"l_orderkey": 9, "l_shipdate": dt.datetime(2024, 3, 2),
         "l_linestatus": "F"},
    ]).repartition(2)
    got = {r["l_linestatus"]: (r["high_line_count"],
                               r["low_line_count"])
           for r in late_line_priority(lineitem, orders).take_all()}
    assert got == {"O": (1, 0), "F": (0, 1)}


def test_robust_outliers_median_mad(ray_session):
    import ray.data

    from webtext.pipelines.relational import robust_outliers

    # group a: values 1,2,3,4,100 -> med=3, devs=2,1,0,1,97, mad=1,
    # flagged: dev > 3 -> only the 100 (dev 97)
    # group b: all equal -> mad=0, any deviation flags; one dev=1 row
    rows = [
        {"event_id": 1, "event_type": "a", "value": 0.01},
        {"event_id": 2, "event_type": "a", "value": 0.02},
        {"event_id": 3, "event_type": "a", "value": 0.03},
        {"event_id": 4, "event_type": "a", "value": 0.04},
        {"event_id": 5, "event_type": "a", "value": 1.00},
        {"event_id": 6, "event_type": "b", "value": 0.05},
        {"event_id": 7, "event_type": "b", "value": 0.05},
        {"event_id": 8, "event_type": "b", "value": 0.06},
    ]
    got = {r["event_id"]: (r["cents"], r["dev_cents"])
           for r in robust_outliers(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {5: (100, 97), 8: (6, 1)}


def test_ks_drift_exact_statistic(ray_session):
    import ray.data

    from webtext.functions.events import ks_drift

    # side 0 (even users): values 1,2,3; side 1 (odd): 3,4,5
    # sorted grid 1..5; Fa = 1/3,2/3,3/3,3/3,3/3; Fb = 0,0,1/3,2/3,1
    # D = max = 2/3 at v=2 -> 666666 micros
    rows = [
        {"user_id": 0, "value": 0.01}, {"user_id": 2, "value": 0.02},
        {"user_id": 4, "value": 0.03}, {"user_id": 1, "value": 0.03},
        {"user_id": 3, "value": 0.04}, {"user_id": 5, "value": 0.05},
    ]
    got = ks_drift(
        ray.data.from_items(rows).repartition(3)).to_pylist()
    assert got == [{"d_micro": 666666}]


def test_user_paths_order_and_ties(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.events import user_paths

    T = lambda s: dt.datetime(2024, 1, 1, 0, 0, s)
    rows = [
        {"user_id": 1, "ts": T(2), "event_id": 5, "event_type": "b"},
        {"user_id": 1, "ts": T(1), "event_id": 9, "event_type": "a"},
        # ts tie with eid 5: eid 4 sorts first
        {"user_id": 1, "ts": T(2), "event_id": 4, "event_type": "c"},
        {"user_id": 2, "ts": T(9), "event_id": 1, "event_type": "z"},
    ]
    got = {r["user_id"]: r["path"]
           for r in user_paths(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {1: "a>c>b", 2: "z"}


def test_ks_by_type_vs_rest(ray_session):
    import ray.data

    from webtext.functions.events import ks_by_type

    # type a: values 1,2; rest (b): 3,4 -> disjoint supports, D = 1
    rows = [
        {"event_type": "a", "value": 0.01},
        {"event_type": "a", "value": 0.02},
        {"event_type": "b", "value": 0.03},
        {"event_type": "b", "value": 0.04},
    ]
    got = {r["event_type"]: r["d_micro"]
           for r in ks_by_type(
               ray.data.from_items(rows).repartition(3)).to_pylist()}
    assert got == {"a": 1_000_000, "b": 1_000_000}


def test_conversion_latency_at_or_after(ray_session):
    import datetime as dt

    import ray.data

    from webtext.functions.events import conversion_latency

    T = lambda s: dt.datetime(2024, 1, 1, 0, 0, s)
    rows = [
        # user 1: purchase BEFORE signup ignored; next one counts
        {"user_id": 1, "ts": T(1), "event_type": "purchase"},
        {"user_id": 1, "ts": T(5), "event_type": "signup"},
        {"user_id": 1, "ts": T(9), "event_type": "purchase"},
        # user 2: signup but never purchases -> absent
        {"user_id": 2, "ts": T(3), "event_type": "signup"},
        # user 3: purchase exactly AT signup ts -> latency 0
        {"user_id": 3, "ts": T(4), "event_type": "signup"},
        {"user_id": 3, "ts": T(4), "event_type": "purchase"},
        # user 4: purchases but never signs up -> absent
        {"user_id": 4, "ts": T(2), "event_type": "purchase"},
    ]
    got = {r["user_id"]: r["latency_us"]
           for r in conversion_latency(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {1: 4_000_000, 3: 0}


def test_cusum_changepoints_crafted(ray_session):
    """A flat series shifted up mid-way: the changepoint is the last
    day of the low regime (prefix deviation peaks there), ties break
    to the earliest day, and the score matches the hand big-int
    |n*prefix_k - k*total| walk.  Block-split invariant."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import cusum_changepoints

    D = lambda d: dt.datetime(2026, 4, 1 + d)
    # type 'a': days 0-3 at 1.00, days 4-5 at 100.00 (cents 100/10000)
    rows = [{"event_type": "a", "ts": D(d),
             "value": 1.0 if d < 4 else 100.0} for d in range(6)]
    # type 'b': constant series -> every interior k scores equally,
    # earliest day wins
    rows += [{"event_type": "b", "ts": D(d), "value": 2.0}
             for d in range(3)]
    ds = ray.data.from_items(rows)
    got = {r["event_type"]: (r["cp_day"], r["score"])
           for r in cusum_changepoints(ds).to_pylist()}
    # a: daily cents [100,100,100,100,10000,10000], tot=20400, n=6
    # k=4: |6*400 - 4*20400| = 79200  (the max)
    assert got["a"] == ("2026-04-04", 79200)
    # b: cents [200,200,200] tot=600 n=3: k=1 |3*200-600|=0, all 0
    assert got["b"] == ("2026-04-01", 0)
    got2 = {r["event_type"]: (r["cp_day"], r["score"])
            for r in cusum_changepoints(ds.repartition(5)).to_pylist()}
    assert got2 == got


def test_top_event_trigrams_crafted(ray_session):
    """Trigrams never cross a user boundary, (ts, event_id) orders
    within a user, and the (n desc, trigram asc) tie-break is
    deterministic.  Block-split invariant."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import top_event_trigrams

    T = lambda m: dt.datetime(2026, 1, 1, 0, m)
    rows = [
        # u1: a b c d  -> a>b>c, b>c>d (the two c's tie on ts:
        # event_id 2 before 3)
        {"event_id": 1, "user_id": 1, "ts": T(0), "event_type": "a"},
        {"event_id": 2, "user_id": 1, "ts": T(1), "event_type": "b"},
        {"event_id": 3, "user_id": 1, "ts": T(1), "event_type": "c"},
        {"event_id": 4, "user_id": 1, "ts": T(2), "event_type": "d"},
        # u2: a b c -> a>b>c again (count 2)
        {"event_id": 5, "user_id": 2, "ts": T(0), "event_type": "a"},
        {"event_id": 6, "user_id": 2, "ts": T(1), "event_type": "b"},
        {"event_id": 7, "user_id": 2, "ts": T(2), "event_type": "c"},
        # u3: two events only -> no trigram
        {"event_id": 8, "user_id": 3, "ts": T(0), "event_type": "x"},
        {"event_id": 9, "user_id": 3, "ts": T(1), "event_type": "y"},
    ]
    ds = ray.data.from_items(rows)
    got = [(r["trigram"], r["n"])
           for r in top_event_trigrams(ds, k=10,
                                       n_buckets=4).take_all()]
    assert got == [("a>b>c", 2), ("b>c>d", 1)]
    got2 = [(r["trigram"], r["n"])
            for r in top_event_trigrams(ds.repartition(4), k=10,
                                        n_buckets=4).take_all()]
    assert got2 == got


def test_dow_profile_thursday_anchor(ray_session):
    """1970-01-01 is a Thursday (ISO dow 4); counts and exact cents
    totals aggregate per (type, dow) across blocks."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import dow_profile

    rows = [
        # 2026-01-05 is a Monday
        {"event_type": "a", "ts": dt.datetime(2026, 1, 5), "value": 1.5},
        {"event_type": "a", "ts": dt.datetime(2026, 1, 12), "value": 2.0},
        {"event_type": "a", "ts": dt.datetime(2026, 1, 11), "value": 4.0},  # Sunday
        {"event_type": "b", "ts": dt.datetime(1970, 1, 1), "value": 0.25},  # Thursday
    ]
    got = [(r["event_type"], r["dow"], r["n"], r["sum_cents"])
           for r in dow_profile(
               ray.data.from_items(rows).repartition(3)).take_all()]
    assert got == [("a", 1, 2, 350), ("a", 7, 1, 400),
                   ("b", 4, 1, 25)]


def test_volume_spikes_crafted(ray_session):
    """A day with a count far above the type's median daily count is
    flagged; normal days are not; exact integer median/MAD."""
    import datetime as dt

    import ray.data

    from webtext.pipelines.relational import volume_spikes

    rows = []
    # type 'a': 7 quiet days at 2 events, one day at 50
    eid = 0
    for d in range(7):
        for _ in range(2):
            rows.append({"event_type": "a",
                         "ts": dt.datetime(2026, 5, 1 + d), "value": 0})
    for _ in range(50):
        rows.append({"event_type": "a",
                     "ts": dt.datetime(2026, 5, 8), "value": 0})
    got = [(r["event_type"], r["day"], r["n"], r["dev_n"]) for r in
           volume_spikes(ray.data.from_items(rows).repartition(4))
           .take_all()]
    # median daily n = 2, MAD = 0 -> the 50-day deviates by 48 > 0
    assert got == [("a", "2026-05-08", 50, 48)]


def test_poisson_bootstrap_blocking_invariant(ray_session):
    """Replica multiplicities are content-addressed per (event_id,
    replica): the B replica sums are identical under any block layout,
    sizes hover near N, and sums stay near B x the true total."""
    import ray.data

    from webtext.functions.events import poisson_bootstrap

    rows = [{"event_id": i, "value": 1.0} for i in range(500)]
    a = poisson_bootstrap(ray.data.from_items(rows).repartition(1),
                          n_replicas=8).take_all()
    b = poisson_bootstrap(ray.data.from_items(rows).repartition(7),
                          n_replicas=8).take_all()
    assert a == b
    assert len(a) == 8
    for r in a:
        assert 350 < r["n"] < 650          # Poisson(1) around N=500
        assert r["sum_cents"] == 100 * r["n"]   # every value is 1.00


def test_attribution_split_crafted(ray_session):
    """First/last prior touch under (ts, event_id) tie order; same-ts
    smaller-id touches count as 'before'; no-touch conversions drop;
    user runs never leak into each other (the K-offset reset)."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import attribution_split

    T = lambda m: dt.datetime(2026, 1, 1, 0, m)
    rows = [
        # u1: view(1) view(2) purchase(3) view(4) purchase(5)
        {"event_id": 1, "user_id": 1, "ts": T(0),
         "event_type": "view", "value": 0.0},
        {"event_id": 2, "user_id": 1, "ts": T(1),
         "event_type": "view", "value": 0.0},
        {"event_id": 3, "user_id": 1, "ts": T(2),
         "event_type": "purchase", "value": 10.0},
        {"event_id": 4, "user_id": 1, "ts": T(3),
         "event_type": "view", "value": 0.0},
        {"event_id": 5, "user_id": 1, "ts": T(4),
         "event_type": "purchase", "value": 2.5},
        # u2: purchase with NO prior view -> dropped; a later view
        # must not attribute backwards
        {"event_id": 6, "user_id": 2, "ts": T(0),
         "event_type": "purchase", "value": 9.0},
        {"event_id": 7, "user_id": 2, "ts": T(1),
         "event_type": "view", "value": 0.0},
        # u3: view ties purchase's ts with smaller event_id -> counts
        {"event_id": 8, "user_id": 3, "ts": T(0),
         "event_type": "view", "value": 0.0},
        {"event_id": 9, "user_id": 3, "ts": T(0),
         "event_type": "purchase", "value": 1.0},
    ]
    for parts in (1, 4):
        got = sorted(
            (r["user_id"], r["convert_id"], r["first_touch_id"],
             r["last_touch_id"], r["cents"])
            for r in attribution_split(
                ray.data.from_items(rows).repartition(parts),
                n_buckets=4).take_all())
        assert got == [(1, 3, 1, 2, 1000), (1, 5, 1, 4, 250),
                       (3, 9, 8, 8, 100)]


def test_ltv_cohorts_crafted(ray_session):
    """Cohort = first-seen day over ANY type; offsets carry that day's
    exact purchase cents; non-purchase days still count the user as
    active with 0 cents.  Block-split invariant."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import ltv_cohorts

    D = lambda d, h=0: dt.datetime(2026, 6, 1 + d, h)
    rows = [
        # u1: signup day0 (cohort), purchase 2.50 day0, view day2,
        # purchase 1.00 day2 (same day as the view)
        {"user_id": 1, "ts": D(0), "event_type": "signup", "value": 0.0},
        {"user_id": 1, "ts": D(0, 5), "event_type": "purchase",
         "value": 2.5},
        {"user_id": 1, "ts": D(2), "event_type": "view", "value": 9.9},
        {"user_id": 1, "ts": D(2, 6), "event_type": "purchase",
         "value": 1.0},
        # u2: view-only day0 -> active, 0 cents
        {"user_id": 2, "ts": D(0), "event_type": "view", "value": 5.0},
    ]
    for parts in (1, 3):
        got = [(r["cohort"], r["day_offset"], r["n_users"],
                r["sum_cents"]) for r in ltv_cohorts(
               ray.data.from_items(rows).repartition(parts),
               n_buckets=4).take_all()]
        assert got == [("2026-06-01", 0, 2, 250),
                       ("2026-06-01", 2, 1, 100)]


def test_rfm_stats_crafted(ray_session):
    """Recency anchors to the corpus max purchase ts; frequency and
    cents count only the value type; no-purchase users emit nothing.
    Block-split invariant."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import rfm_stats

    D = lambda d: dt.datetime(2026, 7, 1 + d)
    rows = [
        {"user_id": 1, "ts": D(0), "event_type": "purchase",
         "value": 2.0},
        {"user_id": 1, "ts": D(3), "event_type": "purchase",
         "value": 1.5},
        {"user_id": 1, "ts": D(9), "event_type": "view", "value": 99.0},
        {"user_id": 2, "ts": D(9), "event_type": "purchase",
         "value": 0.25},                 # anchor = this ts
        {"user_id": 3, "ts": D(5), "event_type": "view", "value": 1.0},
    ]
    for parts in (1, 3):
        got = sorted(
            (r["user_id"], r["recency_days"], r["frequency"],
             r["monetary_cents"]) for r in rfm_stats(
                ray.data.from_items(rows).repartition(parts))
            .take_all())
        assert got == [(1, 6, 2, 350), (2, 0, 1, 25)]


def test_session_table_crafted(ray_session):
    """Breaks on >30-min gaps and on user changes; inclusive bounds;
    1-based per-user index; ties ordered by event_id.  Block-split
    invariant."""
    import datetime as dt

    import ray.data

    from webtext.functions.events import session_table

    T = lambda m: dt.datetime(2026, 1, 1, 0, 0) + dt.timedelta(minutes=m)
    E = lambda i, u, m: {"event_id": i, "user_id": u, "ts": T(m)}
    rows = [
        E(1, 1, 0), E(2, 1, 10),        # u1 session 1 (0-10)
        E(3, 1, 50),                    # 40-min gap -> session 2
        E(4, 2, 0),                     # u2 session 1
    ]
    want = [
        (1, 1, 0, 10 * 60_000_000, 2),
        (1, 2, 50 * 60_000_000, 50 * 60_000_000, 1),
        (2, 1, 0, 0, 1),
    ]
    base = int(T(0).timestamp() * 1_000_000)
    for parts in (1, 3):
        got = sorted(
            (r["user_id"], r["session_idx"], r["start_us"] - base,
             r["end_us"] - base, r["n_events"])
            for r in session_table(
                ray.data.from_items(rows).repartition(parts),
                n_buckets=4).take_all())
        assert got == want


def test_ab_test_summary_crafted(ray_session):
    """The md5 coin is content-addressed (block-invariant), distinct
    users count once per variant however many purchases they make, and
    cents-per-user floors in micros."""
    import hashlib

    import ray.data

    from webtext.functions.events import ab_test_summary

    def coin(u):
        return (int.from_bytes(
            hashlib.md5(f"{u}ab".encode()).digest()[:8], "little")
            & 0x7FFFFFFFFFFFFFFF) % 2

    rows = []
    for u in range(1, 9):
        rows.append({"user_id": u, "event_type": "purchase",
                     "value": 1.0})
        rows.append({"user_id": u, "event_type": "purchase",
                     "value": 0.5})
        rows.append({"user_id": u, "event_type": "view",
                     "value": 99.0})
    per_variant = {0: 0, 1: 0}
    for u in range(1, 9):
        per_variant[coin(u)] += 1
    for parts in (1, 4):
        got = {r["variant"]: r for r in ab_test_summary(
            ray.data.from_items(rows).repartition(parts)).to_pylist()}
        for v in (0, 1):
            if per_variant[v] == 0:
                assert v not in got
                continue
            assert got[v]["n_users"] == per_variant[v]
            assert got[v]["n_events"] == 2 * per_variant[v]
            assert got[v]["sum_cents"] == 150 * per_variant[v]
            assert got[v]["cents_per_user_micro"] == 150_000_000

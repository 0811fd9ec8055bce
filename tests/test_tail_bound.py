"""Claim 5 as a bound: how much tail a plain object keeps.

Section 4.1 trims the last segment "at the end of these multi-append
operations".  A plain ``op_append``, an ``op_insert`` at the end and a
hint-less ``op_create`` end with that trim down to T - 1 spare pages (T
is the object's threshold); insert and delete trim to 0 first.  So after
every plain op, an object's leaf pages exceed the pages its bytes need
by at most T - 1, the bound a versioned append keeps as its reservation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EOSConfig, EOSDatabase
from repro.obs.health import collect_volume_health
from repro.tools.fsck import fsck
from repro.util.bitops import ceil_div
from repro.workloads.aging import AgingWorkload

PAGE = 128


def spare_pages(db: EOSDatabase, oid: int) -> int:
    """Leaf pages minus the pages the object's bytes need."""
    return sum(
        entry.pages - ceil_div(entry.count, db.config.page_size)
        for _, entry in db.get_object(oid).segments()
    )


def payload(data, label: str) -> bytes:
    n = data.draw(
        st.integers(1, 40 * PAGE) | st.integers(1, PAGE) | st.just(PAGE),
        label=label,
    )
    return bytes([n % 251 + 1]) * n


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_plain_op_leaves_at_most_t_minus_1_spare_pages(data):
    threshold = data.draw(st.sampled_from([1, 2, 4, 8]), label="T")
    db = EOSDatabase.create(
        3000, PAGE, config=EOSConfig(page_size=PAGE, threshold=threshold)
    )
    model: dict[int, bytearray] = {}
    for _ in range(data.draw(st.integers(1, 14), label="steps")):
        ops = ["create", "create hinted"]
        if model:
            ops += ["append", "insert at end", "insert", "delete", "write"]
        op = data.draw(st.sampled_from(ops), label="op")
        if op.startswith("create"):
            content = payload(data, "create")
            # The paper's known eventual size: a hint at most the bytes
            # given (a larger one reserves the rest on purpose).
            hint = None
            if op == "create hinted":
                hint = data.draw(st.integers(1, len(content)), label="hint")
            oid = db.op_create(content, size_hint=hint)
            model[oid] = bytearray(content)
        else:
            oid = data.draw(st.sampled_from(sorted(model)), label="oid")
            mirror = model[oid]
            if not mirror and op in ("insert", "delete", "write"):
                op = "append"  # a delete can empty an object: no byte to name
            if op in ("append", "insert at end"):
                content = payload(data, "append")
                if op == "append":
                    db.op_append(oid, content)
                else:
                    db.op_insert(oid, content, offset=len(mirror))
                mirror.extend(content)
            elif op == "insert":
                at = data.draw(st.integers(0, len(mirror) - 1), label="at")
                content = payload(data, "insert")
                db.op_insert(oid, content, offset=at)
                mirror[at:at] = content
            elif op == "delete":
                at = data.draw(st.integers(0, len(mirror) - 1), label="at")
                n = data.draw(st.integers(1, len(mirror) - at), label="n")
                db.op_delete(oid, offset=at, length=n)
                del mirror[at : at + n]
            else:
                at = data.draw(st.integers(0, len(mirror) - 1), label="at")
                n = data.draw(st.integers(1, len(mirror) - at), label="n")
                db.op_write(oid, b"w" * n, offset=at)
                mirror[at : at + n] = b"w" * n
        for oid, mirror in model.items():
            assert spare_pages(db, oid) <= threshold - 1, (op, oid)
            assert db.op_read(oid, offset=0, length=len(mirror)) == mirror
        report = fsck(db, expect_no_leaks=True)
        assert report.clean, report.summary()


def test_an_aged_plain_volume_keeps_the_bound():
    """Create/append/delete churn (the aged benchmark volume's history,
    scaled down): every survivor ends each day within T - 1 spare
    pages, and the health rollup agrees."""
    threshold = 8
    db = EOSDatabase.create(
        6000, 1024, config=EOSConfig(page_size=1024, threshold=threshold)
    )
    aging = AgingWorkload(db, mix="small", seed=3, target_utilization=0.7)
    aging.build()
    for _ in range(6):
        aging.run_epoch(150)
        spares = {oid: spare_pages(db, oid) for oid in aging.live_oids()}
        assert max(spares.values()) <= threshold - 1
        health = collect_volume_health(db, max_objects=None)
        assert health.spare_pages == sum(spares.values())
        assert health.spare_pages <= (threshold - 1) * len(spares)
    assert aging.appended > 0
    report = fsck(db, expect_no_leaks=True)
    assert report.clean, report.summary()

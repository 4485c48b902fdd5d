import pytest

from perfbench.workloads import (
    BATCH,
    COMMENT,
    REMARK,
    VOTE,
    WORKLOADS,
    Model,
    StreamGenerator,
    build_catalogue,
)


def stream(name: str, seed: int, count: int) -> list:
    workload = WORKLOADS[name]
    generator = StreamGenerator(workload, build_catalogue(workload, seed), seed)
    return [generator.next_op().key() for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_stream(name):
    assert stream(name, 7, 3000) == stream(name, 7, 3000)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_another_stream(name):
    assert stream(name, 7, 3000) != stream(name, 8, 3000)


def test_same_seed_gives_the_same_catalogue():
    workload = WORKLOADS["lookup-cold"]
    first, second = build_catalogue(workload, 3), build_catalogue(workload, 3)
    assert first.digests == second.digests
    assert first.seed_votes == second.seed_votes
    assert build_catalogue(workload, 4).digests != first.digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_writes_never_repeat(name):
    workload = WORKLOADS[name]
    catalogue = build_catalogue(workload, 5)
    generator = StreamGenerator(workload, catalogue, 5)
    votes = {(d, a) for d, a, _ in catalogue.seed_votes}
    comments = {(d, a) for d, a, _ in catalogue.seed_comments}
    authors = [a for _, a, _ in catalogue.seed_comments]
    remarks = set()
    for _ in range(20000):
        op = generator.next_op()
        if op.kind == VOTE:
            assert (op.digest, op.account) not in votes
            votes.add((op.digest, op.account))
        elif op.kind == COMMENT:
            assert (op.digest, op.account) not in comments
            comments.add((op.digest, op.account))
        elif op.kind == REMARK:
            assert authors[op.comment_id - 1] != op.account
            assert (op.account, op.comment_id) not in remarks
            remarks.add((op.account, op.comment_id))
        if op.kind in (VOTE, COMMENT, REMARK):
            assert op.conn == 0


def test_lookup_hot_mix():
    ops = [op[0] for op in stream("lookup-hot", 1, 32 * 200)]
    batches = ops.count(BATCH)
    votes = ops.count(VOTE)
    assert 190 <= batches <= 210
    assert 25 <= votes <= 40


def _votes_on_two_siblings(seed: int):
    """A lookup-cold catalogue with its model, and the first two stream
    votes that land on different digests of one vendor."""
    workload = WORKLOADS["lookup-cold"]
    catalogue = build_catalogue(workload, seed)
    generator = StreamGenerator(workload, catalogue, seed)
    first = {}
    for op in iter(generator.next_op, None):
        if op.kind != VOTE:
            continue
        vendor = catalogue.vendors[op.digest]
        if vendor in first and first[vendor].digest != op.digest:
            return catalogue, Model(workload, catalogue), first[vendor], op
        first.setdefault(vendor, op)


def _answer(model, catalogue, digest, vendor_score):
    class Info:
        known = True
        software_id = catalogue.digests[digest]
        vote_count = model.vote_count[digest]
        comments = (None,) * model.comment_count[digest]
        score = model.vote_sum[digest] / model.vote_count[digest]
        vendor = catalogue.vendors[digest]

    Info.vendor_score = vendor_score
    return Info


def test_model_tells_vendor_score_defects_apart_from_wrong_answers():
    catalogue, model, first, second = _votes_on_two_siblings(1)
    vendor = catalogue.vendors[first.digest]
    before = float(model.vendor_score(vendor))
    model.apply(first)
    between = float(model.vendor_score(vendor))
    model.apply(second)
    after = float(model.vendor_score(vendor))
    assert len({before, between, after}) == 3
    digest = first.digest

    assert model.check(digest, _answer(model, catalogue, digest, after)) is None
    assert model.check(digest, _answer(model, catalogue, digest, before)) == "stale-vendor-score"
    # A walk that read the second sibling after its vote and the first
    # before its vote saw a state the vote sequence never had.
    torn = before + (after - between)
    assert not model.was_vendor_score(vendor, torn)
    assert model.check(digest, _answer(model, catalogue, digest, torn)) == "torn-vendor-score"
    # No walk can reach a value beyond every sibling's range, nor leave
    # the 1-10 scale.
    spread = abs(after - between) + abs(between - before)
    for impossible in (after + 2 * spread + 0.01, before - 2 * spread - 0.01, 11.0):
        assert model.check(digest, _answer(model, catalogue, digest, impossible)) == "wrong"

    answer = _answer(model, catalogue, digest, after)
    answer.score += 1.0
    assert model.check(digest, answer) == "wrong"
    answer = _answer(model, catalogue, digest, after)
    answer.vote_count += 1
    assert model.check(digest, answer) == "wrong"

import pytest

from perfbench.workloads import WORKLOADS, Lib, build


def _inputs(workload, seed):
    lib = Lib()
    (ops,) = build(workload, seed, lib, rounds=1)
    return [(op.stratum, op.maps) for op in sorted(ops, key=lambda op: op.seq)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_random_maps_same_fixtures_bulk_and_slow(workload):
    a, b = _inputs(workload, 7), _inputs(workload, 8)
    assert [s for s, _ in a] == [s for s, _ in b]
    pairs = [(s, x == y) for (s, x), (_, y) in zip(a, b)]
    fixed_prefixes = ("battery.", "twist.k", "hang.", "bulk.", "slow.")
    fixed = [same for s, same in pairs if s.startswith(fixed_prefixes)]
    seeded = [same for s, same in pairs if not s.startswith(fixed_prefixes)]
    assert fixed and all(fixed)
    assert seeded and sum(seeded) < len(seeded) / 10  # tiny fields may repeat


def test_rounds_share_a_composition():
    rounds = build("qq-crt", 3, Lib(), rounds=2)
    built = [sorted(r, key=lambda op: op.seq) for r in rounds]
    assert [op.stratum for op in built[0]] == [op.stratum for op in built[1]]
    assert [op.maps for op in built[0]] != [op.maps for op in built[1]]
    assert [op.seq for op in rounds[0]] != [op.seq for op in built[0]]

"""E9 — the superdirectory (Section 3.3).

"Larger databases will have many buddy spaces and thus, on a space
allocation request it is possible that the directory block of each buddy
space may have to be visited ...  To avoid this, we make use of a
superdirectory that contains the size of the largest free segment in
each buddy space."  It starts optimistic and is self-correcting: "the
first wrong guess ... will correct the superdirectory information."

The experiment fills most of a 24-space volume, then issues allocations
with and without the superdirectory and counts directory pages
inspected; a second table shows the self-correction converging.
"""

from repro.bench.reporting import ExperimentReport
from repro.buddy.directory import max_capacity
from repro.buddy.manager import BuddyManager
from repro.storage.disk import DiskVolume
from repro.storage.volume import Volume

PAGE = 512
N_SPACES = 24
CAPACITY = max_capacity(PAGE)


def build(use_superdirectory: bool):
    disk = DiskVolume(num_pages=1 + N_SPACES * (1 + CAPACITY), page_size=PAGE)
    volume = Volume.format(disk, n_spaces=N_SPACES, space_capacity=CAPACITY)
    manager = BuddyManager.format(volume, use_superdirectory=use_superdirectory)
    # Fill all but the last space completely.
    for index in range(N_SPACES - 1):
        while True:
            space = manager.load_space(index)
            t = space.max_free_type()
            if t < 0:
                break
            space.allocate(1 << t)
            manager.store_space(index, space)
    manager.write_ahead()  # the restart below reads the directories
    return manager


def allocations_probe(manager, n_allocs=16):
    # A restart: a fresh optimistic superdirectory and a cold directory
    # pool, as the paper describes.
    rebuilt = BuddyManager(
        manager.volume, use_superdirectory=manager.use_superdirectory
    )
    loads = []
    for _ in range(n_allocs):
        rebuilt.stats.directory_loads = 0
        rebuilt.allocate(64)
        loads.append(rebuilt.stats.directory_loads)
    return loads, rebuilt


def test_e9_superdirectory(benchmark):
    with_sd = build(use_superdirectory=True)
    without_sd = build(use_superdirectory=False)
    loads_sd, rebuilt = allocations_probe(with_sd)
    loads_no, _ = allocations_probe(without_sd)

    report = ExperimentReport(
        "E9",
        f"Directory pages inspected per 64-page allocation ({N_SPACES} spaces, 23 full)",
        ["allocation #", "with superdirectory", "without superdirectory"],
        page_size=PAGE,
    )
    for i, (a, b) in enumerate(zip(loads_sd, loads_no), start=1):
        report.add_row([i, a, b])
    # First request after restart: optimism sends it through every full
    # space once ("this information may be erroneous").
    assert loads_sd[0] == N_SPACES
    # But the wrong guesses corrected themselves; afterwards exactly one
    # directory (the space with room) is inspected.
    assert all(n == 1 for n in loads_sd[1:])
    # Without the superdirectory, every request probes all full spaces.
    assert all(n == N_SPACES for n in loads_no)
    assert rebuilt.stats.superdirectory_corrections == N_SPACES - 1
    report.note(
        "the first wrong guess corrects each space's entry; steady state "
        "is one directory page per request"
    )
    report.emit()

    benchmark.pedantic(
        lambda: allocations_probe(with_sd, n_allocs=4), rounds=1, iterations=1
    )

"""run_check: the registry's row timing."""

import time

from ehv.registry import CheckOptions, run_check


def test_every_row_carries_its_time():
    reports = run_check("degeneration_p0", CheckOptions(seed=0))
    assert len(reports) == 2
    assert all(r.runtime_ms > 0 for r in reports)


def test_rows_add_up_to_the_call():
    # the sampling before each row counts towards that row
    start = time.perf_counter()
    reports = run_check("kratt", CheckOptions(seed=5))
    wall_ms = (time.perf_counter() - start) * 1e3
    total = sum(r.runtime_ms for r in reports)
    assert 0.9 * wall_ms <= total <= wall_ms

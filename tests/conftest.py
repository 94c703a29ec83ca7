"""Session-scoped Ray fixture — init ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def run_marker(tmp_path):
    """A pass-through pyarrow UDF that leaves one file per task it runs
    in, and a counter of those files — counts how often a plan executes."""
    import os
    import uuid

    import pyarrow as pa

    marker_dir = str(tmp_path / "runs")
    os.makedirs(marker_dir)

    def touch(batch: pa.Table) -> pa.Table:
        with open(os.path.join(marker_dir, uuid.uuid4().hex), "w"):
            pass
        return batch

    return touch, lambda: len(os.listdir(marker_dir))

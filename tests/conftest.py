import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (local mode, 4 CPUs)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def both_join_paths(monkeypatch):
    """Run a test body on both paths of every ``ops/exchange.measured``
    site (``attach``, ``keep_by_keys``, ``corpus_diff``): ``for _ in
    both_join_paths(): ...`` runs it at the default ``BROADCAST_BYTES``
    (small test inputs come to the driver), then at 0 (every non-empty
    lookup side takes the partitioned exchange)."""
    from fetch_engines_ray.ops import exchange

    def paths():
        for limit in (exchange.BROADCAST_BYTES, 0):
            monkeypatch.setattr(exchange, "BROADCAST_BYTES", limit)
            yield limit

    return paths

import pytest

from simax import TrainingConfig, build_scenario, learning


@pytest.fixture(scope="session")
def _trained():
    """Lazily trained (model, training table) pairs shared across the whole session.

    Training is deterministic, so sharing is safe.  The table is the one
    learning.collect_frequencies returned while train_model ran, the counts
    the model's trees and entropies were built from, recorded through the
    same module attribute perfbench wraps; train_model itself keeps none.
    """
    cache = {}

    def get(kind, n, seed=101, epsilon=0.5):
        key = (kind, n, seed, epsilon)
        if key not in cache:
            real, tables = learning.collect_frequencies, []
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(learning, "collect_frequencies", lambda *args: tables.append(real(*args)) or tables[-1])
                model = learning.train_model(build_scenario(kind, n), TrainingConfig(epsilon=epsilon), seed=seed)
            (table,) = tables
            cache[key] = model, table
        return cache[key]

    return get


@pytest.fixture(scope="session")
def model_cache(_trained):
    """The trained model for (kind, n, seed=101, epsilon=0.5)."""
    return lambda *args, **kwargs: _trained(*args, **kwargs)[0]


@pytest.fixture(scope="session")
def training_table(_trained):
    """The FrequencyTable model_cache's model for the same arguments was trained from, for audits of its trees."""
    return lambda *args, **kwargs: _trained(*args, **kwargs)[1]

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tailcal import cli, dataset
from tailcal.dataset import sample_dataset
from tailcal.model import LossSpec, TrainConfig, init_linear, train
from tailcal.numerics import RngStream
from tailcal.oracle import toy_mixture

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


TOY_TRAIN_CFG = dict(learning_rate=5.0, iterations=100, schedule="constant")


@pytest.fixture(scope="session")
def gmm():
    return toy_mixture()


@pytest.fixture(scope="session")
def toy_train(gmm):
    return sample_dataset(gmm, tuple(cli.ToyConfig().train_counts()), RngStream(1234).child(0))


@pytest.fixture(scope="session")
def toy_test(gmm):
    return sample_dataset(gmm, [5000, 5000], RngStream(1234).child(1))


@pytest.fixture(scope="session")
def toy_ce_model(toy_train):
    """Stage-1 CE model trained with the toy defaults (shared, read-only)."""
    cfg = TrainConfig(
        batch_size=toy_train.n, seed=RngStream(1234).child(2), **TOY_TRAIN_CFG
    )
    return train(init_linear(2, 2), toy_train, LossSpec(), cfg).model


@pytest.fixture()
def forks(monkeypatch):
    """The names of the functions started through ``dataset._forked`` while
    the test runs. Two fork slots are set, so each runs in a forked child,
    unless the test sets ``dataset._fork_slots`` again. The test must leave
    no child unreaped."""
    started, forked = [], dataset._forked

    def spy(fn, *args):
        started.append(fn.__name__)
        return forked(fn, *args)

    monkeypatch.setattr(dataset, "_fork_slots", lambda: 2)
    monkeypatch.setattr(dataset, "_forked", spy)
    monkeypatch.setattr(cli, "_forked", spy)
    yield started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def rng():
    return np.random.default_rng(99)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], label))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, label in sorted(rows):
            terminalreporter.write_line(f"{name}: {label}")

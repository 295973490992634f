import json
import os
import random
from collections import deque
from pathlib import Path

import pytest

from qtaylor import suites
from qtaylor.kernel import KernelParams
from qtaylor.qcore import QContext
from qtaylor.quadratic import QuadraticParams
from qtaylor.suites import SuiteConfig, parse_complex, run_suites
from qtaylor.taylor import BasisPair

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # every property test draws the same examples in every run, and none replays an
    # example stored in the checkout; a test's own settings keep its example count
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


@pytest.fixture
def ctx():
    return QContext(0.45)


@pytest.fixture
def ctx4():
    return QContext(0.4)


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture
def serial_suites(monkeypatch):
    """Run every suite of an invocation in this process, as on one usable CPU: a forked
    worker's calls are not seen here, so a test that observes calls across several suites
    would see only this process's share of them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


# Draws that checks of verify consumed at a (q, seed) where their verdict shows a known
# defect or a property under test, recorded when every check of a suite drew from one
# suite-wide stream: for the check's own stream and each named draw it reads, the
# returns of the samplers of qtaylor.suites and of the Random methods a check calls
# itself, in order, as [sampler or method, value] with complex numbers in 're+imi' form
# and a parameter set as its list of parameters
REPLAY_FIXTURES = json.loads(Path(__file__).with_name("replay_fixtures.json").read_text())
SAMPLERS = ("sample_basis_pair", "sample_complex", "sample_kernel_params", "sample_kernel_z",
            "sample_on_circle", "sample_profile_kernel_params", "sample_quadratic_params",
            "sample_with", "sample_z")


def replay_fixture(suite: str, check: str, q: str, seed: int) -> dict:
    [fixture] = [f for f in REPLAY_FIXTURES if (f["suite"], f["check"], f["q"], f["seed"])
                 == (suite, check, q, seed)]
    return fixture


def decode_draw(sampler: str, value, ctx: QContext):
    """A recorded sampler return as the sampler returned it."""
    if sampler in ("sample_kernel_params", "sample_profile_kernel_params"):
        return KernelParams(*map(parse_complex, value), ctx)
    if sampler == "sample_quadratic_params":
        return QuadraticParams(*map(parse_complex, value), ctx)
    if sampler == "sample_basis_pair":
        return BasisPair(*map(parse_complex, value))
    return tuple(map(parse_complex, value)) if isinstance(value, list) else parse_complex(value)


class Replay:
    """A named stream that hands out its recorded draws, then draws from stream."""

    def __init__(self, stream, recorded):
        self.stream, self.recorded = stream, deque(recorded)

    def uniform(self, *args):  # the methods of Random that checks call themselves
        return self.next("uniform") if self.recorded else self.stream.uniform(*args)

    def randrange(self, *args):
        return self.next("randrange") if self.recorded else self.stream.randrange(*args)

    def next(self, kind: str):
        recorded, value = self.recorded.popleft()
        assert recorded == kind, (recorded, kind)
        return value


@pytest.fixture
def replay(monkeypatch):
    """replay(fixture): the records of the fixture's suite at its (q, seed), each recorded
    draw handed out by the sampler that made it, through the suite's own checks."""
    def run(fixture) -> dict:
        cfg = SuiteConfig(suites=(fixture["suite"],), q=parse_complex(fixture["q"]),
                          seed=fixture["seed"])
        ctx, made, real_stream = cfg.context(), [], SuiteConfig.stream

        def stream(self, suite, name):
            if name not in fixture["draws"]:
                return real_stream(self, suite, name)
            made.append((name, Replay(real_stream(self, suite, name), fixture["draws"][name])))
            return made[-1][1]

        def replaying(sampler, real):
            def draw(rng, *args, **kwargs):
                if isinstance(rng, Replay):
                    if rng.recorded:
                        return decode_draw(sampler, rng.next(sampler), ctx)
                    rng = rng.stream
                return real(rng, *args, **kwargs)
            return draw

        with monkeypatch.context() as patch:
            patch.setattr(SuiteConfig, "stream", stream)
            for sampler in SAMPLERS:
                patch.setattr(suites, sampler, replaying(sampler, getattr(suites, sampler)))
            records = {r.check: r for r in run_suites(cfg).records}
        # every name's recorded draws were all handed out, by one of its streams at least
        assert {name for name, r in made if not r.recorded} == set(fixture["draws"])
        return records
    return run

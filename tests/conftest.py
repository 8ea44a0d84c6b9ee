import numpy as np
import pytest
from hypothesis import settings

from curvelayers import ansatz, geodesic, geometry, reduced

# property tests draw the same examples on every run and keep no example
# database, so the suite is deterministic
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

ACCEPTANCE_LOG = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


def record_criterion(number, passed, detail):
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LOG.append(line)
    print(line, flush=True)
    return passed


@pytest.fixture(scope="session")
def ctx3():
    return ansatz.build_strip_context(3.0)


@pytest.fixture(scope="session")
def flat_chart():
    return geometry.build_chart(geometry.flat_channel_curve(), delta0=4.0)


@pytest.fixture(scope="session")
def flat_field():
    return geodesic.build_potential(
        3.0,
        lambda t, th: 1.0 + np.asarray(t, dtype=float) ** 2,
        V_t=lambda t, th: 2.0 * np.asarray(t, dtype=float),
        V_tt=lambda t, th: 2.0 + 0.0 * np.asarray(t, dtype=float),
        V_theta=lambda t, th: 0.0 * np.asarray(t, dtype=float),
    )


@pytest.fixture(scope="session")
def unit_field():
    return geodesic.build_potential(3.0, lambda t, th: np.ones_like(np.asarray(t) + np.asarray(th)))


@pytest.fixture(scope="session")
def disk_chart():
    return geometry.build_chart(geometry.disk_diameter_curve(), delta0=0.35)


@pytest.fixture(scope="session")
def bent_chart():
    return geometry.build_chart(geometry.bent_channel_curve(kappa=0.5 * np.pi), delta0=0.5)


@pytest.fixture(scope="session")
def bent_field(bent_chart):
    kap = 0.5 * np.pi

    def V(t, th):
        t = np.asarray(t, dtype=float)
        th = np.asarray(th, dtype=float)
        return np.exp(kap * t / 1.5) * (1.0 + 0.3 * np.sin(np.pi * th) * th)

    return geodesic.build_potential(3.0, V)


@pytest.fixture(scope="session")
def bent_problem(bent_chart, bent_field):
    return reduced.ReducedProblem(bent_chart, bent_field, 3.0, j_max=80)


@pytest.fixture(scope="session")
def flat_problem(flat_chart, flat_field):
    return reduced.ReducedProblem(flat_chart, flat_field, 3.0, j_max=60)


@pytest.fixture(scope="session")
def sincos_state():
    pi = np.pi
    arr = lambda f: (lambda th: f(np.asarray(th, dtype=float)))
    return ansatz.state_from_callables(
        f=arr(lambda th: np.sin(pi * th)),
        fp=arr(lambda th: pi * np.cos(pi * th)),
        fpp=arr(lambda th: -(pi**2) * np.sin(pi * th)),
        e=arr(lambda th: np.cos(pi * th)),
        ep=arr(lambda th: -pi * np.sin(pi * th)),
        epp=arr(lambda th: -(pi**2) * np.cos(pi * th)),
    )

import multiprocessing

import numpy as np
import pytest

from resonlab.spectral import TorusGeometry, Potential, build_frame


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a member shard
    its run did not reap; pyproject.toml fails one whose thread raises."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(scope="session")
def frame_1d_5():
    return build_frame(TorusGeometry((2 * np.pi,), 32), Potential.zero(), 5)


@pytest.fixture(scope="session")
def frame_1d_9():
    return build_frame(TorusGeometry((2 * np.pi,), 32), Potential.zero(), 9)


@pytest.fixture(scope="session")
def frame_1d_9_cos():
    pot = Potential.from_cosines({1: 0.1}, dimension=1)
    return build_frame(TorusGeometry((2 * np.pi,), 32), pot, 9)


@pytest.fixture(scope="session")
def frame_2d_9():
    return build_frame(TorusGeometry((2 * np.pi, 2 * np.pi), 16), Potential.zero(), 9)


@pytest.fixture(scope="session")
def frame_2d_25():
    return build_frame(TorusGeometry((2 * np.pi, 2 * np.pi), 16), Potential.zero(), 25)

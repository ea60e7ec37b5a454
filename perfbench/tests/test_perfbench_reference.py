"""The host-speed sampler that rescales the timed metrics."""

import signal
import time

import pytest

import reference
from reference import HostSpeed, kernel_cpu_seconds


def test_kernel_takes_positive_time():
    assert kernel_cpu_seconds() > 0.0


def test_sampler_samples_while_armed_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 3
    assert 0.0 < speed.busy_s < 0.5
    count = len(speed.samples)
    time.sleep(3 * reference.SAMPLE_EVERY_S)
    assert len(speed.samples) == count


def test_rescale_divides_by_the_median_of_the_samples_from_first_on():
    speed = HostSpeed()
    speed.samples = [2 * reference.REFERENCE_S, 4 * reference.REFERENCE_S, 100.0]
    assert speed.rescale(8.0) == pytest.approx(2.0)
    assert speed.rescale(8.0, first=2) == pytest.approx(8.0 * reference.REFERENCE_S / 100.0)
    # No sample since `first`: the speed of the whole run so far.
    assert speed.rescale(8.0, first=3) == pytest.approx(2.0)

"""The machine-speed probe behind the normalized times."""

import signal
import time

import pytest

from perfbench import speed


def test_rescaling_removes_kernel_time_and_applies_speed():
    ref = speed.KERNEL_REF_S
    # the machine ran at half speed: every kernel sample took twice the reference
    samples = [2 * ref] * 10
    assert speed.at_reference_speed(1.0, samples, []) == pytest.approx((1.0 - 20 * ref) / 2)


def test_few_samples_borrow_the_fallback_and_none_leave_time_unscaled():
    ref = speed.KERNEL_REF_S
    assert speed.at_reference_speed(0.01, [], [ref / 2] * 5) == pytest.approx(0.02)
    assert speed.at_reference_speed(0.01, [], []) == 0.01


def test_probe_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= speed.MIN_SAMPLES
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

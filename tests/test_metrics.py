import pytest
from hypothesis import given, strategies as st

from dispatchsim.metrics import queue_wait, rejection_percentage, starvation_report
from dispatchsim.model import Job

from conftest import TABLE6_JOBS, TABLE6_WAITS, EmptyInput, summarize


def test_summarize_basic():
    s = summarize([1, 2, 3])
    assert (s.avg, s.min, s.max, s.count) == (2, 1, 3, 3)


def test_summarize_singleton():
    s = summarize([5])
    assert (s.avg, s.min, s.max, s.count) == (5, 5, 5, 1)


def test_summarize_empty():
    with pytest.raises(EmptyInput):
        summarize([])


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
def test_summarize_ordering_invariant(samples):
    s = summarize(samples)
    # float summation can overshoot by an ulp on adversarial inputs
    tol = 1e-9 * max(1.0, abs(s.min), abs(s.max))
    assert s.min - tol <= s.avg <= s.max + tol


def _trace(job_id, arrival, start, **kw):
    finish = kw.pop("finish", None if start is None else start + 1.0)
    return Job(
        id=job_id,
        arrival=arrival,
        demand=1.0,
        start=start,
        finish=finish,
        vm_history=(0,) if start is not None else (),
        **kw,
    )


def table7_traces():
    # arrival from the worked example, start from its schedule
    starts = {1: 0.0, 2: 10.0, 3: 19.0, 4: 8.0, 5: 14.0}
    return [_trace(jid, arr, starts[jid]) for jid, arr, _ in TABLE6_JOBS]


def test_queue_wait_j1():
    assert queue_wait(_trace(1, 0.0, 0.0)) == 0.0


def test_queue_wait_j3():
    assert queue_wait(_trace(3, 3.0, 19.0)) == 16.0


def test_queue_wait_immediate_start():
    assert queue_wait(_trace(9, 12.5, 12.5)) == 0.0


def test_queue_wait_matches_table7():
    waits = {t.id: queue_wait(t) for t in table7_traces()}
    assert waits == TABLE6_WAITS


def test_rejection_percentage_table5_first_row():
    assert rejection_percentage(5, 2) == 40


def test_rejection_percentage_table5_last_row():
    assert rejection_percentage(30, 24) == 80


def test_rejection_percentage_none_rejected():
    assert rejection_percentage(17, 0) == 0


def test_rejection_percentage_rounds_half_up():
    assert rejection_percentage(40, 1) == 3  # 2.5 -> 3
    assert rejection_percentage(200, 1) == 1  # 0.5 -> 1


@given(st.integers(min_value=1, max_value=1000))
def test_rejection_percentage_monotone_in_rejected(submitted):
    pcts = [rejection_percentage(submitted, r) for r in range(submitted + 1)]
    assert pcts == sorted(pcts)
    assert pcts[0] == 0 and pcts[-1] == 100


def test_starvation_report_threshold_10():
    assert starvation_report(table7_traces(), 10.0) == [(3, 16.0)]


def test_starvation_report_threshold_20_empty():
    assert starvation_report(table7_traces(), 20.0) == []


def test_starvation_report_threshold_8():
    assert starvation_report(table7_traces(), 8.0) == [(3, 16.0), (2, 9.0), (5, 8.0)]


def test_starvation_report_includes_deadline_rejections():
    traces = table7_traces() + [
        _trace(
            6,
            0.0,
            None,
            reject_reason="DeadlineExpired",
            rejected_at=30.0,
        )
    ]
    report = starvation_report(traces, 1000.0)
    assert report == [(6, 30.0)]

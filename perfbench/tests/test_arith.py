"""The benchmark's own arithmetic: percentile rule, failure accounting and
reference normalization."""

import pytest

from arith import Tally, nearest_rank, tail_percentile, timing_summary


@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (10**6, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank(values, 99.0) == 99
    assert nearest_rank(values, 50.0) == 50
    assert nearest_rank([3.0], 99.9) == 3.0
    assert nearest_rank(list(range(1, 1001)), 99.9) == 999


def test_timing_summary_reports_tail_only_with_enough_samples():
    assert timing_summary([1.0] * 19) == {"median": 1.0, "count": 19}
    summary = timing_summary([float(i) for i in range(1, 101)])
    assert summary == {"median": 50.5, "count": 100, "p90": 90.0}


def test_tally_error_rate():
    tally = Tally()
    with pytest.raises(ValueError):
        tally.error_rate
    assert tally.record(True)
    assert not tally.record(False, "wrong score")
    tally.record(True)
    tally.record(False)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5
    assert tally.reasons == ["wrong score", "failed"]


def test_session_counts_raised_and_wrong_outputs_as_failed(tmp_path):
    from workloads import Session

    session = Session(str(tmp_path))
    assert session.operation("ok", lambda: None)
    assert not session.operation("wrong", lambda: "score differs")
    assert not session.operation("raises", lambda: 1 / 0)
    assert (session.tally.attempted, session.tally.failed) == (3, 2)
    assert session.tally.reasons[0] == "wrong: score differs"
    assert "ZeroDivisionError" in session.tally.reasons[1]


def test_normalizer_divides_spans_by_the_reference_around_them():
    from reference import Normalizer

    times = iter([2.0, 4.0, 6.0])  # reference seconds per pass, in call order
    reps = []

    def reference(n):
        reps.append(n)
        return next(times)

    norm = Normalizer(reference, share=1.0, long_span=10.0)
    norm.add(3.0)
    norm.add(3.0)  # short spans wait for mark()
    assert norm.relative == 0.0
    norm.mark()  # 6 s between references of 2 s and 4 s
    assert norm.relative == 6.0 / 3.0
    norm.add(12.0)  # long span: bracketed at once, by 4 s and 6 s
    assert norm.relative == 2.0 + 12.0 / 5.0
    norm.mark()  # nothing pending: no reference run
    # Each reference run lasts about share x the seconds it brackets.
    assert reps == [2, 6 // 2, 12 // 4]

"""Progress reporters, the service progress board, and the stderr line."""
from __future__ import annotations

import io

from repro.obs import ProgressBoard, ProgressReporter, stderr_renderer


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestProgressReporter:
    def test_snapshot_rates_and_eta(self):
        clock = FakeClock()
        reporter = ProgressReporter("solve", clock=clock)
        reporter.add_total(4, points=40)
        clock.now += 2.0
        reporter.advance(1, points=10)
        snap = reporter.snapshot()
        assert snap["blocks_done"] == 1
        assert snap["blocks_total"] == 4
        assert snap["points_done"] == 10
        assert snap["points_total"] == 40
        assert snap["elapsed_seconds"] == 2.0
        assert snap["points_per_second"] == 5.0
        assert snap["eta_seconds"] == 6.0  # 30 remaining at 5/s
        assert snap["finished"] is False

    def test_eta_unknown_before_any_progress(self):
        reporter = ProgressReporter(clock=FakeClock())
        reporter.add_total(2, points=10)
        assert reporter.snapshot()["eta_seconds"] is None

    def test_totals_are_additive(self):
        reporter = ProgressReporter(clock=FakeClock())
        reporter.add_total(2, points=10)
        reporter.add_total(3, points=15)
        snap = reporter.snapshot()
        assert snap["blocks_total"] == 5
        assert snap["points_total"] == 25

    def test_finish_freezes_elapsed(self):
        clock = FakeClock()
        reporter = ProgressReporter(clock=clock)
        reporter.add_total(1, points=5)
        clock.now += 1.0
        reporter.advance(1, points=5)
        reporter.finish()
        clock.now += 100.0
        snap = reporter.snapshot()
        assert snap["finished"] is True
        assert snap["elapsed_seconds"] == 1.0
        assert snap["eta_seconds"] == 0.0

    def test_listeners_get_every_emit_and_final_flag(self):
        seen = []
        reporter = ProgressReporter(clock=FakeClock())
        assert reporter.subscribe(lambda s, final: seen.append(final)) is reporter
        reporter.add_total(1, points=2)
        reporter.advance(1, points=2)
        reporter.finish()
        assert seen == [False, False, True]

    def test_broken_listener_does_not_break_the_solve(self):
        reporter = ProgressReporter(clock=FakeClock())

        def bad(snap, final):
            raise RuntimeError("listener bug")

        reporter.subscribe(bad)
        reporter.advance(1)  # must not raise


class TestProgressBoard:
    def test_active_then_recent(self):
        board = ProgressBoard()
        reporter = board.start("abc123", label="passage")
        reporter.add_total(2, points=8)
        view = board.view("abc123")
        assert view["digest"] == "abc123"
        assert len(view["active"]) == 1
        assert view["active"][0]["label"] == "passage"
        assert view["recent"] == []

        board.done("abc123", reporter)
        view = board.view("abc123")
        assert view["active"] == []
        assert len(view["recent"]) == 1
        assert view["recent"][0]["finished"] is True

    def test_views_are_per_digest(self):
        board = ProgressBoard()
        board.start("aaa")
        assert board.view("bbb") == {"digest": "bbb", "active": [], "recent": []}

    def test_finished_history_is_bounded(self):
        board = ProgressBoard(keep_finished=2)
        for i in range(4):
            board.done("d", board.start("d", label=str(i)))
        assert len(board._finished) == 2
        labels = [s["label"] for s in board.view("d")["recent"]]
        assert labels == ["2", "3"]

    def test_overview_lists_active_and_recent(self):
        board = ProgressBoard()
        board.start("live")
        board.done("old", board.start("old"))
        overview = board.overview()
        assert "live" in overview["active"]
        assert overview["recent"][0]["digest"] == "old"


class TestStderrRenderer:
    def _snap(self, **overrides) -> dict:
        snap = {
            "blocks_done": 1, "blocks_total": 4,
            "points_done": 10, "points_total": 40,
            "elapsed_seconds": 2.0, "points_per_second": 5.0,
            "eta_seconds": 6.0, "finished": False,
        }
        snap.update(overrides)
        return snap

    def test_non_tty_writes_full_lines(self):
        stream = io.StringIO()
        listener = stderr_renderer(stream, min_interval=0.0)
        listener(self._snap(), False)
        out = stream.getvalue()
        assert out == "# progress: 1/4 blocks · 10/40 points · 5.0 pts/s · eta 6.0s\n"

    def test_final_line_reports_duration(self):
        stream = io.StringIO()
        listener = stderr_renderer(stream, min_interval=0.0)
        listener(self._snap(blocks_done=4, points_done=40, finished=True,
                            eta_seconds=0.0), True)
        assert "done in 2.0s" in stream.getvalue()

    def test_throttles_but_never_drops_final(self):
        stream = io.StringIO()
        listener = stderr_renderer(stream, min_interval=3600.0)
        listener(self._snap(), False)
        listener(self._snap(blocks_done=2), False)  # throttled away
        listener(self._snap(blocks_done=4), True)   # final always paints
        out = stream.getvalue()
        assert "1/4 blocks" in out
        assert "2/4 blocks" not in out
        assert "4/4 blocks" in out

    def test_first_paint_survives_a_small_monotonic_clock(self, monkeypatch):
        """A host whose monotonic clock reads below min_interval (a fresh
        boot) must still paint the first line."""
        import repro.obs.progress as progress

        monkeypatch.setattr(progress.time, "monotonic", lambda: 0.05)
        stream = io.StringIO()
        listener = stderr_renderer(stream, min_interval=0.1)
        listener(self._snap(), False)
        listener(self._snap(blocks_done=2), False)  # throttled away
        out = stream.getvalue()
        assert "1/4 blocks" in out
        assert "2/4 blocks" not in out

    def test_tty_repaints_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        listener = stderr_renderer(stream, min_interval=0.0)
        listener(self._snap(), False)
        listener(self._snap(blocks_done=4, finished=True), True)
        out = stream.getvalue()
        assert out.startswith("\r# progress: 1/4")  # in-place repaint, no newline
        assert "done in 2.0s\n" in out  # final line is terminated
        assert out.count("\n") == 1

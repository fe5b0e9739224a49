import hashlib
import importlib.util
import os
import subprocess

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"op_p50_ref_s": {"better": "lower", "bound": 0.25}}


def _runs(parent, change):
    return [
        {side: {"failed": 0, "metrics": {"membership": {"op_p50_ref_s": v}}}
         for side, v in (("parent", p), ("change", c))}
        for p, c in zip(parent, change)
    ]


def test_summary_counts_wins_and_gain():
    runs = _runs([6, 5, 6, 7, 6], [3, 3, 6, 2, 3])
    entry = bench_pairs.summarize(runs, SPEC)["membership"]["op_p50_ref_s"]
    assert entry["change_wins"] == 4  # the tie counts for neither side
    assert entry["parent"] == {"median": 6, "q1": 6, "q3": 6}
    assert not entry["gain"]  # 4 of 5 pairs is below nine tenths
    assert entry["within_bound"]


@pytest.mark.parametrize("change, gain, within", [
    ([3, 3, 3, 3], True, True),
    ([7.4, 7.4, 7.4, 7.4], False, True),
    ([8, 8, 8, 8], False, False),
])
def test_gain_and_bound_follow_the_medians(change, gain, within):
    entry = bench_pairs.summarize(_runs([6, 5, 6, 7], change), SPEC)["membership"]["op_p50_ref_s"]
    assert entry["gain"] == gain and entry["within_bound"] == within


def test_a_failed_run_is_recorded_not_raised(monkeypatch):
    stderr = "Traceback ...\nStatisticsError: no median for empty data\n"
    monkeypatch.setattr(
        bench_pairs.subprocess, "run",
        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 1, stdout="", stderr=stderr),
    )
    failed = bench_pairs.run_once("tree", seed=1, seconds=30)
    assert failed == {"exit_code": 1, "stderr_tail": stderr}

    runs = _runs([6, 5, 6, 7, 6], [3, 3, 6, 2, 3])
    runs[1]["change"] = failed
    summary = bench_pairs.summarize(runs, SPEC)
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert summary["no_speed_sample_runs"] == {"parent": 0, "change": 1}
    assert summary["failed"] == {"parent": 0, "change": 0}
    entry = summary["membership"]["op_p50_ref_s"]
    assert entry["pairs"] == 4  # the pair with the failed run is left out
    assert entry["parent"] == {"median": 6, "q1": 6, "q3": 6.25}
    assert entry["change_wins"] == 3


def test_runs_without_a_speed_sample_are_told_apart():
    """A run that died at the median of no speed samples is counted as
    such; a run that failed otherwise is a failed run only."""
    runs = _runs([6, 5, 6, 7, 6], [3, 3, 6, 2, 3])
    runs[0]["parent"] = {"exit_code": 1, "stderr_tail": "StatisticsError: no median for empty data\n"}
    runs[2]["change"] = {"exit_code": 1, "stderr_tail": "CertificateInvalid: LP certificate\n"}
    runs[3]["change"] = {"exit_code": -9, "stderr_tail": ""}
    summary = bench_pairs.summarize(runs, SPEC)
    assert summary["failed_runs"] == {"parent": 1, "change": 2}
    assert summary["no_speed_sample_runs"] == {"parent": 1, "change": 0}
    assert summary["membership"]["op_p50_ref_s"]["pairs"] == 2


def test_verify_paper_runs_are_timed_digested_and_summarized(monkeypatch):
    calls = []

    def fake_run(cmd, **kw):
        calls.append((cmd, kw))
        return subprocess.CompletedProcess(cmd, 0, stdout=b'{"claims": []}\n', stderr=b"")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    fresh = bench_pairs.verify_paper_once("tree")
    (cmd, kw), = calls
    assert cmd[1:] == ["-m", "pslocal.cli", "verify-paper"] and kw["cwd"] == "tree"
    assert kw["env"]["PYTHONPATH"] == os.path.join("tree", "src")
    assert kw["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert fresh["exit_code"] == 0 and fresh["wall_s"] >= 0
    assert fresh["stdout_sha256"] == hashlib.sha256(b'{"claims": []}\n').hexdigest()

    def runs(parent, change, digests=("a", "a"), failed=()):
        out = []
        for i, (p, c) in enumerate(zip(parent, change)):
            pair = {}
            for side, wall, digest in (("parent", p, digests[0]), ("change", c, digests[1])):
                code = 1 if (i, side) in failed else 0
                pair[side] = {"verify_paper": {"wall_s": wall, "exit_code": code, "stdout_sha256": digest}}
            out.append(pair)
        return out

    summary = bench_pairs.summarize_verify_paper(runs([2, 2, 3, 2, 2], [1, 1, 1, 3, 1], failed={(2, "change")}))
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert not summary["output_changed"]
    assert summary["wall_s"]["pairs"] == 4 and summary["wall_s"]["change_wins"] == 3
    assert summary["wall_s"]["parent"] == {"median": 2, "q1": 2, "q3": 2}
    assert bench_pairs.summarize_verify_paper(runs([2, 2], [1, 1], digests=("a", "b")))["output_changed"]

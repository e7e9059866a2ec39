"""tools/bench.py: alternating pairs and the per-metric summary, with the
revisions, the unpacking, perfbench and the fresh step processes stubbed
out, and its step probe on a small grid."""

import importlib.util
import json
import pathlib
import statistics

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("bench", TOOLS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, "revision",
                        lambda rev: {"rev": rev, "commit": f"{rev}-sha", "src_tree": f"{rev}-src"})

    def unpack(rev, dest):
        dest.mkdir()
        (dest / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30, "end_to_end": [
            {"name": "run_s", "better": "lower"},
            {"name": "work_per_s", "better": "higher"}]}))

    monkeypatch.setattr(module.compare_outputs, "unpack", unpack)
    monkeypatch.setattr(module, "step_layer", lambda tree: {
        "128x128": {"peak_fields": 18.0 if tree.name == "b" else 22.0, "minor_faults": 0}})
    return module


def fake_runner(calls, correct=True):
    """Side b is faster in every pair but pair 3; work_per_s always ties."""
    def run(tree, workload, seed, seconds):
        side = tree.name
        k = sum(call[0] == side for call in calls)
        calls.append((side, workload, seed, seconds))
        run_s = 1.0 + 0.01 * k if side == "a" else (2.0 if k == 3 else 0.8 + 0.01 * k)
        return {"correct": correct, "attempted": 2, "failed": 0 if correct else 1,
                "metrics": {"run_s": {"value": run_s, "unit": "s"},
                            "work_per_s": {"value": 5.0, "unit": "1/s"}}}
    return run


def test_pairs_alternate_and_metrics_are_summarized(bench, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_perfbench", fake_runner(calls))
    assert bench.main(["base", "change", "--label", "t", "--seed", "5"]) == 0
    assert [side for side, *_ in calls] == list("abbaabbaabbaabbaabba")
    assert {tuple(rest) for _, *rest in calls} == {("all", 5, 30)}

    report = json.loads(pathlib.Path("BENCH_t.json").read_text())
    assert (report["a"]["commit"], report["b"]["src_tree"]) == ("base-sha", "change-src")
    assert report["command"] == ["tools/bench.py", "base", "change", "--label", "t",
                                 "--seed", "5"]
    assert report["run_command"][-4:] == ["--seconds", "30", "--trace", "0"]
    assert report["pair_order"][:2] == ["ab", "ba"] and report["correct"]
    assert report["failed"] == {"a": [0] * 10, "b": [0] * 10}
    assert report["step"] == {side: {"128x128": {"peak_fields": peak, "minor_faults": 0}}
                              for side, peak in (("a", 22.0), ("b", 18.0))}
    run_s = report["metrics"]["run_s"]
    values_a = [1.0 + 0.01 * k for k in range(10)]
    q1, _, q3 = statistics.quantiles(values_a, n=4)
    assert run_s["a"]["values"] == values_a
    assert run_s["a"]["median"] == statistics.median(values_a)
    assert run_s["a"]["iqr"] == q3 - q1
    assert (run_s["b_wins"], run_s["a_wins"], run_s["b_better"]) == (9, 1, True)
    ties = report["metrics"]["work_per_s"]
    assert (ties["b_wins"], ties["a_wins"], ties["b_better"]) == (0, 0, False)


def test_gain_needs_nine_tenths_of_the_pairs(bench):
    # b's median is far better, but it wins only 8 of 10 pairs
    values_a = [10.0] * 10
    values_b = [1.0] * 8 + [11.0, 12.0]
    assert not bench.compare(values_a, values_b, "lower")["b_better"]
    assert bench.compare(values_a, values_b[:9] + [1.0], "lower")["b_better"]
    # nine wins by less than a's interquartile range are no gain
    assert not bench.compare([1.0, 2.0] * 5, [0.99, 1.99] * 5, "lower")["b_better"]


def test_incorrect_run_exits_one(bench, monkeypatch):
    monkeypatch.setattr(bench, "run_perfbench", fake_runner([], correct=False))
    assert bench.main(["base", "change", "--label", "t"]) == 1
    report = json.loads(pathlib.Path("BENCH_t.json").read_text())
    assert not report["correct"] and report["failed"] == {"a": [1] * 10, "b": [1] * 10}


def test_label_is_a_plain_file_name(bench):
    with pytest.raises(SystemExit) as err:
        bench.main(["a", "b", "--label", "../x"])
    assert err.value.code == 2


def test_step_probe_measures_each_size(bench):
    figures = bench.step_probe([16, 24])
    assert list(figures) == ["16x16", "24x24"]
    for size in figures.values():
        assert size["peak_fields"] > 2  # the new state's zeta and G xi at least
        assert size["minor_faults"] >= 0

"""tools/bench.py: alternating pairs and the per-metric summary, with the
revisions, the unpacking, perfbench, the launcher and the fresh step
processes stubbed out, and its step probe on a small grid; tools/launch.py
on a stub tree."""

import importlib.util
import json
import pathlib
import statistics
import subprocess
import sys

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
        (dest / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 30, "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [{"name": "run_s", "better": "lower"},
                           {"name": "work_per_s", "better": "higher"}]}))

    monkeypatch.setattr(module.compare_outputs, "unpack", unpack)
    monkeypatch.setattr(module, "run_launcher", fake_launcher([]))
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


def fake_launcher(calls):
    """Side b peaks 1 MB lower than side a in every run."""
    def launch(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        k = len(calls)
        return {"run_s": 1.0 + 0.01 * k, "exit": 0,
                "peak_rss_mb": 40.0 + 0.01 * k - (tree.name == "b")}
    return launch


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


def test_launcher_runs_alternate_per_workload(bench, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_perfbench", fake_runner([]))
    monkeypatch.setattr(bench, "run_launcher", fake_launcher(calls))
    assert bench.main(["base", "change", "--label", "t", "--seed", "5"]) == 0
    assert calls == [(side, w, 5) for w in ("w1", "w2") for side in "abbaab"]
    launcher = json.loads(pathlib.Path("BENCH_t.json").read_text())["launcher"]
    assert list(launcher) == ["w1", "w2"]
    w1 = launcher["w1"]
    assert w1["order"] == ["ab", "ba", "ab"]
    assert w1["exit"] == {"a": [0, 0, 0], "b": [0, 0, 0]}
    assert w1["peak_rss_mb"]["a"]["values"] == [40.01, 40.04, 40.05]
    assert (w1["peak_rss_mb"]["b_wins"], w1["peak_rss_mb"]["b_better"]) == (3, True)
    assert w1["run_s"]["better"] == "lower"


def test_launcher_runs_one_workload_when_named(bench, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_perfbench", fake_runner([]))
    monkeypatch.setattr(bench, "run_launcher", fake_launcher(calls))
    assert bench.main(["base", "change", "--label", "t", "--workload", "w2"]) == 0
    assert {w for _, w, _ in calls} == {"w2"}


STUB_WORKLOADS = """
def load_inputs(workload, seed):
    return {"seed": seed}
def evolve_argv(workload, inp, out):
    return [workload, str(inp["seed"]), out]
def zonal_configs(seed):
    return [0, 2, 1]
def zonal_argv(config, out):
    return ["zonal", str(config), out]
"""
STUB_CLI = """
import json, os
def main(argv):
    with open(os.path.join(os.path.dirname(argv[-1]), "calls.txt"), "a") as fh:
        fh.write(json.dumps(argv) + "\\n")
    return int(argv[1]) if argv[0] == "zonal" else 0
"""


def test_launcher_runs_tree_cli_without_numpy(tmp_path):
    """tools/launch.py takes the argv lists from the tree's workloads.py and
    runs them through the tree's accband.cli in a child, importing no numpy."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    (tmp_path / "src" / "accband").mkdir(parents=True)
    (tmp_path / "src" / "accband" / "__init__.py").write_text("")
    (tmp_path / "src" / "accband" / "cli.py").write_text(STUB_CLI)
    out = tmp_path / "out"
    out.mkdir()
    script = ("import json, sys\n"
              f"sys.path.insert(0, {str(TOOLS)!r})\n"
              "import launch\n"
              f"runs = [launch.launch({str(tmp_path)!r}, w, 7, {str(out)!r})"
              " for w in ('evolve_x', 'zonal_scan')]\n"
              "assert 'numpy' not in sys.modules\n"
              "print(json.dumps(runs))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    evolve, zonal = json.loads(done.stdout)
    assert (evolve["exit"], zonal["exit"]) == (0, 2)
    assert evolve["peak_rss_mb"] > 0 and evolve["run_s"] > 0
    calls = [json.loads(line) for line in (tmp_path / "calls.txt").read_text().splitlines()]
    assert calls == [["evolve_x", "7", str(out)]]
    calls = [json.loads(line) for line in (out / "calls.txt").read_text().splitlines()]
    assert calls == [["zonal", str(c), str(out / f"cfg_{i:02d}")]
                     for i, c in enumerate([0, 2, 1])]


def test_step_probe_measures_each_size(bench):
    figures = bench.step_probe([16, 24])
    assert list(figures) == ["16x16", "24x24"]
    for size in figures.values():
        assert size["peak_fields"] > 2  # the new state's zeta and G xi at least
        assert size["minor_faults"] >= 0

"""The no_regression and gain verdicts of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "solve_s", "better": "lower", "bound": 0.25},
    {"name": "score", "better": "higher", "bound": 0.1},
]


def _runs(parent, change, name="solve_s"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({
                "side": side, "workload": "w", "seed": seed, "trace": 0,
                "output": {"correct": True, "metrics": {name: {"value": value}}},
            })
    return runs


@pytest.mark.parametrize(
    "name, parent, change, want",
    [
        # medians 1.0 vs 1.2: within the 0.25 bound
        ("solve_s", [0.98, 0.99, 1.0, 1.01, 1.02], [1.18, 1.19, 1.2, 1.21, 1.22], "ok"),
        # faster is always ok
        ("solve_s", [1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5], "ok"),
        # 1.5x slower, tight parent spread: regressed
        ("solve_s", [0.98, 0.99, 1.0, 1.01, 1.02], [1.48, 1.49, 1.5, 1.51, 1.52], "regressed"),
        # parent IQR/median 1.0, wider than the bound: equal medians tell nothing
        ("solve_s", [0.5, 0.5, 1.0, 1.5, 1.5], [0.6, 0.9, 1.0, 1.1, 1.4], "unresolved"),
        ("solve_s", [0.5, 0.5, 1.0, 1.5, 1.5], [1.6, 1.6, 1.7, 1.7, 1.8], "unresolved"),
        # ... unless every change run is better than every parent run
        ("solve_s", [0.5, 0.5, 1.0, 1.5, 1.5], [0.3, 0.3, 0.4, 0.4, 0.45], "ok"),
        # higher is better: a 20% drop exceeds the 0.1 bound
        ("score", [10.0, 10.0, 10.0], [8.0, 8.0, 8.0], "regressed"),
        ("score", [10.0, 10.0, 10.0], [9.5, 9.5, 9.5], "ok"),
    ],
)
def test_summarize_gives_each_end_to_end_metric_a_verdict(name, parent, change, want):
    summary = bench_pairs.summarize(_runs(parent, change, name), "w", 0, END_TO_END)
    assert summary["failed_runs"] == {"parent": 0, "change": 0}
    assert summary[name]["pairs"] == len(parent)
    assert summary[name]["no_regression"] == want
    assert summary[name]["bound"] == {e["name"]: e["bound"] for e in END_TO_END}[name]


def test_metrics_outside_end_to_end_get_no_verdict():
    summary = bench_pairs.summarize(_runs([1.0, 2.0], [3.0, 4.0], "other"), "w", 0, END_TO_END)
    assert "no_regression" not in summary["other"]
    assert "gain" not in summary["other"]


PARENT = [1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize(
    "name, parent, change, want",
    [
        # lower in 10 of 10 pairs, medians 1.045 vs 0.845, parent IQR 0.045
        ("solve_s", PARENT, [p - 0.2 for p in PARENT], "met"),
        # lower in 9 of 10 is enough
        ("solve_s", PARENT, [p - 0.2 for p in PARENT[:9]] + [1.2], "met"),
        # lower in 8, one tie: a tie counts for neither side
        ("solve_s", PARENT, [p - 0.2 for p in PARENT[:8]] + [1.08, 1.2], "not_met"),
        # lower in 9, one tie: still nine tenths of ten
        ("solve_s", PARENT, [p - 0.2 for p in PARENT[:9]] + [1.09], "met"),
        # lower in every pair, but by less than the parent's IQR
        ("solve_s", PARENT, [p - 0.01 for p in PARENT], "not_met"),
        # slower everywhere
        ("solve_s", PARENT, [p + 0.2 for p in PARENT], "not_met"),
        # higher is better: higher in every pair by more than the IQR
        ("score", [10.0, 10.1, 10.2, 10.3], [11.0, 11.1, 11.2, 11.3], "met"),
        ("score", [10.0, 10.1, 10.2, 10.3], [9.0, 9.1, 9.2, 9.3], "not_met"),
    ],
)
def test_summarize_says_whether_a_gain_would_count(name, parent, change, want):
    summary = bench_pairs.summarize(_runs(parent, change, name), "w", 0, END_TO_END)
    assert summary[name]["gain"] == want


def _tree(root, files):
    for rel, text in files.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_src_hash_tells_trees_apart(tmp_path):
    files = {"pkg/__init__.py": "", "pkg/a.py": "x = 1\n"}
    a = _tree(tmp_path / "a", files)
    b = _tree(tmp_path / "b", files)
    # what is not a source file does not count
    (b / "src" / "pkg" / "notes.txt").write_text("scratch")
    (b / "README.md").write_text("other")
    assert bench_pairs.src_hash(a) == bench_pairs.src_hash(b)
    assert len(bench_pairs.src_hash(a)) == 64
    (b / "src" / "pkg" / "a.py").write_text("x = 2\n")
    assert bench_pairs.src_hash(a) != bench_pairs.src_hash(b)
    # the same bytes under another name are another tree
    c = _tree(tmp_path / "c", {"pkg/__init__.py": "", "pkg/b.py": "x = 1\n"})
    assert bench_pairs.src_hash(a) != bench_pairs.src_hash(c)
    # moving bytes from one file to the next is too
    d = _tree(tmp_path / "d", {"pkg/__init__.py": "x = 1\n", "pkg/a.py": ""})
    assert bench_pairs.src_hash(a) != bench_pairs.src_hash(d)
    # src_lines counts newlines over the same files, as wc -l does
    assert bench_pairs.src_lines(a) == bench_pairs.src_lines(d) == 1
    (b / "src" / "pkg" / "a.py").write_text("x = 2\ny = 3\nz = 4")
    assert bench_pairs.src_lines(b) == 2


def test_append_refuses_an_edited_tree(tmp_path, capsys):
    trees = {}
    for side in bench_pairs.SIDES:
        trees[side] = _tree(tmp_path / side, {"pkg/a.py": f"side = {side!r}\n"})
        (trees[side] / "perfbench").mkdir()
        (trees[side] / "perfbench" / "run.py").write_text("")
    (trees["parent"] / "BENCHMARK.json").write_text('{"end_to_end": []}')
    out = tmp_path / "bench.json"
    hashes = {side: bench_pairs.src_hash(root) for side, root in trees.items()}
    out.write_text(json.dumps({"src_sha256": hashes, "runs": []}))
    argv = [
        "--parent", str(trees["parent"]), "--change", str(trees["change"]),
        "--workload", "w", "--seed", "0", "--pairs", "0", "--out", str(out), "--append",
    ]
    # the same trees: appending is allowed (no pairs, so nothing runs)
    assert bench_pairs.main(argv) == 0
    for side, root in trees.items():
        (root / "src" / "pkg" / "a.py").write_text("edited = True\n")
        assert bench_pairs.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"{side}: src/ differs")
        (root / "src" / "pkg" / "a.py").write_text(f"side = {side!r}\n")

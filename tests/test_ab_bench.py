"""The verdict rule of ``tests/ab_bench.py`` on hand-made paired series,
and the two trees it runs."""

import subprocess

import pytest

import ab_bench
from ab_bench import verdict

# median 100, quartiles 99 and 101: an interquartile spread of 2
BASE = [98, 102, 99, 101, 100, 100, 101, 99, 102, 98]


def shifted(series, by, pairs=()):
    """``series`` plus ``by``, except the pairs in ``pairs``, which keep
    the values given there."""
    out = [v + by for v in series]
    for i, v in pairs:
        out[i] = v
    return out


@pytest.mark.parametrize("head, expected", [
    (shifted(BASE, 5), "gain"),
    # nine wins of ten still claim a gain
    (shifted(BASE, 5, [(0, 97)]), "gain"),
    # eight wins and two ties: ties count for neither side
    (shifted(BASE, 5, [(0, 98), (1, 102)]), "no change"),
    # every pair won, but by no more than the base's spread
    (shifted(BASE, 1.5), "no change"),
    (BASE, "no change"),
    # 21% below the base's median against a bound of 20%
    (shifted(BASE, -21), "worse"),
    (shifted(BASE, -19), "no change"),
])
def test_verdict_on_a_higher_is_better_metric(head, expected):
    assert verdict(BASE, head, True, 0.2) == expected


def test_verdict_on_a_lower_is_better_metric():
    base = [v / 100 for v in BASE]
    assert verdict(base, [v * 0.9 for v in base], False, 0.2) == "gain"
    assert verdict(base, [v * 1.1 for v in base], False, 0.2) == "no change"
    assert verdict(base, [v * 1.25 for v in base], False, 0.2) == "worse"
    # a higher-is-better reading of the same series turns the verdicts
    assert verdict(base, [v * 1.1 for v in base], True, 0.2) == "gain"


def test_a_spread_wider_than_the_bound_leaves_the_verdict_unresolved():
    # median 100, quartiles 72.5 and 127.5: a spread of 55, past 20% of 100
    base = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert verdict(base, base[::-1], True, 0.2) == "unresolved"
    assert verdict(base, [v + 10 for v in base], True, 0.2) == "unresolved"
    # worse than the bound is worse, whatever the spread
    assert verdict(base, [v - 25 for v in base], True, 0.2) == "worse"
    # unless every head run beats every base run
    assert verdict(base, [151] * 10, True, 0.2) == "no change"
    assert verdict(base, [150] * 10, True, 0.2) == "unresolved"
    # and a gain is a gain: every pair won, by more than the spread
    assert verdict(base, [v + 56 for v in base], True, 0.2) == "gain"


def test_both_trees_are_snapshots_and_the_head_keeps_uncommitted_files(
    tmp_path, monkeypatch
):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "tracked.py").write_text("committed\n")
    (repo / ".gitignore").write_text("ignored.txt\n")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=ab", "-c", "user.email=ab@example.com",
        "commit", "-q", "-m", "base")
    (repo / "pkg" / "tracked.py").write_text("edited\n")
    (repo / "pkg" / "untracked.py").write_text("new\n")
    (repo / "ignored.txt").write_text("build output\n")
    monkeypatch.setattr(ab_bench, "ROOT", repo)
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    ab_bench.unpack("HEAD", base)
    ab_bench.snapshot(head)
    assert (base / "pkg" / "tracked.py").read_text() == "committed\n"
    assert not (base / "pkg" / "untracked.py").exists()
    assert (head / "pkg" / "tracked.py").read_text() == "edited\n"
    assert (head / "pkg" / "untracked.py").read_text() == "new\n"
    assert (head / ".gitignore").is_file()
    assert not (head / "ignored.txt").exists()


def test_each_tree_runs_once_untimed_before_pair_1(tmp_path, monkeypatch, capsys):
    # the first run of each tree reads 0 on every metric; the series and
    # their medians hold only the pairs' runs
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "items_per_s", "unit": "1/s",'
        ' "better": "higher", "bound": 0.2}]}')
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        value = 0 if len(calls) <= 2 else 100 + len(calls)
        return {"values": {"items_per_s": value}, "digest": "d"}

    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    monkeypatch.setattr(ab_bench, "unpack", lambda rev, into: None)
    monkeypatch.setattr(ab_bench, "snapshot", lambda into: None)
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    assert ab_bench.main(["--against", "HEAD", "--workload", "w", "--pairs", "2",
                          "--seconds", "1", "--seed", "5"]) == 0
    assert calls == [("base", 5), ("head", 5),
                     ("base", 5), ("head", 5), ("head", 6), ("base", 6)]
    out = capsys.readouterr().out
    assert "pair 1 seed 5 first base: items_per_s 103 -> 104" in out
    assert "pair 2 seed 6 first head: items_per_s 106 -> 105" in out
    assert "base median 104.5" in out and "head median 104.5" in out

"""tools/output_digests.py: the comparison of fixed digest lists, no workload run."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
_path = list(sys.path)
_spec = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)
sys.path[:] = _path  # the tool puts src/ and perfbench/ first

OURS = [("w/a.csv", "11"), ("w/manifest.json", "22"), ("w/stdout", "33")]


def test_equal_lists_give_no_line():
    assert output_digests.compare(OURS, list(OURS)) == []
    assert output_digests.compare(OURS, OURS[::-1]) == []


def test_each_differing_path_is_one_line_with_both_digests():
    theirs = [("w/a.csv", "11"), ("w/manifest.json", "2x"), ("w/stdout", "3x")]
    assert output_digests.compare(OURS, theirs) == [
        "w/manifest.json  22  2x",
        "w/stdout  33  3x",
    ]


def test_a_path_on_one_side_only_differs():
    theirs = OURS[1:] + [("w/q.svg", "44")]
    assert output_digests.compare(OURS, theirs) == ["w/a.csv  11  -", "w/q.svg  -  44"]


def _fake_digests(differ_at=None):
    def digests(name, seed, checkouts):
        sides = [[("%s/out" % name, "%s-%d" % (name, seed))] for _ in checkouts]
        if (name, seed) == differ_at:
            sides[1] = [("%s/out" % name, "other")]
        return sides

    return digests


@pytest.mark.parametrize("differ_at, code", [(None, 0), (("kink-solve-frame", 7), 1)])
def test_compare_prints_only_differences_and_sets_the_exit_code(
    monkeypatch, capsys, differ_at, code
):
    monkeypatch.setattr(output_digests, "digests", _fake_digests(differ_at))
    argv = ["--compare", "elsewhere", "--seed", "3", "--seed", "7"]
    assert output_digests.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    want = [] if differ_at is None else ["7/kink-solve-frame/out  kink-solve-frame-7  other"]
    assert lines == want


def test_one_seed_prints_every_digest_without_a_seed_prefix(monkeypatch, capsys):
    monkeypatch.setattr(output_digests, "digests", _fake_digests())
    assert output_digests.main(["--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = list(output_digests.workloads.WORKLOADS) + list(output_digests.CASES)
    assert output_digests.NAMES == names
    assert lines == ["%s-5  %s/out" % (name, name) for name in names]

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_identity.py"
_SPEC = importlib.util.spec_from_file_location("output_identity", _PATH)
output_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_identity)


def make_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


FILES = {"sweep-gc/curve.csv": b"a,b\n1,2\n", "sweep-gc/log.txt": b"ok\n",
         "readme/log.txt": b"$ mimo-ee optimize\n"}


@pytest.fixture
def trees(tmp_path):
    return (make_tree(tmp_path / "base", FILES),
            make_tree(tmp_path / "head", FILES))


class TestDiffering:
    def test_identical_trees(self, trees):
        assert output_identity.differing(*trees) == []

    def test_one_byte_change_lists_that_file(self, trees):
        base, head = trees
        (head / "sweep-gc/curve.csv").write_bytes(b"a,b\n1,3\n")
        assert output_identity.differing(base, head) == ["sweep-gc/curve.csv"]

    @pytest.mark.parametrize("side", [0, 1], ids=["base-only", "head-only"])
    def test_file_on_one_side_only_is_listed(self, trees, side):
        make_tree(trees[side], {"extra/log.txt": b""})
        assert output_identity.differing(*trees) == ["extra/log.txt"]

    def test_same_size_same_mtime_still_compared(self, trees):
        # a shallow comparison would trust equal size and mtime
        base, head = trees
        (head / "readme/log.txt").write_bytes(b"$ mimo-ee optimizf\n")
        stat = (base / "readme/log.txt").stat()
        os.utime(head / "readme/log.txt", ns=(stat.st_atime_ns,
                                               stat.st_mtime_ns))
        assert output_identity.differing(base, head) == ["readme/log.txt"]


class TestWorkDirectory:
    @pytest.mark.parametrize("leftover", ["base/sweep-gc/log.txt", "notes"])
    def test_non_empty_work_is_refused(self, trees, tmp_path, monkeypatch,
                                       capsys, leftover):
        # an earlier run's outputs would make the --emit child fail on an
        # existing case directory; the script says so and runs nothing
        work = make_tree(tmp_path / "work", {leftover: b"old\n"})
        monkeypatch.setattr(output_identity.subprocess, "run", None)
        monkeypatch.setattr(sys, "argv", [
            "output_identity.py", *map(str, trees), "--work", str(work)])
        with pytest.raises(SystemExit) as exc:
            output_identity.main()
        assert exc.value.code == 2
        assert "must be an empty directory" in capsys.readouterr().err
        assert sorted(p.name for p in work.rglob("*")) == sorted(
            leftover.split("/"))

    def test_empty_or_new_work_is_used(self, trees, tmp_path, monkeypatch):
        base, head = trees
        (head / "README.md").write_bytes((_PATH.parents[1] / "README.md")
                                         .read_bytes())
        calls = []
        monkeypatch.setattr(output_identity.subprocess, "run",
                            lambda argv, **kw: calls.append(argv))
        (tmp_path / "empty").mkdir()
        for work in (tmp_path / "new", tmp_path / "empty"):
            monkeypatch.setattr(sys, "argv", [
                "output_identity.py", str(base), str(head), "--work",
                str(work)])
            assert output_identity.main() == 0
            assert (work / "cases.json").is_file()
        assert len(calls) == 4


class TestFailedSide:
    @pytest.mark.parametrize("failing", ["base", "head"])
    def test_failed_side_is_named_without_a_traceback(
            self, trees, tmp_path, monkeypatch, capsys, failing):
        # a checkout that does not import makes its --emit child exit
        # non-zero; the script names that side and its code, and compares
        # nothing
        base, head = trees
        (head / "README.md").write_bytes((_PATH.parents[1] / "README.md")
                                         .read_bytes())
        broken, working = (head, base) if failing == "head" else (base, head)
        make_tree(broken, {"src/mimo_ee/__init__.py": b"raise ImportError\n"})
        make_tree(working, {"src/mimo_ee/__init__.py": b"",
                            "src/mimo_ee/cli.py": b"def main(argv):\n"
                                                  b"    return 0\n"})
        work = tmp_path / "work"
        monkeypatch.setattr(sys, "argv", [
            "output_identity.py", str(base), str(head), "--work", str(work)])
        assert output_identity.main() == 1
        err = capsys.readouterr().err
        assert f"the {failing} side ({broken}) failed with exit code 1" in err
        assert "CalledProcessError" not in err

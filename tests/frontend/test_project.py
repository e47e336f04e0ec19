"""Multi-file project parsing and checking."""

import os
from pathlib import Path

import pytest

from repro.frontend.project import check_project, parse_project, project_files
from repro.paper import BAD_SECTOR, GOOD_SECTOR, VALVE


@pytest.fixture
def project(tmp_path):
    """A two-file project: drivers (Valve) + controller (GoodSector)."""
    (tmp_path / "drivers.py").write_text(VALVE, encoding="utf-8")
    (tmp_path / "controller.py").write_text(GOOD_SECTOR, encoding="utf-8")
    return tmp_path


class TestParseProject:
    def test_merges_classes_across_files(self, project):
        module, violations = parse_project(project)
        assert violations == []
        assert set(module.class_names()) == {"Valve", "GoodSector"}

    def test_cross_file_composition_checks(self, project):
        result = check_project(project)
        assert result.ok, result.format()

    def test_cross_file_violation_found(self, tmp_path):
        (tmp_path / "drivers.py").write_text(VALVE, encoding="utf-8")
        (tmp_path / "controller.py").write_text(BAD_SECTOR, encoding="utf-8")
        result = check_project(tmp_path)
        assert not result.ok
        assert result.by_code("invalid-subsystem-usage")

    def test_subdirectories_included(self, tmp_path):
        (tmp_path / "lib").mkdir()
        (tmp_path / "lib" / "drivers.py").write_text(VALVE, encoding="utf-8")
        (tmp_path / "app.py").write_text(GOOD_SECTOR, encoding="utf-8")
        assert check_project(tmp_path).ok

    def test_duplicate_class_reported_first_wins(self, tmp_path):
        (tmp_path / "a_drivers.py").write_text(VALVE, encoding="utf-8")
        (tmp_path / "z_drivers.py").write_text(VALVE, encoding="utf-8")
        module, violations = parse_project(tmp_path)
        assert [v.code for v in violations] == ["duplicate-class"]
        assert module.class_names().count("Valve") == 1

    def test_syntax_error_in_one_file_does_not_abort(self, tmp_path):
        (tmp_path / "broken.py").write_text("class (:\n", encoding="utf-8")
        (tmp_path / "drivers.py").write_text(VALVE, encoding="utf-8")
        module, violations = parse_project(tmp_path)
        assert any(v.code == "syntax-error" for v in violations)
        assert module.get_class("Valve") is not None

    def test_file_that_is_not_utf8_is_a_syntax_error(self, project, capsys):
        from repro.cli import main

        (project / "latin1.py").write_bytes(b"# caf\xe9\n" + VALVE.encode())
        module, violations = parse_project(project)
        assert [(v.code, v.lineno) for v in violations] == [("syntax-error", 1)]
        assert "latin1.py" in violations[0].message
        assert set(module.class_names()) == {"Valve", "GoodSector"}
        assert main(["check", str(project)]) == 1
        out = capsys.readouterr().out
        assert out.count("syntax-error") == 1 and "latin1.py" in out

    def test_directory_named_like_a_module_is_walked(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "pkg.py").mkdir()
        (tmp_path / "pkg.py" / "inner.py").write_text(VALVE, encoding="utf-8")
        module, violations = parse_project(tmp_path)
        assert violations == []
        assert module.class_names() == ("Valve",)
        assert main(["check", str(tmp_path)]) == 0
        assert "OK: specification verified" in capsys.readouterr().out

    def test_not_a_directory(self, tmp_path):
        target = tmp_path / "file.py"
        target.write_text(VALVE, encoding="utf-8")
        with pytest.raises(NotADirectoryError):
            parse_project(target)


class TestProjectFiles:
    def test_pycache_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = project_files(tmp_path)
        assert [f.name for f in files] == ["real.py"]

    def test_hidden_directories_skipped(self, tmp_path):
        (tmp_path / ".tox").mkdir()
        (tmp_path / ".tox" / "inner.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        assert [f.name for f in project_files(tmp_path)] == ["real.py"]

    def test_deterministic_order(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("x = 1\n")
        assert [f.name for f in project_files(tmp_path)] == ["a.py", "b.py", "c.py"]

    TREE = (
        "a.py", "a/b.py", "a.b/c.py", "a-b/d.py", "a/z/e.py", "b.py",
        ".hidden.py", ".py", "notes.txt", "x.pyc", "lib/.tox/f.py",
        "lib/g.py", "lib/__pycache__/h.py", "venv/i.py", ".venv/j.py",
        "node_modules/k.py", ".git/l.py", ".hg/m.py", "deep/er/n.py",
        "deep/.cache/o.py", "Z.py", "_.py", "Main.PY",
    )

    def test_matches_a_filtered_rglob(self, tmp_path):
        """The pruned walk lists exactly what filtering every ``*.py``
        under the root lists, in the same (path-parts) order: ``a/b.py``
        before ``a.b/c.py``, which string order would swap."""
        for relative in self.TREE:
            (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relative).write_text("x = 1\n")
        os.symlink(tmp_path / "lib", tmp_path / "link")
        os.symlink(tmp_path / "b.py", tmp_path / "alias.py")
        skipped = {"__pycache__", ".git", ".hg", "venv", ".venv", "node_modules"}
        expected = [
            path
            for path in sorted(tmp_path.rglob("*.py"))
            if not any(
                part.startswith(".") or part in skipped
                for part in path.relative_to(tmp_path).parts[:-1]
            )
            and not path.name.startswith(".")
        ]
        files = project_files(tmp_path)
        assert files == expected
        assert [str(f.relative_to(tmp_path)) for f in files][:4] == [
            "Z.py", "_.py", "a/b.py", "a/z/e.py",
        ]
        assert project_files(str(tmp_path) + "/") == expected
        assert project_files(tmp_path / "missing") == []

    def test_suffix_follows_the_platform_case_rule(self, tmp_path, monkeypatch):
        """Where the platform folds case (Windows), ``Main.PY`` is a
        module, as ``rglob`` matches it there; the native rule is checked
        against ``rglob`` above."""
        for name in ("Main.PY", "b.py"):
            (tmp_path / name).write_text("x = 1\n")
        monkeypatch.setattr(os.path, "normcase", str.lower)
        assert {f.name for f in project_files(tmp_path)} == {"Main.PY", "b.py"}

    def test_skipped_trees_are_never_entered(self, tmp_path, monkeypatch):
        for relative in self.TREE:
            (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relative).write_text("x = 1\n")
        entered = []
        real_scandir = os.scandir

        def recording_scandir(path="."):
            entered.append(Path(path).relative_to(tmp_path).parts)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", recording_scandir)
        project_files(tmp_path)
        assert sorted(entered) == [
            (), ("a",), ("a", "z"), ("a-b",), ("a.b",), ("deep",),
            ("deep", "er"), ("lib",),
        ]


class TestCliDirectorySupport:
    def test_check_accepts_directory(self, project, capsys):
        from repro.cli import main

        assert main(["check", str(project)]) == 0
        assert "OK: specification verified" in capsys.readouterr().out

    def test_report_accepts_directory(self, project, capsys):
        from repro.cli import main

        assert main(["report", str(project)]) == 0
        out = capsys.readouterr().out
        assert "## class `Valve`" in out
        assert "## class `GoodSector`" in out


class TestParseMemoInProjects:
    def test_duplicate_class_messages_name_the_right_paths_on_memo_hits(
        self, tmp_path
    ):
        for name in ("a_drivers.py", "m_drivers.py", "z_drivers.py"):
            (tmp_path / name).write_text(VALVE, encoding="utf-8")
        first = parse_project(tmp_path)
        again = parse_project(tmp_path)  # every file is a memo hit now
        for _module, violations in (first, again):
            assert [v.message for v in violations] == [
                f"@sys class Valve defined in both {tmp_path / 'a_drivers.py'} "
                f"and {tmp_path / name}"
                for name in ("m_drivers.py", "z_drivers.py")
            ]
        assert first[0].classes == again[0].classes

"""Multi-file project parsing and checking."""

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

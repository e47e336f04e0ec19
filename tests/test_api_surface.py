"""API-surface and small-gap coverage: error paths, helper accessors and
defaults that the focused suites do not reach."""

import pytest


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_exports_resolve(self):
        import repro.automata
        import repro.core
        import repro.frontend
        import repro.lang
        import repro.ltlf
        import repro.micropython
        import repro.mine
        import repro.nusmv
        import repro.regex
        import repro.runtime
        import repro.serve
        import repro.testing
        import repro.viz
        import repro.workloads

        for module in (
            repro.automata,
            repro.core,
            repro.frontend,
            repro.lang,
            repro.ltlf,
            repro.micropython,
            repro.mine,
            repro.nusmv,
            repro.regex,
            repro.runtime,
            repro.serve,
            repro.testing,
            repro.viz,
            repro.workloads,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module.__name__, name)

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestMonitorErrorPaths:
    def test_monitoring_non_sys_class_fails(self):
        from repro.runtime.monitor import MonitorError, monitored

        class Plain:
            def method(self):
                return []

        with pytest.raises(MonitorError):
            monitored(Plain)

    def test_spec_naming_missing_method_fails(self):
        from repro.core.spec import ClassSpec
        from repro.frontend.parse import parse_module
        from repro.runtime.monitor import MonitorError, monitored

        module, _ = parse_module(
            "@sys\n"
            "class Ghost:\n"
            "    @op_initial_final\n"
            "    def vanish(self):\n"
            "        return []\n"
        )
        spec = ClassSpec.of(module.get_class("Ghost"))

        class Incomplete:
            pass

        with pytest.raises(MonitorError):
            monitored(Incomplete, spec=spec)

    def test_finalize_unmonitored_instance_fails(self):
        from repro.runtime.monitor import MonitorError, finalize

        class Plain:
            pass

        with pytest.raises(MonitorError):
            finalize(Plain())


class TestParsedClassAccessors:
    def test_subsystem_lookup(self, bad_sector):
        declaration = bad_sector.subsystem("a")
        assert declaration is not None
        assert declaration.class_name == "Valve"
        assert bad_sector.subsystem("zz") is None

    def test_module_lookup_missing(self, section2_module):
        assert section2_module.get_class("Nope") is None

    def test_violation_format(self):
        from repro.frontend.model_ast import SubsetViolation

        violation = SubsetViolation(
            code="x", message="boom", lineno=3, class_name="C"
        )
        assert violation.format() == "[x] boom (line 3 in class C)"


class TestMachineDefaults:
    def test_open_drain_mode_repr(self):
        from repro.micropython.machine import OPEN_DRAIN, Pin

        assert "OPEN_DRAIN" in repr(Pin(3, OPEN_DRAIN))

    def test_signal_non_inverted_value_setter(self):
        from repro.micropython.machine import OUT, Pin, Signal

        pin = Pin(30, OUT)
        signal = Signal(pin)
        signal.value(1)
        assert pin.value() == 1

    def test_timer_uses_default_clock(self):
        from repro.micropython.timer import Timer, sleep_ms

        fired = []
        Timer().init(period=5, mode=Timer.ONE_SHOT, callback=lambda t: fired.append(1))
        sleep_ms(10)
        assert fired == [1]


class TestBehaviorHelpers:
    def test_exit_behaviors_is_shared_and_read_only(self, bad_sector):
        from repro.lang.inference import behavior, exit_behaviors

        body = bad_sector.operation("open_a").body
        assert behavior(body) == behavior(body)
        shared = exit_behaviors(body)
        assert shared is exit_behaviors(body)
        with pytest.raises(TypeError):
            shared[0] = shared[0]

    def test_format_regex_cached_and_stable(self):
        from repro.regex.ast import format_regex
        from repro.regex.parser import parse_regex

        regex = parse_regex("(a + b)* . a.open")
        assert format_regex(regex) == format_regex(regex)


class TestCheckResultHelpers:
    def test_warnings_property(self, section2_module):
        from repro.core.checker import Checker

        result = Checker(section2_module, []).check()
        assert result.errors and not result.warnings

    def test_cli_entry_point_registered(self):
        """The ``repro`` console script resolves to ``repro.cli:main``.

        Hermetic: when the distribution is installed (``pip install -e .``)
        the registered entry point is checked; otherwise the declaration
        in pyproject.toml's ``[project.scripts]`` is validated directly,
        so a plain ``PYTHONPATH=src`` checkout passes too.
        """
        import importlib.metadata as metadata
        from pathlib import Path

        from repro.cli import main

        assert callable(main)

        entry_points = metadata.entry_points()
        scripts = list(entry_points.select(group="console_scripts", name="repro"))
        if scripts:
            entry = scripts[0]
            assert entry.value == "repro.cli:main"
            assert entry.load() is main
            return

        # Not installed: validate the declaration itself.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        assert pyproject.is_file(), "pyproject.toml missing from the checkout"
        text = pyproject.read_text(encoding="utf-8")
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: no stdlib TOML parser
            import re

            match = re.search(
                r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)",
                text,
                re.MULTILINE | re.DOTALL,
            )
            assert match, "pyproject.toml declares no [project.scripts]"
            declared = dict(
                re.findall(
                    r'^\s*([\w.-]+)\s*=\s*"([^"]+)"', match.group(1), re.MULTILINE
                )
            )
        else:
            declared = tomllib.loads(text)["project"]["scripts"]
        assert declared.get("repro") == "repro.cli:main"

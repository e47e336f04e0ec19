"""The end-to-end pipeline on whole modules — golden paper verdicts."""


from repro.core.checker import check_source
from repro.paper import GOOD_MODULE, SECTION_2_MODULE, SECTOR_MODULE, VALVE


class TestPaperVerdicts:
    def test_section_2_module_fails(self):
        result = check_source(SECTION_2_MODULE)
        assert not result.ok

    def test_invalid_subsystem_usage_report(self):
        result = check_source(SECTION_2_MODULE)
        usage = result.by_code("invalid-subsystem-usage")
        assert len(usage) == 1
        assert usage[0].format() == (
            "Error in specification: INVALID SUBSYSTEM USAGE\n"
            "Counter example: open_a, a.test, a.open\n"
            "Subsystems errors:\n"
            "  * Valve 'a': test, >open< (not final)"
        )

    def test_claim_failure_report(self):
        result = check_source(SECTION_2_MODULE)
        claims = result.by_code("unmet-requirement")
        assert len(claims) == 1
        text = claims[0].format()
        assert text.startswith(
            "Error in specification: FAIL TO MEET REQUIREMENT\n"
            "Formula: (!a.open) W b.open\n"
            "Counter example: "
        )

    def test_exactly_two_errors(self):
        result = check_source(SECTION_2_MODULE)
        assert len(result.errors) == 2

    def test_good_module_verifies(self):
        result = check_source(GOOD_MODULE)
        assert result.ok
        assert result.diagnostics == []
        assert result.format() == "OK: specification verified"

    def test_sector_module_verifies(self):
        assert check_source(SECTOR_MODULE).ok

    def test_valve_alone_verifies(self):
        assert check_source(VALVE).ok


class TestPipelineBehavior:
    def test_subset_violations_surface(self):
        result = check_source(
            "@sys\n"
            "class C:\n"
            "    @op_initial_final\n"
            "    def go(self):\n"
            "        try:\n"
            "            pass\n"
            "        except Exception:\n"
            "            pass\n"
            "        return []\n"
        )
        assert result.by_code("unsupported-construct")
        assert not result.ok

    def test_structural_errors_suppress_behavior_checks(self):
        # A broken spec (unknown next method) should not also produce
        # noisy usage/claim verdicts built on a meaningless automaton.
        source = VALVE + (
            "\n\n@claim(\"F v.open\")\n"
            "@sys(['v'])\n"
            "class User:\n"
            "    def __init__(self):\n"
            "        self.v = Valve()\n"
            "    @op_initial_final\n"
            "    def go(self):\n"
            "        self.v.test()\n"
            "        return ['ghost']\n"
        )
        result = check_source(source)
        assert result.by_code("unknown-next-method")
        assert not result.by_code("unmet-requirement")
        assert not result.by_code("invalid-subsystem-usage")

    def test_multiple_composites_checked_independently(self):
        source = SECTION_2_MODULE + "\n\n" + GOOD_MODULE.split("\n\n", 1)[1]
        result = check_source(source)
        # BadSector still fails; GoodSector adds nothing.
        assert len(result.by_code("invalid-subsystem-usage")) == 1

    def test_empty_module_is_ok(self):
        assert check_source("x = 1\n").ok

    def test_hierarchical_composition(self):
        """A composite (Farm) using another composite (GoodSector)."""
        source = GOOD_MODULE + (
            "\n\n@sys(['s'])\n"
            "class Farm:\n"
            "    def __init__(self):\n"
            "        self.s = GoodSector()\n"
            "    @op_initial_final\n"
            "    def water(self):\n"
            "        self.s.irrigate()\n"
            "        return []\n"
        )
        result = check_source(source)
        assert result.ok

    def test_hierarchical_misuse_detected(self):
        source = GOOD_MODULE + (
            "\n\n@sys(['s'])\n"
            "class Farm:\n"
            "    def __init__(self):\n"
            "        self.s = GoodSector()\n"
            "    @op_initial_final\n"
            "    def water(self):\n"
            "        self.s.irrigate()\n"
            "        self.s.irrigate()\n"
            "        return []\n"
        )
        result = check_source(source)
        usage = result.by_code("invalid-subsystem-usage")
        assert len(usage) == 1
        assert usage[0].counterexample == ("water", "s.irrigate", "s.irrigate")


def _sector(body: str) -> str:
    """The paper's Valve plus a one-operation composite over field ``a``."""
    return VALVE + (
        "\n\n@sys(['a'])\n"
        "class Sector:\n"
        "    def __init__(self):\n"
        "        self.a = Valve()\n"
        "        self.buf = {}\n"
        "    @op_initial_final\n"
        "    def run(self):\n" + body + "        return []\n"
    )


class TestCallPositions:
    """Misuse hidden in an assignment target, a case guard or a match
    that may match no case is reported like any other."""

    def test_call_in_assignment_target(self):
        result = check_source(_sector("        self.buf[self.a.open()] = 1\n"))
        usage = result.by_code("invalid-subsystem-usage")
        assert [d.counterexample for d in usage] == [("run", "a.open")]

    def test_call_in_case_guard(self):
        result = check_source(
            _sector(
                "        match x:\n"
                "            case 1 if self.a.open():\n"
                "                pass\n"
                "            case _:\n"
                "                pass\n"
            )
        )
        usage = result.by_code("invalid-subsystem-usage")
        assert [d.counterexample for d in usage] == [("run", "a.open")]

    def test_match_that_may_match_no_case(self):
        as_match = check_source(
            _sector(
                "        self.a.test()\n"
                "        match x:\n"
                "            case 1:\n"
                "                self.a.clean()\n"
            )
        )
        as_if = check_source(
            _sector(
                "        self.a.test()\n"
                "        if x == 1:\n"
                "            self.a.clean()\n"
            )
        )
        usage = as_match.by_code("invalid-subsystem-usage")
        assert [d.counterexample for d in usage] == [("run", "a.test")]
        assert as_match.format() == as_if.format()


class TestCheckPath:
    def test_reads_file(self, tmp_path):
        from repro.core.checker import check_path

        target = tmp_path / "module.py"
        target.write_text(GOOD_MODULE, encoding="utf-8")
        assert check_path(target).ok

"""Module parsing: annotations, subsystems, operations (on the paper's
listings and on adversarial inputs)."""

import pytest

from repro.frontend.model_ast import FrontendError, OpKind
from repro.frontend.parse import PARSE_MEMO_SIZE, _parse_source, parse_module
from repro.paper import SECTION_2_MODULE


class TestValve:
    def test_parsed_as_base_class(self, valve):
        assert not valve.is_composite
        assert valve.subsystem_fields == ()

    def test_operations_and_kinds(self, valve):
        kinds = {op.name: op.kind for op in valve.operations}
        assert kinds == {
            "test": OpKind.INITIAL,
            "open": OpKind.MIDDLE,
            "close": OpKind.FINAL,
            "clean": OpKind.FINAL,
        }

    def test_return_sets(self, valve):
        test_op = valve.operation("test")
        assert [p.next_methods for p in test_op.returns] == [("open",), ("clean",)]
        assert [p.next_methods for p in valve.operation("open").returns] == [("close",)]

    def test_non_op_methods_excluded(self, valve):
        assert valve.operation("__init__") is None


class TestBadSector:
    def test_parsed_as_composite(self, bad_sector):
        assert bad_sector.is_composite
        assert bad_sector.subsystem_fields == ("a", "b")

    def test_claims_extracted(self, bad_sector):
        assert bad_sector.claims == ("(!a.open) W b.open",)

    def test_subsystem_declarations(self, bad_sector):
        declared = {(d.field_name, d.class_name) for d in bad_sector.subsystems}
        assert declared == {("a", "Valve"), ("b", "Valve")}

    def test_operation_kinds(self, bad_sector):
        assert bad_sector.operation("open_a").kind == OpKind.INITIAL_FINAL
        assert bad_sector.operation("open_b").kind == OpKind.FINAL

    def test_calls_collected(self, bad_sector):
        assert bad_sector.operation("open_a").calls == {"a.test", "a.open", "a.clean"}
        assert bad_sector.operation("open_b").calls == {
            "b.test",
            "b.open",
            "b.clean",
            "b.close",
            "a.close",
        }

    def test_match_uses_extracted(self, bad_sector):
        uses = bad_sector.operation("open_a").match_uses
        assert len(uses) == 1
        assert uses[0].handled == (("open",), ("clean",))


class TestModuleLevel:
    def test_classes_in_source_order(self, section2_module):
        assert section2_module.class_names() == ("Valve", "BadSector")

    def test_unannotated_classes_ignored(self):
        module, violations = parse_module(
            "class Plain:\n"
            "    def method(self):\n"
            "        return 1\n"
        )
        assert module.classes == ()
        assert violations == []

    def test_syntax_error_raises_frontend_error(self):
        with pytest.raises(FrontendError):
            parse_module("class Broken(:\n    pass\n")

    def test_no_violations_on_paper_module(self):
        _module, violations = parse_module(SECTION_2_MODULE)
        assert violations == []


class TestAnnotationErrors:
    def test_sys_with_non_literal_list(self):
        _module, violations = parse_module(
            "@sys(fields)\n"
            "class C:\n"
            "    pass\n"
        )
        assert any(v.code == "bad-annotation" for v in violations)

    def test_sys_with_two_arguments(self):
        _module, violations = parse_module(
            "@sys(['a'], ['b'])\n"
            "class C:\n"
            "    pass\n"
        )
        assert any(v.code == "bad-annotation" for v in violations)

    def test_claim_with_non_literal(self):
        _module, violations = parse_module(
            "@claim(formula)\n"
            "@sys\n"
            "class C:\n"
            "    pass\n"
        )
        assert any(v.code == "bad-annotation" for v in violations)

    def test_op_on_class_rejected(self):
        _module, violations = parse_module(
            "@op_initial\n"
            "class C:\n"
            "    pass\n"
        )
        assert any("applies to methods" in v.message for v in violations)

    def test_two_op_decorators_on_one_method(self):
        _module, violations = parse_module(
            "@sys\n"
            "class C:\n"
            "    @op_initial\n"
            "    @op_final\n"
            "    def m(self):\n"
            "        return []\n"
        )
        assert any("more than one @op" in v.message for v in violations)

    def test_operation_without_return(self):
        module, violations = parse_module(
            "@sys\n"
            "class C:\n"
            "    @op_initial\n"
            "    def m(self):\n"
            "        pass\n"
        )
        assert any(v.code == "missing-return" for v in violations)
        assert module.get_class("C").operation("m") is not None

    def test_declared_subsystem_never_assigned(self):
        _module, violations = parse_module(
            "@sys(['a'])\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    @op_initial_final\n"
            "    def m(self):\n"
            "        return []\n"
        )
        assert any(v.code == "unknown-subsystem" for v in violations)

    def test_dotted_decorator_names_recognised(self):
        module, violations = parse_module(
            "import shelley\n"
            "@shelley.sys\n"
            "class C:\n"
            "    @shelley.op_initial_final\n"
            "    def m(self):\n"
            "        return []\n"
        )
        assert violations == []
        assert module.get_class("C") is not None
        assert module.get_class("C").operation("m").kind == OpKind.INITIAL_FINAL


class TestParseMemo:
    """Each distinct source text is parsed once per process; callers
    still get their own module, name and violations list."""

    def test_memo_is_bounded(self):
        assert _parse_source.cache_info().maxsize == PARSE_MEMO_SIZE

    def test_same_text_under_two_names(self):
        first, first_violations = parse_module(SECTION_2_MODULE, "a.py")
        hits = _parse_source.cache_info().hits
        second, second_violations = parse_module(SECTION_2_MODULE, "b.py")
        assert _parse_source.cache_info().hits == hits + 1
        assert second.classes == first.classes
        assert (first.source_name, second.source_name) == ("a.py", "b.py")
        assert first_violations is not second_violations

    def test_violations_list_is_the_callers_own(self):
        source = "@sys(fields)\nclass C:\n    pass\n"
        _module, violations = parse_module(source)
        assert [v.code for v in violations] == ["bad-annotation"]
        violations.clear()
        _module, again = parse_module(source)
        assert [v.code for v in again] == ["bad-annotation"]

    def test_syntax_error_names_the_callers_file(self):
        broken = "@sys\nclass Broken(:\n    pass\n"
        with pytest.raises(FrontendError) as first:
            parse_module(broken, "first.py")
        assert "first.py" in str(first.value)
        with pytest.raises(FrontendError) as second:
            parse_module(broken, "second.py")
        assert "second.py" in str(second.value)
        assert "first.py" not in str(second.value)
        assert second.value.violations[0].lineno == 2

    def test_check_source_twice_is_byte_identical(self):
        from repro.core.checker import check_source

        source = SECTION_2_MODULE  # BadSector: real diagnostics
        _parse_source.cache_clear()
        cold = check_source(source, "m.py").format()
        warm = check_source(source, "m.py").format()
        assert _parse_source.cache_info().hits >= 1
        assert warm == cold
        assert "INVALID SUBSYSTEM USAGE" in cold

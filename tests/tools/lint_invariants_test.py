#!/usr/bin/env python3
"""Unit tests for tools/lint_invariants.py.

Each rule gets a violating fixture tree and a clean one, built in a temp
directory, so the linter's parsing (paren-balanced CMake statements,
${VAR} resolution, waiver tags) is pinned independently of this repo's
current state. Run directly or via ctest (LintInvariantsSelfTest).
"""

import importlib.util
import json
import sys
import tempfile
import unittest
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent.parent / "tools"
_SPEC = importlib.util.spec_from_file_location(
    "lint_invariants", _TOOLS / "lint_invariants.py"
)
lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint)


class FixtureTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, content):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        return path

    def rules_fired(self):
        return sorted({rule for rule, _, _ in lint.run(self.root)})


class Avx2IsolationTest(FixtureTest):
    def test_per_file_property_on_the_dedicated_tu_is_allowed(self):
        self.write(
            "CMakeLists.txt",
            "check_cxx_compiler_flag(-mavx2 HAS_MAVX2)\n"
            "set_source_files_properties(src/xml/simd_scan_avx2.cc\n"
            '    PROPERTIES COMPILE_OPTIONS "-mavx2")\n',
        )
        self.assertEqual(self.rules_fired(), [])

    def test_global_flag_is_flagged(self):
        self.write("CMakeLists.txt", "add_compile_options(-mavx2)\n")
        self.assertIn("avx2-isolation", self.rules_fired())

    def test_per_file_property_on_another_tu_is_flagged(self):
        self.write(
            "CMakeLists.txt",
            "set_source_files_properties(src/xml/sax_parser.cc\n"
            '    PROPERTIES COMPILE_OPTIONS "-mavx2")\n',
        )
        self.assertIn("avx2-isolation", self.rules_fired())

    def test_target_compile_options_is_flagged(self):
        self.write(
            "cmake/extra.cmake", "target_compile_options(core PRIVATE -mavx2)\n"
        )
        self.assertIn("avx2-isolation", self.rules_fired())


class CtestTimeoutTest(FixtureTest):
    def test_add_test_with_timeout_properties_is_clean(self):
        self.write(
            "CMakeLists.txt",
            "add_test(NAME Smoke COMMAND smoke)\n"
            "set_tests_properties(Smoke PROPERTIES TIMEOUT 60)\n",
        )
        self.assertEqual(self.rules_fired(), [])

    def test_add_test_without_timeout_is_flagged(self):
        self.write("CMakeLists.txt", "add_test(NAME Smoke COMMAND smoke)\n")
        self.assertIn("ctest-timeout", self.rules_fired())

    def test_discover_tests_resolves_variable_indirection(self):
        # The repo's real pattern: TIMEOUT lives in a set() variable that is
        # spliced into gtest_discover_tests(PROPERTIES ${VAR}).
        self.write(
            "CMakeLists.txt",
            "set(PROPS TIMEOUT 300)\n"
            "gtest_discover_tests(foo_test PROPERTIES ${PROPS})\n",
        )
        self.assertEqual(self.rules_fired(), [])

    def test_discover_tests_without_timeout_is_flagged(self):
        self.write(
            "CMakeLists.txt",
            "set(PROPS PROCESSORS 4)\n"
            "gtest_discover_tests(foo_test PROPERTIES ${PROPS})\n",
        )
        self.assertIn("ctest-timeout", self.rules_fired())

    def test_generated_build_trees_are_ignored(self):
        self.write(
            "build-tsan/foo[1]_include.cmake",
            "add_test(NAME foo_NOT_BUILT COMMAND oops)\n",
        )
        self.assertEqual(self.rules_fired(), [])


class RelaxedConfinementTest(FixtureTest):
    RELAXED = (
        "#include <atomic>\n"
        "std::atomic<int> v;\n"
        "int f() { return v.load(std::memory_order_relaxed); }\n"
    )

    def test_obs_files_are_exempt_by_location(self):
        self.write("src/obs/metrics.cc", self.RELAXED)
        self.assertEqual(self.rules_fired(), [])

    def test_unwaived_use_elsewhere_is_flagged(self):
        self.write("src/service/queue.cc", self.RELAXED)
        self.assertIn("relaxed-confinement", self.rules_fired())

    def test_waiver_tag_with_reason_is_honored(self):
        self.write(
            "src/service/queue.cc",
            "// lint: relaxed-ok(single-writer counter)\n" + self.RELAXED,
        )
        self.assertEqual(self.rules_fired(), [])

    def test_waiver_without_reason_is_not_honored(self):
        self.write(
            "src/service/queue.cc", "// lint: relaxed-ok()\n" + self.RELAXED
        )
        self.assertIn("relaxed-confinement", self.rules_fired())


class IostreamHeaderTest(FixtureTest):
    def test_iostream_in_src_header_is_flagged(self):
        self.write("src/common/log.h", "#include <iostream>\n")
        self.assertIn("iostream-free-headers", self.rules_fired())

    def test_iostream_in_cc_or_outside_src_is_allowed(self):
        self.write("src/common/log.cc", "#include <iostream>\n")
        self.write("tools/dump.h", "#include <iostream>\n")
        self.assertEqual(self.rules_fired(), [])

    def test_ostream_is_not_confused_with_iostream(self):
        self.write("src/common/log.h", "#include <ostream>\n")
        self.assertEqual(self.rules_fired(), [])


class BenchBaselineTest(FixtureTest):
    def _baseline(self, build_type):
        return json.dumps(
            {"context": {"vitex_build_type": build_type}, "benchmarks": []}
        )

    def test_release_baseline_is_clean(self):
        self.write("bench/baseline/BENCH_sax.json", self._baseline("Release"))
        self.assertEqual(self.rules_fired(), [])

    def test_debug_baseline_is_flagged(self):
        self.write("bench/baseline/BENCH_sax.json", self._baseline("Debug"))
        self.assertIn("bench-baseline-release", self.rules_fired())

    def test_missing_stamp_is_flagged(self):
        self.write(
            "bench/baseline/BENCH_sax.json",
            json.dumps({"context": {}, "benchmarks": []}),
        )
        self.assertIn("bench-baseline-release", self.rules_fired())

    def test_unparseable_baseline_is_flagged(self):
        self.write("bench/baseline/BENCH_sax.json", "{not json")
        self.assertIn("bench-baseline-release", self.rules_fired())


class ResetOkTest(FixtureTest):
    def test_clear_on_stamped_container_is_flagged(self):
        self.write(
            "src/twigm/candidate_store.h",
            "void Reset() {\n  slots_.clear();\n  free_list_.clear();\n}\n",
        )
        fired = lint.run(self.root)
        self.assertEqual(
            [rule for rule, _, _ in fired], ["reset-ok", "reset-ok"]
        )

    def test_waived_clear_is_allowed(self):
        self.write(
            "src/twigm/multi_query.cc",
            "void Shutdown() {\n"
            "  seen_.clear();  // lint: reset-ok(engine teardown, not a "
            "document reset)\n"
            "}\n",
        )
        self.assertEqual(self.rules_fired(), [])

    def test_node_stack_clear_is_flagged(self):
        self.write(
            "src/twigm/machine.cc",
            "void TwigMachine::Reset() {\n"
            "  for (auto& node : nodes_) node.stack.clear();\n"
            "}\n",
        )
        self.assertIn("reset-ok", self.rules_fired())

    def test_unstamped_containers_are_not_flagged(self):
        self.write(
            "src/twigm/machine.cc",
            "void F() {\n"
            "  completed_fragment_.clear();\n"
            "  e.candidates.clear();\n"
            "  targets_.clear();\n"
            "}\n",
        )
        self.assertEqual(self.rules_fired(), [])

    def test_outside_twigm_is_not_flagged(self):
        self.write("src/service/sink.cc", "void F() { slots_.clear(); }\n")
        self.assertEqual(self.rules_fired(), [])


class CliTest(FixtureTest):
    def test_exit_codes_and_report_shape(self):
        self.write("CMakeLists.txt", "add_test(NAME Smoke COMMAND smoke)\n")
        self.assertEqual(lint.main(["--root", str(self.root)]), 1)
        (self.root / "CMakeLists.txt").write_text(
            "add_test(NAME Smoke COMMAND smoke)\n"
            "set_tests_properties(Smoke PROPERTIES TIMEOUT 60)\n"
        )
        self.assertEqual(lint.main(["--root", str(self.root)]), 0)


if __name__ == "__main__":
    sys.exit(unittest.main())

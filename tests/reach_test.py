#!/usr/bin/env python3
"""Self-test for tools/reach.py: the name normalisation on demangled
symbols, the whole lint on a two-file fixture library linked the way the
real check links the tree (-O0 -ffunction-sections, --gc-sections), and the
field lint (--fields) on a fixture source tree.

Usage: tests/reach_test.py CXX_COMPILER
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import reach  # noqa: E402

CXX = "c++"

LIBRARY = """
namespace aeq::fixture {
int used(int x) { return x + 1; }
int unused(int x) { return x * 2; }
template <typename T>
struct Box {
  T get() const { return value; }
  T value;
};
int boxed_int() { return Box<int>{3}.get(); }
double boxed_double() { return Box<double>{1.5}.get(); }
namespace {
int helper() { return 7; }
}  // namespace
int seam() { return helper(); }
}  // namespace aeq::fixture
"""

MAIN = """
namespace aeq::fixture {
int used(int x);
int boxed_int();
}  // namespace aeq::fixture
int main() { return aeq::fixture::used(aeq::fixture::boxed_int()) == 4 ? 0 : 1; }
"""

# Everything in LIBRARY that main() does not reach. Box<double>::get is
# unreached too, but Box<int>::get is not, so the member is not reported.
FIXTURE_ALLOWLIST = [
    (r"^aeq::fixture::unused\(int\)$", "fixture"),
    (r"^aeq::fixture::boxed_double\(\)$", "fixture"),
    (r"^aeq::fixture::seam\(\)$", "fixture"),
    (r"^aeq::fixture::\{anonymous\}::helper\(\)$", "fixture"),
]


class ReachKeyTest(unittest.TestCase):
    def test_plain_function_keeps_its_signature(self):
        self.assertEqual(
            reach.reach_key("aeq::stats::Histogram::add(double, unsigned long)"),
            "aeq::stats::Histogram::add(double, unsigned long)")

    def test_template_members_share_one_key(self):
        self.assertEqual(
            reach.reach_key("aeq::util::FlatMap64<unsigned long>::"
                            "operator[](unsigned long)"),
            "aeq::util::FlatMap64<>::operator[]")
        self.assertEqual(
            reach.reach_key("void aeq::util::InlineFunction<void (), 96ul>::"
                            "invoke_impl<aeq::Foo::bar()::{lambda()#1}>"
                            "(void*)"),
            "aeq::util::InlineFunction<>::invoke_impl<>")

    def test_lambda_folds_into_its_enclosing_function(self):
        self.assertEqual(
            reach.reach_key("aeq::Foo::bar(int) const::{lambda()#1}::"
                            "operator()() const"),
            "aeq::Foo::bar(int) const")

    def test_operators_do_not_nest(self):
        self.assertEqual(
            reach.reach_key("bool aeq::X::operator<(aeq::X const&) const"),
            "aeq::X::operator<(aeq::X const&) const")
        self.assertEqual(
            reach.reach_key("std::ostream& aeq::operator<< <int>"
                            "(std::ostream&, int)"),
            "aeq::operator<< <>")

    def test_std_instantiations_keep_their_namespace(self):
        self.assertTrue(reach.reach_key(
            "std::vector<aeq::net::Packet, std::allocator<aeq::net::Packet> >"
            "::push_back(aeq::net::Packet const&)").startswith("std::"))


class FixtureLintTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        root = cls.tmp.name
        targets = {"src/fixture": "aeq_fixture", "app": "app",
                   "tests": "never_built_test"}
        listing = []
        for directory, name in targets.items():
            os.makedirs(os.path.join(root, directory, "CMakeFiles"))
            listing.append(os.path.join(root, directory, "CMakeFiles",
                                        name + ".dir"))
        os.makedirs(os.path.join(root, "CMakeFiles"))
        with open(os.path.join(root, "CMakeFiles",
                               "TargetDirectories.txt"), "w") as fh:
            fh.write("\n".join(listing) + "\n")

        def compile_to(source, obj):
            path = os.path.join(root, obj + ".cc")
            with open(path, "w") as fh:
                fh.write(source)
            subprocess.run([CXX, "-std=c++20", "-O0", "-ffunction-sections",
                            "-c", path, "-o", os.path.join(root, obj + ".o")],
                           check=True)
            return os.path.join(root, obj + ".o")

        lib = compile_to(LIBRARY, "lib")
        main = compile_to(MAIN, "main")
        archive = os.path.join(root, "src/fixture/libaeq_fixture.a")
        subprocess.run(["ar", "rcs", archive, lib], check=True)
        subprocess.run([CXX, "-Wl,--gc-sections", main, archive, "-o",
                        os.path.join(root, "app", "app")], check=True)
        cls.build = root

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def lint(self, allowlist):
        saved = reach.ALLOWLIST
        reach.ALLOWLIST = allowlist
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = reach.main([self.build])
        finally:
            reach.ALLOWLIST = saved
        return status, out.getvalue()

    def test_targets_skip_tests(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            reach.main([self.build, "--targets"])
        self.assertEqual(out.getvalue().split(), ["aeq_fixture", "app"])

    def test_clean_when_everything_unreached_is_allowed(self):
        status, out = self.lint(FIXTURE_ALLOWLIST)
        self.assertEqual(status, 0, out)
        self.assertNotIn("Box", out)
        self.assertNotIn("aeq::fixture::used(", out)

    def test_fires_on_an_uncalled_function(self):
        status, out = self.lint(FIXTURE_ALLOWLIST[1:])
        self.assertEqual(status, 1, out)
        self.assertIn("UNREACHED  libaeq_fixture.a(lib.o)  "
                      "aeq::fixture::unused(int)", out)

    def test_fires_on_a_stale_allowlist_entry(self):
        status, out = self.lint(
            FIXTURE_ALLOWLIST + [(r"^aeq::fixture::used\(", "stale")])
        self.assertEqual(status, 1, out)
        self.assertIn("STALE", out)


# A source tree for --fields. Two structs have a field named mtu_bytes;
# only StackConfig's is set (from TransportConfig's), so TransportConfig::
# mtu_bytes is unset although a grep on the name finds writes. Each of
# seed, weights and depth has exactly one write, of one form.
FIELD_TREE = {
    "src/fixture/config.h": """
#include <vector>
namespace aeq::fixture {
struct TransportConfig {
  unsigned mtu_bytes = 4096;
  double min_rto = 1.0;
};
struct StackConfig {
  unsigned mtu_bytes = 4096;
  int num_qos = 3;
};
struct QueueSpec {
  std::vector<double> weights;
  int depth = 0;
};
struct RunConfig {
  TransportConfig transport;
  StackConfig stack;
  QueueSpec queue;
  int seed = 1;
  int unused = 0;
  int test_only = 0;
  int run() const { return seed; }
};
}  // namespace aeq::fixture
""",
    "src/fixture/run.cc": """
#include "fixture/config.h"
namespace aeq::fixture {
StackConfig stack_of(const RunConfig& config) {
  StackConfig stack;
  stack.mtu_bytes = config.transport.mtu_bytes;  // "mtu_bytes =" in a grep
  return stack;
}
}  // namespace aeq::fixture
""",
    "bench/app.cc": """
#include "fixture/config.h"
int main() {
  aeq::fixture::RunConfig config;
  config.seed = 7;
  config.transport.min_rto += 1.0;
  config.queue.weights.push_back(1.0);
  aeq::fixture::QueueSpec spec{.depth = 4};
  aeq::fixture::StackConfig stack;
  stack.num_qos = 2;
  config.stack = stack;
  return config.run() + spec.depth;
}
""",
    "tests/config_test.cc": """
#include "fixture/config.h"
void seam() {
  aeq::fixture::RunConfig config;
  config.test_only = 1;
  config.unused = 0;  // a test write: not enough
}
""",
}

FIELD_FIXTURE_ALLOWLIST = [
    (r"^RunConfig::unused$", "fixture"),
    (r"^RunConfig::test_only$", "fixture"),
    (r"^TransportConfig::mtu_bytes$", "fixture"),
]


class FieldLintTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        for path, text in FIELD_TREE.items():
            full = os.path.join(cls.tmp.name, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as fh:
                fh.write(text)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def lint(self, allowlist):
        saved = reach.FIELD_ALLOWLIST
        reach.FIELD_ALLOWLIST = allowlist
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = reach.main(["--fields", self.tmp.name])
        finally:
            reach.FIELD_ALLOWLIST = saved
        return status, out.getvalue()

    def test_clean_when_every_unset_field_is_allowed(self):
        status, out = self.lint(FIELD_FIXTURE_ALLOWLIST)
        self.assertEqual(status, 0, out)
        self.assertIn("4 structs, 12 fields, 0 unset, 3 allowed", out)

    def test_reports_a_field_nothing_writes(self):
        status, out = self.lint(FIELD_FIXTURE_ALLOWLIST[1:])
        self.assertEqual(status, 1, out)
        self.assertIn("UNSET      src/fixture/config.h:21  RunConfig::unused  "
                      "(written only by tests/config_test.cc:6)", out)

    def test_reports_a_field_only_tests_write(self):
        status, out = self.lint(FIELD_FIXTURE_ALLOWLIST[:1] +
                                FIELD_FIXTURE_ALLOWLIST[2:])
        self.assertEqual(status, 1, out)
        self.assertIn("UNSET      src/fixture/config.h:22  "
                      "RunConfig::test_only  "
                      "(written only by tests/config_test.cc:5)", out)

    def test_assignment_push_back_and_designated_initializer_clear(self):
        _, out = self.lint([])
        for field in ("RunConfig::seed", "QueueSpec::weights",
                      "QueueSpec::depth", "TransportConfig::min_rto",
                      "StackConfig::num_qos", "RunConfig::transport",
                      "RunConfig::queue", "RunConfig::stack"):
            self.assertNotIn(field, out)

    def test_name_collision_resolves_through_declared_types(self):
        status, out = self.lint(FIELD_FIXTURE_ALLOWLIST[:2])
        self.assertEqual(status, 1, out)
        self.assertIn("UNSET      src/fixture/config.h:5  "
                      "TransportConfig::mtu_bytes", out)
        self.assertNotIn("StackConfig::mtu_bytes", out)

    def test_fires_on_a_stale_allowlist_entry(self):
        status, out = self.lint(FIELD_FIXTURE_ALLOWLIST +
                                [(r"^RunConfig::seed$", "stale")])
        self.assertEqual(status, 1, out)
        self.assertIn("STALE      field allowlist entry matches no unset "
                      "field: ^RunConfig::seed$", out)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        CXX = sys.argv.pop(1)
    unittest.main()

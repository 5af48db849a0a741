#!/usr/bin/env python3
"""reach — link-reachability lint for the Aequitas simulator libraries.

Every function in the src/ libraries should be reachable from some shipped
executable: the fig/abl benches, micro_core, the examples and aequitas_sim
(every executable target outside tests/). A function only the
unit tests call is dead weight the simulator carries and maintains. This lint
finds such functions mechanically, from a build in which the linker discards
whatever nothing references:

  cmake -B build-reach -S . -DCMAKE_BUILD_TYPE=Debug \\
    -DCMAKE_CXX_FLAGS="-O0 -g0 -ffunction-sections" \\
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
  cmake --build build-reach -j --target $(tools/reach.py build-reach --targets)
  tools/reach.py build-reach

-O0 keeps every call a call (nothing is inlined away), -ffunction-sections
puts each function in its own section, and --gc-sections drops each section
no executable references. The lint then diffs the functions (nm types
T/t/W/w, demangled) defined in the src/ archives against the union of those
that survive in the shipped executables.

What it reports: functions whose qualified name starts with `aeq::`.
Instantiations of std:: templates belong to their callers. Lambdas and local
classes fold into their enclosing function. A member of a class template
(or a function template) is reported only if no instantiation of it is
reached: its template arguments and parameter list are erased before the
comparison.

What it cannot see:
  - branches that link but never run (a config field nothing sets still
    keeps the code it guards alive);
  - header-inline functions and templates that no translation unit emits
    (nothing to diff: neither side defines them);
  - virtual functions kept alive by a vtable: constructing an object
    references its vtable, which references every virtual override, called
    or not.

Allowlist: ALLOWLIST below holds one regex per entry, searched in the
reported name, each with the reason the function may stay. An entry that
matches nothing unreached is stale and fails the run too, so a lint that
silently stopped finding anything would fail on its own allowlist.

Usage:
  tools/reach.py BUILD_DIR --targets   # shipped targets, for cmake --build
  tools/reach.py BUILD_DIR             # the lint
Exit status: 0 clean, 1 unreached functions or stale allowlist entries,
2 usage/environment error.
"""

import argparse
import functools
import os
import re
import subprocess
import sys

# (regex, reason). Keep each reason to the point of why the function stays.
ALLOWLIST = [
    (r"^aeq::sim::Simulator::pending_events\(",
     "test seam: scheduler tests assert on the pending-event count"),
    (r"^aeq::sim::ShardedSimulator::pending_events\(",
     "test seam: sharded-executive tests assert on the pending-event count"),
    (r"^aeq::obs::CsvSink::CsvSink\(std::ostream\*\)$",
     "test seam: golden CSV tests write into a stringstream"),
    (r"^aeq::obs::TimeseriesSink::TimeseriesSink\(aeq::obs::TimeseriesConfig "
     r"const&, std::ostream\*, std::ostream\*\)$",
     "test seam: golden timeseries tests write into stringstreams"),
    (r"^aeq::audit::(Auditor::report\(|Report::)",
     "how the tests see an audit: per-check evaluation counts"),
    (r"^aeq::analysis::delay_high_infinite_weight\(",
     "reference implementation: the Eq 4 closed form that "
     "WfqDelayTest.InfiniteWeightLimit checks delay_high against"),
    (r"^aeq::sim::ShardedSimulator::events_processed\(",
     "read through Experiment::events_processed by benchmark/aeq_bench.cc "
     "for sim.events; that target is built outside this tree"),
]

# CMake's own per-directory utility targets; everything else listed in
# CMakeFiles/TargetDirectories.txt is a library or executable of this tree.
CMAKE_UTILITY_TARGETS = {
    "test", "edit_cache", "rebuild_cache", "install", "install/local",
    "install/strip", "list_install_components", "package", "package_source",
}

TEXT_TYPES = {"T", "t", "W", "w"}
OPEN = "<({["
CLOSE = ">)}]"
OPERATOR_CHARS = set("<>=!+-*/%^&|~,")


def shipped_targets(build_dir):
    """(name, directory) of every library/executable target outside tests/,
    read from the configured build tree."""
    listing = os.path.join(build_dir, "CMakeFiles", "TargetDirectories.txt")
    if not os.path.exists(listing):
        raise FileNotFoundError(
            "%s missing: configure first (cmake -B %s -S .)"
            % (listing, build_dir))
    root = os.path.abspath(build_dir)
    targets = []
    with open(listing) as fh:
        for line in fh:
            path = line.strip()
            if not path.endswith(".dir"):
                continue
            cmakefiles = os.path.dirname(path)  # <directory>/CMakeFiles
            name = os.path.basename(path)[:-len(".dir")]
            directory = os.path.relpath(os.path.dirname(cmakefiles), root)
            if name in CMAKE_UTILITY_TARGETS:
                continue
            if directory == "tests" or directory.startswith("tests" + os.sep):
                continue
            targets.append((name, directory))
    return targets


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as fh:
        return fh.read(4) == b"\x7fELF"


def defined_functions(path):
    """{demangled name: object member} of the text symbols defined in an
    archive or executable that mention aeq:: at all."""
    out = subprocess.run(["nm", "--defined-only", "-C", "-A", path],
                         check=True, capture_output=True, text=True).stdout
    prefix = path + ":"
    functions = {}
    for line in out.splitlines():
        if not line.startswith(prefix):
            continue
        rest = line[len(prefix):]
        member = ""
        if path.endswith(".a"):
            member, _, rest = rest.partition(":")
        parts = rest.split(" ", 2)
        if len(parts) != 3 or parts[1] not in TEXT_TYPES:
            continue
        if "aeq::" in parts[2]:
            functions.setdefault(parts[2], member)
    return functions


def _scan(name):
    """Yields (index, char, depth, kind) over `name`. `depth` is the bracket
    nesting outside the char (a bracket reports the depth it opens or closes
    at). `kind` is "bracket", "char", or "op" for the characters of an
    operator name (operator<, operator(), operator<< <T>, ...), which
    neither nest nor separate."""
    depth = 0
    i = 0
    n = len(name)
    while i < n:
        if name.startswith("operator", i) and (i == 0 or not (
                name[i - 1].isalnum() or name[i - 1] == "_")):
            j = i + len("operator")
            if name.startswith("()", j) or name.startswith("[]", j):
                j += 2
            else:
                while j < n and name[j] in OPERATOR_CHARS:
                    j += 1
                if name.startswith(" <", j):  # operator< <T>(...)
                    j += 1
            for k in range(i, j):
                yield k, name[k], depth, "op"
            i = j
            continue
        c = name[i]
        if c in CLOSE:
            depth -= 1
        yield i, c, depth, "bracket" if c in OPEN + CLOSE else "char"
        if c in OPEN:
            depth += 1
        i += 1


@functools.lru_cache(maxsize=None)  # executables share most of their symbols
def reach_key(demangled):
    """The name a function is compared and reported under.

    The return type of a function template is dropped, lambdas and local
    classes fold into their enclosing function, and for templates every
    template-argument list becomes `<>` and the parameter list is dropped,
    so all instantiations share one key."""
    name = demangled.replace("(anonymous namespace)", "{anonymous}")
    # The qualified name ends at the first top-level '('; it starts after
    # the last top-level space before that (the return type, if any).
    paren = None
    start = 0
    for i, c, depth, kind in _scan(name):
        if depth > 0 or kind == "op":
            continue
        if c == "(":
            paren = i
            break
        if c == " ":
            start = i + 1
    if paren is None:
        return name
    qualified = name[start:paren]
    # Parameter list and cv/ref qualifiers, then possibly "::{lambda...}..."
    # naming an entity local to this function: cut there.
    tail = name[paren:]
    for i, c, depth, _ in _scan(tail):
        if depth == 0 and tail.startswith("::", i):
            tail = tail[:i]
            break
    erased = []
    template = False
    for _, c, depth, kind in _scan(qualified):
        if kind == "bracket" and c in "<>" and depth == 0:
            template = True
            erased.append(c)
        elif depth == 0:
            erased.append(c)
    return "".join(erased) if template else qualified + tail


def analyse(build_dir):
    archives = []
    executables = []
    missing = []
    for name, directory in shipped_targets(build_dir):
        base = os.path.join(build_dir, directory)
        archive = os.path.join(base, "lib%s.a" % name)
        executable = os.path.join(base, name)
        if os.path.exists(archive):
            if directory == "src" or directory.startswith("src" + os.sep):
                archives.append(archive)
        elif is_elf_executable(executable):
            executables.append(executable)
        else:
            missing.append(name)
    if missing:
        raise FileNotFoundError(
            "targets not built: %s (cmake --build %s --target "
            "$(tools/reach.py %s --targets))"
            % (" ".join(sorted(missing)), build_dir, build_dir))
    if not archives or not executables:
        raise FileNotFoundError("no src/ archives or executables in %s"
                                % build_dir)

    symbols = {path: defined_functions(path)
               for path in archives + executables}
    reached = set()
    for executable in executables:
        reached.update(reach_key(f) for f in symbols[executable])
    unreached = {}  # key -> "archive(member)"
    for archive in archives:
        lib = os.path.basename(archive)
        for function, member in symbols[archive].items():
            key = reach_key(function)
            if key.startswith("aeq::") and key not in reached:
                unreached.setdefault(key, "%s(%s)" % (lib, member))
    return archives, executables, unreached


def main(argv):
    parser = argparse.ArgumentParser(prog="reach.py")
    parser.add_argument("build_dir",
                        help="a --gc-sections build of the shipped targets")
    parser.add_argument("--targets", action="store_true",
                        help="print the shipped targets and exit")
    args = parser.parse_args(argv)
    try:
        if args.targets:
            print(" ".join(name for name, _ in shipped_targets(args.build_dir)))
            return 0
        archives, executables, unreached = analyse(args.build_dir)
    except (FileNotFoundError, subprocess.CalledProcessError) as err:
        print("reach: %s" % err, file=sys.stderr)
        return 2

    allow = [(re.compile(pattern), pattern) for pattern, _ in ALLOWLIST]
    used = set()
    findings = []
    for key in sorted(unreached, key=lambda k: (unreached[k], k)):
        hits = [pattern for regex, pattern in allow if regex.search(key)]
        used.update(hits)
        if hits:
            print("allowed    %s  %s" % (unreached[key], key))
        else:
            findings.append(key)
            print("UNREACHED  %s  %s" % (unreached[key], key))
    stale = [pattern for _, pattern in allow if pattern not in used]
    for pattern in stale:
        print("STALE      allowlist entry matches nothing unreached: %s"
              % pattern)
    print("reach: %d archives, %d executables, %d unreached, %d allowed, "
          "%d stale allowlist entries"
          % (len(archives), len(executables), len(findings),
             len(unreached) - len(findings), len(stale)))
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

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
  - branches that link but never run;
  - header-inline functions and templates that no translation unit emits
    (nothing to diff: neither side defines them). To look for them, add
    -fkeep-inline-functions to the build's CXX flags, which emits every
    inline function a translation unit sees; the hits then also hold
    implicit special members and test seams, so read each one;
  - virtual functions kept alive by a vtable: constructing an object
    references its vtable, which references every virtual override, called
    or not.

Allowlist: ALLOWLIST below holds one regex per entry, searched in the
reported name, each with the reason the function may stay. An entry that
matches nothing unreached is stale and fails the run too, so a lint that
silently stopped finding anything would fail on its own allowlist.

Field mode (--fields) asks the same question of every field of every
`*Config`, `*Spec`, `*Params` and `*Options` struct in src/: does a shipped
source set it? It reads sources only (no build), lexed by detlint's
comment- and string-stripping lexer. Shipped sources are src/, bench/,
examples/ and benchmark/; writes under tests/ do not count (the report
shows where a test is a field's only writer). A write, outside the field's
declaration, is
  - an assignment, a compound assignment or an increment
    (`cfg.x = ...`, `cfg.x += ...`, `cfg.x[i] = ...`, `++cfg.x`);
  - a mutating member call (`cfg.x.push_back(...)`, `.assign`, `.resize`,
    `.insert`, ...);
  - a designated initializer (`Config{.x = ...}`).
A member chain resolves through declared types: its root's type comes from
the nearest declaration of that name before the write in the same file (a
parameter, a local, a member declared above), then each aggregate field's
declared type gives the next struct. So `stack.mtu_bytes = ...` credits
RpcStackConfig and not TransportConfig, and writing a member of an
aggregate field (`cfg.swift.beta = ...`) credits the aggregate too. Where a
chain does not resolve (a root declared `auto`, with a template type or
only below the write; a call result; a subscript; a qualified name), the
write counts for every struct with a field of that name. That fallback can
hide a finding but never invents one. The lint does not see positional
aggregate initialization (`Config{1, 2}`) or a field written through a
pointer or reference handed to a function.
FIELD_ALLOWLIST holds one `Struct::field` regex per entry, with its reason;
a stale entry fails the run as above.

Usage:
  tools/reach.py BUILD_DIR --targets   # shipped targets, for cmake --build
  tools/reach.py BUILD_DIR             # the lint
  tools/reach.py --fields [TREE]       # the field lint (default: this repo)
Exit status: 0 clean, 1 unreached functions, unset fields or stale
allowlist entries, 2 usage/environment error.
"""

import argparse
import functools
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import detlint  # noqa: E402  (field mode reuses its lexer)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (regex, reason). Keep each reason to the point of why the function stays.
ALLOWLIST = [
    (r"^aeq::sim::(Simulator::pending_events|EventStore::size|"
     r"WinnerTree::pending)\(",
     "test seam: scheduler tests assert on the pending-event count, the "
     "store's live events plus the ports' pending transitions"),
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

# (regex searched in "Struct::field", reason). One entry per field, so that
# setting a field makes exactly its own entry stale.
ITEM_1 = ("congestion-window/timeout knob: the retransmission fix "
          "(ROADMAP item 1) may set it; the rest then become constants")
FIELD_ALLOWLIST = [
    (r"^TransportConfig::initial_rtt$", ITEM_1),
    (r"^TransportConfig::min_rto$", ITEM_1),
    (r"^TransportConfig::rto_srtt_multiplier$", ITEM_1),
    (r"^TransportConfig::idle_restart_after$", ITEM_1),
    (r"^SwiftConfig::additive_increase$", ITEM_1),
    (r"^SwiftConfig::beta$", ITEM_1),
    (r"^SwiftConfig::max_mdf$", ITEM_1),
    (r"^SwiftConfig::min_cwnd$", ITEM_1),
    (r"^SwiftConfig::max_cwnd$", ITEM_1),
    (r"^SwiftConfig::restart_cwnd$", ITEM_1),
    (r"^DctcpConfig::min_cwnd$", ITEM_1),
    (r"^DctcpConfig::max_cwnd$", ITEM_1),
    (r"^DctcpConfig::initial_cwnd$", ITEM_1),
    (r"^DctcpConfig::restart_cwnd$", ITEM_1),
    (r"^ExperimentConfig::link_rate$",
     "read by benchmark/aeq_bench.cc, which is built outside this tree; a "
     "change to benchmark/ can make it a constant"),
    (r"^ExperimentConfig::audit$",
     "test seam: audit tests and the allocation test switch the sweep on "
     "and off (AuditedRuns, AllocationTest)"),
    (r"^ExperimentConfig::audit_interval$",
     "test seam: Checks.CongestionControlInvariantsPass and "
     "BaselineExperimentTest sweep more often than the default"),
    (r"^ExperimentConfig::queue_reserve_packets$",
     "test seam: AllocationTest pre-sizes packet buffers to prove a "
     "zero-allocation event loop"),
    (r"^ExperimentConfig::reserve_events$",
     "test seam: AllocationTest pre-sizes the event store to prove a "
     "zero-allocation event loop"),
    (r"^AequitasParams::p_admit_floor$",
     "test seam: AequitasTest.DecreaseFloorsAtConfiguredMinimum and "
     "AdmissionSpec.AequitasKnobsReachTheController set the floor"),
    (r"^TicketPoolConfig::initial_concurrency$",
     "test seam: the TicketPool tests start from a pool of 1, 2 or 8"),
    (r"^TicketPoolConfig::min_concurrency$",
     "test seam: TicketPool.RejectsWhenThePoolIsEmptyAndReleasesOnCompletion "
     "lets the pool shrink to 1"),
    (r"^BanditConfig::actions$",
     "test seam: Bandit.AppliesItsActionAsTheAdmitProbability and "
     "BanditDeathTest.RejectsMalformedActionSets"),
    (r"^BanditConfig::epsilon0$",
     "test seam: Bandit.AppliesItsActionAsTheAdmitProbability turns "
     "exploration off"),
    (r"^BanditConfig::epsilon_min$",
     "test seam: Bandit.AppliesItsActionAsTheAdmitProbability turns "
     "exploration off"),
    (r"^SwpPacingConfig::initial_rate_fraction$",
     "test seam: the SwpPacing tests start from 0.1, 0.5 or 0.9"),
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


# ---------------------------------------------------------------------------
# Field mode: is every config field set by some shipped source?

CONFIG_STRUCT = re.compile(r"(Config|Spec|Params|Options)$")
SHIPPED_ROOTS = ("src", "bench", "examples", "benchmark")
TEST_ROOTS = ("tests",)
IDENT = re.compile(r"[A-Za-z_]\w*$")
MUTATORS = {"push_back", "emplace_back", "assign", "resize", "insert",
            "emplace", "append", "clear", "erase", "pop_back", "swap"}
COMPOUND = set("+-*/%|&^")
# Words that can precede a name without declaring it.
NOT_A_TYPE = {
    "return", "case", "else", "do", "goto", "new", "delete", "throw",
    "sizeof", "alignof", "decltype", "co_return", "co_await", "co_yield",
    "using", "namespace", "struct", "class", "enum", "union", "typename",
    "template", "operator", "friend", "public", "private", "protected",
    "static_assert", "default", "explicit", "virtual", "override", "final",
    "noexcept", "typedef"}
DECLARATOR_END = {";", "=", "{", "(", ")", ",", ":", "["}
CLOSER = {")": "(", "]": "[", "}": "{"}
OPENER = {v: k for k, v in CLOSER.items()}


class Source:
    """One file, lexed by detlint: comments and literal bodies stripped,
    preprocessor lines dropped."""

    def __init__(self, rel, text):
        code, _ = detlint.strip_comments(text)
        tokens = detlint.tokenize(code)
        self.rel = rel
        self.words = [t for t, _ in tokens]
        self.lines = [ln for _, ln in tokens]
        self.decls = {}  # name -> [(token index, declared type)]
        for j in range(1, len(self.words) - 1):
            if IDENT.match(self.words[j]) and \
                    self.words[j + 1] in DECLARATOR_END:
                decl_type = declared_type(self.words, j)
                if decl_type:
                    self.decls.setdefault(self.words[j], []).append(
                        (j, decl_type))


def match_forward(w, i):
    """w[i] opens a bracket: the index of its match (len(w) if none)."""
    depth = 0
    for j in range(i, len(w)):
        if w[j] == w[i]:
            depth += 1
        elif w[j] == OPENER[w[i]]:
            depth -= 1
            if depth == 0:
                return j
    return len(w)


def match_backward(w, i):
    """w[i] closes a bracket: the index of its opener, or -1 when a
    statement boundary comes first."""
    depth = 0
    for j in range(i, -1, -1):
        if w[j] == w[i]:
            depth += 1
        elif w[j] == CLOSER[w[i]]:
            depth -= 1
            if depth == 0:
                return j
        elif w[j] in ("{", "}", ";"):
            return -1
    return -1


def declared_type(w, j):
    """The type name w[j] is declared with when w[j] looks like a
    declarator (`T x`, `T& x`, `const ns::T* x`), else None. Template types
    are not followed: no config struct is one."""
    k = j - 1
    while k > 0 and w[k] in ("&", "*", "const", "volatile"):
        k -= 1
    if IDENT.match(w[k]) and w[k] not in NOT_A_TYPE and \
            w[k - 1] not in (".", "->"):
        return w[k]
    return None


def top_level_paren(stmt):
    """True when `stmt` (a member declaration's tokens) has a parameter
    list before any initializer: it declares a function."""
    depth = 0
    for tok in stmt:
        if tok in ("=", "{}"):
            return False
        if tok == "<":
            depth += 1
        elif tok == ">":
            depth -= 1
        elif tok in ("(", "operator") and depth <= 0:
            return True
    return False


def data_members(stmt):
    """[(name, type name)] declared by one member statement (its tokens up
    to `;`), or [] for functions, types, aliases and static members. The
    type name is the last name outside template arguments
    (`std::vector<T>` -> "vector", `net::QueueConfig` -> "QueueConfig")."""
    if not stmt or stmt[0] in ("using", "typedef", "friend", "static",
                               "static_assert", "enum", "struct", "class",
                               "union", "template", "~"):
        return []
    if top_level_paren(stmt):
        return []
    names = []
    part = []
    depth = 0
    for tok in stmt + [","]:
        if tok == "<":
            depth += 1
        elif tok == ">":
            depth -= 1
        if depth == 0 and tok in (",", "=", "{}", ":", "["):
            if part and IDENT.match(part[-1]):
                names.append(part[-1])
            if tok != ",":
                break
            part = []
            continue
        part.append(tok)
    decl_type = None
    depth = 0
    for tok in stmt[:stmt.index(names[0])] if names else []:
        depth += (tok == "<") - (tok == ">")
        if depth == 0 and IDENT.match(tok) and tok != "const":
            decl_type = tok
    return [(name, decl_type) for name in names]


def structs_in(src):
    """Yields (name, fields) for every struct or class src defines, nested
    ones included; fields is [(field, type name, line)]."""
    w = src.words
    for i in range(len(w) - 2):
        if w[i] not in ("struct", "class") or not IDENT.match(w[i + 1]):
            continue
        if i > 0 and w[i - 1] in ("enum", "friend", "<", ","):
            continue
        j = i + 2
        if w[j] == "final":
            j += 1
        if w[j] == ":":
            while j < len(w) and w[j] not in ("{", ";", "(", "="):
                j += 1
        if j >= len(w) or w[j] != "{":
            continue
        end = match_forward(w, j)
        fields = []
        stmt = []
        k = j + 1
        while k < end:
            tok = w[k]
            if tok == "{":
                if stmt and (stmt[0] in ("struct", "class", "union", "enum")
                             or not top_level_paren(stmt)):
                    stmt.append("{}")  # nested type or brace initializer
                else:
                    stmt = []  # function body
                k = match_forward(w, k) + 1
                continue
            if tok == ";":
                for name, decl_type in data_members(stmt):
                    fields.append((name, decl_type, src.lines[k]))
                stmt = []
            elif tok == ":" and len(stmt) == 1 and stmt[0] in (
                    "public", "private", "protected"):
                stmt = []
            else:
                stmt.append(tok)
            k += 1
        yield w[i + 1], fields


def is_write(w, f):
    """True when the member access ending at w[f] is written: assigned,
    compound-assigned, incremented, subscript-assigned or mutated."""
    a = f + 1
    subscripted = False
    while a < len(w) and w[a] == "[":
        a = match_forward(w, a) + 1
        subscripted = True
    nxt = w[a:a + 3]
    if nxt[:1] == ["="] and nxt[1:2] != ["="]:
        return True
    if nxt[:1] and nxt[0] in COMPOUND and nxt[1:2] == ["="]:
        return True
    if nxt in (["<", "<", "="], [">", ">", "="]) or \
            nxt[:2] in (["+", "+"], ["-", "-"]):
        return True
    return not subscripted and len(nxt) == 3 and nxt[0] == "." and \
        nxt[1] in MUTATORS and nxt[2] == "("


def chain_ending_at(w, f):
    """(root index or None, items) of the member chain ending at w[f]
    (w[f - 1] is `.` or `->`). Items are field names, with "[]" and "()"
    marking a subscript or a call."""
    items = [w[f]]
    k = f - 2
    while k >= 0:
        if w[k] in ("]", ")"):
            m = match_backward(w, k)
            if m < 0:
                return None, items
            items.insert(0, "[]" if w[k] == "]" else "()")
            k = m - 1
        elif IDENT.match(w[k]):
            if k > 0 and w[k - 1] in (".", "->"):
                items.insert(0, w[k])
                k -= 2
            elif k > 0 and w[k - 1] == "::":
                return None, items
            else:
                return k, items
        else:
            return None, items
    return None, items


class FieldIndex:
    """Struct layouts of the shipped sources and the writes to their
    fields; `config` is the reported set, the config structs of src/."""

    def __init__(self, sources):
        self.fields = {}    # struct -> {field: type name}
        self.config = {}    # "Struct::field" -> "path:line"
        self.by_field = {}  # field -> structs that have a field of that name
        for src in sources:
            for name, fields in structs_in(src):
                layout = self.fields.setdefault(name, {})
                for field, decl_type, line in fields:
                    layout[field] = decl_type
                    self.by_field.setdefault(field, set()).add(name)
                    if CONFIG_STRUCT.search(name) and \
                            src.rel.startswith("src/"):
                        self.config["%s::%s" % (name, field)] = \
                            "%s:%d" % (src.rel, line)

    def writes(self, src):
        """[(struct or None, field, line)] of every write in src; None where
        the write does not resolve to one struct."""
        w = src.words
        found = []
        for f in range(2, len(w) - 2):
            if not IDENT.match(w[f]) or w[f - 1] not in (".", "->"):
                continue
            line = src.lines[f]
            if w[f - 1] == "." and w[f - 2] in ("{", ",") and \
                    w[f + 1] in ("=", "{"):
                struct = self.designated_struct(w, f - 1)
                if w[f] not in self.fields.get(struct, {}):
                    struct = None
                found.append((struct, w[f], line))
                continue
            root, items = chain_ending_at(w, f)
            pre_increment = root is not None and w[f + 1] not in (".", "->") \
                and w[root - 2:root] in (["+", "+"], ["-", "-"])
            if is_write(w, f) or pre_increment:
                found.extend((s, name, line)
                             for s, name in self.walk(src, root, items))
        return found

    def walk(self, src, root, items):
        """[(struct or None, field)] for every field a member chain passes
        through, following declared types from the root's nearest
        preceding declaration."""
        current = None
        if root is not None:
            hits = [t for j, t in src.decls.get(src.words[root], ())
                    if j < root]
            current = hits[-1] if hits else None
        credited = []
        for n, name in enumerate(items):
            if name in ("[]", "()") or (n + 1 < len(items) and
                                        items[n + 1] == "()"):
                current = None  # an element, a call result, or a method
                continue
            if name in self.fields.get(current, {}):
                credited.append((current, name))
                current = self.fields[current][name]
            else:
                credited.append((None, name))
                current = None
        return credited

    def designated_struct(self, w, dot):
        """Struct initialised by the braced list holding designator `dot`
        (`T{.x = ...}`, `T t{.x = ...}`, `T t = {.x = ...}`), or None."""
        k = dot - 1
        while k > 0 and w[k] != "{":
            if w[k] in ")]}":
                k = match_backward(w, k)
            elif w[k] in "([;":
                return None
            k -= 1
        k -= 1 if w[k - 1] == "=" else 0
        if w[k - 1] in self.fields:
            return w[k - 1]
        return declared_type(w, k - 1)


def read_sources(tree, roots):
    sources = []
    for root in roots:
        for dirpath, dirs, names in os.walk(os.path.join(tree, root)):
            dirs.sort()
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp")):
                    path = os.path.join(dirpath, name)
                    with open(path, errors="replace") as fh:
                        rel = os.path.relpath(path, tree).replace(os.sep, "/")
                        sources.append(Source(rel, fh.read()))
    return sources


def unset_fields(tree):
    """({"Struct::field": declared at} of every config field, {key: first
    test write or None} of those no shipped source writes)."""
    def written_by(index, sources):
        seen = {}  # "Struct::field" -> first write
        for src in sources:
            for struct, field, line in index.writes(src):
                structs = [struct] if struct else index.by_field.get(field, ())
                for s in structs:
                    seen.setdefault("%s::%s" % (s, field),
                                    "%s:%d" % (src.rel, line))
        return seen

    sources = read_sources(tree, SHIPPED_ROOTS)
    index = FieldIndex(sources)
    shipped = written_by(index, sources)
    # Test writes resolve through the tests' own structs too.
    test_sources = read_sources(tree, TEST_ROOTS)
    tests = written_by(FieldIndex(sources + test_sources), test_sources)
    return index.config, {key: tests.get(key) for key in index.config
                          if key not in shipped}


def field_lint(tree):
    fields, unset = unset_fields(tree)
    allow = [(re.compile(pattern), pattern) for pattern, _ in FIELD_ALLOWLIST]
    used = set()
    findings = []
    for key in sorted(unset, key=lambda k: (fields[k], k)):
        hits = [pattern for regex, pattern in allow if regex.search(key)]
        used.update(hits)
        note = "  (written only by %s)" % unset[key] if unset[key] else ""
        if hits:
            print("allowed    %s  %s%s" % (fields[key], key, note))
        else:
            findings.append(key)
            print("UNSET      %s  %s%s" % (fields[key], key, note))
    stale = [pattern for _, pattern in allow if pattern not in used]
    for pattern in stale:
        print("STALE      field allowlist entry matches no unset field: %s"
              % pattern)
    structs = {key.split("::")[0] for key in fields}
    print("reach --fields: %d structs, %d fields, %d unset, %d allowed, "
          "%d stale allowlist entries"
          % (len(structs), len(fields), len(findings),
             len(unset) - len(findings), len(stale)))
    return 1 if findings or stale else 0


def main(argv):
    parser = argparse.ArgumentParser(prog="reach.py")
    parser.add_argument("build_dir", nargs="?",
                        help="a --gc-sections build of the shipped targets "
                             "(with --fields: the source tree, default this "
                             "repo)")
    parser.add_argument("--targets", action="store_true",
                        help="print the shipped targets and exit")
    parser.add_argument("--fields", action="store_true",
                        help="report config fields no shipped source sets")
    args = parser.parse_args(argv)
    if args.fields:
        return field_lint(args.build_dir or REPO_ROOT)
    if args.build_dir is None:
        parser.error("a build directory is required")
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

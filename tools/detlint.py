#!/usr/bin/env python3
"""detlint — determinism lint for the Aequitas simulator tree.

The repo's headline invariant is that a run is a pure function of its seed:
same seed => same schedule => same metrics, bit for bit, on either scheduler
backend and at any shard count (DESIGN.md §12). This checker statically
enforces the source-level side of that contract. It is compile-database
driven: the file set is taken from the compile_commands.json that CMake
exports (CMAKE_EXPORT_COMPILE_COMMANDS), plus the headers next to it, so it
lints exactly what the build builds.

The container toolchain has no libclang, so the analysis is a token-level
pass over a comment/string-stripped lex of each file — deliberately in the
cpplint tradition: a real lexer (raw strings, line continuations, nested
comments) feeding per-rule token automata, not line regexes. Each rule
documents what it would miss relative to a full AST walk.

Rules (see DESIGN.md §12 for the catalogue rationale):

  wall-clock        no reading of host clocks (std::chrono system/steady/
                    high_resolution clocks, time(), gettimeofday, ...) —
                    simulated time comes from sim::Simulator::now() only.
  raw-rand          no ambient randomness (rand/srand, std::random_device,
                    drand48, getentropy, random_shuffle) — all randomness
                    flows from sim::Rng seeded by ExperimentConfig::seed.
  unordered-iter    no iteration (range-for, .begin(), .for_each()) over
                    std::unordered_map/set or util::FlatMap64: iteration
                    order is unspecified and must never escape into event
                    scheduling, metrics, or serialized output. Sites that
                    re-establish a total order (sort by a unique key) or
                    fold commutatively carry a detlint:allow with the
                    justification.
  pointer-order     no ordering or hashing by pointer value
                    (std::hash<T*>, std::less<T*>,
                    reinterpret_cast<[u]intptr_t>) — addresses change under
                    ASLR, so any pointer-keyed order is run-dependent.
  static-local      no mutable function-local `static` state in the
                    simulation library dirs — hidden cross-run state breaks
                    run-to-run independence inside one process (sweeps run
                    many Experiments per process).
  thread-primitive  concurrency primitives (std::thread/mutex/atomic/...,
                    util::Mutex/CondVar) only in the annotated
                    concurrency layer (sim/sharded, runner/sweep,
                    net/shard_fabric, sim/assert's failure hook) — simulation
                    logic must stay single-threaded-per-shard.
  env-read          no std::getenv in simulation code: environment must not
                    influence results.

Suppression: a `detlint:allow(rule)` (comma-list accepted) inside a comment
on the offending line or the line directly above silences that rule there.
Every allow should carry a short justification in the same comment.

Usage:
  tools/detlint.py [--build BUILD_DIR] [--mode src|all] [--paths F...]
  tools/detlint.py --self-test      # run the fixture corpus in tests/detlint
  tools/detlint.py --list-rules
Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories holding simulation logic that must be free of hidden mutable
# state and ad-hoc threading (rules static-local / thread-primitive).
DETERMINISTIC_DIRS = (
    "src/sim/", "src/net/", "src/core/", "src/policy/", "src/rpc/",
    "src/transport/", "src/protocols/", "src/runner/",
)

# Per-rule whitelists: path suffixes where the rule does not apply. Keep
# these short and justified — prefer an inline detlint:allow at the site.
WHITELIST = {
    "wall-clock": (),
    "raw-rand": (),
    "unordered-iter": (),
    "pointer-order": (),
    "static-local": (),
    # The annotated concurrency layer (DESIGN.md §11/§12): the PDES
    # executive, the sweep worker pool, the cross-shard fabric, the lock
    # wrappers, and the assert header's thread_local failure hook.
    "thread-primitive": (
        "src/sim/sharded.h", "src/sim/sharded.cc",
        "src/runner/sweep.h", "src/runner/sweep.cc",
        "src/net/shard_fabric.h", "src/net/shard_fabric.cc",
        "src/util/mutex.h", "src/util/thread_annotations.h",
        "src/sim/assert.h",
    ),
    "env-read": (),
}

RULES = {
    "wall-clock": "host clock read (simulated time must come from sim::now)",
    "raw-rand": "ambient randomness (use sim::Rng seeded from the config)",
    "unordered-iter": "iteration over an unordered container "
                      "(order may escape into the schedule or output)",
    "pointer-order": "ordering/hashing by pointer value (ASLR-dependent)",
    "static-local": "mutable function-local static in simulation code",
    "thread-primitive": "concurrency primitive outside the annotated "
                        "concurrency layer",
    "env-read": "environment read in simulation code",
}

ALLOW_RE = re.compile(r"detlint:allow\(([^)]*)\)")
EXPECT_RE = re.compile(r"detlint:expect\(([^)]*)\)")


class Finding:
    def __init__(self, path, line, rule, detail=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self):
        msg = RULES[self.rule]
        if self.detail:
            msg = "%s: %s" % (msg, self.detail)
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule, msg)


# --------------------------------------------------------------------------
# Lexing: strip comments and string/char literals (preserving line numbers),
# collect the comment text per line for suppression / expectation markers.

def strip_comments(text):
    """Returns (code, comments) where code has comments and literal bodies
    blanked out and comments maps line -> concatenated comment text."""
    code = []
    comments = {}
    i, n = 0, len(text)
    line = 1

    def note(ln, s):
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        if c == "\n":
            code.append(c)
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            # Line continuations extend // comments.
            while j < n and text[j - 1] == "\\":
                k = text.find("\n", j + 1)
                j = n if k < 0 else k
            note(line, text[i:j])
            code.append(" " * 0)
            line += text.count("\n", i, j)
            code.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            # A block comment marks every line it touches.
            ln = line
            for part in text[i:j].split("\n"):
                note(ln, part)
                ln += 1
            code.append("\n" * text.count("\n", i, j))
            line += text.count("\n", i, j)
            i = j
        elif c == '"' and text[i - 1] == "R" and i + 1 < n:
            # Raw string literal R"delim( ... )delim".
            m = re.match(r'"([^(\s\\]{0,16})\(', text[i:])
            if not m:
                i += 1
                code.append(c)
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i)
            j = n if j < 0 else j + len(close)
            code.append('""')
            code.append("\n" * text.count("\n", i, j))
            line += text.count("\n", i, j)
            i = j
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            code.append(c + c)
            code.append("\n" * text.count("\n", i, j))
            line += text.count("\n", i, j)
            i = j
        else:
            code.append(c)
            i += 1
    return "".join(code), comments


TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d[\w.]*|::|->|.")


def tokenize(code):
    """Returns a list of (token, line) covering the stripped code."""
    tokens = []
    for ln, text in enumerate(code.split("\n"), start=1):
        if text.startswith("#"):
            # Preprocessor lines: keep include targets findable but skip the
            # rest (macro bodies routinely look like violations).
            continue
        for tok in TOKEN_RE.findall(text):
            if not tok.isspace():
                tokens.append((tok, ln))
    return tokens


def skip_angle(tokens, i):
    """tokens[i] == '<': returns (index past matching '>', inner tokens)."""
    depth = 0
    inner = []
    while i < len(tokens):
        tok = tokens[i][0]
        if tok == "<":
            depth += 1
        elif tok == ">" or tok == ">>":
            depth -= 2 if tok == ">>" else 1
            if depth <= 0:
                return i + 1, inner
        elif tok in "(){};":
            return i, inner  # not a template argument list after all
        if depth > 0 and tok != "<":
            inner.append(tok)
        i += 1
    return i, inner


# --------------------------------------------------------------------------
# Symbol pass: names declared (in this file or its paired header) with an
# unordered container type, including `using` aliases of such types.

UNORDERED_TYPES = {"unordered_map", "unordered_set",
                   "unordered_multimap", "unordered_multiset", "FlatMap64"}


def unordered_symbols(tokens):
    symbols = set()
    aliases = set()
    i = 0
    while i < len(tokens):
        tok = tokens[i][0]
        if tok == "using" and i + 2 < len(tokens) and tokens[i + 2][0] == "=":
            # using Alias = ...unordered_map<...>...;
            alias = tokens[i + 1][0]
            j = i + 3
            rhs = []
            while j < len(tokens) and tokens[j][0] != ";":
                rhs.append(tokens[j][0])
                j += 1
            if UNORDERED_TYPES.intersection(rhs) or aliases.intersection(rhs):
                aliases.add(alias)
            i = j
            continue
        if tok in UNORDERED_TYPES or tok in aliases:
            j = i + 1
            if j < len(tokens) and tokens[j][0] == "<":
                j, _ = skip_angle(tokens, j)
            # Skip refs/pointers/cv, take the declared name(s).
            while j < len(tokens) and tokens[j][0] in ("&", "*", "const"):
                j += 1
            if j < len(tokens) and re.fullmatch(r"[A-Za-z_]\w*",
                                                tokens[j][0]):
                nxt = tokens[j + 1][0] if j + 1 < len(tokens) else ""
                if nxt in (";", "=", "{", ",", ")"):
                    symbols.add(tokens[j][0])
        i += 1
    return symbols


# --------------------------------------------------------------------------
# Scope tracking (for static-local): classify each brace scope as namespace,
# class, function body, or plain block; a block inherits "inside a function"
# from its parent.

CLASS_KEYS = {"class", "struct", "union", "enum"}
CONTROL_KEYS = {"if", "for", "while", "switch", "catch"}


def scope_stack_pass(tokens):
    """Yields (index, inside_fn) for every token."""
    stack = []  # each entry: True if this scope is (inside) a function body
    # Tokens since the last ; { } — the "declaration head" used to classify
    # an opening brace.
    head = []
    for idx, (tok, _ln) in enumerate(tokens):
        inside = bool(stack) and stack[-1]
        yield idx, inside
        if tok == "{":
            h = head
            inherits = inside
            if "namespace" in h:
                stack.append(False)
            elif CLASS_KEYS.intersection(h) and "return" not in h:
                # class/struct/enum definition head (e.g. `class X final :`)
                stack.append(inherits)  # members handled via head anyway
                if not inherits:
                    stack[-1] = False
            elif h and h[-1] in (")", "const", "noexcept", "override",
                                 "final", "try", "else", "do", "]"):
                stack.append(True)  # function/lambda/control body
            elif h and CONTROL_KEYS.intersection(h):
                stack.append(True)
            else:
                stack.append(inherits)  # init-list / block
            head = []
        elif tok == "}":
            if stack:
                stack.pop()
            head = []
        elif tok == ";":
            head = []
        else:
            head.append(tok)
            if len(head) > 64:
                del head[:32]


# --------------------------------------------------------------------------
# Rule implementations. Each takes (tokens, path, symbols) and yields
# Finding objects.

WALL_CLOCK_IDS = {"system_clock", "steady_clock", "high_resolution_clock",
                  "gettimeofday", "clock_gettime", "timespec_get",
                  "localtime", "gmtime", "mktime", "strftime", "ftime"}
RAND_IDS = {"srand", "random_device", "arc4random", "drand48", "lrand48",
            "srandom", "random_shuffle", "getentropy", "rand_r"}
THREAD_STD_IDS = {"thread", "jthread", "mutex", "shared_mutex",
                  "recursive_mutex", "timed_mutex", "condition_variable",
                  "condition_variable_any", "atomic", "atomic_flag",
                  "async", "future", "promise", "barrier", "latch",
                  "counting_semaphore", "binary_semaphore", "stop_token"}
THREAD_UTIL_IDS = {"Mutex", "MutexLock", "CondVar"}


def qualified_by(tokens, i, names):
    """True when tokens[i] is preceded by `<name> ::` for name in names."""
    return (i >= 2 and tokens[i - 1][0] == "::" and
            tokens[i - 2][0] in names)


def rule_wall_clock(tokens, path, symbols):
    for i, (tok, ln) in enumerate(tokens):
        if tok in WALL_CLOCK_IDS:
            yield Finding(path, ln, "wall-clock", tok)
        elif tok in ("time", "clock") and qualified_by(tokens, i, {"std"}):
            if i + 1 < len(tokens) and tokens[i + 1][0] == "(":
                yield Finding(path, ln, "wall-clock", "std::" + tok + "()")
        elif tok == "time" and i + 2 < len(tokens) \
                and tokens[i + 1][0] == "(" \
                and tokens[i + 2][0] in ("nullptr", "0", "NULL", "&"):
            yield Finding(path, ln, "wall-clock", "time()")


def rule_raw_rand(tokens, path, symbols):
    for i, (tok, ln) in enumerate(tokens):
        if tok in RAND_IDS:
            yield Finding(path, ln, "raw-rand", tok)
        elif tok == "rand" and i + 1 < len(tokens) \
                and tokens[i + 1][0] == "(":
            yield Finding(path, ln, "raw-rand", "rand()")


def rule_unordered_iter(tokens, path, symbols):
    n = len(tokens)
    for i, (tok, ln) in enumerate(tokens):
        if tok == "for" and i + 1 < n and tokens[i + 1][0] == "(":
            # Range-for: find the ':' at paren depth 1, then check whether
            # the range expression mentions a tracked unordered symbol.
            depth = 0
            j = i + 1
            colon = -1
            while j < n:
                t = tokens[j][0]
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif t == ":" and depth == 1:
                    colon = j
                elif t == ";" and depth == 1:
                    colon = -1  # classic for loop
                    break
                j += 1
            if colon > 0:
                rng = [t for t, _ in tokens[colon + 1:j]]
                hits = symbols.intersection(rng)
                if hits:
                    yield Finding(path, ln, "unordered-iter",
                                  "range-for over " + sorted(hits)[0])
        elif tok in symbols and i + 2 < n and tokens[i + 1][0] == ".":
            member = tokens[i + 2][0]
            if member in ("begin", "cbegin", "rbegin", "for_each"):
                yield Finding(path, ln, "unordered-iter",
                              "%s.%s()" % (tok, member))


def rule_pointer_order(tokens, path, symbols):
    n = len(tokens)
    for i, (tok, ln) in enumerate(tokens):
        if tok in ("hash", "less", "greater") and i + 1 < n \
                and tokens[i + 1][0] == "<":
            _, inner = skip_angle(tokens, i + 1)
            if "*" in inner:
                yield Finding(path, ln, "pointer-order",
                              "std::%s over a pointer type" % tok)
        elif tok == "reinterpret_cast" and i + 1 < n \
                and tokens[i + 1][0] == "<":
            _, inner = skip_angle(tokens, i + 1)
            if "uintptr_t" in inner or "intptr_t" in inner:
                yield Finding(path, ln, "pointer-order",
                              "pointer-to-integer cast")


def rule_static_local(tokens, path, symbols):
    if not path.startswith(DETERMINISTIC_DIRS):
        return
    inside = dict(scope_stack_pass(tokens))
    n = len(tokens)
    for i, (tok, ln) in enumerate(tokens):
        if tok != "static" or not inside.get(i):
            continue
        # Collect the decl head after `static` up to the declarator; const
        # or constexpr anywhere in it makes the state immutable.
        j = i + 1
        head = []
        while j < n and tokens[j][0] not in ("=", ";", "{", "("):
            head.append(tokens[j][0])
            j += 1
        if not {"const", "constexpr", "constinit"}.intersection(head):
            yield Finding(path, ln, "static-local",
                          " ".join(head[:4]) or "static local")


def rule_thread_primitive(tokens, path, symbols):
    if not path.startswith(DETERMINISTIC_DIRS):
        return
    for i, (tok, ln) in enumerate(tokens):
        if tok in THREAD_STD_IDS and qualified_by(tokens, i, {"std"}):
            yield Finding(path, ln, "thread-primitive", "std::" + tok)
        elif tok in THREAD_UTIL_IDS and qualified_by(tokens, i, {"util"}):
            yield Finding(path, ln, "thread-primitive", "util::" + tok)
        elif tok == "thread_local":
            yield Finding(path, ln, "thread-primitive", "thread_local")
        elif tok.startswith("pthread_"):
            yield Finding(path, ln, "thread-primitive", tok)


def rule_env_read(tokens, path, symbols):
    for i, (tok, ln) in enumerate(tokens):
        if tok in ("getenv", "secure_getenv"):
            yield Finding(path, ln, "env-read", tok)


RULE_FNS = {
    "wall-clock": rule_wall_clock,
    "raw-rand": rule_raw_rand,
    "unordered-iter": rule_unordered_iter,
    "pointer-order": rule_pointer_order,
    "static-local": rule_static_local,
    "thread-primitive": rule_thread_primitive,
    "env-read": rule_env_read,
}
assert set(RULE_FNS) == set(RULES)


# --------------------------------------------------------------------------
# Driver.

def allowed_rules(comments, line):
    """Rules suppressed at `line` (marker on the line or the one above)."""
    out = set()
    for ln in (line, line - 1):
        for m in ALLOW_RE.finditer(comments.get(ln, "")):
            out.update(r.strip() for r in m.group(1).split(","))
    return out


def lint_file(path, text, header_text=None, use_whitelist=True):
    code, comments = strip_comments(text)
    tokens = tokenize(code)
    symbols = unordered_symbols(tokens)
    if header_text is not None:
        hcode, _ = strip_comments(header_text)
        symbols |= unordered_symbols(tokenize(hcode))
    findings = []
    for rule, fn in RULE_FNS.items():
        if use_whitelist and path.endswith(WHITELIST[rule]):
            continue
        for finding in fn(tokens, path, symbols):
            if finding.rule not in allowed_rules(comments, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, comments


def collect_files(build_dir, mode):
    """File set: compile-database sources under src/ plus src/ headers;
    --mode=all adds bench/ and tests/ (minus the fixture corpus)."""
    files = set()
    db_path = os.path.join(build_dir, "compile_commands.json")
    if os.path.isfile(db_path):
        with open(db_path) as fh:
            for entry in json.load(fh):
                rel = os.path.relpath(
                    os.path.join(entry.get("directory", ""), entry["file"]),
                    REPO_ROOT)
                if rel.startswith("src" + os.sep):
                    files.add(rel)
    roots = ["src"]
    if mode == "all":
        roots += ["bench", "tests"]
    for root in roots:
        for dirpath, _dirs, names in os.walk(os.path.join(REPO_ROOT, root)):
            rel_dir = os.path.relpath(dirpath, REPO_ROOT)
            if rel_dir.startswith(os.path.join("tests", "detlint")):
                continue  # the negative-fixture corpus is *meant* to fire
            for name in names:
                if name.endswith(".h") or (name.endswith(".cc")
                                           and root != "src"):
                    files.add(os.path.join(rel_dir, name))
                elif name.endswith(".cc") and not os.path.isfile(db_path):
                    files.add(os.path.join(rel_dir, name))
    return sorted(files)


def paired_header(path):
    if path.endswith(".cc"):
        header = path[:-3] + ".h"
        full = os.path.join(REPO_ROOT, header)
        if os.path.isfile(full):
            with open(full) as fh:
                return fh.read()
    return None


def run_lint(files, use_whitelist=True):
    findings = []
    for rel in files:
        full = os.path.join(REPO_ROOT, rel)
        with open(full) as fh:
            text = fh.read()
        file_findings, _ = lint_file(rel.replace(os.sep, "/"), text,
                                     paired_header(rel), use_whitelist)
        findings.extend(file_findings)
    return findings


def self_test():
    """Runs the corpus in tests/detlint: every detlint:expect(rule) line must
    fire exactly that rule; nothing else may fire; each rule needs at least
    one expectation (so the corpus keeps covering the whole catalogue)."""
    corpus_dir = os.path.join(REPO_ROOT, "tests", "detlint")
    fixtures = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".cc"))
    if not fixtures:
        print("detlint --self-test: no fixtures in tests/detlint", file=sys.stderr)
        return 2
    failures = []
    covered = set()
    for name in fixtures:
        with open(os.path.join(corpus_dir, name)) as fh:
            text = fh.read()
        # Fixtures are linted as if they lived in the simulation library so
        # directory-restricted rules apply; whitelists are disabled.
        vpath = "src/sim/" + name
        findings, comments = lint_file(vpath, text, use_whitelist=False)
        expected = {}  # line -> set of rules
        for ln, comment in comments.items():
            for m in EXPECT_RE.finditer(comment):
                rules = {r.strip() for r in m.group(1).split(",")}
                unknown = rules - set(RULES)
                if unknown:
                    failures.append("%s:%d: unknown rule in expect: %s"
                                    % (name, ln, ",".join(sorted(unknown))))
                expected.setdefault(ln, set()).update(rules & set(RULES))
        got = {}
        for f in findings:
            got.setdefault(f.line, set()).add(f.rule)
        for ln, rules in sorted(expected.items()):
            missing = rules - got.get(ln, set())
            for rule in sorted(missing):
                failures.append("%s:%d: expected [%s] did not fire"
                                % (name, ln, rule))
            covered.update(rules)
        for ln, rules in sorted(got.items()):
            spurious = rules - expected.get(ln, set())
            for rule in sorted(spurious):
                failures.append("%s:%d: unexpected [%s] finding"
                                % (name, ln, rule))
    uncovered = set(RULES) - covered
    for rule in sorted(uncovered):
        failures.append("rule [%s] has no firing fixture in tests/detlint"
                        % rule)
    if failures:
        for failure in failures:
            print("detlint --self-test: " + failure)
        return 1
    print("detlint --self-test: %d fixtures, %d rules covered, all pass"
          % (len(fixtures), len(covered)))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="detlint.py", add_help=True)
    parser.add_argument("--build", default="build",
                        help="build dir holding compile_commands.json")
    parser.add_argument("--mode", choices=("src", "all"), default="src",
                        help="src: library only; all: also bench/ + tests/")
    parser.add_argument("--paths", nargs="*",
                        help="explicit repo-relative files (overrides the "
                             "compile-database file set)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the negative-fixture corpus")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-18s %s" % (rule, RULES[rule]))
        return 0
    if args.self_test:
        return self_test()

    os.chdir(REPO_ROOT)
    if args.paths:
        files = args.paths
    else:
        files = collect_files(args.build, args.mode)
    if not files:
        print("detlint: no files to lint (configure first: cmake -B %s -S .)"
              % args.build, file=sys.stderr)
        return 2
    findings = run_lint(files)
    for finding in findings:
        print(finding)
    summary = "detlint: %d files, %d findings" % (len(files), len(findings))
    print(summary)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

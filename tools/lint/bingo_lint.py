#!/usr/bin/env python3
"""bingo_lint: repo-specific invariants clang-tidy cannot express.

Rules (see README "Correctness tooling"):

  raw-sync-primitive     std::mutex / std::shared_mutex / std::condition_variable
                         (and their lock guards, and the <mutex>/<shared_mutex>/
                         <condition_variable> includes) are only allowed inside
                         src/util/sync.h. Everything else must use the annotated
                         bingo::util wrappers so Clang Thread Safety Analysis
                         sees every lock in the tree.

  nondeterministic-rng   rand()/srand(), std::random_device, std::mt19937,
                         std::default_random_engine, and time-seeded RNG are
                         banned in walk paths (src/, tools/, bench/). All
                         randomness must derive from util::Rng::ForStream so
                         walk output is a pure function of (seed, stream).

  unordered-iteration    std::unordered_map / std::unordered_set are banned in
                         src/walk/ and in serialization code: iterating them
                         feeds hash order into walk output or checkpoint bytes,
                         which breaks bit-identity across libstdc++ versions
                         and ASLR seeds. Use sorted vectors (see
                         RepairAfterUpdates) or suppress with justification
                         for a provably non-iterated use.

  bare-allocation        bare `new` / `malloc` / `calloc` / `realloc` are
                         banned in src/walk/: steady-state walk code must lease
                         from the pool-backed scratch allocator (zero-alloc
                         contract, PR 5). Containers are fine; raw allocations
                         are not. The rule also covers the out-of-core block
                         path (src/core/block_cache.*, src/graph/csr_mmap.*),
                         where it additionally bans raw mmap(): every mapped
                         byte must be accounted against the cache's resident
                         budget. The one justified allow() is the mmap arena
                         in CsrMmap::MapBlock — block residency IS the product
                         there, and Unmap returns the pages on eviction.
                         `::operator new(` / `operator delete(` count as bare
                         allocations too. The rule also covers the per-vertex
                         storage of a BingoStore (src/core/vertex_sampler.cc,
                         src/core/groups.cc, src/core/decimal_group.*,
                         src/graph/dynamic_graph.cc, src/util/cow_array.h):
                         every per-vertex byte comes from the store's
                         util::MemoryPool, so a superseded version goes back
                         onto the pool's free lists whichever thread frees
                         it; placement new into a pooled block is the idiom.

  wall-clock-time        std::chrono::{system,steady,high_resolution}_clock,
                         time(), and gettimeofday() are banned in src/walk/
                         and src/core/: the temporal decay clock is logical
                         (AdvanceTime epochs travel through ApplyBatch and the
                         WAL), so a machine-clock read in a sampling path makes
                         walk output depend on when the binary runs. The one
                         exemption is src/walk/query_batcher.h, whose batching
                         deadlines are wall-clock by design and never feed a
                         sampling decision.

Suppression: append to the offending line
    // bingo-lint: allow(<rule>) -- <justification>
The justification is mandatory; a bare allow() is itself an error.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

# (rule, regex, message)
RAW_SYNC = [
    (re.compile(r'#\s*include\s*<(mutex|shared_mutex|condition_variable)>'),
     "include <{0}> outside src/util/sync.h; use src/util/sync.h"),
    (re.compile(r'\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|'
                r'condition_variable(?:_any)?|lock_guard|unique_lock|'
                r'shared_lock|scoped_lock)\b'),
     "raw std::{0} outside src/util/sync.h; use the annotated "
     "bingo::util wrappers"),
]

NONDET_RNG = [
    (re.compile(r'\b(?:std::)?s?rand\s*\('),
     "rand()/srand() is nondeterministic across platforms; derive from "
     "util::Rng::ForStream"),
    (re.compile(r'\bstd::random_device\b'),
     "std::random_device is entropy-seeded; derive from util::Rng::ForStream"),
    (re.compile(r'\bstd::(mt19937(?:_64)?|default_random_engine|minstd_rand0?)'
                r'\b'),
     "std::{0} bypasses the ForStream seeding discipline; use util::Rng"),
    (re.compile(r'\b(?:std::)?time\s*\(\s*(?:nullptr|NULL|0)\s*\)'),
     "time-seeded randomness breaks replay; derive from util::Rng::ForStream"),
]

UNORDERED = [
    (re.compile(r'\bstd::unordered_(map|set|multimap|multiset)\b'),
     "std::unordered_{0} in a walk/serialization path: iteration order feeds "
     "hash order into deterministic output; use a sorted vector"),
]

BARE_ALLOC = [
    # `new T`, `new T[...]`; placement-new (`new (ptr) T`) is pool-backed
    # and ok, and so is `#include <new>`.
    (re.compile(r'(?<!<)\bnew\b(?!\s*\()'),
     "bare new in steady-state walk code; lease from ScratchMemory "
     "(zero-alloc contract)"),
    (re.compile(r'\b(?:std::)?(malloc|calloc|realloc)\s*\('),
     "bare {0}() in steady-state walk code; lease from ScratchMemory "
     "(zero-alloc contract)"),
    (re.compile(r'\boperator\s+(new|delete)\s*\('),
     "bare operator {0}() in steady-state walk code; lease from "
     "ScratchMemory (zero-alloc contract)"),
    (re.compile(r'\bmmap\s*\('),
     "raw mmap() outside the accounted block arena; map blocks through "
     "core::BlockCache so residency counts against the byte budget"),
]

# Per-vertex storage of a BingoStore: every byte comes from the store's
# MemoryPool (placement new into a pooled block is fine).
POOLED_STORAGE = [
    (re.compile(r'(?<!<)\bnew\b(?!\s*\()'),
     "bare new in per-vertex storage; allocate from the store's "
     "util::MemoryPool and placement-new into the block"),
    (re.compile(r'\boperator\s+(new|delete)\s*\('),
     "bare operator {0}() in per-vertex storage; allocate from and free to "
     "the store's util::MemoryPool"),
    (re.compile(r'\b(?:std::)?(malloc|calloc|realloc|free)\s*\('),
     "bare {0}() in per-vertex storage; allocate from and free to the "
     "store's util::MemoryPool"),
]

POOLED_STORAGE_FILES = (
    'src/core/vertex_sampler.cc', 'src/core/groups.cc',
    'src/core/decimal_group.h', 'src/core/decimal_group.cc',
    'src/graph/dynamic_graph.cc', 'src/util/cow_array.h',
)

WALL_CLOCK = [
    (re.compile(r'\bstd::chrono::(system_clock|steady_clock|'
                r'high_resolution_clock)\b'),
     "wall-clock std::chrono::{0} in a sampling path: the decay clock is "
     "logical (AdvanceTime epochs); machine-clock reads make walk output "
     "depend on when the binary runs"),
    (re.compile(r'\b(?:std::)?time\s*\('),
     "time() in a sampling path: advance the logical epoch via "
     "graph::MakeAdvanceTime instead of reading the machine clock"),
    (re.compile(r'\bgettimeofday\s*\('),
     "gettimeofday() in a sampling path: the decay clock is logical "
     "(AdvanceTime epochs); use graph::MakeAdvanceTime"),
]

ALLOW = re.compile(r'//\s*bingo-lint:\s*allow\(([a-z-]+)\)\s*(--\s*\S.*)?')

COMMENT_OR_STRING = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'', re.S)


def strip_code(text):
    """Blanks comments and string literals, preserving line structure."""
    def blank(m):
        return re.sub(r'[^\n]', ' ', m.group(0))
    return COMMENT_OR_STRING.sub(blank, text)


def rules_for(rel):
    """Returns the [(rule_name, checks)] that apply to a repo-relative path."""
    posix = rel.as_posix()
    if posix == 'src/util/sync.h':
        return []
    applicable = [('raw-sync-primitive', RAW_SYNC)]
    if posix.startswith(('src/', 'tools/', 'bench/')):
        applicable.append(('nondeterministic-rng', NONDET_RNG))
    if posix.startswith('src/walk/') or posix.endswith('serial.h'):
        applicable.append(('unordered-iteration', UNORDERED))
    # The zero-alloc contract extends to the out-of-core block path: the
    # cache and the CSR container are on the steady-state walk path, and
    # an unaccounted mmap there is an allocation the budget cannot see.
    if posix.startswith('src/walk/') or posix in (
            'src/core/block_cache.h', 'src/core/block_cache.cc',
            'src/graph/csr_mmap.h', 'src/graph/csr_mmap.cc'):
        applicable.append(('bare-allocation', BARE_ALLOC))
    elif posix in POOLED_STORAGE_FILES:
        applicable.append(('bare-allocation', POOLED_STORAGE))
    # query_batcher's admission deadlines are wall-clock by design (they
    # bound queueing latency, never a sampling decision), mirroring the
    # sync.h whole-file exemption above.
    if (posix.startswith(('src/walk/', 'src/core/'))
            and posix != 'src/walk/query_batcher.h'):
        applicable.append(('wall-clock-time', WALL_CLOCK))
    return applicable


def lint_file(path, rel, findings):
    try:
        raw = path.read_text(encoding='utf-8', errors='replace')
    except OSError as e:
        findings.append((rel, 0, 'io', str(e)))
        return
    applicable = rules_for(rel)
    if not applicable:
        return
    code_lines = strip_code(raw).splitlines()
    raw_lines = raw.splitlines()
    for lineno, (code, orig) in enumerate(zip(code_lines, raw_lines), 1):
        allow = ALLOW.search(orig)
        allowed_rule = None
        if allow:
            allowed_rule, justification = allow.group(1), allow.group(2)
            if not justification:
                findings.append((rel, lineno, 'suppression',
                                 'bingo-lint: allow() without a justification '
                                 '("-- <why>") is itself a finding'))
                allowed_rule = None
        for rule, checks in applicable:
            for pattern, message in checks:
                m = pattern.search(code)
                if not m:
                    continue
                if allowed_rule == rule:
                    continue
                detail = message.format(*(m.groups() or ()))
                findings.append((rel, lineno, rule, detail))


def iter_sources(roots):
    exts = {'.h', '.hpp', '.cc', '.cpp', '.cxx'}
    for root in roots:
        base = REPO / root
        if not base.exists():
            continue
        for path in sorted(base.rglob('*')):
            if path.suffix not in exts:
                continue
            rel = path.relative_to(REPO)
            posix = rel.as_posix()
            # Lint fodder: fixtures are known-bad on purpose, and the
            # negative-compile cases violate annotations on purpose.
            if posix.startswith(('tools/lint/fixtures/', 'tests/static_analysis/')):
                continue
            yield path, rel


def run_lint(roots):
    findings = []
    for path, rel in iter_sources(roots):
        lint_file(path, rel, findings)
    for rel, lineno, rule, detail in findings:
        print(f'{rel}:{lineno}: [{rule}] {detail}')
    return findings


def self_test():
    """Known-bad fixtures must each be flagged; known-good must be clean."""
    fixtures = REPO / 'tools' / 'lint' / 'fixtures'
    failures = []
    for path in sorted((fixtures / 'bad').glob('*.cc')):
        # Fixtures declare the rule they violate in their first line:
        #   // expect: <rule>
        first = path.read_text(encoding='utf-8').splitlines()[0]
        m = re.match(r'//\s*expect:\s*([a-z-]+)', first)
        if not m:
            failures.append(f'{path.name}: missing "// expect: <rule>" header')
            continue
        expected = m.group(1)
        findings = []
        # Fixtures emulate walk-path files so every rule is in scope.
        lint_file(path, pathlib.PurePosixPath(f'src/walk/{path.name}'),
                  findings)
        if not any(rule == expected for _, _, rule, _ in findings):
            failures.append(
                f'{path.name}: expected a [{expected}] finding, got '
                f'{[(r, d) for _, _, r, d in findings]}')
    for path in sorted((fixtures / 'good').glob('*.cc')):
        findings = []
        lint_file(path, pathlib.PurePosixPath(f'src/walk/{path.name}'),
                  findings)
        if findings:
            failures.append(
                f'{path.name}: expected clean, got '
                f'{[(r, d) for _, _, r, d in findings]}')
    for failure in failures:
        print(f'self-test FAIL: {failure}')
    if not failures:
        print('bingo_lint self-test: all fixtures behave as expected')
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--self-test', action='store_true',
                        help='run the fixture suite instead of linting')
    parser.add_argument('roots', nargs='*',
                        default=['src', 'tools', 'bench', 'tests'],
                        help='repo-relative directories to lint')
    args = parser.parse_args()
    if args.self_test:
        return 1 if self_test() else 0
    findings = run_lint(args.roots)
    if findings:
        print(f'bingo_lint: {len(findings)} finding(s)')
        return 1
    print('bingo_lint: clean')
    return 0


if __name__ == '__main__':
    sys.exit(main())

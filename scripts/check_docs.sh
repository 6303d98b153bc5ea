#!/usr/bin/env bash
# Docs consistency checker (wired as ctest `docs.check`).
#
# Scans README.md and docs/*.md for six kinds of claims and fails if any
# of them has drifted from the tree:
#
#   1. File paths — every token matching
#      (src|docs|tests|bench|examples|scripts|tools)/... must exist, either
#      verbatim or as <path>.cpp (docs refer to executables like
#      bench/kernel_micro by target name).  Paths under build/ are build
#      outputs, not tree files, and are skipped.
#   2. FALLSENSE_* names — every cited environment variable or CMake
#      option must appear somewhere in the sources/build files.
#   3. CLI flags — every --flag token appearing in tools/*.cpp (usage
#      strings, option tables, header synopses) must be documented in
#      README.md or docs/*.md, so a tool cannot grow a knob the docs
#      never heard of.
#   4. CLI flags, reverse — every --flag on a doc line that invokes
#      `fallsense` or `fallsense_loadgen` (word-boundary match, so
#      fallsense_tests lines don't count) must exist in tools/*.cpp, so a
#      doc cannot show an invocation the tools would reject.
#   5. Benchmark rows — every BM_* token a doc cites must be defined in
#      bench/*.cpp, so docs (the simd_speedup and restore_latency
#      sections in docs/performance.md in particular) cannot reference a
#      row the harness no longer emits.
#   6. Eval API surface — everything outside src/eval must include the
#      eval/eval.hpp umbrella, never the per-module headers
#      (eval/metrics.hpp, eval/events.hpp, eval/roc.hpp,
#      eval/threshold.hpp, eval/kfold.hpp, eval/stream.hpp,
#      eval/evaluator.hpp), so the evaluation layer keeps one public
#      include and one construction point (eval::make_evaluator).
#
# Usage:
#   scripts/check_docs.sh                 # check the repo's docs
#   scripts/check_docs.sh --extra-doc F   # also check file F
#   scripts/check_docs.sh --only F        # check only file F (internal)
#   scripts/check_docs.sh --self-test     # verify the checker itself
#                                         # rejects a doc with a bogus path
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

MODE=check
ONLY_DOC=""
EXTRA_DOCS=()
TOOLS_DIR=tools
BENCH_DIR=bench
INCLUDE_DIRS=(src tools bench tests examples)
while [ $# -gt 0 ]; do
    case "$1" in
        --self-test) MODE=self-test ;;
        --only) ONLY_DOC="$2"; shift ;;
        --extra-doc) EXTRA_DOCS+=("$2"); shift ;;
        --tools-dir) TOOLS_DIR="$2"; shift ;;  # internal, for the self-test
        --bench-dir) BENCH_DIR="$2"; shift ;;  # internal, for the self-test
        --include-dirs) read -r -a INCLUDE_DIRS <<< "$2"; shift ;;  # internal
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

if [ "$MODE" = self-test ]; then
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cat > "$tmp/bogus.md" <<'EOF'
A doc citing src/definitely/not/a/real/file.cpp, the unset
environment variable FALLSENSE_NO_SUCH_VAR, and the benchmark
BM_NoSuchBenchmarkRow nothing in bench/ defines.
EOF
    if "$0" --only "$tmp/bogus.md" > "$tmp/out.txt" 2>&1; then
        echo "self-test FAILED: checker accepted a doc with a bogus path" >&2
        cat "$tmp/out.txt" >&2
        exit 1
    fi
    if ! grep -q "definitely/not/a/real/file" "$tmp/out.txt"; then
        echo "self-test FAILED: bogus path not reported" >&2
        cat "$tmp/out.txt" >&2
        exit 1
    fi
    if ! grep -q "FALLSENSE_NO_SUCH_VAR" "$tmp/out.txt"; then
        echo "self-test FAILED: bogus env var not reported" >&2
        cat "$tmp/out.txt" >&2
        exit 1
    fi
    if ! grep -q "BM_NoSuchBenchmarkRow" "$tmp/out.txt"; then
        echo "self-test FAILED: bogus benchmark name not reported" >&2
        cat "$tmp/out.txt" >&2
        exit 1
    fi
    # A tool declaring a flag no doc mentions must be rejected too.
    mkdir "$tmp/tools"
    cat > "$tmp/tools/fake_tool.cpp" <<'EOF'
// usage: fake_tool [--no-such-undocumented-flag]
EOF
    if "$0" --tools-dir "$tmp/tools" > "$tmp/flags.txt" 2>&1; then
        echo "self-test FAILED: checker accepted an undocumented CLI flag" >&2
        cat "$tmp/flags.txt" >&2
        exit 1
    fi
    if ! grep -q -- "--no-such-undocumented-flag" "$tmp/flags.txt"; then
        echo "self-test FAILED: undocumented flag not reported" >&2
        cat "$tmp/flags.txt" >&2
        exit 1
    fi
    # A doc showing a tool invocation with a flag the tools don't declare
    # must be rejected by the reverse check.
    cat > "$tmp/bogus_flag.md" <<'EOF'
Run `fallsense serve --flag-the-tool-never-heard-of 3` to reproduce.
EOF
    if "$0" --only "$tmp/bogus_flag.md" > "$tmp/rev.txt" 2>&1; then
        echo "self-test FAILED: checker accepted a doc citing a bogus CLI flag" >&2
        cat "$tmp/rev.txt" >&2
        exit 1
    fi
    if ! grep -q -- "--flag-the-tool-never-heard-of" "$tmp/rev.txt"; then
        echo "self-test FAILED: bogus doc flag not reported" >&2
        cat "$tmp/rev.txt" >&2
        exit 1
    fi
    # A source file outside src/eval reaching past the eval umbrella must
    # be rejected by the include-surface check.
    mkdir "$tmp/deep_include"
    cat > "$tmp/deep_include/sneaky.cpp" <<'EOF'
#include "eval/metrics.hpp"
EOF
    if "$0" --include-dirs "$tmp/deep_include" > "$tmp/inc.txt" 2>&1; then
        echo "self-test FAILED: checker accepted a direct eval-module include" >&2
        cat "$tmp/inc.txt" >&2
        exit 1
    fi
    if ! grep -q "sneaky.cpp" "$tmp/inc.txt"; then
        echo "self-test FAILED: direct eval include not reported" >&2
        cat "$tmp/inc.txt" >&2
        exit 1
    fi
    echo "self-test OK: bogus citations are rejected"
    exit 0
fi

if [ -n "$ONLY_DOC" ]; then
    DOCS=("$ONLY_DOC")
else
    DOCS=(README.md docs/*.md "${EXTRA_DOCS[@]+"${EXTRA_DOCS[@]}"}")
fi

# Where FALLSENSE_* names must be defined or consumed.
NAME_SOURCES=(src tools bench scripts tests examples CMakeLists.txt)

errors=0
report() {
    echo "check_docs: $1" >&2
    errors=$((errors + 1))
}

for doc in "${DOCS[@]}"; do
    if [ ! -f "$doc" ]; then
        report "$doc: doc file not found"
        continue
    fi

    # Drop build-output paths, then collect tree-path citations, stripping
    # trailing sentence punctuation the token regex may have swallowed.
    paths="$(sed 's|build/[A-Za-z0-9_./-]*||g' "$doc" \
        | grep -oE '(src|docs|tests|bench|examples|scripts|tools)/[A-Za-z0-9_./-]+' \
        | sed 's/[.,:;]*$//' | sort -u)"
    for p in $paths; do
        if [ ! -e "$p" ] && [ ! -e "$p.cpp" ]; then
            report "$doc: cited path does not exist: $p"
        fi
    done

    # Reverse flag check: flags shown on fallsense / fallsense_loadgen
    # invocation lines must exist in the tools.  \b keeps fallsense_tests
    # and other fallsense_* binaries out of scope.
    doc_flags="$(grep -E '\bfallsense(_loadgen)?\b' "$doc" \
        | grep -ohE -- '--[a-z][a-z0-9_-]*' | sort -u || true)"
    for flag in $doc_flags; do
        if ! grep -qF -- "$flag" "$TOOLS_DIR"/*.cpp 2> /dev/null; then
            report "$doc: cited CLI flag not declared by any tool: $flag"
        fi
    done

    # Benchmark rows: every BM_* name a doc cites must be defined in
    # bench/ — BENCH_*.json tables in docs cannot reference a row the
    # harness no longer emits.
    bms="$(grep -oE 'BM_[A-Za-z0-9_]+' "$doc" | sort -u || true)"
    for bm in $bms; do
        if ! grep -rqE "\b$bm\b" "$BENCH_DIR"/*.cpp 2> /dev/null; then
            report "$doc: cited benchmark not defined in $BENCH_DIR/: $bm"
        fi
    done

    vars="$(grep -oE 'FALLSENSE_[A-Z_]+' "$doc" | sort -u || true)"
    for v in $vars; do
        # --exclude this script: its self-test heredoc deliberately contains
        # a bogus FALLSENSE_* name.
        if ! grep -rq --include='*.cpp' --include='*.hpp' --include='*.sh' \
                --include='*.txt' --include='*.cmake' --exclude=check_docs.sh \
                -- "$v" "${NAME_SOURCES[@]}"; then
            report "$doc: cited name not found in sources: $v"
        fi
    done
done

# CLI-flag coverage: a flag a tool knows (or claims in its synopsis)
# that no doc mentions is documentation drift in the other direction.
if [ -z "$ONLY_DOC" ] && ls "$TOOLS_DIR"/*.cpp > /dev/null 2>&1; then
    FLAG_DOCS=(README.md docs/*.md)
    flags="$(grep -ohE -- '--[a-z][a-z0-9_-]*' "$TOOLS_DIR"/*.cpp | sort -u)"
    for flag in $flags; do
        if ! grep -qF -- "$flag" "${FLAG_DOCS[@]}"; then
            report "$TOOLS_DIR: CLI flag not documented in README.md or docs/: $flag"
        fi
    done
fi

# Eval include surface: src/eval owns its per-module headers; everyone
# else goes through the eval/eval.hpp umbrella and make_evaluator.
if [ -z "$ONLY_DOC" ]; then
    offenders="$(grep -rnE --include='*.cpp' --include='*.hpp' \
        '#include "eval/(metrics|events|roc|threshold|kfold|stream|evaluator)\.hpp"' \
        "${INCLUDE_DIRS[@]}" 2> /dev/null | grep -v '^src/eval/' || true)"
    if [ -n "$offenders" ]; then
        while IFS= read -r line; do
            report "direct eval-module include outside src/eval (use eval/eval.hpp): $line"
        done <<< "$offenders"
    fi
fi

if [ "$errors" -gt 0 ]; then
    echo "check_docs: $errors problem(s) found" >&2
    exit 1
fi
echo "check_docs: all cited paths and names exist"

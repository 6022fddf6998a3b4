#!/usr/bin/env bash
# Non-test Rust lines per crate and for the root package, then the test
# code of all of them.
#
# Each file under a package's `src/` is cut at its test module: the first
# `#[cfg(test)]` line whose next line declares a `mod`. What comes before
# is non-test code, the rest is test code, and so is every file under
# `tests/` and `crates/*/tests/`. A `#[cfg(test)]` on anything else (a
# thread-local, a statement, an impl) cuts nothing. Either way blank lines
# and lines that start with `//` (comments and docs) are dropped.
# Examples, shims and `benchmark/` are not counted. Run from anywhere:
# `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

# count PART DIR...: the kept lines of the `.rs` files under the DIRs —
# PART `src` before each file's test module, `test` from it on, `all`
# every line. A `#[cfg(test)]` line is held until the next line says which
# side of the cut it is on.
count() {
    local part=$1
    shift
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk -v part="$part" '
        FNR == 1 { cut = 0; held = 0 }
        held {
            held = 0
            if (/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) cut = 1
            if (part == "all" || cut == (part == "test")) n++
        }
        !cut && /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        (part == "all" || cut == (part == "test")) && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/ .; do
    dir=${dir%/}
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    [ "$dir" = . ] && name="$name (root)"
    n=$(count src "$dir/src")
    printf '%-28s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-28s %6d\n' total "$total"

tests=$(($(count test crates/*/src src) + $(count all tests crates/*/tests)))
printf '%-28s %6d\n' "test code (not in total)" "$tests"

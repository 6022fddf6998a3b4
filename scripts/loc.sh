#!/usr/bin/env bash
# Non-test Rust lines per crate and for the root package.
#
# Each file under a package's `src/` is cut at its first `#[cfg(test)]`;
# of the rest, blank lines and lines that start with `//` (comments and
# docs) are dropped. Examples, tests, shims and `benchmark/` are not
# counted. Run from anywhere: `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { cut = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
        !cut && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/ .; do
    dir=${dir%/}
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    [ "$dir" = . ] && name="$name (root)"
    n=$(count "$dir/src")
    printf '%-28s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-28s %6d\n' total "$total"

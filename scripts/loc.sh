#!/usr/bin/env bash
# Prints the three size numbers the ROADMAP tracks. Run from anywhere;
# it measures the checkout it lives in.
#
#   counted source     every line of crates/*/src and src/ (tests and
#                      benches directories excluded, in-file unit tests
#                      included)
#   before tests       lines before each file's first `#[cfg(test)]`
#   pub declarations   `pub` fn/struct/enum/trait/const/type/static items
#                      in crates/*/src (fields and re-exports not counted)
set -euo pipefail
cd "$(dirname "$0")/.."

sources=$(find crates src -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | sort)

counted=$(echo "$sources" | xargs cat | wc -l)
before_tests=$(echo "$sources" | xargs awk '
    FNR == 1 { skipping = 0 }
    /#\[cfg\(test\)\]/ { skipping = 1 }
    !skipping { n++ }
    END { print n + 0 }')
pub_decls=$(grep -rE '^\s*pub (fn|struct|enum|trait|const|type|static|unsafe fn|const fn)\b' \
    --include='*.rs' crates/*/src | wc -l)

printf 'counted source:    %6d lines\n' "$counted"
printf 'before tests:      %6d lines\n' "$before_tests"
printf 'pub declarations:  %6d\n' "$pub_decls"

#!/usr/bin/env bash
# Code lines per crate: what is left of each `crates/*/src/**/*.rs` before its
# `#[cfg(test)]` module, minus blank and `//` lines — the count ROADMAP.md,
# CHANGES.md and the issues quote. `scripts/code-lines.sh [ROOT]` prints
# `<crate>/src <lines>` per crate and the total; ROOT defaults to the checkout
# this script lives in, so a parent checkout can be counted with the same rule.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for src in "$root"/crates/*/src; do
    lines=0
    while IFS= read -r -d '' f; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -vcE '^\s*(//|$)' || true)
        lines=$((lines + n))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%-28s %6d\n' "${src#"$root"/}" "$lines"
    total=$((total + lines))
done
printf '%-28s %6d\n' total "$total"

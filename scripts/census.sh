#!/usr/bin/env bash
# The public-surface census (DESIGN.md §12, "The public surface"), resolved
# by the compiler: every `pub` fn, method, const, static, struct, enum,
# trait and type alias of ml, engine, core, serve and tpch has a use in a
# file outside its crate (another product crate, qpp-bench, the frozen
# crates/e2e, or the root src, tests and examples), or it is a row of
# §12's exception table. A crate's own integration tests do not count:
# what only they reach is a unit test's.
#
# How: the tracked sources are copied to a temporary directory (the tree
# is never edited), each such item of the copy gets a
# `#[deprecated(note = "CENSUS <file>:<line>")]`, and `cargo check` of
# every target reports each use as a deprecation warning that carries its
# definition's note. Fields and variants inherit their type's attribute,
# so reading a field or naming a variant is a use of the type. Items under
# `#[cfg(test)]` and the test-only modules a lib.rs declares are not
# counted. Two blind spots: doctests are not checked (tier-1 compiles
# them), and `pub` fields are the option table's.
#
# Prints the items without an outside use, then fails unless they are
# exactly §12's table. Run from anywhere: scripts/census.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' file; do if [ -f "$file" ]; then printf '%s\0' "$file"; fi; done \
    | tar --null -T - -cf - | tar -C "$work/src" -xf -

# One line per item, "<file>:<line> <kind> <lib>::<name>", where a method
# or associated const is named `<lib>::<Type>::<name>`.
for dir_lib in ml:ml engine:engine core:qpp serve:serve tpch:tpch; do
    crate="${dir_lib%%:*}" lib="${dir_lib#*:}"
    test_mods="$(awk -v dir="crates/$crate/src/" '/^#\[cfg\(test\)\]$/ { t = 1; next }
        t && /^mod [a-z_0-9]+;$/ { sub(/^mod /, ""); sub(/;$/, ""); print dir $0 ".rs" } { t = 0 }' \
        "crates/$crate/src/lib.rs")"
    files="$(git ls-files "crates/$crate/src/*.rs" | grep -vxF "$test_mods")"
    # shellcheck disable=SC2086
    (cd "$work/src" && LIB="$lib" ITEMS="$work/items" perl -i -ne '
        BEGIN { open(ITEMS, ">>", $ENV{ITEMS}) or die }
        if ($ARGV ne $file) { ($file, $n, $skip, %ctx) = ($ARGV, 0, 0) }
        $n++;
        if ($skip) {
            my $o = () = /\{/g; my $c = () = /\}/g;
            $depth += $o - $c; $opened ||= $o > 0;
            $skip = 0 if ($opened && $depth <= 0) || (!$opened && /;\s*$/);
            print; next;
        }
        if (/^\s*#\[cfg\(test\)\]/) { ($skip, $depth, $opened) = (1, 0, 0); print; next }
        if (/^(\s*)(\S.*)$/ && $2 !~ m{^(#|//|[{}()]|where\b)}) { $ctx{length $1} = $2 }
        if (/^(\s*)pub\s+(?:(?:const\s+)?(?:unsafe\s+)?(fn)|(const|static|struct|enum|trait|type|union))\s+([A-Za-z_]\w*)/) {
            my ($indent, $kind, $name) = ($1, $2 // $3, $4);
            my $outer = length($indent) >= 4 ? $ctx{length($indent) - 4} // "" : "";
            my $path = $name;
            if ($outer =~ /^(?:unsafe\s+)?impl\b/) {
                (my $type = $outer) =~ s/^(?:unsafe\s+)?impl\s*(<(?:[^<>]++|(?1))*>)?\s*//;
                $type =~ s/^.*?\bfor\s+//;
                $type =~ s/^(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*).*$/$1/;
                $path = "$type\::$name";
                $kind = $kind eq "fn" ? "method" : "assoc-$kind";
            }
            print ITEMS "$ARGV:$n $kind $ENV{LIB}::$path\n";
            print "$indent#[deprecated(note = \"CENSUS $ARGV:$n\")]\n";
        }
        print;
    ' $files)
done
LC_ALL=C sort -o "$work/items" "$work/items"

# Every use, "<definition file>:<line> <using file>", from a check of every
# target of the copy (its own target dir, so the tree's stays warm).
if ! (cd "$work/src" && RUSTFLAGS="--cap-lints=warn" CARGO_TARGET_DIR="$work/target" \
    cargo check --workspace --all-targets --offline --quiet --message-format=short) > "$work/check" 2>&1; then
    grep -E ': error' "$work/check" | head -n 20
    echo "FAIL: the census copy does not compile"
    exit 1
fi
perl -ne 'print "$2 $1\n" if /^([^:\s]+):\d+:\d+: warning: use of deprecated .*: CENSUS (\S+)$/' "$work/check" \
    | LC_ALL=C sort -u > "$work/uses"

# An item is used outside its crate when a using file is not under its
# crate's directory: "<kind> <name> <outside uses>" per item.
awk 'NR == FNR { split($1, d, "/"); if (index($2, d[1] "/" d[2] "/") != 1) outside[$1]++; next }
    { print $2, $3, outside[$1] + 0 }' "$work/uses" "$work/items" > "$work/verdicts"
unused="$(awk '$3 == 0 { print $2 }' "$work/verdicts" | LC_ALL=C sort)"

echo "pub items of ml, engine, core, serve and tpch per kind (of which no use outside their crate):"
awk '{ n[$1]++; if ($3 == 0) none[$1]++ }
    END { for (k in n) printf "  %-12s %4d (%d)\n", k, n[k], none[k] }' "$work/verdicts" | LC_ALL=C sort
echo "no use outside their crate:"
if [ -n "$unused" ]; then sed 's/^/  /' <<< "$unused"; fi

exceptions="$(awk '/^### The public surface/ { on = 1; next } on && /^#/ { on = 0 }
    on && /^\| `[a-z]+::[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)?` \|/ { split($0, f, "`"); print f[2] }' \
    DESIGN.md | LC_ALL=C sort)"
if [ "$unused" != "$exceptions" ]; then
    diff <(echo "$exceptions") <(echo "$unused") | sed -e 's/^>/  no use outside its crate and no row:/' \
        -e 's/^</  a row for an item that is not an exception:/' | grep '^  '
    echo "FAIL: the pub items without a use outside their crate are not DESIGN.md §12's exception table"
    exit 1
fi
echo "census: OK"

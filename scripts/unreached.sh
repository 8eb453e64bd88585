#!/usr/bin/env bash
# Guard against library surface that only its own tests reach. Builds every
# production binary (cmd/*, examples/*, the revealbench module) and the root
# package's test binary (its benchmarks render the EXPERIMENTS.md tables and
# ablations), all with inlining off so every called function keeps a symbol.
# Then lists each exported func or method declared in a non-test file under
# internal/ that none of those binaries links; methods count only on
# exported types (an unexported type's methods exist to satisfy
# interfaces). internal/testkit is skipped:
# it is the test-oracle package and no binary may link it.
#
# A symbol on the list fails the script unless scripts/unreached_allow.txt
# names it. Each allowlist line is "<package>.<func>" or
# "<package>.<Type>.<Method>" followed by the test that uses the symbol as an
# oracle; blank lines and lines starting with # are ignored. An allowlist
# entry that is no longer unreached fails too, so the list cannot go stale.
#
# Usage: bash scripts/unreached.sh [allowlist]   (run from the repo root)
set -euo pipefail

allow="${1:-scripts/unreached_allow.txt}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin"

for d in cmd/* examples/*; do
    go build -gcflags=all=-l -o "$tmp/bin/$(basename "$(dirname "$d")")-$(basename "$d")" "./$d"
done
(cd revealbench && go build -gcflags=all=-l -o "$tmp/bin/revealbench" .)
go test -c -gcflags=all=-l -o "$tmp/bin/root.test" .

# Linked text symbols, e.g. "ring.(*Context).NTT", "sca.Fit[...]".
for b in "$tmp"/bin/*; do
    go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
    sed -n 's|^reveal/internal/||p' | sort -u > "$tmp/linked"

# Exported declarations as "<pkg>.<Recv>.<Name>" or "<pkg>.<Name>".
find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/testkit/*' |
    sort | while read -r f; do
        pkg=$(dirname "${f#internal/}")
        awk -v pkg="$pkg" '
            /^func / {
                line = $0
                sub(/^func /, "", line)
                recv = ""
                if (line ~ /^\(/) {
                    r = line
                    sub(/\).*/, "", r)
                    sub(/^\(/, "", r)
                    n = split(r, parts, " ")
                    recv = parts[n]
                    sub(/^\*/, "", recv)
                    sub(/\[.*/, "", recv)
                    sub(/^\([^)]*\) /, "", line)
                }
                name = line
                sub(/[[(].*/, "", name)
                if (name !~ /^[A-Z]/ || (recv != "" && recv !~ /^[A-Z]/)) next
                if (recv != "") print pkg "." recv "." name
                else print pkg "." name
            }' "$f"
    done | sort -u > "$tmp/declared"

# A declaration is reached when a linked symbol matches it, allowing for
# pointer receivers and generic instantiations.
awk '
    NR == FNR { linked[$1] = 1; next }
    {
        n = split($0, p, ".")
        if (n == 3) {
            want[1] = p[1] "." p[2] "." p[3]
            want[2] = p[1] ".(*" p[2] ")." p[3]
            want[3] = p[1] "." p[2] "["
            want[4] = p[1] ".(*" p[2] "["
            hit = (want[1] in linked) || (want[2] in linked)
            if (!hit) for (s in linked) {
                if ((index(s, want[3]) == 1 || index(s, want[4]) == 1) && s ~ ("\\]\\)?\\." p[3] "$")) { hit = 1; break }
            }
        } else {
            hit = ($0 in linked)
            if (!hit) for (s in linked) if (index(s, $0 "[") == 1) { hit = 1; break }
        }
        if (!hit) print
    }' "$tmp/linked" "$tmp/declared" > "$tmp/unreached"

awk '$1 !~ /^(#|$)/ { print $1 }' "$allow" | sort -u > "$tmp/allowed"

status=0
while read -r sym; do
    echo "unreached: $sym (no production binary links it; delete it, or allowlist it with the test that uses it as an oracle)"
    status=1
done < <(comm -23 "$tmp/unreached" "$tmp/allowed")
while read -r sym; do
    echo "stale allowlist entry: $sym (it is linked now, or no longer declared)"
    status=1
done < <(comm -13 "$tmp/unreached" "$tmp/allowed")

if [ "$status" = 0 ]; then
    echo "ok    $(wc -l < "$tmp/declared") exported funcs and methods; $(wc -l < "$tmp/allowed") allowlisted oracles"
fi
exit $status

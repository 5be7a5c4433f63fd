#!/usr/bin/env bash
# check-docs.sh — keep the documentation honest.
#
# 1. Every relative markdown link in README.md and docs/*.md must resolve
#    to a file in the repository.
# 2. Every Go identifier referenced in backticks in README.md or under
#    docs/ must still exist somewhere in the Go sources, and every
#    backticked repo path must exist (grep-based: a doc that names
#    `engine.Compactor` or `Materialize` breaks this check when the
#    identifier is renamed away).
#
# Run from anywhere; exits non-zero with one line per problem.
set -u
cd "$(dirname "$0")/.."

errors=0
err() {
    echo "check-docs: $*" >&2
    errors=1
}

# --- 1. markdown links -----------------------------------------------------

for f in README.md docs/*.md; do
    [ -e "$f" ] || continue
    base=$(dirname "$f")
    # Inline links: [text](target). External schemes and pure-fragment
    # links are skipped; everything else must exist relative to the
    # linking file (or the repo root).
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
            err "$f: broken link: ($target)"
        fi
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

# Both docs the README promises must exist.
for f in docs/ARCHITECTURE.md docs/FORMATS.md; do
    [ -e "$f" ] || err "missing $f"
done

# --- 2. Go identifiers referenced from README.md and docs/ -----------------

# Backtick spans that look like Go identifiers:
#   - dotted references (pkg.Ident, pkg.Type.Method): the final exported
#     segment must appear in the Go sources;
#   - single exported identifiers (CamelCase, at least one lowercase
#     letter so ALLCAPS file names and abbreviations are not mistaken
#     for Go symbols).
# Spans containing spaces, slashes, or dashes (shell commands, paths,
# flags) are handled separately or skipped.
check_ident() {
    local doc=$1 span=$2 ident=$3
    if ! grep -rqw --include='*.go' -- "$ident" .; then
        err "$doc: references Go identifier \`$span\` but \`$ident\` no longer exists in the sources"
    fi
}

for f in README.md docs/*.md; do
    [ -e "$f" ] || continue
    while IFS= read -r span; do
        case "$span" in
        *[!A-Za-z0-9_.]*) # anything beyond identifier chars and dots
            # Repo paths in backticks must exist too.
            case "$span" in
            internal/* | cmd/* | docs/* | examples/* | scripts/*)
                [ -e "${span%%#*}" ] || err "$f: references path \`$span\` which does not exist"
                ;;
            esac
            continue
            ;;
        esac
        if [[ "$span" == *.* ]]; then
            last="${span##*.}"
            if [[ "$last" =~ ^[A-Z][A-Za-z0-9_]*$ && "$last" =~ [a-z] ]]; then
                check_ident "$f" "$span" "$last"
            fi
        elif [[ "$span" =~ ^[A-Z][A-Za-z0-9_]*$ && "$span" =~ [a-z] ]]; then
            check_ident "$f" "$span" "$span"
        fi
    done < <(grep -oE '`[^`]+`' "$f" | sed -E 's/^`//; s/`$//' | sort -u)
done

if [ "$errors" -ne 0 ]; then
    exit 1
fi
echo "check-docs: OK"

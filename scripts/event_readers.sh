#!/usr/bin/env bash
# Guard against journal regrowth: every `Event` kind must have a reader.
#
# A kind is read when something names it that turns the journal into an
# answer: the CLI (`crates/cli/src`), a script under `scripts/`, the
# benchmark (`benchmark/src`), or a test — a file under a `tests/`
# directory other than the golden-schema test `crates/obs/tests/schema.rs`,
# or the `#[cfg(test)]` tail of a source file. In Rust, the kind must
# appear as `Event::Kind` or as its tag `"Kind"`, on a line that neither
# emits it (`emit(`) nor only checks that it was emitted (`contains(`,
# `.any(`). Comments do not count.
#
# Prints each kind without a reader and exits 1 if there is one.
#
#   bash scripts/event_readers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

kinds=$(awk '/^pub enum Event \{/ { on = 1; next }
    on && /^\}/ { exit }
    on && match($0, /^    [A-Z][A-Za-z0-9]*/) { print substr($0, 5, RLENGTH - 4) }' \
    crates/obs/src/events.rs)
if [ -z "$kinds" ]; then
    echo "event_readers: found no Event variants in crates/obs/src/events.rs" >&2
    exit 1
fi

rust=$(
    {
        find crates/cli/src benchmark/src -name '*.rs' -exec cat {} +
        find crates tests -path '*tests/*.rs' ! -path crates/obs/tests/schema.rs -exec cat {} +
        find crates -path '*/src/*.rs' -exec awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } t' {} +
    } | grep -vE '^[[:space:]]*//|emit\(|contains\(|\.any\(' || true
)
shell=$(find scripts -type f ! -name event_readers.sh -exec cat {} + |
    grep -vE '^[[:space:]]*#' || true)

unread=0
for kind in $kinds; do
    if ! grep -qE "Event::$kind\\b|\"$kind\\\\?\"" <<<"$rust" &&
        ! grep -qw "$kind" <<<"$shell"; then
        echo "event_readers: Event::$kind has no reader"
        unread=$((unread + 1))
    fi
done
if [ "$unread" -gt 0 ]; then
    echo "event_readers: $unread of $(wc -w <<<"$kinds") kinds are read by nothing;" \
        "read each in the CLI, a script, the benchmark or a test, or delete it" >&2
    exit 1
fi
echo "event_readers: all $(wc -w <<<"$kinds") Event kinds have a reader"

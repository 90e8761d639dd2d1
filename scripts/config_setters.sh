#!/usr/bin/env bash
# Guard against settings nothing sets: every `pub` field of a config
# struct must be assigned somewhere other than its own defaults.
#
# A field is set when its name is assigned in a struct literal (`name:`)
# or through a place (`.name =`) in a Rust file under `crates/`, `src/`,
# `examples/`, `tests/` or `benchmark/src/`, tests included. Its own
# defaults do not count: in the file that declares the struct, its `impl
# Default` block and its `pub fn new` constructor. Declarations (`pub
# name:`, a parameter's or a binding's `name: Type`) and comments do not
# count either. A name that several of the structs declare counts as set,
# so the check may miss such a field but never flags one in use.
#
# Prints each field that nothing sets and exits 1 if there is one.
#
#   bash scripts/config_setters.sh
set -euo pipefail
cd "$(dirname "$0")/.."

structs="
crates/lsm/src/options.rs Options
crates/lsm/src/fault.rs FaultPlan
crates/core/src/engine.rs EngineConfig
crates/core/src/runner.rs RunConfig
crates/core/src/controller.rs ControllerConfig
crates/server/src/server.rs ServerConfig
crates/server/src/loadgen.rs LoadgenConfig
crates/workload/src/generator.rs WorkloadConfig
crates/workload/src/adversary.rs AdversaryConfig
crates/bench/src/lib.rs ExpParams
"

# fields FILE STRUCT: the names of STRUCT's `pub` fields.
fields() {
    awk -v s="$2" '$0 ~ "^pub struct " s " \\{" { on = 1; next }
        on && /^\}/ { exit }
        on && match($0, /^    pub [a-z_0-9]+:/) { print substr($0, 9, RLENGTH - 9) }' "$1"
}

# outside_defaults FILE STRUCT: FILE without STRUCT's definition, its
# `impl Default` block and its `pub fn new`.
outside_defaults() {
    awk -v s="$2" '$0 ~ "^pub struct " s " \\{" || $0 ~ "^impl Default for " s " \\{" { skip = 1 }
        $0 ~ "^impl " s " \\{" { own = 1 }
        own && /^    pub fn new\(/ { skip = 1 }
        skip && /^}/ { skip = 0; own = 0; next }
        skip && own && /^    }/ { skip = 0; next }
        /^}/ { own = 0 }
        !skip' "$1"
}

all_fields=$(while read -r file name; do
    if [ -n "$file" ]; then fields "$file" "$name"; fi
done <<<"$structs")
if [ -z "$all_fields" ]; then
    echo "config_setters: found no config fields" >&2
    exit 1
fi
shared=$(sort <<<"$all_fields" | uniq -d)
sources=$(find crates src examples tests benchmark/src -name '*.rs' | sort)

unset_count=0
while read -r file name; do
    [ -n "$file" ] || continue
    corpus=$(
        {
            grep -vxF "$file" <<<"$sources" | xargs cat
            outside_defaults "$file" "$name"
        } | grep -vE '^[[:space:]]*//' || true
    )
    for field in $(fields "$file" "$name"); do
        if grep -qxF "$field" <<<"$shared"; then
            continue
        fi
        literal="(^|[^A-Za-z0-9_.])$field: "
        declaration="(pub(\\([a-z]+\\))? |let (mut )?|fn [^(]*\\(.*|\\|)$field: "
        typed="$field: (&|\\[|\\(|impl |dyn |(usize|u8|u16|u32|u64|i32|i64|f32|f64|bool|[A-Z][a-z][A-Za-z0-9]*)([,)<>;=]|\$))"
        place="\\.$field[[:space:]]*=[^=]"
        if grep -E "$literal" <<<"$corpus" | grep -vE "$declaration|$typed" | grep -q . ||
            grep -qE "$place" <<<"$corpus"; then
            continue
        fi
        echo "config_setters: $name::$field is set by nothing but its defaults"
        unset_count=$((unset_count + 1))
    done
done <<<"$structs"
if [ "$unset_count" -gt 0 ]; then
    echo "config_setters: $unset_count fields are set by nothing; make each a" \
        "constant beside its reader, or set it where a second value is in use" >&2
    exit 1
fi
echo "config_setters: every uniquely named config field is set somewhere"

#!/usr/bin/env bash
# Report-only size census: non-test lines per crate, for the files the
# observability refactors shrink, for the forensic dump's model and its
# readers, for the scheduling substrate and for the miss path (with its
# counts of tree serializations, tree repairs and device counter
# writes), plus the number of probe emission sites (`probe.report(` /
# `probe.pass(` calls outside comments, a call split across lines
# included) per file. A file's non-test lines are the lines above its
# first `#[cfg(test)]` (the whole file if it has none). Also counts the
# device's per-block store calls and the extent crate's full-node copies,
# and, outside crates/core, the `REWALK_TREE` writers, the device
# doorbells, `RING_TAIL` writes and PF submits (the doorbell sequence
# every requester shares), and the device `advance` call sites.
# Never fails on the numbers; it only prints them.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test line count of one file.
nontest() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

echo "non-test lines per crate:"
total=0
for dir in crates/*/; do
    n=0
    while IFS= read -r f; do
        n=$((n + $(nontest "$f")))
    done < <(find "$dir/src" -name '*.rs' | sort)
    total=$((total + n))
    printf '  %-12s %6d\n' "$(basename "$dir")" "$n"
done
printf '  %-12s %6d\n' "total" "$total"

# Non-test lines of each named file (0 if absent), then their total.
census() {
    local sum=0 n f
    for f in "$@"; do
        n=0
        [ -f "$f" ] && n=$(nontest "$f")
        sum=$((sum + n))
        printf '  %-44s %6d\n' "$f" "$n"
    done
    printf '  %-44s %6d\n' "total" "$sum"
}

echo "non-test lines of the probe-fold, span-tracer and telemetry files and the builder that chooses them:"
census crates/sim/src/{flight,trace,perfmon,probe}.rs crates/hypervisor/src/{system,telemetry,builder}.rs

echo "non-test lines of the event model: the flight ring, the span log and the probe fold:"
census crates/sim/src/{flight,trace,probe}.rs

echo "non-test lines of the forensic-dump model, its renderers and readers:"
census crates/sim/src/{flight,trace,perfmon}.rs shims/serde_json/src/lib.rs \
    crates/bench/src/forensic.rs crates/bench/src/bin/nesc_inspect.rs \
    crates/bench/src/experiments/observability.rs

echo "non-test lines of the scheduling substrate (a deleted file reads 0):"
census crates/sim/src/{queue,sched,time}.rs crates/core/src/device.rs

echo "non-test lines of the miss path (device stall slot, function contexts, tree installs):"
census crates/core/src/{device,function}.rs crates/hypervisor/src/system.rs

# Non-test `.serialize(` calls in system.rs: every device-visible tree
# goes through one (`System::serialize_image`).
printf '  %-44s %6d\n' "non-test .serialize( calls in system.rs" \
    "$(awk '/^#\[cfg\(test\)\]/ { exit } /\.serialize\(/ { n++ } END { print n + 0 }' \
        crates/hypervisor/src/system.rs)"

# Non-test `relink_pruned(` call sites in system.rs: a prune miss repairs
# the installed tree in one place (`System::install_tree`).
printf '  %-44s %6d\n' "non-test relink_pruned( calls in system.rs" \
    "$(awk '/^#\[cfg\(test\)\]/ { exit } /relink_pruned\(/ { n++ } END { print n + 0 }' \
        crates/hypervisor/src/system.rs)"

# Non-test device counter writes (`self.stats.`) in device.rs: the
# device reports, the probe's tally counts, so this stays 0.
printf '  %-44s %6d\n' "non-test self.stats. writes in device.rs" \
    "$(awk '/^#\[cfg\(test\)\]/ { exit } /self\.stats\./ { n++ } END { print n + 0 }' \
        crates/core/src/device.rs)"

# Non-test per-block store calls (`.block(` / `.block_mut(` /
# `.read_block(` / `.write_block(`) in the device and in the hypervisor's
# I/O paths: runs move through the store's chunk-granular run primitives,
# and a paravirtual write reads back only its partial edge blocks, one
# `read_run` each, so both stay 0.
for f in crates/core/src/device.rs crates/hypervisor/src/system.rs; do
    printf '  %-44s %6d\n' "non-test per-block store calls in $(basename "$f")" \
        "$(awk '/^#\[cfg\(test\)\]/ { exit } /\.(read_|write_)?block(_mut)?\(/ { n++ } END { print n + 0 }' "$f")"
done

# Non-test full-node copies in the extent crate (`read_node(` /
# `decode(` call sites, their definitions aside): the walk, the prune and
# the re-link read tree nodes in place (`layout::NodeView`), so this
# stays 0.
printf '  %-44s %6d\n' "non-test node copies in crates/extent" \
    "$(find crates/extent/src -name '*.rs' | sort | xargs perl -0777 -ne '
        s/^#\[cfg\(test\)\].*//ms;
        s{^\s*//.*$}{}mg;
        $t += () = /(?<!fn )\b(?:read_node|decode)\(/g;
        END { print $t + 0 }')"

# Per file outside crates/core: non-test `REWALK_TREE` writers (the
# hypervisor's miss handler is the one) and non-test `.advance(` /
# `.advance_into(` call sites (the NVMe and accelerator front-ends reach
# the device through `System`, so they have none).
nontest_sites() {
    find crates -path '*/src/*' -name '*.rs' -not -path 'crates/core/*' | sort |
        PATTERN="$1" xargs perl -0777 -ne '
            s/^#\[cfg\(test\)\].*//ms;
            s{^\s*//.*$}{}mg;
            my $n = () = /$ENV{PATTERN}/g;
            if ($n) { printf "  %-44s %6d\n", $ARGV, $n; $t += $n }
            END { printf "  %-44s %6d\n", "total", $t + 0 }'
}
echo "non-test REWALK_TREE writers outside crates/core, per file:"
nontest_sites '\bREWALK_TREE\b'
# The doorbell sequence is written once (`System::post`): one device
# doorbell, one `RING_TAIL` write and one PF submit in system.rs. A PF
# submit is a `.submit_pf(` call or a `.submit(` whose function argument
# is the PF.
echo "non-test device ring_doorbell( calls outside crates/core, per file:"
nontest_sites '\bdev(?:ice_mut\(\))?\.ring_doorbell\('
echo "non-test RING_TAIL writes outside crates/core, per file:"
nontest_sites '\bRING_TAIL\b'
echo "non-test PF submits (submit_pf( / submit(_, pf, ..)) outside crates/core, per file:"
nontest_sites '\.submit_pf\(|\.submit\(\s*[^,()]+,\s*(?:[\w.]+\.)?pf(?:\(\))?\s*,'
echo "non-test .advance( / .advance_into( calls outside crates/core, per file:"
nontest_sites '\.advance(?:_into)?\('

echo "probe emission sites (non-test probe.report( / probe.pass( calls) per file:"
find crates -path '*/src/*' -name '*.rs' | sort | xargs perl -0777 -ne '
    s/^#\[cfg\(test\)\].*//ms;
    s{^\s*//.*$}{}mg;
    my $n = () = /probe\s*\.(?:report|pass)\(/g;
    if ($n) { printf "  %-36s %6d\n", $ARGV, $n; $t += $n }
    END { printf "  %-36s %6d\n", "total", $t }'

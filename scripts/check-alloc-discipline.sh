#!/usr/bin/env bash
# Data-plane allocation discipline (DESIGN.md §15).
#
# The batched tuple data plane keeps per-tuple heap traffic out of the
# hot paths — the scan loop and step plumbing (`exec`), the `exec::scan`
# stage, the `exec::hash` consumers, the one producer loop
# (`algorithms::family`, which sort-merge's redistribution runs through
# too) and sort-merge's merge join (`algorithms::sort_merge`): records
# stay on their pages and move as borrowed `&[u8]` slices or page
# references. This guard fails if someone re-introduces a
# per-tuple owned copy — `.to_vec()` on a record slice, a `Vec<Vec<u8>>`
# staging vector, or an owned `Vec<u8>` tuple type — in the non-test body
# of those files, or a per-record arena copy in the scan loop. Gate 5
# (`regress` + ALLOC_CEILINGS.json) catches the same erosion
# quantitatively; this catches it at review time with a file:line to
# point at.
#
# Allowed and therefore exempt:
#   * everything under the trailing `#[cfg(test)]` module (tests stage
#     fixtures however they like);
#   * comment lines (they describe the discipline, they don't break it);
#   * `join_nodes.to_vec()` — a copy of a small NodeId slice per join
#     setup, not per tuple;
#   * `&mut Vec<u8>` out-parameters (the reuse-a-buffer idiom the batch
#     plane is built on);
#   * `arena: Vec<u8>` — the hash table's arena IS the batch backing
#     store (one allocation per table, not per tuple);
#   * `Arc<Vec<u8>>` — that arena once frozen, shared by reference count
#     with the result messages that point into it (one per table).
#
# The join hash table (`hash_table.rs`) threads its chains through one
# entry vector and hands a probe's matches out as a walk over them, so it
# has no vector per chain bucket and no collected match list to spill:
# `Vec<Vec<` or a `spill:` field in its non-test body is that layout back
# again (the `#[cfg(test)]` reference model keeps one vector per chain on
# purpose), and the collected-match type `MatchSet` is gone from the crate.
#
# A join result leaves its producer as two references — a probe's `R` on
# the site's frozen hash table and `S` on the probing tuple's page, a merge
# join's `R` and `S` on the pages of their sorted runs — and is composed
# only where the store writes it (`StepCtx::send_parts` into
# `HeapWriter::push_concat`): a `RESULT_TAG` sent by `send` / `send_rec`
# in the hash consumers or anywhere under `algorithms/`, or a
# `push_concat(` into a batch in `sort_merge.rs`, is a result composed on
# the host and copied again into a stream arena, and `compose_into` (a
# buffer per composed tuple) is gone from the crate.
#
# Scanned records leave a producer by reference (`StepCtx::send_rec` over
# `TupleBatch::recs`): the exchange carries a handle to their page and
# copies nothing, so the copying `ctx.send(` has no place in the producer
# file or the merge join. The exchange itself (`crates/net/src`) owns no
# process-global buffer list — message tables belong to one machine's
# `Exchange` — and `exchange.rs` no byte buffer per packet: a packet is a
# `(bytes, count, query, local)` record, and the only byte vectors are the
# blocks of a table's arena (`Blocks<u8>`) and the frozen hash-table arenas
# a message part can lie on (`Arc<Vec<u8>>`, owned by the join site).
#
# The gamma-prof sampling hot path (`crates/prof/src/sample.rs`) gets a
# stricter check: the per-tick fill loops run once per series per tick
# inside the recorder, so they must be allocation-free outright — callers
# pre-size the output slices.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for f in crates/core/src/exec/mod.rs crates/core/src/exec/scan.rs \
         crates/core/src/exec/hash.rs crates/core/src/algorithms/family.rs \
         crates/core/src/algorithms/sort_merge.rs crates/core/src/hash_table.rs; do
    # Non-test body: everything above the trailing #[cfg(test)] module.
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE '\.to_vec\(\)|Vec<Vec<u8>>|[^&]Vec<u8>' |
        grep -vE '^[0-9]+:\s*//|join_nodes\.to_vec|&mut Vec<u8>|arena: Vec<u8>|Arc<Vec<u8>>' || true)
    if [ -n "$hits" ]; then
        echo "error: $f re-introduces per-tuple heap traffic on the data plane:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done

# The one scan loop hands out page handles (`TupleBatch::push_page`); a
# `push` per record there is the scan-staging memcpy back again.
f=crates/core/src/exec/mod.rs
body=$(awk '/^fn read_file_batch\(/{on=1} on{print} on&&/^}/{exit}' "$f")
if ! grep -q 'push_page(' <<<"$body" ||
    grep -qE '\.push\(|push_concat\(|next_ref\(' <<<"$body"; then
    echo "error: $f: read_file_batch must push page handles, not copy records:" >&2
    grep -nE '\.push\(|push_concat\(|next_ref\(' <<<"$body" | sed "s|^|  |" >&2 || true
    fail=1
fi

# The join hash table: no vector per chain, no collected match list.
f=crates/core/src/hash_table.rs
hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
    grep -nE 'Vec<Vec<|\bspill:' | grep -vE '^[0-9]+:\s*//' || true)
if [ -n "$hits" ]; then
    echo "error: $f allocates per chain or per probe again:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi
hits=$(grep -rn 'MatchSet' crates/core/src || true)
if [ -n "$hits" ]; then
    echo "error: MatchSet is back; a probe's matches are a Matches<'_> walk:" >&2
    echo "$hits" | sed "s|^|  |" >&2
    fail=1
fi

# Results are composed where they are stored: the hash consumers and the
# join algorithms send a result only with `send_parts`, and the merge join
# composes none into a batch.
for f in crates/core/src/exec/hash.rs crates/core/src/algorithms/*.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE 'send(_rec)?\(.*RESULT_TAG' | grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$hits" ]; then
        echo "error: $f copies a result into a stream arena; send it with ctx.send_parts:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done
f=crates/core/src/algorithms/sort_merge.rs
hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
    grep -nE 'push_concat\(' | grep -vE '^[0-9]+:\s*//' || true)
if [ -n "$hits" ]; then
    echo "error: $f composes merge results on the host; send R and S by reference:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi
hits=$(grep -rn 'compose_into' crates/core/src || true)
if [ -n "$hits" ]; then
    echo "error: compose_into is back; a result is composed where it is stored:" >&2
    echo "$hits" | sed "s|^|  |" >&2
    fail=1
fi

# Producers send page-backed records by reference.
for f in crates/core/src/algorithms/family.rs crates/core/src/algorithms/sort_merge.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE 'ctx\.send\(' | grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$hits" ]; then
        echo "error: $f sends a record by copy; use ctx.send_rec over TupleBatch::recs():" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done

# The exchange: no process-global buffer list, no byte buffer per packet.
for f in crates/net/src/*.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE '^\s*(pub(\([a-z]+\))? )?static |thread_local!' |
        grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$hits" ] && grep -qE 'Mutex|RwLock|OnceLock|LazyLock|RefCell' "$f"; then
        echo "error: $f keeps process-global mutable state (a buffer list?):" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done
f=crates/net/src/exchange.rs
hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
    grep -nE '\bstatic\b|Vec<u8>|buf:' | grep -vE '^[0-9]+:\s*//|Arc<Vec<u8>>' || true)
if [ -n "$hits" ]; then
    echo "error: $f holds a static or a byte buffer outside a table's arena blocks:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi

# Flight-recorder sampling must be allocation-free per tick.
f=crates/prof/src/sample.rs
hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
    grep -nE '\.push\(|\.to_vec\(|\.to_string\(|\.collect\(|Vec::|vec!|String::|format!|Box::' |
    grep -vE '^[0-9]+:\s*//' || true)
if [ -n "$hits" ]; then
    echo "error: $f allocates on the per-tick sampling hot path:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo >&2
    echo "Route records through page-backed TupleBatches / borrowed slices instead" >&2
    echo "(see DESIGN.md §15); if a copy is genuinely per-join and O(nodes)," >&2
    echo "extend the allowlist in $0 with a comment saying why." >&2
    exit 1
fi
echo "alloc discipline OK: no per-tuple owned moves in exec::{mod,scan,hash}/algorithms::{family,sort_merge}/hash_table, chains threaded through one entry vector, page-backed scan loop, producers send by reference, every join's results sent as two references and composed where they are stored, no global or per-packet buffer in net::exchange, no allocs in prof sampling"

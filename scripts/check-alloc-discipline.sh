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
# `(bytes, count, local)` record, and the only byte vectors are the
# blocks of a table's arena (`Blocks<u8>`) and the frozen hash-table arenas
# a message part can lie on (`Arc<Vec<u8>>`, owned by the join site).
#
# The worker pool parallelises whole node steps and nothing finer: no
# per-tuple work is fanned out to it, so a step's tuples are processed by
# the same code, in the same order, on either executor. Intra-node
# chunking (`par_map`, `map_chunks`, `CHUNK_TUPLES`) and the pooled
# absorb path it fed (`precomputed_probes`) are gone from the crate, test
# modules included.
#
# A heap writer fills its pages in place, in a staging run of
# `SEGMENT_PAGES` pages that its volume owns and hands from writer to
# writer (`Volume::take_run` / `return_run`): closing a full page
# (`Staging::seal` in `crates/wiss/src/page.rs`) only moves on to the next
# page of the run, and a run is published whole — one `Arc<[u8]>` segment
# per up to `SEGMENT_PAGES` pages — by `Staging::publish`. An allocation
# in `seal`, a second one in `publish`, a run made per writer in
# `heap.rs`, or the per-page `PageBuilder` is one image per page written
# again. The build stage keeps what arrived by reference by reference:
# it takes each message as a part (`m.part()`), never its bare
# `m.payload`, and forwards a diverted tuple to its `R'` spool with
# `ctx.send_rec`; its one copying `ctx.send(` is a hash-table eviction,
# whose bytes have no shared image. A writer whose file nothing reads (`HeapWriter::create_unkept`)
# takes no staging run and copies no record bytes: it lays its pages out
# by length in a `Layout`, which holds and writes no bytes. The sort
# (`crates/wiss/src/sort.rs`) writes its runs as orders over the input's
# pages through unkept writers and opens no kept `HeapWriter::create(`,
# and it has one record-copy site, in `external_sort`, which copies the
# sorted result into its file once: a kept writer or a second copy site
# is a sort run copied record by record again. The sort charges its
# comparisons by one closed form of the run lengths (`merge_compares`), so
# a std sort whose comparator or key closure counts its own calls
# (`sort_by(|a, b| { n += 1; … })`) in a non-test body of `crates/*/src`
# is a charge that moves with the toolchain again.
#
# One packet path: the exchange (`crates/net/src/exchange.rs`) batches and
# charges every inter-node tuple, and scheduler control messages are
# charged in `crates/core/src/exec/control.rs`. A second batcher — a
# `struct Fabric` or a `fn send_tuple` in any non-test body — or a machine
# field holding one is a second N×N pending matrix charging packets again.
# One exchange client: `run_step` (`crates/core/src/exec/mod.rs`) is the
# only engine code that routes the exchange, takes or returns an inbox or
# reaches into the outboxes, so every tuple is sent and stored by a node
# step; a main-thread store loop anywhere else in `crates/core/src` is a
# second way into the exchange.
# One consumer side per join: each join builds one `exec::hash::Consumers`
# — in `HashJoin::new` (`algorithms/family.rs`) or at the start of
# `sort_merge::run` — and it holds the result store operators from the
# first step to `Consumers::finish`. A `Consumers::new(` anywhere else in a
# non-test body of `crates/core/src` is a second consumer side: its stores
# would hold a second result, and what it drops (an open spool) would
# vanish without the `install_sites` panic. A `ResultSink` under
# `crates/*/src` or `tests/` is a second owner of the store writers.
# The event kernel keeps only what its users need: the phase replay
# records its own simulation steps, so a traced mode (`trace_steps`) or
# event cancellation (`fn cancel`) in `crates/des/src/sim.rs` is dead
# weight back again.
#
# Serve runs its instances one after another, each leaving the exchange
# drained, so nothing multiplexes queries: a query id stamped on packets,
# messages, trace events or phase usage (`set_query`, `query_id`,
# `current_query`) in a non-test body of the exchange, the trace sink, the
# engine or the scheduler is a dimension nobody reads back again.
#
# The host-side tables of the engine crates (`core`, `net`, `wiss`, `des`)
# hash with a fixed key: where a key lands decides when a table rehashes,
# so a `HashMap` / `HashSet` on the default per-process `RandomState` makes
# allocation counts differ run to run. Each such line names its hasher
# (`BuildHasherDefault<DefaultHasher>` or an alias ending in `Hasher`).
#
# The observers' exporters (`crates/metrics/src/{json,prometheus}.rs`,
# `crates/prof/src/export.rs`) and the serve EXPLAIN report
# (`crates/sched/src/explain.rs`) write labels, escapes and values straight
# into their one output `String` with `write!` / `push_str`: a `format!`,
# `.to_string()`, `.join(` or `.replace(` in a non-test body, a helper
# returning a `String` other than the public renderers and `json_str`, or a
# `json_str(` call inside `export.rs` is an allocation per line or value
# again (the `observed` workload made 219,000 of them a pass so, and the
# EXPLAIN report one per row).
#
# The Perfetto export (`crates/trace/src/perfetto.rs`) writes every number
# through its one decimal writer and copies every constant fragment as
# bytes: a `write!`, `format!` or `format_args!` in its non-test body
# outside `escape`'s control-character branch and `push_meta` is `core::fmt`
# back on the per-event path (a quarter of an `observed` pass was the
# formatter so).
#
# The event kernel (`crates/des/src/sim.rs`) queues its caller's typed
# events by value, and the serve engine (`crates/sched/src/engine.rs`)
# schedules a three-variant enum: a `Box<dyn FnOnce` or an `EventFn` alias
# in either file is a boxed closure per scheduled event again (four per
# served query, 24,400 a `serve` pass).
#
# Each request log has one owner, the (phase, node) ledger that charged it
# (DESIGN.md §10). A total — a phase's, a report's, a serve run's — sums
# the ledgers' scalar fields by reference (`impl Sum<&Usage> for Usage`)
# and carries no log: totalling clones of the ledgers (`.cloned().fold(`,
# `+= u.clone()`, `acc + r.total.clone()`), extending one ledger's log
# from another's (`extend_from_slice(&r.reqs`), or a by-value `Add` /
# `AddAssign` for `Usage` in a non-test body of `crates/*/src` is every
# log copied into a total nobody replays again.
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
        grep -vE '^[0-9]+:\s*//|&mut Vec<u8>|arena: Vec<u8>|Arc<Vec<u8>>' || true)
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

# One parallel grain: the node step.
hits=$(grep -rnE 'par_map|map_chunks|CHUNK_TUPLES|precomputed_probes' crates/core/src || true)
if [ -n "$hits" ]; then
    echo "error: intra-node chunking is back; the pool runs whole node steps only:" >&2
    echo "$hits" | sed "s|^|  |" >&2
    fail=1
fi

# Closing a page allocates nothing; a run is published as one segment.
f=crates/wiss/src/page.rs
body() { # fn name -> the body of Staging's method of that name
    awk -v fn="fn $1(" '/^impl Staging/{on=1} on&&index($0,fn){s=1} s{print} s&&/^    }$/{exit}' "$f"
}
b=$(body seal)
if [ -z "$b" ] || grep -vE '^\s*//' <<<"$b" |
    grep -qE 'Arc::|Box::|Vec|vec!|collect|to_vec|to_owned|clone\(|Page( \{|::)|publish\('; then
    echo "error: $f: Staging::seal must work in place, without allocating:" >&2
    echo "$b" | sed "s|^|  |" >&2
    fail=1
fi
if [ "$(body publish | grep -cE 'Arc::from|Arc::new|collect|to_vec')" -ne 1 ]; then
    echo "error: $f: Staging::publish must make exactly one image, the segment, per run:" >&2
    body publish | sed "s|^|  |" >&2
    fail=1
fi
# The build stage forwards a diverted tuple by reference.
f=crates/core/src/exec/hash.rs
src=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f")
b=$(awk 'index($0,"fn on_build("){s=1} s{print} s&&/^    }$/{exit}' <<<"$src")
hits=$(grep -nE 'TAG_BUILD\b.*m\.payload' <<<"$src" || true)
if [ -z "$b" ] || [ "$(grep -vE '^\s*//' <<<"$b" | grep -cE 'ctx\.send\(')" -ne 1 ] ||
    ! grep -qE 'ctx\.send\(home, spool_tag, site\.table\.slice\(range\)\)' <<<"$b"; then
    hits+=$'\n'"$(grep -nE 'ctx\.send(_rec)?\(' <<<"$b")"
fi
if [ -n "${hits//[$'\n']/}" ]; then
    echo "error: $f: the build stage copies a tuple that arrived by reference; only an eviction is sent by copy:" >&2
    echo "$hits" | grep . | sed "s|^|  |" >&2
    fail=1
fi
f=crates/wiss/src/heap.rs
hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
    grep -nE 'Staging::new|PageBuilder|Page::new|Page::from_bytes' | grep -vE '^[0-9]+:\s*//' || true)
if [ -n "$hits" ] || ! grep -q 'take_run(' "$f"; then
    echo "error: $f: a writer takes its staging run from its volume, never one of its own:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi
# An unkept writer takes no staging run, and its by-length page holds and
# copies no bytes.
b=$(awk '/fn create_unkept\(/{s=1} s{print} s&&/^    }$/{exit}' "$f")
if [ -z "$b" ] || grep -vE '^\s*//' <<<"$b" | grep -qE 'take_run\(|Staging'; then
    echo "error: $f: an unkept writer takes no staging run:" >&2
    echo "$b" | sed "s|^|  |" >&2
    fail=1
fi
b=$(awk '/^pub\(crate\) struct Layout/{s=1} s{print} s&&/^impl Layout/{i=1} i&&/^}$/{exit}' \
    crates/wiss/src/page.rs)
if [ -z "$b" ] || grep -vE '^\s*//' <<<"$b" |
    grep -qE 'u8|Box|Vec|Arc|\[|copy_from_slice|fill\('; then
    echo "error: crates/wiss/src/page.rs: Layout lays a page out by length; it holds and copies no bytes:" >&2
    echo "$b" | sed "s|^|  |" >&2
    fail=1
fi
# The sort copies records once, into external_sort's result: it opens no
# kept writer, and its one record-copy site lies in external_sort.
f=crates/wiss/src/sort.rs
copy='\.insert\(|insert_concat\(|copy_from_slice|extend_from_slice|to_vec\(|to_owned\('
src=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f")
hits=$(grep -nE 'HeapWriter::create\(' <<<"$src" | grep -vE '^[0-9]+:\s*//' || true)
if [ -n "$hits" ]; then
    echo "error: $f opens a kept writer; its runs are orders written by unkept ones:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi
hits=$(grep -nE "$copy" <<<"$src" | grep -vE '^[0-9]+:\s*//' || true)
ext=$(awk '/^pub fn external_sort</{s=1} s{print} s&&/^}$/{exit}' "$f" |
    grep -vE '^\s*//' | grep -cE "$copy" || true)
if [ "$(grep -c . <<<"$hits")" -ne 1 ] || [ "$ext" -ne 1 ]; then
    echo "error: $f must copy records at one site only, in external_sort:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi
# No charge counts a std sort's comparator calls.
while IFS= read -r f; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\// {next}
        !on && /\.sort(_unstable)?_by(_key|_cached_key)?\(/ {on=1; depth=0}
        on {
            if ($0 ~ /\+=|-=|fetch_add|\.set\(/) print NR ": " $0
            line = $0; depth += gsub(/\(/, "", line) - gsub(/\)/, "", line)
            if (depth <= 0) on=0
        }' "$f")
    if [ -n "$hits" ]; then
        echo "error: $f counts a std sort's comparator calls; charge by merge_compares' closed form:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done < <(find crates/*/src -name '*.rs' | sort)
hits=$(grep -rn 'PageBuilder' crates/wiss/src || true)
if [ -n "$hits" ]; then
    echo "error: PageBuilder is back; pages are staged in a volume's runs:" >&2
    echo "$hits" | sed "s|^|  |" >&2
    fail=1
fi

# One packet path, and an event kernel without dead modes.
while IFS= read -r f; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE 'struct Fabric\b|fn send_tuple\b' | grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$hits" ]; then
        echo "error: $f batches packets outside the exchange:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done < <(find crates/*/src -name '*.rs' | sort)
hits=$(grep -rn 'machine\.fabric' crates src tests examples benchmark/src || true)
if [ -n "$hits" ]; then
    echo "error: a machine fabric is back; packets are charged by the exchange only:" >&2
    echo "$hits" | sed "s|^|  |" >&2
    fail=1
fi
while IFS= read -r f; do
    [ "$f" = crates/core/src/exec/mod.rs ] && continue
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE 'outboxes_mut\(|take_inbox\(|return_inbox\(|exchange\.route\(' |
        grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$hits" ]; then
        echo "error: $f reaches into the exchange; only run_step may:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done < <(find crates/core/src -name '*.rs' | sort)
hits=$(grep -rn 'ResultSink' crates/*/src tests || true)
if [ -n "$hits" ]; then
    echo "error: ResultSink is back; a join's Consumers owns its result store:" >&2
    echo "$hits" | sed "s|^|  |" >&2
    fail=1
fi
while IFS= read -r f; do
    # Each `Consumers::new(` call, named by its enclosing impl type and fn.
    hits=$(awk '/^#\[cfg\(test\)\]/{exit}
        /^impl/ {t=$0; sub(/^impl(<[^>]*>)? */, "", t); sub(/[<{].*/, "", t); n=split(t, w, " "); ty=w[n] "::"}
        /^}/ {ty=""}
        /^[[:space:]]*(pub(\([a-z]+\))? )?fn / {fn=$0; sub(/^[[:space:]]*(pub(\([a-z]+\))? )?fn /, "", fn); sub(/[(<].*/, "", fn)}
        /Consumers::new\(/ && !/^[[:space:]]*\/\// {print NR ": in " ty fn ": " $0}' "$f" |
        grep -vE "^[0-9]+: in $(case "$f" in
            */algorithms/family.rs) echo 'HashJoin::new' ;;
            */algorithms/sort_merge.rs) echo 'run' ;;
            *) echo '-' ;;
        esac): " || true)
    if [ -n "$hits" ]; then
        echo "error: $f builds a second consumer side; a join has one, from HashJoin::new or sort_merge::run:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done < <(find crates/core/src -name '*.rs' | sort)
hits=$(grep -nE 'trace_steps|fn cancel\b' crates/des/src/sim.rs || true)
if [ -n "$hits" ]; then
    echo "error: crates/des/src/sim.rs grew a traced mode or cancellation again:" >&2
    echo "$hits" | sed "s|^|  crates/des/src/sim.rs:|" >&2
    fail=1
fi

# No query ids.
while IFS= read -r f; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE 'set_query|query_id|current_query' || true)
    if [ -n "$hits" ]; then
        echo "error: $f stamps a query id again; serve runs its instances one after another:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done < <(find crates/{net,trace,core,sched}/src -name '*.rs' | sort)

# Fixed-key hashing in the engine crates.
while IFS= read -r f; do
    src=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nvE '^\s*//' || true)
    hits=$({
        grep -E '\b(HashMap|HashSet)\b' <<<"$src" | grep -vE '^[0-9]+:\s*(pub )?use ' |
            grep -vE '[A-Za-z]Hasher\b'
        grep -E '\bRandomState\b' <<<"$src"
    } | sort -nu || true)
    if [ -n "$hits" ]; then
        echo "error: $f hashes with a per-process random key; use BuildHasherDefault<DefaultHasher>:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done < <(find crates/{core,net,wiss,des}/src -name '*.rs' | sort)

# Exporters write into one buffer.
for f in crates/metrics/src/json.rs crates/metrics/src/prometheus.rs crates/prof/src/export.rs \
         crates/sched/src/explain.rs; do
    src=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nvE '^\s*//' || true)
    hits=$({
        grep -E 'format!\(|\.to_string\(\)|\.join\(|\.replace\(' <<<"$src"
        grep -E -- '-> String' <<<"$src" | grep -vE 'pub fn (render|render_json|render_csv|json_str)\('
        grep -E '(^|[^_a-z])json_str\(' <<<"$src" | grep -v 'fn json_str('
    } | sort -nu || true)
    if [ -n "$hits" ]; then
        echo "error: $f allocates per line or value; write into the one output buffer:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done

# The Perfetto export keeps core::fmt off its per-event path.
f=crates/trace/src/perfetto.rs
hits=$(awk '/^#\[cfg\(test\)\]/{exit}
    /^[[:space:]]*\/\// {next}
    /^(pub )?fn / {fn=$0; sub(/^(pub )?fn /, "", fn); sub(/[(<].*/, "", fn)}
    /(write|format|format_args)!/ && fn != "push_meta" && !(fn == "escape" && index($0, "u{:04x}")) {
        print NR ": " $0
    }' "$f")
if [ -n "$hits" ]; then
    echo "error: $f formats with core::fmt; write numbers with push_u64 and constant fragments as bytes:" >&2
    echo "$hits" | sed "s|^|  $f:|" >&2
    fail=1
fi

# Typed events: nothing boxed per scheduled event.
for f in crates/des/src/sim.rs crates/sched/src/engine.rs; do
    hits=$(grep -nE 'Box<dyn FnOnce|\bEventFn\b' "$f" | grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$hits" ]; then
        echo "error: $f boxes a closure per event; schedule a typed event by value:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done

# Totals sum ledgers by reference; request logs are never copied into one.
while IFS= read -r f; do
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -nE '\.cloned\(\)\.fold\(|\+=?\s*[A-Za-z_][A-Za-z0-9_.]*\.clone\(\)|extend_from_slice\(&[A-Za-z_][A-Za-z0-9_.]*\.reqs|impl (Add|AddAssign)(<Usage>)? for Usage' |
        grep -vE '^[0-9]+:\s*//' || true)
    if [ -n "$hits" ]; then
        echo "error: $f totals cloned ledgers or copies a request log; sum the ledgers by reference:" >&2
        echo "$hits" | sed "s|^|  $f:|" >&2
        fail=1
    fi
done < <(find crates/*/src -name '*.rs' | sort)

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
echo "alloc discipline OK: no per-tuple owned moves in exec::{mod,scan,hash}/algorithms::{family,sort_merge}/hash_table, chains threaded through one entry vector, page-backed scan loop, producers send by reference, every join's results sent as two references and composed where they are stored, no intra-node chunking, pages closed without allocating and published a segment at a time from reused runs, diverted build tuples forwarded by reference, unkept writers and sort runs copying no record bytes, no charge counting a std sort's comparator calls, no global or per-packet buffer in net::exchange, one packet path (no Fabric, no send_tuple, no machine.fabric), one exchange client (run_step), one consumer side per join (no ResultSink), no traced mode or cancellation in the event kernel, typed events with no boxed closure in the kernel or the serve engine, no query ids, fixed-key hash tables in the engine crates, exporters and EXPLAIN writing into one buffer, a Perfetto export without core::fmt, totals summed by reference with one owner per request log, no allocs in prof sampling"

#!/usr/bin/env sh
# Compare a fresh benchmark snapshot against a checked-in baseline and fail
# when any shared benchmark regressed beyond the allowed factor — in time
# (ns/op), in allocated memory (B/op), or in allocation count (allocs/op).
#
# Usage: scripts/bench_check.sh baseline.json fresh.json [max-factor] [max-bytes-factor] [max-allocs-factor] [max-pool-factor]
#
# Benchmarks are matched by name; entries present in only one file are
# ignored (new benchmarks don't fail the gate), and the bytes/allocs gates
# only fire when both snapshots recorded the series. The default time
# factor of 2 is deliberately loose: snapshots are single-iteration smoke
# timings, and the gate exists to catch order-of-magnitude mistakes (an
# accidentally serial kernel, a reintroduced dense path), not
# percent-level noise. Allocated bytes and allocation counts are
# deterministic-ish, so their default factor is tighter (1.5) — a dense
# ns×nt matrix sneaking back into the top-k path multiplies B/op far
# beyond that, and a per-row (instead of per-block) scratch allocation
# multiplies allocs/op the same way. The pool-rows series (mean candidate
# rows the ANN backend re-ranks per query, recorded by the skew-adversarial
# and 100K ingestion benchmarks) is gated at the same tightness: it is
# fully deterministic for a fixed seed, and a balanced hash silently
# degrading to skewed buckets multiplies it well beyond 1.5 long before
# wall-clock noise would catch the regression.
set -eu

baseline=$1
fresh=$2
factor=${3:-2.0}
bytes_factor=${4:-1.5}
allocs_factor=${5:-1.5}
pool_factor=${6:-1.5}

# Extract "name ns_per_op bytes_per_op allocs_per_op" tuples from the
# snapshot JSON (one benchmark per line, as produced by bench_snapshot.sh;
# a missing series becomes "-"). The -GOMAXPROCS suffix Go appends on
# multi-core hosts is stripped again here, so snapshots taken before that
# normalisation (or hand-edited) still match by name.
extract() {
	tr ',' '\n' < "$1" | awk '
		/"name"/ {
			if (name != "") print name, ns, bytes, allocs, pool
			gsub(/.*"name": "|"/, ""); sub(/-[0-9]+$/, "")
			name = $0; ns = "-"; bytes = "-"; allocs = "-"; pool = "-"
		}
		/"ns_per_op"/       { gsub(/.*"ns_per_op": |}.*/, "");       ns = $0 }
		/"bytes_per_op"/    { gsub(/.*"bytes_per_op": |}.*/, "");    bytes = $0 }
		/"allocs_per_op"/   { gsub(/.*"allocs_per_op": |}.*/, "");   allocs = $0 }
		/"pool_rows_per_op"/ { gsub(/.*"pool_rows_per_op": |}.*/, ""); pool = $0 }
		END { if (name != "") print name, ns, bytes, allocs, pool }'
}

extract "$baseline" | sort > /tmp/bench_base.$$
extract "$fresh" | sort > /tmp/bench_fresh.$$

fail=0
compared=0
while read -r name base basebytes baseallocs basepool; do
	line=$(awk -v n="$name" '$1 == n { print $2, $3, $4, $5 }' /tmp/bench_fresh.$$)
	[ -z "$line" ] && continue
	set -- $line
	new=$1
	newbytes=$2
	newallocs=$3
	newpool=$4
	compared=$((compared + 1))
	worse=$(awk -v b="$base" -v n="$new" -v f="$factor" 'BEGIN { print (n > b * f) ? 1 : 0 }')
	if [ "$worse" = 1 ]; then
		echo "REGRESSION: $name ${base}ns -> ${new}ns (allowed factor $factor)" >&2
		fail=1
	else
		echo "ok: $name ${base}ns -> ${new}ns"
	fi
	# Allocated-bytes gate: only when both snapshots carry the series.
	if [ "$basebytes" != "-" ] && [ "$newbytes" != "-" ]; then
		worse=$(awk -v b="$basebytes" -v n="$newbytes" -v f="$bytes_factor" 'BEGIN { print (n > b * f) ? 1 : 0 }')
		if [ "$worse" = 1 ]; then
			echo "REGRESSION: $name ${basebytes}B/op -> ${newbytes}B/op (allowed factor $bytes_factor)" >&2
			fail=1
		else
			echo "ok: $name ${basebytes}B/op -> ${newbytes}B/op"
		fi
	fi
	# Allocation-count gate, same contract as the bytes gate.
	if [ "$baseallocs" != "-" ] && [ "$newallocs" != "-" ]; then
		worse=$(awk -v b="$baseallocs" -v n="$newallocs" -v f="$allocs_factor" 'BEGIN { print (n > b * f) ? 1 : 0 }')
		if [ "$worse" = 1 ]; then
			echo "REGRESSION: $name ${baseallocs}allocs/op -> ${newallocs}allocs/op (allowed factor $allocs_factor)" >&2
			fail=1
		else
			echo "ok: $name ${baseallocs}allocs/op -> ${newallocs}allocs/op"
		fi
	fi
	# Pool-rows gate: the ANN skew signal, same contract as the bytes gate.
	if [ "$basepool" != "-" ] && [ "$newpool" != "-" ]; then
		worse=$(awk -v b="$basepool" -v n="$newpool" -v f="$pool_factor" 'BEGIN { print (n > b * f) ? 1 : 0 }')
		if [ "$worse" = 1 ]; then
			echo "REGRESSION: $name ${basepool}pool-rows/op -> ${newpool}pool-rows/op (allowed factor $pool_factor)" >&2
			fail=1
		else
			echo "ok: $name ${basepool}pool-rows/op -> ${newpool}pool-rows/op"
		fi
	fi
done < /tmp/bench_base.$$

rm -f /tmp/bench_base.$$ /tmp/bench_fresh.$$

# A gate that compared nothing protects nothing — treat it as a failure
# (renamed benchmarks must update the checked-in baseline alongside).
if [ "$compared" = 0 ]; then
	echo "ERROR: no benchmarks in common between $baseline and $fresh" >&2
	fail=1
fi
exit $fail

#!/usr/bin/env sh
# Repository health check: vet, build, and the full test suite under the
# race detector. Run from anywhere inside the repo; any failure aborts.
#
#   ./scripts/check.sh            # full check
#   ./scripts/check.sh -short     # skip the slower chaos/failure tests
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck ./..."
	staticcheck ./...
else
	echo "== staticcheck not installed; skipping"
fi

echo "== go build ./..."
go build ./...

echo "== go test -race ./... $*"
go test -race "$@" ./...

# Fuzz smoke: the plain test run above replays only each fuzzer's seed
# corpus. Here the five fuzzers that guard the network's own bytes run
# for 10 s each: Coalesce against its comparison-sort reference
# (FuzzTriFromEntries), Reduce over buffers with random page and chunk
# lengths against the same reference (FuzzReduce), the Tri transport
# codec, which must reject a non-canonical blob or round-trip it byte
# for byte (FuzzTriBinaryRoundTrip), the snapshot loader (FuzzOpen), and
# the collocation matrix's row index and clique compression against a
# map-of-bitsets reference over pooled reuse (FuzzBitMatrix).
# Skip with FUZZ=0.
if [ "${FUZZ:-1}" = "1" ]; then
	echo "== fuzz smoke (FuzzTriFromEntries, FuzzReduce, FuzzTriBinaryRoundTrip, FuzzOpen, FuzzBitMatrix; 10 s each)"
	for target in internal/sparse:FuzzTriFromEntries internal/sparse:FuzzReduce \
		internal/sparse:FuzzTriBinaryRoundTrip internal/gstore:FuzzOpen \
		internal/sparse:FuzzBitMatrix; do
		go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 10s "./${target%%:*}"
	done
fi

# Rank-transport stress: the join phase, heartbeats, aborted rounds and
# the in-process transport are timing-dependent, so one race run can
# miss an interleaving. Five more race runs of both transports, then of
# the distributed synthesis that re-stripes over them (about 30 s).
# Skip with MPISTRESS=0.
if [ "${MPISTRESS:-1}" = "1" ]; then
	echo "== mpi stress (mpinet + mpi -race -count=5; core -run Distributed -race -count=5)"
	go test -race -count=5 ./internal/mpinet ./internal/mpi
	go test -race -count=5 -run Distributed ./internal/core
fi

# Telemetry overhead guard (DESIGN.md §10): enabled telemetry may not
# slow the synthesis hot path by more than 5% versus disabled. Compares
# the best (minimum) ns/op of BenchmarkT3Synthesis against the
# Telemetry variant — the minimum over repeated counts is the standard
# noise-robust benchmark statistic; means are dominated by scheduler
# jitter at this wall (~50 ms/op). The two alternate, one disabled and
# one enabled run per process, five times over: with -count 5 all five
# disabled runs came first, so a box that slowed down as the race suite
# wound down charged the drift to the enabled side alone. Skip with
# GUARD=0 (e.g. on heavily loaded CI boxes).
if [ "${GUARD:-1}" = "1" ]; then
	echo "== telemetry overhead guard (T3Synthesis enabled/disabled <= 1.05)"
	guard_dir=$(mktemp -d)
	go test -c -o "$guard_dir/root.test" .
	# Each process simulates its own logs under TMPDIR; keep them in
	# guard_dir so they go with it.
	for i in 1 2 3 4 5; do
		TMPDIR="$guard_dir" "$guard_dir/root.test" -test.run '^$' \
			-test.bench 'BenchmarkT3Synthesis(Telemetry)?$' -test.count 1
	done >"$guard_dir/bench.txt"
	guard_code=0
	awk '
	/^BenchmarkT3SynthesisTelemetry/ { if (ne == 0 || $3 < en) en = $3; ne++; next }
	/^BenchmarkT3Synthesis/          { if (nd == 0 || $3 < dis) dis = $3; nd++ }
	END {
		if (nd != 5 || ne != 5) { printf "guard: want 5 runs per side, got %d disabled and %d enabled\n", nd, ne; exit 1 }
		ratio = en / dis
		printf "telemetry overhead ratio (best enabled / best disabled): %.3f\n", ratio
		if (ratio > 1.05) { printf "FAIL: telemetry overhead %.1f%% exceeds the 5%% budget\n", (ratio - 1) * 100; exit 1 }
	}' "$guard_dir/bench.txt" || guard_code=$?
	rm -rf "$guard_dir"
	[ "$guard_code" = 0 ] || exit 1
fi

# Experiment benchmark smoke: BenchmarkExperiments runs every entry of
# the experiment registry once at its bench scale (5k persons, 14 days),
# so a table or figure that stops running through Runner.Run fails here
# rather than when EXPERIMENTS.md is next regenerated.
echo "== experiment benchmark smoke (BenchmarkExperiments, one run per experiment)"
go test -run '^$' -bench Experiments -benchtime 1x ./internal/experiments

# Experiments command smoke: the command README points to for the
# scaling, age-group, community and time-granularity rows, at
# TestRowsPinned's tiny scale, must exit 0; an unknown -exp ID must fail
# before anything is simulated, leaving no logs/ directory. Skip with
# EXPSMOKE=0.
if [ "${EXPSMOKE:-1}" = "1" ]; then
	echo "== experiments smoke (cmd/experiments -exp fig5,E2,E4,A1,A3,S1; -exp nope fails before simulating)"
	exp_dir=$(mktemp -d)
	go run ./cmd/experiments -persons 1200 -days 8 -ranks 4 -workers 2 -seed 7 \
		-exp fig5,E2,E4,A1,A3,S1 -out "$exp_dir/ok" >"$exp_dir/ok.txt"
	exp_code=0
	go run ./cmd/experiments -persons 1200 -days 8 -ranks 4 -workers 2 -seed 7 \
		-exp nope -out "$exp_dir/bad" >/dev/null 2>&1 || exp_code=$?
	if [ "$exp_code" = 0 ] || [ -e "$exp_dir/bad/logs" ]; then
		echo "FAIL: -exp nope exited $exp_code, or wrote $exp_dir/bad/logs"
		rm -rf "$exp_dir"
		exit 1
	fi
	rm -rf "$exp_dir"
fi

# In-sim epidemic smoke: examples/epidemic drives abm.Run with an
# Interact hook that reads each place's occupants every hour and a LogExt
# column, so its stdout depends on the occupancy bookkeeping and on the
# order agents enter and leave places, which no log cksum sees. Its
# stdout cksum was recorded at commit 51b964f (identical over two runs).
# Skip with EPISMOKE=0.
if [ "${EPISMOKE:-1}" = "1" ]; then
	echo "== in-sim epidemic smoke (examples/epidemic stdout cksum pinned)"
	epi_dir=$(mktemp -d)
	go build -o "$epi_dir/epidemic" ./examples/epidemic
	epi_sum=$("$epi_dir/epidemic" | cksum)
	rm -rf "$epi_dir"
	if [ "$epi_sum" != "3415510382 2483" ]; then
		echo "FAIL: examples/epidemic stdout cksum $epi_sum, pinned 3415510382 2483"
		exit 1
	fi
fi

# Memory-budget benchmark (DESIGN.md §9): one budgeted and one
# unbudgeted SynthesizeFiles over a 1M-entry log set. The benchmark fails
# itself when the budgeted run's peak heap exceeds 2x its 8 MiB budget,
# spills fewer than two shards, or differs from the unbudgeted network.
echo "== memory-budget benchmark (BenchmarkT4MemBudget, peak heap <= 2x budget)"
go test -run '^$' -bench 'BenchmarkT4MemBudget$' -benchtime 1x .

# Serve smoke (DESIGN.md §11): convert the tiny testdata edge list to a
# snapshot (its cksum pinned), boot netserve on it on an ephemeral port, query two
# endpoints with the binary's own curl-free -get mode, then SIGTERM and
# require a clean graceful drain (exit 0). A second netserve serves the
# TSV itself, whose index is baked at load: its hot endpoints must
# answer byte for byte as the snapshot's do, and both must answer ego
# and path queries with pinned bodies. Last, -reindex must refuse a TSV
# (exit non-zero) and leave it untouched. Skip with SMOKE=0.
if [ "${SMOKE:-1}" = "1" ]; then
	echo "== netserve smoke (convert -> serve -> query -> drain; TSV served alike; -reindex refuses TSV)"
	smoke_dir=$(mktemp -d)
	smoke_tsv=cmd/netserve/testdata/smoke.tsv
	go build -o "$smoke_dir/netserve" ./cmd/netserve
	"$smoke_dir/netserve" -convert "$smoke_tsv" -snapshot "$smoke_dir/smoke.gsnap"
	# The converted snapshot's bytes, as recorded at commit 0a7c703,
	# before the writer wrote each section once from its own bytes.
	smoke_snap=$(cksum <"$smoke_dir/smoke.gsnap")
	if [ "$smoke_snap" != "2498783304 1024" ]; then
		echo "FAIL: converted smoke.gsnap cksum $smoke_snap, pinned 2498783304 1024"
		rm -rf "$smoke_dir"
		exit 1
	fi
	smoke_pids=""
	# smoke_boot NAME INPUT: serve INPUT in the background and wait until
	# it has written its bound address to $smoke_dir/NAME.addr.
	smoke_boot() {
		"$smoke_dir/netserve" -snapshot "$2" \
			-addr 127.0.0.1:0 -addr-file "$smoke_dir/$1.addr" -watch 0 &
		smoke_pids="$smoke_pids $!"
		i=0
		while [ ! -s "$smoke_dir/$1.addr" ]; do
			i=$((i + 1))
			if [ "$i" -gt 100 ]; then
				echo "FAIL: netserve ($1) never bound its port"
				kill $smoke_pids 2>/dev/null || true
				rm -rf "$smoke_dir"
				exit 1
			fi
			sleep 0.1
		done
	}
	smoke_boot snap "$smoke_dir/smoke.gsnap"
	smoke_boot tsv "$smoke_tsv"
	smoke_addr=$(cat "$smoke_dir/snap.addr")
	tsv_addr=$(cat "$smoke_dir/tsv.addr")
	"$smoke_dir/netserve" -get "http://$smoke_addr/v1/stats"
	"$smoke_dir/netserve" -get "http://$smoke_addr/v1/ego/0?radius=2"
	for q in degree/0 clustering/0 neighbors/0 degree-dist; do
		from_snap=$("$smoke_dir/netserve" -get "http://$smoke_addr/v1/$q")
		from_tsv=$("$smoke_dir/netserve" -get "http://$tsv_addr/v1/$q")
		if [ "$from_snap" != "$from_tsv" ]; then
			echo "FAIL: /v1/$q differs between the snapshot and the TSV server"
			echo "  snapshot: $from_snap"
			echo "  tsv:      $from_tsv"
			kill $smoke_pids 2>/dev/null || true
			rm -rf "$smoke_dir"
			exit 1
		fi
	done
	# The traversal endpoints answer from both servers byte for byte as
	# recorded at commit 6c2ec3d, before ego, BFS and weighted path ran on
	# the pooled epoch-stamped scratch: <query> <cksum of the body>.
	cat >"$smoke_dir/pins" <<-'EOF'
	ego/0?radius=1 1182654310 77
	ego/0?radius=2 3449708664 81
	ego/0?radius=3 3266366004 86
	path?from=0&to=5 264447412 83
	path?from=0&to=5&weighted=1 3599631347 101
	EOF
	while read -r q pin; do
		for a in "$smoke_addr" "$tsv_addr"; do
			got=$("$smoke_dir/netserve" -get "http://$a/v1/$q" | cksum)
			if [ "$got" != "$pin" ]; then
				echo "FAIL: /v1/$q from $a: cksum $got, pinned $pin"
				kill $smoke_pids 2>/dev/null || true
				rm -rf "$smoke_dir"
				exit 1
			fi
		done
	done <"$smoke_dir/pins"
	# weighted takes 0 or 1; anything else is a 400, not a silent BFS.
	if "$smoke_dir/netserve" -get "http://$smoke_addr/v1/path?from=0&to=5&weighted=true" \
		>"$smoke_dir/weighted-true" 2>/dev/null || ! grep -q '"status":400' "$smoke_dir/weighted-true"; then
		echo "FAIL: /v1/path?weighted=true did not get a 400: $(cat "$smoke_dir/weighted-true")"
		kill $smoke_pids 2>/dev/null || true
		rm -rf "$smoke_dir"
		exit 1
	fi
	echo "ego and path bodies match the pinned cksums; weighted=true refused"
	kill -TERM $smoke_pids
	for pid in $smoke_pids; do
		wait "$pid" # graceful drain must exit 0 (set -e aborts otherwise)
	done
	cp "$smoke_tsv" "$smoke_dir/copy.tsv"
	tsv_sum=$(cksum <"$smoke_dir/copy.tsv")
	if "$smoke_dir/netserve" -reindex "$smoke_dir/copy.tsv" 2>/dev/null; then
		echo "FAIL: netserve -reindex accepted a TSV edge list"
		rm -rf "$smoke_dir"
		exit 1
	fi
	if [ "$(cksum <"$smoke_dir/copy.tsv")" != "$tsv_sum" ]; then
		echo "FAIL: netserve -reindex rewrote a TSV edge list"
		rm -rf "$smoke_dir"
		exit 1
	fi
	rm -rf "$smoke_dir"
fi

# Supervised smoke (DESIGN.md §12): run the whole pipeline under
# cmd/netlaunch — one gang, every rank simulates and then synthesizes on
# the same transport — and require the same edge list and snapshot from
# every run. The baseline runs unfailed, with a run report whose
# `netstat trace` must cover all 4 ranks; its bytes are pinned to
# recorded cksums. Three chaos runs aim a kill -9:
#   - at rank 2 mid-simulation (the -hour-delay widens the window so the
#     kill lands mid-run): rank 0 fails through the transport, and the
#     gang relaunch with -resume replays the logs;
#   - at rank 2 as its synthesis begins: nothing restarts it, so it must
#     be reported as degraded rank 2 with no gang restart. The
#     survivors see the death at their next round and re-stripe its
#     files, so the run must finish in under 10 s with the pinned bytes;
#   - at rank 0 as its synthesis begins: the gang relaunches once, and
#     -resume takes the complete logs straight into the synthesis.
# Last, chisim runs the same simulation and synthesis on four goroutine
# ranks of one process, whose logs and network must match the pins.
# Skip with SUPSMOKE=0.
if [ "${SUPSMOKE:-1}" = "1" ]; then
	echo "== supervised smoke (netlaunch 4 ranks; kill -9 in either phase -> identical hashes)"
	sup_dir=$(mktemp -d)
	go build -o "$sup_dir/" ./cmd/chisim ./cmd/netlaunch ./cmd/netstat
	# Every run below comes from the same code, so a change that moved
	# the bytes everywhere would still agree with itself. Pin the bytes
	# to the values recorded at commit 18e5202; update them only for a
	# deliberate format or model change.
	pin_tsv="1841790360 516289"
	pin_snap="2819928085 1143272"
	# sup_pins LEG DIR: DIR's edge list and snapshot must match the pins.
	sup_pins() {
		got_tsv=$(cksum "$2/network.tsv" | cut -d' ' -f1-2)
		got_snap=$(cksum "$2/network.gsnap" | cut -d' ' -f1-2)
		if [ "$got_tsv" != "$pin_tsv" ] || [ "$got_snap" != "$pin_snap" ]; then
			echo "FAIL: $1 moved from the pinned cksums"
			echo "  network.tsv:   $got_tsv, pinned $pin_tsv"
			echo "  network.gsnap: $got_snap, pinned $pin_snap"
			rm -rf "$sup_dir"
			exit 1
		fi
	}
	# sup_says LEG TEXT LOG: the netlaunch output LOG must contain TEXT.
	sup_says() {
		if ! printf '%s\n' "$3" | grep -qF "$2"; then
			echo "FAIL: $1 did not report '$2'"
			printf '%s\n' "$3" | grep 'run done' || true
			rm -rf "$sup_dir"
			exit 1
		fi
	}
	echo "-- baseline (no faults)"
	"$sup_dir/netlaunch" -persons 2000 -days 2 -ranks 4 \
		-workdir "$sup_dir/base" -report "$sup_dir/base.json" >/dev/null
	sup_pins "baseline" "$sup_dir/base"
	echo "baseline edge list and snapshot match the pinned cksums"
	base_trace=$("$sup_dir/netstat" trace "$sup_dir/base.json")
	sup_says "baseline trace" "across 4 rank(s)" "$base_trace"
	echo "baseline trace covers all 4 ranks"
	echo "-- chaos (kill -9 rank 2 mid-simulation)"
	"$sup_dir/netlaunch" -persons 2000 -days 2 -ranks 4 \
		-workdir "$sup_dir/chaos" -hour-delay 20ms \
		-kill-rank 2 -kill-after 300ms -kill-phase sim >/dev/null
	sup_pins "simulation-kill run" "$sup_dir/chaos"
	echo "edge list and snapshot bit-identical across kill -9 recovery"
	echo "-- chaos (kill -9 rank 2 as its synthesis begins)"
	synth_start=$(date +%s%N)
	synth_log=$("$sup_dir/netlaunch" -persons 2000 -days 2 -ranks 4 \
		-workdir "$sup_dir/synth" \
		-kill-rank 2 -kill-after 0s -kill-phase synth)
	synth_ms=$((($(date +%s%N) - synth_start) / 1000000))
	sup_says "synthesis kill" "degraded ranks [2]" "$synth_log"
	sup_says "synthesis kill" "0 gang restart(s)" "$synth_log"
	if [ "$synth_ms" -ge 10000 ]; then
		echo "FAIL: synthesis-kill run took ${synth_ms} ms, want < 10000"
		rm -rf "$sup_dir"
		exit 1
	fi
	sup_pins "synthesis-kill run" "$sup_dir/synth"
	echo "synthesis kill re-striped over the survivors in ${synth_ms} ms; edge list and snapshot match the pins"
	echo "-- chaos (kill -9 rank 0 as its synthesis begins)"
	lead_log=$("$sup_dir/netlaunch" -persons 2000 -days 2 -ranks 4 \
		-workdir "$sup_dir/lead" \
		-kill-rank 0 -kill-after 0s -kill-phase synth)
	sup_says "rank-0 synthesis kill" "1 gang restart(s)" "$lead_log"
	sup_pins "rank-0 synthesis-kill run" "$sup_dir/lead"
	echo "rank 0 killed in the synthesis: one relaunch resumed into the synthesis; edge list and snapshot match the pins"
	# The network is the same under any place assignment
	# (TestLogIndependentOfAssignment), so the pins above cannot see a
	# drifted partition; the per-rank logs can. Recorded at commit 255b8de.
	pin_logs="1880790059 24684
4152963491 60284
1043172409 68564
3485021811 76144"
	base_logs=$(for r in 0 1 2 3; do
		cksum "$sup_dir/base/logs/rank000$r.h5l" | cut -d' ' -f1-2
	done)
	if [ "$base_logs" != "$pin_logs" ]; then
		echo "FAIL: baseline per-rank logs moved from the pinned cksums"
		echo "  got:    $(echo $base_logs)"
		echo "  pinned: $(echo $pin_logs)"
		rm -rf "$sup_dir"
		exit 1
	fi
	echo "baseline per-rank logs match the pinned cksums"
	# The same rank program on goroutine ranks of one process: the four
	# logs and the network must be the process ranks' bytes.
	echo "-- in-process ranks (chisim -ranks 4 -o -snapshot, one process)"
	"$sup_dir/chisim" -persons 2000 -days 2 -ranks 4 -logdir "$sup_dir/local/logs" \
		-o "$sup_dir/local/network.tsv" -snapshot "$sup_dir/local/network.gsnap" >/dev/null
	local_logs=$(for r in 0 1 2 3; do
		cksum "$sup_dir/local/logs/rank000$r.h5l" | cut -d' ' -f1-2
	done)
	if [ "$local_logs" != "$pin_logs" ]; then
		echo "FAIL: in-process per-rank logs moved from the pinned cksums"
		echo "  got:    $(echo $local_logs)"
		echo "  pinned: $(echo $pin_logs)"
		rm -rf "$sup_dir"
		exit 1
	fi
	sup_pins "in-process run" "$sup_dir/local"
	echo "in-process per-rank logs, edge list and snapshot match the pinned cksums"
	rm -rf "$sup_dir"
fi

# Observability smoke (DESIGN.md §15): a supervised 4-rank run with the
# observe plane on. While the run is live, the merged /metrics must
# carry every rank's series under its rank="N" label (plus the
# launcher's own registry); afterwards, `netstat trace` on the run
# report must render one distributed trace tree with spans from the
# coordinator and at least two worker ranks. The telemetry overhead
# budget (<= 1.05x) is enforced by the GUARD stage above. Skip with
# OBSERVE=0.
if [ "${OBSERVE:-1}" = "1" ]; then
	echo "== observability smoke (netlaunch observe plane; merged /metrics + cluster trace)"
	obs_dir=$(mktemp -d)
	go build -o "$obs_dir/" ./cmd/chisim ./cmd/netlaunch ./cmd/netserve \
		./cmd/netstat
	# The hour delay stretches the simulation so every rank is scraped at
	# least once while the run is live.
	"$obs_dir/netlaunch" -persons 2000 -days 2 -ranks 4 \
		-workdir "$obs_dir/run" -hour-delay 50ms \
		-observe-addr 127.0.0.1:0 -observe-addr-file "$obs_dir/observe.addr" \
		-scrape-interval 100ms -report "$obs_dir/report.json" \
		>"$obs_dir/launch.log" &
	obs_pid=$!
	i=0
	while [ ! -s "$obs_dir/observe.addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "FAIL: observe plane never bound its port"
			cat "$obs_dir/launch.log"
			kill "$obs_pid" 2>/dev/null || true
			rm -rf "$obs_dir"
			exit 1
		fi
		sleep 0.1
	done
	obs_addr=$(cat "$obs_dir/observe.addr")
	# Poll the merged exposition until every rank label has appeared (the
	# ranks bind their telemetry servers as they start; a rank label is
	# sticky once scraped because the observer keeps last-good snapshots).
	i=0
	while :; do
		labels=$("$obs_dir/netserve" -get "http://$obs_addr/metrics" 2>/dev/null |
			grep -o 'rank="[0-9]*"' | sort -u | grep -c . || true)
		[ "${labels:-0}" -ge 4 ] && break
		if ! kill -0 "$obs_pid" 2>/dev/null; then
			echo "FAIL: netlaunch exited before /metrics showed all 4 rank labels (saw $labels)"
			cat "$obs_dir/launch.log"
			rm -rf "$obs_dir"
			exit 1
		fi
		i=$((i + 1))
		if [ "$i" -gt 300 ]; then
			echo "FAIL: /metrics never showed all 4 rank labels (saw $labels)"
			cat "$obs_dir/launch.log"
			kill "$obs_pid" 2>/dev/null || true
			rm -rf "$obs_dir"
			exit 1
		fi
		sleep 0.1
	done
	# The /cluster summary must be serving JSON with per-rank rows.
	"$obs_dir/netserve" -get "http://$obs_addr/cluster" | grep -q '"phase"'
	wait "$obs_pid" # the supervised run itself must exit 0
	echo "merged /metrics carried all 4 rank labels while the run was live"
	# The run report must render as one trace tree spanning the
	# coordinator plus at least two worker ranks.
	"$obs_dir/netstat" trace "$obs_dir/report.json" >"$obs_dir/trace.txt"
	spanranks=$("$obs_dir/netstat" trace "$obs_dir/report.json" |
		sed -n 's/.*across \([0-9]*\) rank(s).*/\1/p')
	if [ "${spanranks:-0}" -lt 3 ]; then
		echo "FAIL: cluster trace covers ${spanranks:-0} rank(s), want >= 3"
		cat "$obs_dir/trace.txt"
		rm -rf "$obs_dir"
		exit 1
	fi
	echo "cluster trace spans $spanranks ranks (coordinator + workers)"
	rm -rf "$obs_dir"
fi

# Streaming smoke (DESIGN.md §14): a 3-day simulation with hourly
# durability flushes runs while `netsynth -follow` tails its logs
# (opened before they exist) and publishes one snapshot generation per
# simulated day; netserve watches the live path and hot-swaps
# generations. Requires: >= 2 generations published, netserve's served
# generation advanced past its boot generation with zero failed
# requests, and the final streamed snapshot + edge list bit-identical
# to a batch synthesis of the same window — as are a streamed and a
# one-shot replay of the closed logs under -mem-budget, which must both
# spill. Last, a replay in 4 h windows keeps all 18 generations, each of
# which must equal a one-shot bake of its hours, with some generations
# having updated their triangle counts. Skip with STREAMSMOKE=0.
if [ "${STREAMSMOKE:-1}" = "1" ]; then
	echo "== streaming smoke (chisim -flush-every | netsynth -follow | netserve hot reload)"
	str_dir=$(mktemp -d)
	go build -o "$str_dir/" ./cmd/chisim ./cmd/netsynth ./cmd/netserve
	mkdir "$str_dir/logs"
	# The hour delay stretches the simulation so the first window closes
	# (at simulated hour 48 + horizon slack) well before the run ends,
	# giving the server time to boot on generation 1 and observe later
	# generations arrive.
	"$str_dir/chisim" -persons 1500 -days 3 -ranks 2 -seed 2017 \
		-logdir "$str_dir/logs" -flush-every 1 -hour-delay 25ms >/dev/null &
	str_sim_pid=$!
	"$str_dir/netsynth" -follow -t0 0 -t1 72 -window 24 -poll 50ms \
		-o "$str_dir/stream.tsv" -snapshot "$str_dir/live.gsnap" \
		"$str_dir/logs/rank0000.h5l" "$str_dir/logs/rank0001.h5l" \
		>"$str_dir/follow.log" &
	str_follow_pid=$!
	i=0
	while [ ! -f "$str_dir/live.gsnap" ]; do
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "FAIL: no generation published within 60s"
			cat "$str_dir/follow.log"
			kill "$str_sim_pid" "$str_follow_pid" 2>/dev/null || true
			rm -rf "$str_dir"
			exit 1
		fi
		sleep 0.1
	done
	"$str_dir/netserve" -snapshot "$str_dir/live.gsnap" -addr 127.0.0.1:0 \
		-addr-file "$str_dir/addr" -watch 25ms &
	str_serve_pid=$!
	i=0
	while [ ! -s "$str_dir/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "FAIL: netserve never bound its port"
			kill "$str_sim_pid" "$str_follow_pid" "$str_serve_pid" 2>/dev/null || true
			rm -rf "$str_dir"
			exit 1
		fi
		sleep 0.1
	done
	str_addr=$(cat "$str_dir/addr")
	# First query: the boot generation must serve (a failed -get exits
	# nonzero and aborts via set -e).
	"$str_dir/netserve" -get "http://$str_addr/v1/stats" >/dev/null
	wait "$str_follow_pid"
	wait "$str_sim_pid"
	gens=$(grep -c '^published generation' "$str_dir/follow.log")
	if [ "$gens" -lt 2 ]; then
		echo "FAIL: only $gens generation(s) published, want >= 2"
		cat "$str_dir/follow.log"
		kill "$str_serve_pid" 2>/dev/null || true
		rm -rf "$str_dir"
		exit 1
	fi
	# The watcher must hot-swap to a later generation than it booted on.
	i=0
	while :; do
		served=$("$str_dir/netserve" -get "http://$str_addr/v1/stats" |
			sed -n 's/.*"generation":\([0-9]*\).*/\1/p')
		[ "${served:-0}" -ge 2 ] && break
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "FAIL: netserve stuck at generation ${served:-?} after $gens publishes"
			kill "$str_serve_pid" 2>/dev/null || true
			rm -rf "$str_dir"
			exit 1
		fi
		sleep 0.1
	done
	kill -TERM "$str_serve_pid"
	wait "$str_serve_pid" # graceful drain must exit 0
	echo "-- batch oracle (same window, one shot)"
	"$str_dir/netsynth" -t0 0 -t1 72 -o "$str_dir/batch.tsv" \
		-snapshot "$str_dir/batch.gsnap" "$str_dir"/logs/*.h5l >/dev/null
	live_hash=$(cksum "$str_dir/live.gsnap" | cut -d' ' -f1-2)
	batch_hash=$(cksum "$str_dir/batch.gsnap" | cut -d' ' -f1-2)
	tsv_live=$(cksum "$str_dir/stream.tsv" | cut -d' ' -f1-2)
	tsv_batch=$(cksum "$str_dir/batch.tsv" | cut -d' ' -f1-2)
	if [ "$live_hash" != "$batch_hash" ] || [ "$tsv_live" != "$tsv_batch" ]; then
		echo "FAIL: streamed output diverged from batch synthesis"
		echo "  snapshot:  $live_hash vs $batch_hash"
		echo "  edge list: $tsv_live vs $tsv_batch"
		rm -rf "$str_dir"
		exit 1
	fi
	echo "streamed $gens generations; final snapshot bit-identical to batch (served gen $served)"
	# The memory budget is a tier of the one synthesis engine: replaying
	# the closed logs under a budget far below the slice, streamed and in
	# one shot, must spill and still reproduce the oracle byte for byte.
	# An unknown -balance name must be refused before anything is written,
	# not run as the paper's balancer.
	if "$str_dir/netsynth" -balance bogus -t0 0 -t1 72 -o "$str_dir/bogus.tsv" \
		-snapshot "$str_dir/bogus.gsnap" "$str_dir"/logs/*.h5l >/dev/null 2>&1; then
		echo "FAIL: netsynth accepted -balance bogus"
		rm -rf "$str_dir"
		exit 1
	fi
	if [ -e "$str_dir/bogus.tsv" ] || [ -e "$str_dir/bogus.gsnap" ]; then
		echo "FAIL: netsynth -balance bogus wrote output"
		rm -rf "$str_dir"
		exit 1
	fi
	echo "netsynth -balance bogus refused with no output"
	echo "-- budgeted replays (netsynth -follow -mem-budget 64K, netsynth -mem-budget 64K)"
	"$str_dir/netsynth" -follow -mem-budget 64K -t0 0 -t1 72 -window 24 -poll 50ms \
		-o "$str_dir/follow-budget.tsv" -snapshot "$str_dir/follow-budget.gsnap" \
		"$str_dir"/logs/*.h5l >"$str_dir/follow-budget.log"
	"$str_dir/netsynth" -mem-budget 64K -t0 0 -t1 72 \
		-o "$str_dir/batch-budget.tsv" -snapshot "$str_dir/batch-budget.gsnap" \
		"$str_dir"/logs/*.h5l >"$str_dir/batch-budget.log"
	for run in follow-budget batch-budget; do
		snap=$(cksum "$str_dir/$run.gsnap" | cut -d' ' -f1-2)
		tsv=$(cksum "$str_dir/$run.tsv" | cut -d' ' -f1-2)
		if [ "$snap" != "$batch_hash" ] || [ "$tsv" != "$tsv_batch" ]; then
			echo "FAIL: $run diverged from the unbudgeted batch synthesis"
			echo "  snapshot:  $snap vs $batch_hash"
			echo "  edge list: $tsv vs $tsv_batch"
			rm -rf "$str_dir"
			exit 1
		fi
		if ! grep -q '^mem budget: spilled' "$str_dir/$run.log"; then
			echo "FAIL: $run never spilled: -mem-budget was ignored"
			cat "$str_dir/$run.log"
			rm -rf "$str_dir"
			exit 1
		fi
	done
	echo "budgeted replays spilled and stayed bit-identical to batch"
	# One Publisher updates each generation's triangle counts from the
	# edges its window added or removed: replay the closed logs in 4 h
	# windows, keep every generation, and require generation k to be
	# byte-identical to a one-shot bake of [0, 4k) and the run report to
	# show publishes that took the update path.
	echo "-- windowed replay (netsynth -follow -window 4 -history 18; every generation == one-shot bake)"
	"$str_dir/netsynth" -follow -t0 0 -t1 72 -window 4 -history 18 -poll 50ms \
		-o "$str_dir/windows.tsv" -snapshot "$str_dir/windows.gsnap" \
		-report "$str_dir/windows.json" "$str_dir"/logs/*.h5l >"$str_dir/windows.log"
	k=1
	while [ "$k" -le 18 ]; do
		gen=$(printf '%s/windows.gsnap.gen-%06d' "$str_dir" "$k")
		"$str_dir/netsynth" -t0 0 -t1 $((4 * k)) -o "$str_dir/oneshot.tsv" \
			-snapshot "$str_dir/oneshot.gsnap" "$str_dir"/logs/*.h5l >/dev/null
		if [ ! -f "$gen" ] || [ "$(cksum <"$gen")" != "$(cksum <"$str_dir/oneshot.gsnap")" ]; then
			echo "FAIL: windowed generation $k differs from a one-shot bake of [0,$((4 * k)))"
			cat "$str_dir/windows.log"
			rm -rf "$str_dir"
			exit 1
		fi
		k=$((k + 1))
	done
	updated=$(sed -n 's/.*"gstore_publish_triangles_updated_total": *\([0-9]*\).*/\1/p' "$str_dir/windows.json")
	if [ "${updated:-0}" -lt 1 ]; then
		echo "FAIL: no windowed generation updated its triangle counts (report: ${updated:-no counter})"
		rm -rf "$str_dir"
		exit 1
	fi
	echo "18 windowed generations bit-identical to one-shot bakes; $updated updated their triangle counts"
	rm -rf "$str_dir"
fi

# Tail chaos (DESIGN.md §14 "Live tailing"): a follower whose log is
# replaced under it must fail loudly, never end in a clean EOF that
# skips the new file. netsynth -follow tails a live chisim -flush-every 1
# log; after the first published generation another complete log is
# renamed over the path. netsynth must exit 1 within 20 s with stderr
# naming the path. Skip with TAILCHAOS=0.
if [ "${TAILCHAOS:-1}" = "1" ]; then
	echo "== tail chaos (log renamed under netsynth -follow -> exit 1 naming the path)"
	tc_dir=$(mktemp -d)
	go build -o "$tc_dir/" ./cmd/chisim ./cmd/netsynth
	"$tc_dir/chisim" -persons 300 -days 1 -ranks 1 -seed 7 -logdir "$tc_dir/other" >/dev/null
	"$tc_dir/chisim" -persons 1500 -days 4 -ranks 1 -seed 2017 -logdir "$tc_dir/logs" \
		-flush-every 1 -hour-delay 50ms >/dev/null &
	tc_sim_pid=$!
	tc_log="$tc_dir/logs/rank0000.h5l"
	"$tc_dir/netsynth" -follow -t0 0 -t1 96 -window 24 -poll 50ms \
		-o "$tc_dir/stream.tsv" -snapshot "$tc_dir/live.gsnap" "$tc_log" \
		>"$tc_dir/follow.log" 2>"$tc_dir/follow.err" &
	tc_follow_pid=$!
	i=0
	while [ ! -f "$tc_dir/live.gsnap" ]; do
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "FAIL: no generation published within 60s"
			cat "$tc_dir/follow.log" "$tc_dir/follow.err"
			kill "$tc_sim_pid" "$tc_follow_pid" 2>/dev/null || true
			rm -rf "$tc_dir"
			exit 1
		fi
		sleep 0.1
	done
	mv "$tc_dir/other/rank0000.h5l" "$tc_log"
	i=0
	while kill -0 "$tc_follow_pid" 2>/dev/null; do
		i=$((i + 1))
		if [ "$i" -gt 200 ]; then
			echo "FAIL: netsynth -follow still running 20s after its log was replaced"
			cat "$tc_dir/follow.log" "$tc_dir/follow.err"
			kill "$tc_sim_pid" "$tc_follow_pid" 2>/dev/null || true
			rm -rf "$tc_dir"
			exit 1
		fi
		sleep 0.1
	done
	tc_code=0
	wait "$tc_follow_pid" || tc_code=$?
	wait "$tc_sim_pid"
	if [ "$tc_code" != 1 ] || ! grep -qF "$tc_log" "$tc_dir/follow.err"; then
		echo "FAIL: netsynth -follow exit $tc_code (want 1) with stderr naming $tc_log:"
		cat "$tc_dir/follow.err"
		rm -rf "$tc_dir"
		exit 1
	fi
	echo "netsynth -follow: log replaced after the first generation -> exit 1"
	sed 's/^/  /' "$tc_dir/follow.err"
	rm -rf "$tc_dir"
fi

# Exit-code contract (DESIGN.md §12 "Command runtime"): the first
# SIGINT/SIGTERM cancels a command's work, and it exits 2 only after its
# deferred cleanup has run. netsynth -follow on a log that never appears,
# interrupted by SIGINT, must exit 2 and still leave non-empty CPU and
# heap profiles; chisim interrupted by SIGTERM mid-run must exit 2 and
# then finish the run with -resume (exit 0). Skip with EXITCODES=0.
if [ "${EXITCODES:-1}" = "1" ]; then
	echo "== exit codes (SIGINT/SIGTERM -> 2 with profiles written; -resume -> 0)"
	ec_dir=$(mktemp -d)
	go build -o "$ec_dir/" ./cmd/chisim ./cmd/netsynth
	# ec_interrupt <signal> <pid> <file>: once <file> exists (the command
	# is past its signal setup), send <signal> and set ec_code to the exit
	# code. Not run in a $(...) subshell: only this shell can wait on pid.
	ec_interrupt() {
		j=0
		while [ ! -e "$3" ]; do
			j=$((j + 1))
			[ "$j" -gt 300 ] && break
			sleep 0.1
		done
		sleep 0.5
		kill -"$1" "$2"
		ec_code=0
		wait "$2" || ec_code=$?
	}
	"$ec_dir/netsynth" -follow -poll 50ms -o "$ec_dir/never.tsv" \
		-snapshot "$ec_dir/never.gsnap" -cpuprofile "$ec_dir/cpu.prof" \
		-memprofile "$ec_dir/mem.prof" "$ec_dir/never.h5l" >"$ec_dir/follow.log" 2>&1 &
	ec_interrupt INT $! "$ec_dir/cpu.prof"
	follow_code=$ec_code
	"$ec_dir/chisim" -persons 1000 -days 2 -ranks 2 -hour-delay 50ms -flush-every 1 \
		-logdir "$ec_dir/logs" >"$ec_dir/sim.log" 2>&1 &
	ec_interrupt TERM $! "$ec_dir/logs/rank0000.h5l"
	sim_code=$ec_code
	resume_code=0
	"$ec_dir/chisim" -persons 1000 -days 2 -ranks 2 -flush-every 1 -logdir "$ec_dir/logs" \
		-resume >"$ec_dir/resume.log" 2>&1 || resume_code=$?
	if [ "$follow_code" != 2 ] || [ ! -s "$ec_dir/cpu.prof" ] || [ ! -s "$ec_dir/mem.prof" ] ||
		[ "$sim_code" != 2 ] || [ "$resume_code" != 0 ]; then
		echo "FAIL: netsynth -follow SIGINT exit $follow_code (want 2), profiles:"
		ls -l "$ec_dir"/*.prof 2>&1 | sed 's/^/  /'
		echo "  chisim SIGTERM exit $sim_code (want 2), -resume exit $resume_code (want 0)"
		cat "$ec_dir/follow.log" "$ec_dir/sim.log" "$ec_dir/resume.log"
		rm -rf "$ec_dir"
		exit 1
	fi
	echo "netsynth -follow: SIGINT -> 2 with profiles written; chisim: SIGTERM -> 2, -resume -> 0"
	sed -n 's/^resume: /  chisim resume: /p' "$ec_dir/resume.log"
	rm -rf "$ec_dir"
fi

# Hot-path allocation guard (DESIGN.md §13): the five hot endpoints'
# encode paths must stay at zero allocations per request (ceiling 1 to
# absorb toolchain noise); the full in-process HTTP hop may add the
# http.Header map write (ceiling 2) and writeError the errors.As
# escape on top (ceiling 3). 1000 iterations keeps this under a
# second. Skip with ALLOCGUARD=0.
if [ "${ALLOCGUARD:-1}" = "1" ]; then
	echo "== hot-path alloc guard (ServeHot* <= 1 allocs/op)"
	go test -run '^$' -bench 'BenchmarkServeHot|BenchmarkWriteError' \
		-benchtime 1000x ./internal/netserve | awk '
	/^BenchmarkServeHotHTTP/   { if ($(NF-1) > 2) bad = bad ORS "  " $1 ": " $(NF-1) " allocs/op (ceiling 2)"; n++; next }
	/^BenchmarkWriteError/     { if ($(NF-1) > 3) bad = bad ORS "  " $1 ": " $(NF-1) " allocs/op (ceiling 3)"; n++; next }
	/^BenchmarkServeHot/       { if ($(NF-1) > 1) bad = bad ORS "  " $1 ": " $(NF-1) " allocs/op (ceiling 1)"; n++ }
	END {
		if (n < 7) { print "FAIL: expected 7 alloc benchmarks, saw " n; exit 1 }
		if (bad != "") { print "FAIL: hot path allocates:" bad; exit 1 }
		print "hot-path allocations within ceilings (" n " benchmarks)"
	}'
fi

# Scenario smoke (DESIGN.md §16): convert the testdata edge list, serve
# it, submit an SIR sweep, an SEIR intervention variant, a
# community-seeded diffusion and a dampened SIR that hits both no-draw
# paths over HTTP, poll each to completion, rerun each with the offline
# netscenario CLI at -slots 1 and -slots 8, and require every digest to
# equal its pinned value. The first three pins were recorded before SIR,
# SEIR and diffusion became one kernel, the fourth before the kernel drew
# against integer thresholds, so they catch drift in the kernel as well
# as disagreement between HTTP and CLI or between worker counts. Skip
# with SCENARIO=0.
if [ "${SCENARIO:-1}" = "1" ]; then
	echo "== scenario smoke (serve -> submit sweeps -> poll -> HTTP/CLI digests == pinned)"
	sc_dir=$(mktemp -d)
	go build -o "$sc_dir/" ./cmd/netserve ./cmd/netscenario
	"$sc_dir/netserve" -convert cmd/netserve/testdata/smoke.tsv -snapshot "$sc_dir/smoke.gsnap"
	cat >"$sc_dir/sweep.json" <<-'EOF'
	{"process": "sir", "steps": 20, "seed": 7, "replications": 4,
	 "beta": [0.2, 0.5], "infectious_days": [2, 3],
	 "seeds": {"policy": "top-degree", "count": 2}}
	EOF
	cat >"$sc_dir/intervene.json" <<-'EOF'
	{"process": "seir", "steps": 20, "seed": 7, "replications": 4,
	 "beta": [0.5], "infectious_days": [3], "incubation_days": [1],
	 "seeds": {"policy": "random", "count": 2},
	 "intervention": {"close_top_degree": 1, "vaccinate_fraction": 0.2,
	                  "dampen": {"num": 1, "den": 2}}}
	EOF
	cat >"$sc_dir/diffuse.json" <<-'EOF'
	{"process":"diffusion","steps":10,"seed":7,"replications":4,"beta":[0.1,0.3],"seeds":{"policy":"community","count":2}}
	EOF
	# Both no-draw paths of the kernel's threshold table: dampening 1/4
	# floors smoke.tsv's weights 1-3 to 0 (never transmits), and beta 1
	# transmits over every other edge without a draw.
	cat >"$sc_dir/sentinels.json" <<-'EOF'
	{"process":"sir","steps":10,"seed":7,"replications":4,"beta":[0.3,1],"infectious_days":[2],"seeds":{"policy":"random","count":1},"intervention":{"dampen":{"num":1,"den":4}}}
	EOF
	"$sc_dir/netserve" -snapshot "$sc_dir/smoke.gsnap" \
		-addr 127.0.0.1:0 -addr-file "$sc_dir/addr" -watch 0 &
	sc_pid=$!
	i=0
	while [ ! -s "$sc_dir/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "FAIL: netserve never bound its port"
			kill "$sc_pid" 2>/dev/null || true
			rm -rf "$sc_dir"
			exit 1
		fi
		sleep 0.1
	done
	sc_addr=$(cat "$sc_dir/addr")
	# sc_submit <specfile> -> outcome digest on stdout. Failures inside
	# the $(...) subshell cannot abort the parent, so callers must check
	# for an empty digest.
	sc_submit() {
		sid=$("$sc_dir/netserve" -post "http://$sc_addr/v1/scenario" -body "$1" |
			sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
		[ -n "$sid" ] || return 1
		j=0
		while :; do
			sjob=$("$sc_dir/netserve" -get "http://$sc_addr/v1/scenario/$sid")
			case "$sjob" in
			*'"status":"done"'*) break ;;
			*'"status":"failed"'*)
				echo "scenario job $sid failed: $sjob" >&2
				return 1
				;;
			esac
			j=$((j + 1))
			[ "$j" -gt 300 ] && return 1
			sleep 0.1
		done
		printf '%s' "$sjob" | sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p'
	}
	# <spec> <pinned digest>; the sweep is listed twice because a
	# resubmission must be idempotent.
	cat >"$sc_dir/pins" <<-'EOF'
	sweep 3e5988d5e8db32dfe5163cb4aab79fc1c2671b9ec036280db0b58f7195ee0cb6
	intervene 6d2ba06c6f4a0c6312e25154fe8f877dcc1e7cce29e6e5d0df5ec3b91f7dfce5
	diffuse b1eb5a8fe0f6760415c8797fe620b0e39cc0a1334b026a4b040f45771fc79c10
	sentinels de7f66ae5d9629465b95b7997d4b36af9ce32db760bc1da722a1f889b57f9b08
	sweep 3e5988d5e8db32dfe5163cb4aab79fc1c2671b9ec036280db0b58f7195ee0cb6
	EOF
	# Each line of got: <spec> <pinned> <path> <digest>.
	while read -r spec pin; do
		http=$(sc_submit "$sc_dir/$spec.json" </dev/null) || http=""
		echo "$spec $pin http $http" >>"$sc_dir/got"
	done <"$sc_dir/pins"
	kill -TERM "$sc_pid"
	wait "$sc_pid" # graceful drain must exit 0
	while read -r spec pin; do
		for slots in 1 8; do
			cli=$("$sc_dir/netscenario" -snapshot "$sc_dir/smoke.gsnap" \
				-spec "$sc_dir/$spec.json" -slots "$slots" </dev/null | sed -n 's/^digest //p')
			echo "$spec $pin cli-slots-$slots $cli" >>"$sc_dir/got"
		done
	done <"$sc_dir/pins"
	sc_bad=$(awk '$4 != $2' "$sc_dir/got")
	rm -rf "$sc_dir"
	if [ -n "$sc_bad" ]; then
		echo "FAIL: scenario digests differ from the pinned values (spec pinned path got):"
		echo "$sc_bad" | sed 's/^/  /'
		exit 1
	fi
	echo "scenario digests == pinned for sweep, intervene, diffuse, sentinels (HTTP, HTTP again, CLI slots 1 and 8)"
fi

# Benchmark smoke (bench/README.md): the sim->serve benchmark is a module
# of its own, so the `go test ./...` above never compiles it and a change
# to pipeline.go or internal/* can break it unseen. Run its tests, then one
# tiny traced batch chain (1k persons, 2 days) whose result line must
# report every correctness check as passed. Read-only use of bench/: the
# build and the run write under .bench_build/ and bench/out/, both
# ignored. Skip with BENCHSMOKE=0.
if [ "${BENCHSMOKE:-1}" = "1" ]; then
	echo "== bench smoke (bench module tests; tiny batch.slice-20k chain must be correct)"
	(cd bench && go test ./...)
	bench_line=$(bash bench/run.sh --workload batch.slice-20k -shape tiny \
		--seed 7 --seconds 2 --trace 1 | tail -n 1)
	case "$bench_line" in
	*'"correct":true'*) echo "bench smoke correct" ;;
	*)
		echo "FAIL: bench smoke did not report \"correct\":true"
		echo "  $bench_line" | cut -c1-300
		exit 1
		;;
	esac
fi

echo "OK"

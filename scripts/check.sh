#!/usr/bin/env bash
# check.sh STAGE... runs each named stage of the checks CI runs, in the
# order given, and stops at the first that fails. CI calls one stage per
# step; run the same stages locally, e.g. `scripts/check.sh build fma test`.
# Run with no stage to list them. Packages and fuzz targets are discovered
# with `go list` and `go test -list`: a new one is covered without an edit
# here. The script writes nothing under benchmarks/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Compile export data for every package (tests included) once, up front:
# floatlint's loader type-checks against `go list -deps -test -export`
# output, so this warmup fills the build cache the later stages read, and
# the lint stage loads the whole module without recompiling anything.
stage_build() {
	go list -deps -test -export ./... >/dev/null
	go build ./...
	go vet ./...
	local unformatted
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt: unformatted files:"
		echo "$unformatted"
		return 1
	fi
}

# Packages arm64 still fuses in (ROADMAP item 2): each leaves this list once
# its products are wrapped in float64(…).
fma_exempt=(rl trace)

# The determinism contract's goldens and pins hold on amd64, where gc never
# fuses x*y + z into one fused multiply-add; arm64 (like ppc64le, s390x,
# riscv64 and loong64) does, and a fused product rounds once instead of
# twice. Cross-compile the whole module for arm64 with its assembly
# listing, which carries file:line, and fail on any double or single
# precision FMADD/FMSUB/FNMADD/FNMSUB whose source line does not call
# math.FMA (detmath.Exp replays amd64's FMA path with them, correctly
# rounded on every host). An explicit float64(x*y) keeps a product from
# fusing. No emulator.
#
# The same contract for hand-written assembly: tensor's packed bodies
# multiply with VMULPD and add with VADDPD, rounding twice as the portable
# loops do. Fail on any fused multiply-add instruction in a .s file.
stage_fma() {
	local asm ins loc file p bad=""
	if ! asm=$(GOARCH=arm64 go build -gcflags='floatfl/...=-S' ./... 2>&1); then
		echo "$asm"
		return 1
	fi
	while IFS= read -r ins; do
		loc=$(grep -oE '\([^()]+\.go:[0-9]+\)' <<<"$ins" | head -n 1 | tr -d '()' || true)
		file=${loc%:*}
		file=${file#"$PWD/"}
		for p in "${fma_exempt[@]}"; do
			[[ $file == internal/$p/* ]] && continue 2
		done
		if [ -z "$loc" ] || ! sed -n "${loc##*:}p" "$file" | grep -q 'math\.FMA('; then
			bad+="$ins"$'\n'
		fi
	done < <(grep -E '\bFN?M(ADD|SUB)[DS]\b' <<<"$asm" || true)
	if [ -n "$bad" ]; then
		echo "a multiply-add fuses on arm64 outside a math.FMA call:"
		echo "$bad"
		return 1
	fi
	if bad=$(grep -rnE --include='*.s' '\bVFN?M(ADD|SUB)' .); then
		echo "hand-written assembly fuses a multiply-add:"
		echo "$bad"
		return 1
	fi
}

# floatlint is the repo's own analyzer (internal/lint): the per-file
# determinism rules plus the cross-package dataflow rules. Every sanctioned
# exception carries an inline //lint:allow with a reason; -unused-directives
# fails on stale ones. Its self-test requires every registered rule to fire
# on its bad fixture (a dead analyzer is a silent hole in the contract) and
# the repo-wide scan to be clean.
stage_lint() {
	go run ./cmd/floatlint -unused-directives ./...
	go test ./internal/lint -run 'TestEachRuleFires|TestRepoIsClean' -v
}

# Every seeded stream is an rngstate.Source, whose normal draws run an
# owned ziggurat with the same arithmetic on every host, so no package but
# internal/rngstate may import math/rand outside its tests (.Imports
# excludes test files): math/rand's NormFloat64 fuses multiply-adds on
# arm64 and calls math.Exp's FMA-dependent assembly.
stage_imports() {
	local bad
	if bad=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... |
		awk '$1 != "floatfl/internal/rngstate" && / math\/rand( |$)/ {print $1}' | grep .); then
		echo "non-test code imports math/rand outside internal/rngstate:"
		echo "$bad"
		return 1
	fi
}

# The goldens were recorded on an amd64 CPU with FMA, where math.Exp's
# assembly takes its fused path; GODEBUG=cpu.fma=off makes this process
# take the other path, as an amd64 CPU or VM without FMA would. Every
# transcendental the contract reaches goes through detmath, so every
# golden, pin and snapshot digest must hold here too.
stage_nofma() {
	GODEBUG=cpu.fma=off go test ./...
}

# Includes the determinism contract (internal/fl's TestEquivalenceMatrix,
# cmd/floatsim's subprocess tests of the CLI) and the runnable examples'
# // Output: lines. Plain `go test` also replays each fuzz target's
# committed corpus under testdata/fuzz/ and its f.Add seeds.
stage_test() {
	go test ./...
}

# Each example program runs to completion, so that none rots; the one
# today drives the real HTTP aggregator on a loopback listener with eight
# in-process clients in about a second, with no network.
stage_example() {
	local dir
	for dir in examples/*/; do
		go run "./$dir"
	done
}

# Every fuzz target the module has mutates for ten seconds; each target's
# doc comment states its contract. Minimizing a new-coverage input is
# capped at a second: the snapshot targets' seeds are real snapshots of
# ~100 KB, and uncapped minimization sits at "0 execs/sec" for most of
# the ten on 2 vCPU.
stage_fuzz() {
	local list pkg name
	list=$(go test -list '^Fuzz' ./...)
	while read -r pkg name; do
		echo "-- $name ($pkg)"
		go test -run '^$' -fuzz "^$name\$" -fuzztime 10s -fuzzminimizetime 1s "$pkg"
	done < <(awk '/^Fuzz/ {n[++c] = $1; next} /^ok/ {for (i = 1; i <= c; i++) print $2, n[i]; c = 0}' <<<"$list")
}

# benchmarks/ladder is a module of its own (it replaces floatfl with the
# repository root), so the root ./... patterns never descend into it:
# without this stage an internal/ API change that breaks the benchmark
# would pass. Its TestSmokeEmitsEveryMetric runs all four workloads at
# smoke scale and checks every metric BENCHMARK.json names is emitted.
stage_ladder() {
	go vet -C benchmarks/ladder ./...
	go test -C benchmarks/ladder ./...
}

# The concurrent subsystems under the race detector, which re-proves
# TestEquivalenceMatrix's P=8 ≡ P=1, resume and lazy ≡ eager cells while
# goroutines interleave, and runs the chaos tests (flaky fault-injected
# clients against the real HTTP aggregator). nn's flat buffers are shared
# across the fl worker pool and borrow scratch from one free list; tensor
# runs its conformance suite for every backend name and both kernel
# bodies; population, data, device, selection and wset are the derivation
# path, where each training job derives its shard on a fan-out worker
# while the dispatch thread owns the device cache.
race_pkgs=(fl dist nn tensor population data device selection wset)

stage_race() {
	local pkgs=("${race_pkgs[@]/#/./internal/}")
	go test -race "${pkgs[@]/%//...}"
}

# A longer chaos soak: more flaky clients and rounds, with all timing on a
# fake clock. Env-gated in the test so plain `go test ./...` stays fast.
stage_chaos() {
	FLOAT_DIST_SOAK=1 go test -race -run 'TestChaos' -timeout 8m ./internal/dist
}

# Bounded memory at reduced scale: a lazy population with more derivations
# than cache capacity keeps peak device residency under cache + selected,
# caches no shard, and keeps a live heap under 16 MB that does not grow
# with the population. FLOAT_POP_SCALE=1 alone runs the full million
# clients; this population keeps the stage under a minute.
stage_popscale() {
	FLOAT_POP_SCALE=1 FLOAT_POP_CLIENTS=100000 FLOAT_POP_PER_ROUND=6000 \
		go test -run TestMillionClientBoundedMemory -v ./internal/fl
}

stages=$(declare -F | sed -n 's/^declare -f stage_//p' | tr '\n' ' ')
if [ $# -eq 0 ]; then
	echo "usage: scripts/check.sh STAGE...; stages: $stages" >&2
	exit 2
fi
for stage; do
	if ! declare -F "stage_$stage" >/dev/null; then
		echo "check.sh: unknown stage $stage; stages: $stages" >&2
		exit 2
	fi
done
for stage; do
	echo "== $stage"
	"stage_$stage"
done

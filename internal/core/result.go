package core

import (
	"time"

	"rackjoin/internal/phase"
)

// NetStats summarises data-plane network activity of one join execution.
type NetStats struct {
	// BytesSent is the total tuple payload shipped between machines.
	BytesSent uint64
	// Messages is the number of data-plane transfers (buffer flushes).
	Messages uint64
	// PoolStalls counts buffer acquisitions that had to wait for an
	// in-flight transfer to complete before a buffer became free — the
	// back-pressure signal of a network-bound run.
	PoolStalls uint64
	// Registrations and PagesRegistered account memory-region
	// registrations performed for the join's data path. Every region
	// comes from the machines' resident arenas, so both are non-zero only
	// when a join builds or outgrows them (the first join on a cluster);
	// on a warm cluster they are zero.
	Registrations   uint64
	PagesRegistered uint64
}

// Result reports the outcome of a distributed join.
type Result struct {
	// Matches is the number of joined tuple pairs.
	Matches uint64
	// Checksum is Σ (key + innerRID + outerRID) over all matches, used to
	// verify the result against datagen.ExpectedJoin.
	Checksum uint64
	// Phases is the per-phase breakdown, taking for each phase the
	// maximum across machines. In barrier mode phases are
	// barrier-separated; in pipelined mode the breakdown is the
	// critical-path view (the network pass ends when its last byte lands,
	// the local/build-probe entry is the exposed tail after that point),
	// so the phases still sum to the wall clock.
	Phases phase.Times
	// PerMachine holds each machine's own phase breakdown.
	PerMachine []phase.Times
	// PipelineOverlap[m] is how long machine m's partition-ready join work
	// ran concurrently with the still-draining network pass. Zero in
	// barrier mode; the busy-time local+build-probe view is the
	// critical-path entry plus this overlap.
	PipelineOverlap []time.Duration
	// Net summarises data-plane traffic.
	Net NetStats
	// PartitionsPerMachine is how many network partitions each machine
	// was assigned.
	PartitionsPerMachine []int
	// Skew reports the skew engine's decisions (zero value when the
	// engine was off).
	Skew SkewStats
}

// Package machine models a shared-memory parallel computer with a
// deterministic cost model. The paper's evaluation ran on an SGI Origin
// 2000 (56×195 MHz R10000) and an SGI Challenge (4×200 MHz R4400); a
// reproduction host has far fewer cores, so speedup curves are regenerated
// on a simulated machine instead: the interpreter charges cost units per
// operation, a parallel DO distributes its iterations over P virtual
// processors, and the region's simulated time is the slowest processor's
// work plus a fork/join overhead. The simulated time does not depend on
// the host: the interpreter may run a large region's chunks on several
// goroutines, but charges each chunk what the serial chunk order does. The overhead constants are what give DYFESM's tiny data set
// its characteristic slowdown (Fig. 16(e)) and the Challenge its better
// 4-processor ratio (Fig. 16(f)).
package machine

import (
	"fmt"

	"repro/internal/obs"
)

// Profile holds the machine-dependent constants of the cost model.
type Profile struct {
	Name string
	// ForkJoin is the fixed cost of entering and leaving one parallel
	// region (scheduling, barrier).
	ForkJoin uint64
	// PerProc is the additional region cost per participating processor
	// (processor wake-up, cache warm-up).
	PerProc uint64
	// MemScale scales memory-access costs in parallel regions (per
	// mille): > 1000 models contention and remote-memory penalties.
	MemScale uint64
}

// Origin2000 approximates the paper's 56-processor SGI Origin 2000: fast
// processors, NUMA remote-memory penalty, sizeable region overhead.
var Origin2000 = Profile{Name: "origin2000", ForkJoin: 3000, PerProc: 180, MemScale: 1150}

// Challenge approximates the paper's 4-processor SGI Challenge: slower
// processors (so the same overhead costs relatively less compute), a bus
// instead of NUMA.
var Challenge = Profile{Name: "challenge", ForkJoin: 700, PerProc: 60, MemScale: 1050}

// Machine accumulates simulated time for one execution.
type Machine struct {
	Profile Profile
	// P is the number of processors used by parallel regions.
	P int
	// Rec, when non-nil, receives per-region telemetry: a "machine.region"
	// event and machine.loop.<name>.* counters per named parallel region.
	Rec *obs.Recorder

	time            uint64
	parallelRegions int
	parallelCycles  uint64
	serialCycles    uint64
}

// New builds a machine with the given profile and processor count.
func New(p Profile, procs int) *Machine {
	if procs < 1 {
		procs = 1
	}
	return &Machine{Profile: p, P: procs}
}

// AddSerial charges cycles of sequential execution.
func (m *Machine) AddSerial(cycles uint64) {
	m.time += cycles
	m.serialCycles += cycles
}

// AddParallel charges one parallel region given the per-processor work. The
// region costs the slowest processor's work (memory-scaled) plus the fork/
// join overhead. With P == 1 no overhead applies (the loop runs serially).
func (m *Machine) AddParallel(perProc []uint64) {
	var max uint64
	for _, c := range perProc {
		if c > max {
			max = c
		}
	}
	if m.P == 1 {
		m.time += max
		m.serialCycles += max
		return
	}
	scaled := max * m.Profile.MemScale / 1000
	cost := m.Profile.ForkJoin + uint64(m.P)*m.Profile.PerProc + scaled
	m.time += cost
	m.parallelCycles += cost
	m.parallelRegions++
}

// AddParallelRegion is AddParallel for a named loop; with a recorder
// attached it also records the region's simulated cost as a
// "machine.region" event and per-loop cycle counters.
func (m *Machine) AddParallelRegion(name string, perProc []uint64) {
	before := m.time
	m.AddParallel(perProc)
	if m.Rec.Enabled() {
		cycles := int64(m.time - before)
		m.Rec.Count("machine.loop."+name+".cycles", cycles)
		m.Rec.Count("machine.loop."+name+".regions", 1)
		m.Rec.Event("machine.region",
			obs.F("loop", name),
			obs.Fi("cycles", cycles),
			obs.Fi("procs", int64(m.P)))
	}
}

// Time returns the total simulated time.
func (m *Machine) Time() uint64 { return m.time }

// ParallelRegions returns how many parallel regions executed.
func (m *Machine) ParallelRegions() int { return m.parallelRegions }

// SerialCycles returns the time spent outside parallel regions.
func (m *Machine) SerialCycles() uint64 { return m.serialCycles }

// ParallelCycles returns the time spent in parallel regions (including
// overhead).
func (m *Machine) ParallelCycles() uint64 { return m.parallelCycles }

func (m *Machine) String() string {
	return fmt.Sprintf("%s x%d: %d cycles (%d serial, %d parallel in %d regions)",
		m.Profile.Name, m.P, m.time, m.serialCycles, m.parallelCycles, m.parallelRegions)
}

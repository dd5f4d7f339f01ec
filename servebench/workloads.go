package main

import (
	"fmt"
	"time"

	"repro/internal/gen"
)

// cmd is a served command the benchmark issues.
type cmd int

const (
	cmdPush cmd = iota
	cmdPushB
	cmdPull
	cmdQwin
	cmdPullC
	numCmds
)

var cmdNames = [numCmds]string{"push", "pushb", "pull", "qwin", "pullc"}

func (c cmd) String() string { return cmdNames[c] }

// batchLen is the number of frames in one PUSHB.
const batchLen = 32

// op is one request of a workload's op sequence.
type op struct {
	cmd     cmd
	node    int   // index of the server the request goes to
	slot    int   // index into world.slots
	frames  []int // pool indexes: one for PUSH, batchLen for PUSHB
	q       qrange
	advance bool // turn every window epoch after this push
}

// qrange is a QWIN range relative to the live epoch when it is issued:
// dashboards ask for "the last N epochs", not for fixed epoch numbers.
type qrange struct {
	back  uint64 // the range starts back epochs before the live one
	span  uint64 // ad-hoc ranges: epochs covered
	live  bool   // panels: the range runs through the live epoch
	adhoc bool
}

// connSpec is one of a workload's two client connections.
type connSpec struct {
	node int     // server the connection talks to
	rate float64 // offered ops/s in the latency blocks
	// ops returns the connection's op sequence, drawn from rng.
	ops func(w *world, rng *gen.RNG) func() op
}

// workload is one traffic mix against one server layout.
type workload struct {
	name     string
	nodes    int
	windowed bool
	peers    bool
	slots    map[string]int // slot count per family
	conns    [2]connSpec
	// prepopulate runs once per setup, after boot and before warm-up.
	prepopulate func(w *world) error
}

// Offered rates: about a third of the capacity two concurrent closed
// loops, one per connection, reached on a 2-vCPU x86-64 VM at the
// commit that introduced this benchmark (ingest 6400 PUSH/s with 340
// PUSHB/s, dashboard 3700 reads/s, cluster 1440 PULLC/s). At half the
// capacity, that host's bursts of stolen CPU time pushed the open loop
// past saturation and medians ranged 8x between runs.
const (
	ingestPushRate   = 1700.0 // connection A: PUSH, every pullEvery-th op a PULL
	ingestBatchRate  = 90.0   // connection B: PUSHB of batchLen frames
	dashReadRate     = 1000.0 // connection A: PULL and QWIN
	dashWriteRate    = 200.0  // connection B: PUSH
	clusterReadRate  = 500.0  // connection A: PULLC to node 1
	clusterWriteRate = 100.0  // connection B: PUSH to node 0
)

// Workload shape constants.
const (
	// pullEvery: on ingest, every pullEvery-th op of connection A is a
	// PULL of the slot the previous op pushed, so it always misses the
	// snapshot cache.
	pullEvery = 50
	// prepopEpochs is the sealed window history dashboard starts with.
	prepopEpochs = 1024
	// epochRounds is the least number of writer rounds over the
	// dashboard slots per epoch: at the writer's rate an epoch lasts
	// about a second, so panels over sealed epochs are asked several
	// times per epoch and the plane's answer cache has work to do.
	epochRounds = 100
	// maxEpochs bounds the epochs a dashboard run may reach: the
	// default ladder keeps its coarsest level for 2048 epochs, and the
	// all-history QWIN check needs every epoch still retained.
	maxEpochs = 1800
	// starPushes is how many frames setup pushes into each cluster
	// slot on every node.
	starPushes = 4
)

var workloads = []*workload{ingestWorkload(), dashboardWorkload(), clusterWorkload()}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, dashboard or cluster)", name)
}

// pickSlot returns a uniformly drawn slot index.
func pickSlot(w *world, rng *gen.RNG) int { return rng.Intn(len(w.slots)) }

// pickFrames draws n frame indexes from the slot's pool.
func pickFrames(w *world, rng *gen.RNG, slot, n int) []int {
	size := len(w.slots[slot].pool.frames)
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(size)
	}
	return out
}

// ingestWorkload: one plain node; connection A pushes single frames
// (with an occasional PULL of the slot it just pushed), connection B
// pushes 32-frame batches.
func ingestWorkload() *workload {
	return &workload{
		name:  "ingest",
		nodes: 1,
		slots: map[string]int{"mg": 38, "quantile": 13, "hll": 13},
		conns: [2]connSpec{
			{rate: ingestPushRate, ops: func(w *world, rng *gen.RNG) func() op {
				i, last := 0, 0
				return func() op {
					i++
					if i%pullEvery == 0 {
						return op{cmd: cmdPull, slot: last}
					}
					last = pickSlot(w, rng)
					return op{cmd: cmdPush, slot: last, frames: pickFrames(w, rng, last, 1)}
				}
			}},
			{rate: ingestBatchRate, ops: func(w *world, rng *gen.RNG) func() op {
				return func() op {
					s := pickSlot(w, rng)
					return op{cmd: cmdPushB, slot: s, frames: pickFrames(w, rng, s, batchLen)}
				}
			}},
		},
		prepopulate: func(w *world) error {
			// Every slot exists and holds one frame before timing starts.
			rng := gen.NewRNG(w.seed ^ 0x1f)
			for s := range w.slots {
				if err := w.setupPush(0, s, rng.Intn(len(w.slots[s].pool.frames))); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// Dashboard panels: "the last N epochs", sealed-only and through the
// live epoch. 8 panels per slot fit the plane's 128-entry answer cache.
var panelBacks = []uint64{16, 64, 256, 1024}

// dashboardWorkload: one windowed node with a deep sealed history; a
// reader issues PULL and QWIN, a low-rate writer pushes and turns
// epochs.
func dashboardWorkload() *workload {
	return &workload{
		name:     "dashboard",
		nodes:    1,
		windowed: true,
		slots:    map[string]int{"mg": 4, "quantile": 4},
		conns: [2]connSpec{
			{rate: dashReadRate, ops: func(w *world, rng *gen.RNG) func() op {
				// 40% PULL; 60% QWIN, of which one in ten is ad hoc and the
				// rest panels, sealed-only three times in four. Most reads
				// are then answered from a cache, so the median sits well
				// inside the cache-hit mode and the misses make the tail.
				return func() op {
					s := pickSlot(w, rng)
					if rng.Intn(5) < 2 {
						return op{cmd: cmdPull, slot: s}
					}
					if rng.Intn(10) == 0 {
						back := 2 + rng.Uint64n(999)
						return op{cmd: cmdQwin, slot: s, q: qrange{back: back, span: 1 + rng.Uint64n(back-1), adhoc: true}}
					}
					back := panelBacks[rng.Intn(len(panelBacks))]
					return op{cmd: cmdQwin, slot: s, q: qrange{back: back, live: rng.Intn(4) == 0}}
				}
			}},
			// The writer visits the slots round-robin and turns the epoch
			// after whole rounds, so every slot has data in every epoch
			// and no QWIN range comes back empty.
			{rate: dashWriteRate, ops: func(w *world, rng *gen.RNG) func() op {
				i := 0
				return func() op {
					s := i % len(w.slots)
					i++
					return op{cmd: cmdPush, slot: s, frames: pickFrames(w, rng, s, 1), advance: i%w.advanceEvery == 0}
				}
			}},
		},
		prepopulate: func(w *world) error {
			rng := gen.NewRNG(w.seed ^ 0x2f)
			for e := 0; e < prepopEpochs; e++ {
				for s := range w.slots {
					if err := w.setupPush(0, s, rng.Intn(len(w.slots[s].pool.frames))); err != nil {
						return err
					}
				}
				if err := w.advance(0); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// clusterWorkload: three peer-mode nodes, every slot starred across
// all of them; a reader issues PULLC to node 1 while a low-rate writer
// pushes to node 0.
func clusterWorkload() *workload {
	return &workload{
		name:  "cluster",
		nodes: 3,
		peers: true,
		slots: map[string]int{"mg": 16},
		conns: [2]connSpec{
			{node: 1, rate: clusterReadRate, ops: func(w *world, rng *gen.RNG) func() op {
				return func() op { return op{cmd: cmdPullC, node: 1, slot: pickSlot(w, rng)} }
			}},
			{node: 0, rate: clusterWriteRate, ops: func(w *world, rng *gen.RNG) func() op {
				return func() op {
					s := pickSlot(w, rng)
					return op{cmd: cmdPush, node: 0, slot: s, frames: pickFrames(w, rng, s, 1)}
				}
			}},
		},
		prepopulate: func(w *world) error {
			rng := gen.NewRNG(w.seed ^ 0x3f)
			for n := 0; n < w.spec.nodes; n++ {
				for s := range w.slots {
					for i := 0; i < starPushes; i++ {
						if err := w.setupPush(n, s, rng.Intn(len(w.slots[s].pool.frames))); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
	}
}

// granule is the epoch alignment a range edge needs at the given age
// under window.DefaultLadder: level 0 keeps 32 epochs, level 1 (8-epoch
// blocks) 256, level 2 (64-epoch blocks) 2048. The thresholds leave a
// margin for epochs that turn between resolving a range and serving it.
func granule(age uint64) uint64 {
	switch {
	case age <= 24:
		return 1
	case age <= 200:
		return 8
	default:
		return 64
	}
}

// alignDown returns the start of the granule-aligned block holding
// epoch e, aligned for e's age at live epoch now.
func alignDown(e, now uint64) uint64 {
	g := granule(now - e)
	return 1 + (e-1)/g*g
}

// resolve turns a relative range into QWIN's absolute [from, to] at
// live epoch now (to = 0 means "through the live epoch"). Every range
// it returns is answerable under the default ladder's retention.
func (q qrange) resolve(now uint64) (from, to uint64) {
	back := min(q.back, now-1)
	from = alignDown(now-back, now)
	if !q.adhoc {
		if q.live {
			return alignDown(now-back+1, now), 0
		}
		return from, now - 1
	}
	g := granule(now - from)
	blocks := (q.span + g - 1) / g
	if last := now - 2; from+blocks*g-1 > last {
		blocks = (last + 1 - from) / g
	}
	return from, from + max(blocks, 1)*g - 1
}

// interval is the time between two ops at rate ops/s.
func interval(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

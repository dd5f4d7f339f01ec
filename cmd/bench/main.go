// Command bench measures the per-item and batched ingestion paths of
// every summary family, the served merge path (decode, merge and
// encode of servebench-shaped mg, quantile and hll frames), the
// aggregation server's push/pull/merge throughput at 1–16 clients,
// and mergetree.Parallel's worker scaling, recording everything as
// JSON so the trajectories can be tracked across commits.
//
// Usage:
//
//	go run ./cmd/bench -out results/bench.json [-benchtime 1s] [-serverdur 300ms]
//
// ns/op is per ingested item on both paths (batch benchmarks advance
// b.N by the batch length per call), so speedup = per_item / batch.
// Server points are whole-system ops/s measured over -serverdur of
// wall time per (op, client-count) pair; the PULL series is measured
// twice, with the epoch snapshot cache on and off, and their ratio is
// the headline pull_cache_speedup. The server_kinds series enumerates
// the registry catalog — one push/pull throughput row per registered
// family — so the report always covers exactly the kinds the daemon
// serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mergesum "repro"
	"repro/internal/countmin"
	"repro/internal/gen"
	"repro/internal/mergetree"
	"repro/internal/mg"
	"repro/internal/qdigest"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/window"
)

const (
	streamLen = 1 << 16
	batchLen  = 1024
)

type pathResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

type familyResult struct {
	Family  string     `json:"family"`
	PerItem pathResult `json:"per_item"`
	Batch   pathResult `json:"batch"`
	Speedup float64    `json:"speedup"`
}

// serverPoint is one (client count, throughput) measurement.
type serverPoint struct {
	Clients   int     `json:"clients"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// serverSeries is one server operation measured across client counts.
type serverSeries struct {
	Op     string        `json:"op"`
	Points []serverPoint `json:"points"`
}

// serverReport aggregates the server-path series. PullCacheSpeedup is
// cached-pull throughput over re-encode-pull throughput at the largest
// client count — the epoch snapshot cache's headline win.
type serverReport struct {
	DurPerPoint      string         `json:"dur_per_point"`
	Series           []serverSeries `json:"series"`
	PullCacheSpeedup float64        `json:"pull_cache_speedup"`
}

// kindPoint is one registry family's server push/pull throughput at a
// fixed client count — the per-kind view of the aggregation plane, one
// row per registered family.
type kindPoint struct {
	Kind       string  `json:"kind"`
	Clients    int     `json:"clients"`
	FrameBytes int     `json:"frame_bytes"`
	PushPerSec float64 `json:"push_ops_per_sec"`
	PullPerSec float64 `json:"pull_ops_per_sec"`
}

// mergeScalePoint is one mergetree.Parallel worker-count measurement
// over a fixed partition set; Speedup is relative to workers=1.
type mergeScalePoint struct {
	Workers     int     `json:"workers"`
	NsPerReduce float64 `json:"ns_per_reduce"`
	Speedup     float64 `json:"speedup"`
}

// windowPoint is one window-length query-latency measurement: the
// multi-resolution ladder plan vs the flat per-epoch plan over the
// same sealed epoch range, with roll-up segments precomputed and the
// query-result cache off, so the numbers isolate plan + decode +
// merge + encode cost.
type windowPoint struct {
	Window       uint64  `json:"window_epochs"`
	LadderNs     float64 `json:"ladder_ns_per_query"`
	FlatNs       float64 `json:"flat_ns_per_query"`
	LadderPieces int     `json:"ladder_cover_pieces"`
	FlatPieces   int     `json:"flat_cover_pieces"`
	Speedup      float64 `json:"speedup"`
}

// windowReport is the roll-up plane's query-latency series.
type windowReport struct {
	Family string        `json:"family"`
	Fan    int           `json:"fan"`
	Levels int           `json:"levels"`
	Epochs uint64        `json:"epochs"`
	Points []windowPoint `json:"points"`
}

// clusterReport measures the multi-node aggregation plane over three
// in-process peer-mode nodes: consistent-hash routed push throughput
// through the ClusterClient, and cluster-wide PULLC fan-in throughput
// against node-local PULL on the same starred slot — the fan-in cost
// ratio is what a dashboard pays for asking one node to answer for
// the whole cluster.
type clusterReport struct {
	Nodes             int     `json:"nodes"`
	DurPerPoint       string  `json:"dur_per_point"`
	Clients           int     `json:"clients"`
	RoutedPushPerSec  float64 `json:"routed_push_ops_per_sec"`
	PullLocalPerSec   float64 `json:"pull_local_ops_per_sec"`
	PullClusterPerSec float64 `json:"pull_cluster_ops_per_sec"`
	FanInCost         float64 `json:"fan_in_cost_ratio"`
}

type report struct {
	Schema       int               `json:"schema"`
	Go           string            `json:"go"`
	GOOS         string            `json:"goos"`
	GOARCH       string            `json:"goarch"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	BatchLen     int               `json:"batch_len"`
	StreamLen    int               `json:"stream_len"`
	Families     []familyResult    `json:"families"`
	Window       *windowReport     `json:"window,omitempty"`
	Served       []servedPoint     `json:"served,omitempty"`
	Server       *serverReport     `json:"server,omitempty"`
	ServerKinds  []kindPoint       `json:"server_kinds,omitempty"`
	MergeScaling []mergeScalePoint `json:"merge_scaling,omitempty"`
	Cluster      *clusterReport    `json:"cluster,omitempty"`
}

func toPath(r testing.BenchmarkResult) pathResult {
	return pathResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

type workload struct {
	family  string
	perItem func(b *testing.B)
	batch   func(b *testing.B)
}

func itemWorkload(family string, stream []mergesum.Item,
	mk func() func(x mergesum.Item), mkBatch func() func(xs []mergesum.Item)) workload {
	return workload{
		family: family,
		perItem: func(b *testing.B) {
			up := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				up(stream[i%len(stream)])
			}
		},
		batch: func(b *testing.B) {
			up := mkBatch()
			b.ResetTimer()
			for i := 0; i < b.N; i += batchLen {
				off := i % (len(stream) - batchLen)
				up(stream[off : off+batchLen])
			}
		},
	}
}

func valueWorkload(family string, vals []float64,
	mk func() func(v float64), mkBatch func() func(vs []float64)) workload {
	return workload{
		family: family,
		perItem: func(b *testing.B) {
			up := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				up(vals[i%len(vals)])
			}
		},
		batch: func(b *testing.B) {
			up := mkBatch()
			b.ResetTimer()
			for i := 0; i < b.N; i += batchLen {
				off := i % (len(vals) - batchLen)
				up(vals[off : off+batchLen])
			}
		},
	}
}

// shardedWorkload ingests the stream from GOMAXPROCS goroutines into p
// lock-guarded shards of any summary type: per item (one lock
// acquisition each) vs batched (one acquisition per shard per batchLen
// items, with the shard's own UpdateBatch inside the lock).
func shardedWorkload[S any](family string, p int, stream []mergesum.Item,
	mk func(int) S, update func(S, mergesum.Item), updateBatch func(S, []mergesum.Item)) workload {
	return workload{
		family: fmt.Sprintf("%s/shards=%d", family, p),
		perItem: func(b *testing.B) {
			sh := shard.New(p, mk)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					x := stream[i%len(stream)]
					sh.Update(uint64(x), func(s S) { update(s, x) })
					i++
				}
			})
		},
		batch: func(b *testing.B) {
			sh := shard.New(p, mk)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				buf := make([]mergesum.Item, 0, batchLen)
				scratch := make([]mergesum.Item, 0, batchLen)
				i := 0
				flush := func() {
					if len(buf) == 0 {
						return
					}
					sh.UpdateBatch(len(buf),
						func(j int) uint64 { return uint64(buf[j]) },
						func(s S, idxs []int) {
							scratch = scratch[:0]
							for _, j := range idxs {
								scratch = append(scratch, buf[j])
							}
							updateBatch(s, scratch)
						})
					buf = buf[:0]
				}
				for pb.Next() {
					buf = append(buf, stream[i%len(stream)])
					i++
					if len(buf) == batchLen {
						flush()
					}
				}
				flush()
			})
		},
	}
}

func shardedMG(p int, stream []mergesum.Item) workload {
	return shardedWorkload("sharded_mg", p, stream,
		func(int) *mergesum.MisraGries { return mergesum.NewMisraGries(256) },
		func(s *mergesum.MisraGries, x mergesum.Item) { s.Update(x, 1) },
		func(s *mergesum.MisraGries, xs []mergesum.Item) { s.UpdateBatch(xs) })
}

func shardedHLL(p int, stream []mergesum.Item) workload {
	return shardedWorkload("sharded_hll", p, stream,
		func(int) *mergesum.HLL { return mergesum.NewHLL(12, 1) },
		func(s *mergesum.HLL, x mergesum.Item) { s.Update(x) },
		func(s *mergesum.HLL, xs []mergesum.Item) { s.UpdateBatch(xs) })
}

// startServer boots an in-process aggregation server on an ephemeral
// port; cache toggles the PULL snapshot cache.
func startServer(cache bool) (string, func(), error) {
	s := server.New()
	s.SetSnapshotCache(cache)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	return addr, func() { s.Close(); <-done }, nil
}

// discard drops pulled frame bytes: the pull series measures the
// server's encode/cache path, not client-side decoding.
type discard struct{}

func (discard) UnmarshalBinary([]byte) error { return nil }

// measureServer runs clients connections against addr for roughly dur,
// each looping op, and returns aggregate ops/s.
func measureServer(addr string, clients int, dur time.Duration, op func(c *server.Client, id int) error) (float64, error) {
	var (
		ops      atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	start := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				fail(err)
				return
			}
			defer c.Close()
			for !stop.Load() {
				if err := op(c, id); err != nil {
					fail(err)
					return
				}
				ops.Add(1)
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(ops.Load()) / elapsed, firstErr
}

// serverWorkloads measures push/s (independent slots), merge/s (all
// clients contending on one slot) and pull/s with the snapshot cache
// on and off, at each client count. Every point runs against a fresh
// server so points are independent.
func serverWorkloads(clientCounts []int, dur time.Duration) (*serverReport, error) {
	pushSummary := mg.New(256)
	for i, x := range gen.NewZipf(4096, 1.2, 5).Stream(1 << 12) {
		pushSummary.Update(x, uint64(i%3+1))
	}
	// The pull slot holds a wide q-digest so re-encoding it is real
	// work (the cache's whole point): every qdigest encode compresses
	// and sorts the node map, which runs well past the loopback
	// round-trip at this width.
	pullSummary := qdigest.NewEpsilon(32, 0.01)
	rng := gen.NewRNG(9)
	for i := 0; i < 1<<18; i++ {
		pullSummary.Update(rng.Uint64()>>32, 1)
	}

	type workload struct {
		op    string
		cache bool
		seed  bool
		run   func(c *server.Client, id int) error
	}
	workloads := []workload{
		{op: "push", cache: true, run: func(c *server.Client, id int) error {
			_, err := c.Push(fmt.Sprintf("ingest-%d", id), "mg", pushSummary)
			return err
		}},
		{op: "merge", cache: true, run: func(c *server.Client, id int) error {
			_, err := c.Push("merged", "mg", pushSummary)
			return err
		}},
		{op: "pull_cached", cache: true, seed: true, run: func(c *server.Client, id int) error {
			_, err := c.Pull("q", discard{})
			return err
		}},
		{op: "pull_reencode", cache: false, seed: true, run: func(c *server.Client, id int) error {
			_, err := c.Pull("q", discard{})
			return err
		}},
	}

	rep := &serverReport{DurPerPoint: dur.String()}
	byOp := make(map[string][]serverPoint, len(workloads))
	for _, wl := range workloads {
		points := make([]serverPoint, 0, len(clientCounts))
		for _, clients := range clientCounts {
			addr, stopSrv, err := startServer(wl.cache)
			if err != nil {
				return nil, err
			}
			if wl.seed {
				c, err := server.Dial(addr)
				if err == nil {
					_, err = c.Push("q", "qdigest", pullSummary)
					c.Close()
				}
				if err != nil {
					stopSrv()
					return nil, err
				}
			}
			opsPerSec, err := measureServer(addr, clients, dur, wl.run)
			stopSrv()
			if err != nil {
				return nil, err
			}
			points = append(points, serverPoint{Clients: clients, OpsPerSec: opsPerSec})
			fmt.Printf("server/%-14s clients=%-2d  %10.0f ops/s\n", wl.op, clients, opsPerSec)
		}
		byOp[wl.op] = points
		rep.Series = append(rep.Series, serverSeries{Op: wl.op, Points: points})
	}
	cached, reenc := byOp["pull_cached"], byOp["pull_reencode"]
	if n := len(cached); n > 0 && n == len(reenc) && reenc[n-1].OpsPerSec > 0 {
		rep.PullCacheSpeedup = cached[n-1].OpsPerSec / reenc[n-1].OpsPerSec
	}
	return rep, nil
}

// rawFrame pushes pre-encoded frame bytes, so the per-kind series
// measures the server's decode/merge path rather than client-side
// marshaling.
type rawFrame []byte

func (r rawFrame) MarshalBinary() ([]byte, error) { return r, nil }

// serverKindSeries measures every registered family's server-side
// push/s (decode + merge into a warm slot) and cached pull/s at a
// fixed client count. The family list is enumerated from the registry,
// so a newly registered kind shows up in the report without touching
// this file.
func serverKindSeries(clients int, dur time.Duration) ([]kindPoint, error) {
	out := make([]kindPoint, 0, len(registry.Entries()))
	for _, ent := range registry.Entries() {
		frame, err := ent.Encode(ent.Example(1 << 12))
		if err != nil {
			return nil, fmt.Errorf("%s: encoding example: %v", ent.Name(), err)
		}
		pt := kindPoint{Kind: ent.Name(), Clients: clients, FrameBytes: len(frame)}

		addr, stopSrv, err := startServer(true)
		if err != nil {
			return nil, err
		}
		pt.PushPerSec, err = measureServer(addr, clients, dur, func(c *server.Client, id int) error {
			_, err := c.Push(fmt.Sprintf("%s-%d", ent.Name(), id), ent.Name(), rawFrame(frame))
			return err
		})
		stopSrv()
		if err != nil {
			return nil, err
		}

		addr, stopSrv, err = startServer(true)
		if err != nil {
			return nil, err
		}
		c, err := server.Dial(addr)
		if err == nil {
			_, err = c.Push("q", ent.Name(), rawFrame(frame))
			c.Close()
		}
		if err != nil {
			stopSrv()
			return nil, err
		}
		pt.PullPerSec, err = measureServer(addr, clients, dur, func(c *server.Client, id int) error {
			_, err := c.Pull("q", discard{})
			return err
		})
		stopSrv()
		if err != nil {
			return nil, err
		}

		out = append(out, pt)
		fmt.Printf("server/kind=%-12s clients=%d  push %9.0f ops/s  pull %9.0f ops/s  frame %6d B\n",
			pt.Kind, clients, pt.PushPerSec, pt.PullPerSec, pt.FrameBytes)
	}
	return out, nil
}

// windowSeries measures the roll-up plane's query latency against
// window length, ladder plan (the default 8×3 shape) vs flat
// per-epoch plan over the same plane (SetMaxLevel(0), the roll-ups-off
// baseline). The mg family keeps frames small, so the measured gap is
// cover size — O(log n) precomputed segments vs O(n) per-epoch decodes
// and merges — not codec weight. The series runs in -families-only
// mode: the ladder speedup at long windows is a gated number.
func windowSeries(benchtime time.Duration) (*windowReport, error) {
	ent, ok := registry.ByName("mg")
	if !ok {
		return nil, fmt.Errorf("mg not registered")
	}
	const (
		fan    = 8
		levels = 3
		epochs = 1024
	)
	noEvict := make([]uint64, levels)
	for i := range noEvict {
		noEvict[i] = 1 << 30
	}
	p, err := window.NewPlane(ent, nil, window.Ladder{Fan: fan, Levels: levels, Horizon: noEvict})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	for e := 0; e < epochs; e++ {
		if _, err := p.Absorb(ent.Example(64)); err != nil {
			return nil, err
		}
		if err := p.Advance(); err != nil {
			return nil, err
		}
	}
	p.Quiesce()
	p.SetQueryCache(false)

	flag.Set("test.benchtime", benchtime.String())
	measure := func(from, to uint64) (float64, int, error) {
		cov, err := p.Cover(from, to)
		if err != nil {
			return 0, 0, err
		}
		var qErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.QueryEncoded(from, to); err != nil {
					qErr = err
					b.FailNow()
				}
			}
		})
		if qErr != nil {
			return 0, 0, qErr
		}
		return float64(r.T.Nanoseconds()) / float64(r.N), len(cov.Segments), nil
	}

	rep := &windowReport{Family: ent.Name(), Fan: fan, Levels: levels, Epochs: epochs}
	for _, w := range []uint64{16, 64, 256, 1024} {
		from, to := uint64(epochs)-w+1, uint64(epochs)
		p.SetMaxLevel(-1)
		ladderNs, ladderPieces, err := measure(from, to)
		if err != nil {
			return nil, fmt.Errorf("window=%d ladder: %w", w, err)
		}
		p.SetMaxLevel(0)
		flatNs, flatPieces, err := measure(from, to)
		p.SetMaxLevel(-1)
		if err != nil {
			return nil, fmt.Errorf("window=%d flat: %w", w, err)
		}
		pt := windowPoint{
			Window: w, LadderNs: ladderNs, FlatNs: flatNs,
			LadderPieces: ladderPieces, FlatPieces: flatPieces,
		}
		if ladderNs > 0 {
			pt.Speedup = flatNs / ladderNs
		}
		rep.Points = append(rep.Points, pt)
		fmt.Printf("window/W=%-5d ladder %10.0f ns/query (%2d pieces)  flat %10.0f ns/query (%4d pieces)  speedup %.2fx\n",
			w, ladderNs, ladderPieces, flatNs, flatPieces, pt.Speedup)
	}
	return rep, nil
}

// clusterSeries boots a 3-node in-process peer cluster and measures
// the network merge plane: routed pushes through the consistent-hash
// ClusterClient, node-local PULL on a starred slot, and the same slot
// answered cluster-wide via PULLC fan-in from one node.
func clusterSeries(clients int, dur time.Duration) (*clusterReport, error) {
	const nodes = 3
	servers := make([]*server.Server, nodes)
	addrs := make([]string, nodes)
	for i := range servers {
		servers[i] = server.New()
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = addr
	}
	done := make(chan error, nodes)
	for i, s := range servers {
		s.SetPeers(addrs[i], addrs, 2*time.Second, 1)
		go func(s *server.Server) { done <- s.Serve() }(s)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for range servers {
			<-done
		}
	}()

	// Star the pull slot: every node holds a partial, so PULLC does
	// real three-way fan-in work.
	pushSummary := mg.New(256)
	for i, x := range gen.NewZipf(4096, 1.2, 5).Stream(1 << 12) {
		pushSummary.Update(x, uint64(i%3+1))
	}
	for _, addr := range addrs {
		c, err := server.Dial(addr)
		if err != nil {
			return nil, err
		}
		_, err = c.Push("starred", "mg", pushSummary)
		c.Close()
		if err != nil {
			return nil, err
		}
	}

	rep := &clusterReport{Nodes: nodes, DurPerPoint: dur.String(), Clients: clients}

	// Routed pushes: each client drives its own ClusterClient over a
	// spread of slot keys, so the ring scatters the load over all
	// three nodes.
	var (
		ops      atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	start := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cc, err := server.DialCluster(addrs, 2*time.Second)
			if err != nil {
				fail(err)
				return
			}
			defer cc.Close()
			for i := 0; !stop.Load(); i++ {
				slot := fmt.Sprintf("ingest-%d-%d", id, i%32)
				if _, err := cc.Push(slot, "mg", pushSummary); err != nil {
					fail(err)
					return
				}
				ops.Add(1)
			}
		}(id)
	}
	wg.Wait()
	timer.Stop()
	if firstErr != nil {
		return nil, firstErr
	}
	rep.RoutedPushPerSec = float64(ops.Load()) / time.Since(start).Seconds()
	fmt.Printf("cluster/routed_push  clients=%d  %10.0f ops/s\n", clients, rep.RoutedPushPerSec)

	local, err := measureServer(addrs[0], clients, dur, func(c *server.Client, id int) error {
		_, _, err := c.PullFrame("starred")
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.PullLocalPerSec = local
	fmt.Printf("cluster/pull_local   clients=%d  %10.0f ops/s\n", clients, local)

	fanned, err := measureServer(addrs[0], clients, dur, func(c *server.Client, id int) error {
		_, _, err := c.PullClusterFrame("starred")
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.PullClusterPerSec = fanned
	if fanned > 0 {
		rep.FanInCost = local / fanned
	}
	fmt.Printf("cluster/pull_cluster clients=%d  %10.0f ops/s  fan-in cost %.2fx\n", clients, fanned, rep.FanInCost)
	return rep, nil
}

// mergeScalingSeries times mergetree.Parallel over a fixed 128-part
// Count-Min set (pure cell-wise CPU work) at each worker count,
// cloning the parts outside the timed region because Parallel
// consumes them.
func mergeScalingSeries(workersList []int, reps int) ([]mergeScalePoint, error) {
	const (
		parts   = 128
		perPart = 2048
	)
	stream := gen.NewZipf(1<<14, 1.1, 7).Stream(parts * perPart)
	base := make([]*countmin.Sketch, parts)
	for i := range base {
		s := countmin.New(2048, 6, 42)
		s.UpdateBatch(stream[i*perPart : (i+1)*perPart])
		base[i] = s
	}
	merge := mergetree.MergeFunc[*countmin.Sketch](func(d, s *countmin.Sketch) error { return d.Merge(s) })
	out := make([]mergeScalePoint, 0, len(workersList))
	var baseNs float64
	for _, workers := range workersList {
		var total int64
		for rep := 0; rep < reps; rep++ {
			clones := make([]*countmin.Sketch, parts)
			for i, s := range base {
				clones[i] = s.Clone()
			}
			t0 := time.Now()
			if _, err := mergetree.Parallel(clones, workers, merge); err != nil {
				return nil, err
			}
			total += time.Since(t0).Nanoseconds()
		}
		pt := mergeScalePoint{Workers: workers, NsPerReduce: float64(total) / float64(reps)}
		if baseNs == 0 {
			baseNs = pt.NsPerReduce
		}
		pt.Speedup = baseNs / pt.NsPerReduce
		out = append(out, pt)
		fmt.Printf("mergetree/parallel  workers=%-2d  %12.0f ns/reduce  speedup %.2fx\n",
			workers, pt.NsPerReduce, pt.Speedup)
	}
	return out, nil
}

func main() {
	out := flag.String("out", "results/bench.json", "output path for the JSON report")
	benchtime := flag.Duration("benchtime", time.Second, "target time per measurement")
	serverDur := flag.Duration("serverdur", 300*time.Millisecond, "wall time per server throughput point")
	familiesOnly := flag.Bool("families-only", false, "measure only the gated series: per-family ingest paths, window ladder and served merge (skip server, per-kind, merge-scaling and cluster series); used by the bench-regress gate")
	flag.Parse()

	stream := gen.NewZipf(streamLen/16, 1.2, 1).Stream(streamLen)
	vals := gen.UniformValues(streamLen, 2)

	workloads := []workload{
		itemWorkload("misra_gries/k=64", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewMisraGries(64)
				return func(x mergesum.Item) { s.Update(x, 1) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewMisraGries(64)
				return s.UpdateBatch
			}),
		itemWorkload("misra_gries/k=1024", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewMisraGries(1024)
				return func(x mergesum.Item) { s.Update(x, 1) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewMisraGries(1024)
				return s.UpdateBatch
			}),
		itemWorkload("spacesaving/k=256", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewSpaceSaving(256)
				return func(x mergesum.Item) { s.Update(x, 1) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewSpaceSaving(256)
				return s.UpdateBatch
			}),
		itemWorkload("countmin/w=1024,d=4", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewCountMin(1024, 4, 1)
				return func(x mergesum.Item) { s.Update(x, 1) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewCountMin(1024, 4, 1)
				return s.UpdateBatch
			}),
		itemWorkload("countsketch/w=1024,d=4", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewCountSketch(1024, 4, 1)
				return func(x mergesum.Item) { s.Update(x, 1) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewCountSketch(1024, 4, 1)
				return s.UpdateBatch
			}),
		itemWorkload("kmv/k=1024", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewKMV(1024, 1)
				return func(x mergesum.Item) { s.Update(x) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewKMV(1024, 1)
				return s.UpdateBatch
			}),
		itemWorkload("hll/p=12", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewHLL(12, 1)
				return func(x mergesum.Item) { s.Update(x) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewHLL(12, 1)
				return s.UpdateBatch
			}),
		itemWorkload("topk/k=64", stream,
			func() func(mergesum.Item) {
				s := mergesum.NewTopK(64, 512, 4, 1)
				return func(x mergesum.Item) { s.Update(x, 1) }
			},
			func() func([]mergesum.Item) {
				s := mergesum.NewTopK(64, 512, 4, 1)
				return s.UpdateBatch
			}),
		valueWorkload("gk/eps=0.01", vals,
			func() func(float64) {
				s := mergesum.NewGK(0.01)
				return s.Update
			},
			func() func([]float64) {
				s := mergesum.NewGK(0.01)
				return s.UpdateBatch
			}),
		valueWorkload("randquant/eps=0.01", vals,
			func() func(float64) {
				s := mergesum.NewQuantile(0.01, 1)
				return s.Update
			},
			func() func([]float64) {
				s := mergesum.NewQuantile(0.01, 1)
				return s.UpdateBatch
			}),
		valueWorkload("hybrid/eps=0.01", vals,
			func() func(float64) {
				s := mergesum.NewQuantileHybrid(0.01, 1)
				return s.Update
			},
			func() func([]float64) {
				s := mergesum.NewQuantileHybrid(0.01, 1)
				return s.UpdateBatch
			}),
		valueWorkload("bottomk/k=4096", vals,
			func() func(float64) {
				s := mergesum.NewBottomK(4096, 1)
				return s.Update
			},
			func() func([]float64) {
				s := mergesum.NewBottomK(4096, 1)
				return s.UpdateBatch
			}),
		shardedMG(8, stream),
		shardedMG(16, stream),
		shardedHLL(8, stream),
	}

	rep := report{
		Schema:     6,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BatchLen:   batchLen,
		StreamLen:  streamLen,
	}
	testing.Init()
	flag.Set("test.benchtime", benchtime.String())
	for _, w := range workloads {
		item := toPath(testing.Benchmark(w.perItem))
		batch := toPath(testing.Benchmark(w.batch))
		fr := familyResult{Family: w.family, PerItem: item, Batch: batch}
		if batch.NsPerOp > 0 {
			fr.Speedup = item.NsPerOp / batch.NsPerOp
		}
		rep.Families = append(rep.Families, fr)
		fmt.Printf("%-24s per-item %8.2f ns/op  batch %8.2f ns/op  speedup %.2fx\n",
			w.family, item.NsPerOp, batch.NsPerOp, fr.Speedup)
	}

	// The window series runs in every mode: its long-window speedup is
	// one of the regression-gated numbers.
	win, err := windowSeries(*benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: window series:", err)
		os.Exit(1)
	}
	rep.Window = win

	// So does the served-merge series: decode, merge and encode of
	// servebench-shaped frames.
	served, err := servedSeries()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: served series:", err)
		os.Exit(1)
	}
	rep.Served = served

	if !*familiesOnly {
		srv, err := serverWorkloads([]int{1, 2, 4, 8, 16}, *serverDur)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: server series:", err)
			os.Exit(1)
		}
		rep.Server = srv
		fmt.Printf("pull cache speedup (16 clients): %.2fx\n", srv.PullCacheSpeedup)

		kinds, err := serverKindSeries(4, *serverDur)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: per-kind server series:", err)
			os.Exit(1)
		}
		rep.ServerKinds = kinds

		scaling, err := mergeScalingSeries([]int{1, 2, 4, 8, 16}, 5)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: merge scaling:", err)
			os.Exit(1)
		}
		rep.MergeScaling = scaling

		cl, err := clusterSeries(4, *serverDur)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: cluster series:", err)
			os.Exit(1)
		}
		rep.Cluster = cl
	}

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

const (
	// setupReps is how many times a run sets its world up; setup_s is
	// the median.
	setupReps = 3
	// warmupOps is how many ops each connection issues back to back
	// before anything is timed.
	warmupOps = 200
	// rounds is how many times a run alternates a latency block and a
	// capacity block. Spreading both phases over the whole run lets a
	// slow stretch of a shared host weigh on both alike, and ops_s is the
	// upper quartile over the capacity blocks: the capacity of the
	// calmer part of the run, as conn_*_p50_us is its latency.
	rounds = 10
	// latencyShare is the share of each round spent in the open-loop
	// latency block; the rest is the closed-loop capacity block.
	latencyShare = 0.75
	// capacityWork sizes a capacity block as a fixed amount of work: the
	// ops the open loop schedules in capacityWork times the block's
	// share of the round. Capacity is at least 2.7 times the
	// offered rates, so the block takes about its share; fixed work also
	// leaves the servers in the same state at the end of every run,
	// which live_heap_mb reads. A block stops at capacityLimit times its
	// share if the host is that much slower.
	capacityWork  = 2.5
	capacityLimit = 4
)

// endToEnd lists the metrics a --trace 0 run puts in its JSON result:
// those every workload reports and whose run-to-run spread fits a
// regression bound. Latency is reported per connection (conn_a, conn_b:
// every op the connection issued) because no single command is issued
// by every workload. Tail percentiles and the per-command latencies are
// printed with their sample counts, but kept out of the JSON.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_s", "ops/s"},
	{"live_heap_mb", "MiB"},
	{"conn_a_p50_us", "us"},
	{"conn_b_p50_us", "us"},
}

// setUp boots a world, fills it, opens both connections and warms them
// up.
func setUp(spec *workload, seed uint64, seconds float64, mirror bool) (*world, [2]*conn, error) {
	var conns [2]*conn
	w, err := boot(spec, seed, seconds)
	if err != nil {
		return nil, conns, err
	}
	if mirror {
		w.mirror = newReplica(w)
	}
	fail := func(err error) (*world, [2]*conn, error) {
		for _, cn := range conns {
			if cn != nil {
				cn.close()
			}
		}
		_ = w.close() // the setup error is the one to report
		return nil, [2]*conn{}, err
	}
	if err := spec.prepopulate(w); err != nil {
		return fail(err)
	}
	for i := range conns {
		if conns[i], err = newConn(w, i); err != nil {
			return fail(err)
		}
	}
	for _, cn := range conns {
		for i := 0; i < warmupOps; i++ {
			var err error
			if w.mirror != nil {
				err = w.mirror.replay(cn, cn.next(), false)
			} else {
				err = cn.do(cn.next())
			}
			cn.rec.count(err)
		}
	}
	return w, conns, nil
}

// tearDown closes the connections, then the servers.
func tearDown(w *world, conns [2]*conn) error {
	for _, cn := range conns {
		cn.close()
	}
	return w.close()
}

// bothConns runs f on each connection concurrently and waits for both.
func bothConns(conns [2]*conn, f func(c int, cn *conn)) {
	var wg sync.WaitGroup
	for c, cn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c, cn)
		}()
	}
	wg.Wait()
}

// runE2E is the untraced run: setup (setupReps times), rounds of an
// open-loop latency block and a closed-loop capacity block, then the
// checks.
func runE2E(spec *workload, seed uint64, seconds float64) (*result, error) {
	var (
		w      *world
		conns  [2]*conn
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := tearDown(w, conns); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if w, conns, err = setUp(spec, seed, seconds, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Earlier setups' garbage is collected before timing starts.
	runtime.GC()

	round := time.Duration(seconds * float64(time.Second) / rounds)
	latDur := time.Duration(latencyShare * float64(round))
	capShare := round - latDur
	var rates []float64
	completed := 0
	for range rounds {
		start := time.Now()
		bothConns(conns, func(_ int, cn *conn) { cn.openLoop(start, latDur) })
		start = time.Now()
		n := closedLoop(conns, time.Duration(capacityWork*float64(capShare)), start.Add(capacityLimit*capShare))
		rates = append(rates, float64(n)/time.Since(start).Seconds())
		completed += n
	}

	res, rec := finish(w, conns)
	// Two collections: the first moves sync.Pool contents to the
	// pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := tearDown(w, conns); err != nil {
		return nil, err
	}

	res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", n: len(setups)}
	res.Metrics["ops_s"] = metric{Value: upperQuartile(rates), Unit: "ops/s", n: completed}
	res.Metrics["live_heap_mb"] = metric{Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MiB", n: 1}
	res.extra["error_rate"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", n: res.Attempted}
	res.extra["gen.late_p99_us"] = metric{Value: micros(rec.late.tail(0.99)), Unit: "us", n: len(rec.late)}
	for c := cmd(0); c < numCmds; c++ {
		addQuantiles(res.extra, c.String(), rec.lat[c])
	}
	for i, cn := range conns {
		name := "conn_" + string(rune('a'+i))
		if len(cn.rec.seq) == 0 {
			return nil, fmt.Errorf("workload %s: connection %c completed no ops", spec.name, 'a'+i)
		}
		res.Metrics[name+"_p50_us"] = metric{Value: micros(cn.rec.seq.calm(0.5)), Unit: "us", n: len(cn.rec.seq)}
		res.extra[name+"_p99_us"] = metric{Value: micros(cn.rec.seq.tail(0.99)), Unit: "us", n: len(cn.rec.seq)}
	}
	return res, nil
}

// finish merges the connections' records and runs the correctness
// checks, returning the result so far and the merged record.
func finish(w *world, conns [2]*conn) (*result, *recorder) {
	rec := &recorder{}
	pushed := tallies{}
	pushed.merge(w.pushed)
	for _, cn := range conns {
		rec.merge(&cn.rec)
		pushed.merge(cn.pushed)
	}
	ch := verify(w, pushed)
	res := &result{
		Attempted: rec.attempted + ch.attempted,
		Failed:    rec.failed + ch.failed,
		Metrics:   map[string]metric{},
		extra:     map[string]metric{},
		notes:     ch.failures,
	}
	if rec.firstErr != nil {
		res.notes = append(res.notes, fmt.Sprintf("%d ops failed, first: %v", rec.failed, rec.firstErr))
	}
	res.Correct = res.Failed == 0
	return res, rec
}

// addQuantiles adds <prefix>_p50_us and <prefix>_p99_us for a latency
// sample set, if it has any samples.
func addQuantiles(into map[string]metric, prefix string, lat samples) {
	if len(lat) == 0 {
		return
	}
	into[prefix+"_p50_us"] = metric{Value: micros(lat.quantile(0.5)), Unit: "us", n: len(lat)}
	into[prefix+"_p99_us"] = metric{Value: micros(lat.tail(0.99)), Unit: "us", n: len(lat)}
}

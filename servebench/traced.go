package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
)

// Shares of --seconds in a traced run: the traced replay, then an
// untraced open loop (generator lateness and the tracing-overhead
// baseline), then the in-process baseline (ingest only).
const (
	replayShare   = 0.5
	untracedShare = 0.4
	inprocShare   = 0.1
)

// perLayer lists the metrics a --trace 1 run puts in its JSON result.
// A metric of a layer the workload does not exercise reads 0. README.md
// gives, for each, the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"server.push.self_us", "us"},
	{"server.pushb.self_us", "us"},
	{"server.pull.self_us", "us"},
	{"server.qwin.self_us", "us"},
	{"server.pullc.self_us", "us"},
	{"server.bytes_in_per_op", "bytes"},
	{"server.bytes_out_per_op", "bytes"},
	{"codec.frame_check_us", "us"},
	{"registry.decode_us.mg", "us"},
	{"registry.decode_us.quantile", "us"},
	{"registry.decode_us.hll", "us"},
	{"registry.merge_us.mg", "us"},
	{"registry.merge_us.quantile", "us"},
	{"registry.merge_us.hll", "us"},
	{"registry.encode_us.mg", "us"},
	{"registry.encode_us.quantile", "us"},
	{"node.ingest_us", "us"},
	{"node.ingest_batch_us", "us"},
	{"node.lock_wait_us", "us"},
	{"node.encoded_hit_us", "us"},
	{"node.encoded_miss_us", "us"},
	{"node.pull_unchanged_share", "ratio"},
	{"node.merges_per_op", "count"},
	{"node.inproc_ops_s", "ops/s"},
	{"window.absorb_us", "us"},
	{"window.advance_us", "us"},
	{"window.rollups", "count"},
	{"window.cover_pieces", "count"},
	{"window.query_hit_us", "us"},
	{"window.query_miss_us", "us"},
	{"window.cache_hit_ratio", "ratio"},
	{"fanout.dial_us", "us"},
	{"fanout.peer_rtt_us", "us"},
	{"fanout.peer_errors", "count"},
	{"fanout.retries", "count"},
	{"fanout.unchanged_share", "ratio"},
	{"cluster.reduce_us", "us"},
	{"cluster.encode_us", "us"},
	{"gen.late_p99_us", "us"},
	{"trace.overhead.push", "ratio"},
	{"trace.overhead.pushb", "ratio"},
	{"trace.overhead.pull", "ratio"},
	{"trace.overhead.qwin", "ratio"},
	{"trace.overhead.pullc", "ratio"},
}

// spanMetrics maps duration metrics to the spans they average. A span
// name ending in "." takes the family name of the metric's last part.
var spanMetrics = map[string]string{
	"codec.frame_check_us": "codec.frame_check",
	"registry.decode_us.":  "registry.decode.",
	"registry.merge_us.":   "registry.merge.",
	"registry.encode_us.":  "registry.encode.",
	"node.ingest_us":       "node.ingest",
	"node.ingest_batch_us": "node.ingest_batch",
	"node.encoded_hit_us":  "node.encoded_hit",
	"node.encoded_miss_us": "node.encoded_miss",
	"window.absorb_us":     "window.absorb",
	"window.advance_us":    "window.advance",
	"window.query_hit_us":  "window.query_hit",
	"window.query_miss_us": "window.query_miss",
	"fanout.dial_us":       "fanout.dial",
	"fanout.peer_rtt_us":   "fanout.peer_rtt",
	"cluster.reduce_us":    "cluster.reduce",
	"cluster.encode_us":    "cluster.encode",
}

// runTraced is the traced run: setup with replicas, the traced replay,
// an untraced open loop, the in-process baseline, then the checks.
func runTraced(spec *workload, seed uint64, seconds float64) (*result, error) {
	w, conns, err := setUp(spec, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	rp := w.mirror
	rp.tr = newTracer()
	total := time.Duration(seconds * float64(time.Second))

	before, err := serverCounters(w)
	if err != nil {
		_ = tearDown(w, conns)
		return nil, err
	}
	hits0, misses0, _ := rp.planeStats()
	replayErr := replayOps(rp, conns, time.Duration(replayShare*float64(total)))
	after, err := serverCounters(w)
	if err == nil {
		err = replayErr
	}
	if err != nil {
		_ = tearDown(w, conns)
		return nil, err
	}
	hits1, misses1, rollups1 := rp.planeStats()

	start := time.Now()
	bothConns(conns, func(_ int, cn *conn) { cn.openLoop(start, time.Duration(untracedShare*float64(total))) })

	var inproc float64
	if spec.name == "ingest" {
		if inproc, err = inprocBaseline(w, time.Duration(inprocShare*float64(total))); err != nil {
			_ = tearDown(w, conns)
			return nil, err
		}
	}

	res, rec := finish(w, conns)
	if err := tearDown(w, conns); err != nil {
		return nil, err
	}
	// The replay's comparisons of replayed and served answers are checks
	// of the run too.
	res.Attempted += rp.st.compared
	res.Failed += rp.st.mismatchN
	res.Correct = res.Failed == 0
	res.notes = append(res.notes, rp.st.mismatches...)

	m := spanStats(rp.tr)
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{Unit: pl.unit}
	}
	set := func(name string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: res.Metrics[name].Unit, n: n}
	}
	for name, sp := range spanMetrics {
		if strings.HasSuffix(name, ".") {
			for _, kind := range []string{"mg", "quantile", "hll"} {
				if _, ok := res.Metrics[name+kind]; ok {
					set(name+kind, meanMicros(m.dur[sp+kind]), len(m.dur[sp+kind]))
				}
			}
			continue
		}
		set(name, meanMicros(m.dur[sp]), len(m.dur[sp]))
	}
	for c := cmd(0); c < numCmds; c++ {
		root := "server." + c.String()
		set(root+".self_us", meanMicros(m.self[root]), len(m.self[root]))
		traced := samples(m.dur[root]).quantile(0.5)
		untraced := rec.lat[c].quantile(0.5)
		set("trace.overhead."+c.String(), ratio(float64(traced), float64(untraced)), len(m.dur[root]))
	}
	set("node.lock_wait_us", meanMicros(m.lockWait), len(m.lockWait))

	st := rp.st
	set("server.bytes_in_per_op", ratio(float64(st.bytesIn), float64(st.ops)), st.ops)
	set("server.bytes_out_per_op", ratio(float64(st.bytesOut), float64(st.ops)), st.ops)
	set("node.pull_unchanged_share", ratio(float64(st.pullsSame), float64(st.pulls)), st.pulls)
	set("fanout.unchanged_share", ratio(float64(st.pullcsSame), float64(st.pullcs)), st.pullcs)
	set("node.merges_per_op", ratio(float64(after["kind.merge"]-before["kind.merge"]), float64(st.ops)), st.ops)
	set("fanout.peer_errors", float64(after["peer.errors"]), st.pullcs)
	set("fanout.retries", float64(after["peer.retries"]), st.pullcs)
	set("node.inproc_ops_s", inproc, 1)
	// Roll-ups are counted from setup on: an epoch turns every few
	// seconds, so the replay alone seals too few 8-epoch blocks.
	set("window.rollups", ratio(float64(rollups1), float64(st.advances)), st.advances)
	set("window.cover_pieces", ratio(float64(st.coverPieces), float64(st.qwins)), st.qwins)
	queries := (hits1 - hits0) + (misses1 - misses0)
	set("window.cache_hit_ratio", ratio(float64(hits1-hits0), float64(queries)), int(queries))
	set("gen.late_p99_us", micros(rec.late.tail(0.99)), len(rec.late))
	res.extra["trace.requests"] = metric{Value: float64(st.ops), Unit: "count", n: st.ops}
	res.extra["trace.clipped_share"] = metric{Value: ratio(float64(m.clipped), float64(m.roots)), Unit: "ratio", n: m.roots}

	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.tsv", spec.name, seed))
	if err := rp.tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: writing spans:", err)
	}
	return res, nil
}

// replayOps replays both connections' ops in due-time order at their
// offered rates, as traced requests, for the ops due within dur and at
// most dur of wall time.
func replayOps(rp *replica, conns [2]*conn, dur time.Duration) error {
	start := time.Now()
	var issued [2]int
	for time.Since(start) < dur {
		i, due := nextDue(conns, issued)
		if due >= dur {
			return nil
		}
		issued[i]++
		cn := conns[i]
		err := rp.replay(cn, cn.next(), true)
		cn.rec.count(err)
		if err != nil {
			return err
		}
	}
	return nil
}

// spanSummary is what a traced run's spans add up to.
type spanSummary struct {
	dur      map[string][]time.Duration // by span name
	self     map[string][]time.Duration // roots: wire self time
	lockWait []time.Duration            // node.ingest minus its merge
	roots    int
	clipped  int // roots whose replayed steps outran them
}

func spanStats(t *tracer) spanSummary {
	s := spanSummary{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
	kids := t.children()
	for i, sp := range t.spans {
		s.dur[sp.name] = append(s.dur[sp.name], sp.dur())
		switch {
		case sp.parent < 0 && strings.HasPrefix(sp.name, "server."):
			s.roots++
			s.self[sp.name] = append(s.self[sp.name], selfTime(sp, kids[i]))
			for _, c := range kids[i] {
				if c.end > sp.end {
					s.clipped++
					break
				}
			}
		case sp.name == "node.ingest" && len(kids[i]) > 0:
			s.lockWait = append(s.lockWait, selfTime(sp, kids[i]))
		}
	}
	return s
}

func meanMicros(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return micros(sum) / float64(len(ds))
}

// planeStats sums the mirrored planes' answer-cache and roll-up
// counters.
func (rp *replica) planeStats() (hits, misses, rollups uint64) {
	for _, pl := range rp.planes {
		st := pl.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
		rollups += st.Rollups
	}
	return hits, misses, rollups
}

// serverCounters sums every server's METRICS rows by their name up to
// the last dot (kind.merge.mg and kind.merge.hll add into kind.merge).
func serverCounters(w *world) (map[string]uint64, error) {
	out := map[string]uint64{}
	for n, c := range w.setup {
		rows, err := c.Metrics()
		if err != nil {
			return nil, fmt.Errorf("METRICS on node %d: %w", n, err)
		}
		for name, v := range rows {
			if i := strings.LastIndexByte(name, '.'); i > 0 && strings.HasPrefix(name, "kind.") {
				name = name[:i]
			}
			out[name] += v
		}
	}
	return out, nil
}

// inprocBaseline runs the ingest op sequence on one server.Node from a
// single goroutine with no sockets — decode, then ingest, or an encoded
// read — and returns ops/s. It bounds what the wire layer costs.
func inprocBaseline(w *world, dur time.Duration) (float64, error) {
	node := server.NewNode()
	rng := gen.NewRNG(w.seed ^ 0x1f)
	for _, sl := range w.slots {
		if err := inprocPush(node, sl, []int{rng.Intn(len(sl.pool.frames))}); err != nil {
			return 0, err
		}
	}
	var next [2]func() op
	for i, cs := range w.spec.conns {
		next[i] = cs.ops(w, connRNG(w.seed, i))
	}
	start := time.Now()
	ops := 0
	var issued [2]int
	for time.Since(start) < dur {
		i := 0
		if float64(issued[1])/w.spec.conns[1].rate < float64(issued[0])/w.spec.conns[0].rate {
			i = 1
		}
		issued[i]++
		o := next[i]()
		sl := w.slots[o.slot]
		var err error
		if o.cmd == cmdPull {
			_, _, err = node.Encoded(sl.name)
		} else {
			err = inprocPush(node, sl, o.frames)
		}
		if err != nil {
			return 0, fmt.Errorf("in-process %s %s: %w", o.cmd, sl.name, err)
		}
		ops++
	}
	return float64(ops) / time.Since(start).Seconds(), nil
}

// inprocPush decodes frames and ingests them into a node: one frame as
// a PUSH, several as a PUSHB.
func inprocPush(node *server.Node, sl slotDef, frames []int) error {
	ent := sl.pool.ent
	decoded := make([]any, len(frames))
	for i, fi := range frames {
		decoded[i] = ent.GetScratch()
		if err := ent.DecodeInto(decoded[i], sl.pool.frames[fi].data); err != nil {
			for _, d := range decoded[:i+1] {
				ent.PutScratch(d)
			}
			return err
		}
	}
	if len(decoded) == 1 {
		_, err := node.Ingest(sl.name, ent, decoded[0])
		return err
	}
	_, err := node.IngestBatch(sl.name, ent, decoded, 0)
	return err
}

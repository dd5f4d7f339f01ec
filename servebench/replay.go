package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/server"
	"repro/internal/window"
)

// replica mirrors a world's slot state on socket-free copies built from
// public constructors (server.NewNode, window.NewPlane), so a traced run
// can repeat each request's steps and time them one layer at a time.
// Every setup push, every replayed op and every epoch turn is applied
// to the replicas in the order it was applied to the servers, so a
// replica answers each read with the bytes the server served.
type replica struct {
	w     *world
	nodes []*server.Node
	// planes mirrors node 0's per-slot roll-up planes (windowed
	// workloads); epoch is their live epoch.
	planes map[int]*window.Plane
	epoch  uint64
	// shadow is each slot's merged state, which merge and encode probes
	// run against.
	shadow map[key]any
	// The op log: whether a slot changed since its last encoded read
	// (per node) and since its last PULLC (on any node).
	pulled   map[key]bool
	stale    map[key]bool
	pcPulled map[int]bool
	pcStale  map[int]bool

	tr *tracer // set for the traced replay
	st replayStats
}

// replayStats counts what the traced replay did.
type replayStats struct {
	ops                 int
	bytesIn, bytesOut   int
	pulls, pullsSame    int
	pullcs, pullcsSame  int
	advances            int // plane Advance calls since setup began
	qwins, coverPieces  int
	mismatches          []string
	mismatchN, compared int
}

func newReplica(w *world) *replica {
	rp := &replica{
		w:        w,
		planes:   map[int]*window.Plane{},
		epoch:    1,
		shadow:   map[key]any{},
		pulled:   map[key]bool{},
		stale:    map[key]bool{},
		pcPulled: map[int]bool{},
		pcStale:  map[int]bool{},
	}
	for range w.spec.nodes {
		rp.nodes = append(rp.nodes, server.NewNode())
	}
	return rp
}

func (rp *replica) close() {
	for _, pl := range rp.planes {
		pl.Close()
	}
}

// compare records whether a replayed answer matches the served one.
func (rp *replica) compare(ok bool, format string, args ...any) {
	rp.st.compared++
	if ok {
		return
	}
	rp.st.mismatchN++
	if len(rp.st.mismatches) < maxReported {
		rp.st.mismatches = append(rp.st.mismatches, fmt.Sprintf(format, args...))
	}
}

// push repeats one pushed frame's steps: frame check and decode, the
// node ingest (with the slot merge probed on the shadow), and on
// windowed workloads the plane absorb.
func (rp *replica) push(r *reqTrace, node, slot int, data []byte) error {
	sl := rp.w.slots[slot]
	ent := sl.pool.ent
	v := ent.GetScratch()
	dec, err := r.step(-1, "registry.decode."+ent.Name(), func() error { return ent.DecodeInto(v, data) })
	if err == nil {
		err = r.probe(dec, "codec.frame_check", func() error {
			_, err := codec.DecodeFrame(ent.Kind(), data)
			return err
		})
	}
	if err != nil {
		ent.PutScratch(v)
		return err
	}
	ing, err := r.step(-1, "node.ingest", func() error {
		_, err := rp.nodes[node].Ingest(sl.name, ent, v)
		return err
	})
	if err != nil {
		return err
	}
	return rp.follow(r, ing, node, slot, data)
}

// follow brings the shadow (and, on windowed workloads, the plane) up
// to date with one more frame. With r set, the shadow merge is recorded
// as a probe of the ingest span parent and the absorb as a step.
func (rp *replica) follow(r *reqTrace, parent, node, slot int, data []byte) error {
	sl := rp.w.slots[slot]
	ent := sl.pool.ent
	k := key{node, slot}
	rp.stale[k] = true
	rp.pcStale[slot] = true
	src := ent.GetScratch()
	if err := ent.DecodeInto(src, data); err != nil {
		ent.PutScratch(src)
		return err
	}
	sh, ok := rp.shadow[k]
	if !ok {
		rp.shadow[k] = src // the first frame becomes the shadow
	} else if err := r.probe(parent, "registry.merge."+ent.Name(), func() error { return ent.Merge(sh, src) }); err != nil {
		ent.PutScratch(src)
		return err
	}
	var err error
	if rp.w.spec.windowed {
		pl := rp.planes[slot]
		if pl == nil {
			if pl, err = window.NewPlane(ent, nil, window.DefaultLadder()); err != nil {
				return err
			}
			pl.StartAt(rp.epoch)
			rp.planes[slot] = pl
		}
		_, err = r.step(-1, "window.absorb", func() error { return pl.AbsorbClone(src) })
	}
	if ok {
		ent.PutScratch(src)
	}
	return err
}

// pushBatch repeats a PUSHB: every frame's check and decode, then one
// node batch ingest.
func (rp *replica) pushBatch(r *reqTrace, node, slot int, frames []int) error {
	sl := rp.w.slots[slot]
	ent := sl.pool.ent
	decoded := make([]any, 0, len(frames))
	for _, fi := range frames {
		data := sl.pool.frames[fi].data
		v := ent.GetScratch()
		decoded = append(decoded, v)
		dec, err := r.step(-1, "registry.decode."+ent.Name(), func() error { return ent.DecodeInto(v, data) })
		if err == nil {
			err = r.probe(dec, "codec.frame_check", func() error {
				_, err := codec.DecodeFrame(ent.Kind(), data)
				return err
			})
		}
		if err != nil {
			for _, d := range decoded {
				ent.PutScratch(d)
			}
			return err
		}
	}
	if _, err := r.step(-1, "node.ingest_batch", func() error {
		_, err := rp.nodes[node].IngestBatch(sl.name, ent, decoded, 0)
		return err
	}); err != nil {
		return err
	}
	for _, fi := range frames {
		if err := rp.follow(nil, -1, node, slot, sl.pool.frames[fi].data); err != nil {
			return err
		}
	}
	return nil
}

// encoded repeats a node's encoded read: a snapshot-cache hit when the
// slot is unchanged since its last encoded read, otherwise a miss whose
// encode is probed on the shadow. It reports which it was.
func (rp *replica) encoded(r *reqTrace, node, slot int) ([]byte, bool, error) {
	sl := rp.w.slots[slot]
	k := key{node, slot}
	hit := rp.pulled[k] && !rp.stale[k]
	name := "node.encoded_miss"
	if hit {
		name = "node.encoded_hit"
	}
	var data []byte
	enc, err := r.step(-1, name, func() (err error) {
		_, data, err = rp.nodes[node].Encoded(sl.name)
		return err
	})
	if err != nil {
		return nil, hit, err
	}
	if !hit {
		if err := r.probe(enc, "registry.encode."+sl.pool.ent.Name(), func() error {
			_, err := sl.pool.ent.Encode(rp.shadow[k])
			return err
		}); err != nil {
			return nil, hit, err
		}
	}
	rp.pulled[k], rp.stale[k] = true, false
	return data, hit, nil
}

// query repeats a QWIN on the mirrored plane.
func (rp *replica) query(r *reqTrace, slot int, from, to uint64) ([]byte, error) {
	pl := rp.planes[slot]
	if pl == nil {
		return nil, fmt.Errorf("no mirrored plane for slot %d", slot)
	}
	if r != nil {
		cov, err := pl.Cover(from, to)
		if err != nil {
			return nil, err
		}
		pieces := len(cov.Segments)
		if to == 0 || to >= pl.Epoch() {
			pieces++ // the live epoch
		}
		rp.st.qwins++
		rp.st.coverPieces += pieces
	}
	before := pl.Stats().CacheHits
	var frame []byte
	q, err := r.step(-1, "window.query_miss", func() (err error) {
		frame, err = pl.QueryEncoded(from, to)
		return err
	})
	if pl.Stats().CacheHits > before {
		r.rename(q, "window.query_hit")
	}
	return frame, err
}

// fanIn repeats a PULLC on node self: the peer reads run concurrently
// against the real peers (dial, then round-trip) while the local share
// is read from the replica, then the frames are reduced in peer-list
// order and encoded.
func (rp *replica) fanIn(r *reqTrace, self, slot int) ([]byte, error) {
	sl := rp.w.slots[slot]
	frames := make([][]byte, len(rp.w.addrs))
	errs := make([]error, len(rp.w.addrs))
	done := make(chan struct{})
	peers := 0
	for i, addr := range rp.w.addrs {
		if i == self {
			continue
		}
		peers++
		go func() {
			defer func() { done <- struct{}{} }()
			frames[i], errs[i] = peerRead(r, addr, sl.name)
		}()
	}
	frames[self], _, errs[self] = rp.encoded(r, self, slot)
	for range peers {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ent := sl.pool.ent
	var merged any
	red, err := r.step(-1, "cluster.reduce", func() (err error) {
		_, merged, err = cluster.Reduce(frames)
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []byte
	_, err = r.step(-1, "cluster.encode", func() (err error) {
		out, err = ent.Encode(merged)
		return err
	})
	ent.PutScratch(merged)
	if err != nil || r == nil {
		return out, err
	}
	// The reduce's decodes, probed one frame at a time.
	for _, f := range frames {
		v := ent.GetScratch()
		err := r.probe(red, "registry.decode."+ent.Name(), func() error { return ent.DecodeInto(v, f) })
		ent.PutScratch(v)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// peerRead is one peer's share of a replayed fan-in: a fresh dial and
// one PULL round-trip, as the server's fan-out does.
func peerRead(r *reqTrace, addr, slot string) ([]byte, error) {
	p := r.begin(-1, "fanout.peer")
	defer r.end(p)
	var c *server.Client
	if _, err := r.step(p, "fanout.dial", func() (err error) {
		c, err = server.DialTimeout(addr, server.DefaultPeerTimeout)
		return err
	}); err != nil {
		return nil, err
	}
	defer c.Close()
	var frame []byte
	_, err := r.step(p, "fanout.peer_rtt", func() error {
		if err := c.SetDeadline(time.Now().Add(server.DefaultPeerTimeout)); err != nil {
			return err
		}
		_, f, err := c.PullFrame(slot)
		frame = f
		return err
	})
	return frame, err
}

// advance turns the mirrored planes' epoch, timing each plane's
// Advance as a span when r is set.
func (rp *replica) advance(record bool) error {
	rp.epoch++
	slots := make([]int, 0, len(rp.planes))
	for s := range rp.planes {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	for _, s := range slots {
		start := time.Now()
		err := rp.planes[s].Advance()
		end := time.Now()
		if err != nil {
			return fmt.Errorf("advancing mirrored plane of slot %d: %w", s, err)
		}
		rp.st.advances++
		if record {
			rp.tr.add(span{parent: -1, name: "window.advance", start: start.Sub(rp.tr.origin), end: end.Sub(rp.tr.origin)})
		}
	}
	return nil
}

// replay issues o on cn, as the root span of a traced request when
// record is set, then repeats its steps on the replicas and checks the
// replayed answer against the served one.
func (rp *replica) replay(cn *conn, o op, record bool) error {
	var (
		r   *reqTrace
		rep reply
		err error
	)
	if record {
		r, err = rp.tr.request("server."+o.cmd.String(), func() (err error) {
			rep, err = cn.call(o)
			return err
		})
	} else {
		rep, err = cn.call(o)
	}
	if err != nil {
		return err
	}
	cn.settle(o)
	sl := rp.w.slots[o.slot]
	switch o.cmd {
	case cmdPush:
		err = rp.push(r, o.node, o.slot, sl.pool.frames[o.frames[0]].data)
	case cmdPushB:
		err = rp.pushBatch(r, o.node, o.slot, o.frames)
	case cmdPull:
		var data []byte
		var hit bool
		if data, hit, err = rp.encoded(r, o.node, o.slot); err == nil {
			if record {
				rp.st.pulls++
				if hit {
					rp.st.pullsSame++
				}
			}
			rp.compare(bytes.Equal(data, rep.frame), "PULL %s: replica frame differs from the served one", sl.name)
		}
	case cmdQwin:
		var data []byte
		if data, err = rp.query(r, o.slot, rep.from, rep.to); err == nil {
			got, want := rp.n(o.slot, data), rp.n(o.slot, rep.frame)
			rp.compare(got == want, "QWIN %s [%d,%d]: replica N=%d, served N=%d", sl.name, rep.from, rep.to, got, want)
		}
	case cmdPullC:
		if record {
			rp.st.pullcs++
			if rp.pcPulled[o.slot] && !rp.pcStale[o.slot] {
				rp.st.pullcsSame++
			}
		}
		rp.pcPulled[o.slot], rp.pcStale[o.slot] = true, false
		var data []byte
		if data, err = rp.fanIn(r, o.node, o.slot); err == nil {
			rp.compare(bytes.Equal(data, rep.frame), "PULLC %s: replayed reduce differs from the served one", sl.name)
		}
	}
	if err == nil && o.advance {
		err = rp.advance(record)
	}
	if err != nil {
		return fmt.Errorf("replaying %s %s: %w", o.cmd, sl.name, err)
	}
	if record {
		in, out := wireBytes(o, sl, rep)
		rp.st.ops++
		rp.st.bytesIn += in
		rp.st.bytesOut += out
	}
	return nil
}

// n decodes a frame of a slot's family and returns its weight (0 when
// it does not decode).
func (rp *replica) n(slot int, frame []byte) uint64 {
	ent := rp.w.slots[slot].pool.ent
	v, err := ent.Decode(frame)
	if err != nil {
		return 0
	}
	return ent.N(v)
}

// wireBytes is what an op sent to and received from the server, by the
// protocol's framing.
func wireBytes(o op, sl slotDef, rep reply) (in, out int) {
	kind := sl.pool.ent.Name()
	frameOut := func() int { return len(fmt.Sprintf("OK %s %d\n", rep.kind, len(rep.frame))) + len(rep.frame) }
	switch o.cmd {
	case cmdPush, cmdPushB:
		if o.cmd == cmdPush {
			in = len(fmt.Sprintf("PUSH %s %s\n", sl.name, kind))
		} else {
			in = len(fmt.Sprintf("PUSHB %s %s %d\n", sl.name, kind, len(o.frames)))
		}
		for _, fi := range o.frames {
			n := len(sl.pool.frames[fi].data)
			in += len(fmt.Sprintf("%d\n", n)) + n
		}
		out = len(fmt.Sprintf("OK %d\n", rep.n))
	case cmdPull:
		in, out = len(fmt.Sprintf("PULL %s\n", sl.name)), frameOut()
	case cmdPullC:
		in, out = len(fmt.Sprintf("PULLC %s\n", sl.name)), frameOut()
	case cmdQwin:
		in, out = len(fmt.Sprintf("QWIN %s %d %d\n", sl.name, rep.from, rep.to)), frameOut()
	}
	return in, out
}

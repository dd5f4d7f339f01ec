package main

import (
	"encoding"
	"fmt"
	"time"

	"repro/internal/server"
)

// recorder collects one connection's measurements.
type recorder struct {
	lat       [numCmds]samples // completion − due time, per command (open loop)
	seq       samples          // completion − due time, every command in issue order
	late      samples          // send − due time (open loop)
	attempted int
	failed    int
	firstErr  error
}

func (r *recorder) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.seq = append(r.seq, o.seq...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// qkey is one issued QWIN range of one slot.
type qkey struct {
	slot     int
	from, to uint64
}

// conn is one client connection driving its op sequence.
type conn struct {
	w      *world
	spec   connSpec
	c      *server.Client
	next   func() op
	pushed tallies
	// seen holds every QWIN range this connection issued, so ad-hoc
	// ranges can avoid all of them and never hit the answer cache.
	seen map[qkey]bool
	rec  recorder
}

func newConn(w *world, i int) (*conn, error) {
	spec := w.spec.conns[i]
	c, err := server.Dial(w.addrs[spec.node])
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", w.addrs[spec.node], err)
	}
	return &conn{
		w:      w,
		spec:   spec,
		c:      c,
		next:   spec.ops(w, connRNG(w.seed, i)),
		pushed: tallies{},
		seen:   map[qkey]bool{},
	}, nil
}

// qwinRange resolves a QWIN op at the current live epoch. An ad-hoc
// range that matches any range issued before is pushed further back,
// one alignment block at a time, until it is new.
func (cn *conn) qwinRange(o op) (uint64, uint64) {
	now := cn.w.epoch()
	q := o.q
	from, to := q.resolve(now)
	for q.adhoc && cn.seen[qkey{o.slot, from, to}] && q.back < prepopEpochs {
		q.back += granule(now - from)
		from, to = q.resolve(now)
	}
	cn.seen[qkey{o.slot, from, to}] = true
	return from, to
}

// reply is what a served command returned.
type reply struct {
	n        uint64 // PUSH, PUSHB: the slot's weight after the merge
	kind     string // reads: the reply frame's kind
	frame    []byte // reads: the reply frame
	from, to uint64 // QWIN: the range as issued
}

// call issues one op's request and returns the server's reply.
func (cn *conn) call(o op) (reply, error) {
	var r reply
	var err error
	sl := cn.w.slots[o.slot]
	switch o.cmd {
	case cmdPush:
		r.n, err = cn.c.Push(sl.name, sl.pool.ent.Name(), rawFrame(sl.pool.frames[o.frames[0]].data))
	case cmdPushB:
		batch := make([]encoding.BinaryMarshaler, len(o.frames))
		for i, fi := range o.frames {
			batch[i] = rawFrame(sl.pool.frames[fi].data)
		}
		r.n, err = cn.c.PushBatch(sl.name, sl.pool.ent.Name(), batch)
	case cmdPull:
		r.kind, r.frame, err = cn.c.PullFrame(sl.name)
	case cmdQwin:
		r.from, r.to = cn.qwinRange(o)
		r.kind, r.frame, err = cn.c.QueryWindowFrame(sl.name, r.from, r.to)
	case cmdPullC:
		r.kind, r.frame, err = cn.c.PullClusterFrame(sl.name)
	default:
		err = fmt.Errorf("unknown command %d", o.cmd)
	}
	return r, err
}

// settle records a successful op's pushes and turns the window epoch
// when the op asks for it.
func (cn *conn) settle(o op) {
	sl := cn.w.slots[o.slot]
	if o.cmd == cmdPush || o.cmd == cmdPushB {
		for _, fi := range o.frames {
			cn.pushed.add(key{o.node, o.slot}, sl.pool.frames[fi])
		}
	}
	if o.advance {
		cn.w.srvs[o.node].AdvanceWindows()
	}
}

// do issues one op and settles it.
func (cn *conn) do(o op) error {
	if _, err := cn.call(o); err != nil {
		return err
	}
	cn.settle(o)
	return nil
}

// overrun bounds how long an open loop keeps draining a backlog after
// its phase ended.
const overrun = 2 * time.Second

// openLoop issues the connection's ops on a fixed schedule starting at
// start: op i is due at start + i/rate. Each op is timed from its due
// time, so a stall is charged to every op queued behind it; how late
// the generator sent each op is recorded apart.
func (cn *conn) openLoop(start time.Time, dur time.Duration) {
	step := interval(cn.spec.rate)
	end, hardEnd := start.Add(dur), start.Add(dur+overrun)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * step)
		if !due.Before(end) || time.Now().After(hardEnd) {
			return
		}
		o := cn.next()
		sleepUntil(due)
		sent := time.Now()
		err := cn.do(o)
		done := time.Now()
		cn.rec.count(err)
		if err == nil {
			cn.rec.lat[o.cmd] = append(cn.rec.lat[o.cmd], done.Sub(due))
			cn.rec.seq = append(cn.rec.seq, done.Sub(due))
		}
		cn.rec.late = append(cn.rec.late, sent.Sub(due))
	}
}

// nextDue returns the connection whose next op comes first on the open
// loop's schedule (op i of a connection is due at i/rate), given how
// many ops each has issued, and when that op is due. Ties go to A.
func nextDue(conns [2]*conn, issued [2]int) (int, time.Duration) {
	var due [2]time.Duration
	for c, cn := range conns {
		due[c] = time.Duration(issued[c]) * interval(cn.spec.rate)
	}
	if due[1] < due[0] {
		return 1, due[1]
	}
	return 0, due[0]
}

// closedLoop issues both connections' ops back to back from one
// goroutine, in the order the open loop schedules them, so it runs the
// latency blocks' op mix whatever each op costs, and with no second
// client goroutine to schedule. It issues the ops due within sched,
// stops early at deadline, and returns how many completed.
func closedLoop(conns [2]*conn, sched time.Duration, deadline time.Time) int {
	var issued [2]int
	done := 0
	for time.Now().Before(deadline) {
		c, due := nextDue(conns, issued)
		if due >= sched {
			break
		}
		issued[c]++
		cn := conns[c]
		err := cn.do(cn.next())
		cn.rec.count(err)
		if err == nil {
			done++
		}
	}
	return done
}

// close ends the connection. Its error is dropped: the server side is
// torn down right after, and nothing read through it is pending.
func (cn *conn) close() { _ = cn.c.Close() }

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed step of a traced request.
type span struct {
	req    int // request id; spans of one request share it
	parent int // index of the parent span, -1 for a root
	name   string
	start  time.Duration // since the tracer's origin
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span of a run in memory.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	reqs   int
	// cursor is where the next probe under a span starts.
	cursor map[int]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cursor: map[int]time.Duration{}}
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// request times call as the root span of a new request and returns the
// request's recorder.
func (t *tracer) request(name string, call func() error) (*reqTrace, error) {
	start := time.Now()
	err := call()
	end := time.Now()
	t.mu.Lock()
	t.reqs++
	id := t.reqs
	t.mu.Unlock()
	root := t.add(span{req: id, parent: -1, name: name, start: start.Sub(t.origin), end: end.Sub(t.origin)})
	return &reqTrace{t: t, req: id, root: root, shift: start.Sub(time.Now())}, err
}

// reqTrace records the steps of one request. The root span is the wire
// call, timed against the real server. The steps are replayed after it
// on socket-free replicas (and, for fan-in, against the real peers), so
// their spans are shifted by a fixed offset to start where the root
// started: they sit inside the root the way the server's own steps did,
// and what the root has beyond them is the wire layer's self time.
//
// A nil *reqTrace records nothing; its steps just run.
type reqTrace struct {
	t     *tracer
	req   int
	root  int
	shift time.Duration // root start − replay start
}

func (r *reqTrace) at(t time.Time) time.Duration { return t.Sub(r.t.origin) + r.shift }

// begin opens a step span under parent (-1: under the root).
func (r *reqTrace) begin(parent int, name string) int {
	if r == nil {
		return -1
	}
	if parent < 0 {
		parent = r.root
	}
	now := r.at(time.Now())
	return r.t.add(span{req: r.req, parent: parent, name: name, start: now, end: now})
}

// end closes a step span opened by begin.
func (r *reqTrace) end(i int) {
	if r == nil {
		return
	}
	now := r.at(time.Now())
	r.t.mu.Lock()
	r.t.spans[i].end = now
	r.t.mu.Unlock()
}

// step times f as a step span under parent and returns the span.
func (r *reqTrace) step(parent int, name string, f func() error) (int, error) {
	i := r.begin(parent, name)
	err := f()
	r.end(i)
	return i, err
}

// rename sets a span's name once its outcome (a cache hit or miss) is
// known.
func (r *reqTrace) rename(i int, name string) {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	r.t.spans[i].name = name
	r.t.mu.Unlock()
}

// probe times f, a repeat in isolation of part of parent's work (the
// CRC check inside a decode, the merge inside an ingest), and records
// it as a child of parent laid end to end with parent's earlier
// probes from parent's start.
func (r *reqTrace) probe(parent int, name string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	if r == nil {
		return err
	}
	r.t.mu.Lock()
	at, ok := r.t.cursor[parent]
	if !ok {
		at = r.t.spans[parent].start
	}
	r.t.cursor[parent] = at + d
	r.t.mu.Unlock()
	r.t.add(span{req: r.req, parent: parent, name: name, start: at, end: at + d})
	return err
}

// selfTime is a span's duration minus the part of it that the union of
// its children's intervals covers. Children are clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// children groups span indexes by parent.
func (t *tracer) children() map[int][]span {
	out := map[int][]span{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// write stores the spans as tab-separated text: request, span index,
// parent index, name, start and end in nanoseconds since the origin.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

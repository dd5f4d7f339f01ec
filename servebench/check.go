package main

import (
	"bytes"
	"fmt"

	"repro/internal/mg"
)

// maxReported caps the failure messages a run prints.
const maxReported = 10

// checks counts the end-of-run correctness checks.
type checks struct {
	attempted int
	failed    int
	failures  []string
}

func (c *checks) run(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < maxReported {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// verify reads every slot back once the load has stopped and checks
// it against what the harness pushed:
//   - a slot's PULL N is the total weight pushed into it;
//   - on windowed nodes, QWIN [0,0] (all retained history) has the
//     same N as PULL;
//   - in peer mode, PULLC is byte-identical from every node and its N
//     is the sum over nodes;
//   - on mg slots, each of the heaviest Zipf items is estimated within
//     the Misra-Gries bound N/(k+1) of its exact count.
func verify(w *world, pushed tallies) *checks {
	ch := &checks{}
	for n, c := range w.setup {
		for s, sl := range w.slots {
			t := pushed[key{n, s}]
			if t == nil {
				continue
			}
			got, err := readN(c.PullFrame, sl)
			ch.run(err == nil && got.n == t.n, "node %d PULL %s: N=%d want %d (%v)", n, sl.name, got.n, t.n, err)
			if err != nil {
				continue
			}
			checkBound(ch, w, fmt.Sprintf("node %d PULL %s", n, sl.name), got, t)
			if w.spec.windowed {
				all, err := readN(func(name string) (string, []byte, error) {
					return c.QueryWindowFrame(name, 0, 0)
				}, sl)
				ch.run(err == nil && all.n == got.n, "node %d QWIN %s [0,0]: N=%d, PULL N=%d (%v)", n, sl.name, all.n, got.n, err)
			}
		}
	}
	if !w.spec.peers {
		return ch
	}
	for s, sl := range w.slots {
		want := &tally{}
		for n := range w.srvs {
			if t := pushed[key{n, s}]; t != nil {
				want.add(frame{n: t.n, top: t.top})
			}
		}
		var first []byte
		for n, c := range w.setup {
			got, err := readN(c.PullClusterFrame, sl)
			ch.run(err == nil && got.n == want.n, "node %d PULLC %s: N=%d want %d (%v)", n, sl.name, got.n, want.n, err)
			if err != nil {
				continue
			}
			if first == nil {
				first = got.frame
				checkBound(ch, w, "PULLC "+sl.name, got, want)
				continue
			}
			ch.run(bytes.Equal(first, got.frame), "PULLC %s: node %d's frame differs from node 0's", sl.name, n)
		}
	}
	return ch
}

// readback is one decoded read of a slot.
type readback struct {
	frame []byte
	value any
	n     uint64
}

// readN issues one frame read of a slot and decodes the reply and its N.
func readN(read func(string) (string, []byte, error), sl slotDef) (readback, error) {
	kind, data, err := read(sl.name)
	if err != nil {
		return readback{}, err
	}
	if kind != sl.pool.ent.Name() {
		return readback{}, fmt.Errorf("reply kind %q, want %q", kind, sl.pool.ent.Name())
	}
	v, err := sl.pool.ent.Decode(data)
	if err != nil {
		return readback{}, err
	}
	return readback{frame: data, value: v, n: sl.pool.ent.N(v)}, nil
}

// checkBound checks the Misra-Gries guarantee on the heaviest items:
// |estimate − exact| <= N/(k+1).
func checkBound(ch *checks, w *world, what string, got readback, want *tally) {
	s, ok := got.value.(*mg.Summary)
	if !ok || want.top == nil {
		return
	}
	bound := float64(s.N()) / float64(s.K()+1)
	for i, item := range w.in.top {
		est := s.Estimate(item).Value
		exact := want.top[i]
		diff := float64(exact) - float64(est)
		ch.run(diff <= bound && -diff <= bound, "%s: item of rank %d estimated %d, exact %d, bound %.1f", what, i+1, est, exact, bound)
	}
}

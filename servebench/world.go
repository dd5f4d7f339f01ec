package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/window"
)

// slotDef is one named slot and the family pool its frames come from.
type slotDef struct {
	name string
	pool *pool
}

// key names one slot on one node.
type key struct{ node, slot int }

// tally is what the harness pushed into one slot of one node: the total
// weight and, for mg slots, the exact count of each top item.
type tally struct {
	n   uint64
	top []uint64
}

func (t *tally) add(f frame) {
	t.n += f.n
	if f.top != nil && t.top == nil {
		t.top = make([]uint64, len(f.top))
	}
	for i, c := range f.top {
		t.top[i] += c
	}
}

// tallies maps slots to what was pushed into them.
type tallies map[key]*tally

func (ts tallies) add(k key, f frame) {
	t := ts[k]
	if t == nil {
		t = &tally{}
		ts[k] = t
	}
	t.add(f)
}

func (ts tallies) merge(other tallies) {
	for k, o := range other {
		ts.add(k, frame{n: o.n, top: o.top})
	}
}

// world is one booted instance of a workload: its inputs, its servers
// and the harness's record of what it pushed.
type world struct {
	spec  *workload
	seed  uint64
	in    *inputs
	slots []slotDef
	srvs  []*server.Server
	addrs []string
	// setup is the connection setup pushes go through, one per node.
	setup []*server.Client
	// pushed records setup pushes; connections keep their own tallies
	// and merge them in after the run.
	pushed tallies
	// advanceEvery is the number of writer pushes between epoch turns
	// on windowed workloads.
	advanceEvery int
	// mirror, when set, is told about every setup push and epoch turn
	// so a traced run's replicas start from the same state.
	mirror *replica

	serveWg   sync.WaitGroup
	serveMu   sync.Mutex
	serveErrs []error
}

// boot generates the inputs, starts the workload's servers on loopback
// and opens one setup connection per node.
func boot(spec *workload, seed uint64, seconds float64) (*world, error) {
	in, err := newInputs(seed)
	if err != nil {
		return nil, err
	}
	w := &world{spec: spec, seed: seed, in: in, pushed: tallies{}}
	kinds := make([]string, 0, len(spec.slots))
	for kind := range spec.slots {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		for i := 0; i < spec.slots[kind]; i++ {
			w.slots = append(w.slots, slotDef{name: fmt.Sprintf("%s-%02d", kind, i), pool: in.pools[kind]})
		}
	}
	// An epoch is a whole number of rounds over the slots: at least
	// epochRounds, and enough that the writer's pushes over the whole
	// run (the capacity blocks issue capacityWork times their share)
	// turn at most (maxEpochs-prepopEpochs)/2 epochs.
	writes := spec.conns[1].rate*seconds*capacityWork + warmupOps
	rounds := int(writes/float64(len(w.slots)*(maxEpochs-prepopEpochs)/2)) + 1
	w.advanceEvery = len(w.slots) * max(rounds, epochRounds)

	for n := 0; n < spec.nodes; n++ {
		s := server.New()
		if spec.windowed {
			s.SetWindow(window.DefaultLadder(), 0)
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		w.srvs = append(w.srvs, s)
		w.addrs = append(w.addrs, addr)
	}
	if spec.peers {
		for i, s := range w.srvs {
			s.SetPeers(w.addrs[i], w.addrs, 0, -1)
		}
	}
	for _, s := range w.srvs {
		w.serveWg.Add(1)
		go func() {
			defer w.serveWg.Done()
			if err := s.Serve(); err != nil {
				w.serveMu.Lock()
				w.serveErrs = append(w.serveErrs, err)
				w.serveMu.Unlock()
			}
		}()
	}
	for _, addr := range w.addrs {
		c, err := server.Dial(addr)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		w.setup = append(w.setup, c)
	}
	return w, nil
}

// setupPush pushes one pool frame into a slot during setup.
func (w *world) setupPush(node, slot, frameIdx int) error {
	sl := w.slots[slot]
	f := sl.pool.frames[frameIdx]
	if _, err := w.setup[node].Push(sl.name, sl.pool.ent.Name(), rawFrame(f.data)); err != nil {
		return fmt.Errorf("setup push %s on node %d: %w", sl.name, node, err)
	}
	w.pushed.add(key{node, slot}, f)
	if w.mirror != nil {
		if err := w.mirror.push(nil, node, slot, f.data); err != nil {
			return err
		}
	}
	return nil
}

// advance turns every window epoch of a node.
func (w *world) advance(node int) error {
	w.srvs[node].AdvanceWindows()
	if w.mirror != nil {
		return w.mirror.advance(false)
	}
	return nil
}

// epoch is the live window epoch of node 0.
func (w *world) epoch() uint64 { return w.srvs[0].Epoch() }

// close stops every server and waits for their serve loops to return.
// Client connections must be closed first: a server's Close waits for
// its connection handlers.
func (w *world) close() error {
	for _, c := range w.setup {
		c.Close()
	}
	w.setup = nil
	for _, s := range w.srvs {
		s.Close()
	}
	done := make(chan struct{})
	go func() {
		w.serveWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		return errors.New("servers did not stop within 10s")
	}
	if w.mirror != nil {
		w.mirror.close()
	}
	w.serveMu.Lock()
	defer w.serveMu.Unlock()
	return errors.Join(w.serveErrs...)
}

// connRNG derives connection i's op-sequence generator from the seed.
func connRNG(seed uint64, i int) *gen.RNG {
	return gen.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9)
}

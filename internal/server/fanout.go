package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/window"
)

// DefaultPeerTimeout bounds one peer read attempt (dial + request + reply)
// during a cluster fan-in when SetPeers is given no explicit timeout.
const DefaultPeerTimeout = 2 * time.Second

// maxIdlePeerConns caps the idle connections a node keeps to each
// peer; a connection returned to a full pool is closed.
const maxIdlePeerConns = 4

// maxMemoEntries and maxMemoBytes bound the fan-in reduce memo; on
// overflow it is cleared wholesale, as the window plane's answer cache
// is, so the slot names and ranges clients ask for cannot grow memory.
const (
	maxMemoEntries = 128
	maxMemoBytes   = 4 << 20
)

// SetPeers enables coordinator-less peer mode: peers is the full
// cluster member list (every node's listen address, this one
// included) and self names this node's own entry, which is answered
// from local state instead of a network round-trip. With peers set,
// the PULLC and QWINC commands answer cluster-wide queries by fanning
// the corresponding single-node read out to every peer concurrently
// and reducing the snapshots through cluster.ReduceEncoded — any node
// can be asked, and every node computes the same answer because the
// reduction order is the shared peer list. timeout bounds each peer
// read attempt (<= 0 selects DefaultPeerTimeout); retries is the
// number of further attempts after a failed one (< 0 selects 1).
// Call before Serve.
//
// Peer connections persist: each node keeps up to maxIdlePeerConns
// idle connections per peer and reuses them across fan-ins (see
// readPeer); Close and Shutdown close them. The reduce step is
// memoized per query on its exact input bytes (see reduceMemo).
//
// Peer-mode queries never recurse: the fan-out sends single-node
// PULL/QWIN, so a cycle in the peer list costs nothing.
func (s *Server) SetPeers(self string, peers []string, timeout time.Duration, retries int) {
	s.peers = append([]string(nil), peers...)
	s.self = self
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	if retries < 0 {
		retries = 1
	}
	s.peerTimeout = timeout
	s.peerRetries = retries
}

// Peers returns the configured cluster member list (nil outside peer
// mode). The slice is shared; callers must not mutate it.
func (s *Server) Peers() []string { return s.peers }

// peerResult is one peer's contribution to a fan-in: its frame (nil
// when the peer holds nothing for the query) or its terminal error.
type peerResult struct {
	addr  string
	frame []byte
	err   error
}

// countingConn counts the bytes read from a peer connection since its
// last use began.
type countingConn struct {
	net.Conn
	n int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += n
	return n, err
}

// peerConn is one connection to a peer, pooled between fan-ins.
type peerConn struct {
	*Client
	raw *countingConn
}

func dialPeer(addr string, deadline time.Time) (*peerConn, error) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	raw := &countingConn{Conn: conn}
	return &peerConn{Client: newClient(raw), raw: raw}, nil
}

// read runs one peer request under deadline.
func (pc *peerConn) read(deadline time.Time, op func(*Client) ([]byte, error)) ([]byte, error) {
	pc.raw.n = 0
	pc.SetDeadline(deadline)
	return op(pc.Client)
}

// stale reports whether err, from a reused connection, means the peer
// closed the connection while it sat idle (it restarted or dropped
// it): EOF, reset or broken pipe before a single reply byte arrived.
// A timeout is never stale — a hung peer is a failed attempt.
func (pc *peerConn) stale(err error) bool {
	return pc.raw.n == 0 && (errors.Is(err, io.EOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE))
}

// peerPool holds idle peer connections, at most maxIdlePeerConns per
// address, most recently returned first.
type peerPool struct {
	mu     sync.Mutex
	idle   map[string][]*peerConn
	closed bool
}

func (p *peerPool) get(addr string) *peerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[addr]
	if len(list) == 0 {
		return nil
	}
	pc := list[len(list)-1]
	list[len(list)-1] = nil
	p.idle[addr] = list[:len(list)-1]
	return pc
}

// put returns a healthy connection, its deadline cleared, or closes it
// when the pool is full or closed, or when the peer sent bytes past its
// reply (the stream is out of step).
func (p *peerPool) put(addr string, pc *peerConn) {
	pc.SetDeadline(time.Time{})
	inStep := pc.r.Buffered() == 0
	p.mu.Lock()
	keep := inStep && !p.closed && len(p.idle[addr]) < maxIdlePeerConns
	if keep {
		if p.idle == nil {
			p.idle = make(map[string][]*peerConn)
		}
		p.idle[addr] = append(p.idle[addr], pc)
	}
	p.mu.Unlock()
	if !keep {
		pc.Close()
	}
}

// drop closes addr's idle connections.
func (p *peerPool) drop(addr string) {
	p.mu.Lock()
	list := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	for _, pc := range list {
		pc.Close()
	}
}

// close closes every idle connection; connections returned later are
// closed on return.
func (p *peerPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, list := range idle {
		for _, pc := range list {
			pc.Close()
		}
	}
}

// readPeer performs one peer read with the configured timeout and
// retry budget. Each attempt has its own peerTimeout deadline over the
// whole round-trip (dial included), so a hung peer costs at most
// (retries+1)·timeout. An attempt takes the most recently pooled
// connection to the peer, or dials a fresh one when none is idle.
// After a successful or no-data read the connection goes back to the
// pool with its deadline cleared; after any other error it is closed.
//
// A pooled connection can go stale: the peer restarted or closed it.
// If a reused connection fails with EOF, reset or broken pipe before
// any reply byte arrives, the attempt redials once within its own
// deadline — not a retry, and at most once per read — and the peer's
// other idle connections are dropped with it. A timeout on a reused
// connection is an ordinary failed attempt. A no-data reply (missing
// or empty slot, nothing summarized in range) is a success
// contributing nothing — that is what lets a star fan-in span nodes
// that never saw the slot.
func (s *Server) readPeer(addr string, op func(*Client) ([]byte, error)) peerResult {
	var lastErr error
	redialed := false
	for attempt := 0; attempt <= s.peerRetries; attempt++ {
		if attempt > 0 {
			s.fanRetries.Add(1)
		}
		deadline := time.Now().Add(s.peerTimeout)
		if pc := s.pool.get(addr); pc != nil {
			s.peerReused.Add(1)
			frame, err := pc.read(deadline, op)
			if err == nil || IsNoData(err) {
				return s.peerDone(addr, pc, frame)
			}
			pc.raw.Close()
			if redialed || !pc.stale(err) {
				lastErr = err
				continue
			}
			redialed = true
			s.peerStaleRedials.Add(1)
			s.pool.drop(addr)
		}
		pc, err := dialPeer(addr, deadline)
		if err != nil {
			lastErr = err
			continue
		}
		s.peerDials.Add(1)
		frame, err := pc.read(deadline, op)
		if err == nil || IsNoData(err) {
			return s.peerDone(addr, pc, frame)
		}
		pc.raw.Close()
		lastErr = err
	}
	s.fanPeerErr.Add(1)
	return peerResult{addr: addr, err: lastErr}
}

// peerDone records a successful peer read and pools its connection.
func (s *Server) peerDone(addr string, pc *peerConn, frame []byte) peerResult {
	s.fanPeerOK.Add(1)
	s.pool.put(addr, pc)
	return peerResult{addr: addr, frame: frame}
}

// fanIn runs a cluster-wide read: local answers this node's share and
// op reads one peer's. Results keep peer-list order — the reduction
// order every node shares — and failures are returned separately.
func (s *Server) fanIn(local func() ([]byte, error), op func(*Client) ([]byte, error)) (frames [][]byte, failed []peerResult) {
	s.fanouts.Add(1)
	results := make([]peerResult, len(s.peers))
	var wg sync.WaitGroup
	for i, addr := range s.peers {
		if addr == s.self {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i] = s.readPeer(addr, op)
		}(i, addr)
	}
	// The local share runs on this goroutine while the peers are in
	// flight. Local no-data mirrors the peer classification.
	selfAt := -1
	for i, addr := range s.peers {
		if addr == s.self {
			selfAt = i
			frame, err := local()
			switch {
			case err == nil:
				results[i] = peerResult{addr: addr, frame: frame}
			case isLocalNoData(err):
				results[i] = peerResult{addr: addr}
			default:
				s.fanPeerErr.Add(1)
				results[i] = peerResult{addr: addr, err: err}
			}
			break
		}
	}
	wg.Wait()
	if selfAt >= 0 {
		// Count the local share as a peer read so METRICS adds up.
		if results[selfAt].err == nil {
			s.fanPeerOK.Add(1)
		}
	}
	for _, r := range results {
		if r.addr == "" {
			continue // self not in peer list and loop skipped it
		}
		if r.err != nil {
			failed = append(failed, r)
			continue
		}
		if r.frame != nil {
			frames = append(frames, r.frame)
		}
	}
	return frames, failed
}

// isLocalNoData classifies a local read error the way IsNoData
// classifies a remote one: a slot this node never saw, a slot with
// nothing in it, or a window range nothing was sealed into all mean
// "this node contributes nothing".
func isLocalNoData(err error) bool {
	return errors.Is(err, errNoSlot) || errors.Is(err, errSlotEmpty) ||
		errors.Is(err, window.ErrNothingSummarized)
}

// reduceMemo remembers, per fan-in query, the last input frame list
// and the reply cluster.ReduceEncoded made of it. ReduceEncoded is a
// deterministic function of the ordered frames, so when a query's new
// inputs are byte-equal to the stored ones, in the same order, the
// stored reply is exactly what a fresh reduce would return. The key
// only finds the entry; a hit is decided on the bytes. Every stored
// input was checked by the reduce that produced the entry.
type reduceMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	bytes   int

	hits, misses atomic.Uint64
}

// memoEntry is immutable once stored.
type memoEntry struct {
	inputs [][]byte
	kind   string
	out    []byte
	size   int
}

// reduce answers frames (collected for the query key) from the memo
// or from a fresh cluster.ReduceEncoded, which it then remembers.
func (m *reduceMemo) reduce(key string, frames [][]byte) (string, []byte, error) {
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e != nil && slices.EqualFunc(e.inputs, frames, bytes.Equal) {
		m.hits.Add(1)
		return e.kind, e.out, nil
	}
	m.misses.Add(1)
	kind, out, err := cluster.ReduceEncoded(frames)
	if err != nil {
		return "", nil, err
	}
	e = &memoEntry{inputs: frames, kind: kind, out: out, size: len(key) + len(out)}
	for _, f := range frames {
		e.size += len(f)
	}
	m.store(key, e)
	return kind, out, nil
}

func (m *reduceMemo) store(key string, e *memoEntry) {
	if e.size > maxMemoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.entries[key]; old != nil {
		m.bytes -= old.size
		delete(m.entries, key)
	}
	if len(m.entries) >= maxMemoEntries || m.bytes+e.size > maxMemoBytes {
		clear(m.entries)
		m.bytes = 0
	}
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry)
	}
	m.entries[key] = e
	m.bytes += e.size
}

// describeFailures renders the failed-peer list for a partial-result
// error reply, deterministically ordered by address.
func describeFailures(failed []peerResult) string {
	sort.Slice(failed, func(i, j int) bool { return failed[i].addr < failed[j].addr })
	parts := make([]string, len(failed))
	for i, f := range failed {
		parts[i] = fmt.Sprintf("peer %s: %v", f.addr, f.err)
	}
	return strings.Join(parts, "; ")
}

// replyFanIn reduces the collected frames and writes the PULL-shaped
// reply, or the partial-result error when any peer failed: the
// cluster never silently serves an answer missing a reachable-peer's
// share, and never hangs — a dead peer costs at most the retry budget.
// key names the query (command and arguments) in the reduce memo,
// which only a fan-in with no failed peer consults.
func (s *Server) replyFanIn(key, slot string, frames [][]byte, failed []peerResult, w *bufio.Writer) {
	if len(failed) > 0 {
		ok := len(s.peers) - len(failed)
		fmt.Fprintf(w, "ERR partial result (%d/%d peers ok): %s\n", ok, len(s.peers), describeFailures(failed))
		return
	}
	if len(frames) == 0 {
		fmt.Fprintf(w, "ERR no such slot %q\n", slot)
		return
	}
	kind, data, err := s.memo.reduce(key, frames)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "OK %s %d\n", kind, len(data))
	w.Write(data)
}

// cmdPullCluster handles PULLC <slot>: the cluster-wide merged
// summary, reduced from every peer's PULL snapshot plus this node's
// own state. Outside peer mode it degrades to a plain PULL — a
// cluster of one.
func (s *Server) cmdPullCluster(fields []string, w *bufio.Writer) {
	if len(fields) != 2 {
		fmt.Fprintf(w, "ERR usage: PULLC <slot>\n")
		return
	}
	if len(s.peers) == 0 {
		s.cmdPull(fields, w)
		return
	}
	slot := fields[1]
	frames, failed := s.fanIn(
		func() ([]byte, error) {
			_, data, err := s.Encoded(slot)
			return data, err
		},
		func(c *Client) ([]byte, error) {
			_, data, err := c.PullFrame(slot)
			return data, err
		},
	)
	s.replyFanIn("PULLC "+slot, slot, frames, failed, w)
}

// cmdQueryWindowCluster handles QWINC <slot> <from> <to>: the
// cluster-wide merged summary of the epoch range, reduced from every
// peer's QWIN answer plus this node's own plane. Nodes advance epochs
// on the same tick (or the operator's AdvanceWindows cadence), so a
// range means the same wall-clock span on every peer.
func (s *Server) cmdQueryWindowCluster(fields []string, w *bufio.Writer) {
	if len(fields) != 4 {
		fmt.Fprintf(w, "ERR usage: QWINC <slot> <from> <to>\n")
		return
	}
	if len(s.peers) == 0 {
		s.cmdQueryWindow(fields, w)
		return
	}
	slot := fields[1]
	from, err1 := strconv.ParseUint(fields[2], 10, 64)
	to, err2 := strconv.ParseUint(fields[3], 10, 64)
	if err1 != nil || err2 != nil {
		fmt.Fprintf(w, "ERR bad epoch range %q %q\n", fields[2], fields[3])
		return
	}
	frames, failed := s.fanIn(
		func() ([]byte, error) {
			_, data, err := s.WindowEncoded(slot, from, to)
			return data, err
		},
		func(c *Client) ([]byte, error) {
			_, data, err := c.QueryWindowFrame(slot, from, to)
			return data, err
		},
	)
	s.replyFanIn(fmt.Sprintf("QWINC %s %d %d", slot, from, to), slot, frames, failed, w)
}

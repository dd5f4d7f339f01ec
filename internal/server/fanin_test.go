package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/window"
)

// startWindowedPeerCluster is startPeerCluster with every node in
// windowed mode (epochs advance only when a test says so).
func startWindowedPeerCluster(t *testing.T, n int) ([]string, []*Server, func()) {
	t.Helper()
	return startPeerClusterWith(t, n, 2*time.Second, 1, func(s *Server) {
		s.SetWindow(window.Ladder{Fan: 4, Levels: 2}, 0)
	})
}

// dialAll opens one client per address, closed at test end.
func dialAll(t *testing.T, addrs []string) []*Client {
	t.Helper()
	conns := make([]*Client, len(addrs))
	for i, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	return conns
}

// decodedN decodes an mg reply frame and returns its total weight.
func decodedN(t *testing.T, frame []byte) uint64 {
	t.Helper()
	var got mg.Summary
	if err := got.UnmarshalBinary(frame); err != nil {
		t.Fatalf("decoding fan-in reply: %v", err)
	}
	return got.N()
}

// TestPeerRestartStaleRedial: a peer that restarts on the same address
// leaves the asking node's pooled connection stale. With no retry
// budget at all, the next PULLC still succeeds — the stale connection
// is redialed once for free — and the redial is not counted as a retry.
func TestPeerRestartStaleRedial(t *testing.T) {
	s0, s1 := New(), New()
	addr0, err := s0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{addr0, addr1}
	s0.SetPeers(addr0, peers, 2*time.Second, 0)
	s1.SetPeers(addr1, peers, 2*time.Second, 0)
	done0, done1 := make(chan error, 1), make(chan error, 1)
	go func() { done0 <- s0.Serve() }()
	go func() { done1 <- s1.Serve() }()
	defer func() {
		s0.Close()
		if err := <-done0; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	pushMG(t, c1, "rs", 1, 5)
	c1.Close()
	c0, err := Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if _, f, err := c0.PullClusterFrame("rs"); err != nil || decodedN(t, f) != 5 {
		t.Fatalf("PULLC before restart: err=%v", err)
	}

	// Restart node 1 on the same address. Its Close shuts the idle
	// connection node 0 pooled; Serve returns once that handler exits.
	s1.Close()
	if err := <-done1; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	s1 = New()
	if _, err := s1.Listen(addr1); err != nil {
		t.Fatalf("re-listen on %s: %v", addr1, err)
	}
	s1.SetPeers(addr1, peers, 2*time.Second, 0)
	go func() { done1 <- s1.Serve() }()
	defer func() {
		s1.Close()
		if err := <-done1; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c1, err = Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	pushMG(t, c1, "rs", 2, 7)
	c1.Close()

	_, f, err := c0.PullClusterFrame("rs")
	if err != nil {
		t.Fatalf("PULLC after peer restart: %v", err)
	}
	if n := decodedN(t, f); n != 7 {
		t.Fatalf("PULLC after restart N = %d, want the restarted peer's 7", n)
	}
	m, err := c0.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"peer.retries": 0, "peer.errors": 0, "peer.stale_redials": 1,
		"peer.dials": 2, "peer.reused": 1,
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %d, want %d", name, m[name], v)
		}
	}
}

// TestFanInMemoInvalidation: a repeated fan-in over unchanged peers is
// served from the reduce memo, and any change on a remote peer or on
// the asking node itself is seen by the next query — whose reply is
// byte-equal to cluster.ReduceEncoded over that moment's frames.
func TestFanInMemoInvalidation(t *testing.T) {
	addrs, _, stop := startWindowedPeerCluster(t, 3)
	defer stop()
	conns := dialAll(t, addrs)
	for i, c := range conns {
		pushMG(t, c, "mi", uint64(i), 10)
	}

	queries := []struct {
		name    string
		cluster func(c *Client) ([]byte, error)
		node    func(c *Client) ([]byte, error)
	}{
		{"PULLC",
			func(c *Client) ([]byte, error) { _, f, err := c.PullClusterFrame("mi"); return f, err },
			func(c *Client) ([]byte, error) { _, f, err := c.PullFrame("mi"); return f, err }},
		{"QWINC",
			func(c *Client) ([]byte, error) { _, f, err := c.QueryWindowClusterFrame("mi", 0, 0); return f, err },
			func(c *Client) ([]byte, error) { _, f, err := c.QueryWindowFrame("mi", 0, 0); return f, err }},
	}
	wantN := uint64(30)
	for _, q := range queries {
		// check asks node 1 and compares with a fresh reduce of every
		// node's single-node answer, in peer-list order.
		check := func(step string) []byte {
			t.Helper()
			var frames [][]byte
			for _, c := range conns {
				f, err := q.node(c)
				if err != nil {
					t.Fatalf("%s %s: node read: %v", q.name, step, err)
				}
				frames = append(frames, f)
			}
			_, want, err := cluster.ReduceEncoded(frames)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.cluster(conns[1])
			if err != nil {
				t.Fatalf("%s %s: %v", q.name, step, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: reply differs from a fresh reduce (%d vs %d bytes)", q.name, step, len(got), len(want))
			}
			if n := decodedN(t, got); n != wantN {
				t.Fatalf("%s %s: N = %d, want %d", q.name, step, n, wantN)
			}
			return got
		}
		memo := func() (hits, misses uint64) {
			t.Helper()
			m, err := conns[1].Metrics()
			if err != nil {
				t.Fatal(err)
			}
			return m["fanin.memo_hits"], m["fanin.memo_misses"]
		}

		first := check("first")
		h0, m0 := memo()
		if !bytes.Equal(check("repeat"), first) {
			t.Fatalf("%s: repeat over unchanged peers changed the reply", q.name)
		}
		if h, m := memo(); h != h0+1 || m != m0 {
			t.Fatalf("%s: repeat was not a memo hit (hits %d→%d, misses %d→%d)", q.name, h0, h, m0, m)
		}

		pushMG(t, conns[2], "mi", 7, 5) // a remote peer of node 1
		wantN += 5
		check("after remote push")
		pushMG(t, conns[1], "mi", 8, 4) // node 1's own share
		wantN += 4
		check("after local push")
		if h, m := memo(); h != h0+1 || m != m0+2 {
			t.Fatalf("%s: changed inputs served from the memo (hits %d→%d, misses %d→%d)", q.name, h0, h, m0, m)
		}
	}
}

// TestFanInConcurrentPoolAndMemo: concurrent PULLC and QWINC through
// every node share each node's peer pool and reduce memo while a
// writer keeps changing the inputs. Run under -race.
func TestFanInConcurrentPoolAndMemo(t *testing.T) {
	addrs, _, stop := startWindowedPeerCluster(t, 3)
	defer stop()
	conns := dialAll(t, addrs)
	for i, c := range conns {
		pushMG(t, c, "cc", uint64(i), 1)
	}

	const readers, rounds, pushes = 8, 30, 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(addrs[0])
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for i := 0; i < pushes; i++ {
			s := mg.New(16)
			s.Update(core.Item(i%5), 1)
			if _, err := c.Push("cc", "mg", s); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := Dial(addrs[r%len(addrs)])
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				var f []byte
				if (r+i)%2 == 0 {
					_, f, err = c.PullClusterFrame("cc")
				} else {
					_, f, err = c.QueryWindowClusterFrame("cc", 0, 0)
				}
				if err != nil {
					t.Errorf("reader %d round %d: %v", r, i, err)
					return
				}
				var got mg.Summary
				if err := got.UnmarshalBinary(f); err != nil || got.N() < 3 || got.N() > 3+pushes {
					t.Errorf("reader %d round %d: bad reply (N=%d, err=%v)", r, i, got.N(), err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiet now: every node answers the same full total.
	var first []byte
	for i, c := range conns {
		_, f, err := c.PullClusterFrame("cc")
		if err != nil {
			t.Fatal(err)
		}
		if n := decodedN(t, f); n != 3+pushes {
			t.Fatalf("node %d: final N = %d, want %d", i, n, 3+pushes)
		}
		if first == nil {
			first = f
		} else if !bytes.Equal(f, first) {
			t.Fatalf("node %d's final PULLC differs from node 0's", i)
		}
	}
}

// TestShutdownPeerDrain: the idle connections other nodes pooled to a
// node do not hold its graceful drain open for the grace period, the
// drained node keeps the acknowledged state, and the next fan-in
// through a survivor reports the drained peer in bounded time.
func TestShutdownPeerDrain(t *testing.T) {
	addrs, servers, stop := startPeerCluster(t, 3, 500*time.Millisecond, 1)
	defer stop()
	conns := dialAll(t, addrs)
	for i, c := range conns {
		pushMG(t, c, "pd", uint64(i), 3)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := conns[1].PullClusterFrame("pd"); err != nil {
			t.Fatal(err)
		}
	}
	m, err := conns[1].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["peer.reused"] == 0 {
		t.Fatalf("no pooled connection was reused: %v", m)
	}
	_, pre, err := conns[0].PullFrame("pd")
	if err != nil {
		t.Fatal(err)
	}
	conns[0].Close()

	const grace = 5 * time.Second
	start := time.Now()
	servers[0].Shutdown(grace)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Shutdown(%v) took %v: pooled idle peer connections held the drain open", grace, took)
	}
	if _, post, err := servers[0].Encoded("pd"); err != nil || !bytes.Equal(post, pre) {
		t.Fatalf("drained node's final PULL differs from its pre-shutdown state (err=%v)", err)
	}

	start = time.Now()
	_, _, err = conns[1].PullClusterFrame("pd")
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "partial result") || !strings.Contains(re.Msg, addrs[0]) {
		t.Fatalf("PULLC after a peer drained: want a partial result naming %s, got %v", addrs[0], err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("PULLC over a drained peer took %v", took)
	}
}

// corruptPeer answers every PULL with a CRC-broken mg frame: the
// header and length are intact, one payload byte is flipped.
func corruptPeer(t *testing.T) (string, func()) {
	t.Helper()
	s := mg.New(16)
	s.Update(3, 9)
	frame, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-5] ^= 0x40
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil || !strings.HasPrefix(line, "PULL ") {
						return
					}
					fmt.Fprintf(conn, "OK mg %d\n%s", len(frame), frame)
				}
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// TestClusterCorruptPeerFrame: a peer relaying a CRC-corrupt frame
// while every other node holds nothing must not turn into an OK answer
// through the one-frame shortcut, and the memo must never keep it.
func TestClusterCorruptPeerFrame(t *testing.T) {
	badAddr, stopBad := corruptPeer(t)
	defer stopBad()
	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetPeers(addr, []string{addr, badAddr}, time.Second, 0)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	defer func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		_, _, err := c.PullClusterFrame("cs")
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("PULLC over a corrupt peer frame: want ERR, got %v", err)
		}
		if strings.Contains(re.Msg, "partial result") {
			t.Fatalf("corrupt frame reported as a peer failure: %q", re.Msg)
		}
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["fanin.memo_hits"] != 0 || m["fanin.memo_misses"] != 2 {
		t.Fatalf("memo served a corrupt input: hits=%d misses=%d", m["fanin.memo_hits"], m["fanin.memo_misses"])
	}
}

// TestFanInLocalNoDataTyped: a node's own empty window range is
// classified by the typed sentinel, so it contributes nothing to a
// QWINC instead of failing it.
func TestFanInLocalNoDataTyped(t *testing.T) {
	addrs, servers, stop := startWindowedPeerCluster(t, 2)
	defer stop()
	conns := dialAll(t, addrs)
	pushMG(t, conns[0], "nd", 1, 6)
	pushMG(t, conns[1], "nd", 2, 4)
	servers[0].AdvanceWindows()
	servers[1].AdvanceWindows()
	pushMG(t, conns[0], "nd", 3, 2) // epoch 2 holds data on node 0 only

	_, _, err := servers[1].WindowEncoded("nd", 2, 2)
	if !errors.Is(err, window.ErrNothingSummarized) || !isLocalNoData(err) {
		t.Fatalf("node 1's empty range: got %v, want window.ErrNothingSummarized", err)
	}
	_, f, err := conns[1].QueryWindowClusterFrame("nd", 2, 2)
	if err != nil {
		t.Fatalf("QWINC over a range only node 0 holds: %v", err)
	}
	if n := decodedN(t, f); n != 2 {
		t.Fatalf("QWINC N = %d, want 2", n)
	}
}

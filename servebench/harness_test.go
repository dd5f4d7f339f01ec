package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/registry"
	"repro/internal/window"
)

func ms(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := samples(nil).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// A stall confined to one chunk moves that chunk's p99 but not the
// reported tail; a set under two chunks reports its plain quantile.
func TestTailIgnoresOneStalledChunk(t *testing.T) {
	s := make(samples, 3*tailChunk)
	for i := range s {
		s[i] = time.Duration(i%100) * time.Microsecond
	}
	calm := s.tail(0.99)
	for i := tailChunk; i < tailChunk+50; i++ {
		s[i] = time.Second
	}
	if got := s.tail(0.99); got != calm {
		t.Errorf("tail after one stalled chunk = %v, want %v", got, calm)
	}
	if got, want := s.quantile(0.99), time.Second; got != want {
		t.Errorf("plain p99 = %v, want the stall %v", got, want)
	}
	short := s[:tailChunk+10]
	if got, want := short.tail(0.99), short.quantile(0.99); got != want {
		t.Errorf("short tail = %v, want plain quantile %v", got, want)
	}
}

// The calm p50 is the lower quartile of chunk medians: bursts in a
// minority of chunks do not move it, a shift of every chunk does.
func TestCalmSkipsBurstsButFollowsShifts(t *testing.T) {
	s := make(samples, 8*calmChunk)
	for i := range s {
		s[i] = time.Duration(100+i%10) * time.Microsecond
	}
	base := s.calm(0.5)
	for i := 0; i < 3*calmChunk; i++ {
		s[i] += time.Millisecond // three of eight chunks disturbed
	}
	if got := s.calm(0.5); got != base {
		t.Errorf("calm p50 after bursts = %v, want %v", got, base)
	}
	for i := range s {
		s[i] += 50 * time.Microsecond
	}
	if got, want := s.calm(0.5), base+50*time.Microsecond; got != want {
		t.Errorf("calm p50 after a shift = %v, want %v", got, want)
	}
	if got, want := s[:calmChunk+1].calm(0.5), s[:calmChunk+1].quantile(0.5); got != want {
		t.Errorf("short calm = %v, want plain quantile %v", got, want)
	}
}

func TestUpperQuartileNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{4, 1, 3, 2}, 3}, {[]float64{10, 2, 9, 4, 8, 5, 7, 1, 6, 3}, 8}} {
		if got := upperQuartile(c.xs); got != c.want {
			t.Errorf("upperQuartile(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// Every metric is printed with its unit and sample count, and the last
// line is the JSON result with exactly the four keys.
func TestPrintResultReportsCounts(t *testing.T) {
	res := &result{Correct: true, Attempted: 7, Metrics: map[string]metric{}, extra: map[string]metric{}}
	var lat samples
	for i := 1; i <= 1500; i++ {
		lat = append(lat, time.Duration(i)*time.Microsecond)
	}
	addQuantiles(res.Metrics, "conn_a", lat)
	addQuantiles(res.extra, "pull", lat[:3])
	var out bytes.Buffer
	printResult(&out, res)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, want := range []string{"conn_a_p50_us", "conn_a_p99_us", "pull_p99_us"} {
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 4 && f[0] == want && f[2] == "us" && strings.HasPrefix(f[3], "n=") {
				found = true
				if want == "pull_p99_us" && f[3] != "n=3" {
					t.Errorf("%s count %s, want n=3", want, f[3])
				}
				if want == "conn_a_p50_us" && (f[1] != "750.0000" || f[3] != "n=1500") {
					t.Errorf("%s line %q, want value 750 and n=1500", want, l)
				}
			}
		}
		if !found {
			t.Errorf("no line for %s in:\n%s", want, out.String())
		}
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("JSON keys = %v, want correct, attempted, failed, metrics", got)
	}
	var m map[string]metric
	if err := json.Unmarshal(got["metrics"], &m); err != nil || len(m) != 2 {
		t.Errorf("JSON metrics = %s, want only the two conn_a metrics", got["metrics"])
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	sp := func(a, b int) span { return span{start: time.Duration(a), end: time.Duration(b)} }
	root := sp(0, 100)
	kids := []span{sp(60, 70), sp(10, 30), sp(20, 50), sp(90, 120), sp(200, 300)}
	// Union inside the root: [10,50] + [60,70] + [90,100] = 60.
	if got := selfTime(root, kids); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// A traced request's replayed steps are moved inside its root, probes
// are laid end to end from their parent's start, and the root's self
// time plus the union of its children is the root.
func TestTracedRequestLayout(t *testing.T) {
	tr := newTracer()
	r, err := tr.request("server.push", func() error { time.Sleep(ms(20)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := r.step(-1, "registry.decode.mg", func() error { time.Sleep(ms(2)); return nil })
	for range 2 {
		_ = r.probe(dec, "codec.frame_check", func() error { time.Sleep(ms(0.5)); return nil })
	}
	ing, _ := r.step(-1, "node.ingest", func() error { time.Sleep(ms(3)); return nil })
	root := tr.spans[r.root]
	kids := tr.children()
	if d := tr.spans[dec]; d.start < root.start || d.end > tr.spans[ing].start || tr.spans[ing].end > root.end {
		t.Fatalf("steps not laid inside the root in order: root %v-%v decode %v-%v ingest %v-%v",
			root.start, root.end, d.start, d.end, tr.spans[ing].start, tr.spans[ing].end)
	}
	probes := kids[dec]
	if len(probes) != 2 || probes[0].start != tr.spans[dec].start || probes[1].start != probes[0].end {
		t.Errorf("probes not laid end to end from the decode's start: %+v", probes)
	}
	var covered time.Duration
	for _, c := range kids[r.root] {
		covered += c.dur()
	}
	if self := selfTime(root, kids[r.root]); self+covered != root.dur() {
		t.Errorf("self %v + children %v != root %v", self, covered, root.dur())
	}
	s := spanStats(tr)
	if len(s.self["server.push"]) != 1 || s.roots != 1 || s.clipped != 0 {
		t.Errorf("spanStats = %+v", s)
	}
	var nilTrace *reqTrace
	ran := false
	if _, err := nilTrace.step(-1, "x", func() error { ran = true; return nil }); err != nil || !ran {
		t.Error("a nil trace must still run its steps")
	}
}

// stallServer accepts one connection and answers each PUSH with
// "OK 1", sleeping stall before answering request number stallAt.
func stallServer(t *testing.T, stallAt int, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r, w := bufio.NewReader(c), bufio.NewWriter(c)
		for n := 1; ; n++ {
			line, err := r.ReadString('\n')
			if err != nil || strings.HasPrefix(line, "QUIT") {
				return
			}
			lenLine, err := r.ReadString('\n')
			if err != nil {
				return
			}
			size, _ := strconv.Atoi(strings.TrimSpace(lenLine))
			if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
				return
			}
			if n == stallAt {
				time.Sleep(stall)
			}
			w.WriteString("OK 1\n")
			w.Flush()
		}
	}()
	return ln.Addr().String()
}

// The open loop times each op from its due time: a stalled reply is
// charged to every op queued behind it, which also shows as generator
// lateness, and the schedule does not slip.
func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	const (
		rate    = 1000.0 // one op per millisecond
		stallAt = 10
	)
	stall := ms(40)
	ent, _ := registry.ByName("mg")
	w := &world{
		slots: []slotDef{{name: "s", pool: &pool{ent: ent, frames: []frame{{data: []byte("frame"), n: 1}}}}},
		addrs: []string{stallServer(t, stallAt, stall)},
		spec: &workload{conns: [2]connSpec{{rate: rate, ops: func(*world, *gen.RNG) func() op {
			return func() op { return op{cmd: cmdPush, frames: []int{0}} }
		}}}},
	}
	cn, err := newConn(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	cn.openLoop(time.Now(), ms(100))

	if cn.rec.failed != 0 || cn.rec.attempted != 100 || len(cn.rec.seq) != 100 {
		t.Fatalf("attempted %d failed %d samples %d, want 100 ops all ok", cn.rec.attempted, cn.rec.failed, len(cn.rec.seq))
	}
	slack := ms(1)
	for k := 0; k < 30; k++ {
		i := stallAt - 1 + k // op index: the stalled op, then those behind it
		if want := stall - ms(float64(k)) - slack; cn.rec.seq[i] < want {
			t.Errorf("op %d latency %v, want at least %v", i, cn.rec.seq[i], want)
		}
		if k > 0 {
			if want := stall - ms(float64(k)) - slack; cn.rec.late[i] < want {
				t.Errorf("op %d sent %v late, want at least %v", i, cn.rec.late[i], want)
			}
		}
	}
	if got := cn.rec.late[stallAt-1]; got > ms(5) {
		t.Errorf("the stalled op itself was sent %v late; the schedule slipped before the stall", got)
	}
}

// The closed loop issues both connections' ops in the open loop's due
// order: the ops due within the schedule, in the offered rates' ratio.
func TestClosedLoopKeepsOfferedMix(t *testing.T) {
	ent, _ := registry.ByName("mg")
	push := func(*world, *gen.RNG) func() op {
		return func() op { return op{cmd: cmdPush, frames: []int{0}} }
	}
	w := &world{
		slots: []slotDef{{name: "s", pool: &pool{ent: ent, frames: []frame{{data: []byte("frame"), n: 1}}}}},
		spec:  &workload{conns: [2]connSpec{{rate: 1000, ops: push}, {node: 1, rate: 250, ops: push}}},
	}
	w.addrs = []string{stallServer(t, 0, 0), stallServer(t, 0, 0)}
	var conns [2]*conn
	for i := range conns {
		cn, err := newConn(w, i)
		if err != nil {
			t.Fatal(err)
		}
		defer cn.close()
		conns[i] = cn
	}
	if got := closedLoop(conns, ms(20), time.Now().Add(time.Minute)); got != 25 {
		t.Errorf("closed loop completed %d ops, want 25", got)
	}
	if a, b := conns[0].rec.attempted, conns[1].rec.attempted; a != 20 || b != 5 {
		t.Errorf("connections issued %d and %d ops, want 20 and 5", a, b)
	}
}

// Every QWIN range the dashboard issues, panel or ad hoc, is answerable
// by a plane with the default ladder holding the dashboard's history.
func TestQueryRangesAreAnswerable(t *testing.T) {
	ent, _ := registry.ByName("mg")
	pl, err := window.NewPlane(ent, nil, window.DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	src := ent.Example(64)
	for e := 1; e <= prepopEpochs+300; e++ {
		if err := pl.AbsorbClone(src); err != nil {
			t.Fatal(err)
		}
		if err := pl.Advance(); err != nil {
			t.Fatal(err)
		}
		pl.Quiesce()
		if e < prepopEpochs {
			continue
		}
		if err := pl.AbsorbClone(src); err != nil { // a live epoch with data
			t.Fatal(err)
		}
		now := pl.Epoch()
		var qs []qrange
		for _, b := range panelBacks {
			qs = append(qs, qrange{back: b}, qrange{back: b, live: true})
		}
		rng := gen.NewRNG(uint64(e))
		for range 20 {
			back := 2 + rng.Uint64n(999)
			qs = append(qs, qrange{back: back, span: 1 + rng.Uint64n(back-1), adhoc: true})
		}
		for _, q := range qs {
			from, to := q.resolve(now)
			if _, err := pl.QueryEncoded(from, to); err != nil {
				t.Fatalf("now=%d %+v -> [%d,%d]: %v", now, q, from, to, err)
			}
			if q.adhoc && (to < from || to > now-2) {
				t.Fatalf("now=%d ad-hoc %+v -> [%d,%d] is not a sealed range", now, q, from, to)
			}
		}
	}
}

// BENCHMARK.json declares exactly the metrics the program reports.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

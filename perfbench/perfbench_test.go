package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/server"
)

// Each workload's checker must catch a deliberately faulty double of the
// layer it drives; a checker that passes a broken program shows nothing.

func smallMapGrow() mapGrowConfig {
	return mapGrowConfig{workers: 2, prefill: 1 << 10, inserts: 3 << 10, findHit: 1 << 12,
		findMiss: 1 << 11, adds: 1 << 11, hot: 64, hotSkew: 0.99, sampleEvery: 8}
}

// oneRound sets w up, runs a single round and the final check, and
// returns the first error either reported.
func oneRound(t *testing.T, w workload) error {
	t.Helper()
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	m := &meter{w: w}
	if err := w.round(m); err != nil {
		t.Fatalf("round: %v", err)
	}
	if m.checkErr != nil {
		return m.checkErr
	}
	return w.check()
}

// faultyMap wraps a real map; its sessions drop every n-th Store or
// every n-th Compute.
type faultyMap struct {
	mgMap
	dropStore, dropAdd bool
	n                  int64
	calls              *atomic.Int64
}

func (f faultyMap) Session() mgSession { return faultySession{f.mgMap.Session(), f} }

type faultySession struct {
	mgSession
	f faultyMap
}

func (s faultySession) drop() bool { return s.f.calls.Add(1)%s.f.n == 0 }

func (s faultySession) Store(k, v uint64) {
	if s.f.dropStore && s.drop() {
		return
	}
	s.mgSession.Store(k, v)
}

func (s faultySession) Compute(k, d uint64, up func(cur, d uint64) uint64) bool {
	if s.f.dropAdd && s.drop() {
		return false
	}
	return s.mgSession.Compute(k, d, up)
}

func TestMapGrowHealthy(t *testing.T) {
	if err := oneRound(t, newMapGrow(7, smallMapGrow())); err != nil {
		t.Fatalf("healthy map failed the checks: %v", err)
	}
}

func TestMapGrowCatchesDroppedWrites(t *testing.T) {
	for _, tc := range []struct {
		name      string
		store, ad bool
	}{{"Store", true, false}, {"Compute", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := newMapGrow(7, smallMapGrow())
			g.newMap = func() mgMap {
				return faultyMap{mgMap: newGrowtMap(), dropStore: tc.store, dropAdd: tc.ad, n: 1000, calls: new(atomic.Int64)}
			}
			err := oneRound(t, g)
			if err == nil {
				t.Fatalf("a map that drops one %s in 1000 passed the checks", tc.name)
			}
			t.Logf("caught: %v", err)
		})
	}
}

func smallChurn() churnConfig {
	return churnConfig{workers: 2, universe: 1 << 14, skew: 0.99, budget: 1 << 10,
		prefill: 1 << 10, ops: 1 << 13, getPct: 40, setPct: 45, sampleEvery: 4}
}

// faultyStore wraps growd's store. staleDel makes a Get after a Delete
// return the value the Delete removed; extraHit makes Stats count one hit
// too many.
type faultyStore struct {
	kvStore
	staleDel, extraHit bool
}

func (f faultyStore) NewSession() kvSession {
	s := f.kvStore.NewSession()
	if f.staleDel {
		return &staleDelSession{kvSession: s, deleted: map[server.Key]string{}}
	}
	return s
}

func (f faultyStore) Stats() cache.Stats {
	s := f.kvStore.Stats()
	if f.extraHit {
		s.Hits++
	}
	return s
}

type staleDelSession struct {
	kvSession
	deleted map[server.Key]string
}

func (s *staleDelSession) Delete(k server.Key) bool {
	if v, ok := s.kvSession.Get(k); ok {
		s.deleted[k] = v
	}
	return s.kvSession.Delete(k)
}

func (s *staleDelSession) Get(k server.Key) (string, bool) {
	v, ok := s.kvSession.Get(k)
	if stale, was := s.deleted[k]; !ok && was {
		return stale, true
	}
	return v, ok
}

func (s *staleDelSession) Set(k server.Key, v string) {
	delete(s.deleted, k)
	s.kvSession.Set(k, v)
}

func TestChurnHealthy(t *testing.T) {
	if err := oneRound(t, newChurn(7, smallChurn())); err != nil {
		t.Fatalf("healthy store failed the checks: %v", err)
	}
}

func TestChurnCatchesFaultyStore(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store faultyStore
	}{{"stale value after DEL", faultyStore{staleDel: true}}, {"miscounted hits", faultyStore{extraHit: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newChurn(7, smallChurn())
			c.newStore = func(budget uint64) kvStore {
				f := tc.store
				f.kvStore = newGrowdStore(budget)
				return f
			}
			err := oneRound(t, c)
			if err == nil {
				t.Fatalf("a store with %s passed the checks", tc.name)
			}
			t.Logf("caught: %v", err)
		})
	}
}

func smallSvc(depth int) svcConfig {
	conns := 2
	if depth == 0 {
		conns = 1
	}
	return svcConfig{conns: conns, depth: depth, universe: 1 << 10, skew: 0.99,
		getPct: 80, ops: 1 << 10, sampleEvery: 4}
}

// miscountingServer wraps growd and reports one GET more than it served.
type miscountingServer struct{ svcServer }

func (m miscountingServer) PerOp() map[string]uint64 {
	per := m.svcServer.PerOp()
	per["get"]++
	return per
}

func TestSvcHealthy(t *testing.T) {
	for _, depth := range []int{0, 8} {
		if err := oneRound(t, newSvc(7, smallSvc(depth))); err != nil {
			t.Fatalf("depth %d: healthy server failed the checks: %v", depth, err)
		}
	}
}

func TestSvcCatchesMiscountingServer(t *testing.T) {
	for _, depth := range []int{0, 8} {
		s := newSvc(7, smallSvc(depth))
		s.start = func(prefill func(*server.Store)) (svcServer, error) {
			g, err := startGrowd(prefill)
			return miscountingServer{g}, err
		}
		if err := oneRound(t, s); err == nil {
			t.Fatalf("depth %d: a server that miscounts GETs passed the checks", depth)
		}
	}
}

func TestSvcCatchesWrongValue(t *testing.T) {
	for _, depth := range []int{0, 8} {
		s := newSvc(7, smallSvc(depth))
		s.start = func(prefill func(*server.Store)) (svcServer, error) {
			return startGrowd(func(st *server.Store) {
				prefill(st)
				// Key 0 is connection 0's hottest key: it is read.
				st.C.Set(server.Key(appendKey(nil, 0)), string(appendValue(nil, 0, 99)))
			})
		}
		err := oneRound(t, s)
		if err == nil {
			t.Fatalf("depth %d: a server holding a wrong value passed the checks", depth)
		}
		t.Logf("caught: %v", err)
	}
}

// TestSmoke runs every workload for one second through the command's own
// entry point and checks the shape of its result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	layers := perLayerNames(t)
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	e2e := []string{"setup_s", "ops_per_s", "cpu_us_per_op", "get_p50_us", "get_p90_us", "set_p50_us", "set_p90_us", "mem_mb"}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && w.name != "svc-rtt" {
				continue // one ladder run covers every rung
			}
			var out, errb bytes.Buffer
			if code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errb); code != 0 {
				t.Fatalf("%s: exit %d: %s", w.name, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w.name, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", w.name, res.Correct, res.Attempted, res.Failed, errb.String())
			}
			want := e2e
			if trace == "1" {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit == "" {
					t.Errorf("%s trace=%s: metric %s missing", w.name, trace, name)
				}
			}
		}
	}
}

// perLayerNames reads the per-layer metric names from BENCHMARK.json.
func perLayerNames(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	return names
}

func TestMixInverse(t *testing.T) {
	r := newSplitmix(1, 2)
	for i := 0; i < 1000; i++ {
		x := r.next()
		if unmix64(mix64(x)) != x {
			t.Fatalf("unmix64(mix64(%#x)) != x", x)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	h := newLatHist()
	for v := int64(1); v <= 100; v++ {
		h.recordNs(v * 1000)
	}
	if q := h.quantile(0.5); q < 49_000 || q > 51_000 {
		t.Fatalf("median of 1..100 µs = %v ns", q)
	}
}

package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	growt "repro"
	"repro/internal/hashfn"
	"repro/internal/server"
	"repro/internal/server/client"
)

// The ladder replays a fixed sample of a workload's keys on each layer
// alone, from the bottom up: hashfn.Hash64, a core handle, a facade
// session on the word and on the generic route, a cache session over
// growd's store, a growd server over an in-memory net.Pipe, and the
// client over loopback TCP. Each rung times batches of calls into the
// layer's public functions and counts the heap allocations around them;
// a layer's self time is the difference between adjacent rungs.

// ladderSample is the number of op-stream keys the ladder replays.
const ladderSample = 4096

// rungRecord is one timed pass of one rung, written to the trace file.
type rungRecord struct {
	Rung      string  `json:"rung"`
	Pass      string  `json:"pass"`
	Calls     int     `json:"calls"`
	NsPerCall float64 `json:"ns_per_call"` // median over batches
	Allocs    float64 `json:"allocs_per_call"`
}

type ladder struct {
	recs  []rungRecord
	sink  uint64
	batch int
}

// pass runs f(i) for calls calls in batches and returns the median batch
// mean in ns, recording it with the allocations per call.
func (l *ladder) pass(rung, name string, calls int, f func(i int)) float64 {
	batch := l.batch
	if calls < 8*batch {
		batch = max(calls/8, 1)
	}
	var means []float64
	m0 := mallocs()
	for i := 0; i < calls; {
		n := min(batch, calls-i)
		t := time.Now()
		for j := 0; j < n; j++ {
			f(i + j)
		}
		means = append(means, float64(time.Since(t).Nanoseconds())/float64(n))
		i += n
	}
	allocs := float64(mallocs()-m0) / float64(calls)
	ns := median(means)
	l.recs = append(l.recs, rungRecord{Rung: rung, Pass: name, Calls: calls, NsPerCall: ns, Allocs: allocs})
	return ns
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsOf returns the allocations per call over a rung's passes.
func (l *ladder) allocsOf(rung string) float64 {
	var a, n float64
	for _, r := range l.recs {
		if r.Rung == rung {
			a += r.Allocs * float64(r.Calls)
			n += float64(r.Calls)
		}
	}
	return a / n
}

// In-memory rungs replay the sample memReps times; the wire rungs once.
const memReps = 16

func runLadder(keys []uint32, prog progSnap) (map[string]metric, []rungRecord, error) {
	l := &ladder{batch: 512}
	out := map[string]metric{}
	n := len(keys)
	calls := n * memReps
	key := func(i int) uint32 { return keys[i%n] }

	runtime.GC()
	out["hashfn.ns_per_call"] = metric{l.pass("hashfn", "Hash64", calls, func(i int) {
		l.sink += hashfn.Hash64(uint64(key(i)))
	}), "ns"}
	out["hashfn.allocs_per_call"] = metric{l.allocsOf("hashfn"), "count"}

	runtime.GC()
	g := growt.NewGrow(growt.UAGrow, 4096)
	h := g.Handle()
	out["core.insert_ns"] = metric{l.pass("core", "InsertOrUpdate", calls, func(i int) {
		h.InsertOrUpdate(uint64(key(i))+1, uint64(i), growt.Overwrite)
	}), "ns"}
	out["core.find_ns"] = metric{l.pass("core", "Find", calls, func(i int) {
		v, _ := h.Find(uint64(key(i)) + 1)
		l.sink += v
	}), "ns"}
	out["core.add_ns"] = metric{l.pass("core", "InsertOrUpdate(AddFn)", calls, func(i int) {
		h.InsertOrUpdate(uint64(key(i))+1, 1, growt.AddFn)
	}), "ns"}
	out["core.allocs_per_op"] = metric{l.allocsOf("core"), "count"}
	growt.Close(g)

	runtime.GC()
	wm := growt.New[uint64, uint64]()
	ws := wm.Session()
	out["growt.word_store_ns"] = metric{l.pass("growt.word", "Store", calls, func(i int) {
		ws.Store(mix64(uint64(key(i))), uint64(i))
	}), "ns"}
	out["growt.word_load_ns"] = metric{l.pass("growt.word", "Load", calls, func(i int) {
		v, _ := ws.Load(mix64(uint64(key(i))))
		l.sink += v
	}), "ns"}
	ws.Close()
	wm.Close()
	out["growt.word_allocs_per_op"] = metric{l.allocsOf("growt.word"), "count"}

	// The generic route as growd's store builds it: server.Key keys under
	// a maphash hasher. Keys and values are made before timing.
	skeys := make([]server.Key, n)
	vals := make([]string, n)
	var b []byte
	for i, k := range keys {
		skeys[i] = server.Key(appendKey(b[:0], k))
		vals[i] = string(appendValue(b[:0], k, 1))
	}
	seed := maphash.MakeSeed()
	runtime.GC()
	gm := growt.New[server.Key, string](growt.WithHasher(func(k server.Key) uint64 {
		return maphash.String(seed, string(k))
	}))
	gs := gm.Session()
	out["growt.generic_store_ns"] = metric{l.pass("growt.generic", "Store", calls, func(i int) {
		gs.Store(skeys[i%n], vals[i%n])
	}), "ns"}
	out["growt.generic_load_ns"] = metric{l.pass("growt.generic", "Load", calls, func(i int) {
		v, _ := gs.Load(skeys[i%n])
		l.sink += uint64(len(v))
	}), "ns"}
	gs.Close()
	gm.Close()
	out["growt.generic_allocs_per_op"] = metric{l.allocsOf("growt.generic"), "count"}

	runtime.GC()
	st := server.NewStore()
	t0 := time.Now()
	cs := st.C.NewSession()
	out["cache.set_ns"] = metric{l.pass("cache", "Set", calls, func(i int) {
		cs.Set(skeys[i%n], vals[i%n])
	}), "ns"}
	out["cache.get_ns"] = metric{l.pass("cache", "Get", calls, func(i int) {
		v, _ := cs.Get(skeys[i%n])
		l.sink += uint64(len(v))
	}), "ns"}
	out["cache.del_ns"] = metric{l.pass("cache", "Delete", n, func(i int) {
		cs.Delete(skeys[i])
	}), "ns"}
	cs.Close()
	out["cache.allocs_per_op"] = metric{l.allocsOf("cache"), "count"}
	if !prog.hasCache {
		s := st.C.Stats()
		out["cache.evictions_per_set"] = metric{float64(s.Evicted) / float64(calls), "count"}
		out["cache.hit_ratio"] = metric{float64(s.Hits) / float64(max(s.Hits+s.Misses, 1)), "ratio"}
		out["cache.sweep_visited_per_s"] = metric{float64(s.SweepVisited) / time.Since(t0).Seconds(), "1/s"}
	}
	st.Close()

	runtime.GC()
	pipeNs, execNs, err := l.pipeRung(skeys, vals)
	if err != nil {
		return nil, nil, err
	}
	out["server.pipe_rtt_ns"] = metric{pipeNs, "ns"}
	out["server.allocs_per_op"] = metric{l.allocsOf("server"), "count"}
	if !prog.hasServer {
		out["server.exec_ns"] = metric{execNs, "ns"}
	}

	runtime.GC()
	rtt, send, err := l.tcpRung(skeys, vals)
	if err != nil {
		return nil, nil, err
	}
	out["client.tcp_rtt_ns"] = metric{rtt, "ns"}
	out["client.async_send_ns"] = metric{send, "ns"}
	out["client.allocs_per_op"] = metric{l.allocsOf("client"), "count"}
	return out, l.recs, nil
}

// pipeListener hands the server one end of each net.Pipe that dial makes.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.closed:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (p *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case p.conns <- s:
		return c, nil
	case <-p.closed:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeRung serves growd over net.Pipe and sends it synchronous SETs and
// GETs framed with the server's own wire helpers. It returns the mean
// round trip over both passes and the server's own mean exec time.
func (l *ladder) pipeRung(keys []server.Key, vals []string) (rtt, exec float64, err error) {
	st := server.NewStore()
	defer st.Close()
	srv := server.New(st, server.Options{})
	ln := newPipeListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	conn, err := ln.dial()
	if err != nil {
		return 0, 0, err
	}
	var wbuf, rbuf []byte
	var id uint64
	var failure error
	roundTrip := func(kind byte, key server.Key, val string) {
		id++
		wbuf = server.BeginFrame(wbuf[:0], id, kind)
		wbuf = server.AppendBytes(wbuf, []byte(key))
		if kind == server.OpSet {
			wbuf = server.AppendBytes(wbuf, []byte(val))
		}
		wbuf = server.EndFrame(wbuf, 0)
		if _, err := conn.Write(wbuf); err != nil && failure == nil {
			failure = err
			return
		}
		rid, status, _, nbuf, err := server.ReadFrame(conn, server.DefaultMaxFrame, rbuf)
		rbuf = nbuf
		if (err != nil || rid != id || status != server.StatusOK) && failure == nil {
			failure = fmt.Errorf("pipe round trip %d: id %d, status %#x, %v", id, rid, status, err)
		}
	}
	n := len(keys)
	set := l.pass("server", "SET over net.Pipe", n, func(i int) { roundTrip(server.OpSet, keys[i], vals[i]) })
	get := l.pass("server", "GET over net.Pipe", n, func(i int) { roundTrip(server.OpGet, keys[i], "") })
	conn.Close()
	var nanos, ops uint64
	for name, h := range srv.Obs().Snapshot().Hists {
		if strings.HasPrefix(name, "growd_op_nanos") {
			nanos += h.Sum
			ops += h.Count
		}
	}
	if err := shutdown(srv, served); err != nil && failure == nil {
		failure = err
	}
	if failure != nil {
		return 0, 0, failure
	}
	return (set + get) / 2, float64(nanos) / float64(max(ops, 1)), nil
}

// tcpRung serves growd on loopback TCP and drives it with the client:
// synchronous SETs and GETs, then batches of GetAsync whose send loop
// alone is timed.
func (l *ladder) tcpRung(keys []server.Key, vals []string) (rtt, send float64, err error) {
	st := server.NewStore()
	defer st.Close()
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		ln.Close()
		return 0, 0, err
	}
	var failure error
	note := func(e error) {
		if e != nil && failure == nil {
			failure = e
		}
	}
	n := len(keys)
	set := l.pass("client", "Set over TCP", n, func(i int) { note(cl.Set([]byte(keys[i]), []byte(vals[i]))) })
	get := l.pass("client", "Get over TCP", n, func(i int) {
		_, _, e := cl.Get([]byte(keys[i]))
		note(e)
	})

	const batch = 128
	var wg sync.WaitGroup
	var mu sync.Mutex
	cb := func(r client.Resp) {
		if r.Err != nil {
			mu.Lock()
			note(r.Err)
			mu.Unlock()
		}
		wg.Done()
	}
	var sends []float64
	for i := 0; i+batch <= n; i += batch {
		wg.Add(batch)
		t := time.Now()
		for j := i; j < i+batch; j++ {
			cl.GetAsync([]byte(keys[j]), cb)
		}
		sends = append(sends, float64(time.Since(t).Nanoseconds())/batch)
		wg.Wait()
	}
	l.recs = append(l.recs, rungRecord{Rung: "client.async", Pass: "GetAsync send", Calls: len(sends) * batch, NsPerCall: median(sends)})
	cl.Close()
	note(shutdown(srv, served))
	if failure != nil {
		return 0, 0, failure
	}
	return (set + get) / 2, median(sends), nil
}

func shutdown(srv *server.Server, served <-chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if serr := <-served; err == nil {
		err = serr
	}
	return err
}

package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/server/client"
)

// svc-pipelined and svc-rtt: an in-process growd server with its default
// options on a 127.0.0.1:0 TCP listener, prefilled during set-up, and
// one client connection per load goroutine. svc-pipelined keeps a fixed
// number of requests in flight on each of nproc connections through the
// async API; svc-rtt sends one synchronous request at a time on a single
// connection, so nothing coalesces.

type svcConfig struct {
	// procs, when nonzero, is the GOMAXPROCS the workload runs at unless
	// the GOMAXPROCS environment variable sets one.
	procs       int
	conns       int
	depth       int // requests in flight per connection; 0 means the synchronous API
	universe    int // keys over all connections, all prefilled
	skew        float64
	getPct      int // the rest are SETs
	ops         int // requests per connection per window
	sampleEvery int
}

func pipelinedConfig() svcConfig {
	return svcConfig{conns: runtime.NumCPU(), depth: 32, universe: 1 << 17, skew: 0.99,
		getPct: 90, ops: 1 << 14, sampleEvery: 8}
}

// rttConfig runs at GOMAXPROCS=1. With two Ps on a 2-vCPU host every
// hand-off of the synchronous round trip may wake a parked thread on the
// other vCPU, and the rate swung between 12K and 25K ops/s from run to
// run; with one P the same path runs at 31-38K ops/s and repeats.
func rttConfig() svcConfig {
	return svcConfig{procs: 1, conns: 1, universe: 1 << 16, skew: 0.99,
		getPct: 50, ops: 1 << 13, sampleEvery: 1}
}

const (
	svGet = iota
	svSet
)

// svcServer is what the service workloads need of the server; growd's
// server satisfies it through growdServer, and the tests substitute
// faulty doubles.
type svcServer interface {
	Addr() string
	PerOp() map[string]uint64
	snap() progSnap
	Close() error
}

type growdServer struct {
	st     *server.Store
	srv    *server.Server
	ln     net.Listener
	served chan error
}

func startGrowd(prefill func(*server.Store)) (svcServer, error) {
	st := server.NewStore()
	prefill(st)
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	g := &growdServer{st: st, srv: srv, ln: ln, served: make(chan error, 1)}
	go func() { g.served <- srv.Serve(ln) }()
	return g, nil
}

func (g *growdServer) Addr() string { return g.ln.Addr().String() }

func (g *growdServer) PerOp() map[string]uint64 { return g.srv.Stats().PerOp }

func (g *growdServer) snap() progSnap {
	s := g.srv.Stats()
	p := progSnap{hasCache: true, hasServer: true, borrows: g.st.C.PoolBorrows(),
		hits: s.Hits, misses: s.Misses, evicted: s.Evicted, sweepVisited: s.SweepVisited,
		sets: s.PerOp["set"]}
	for name, h := range g.srv.Obs().Snapshot().Hists {
		if strings.HasPrefix(name, "growd_op_nanos") {
			p.execNanos += h.Sum
			p.execOps += h.Count
		}
	}
	return p
}

func (g *growdServer) Close() error {
	err := shutdown(g.srv, g.served)
	g.st.Close()
	return err
}

type svcConn struct {
	cl        *client.Client
	ops       []uint32 // kind<<31 | rank
	last      []uint64 // per rank: sequence of the value the server must hold
	seq       uint64
	gets      uint64
	sets      uint64
	get, set  latBuf
	failed    atomic.Uint64
	mu        sync.Mutex // guards bad: callbacks run on the client's reader
	bad       error
	slots     chan struct{} // one token per request in flight
	inflight  chan pending
	completed sync.WaitGroup
}

// pending is a request in flight: responses come back in order on a
// connection, so the head of the queue is the one a response answers.
type pending struct {
	kind uint8
	idx  uint32
	seq  uint64 // the value a GET must return
	t0   int64  // send time, -1 when the request is not timed
}

type svc struct {
	cfg    svcConfig
	start  func(prefill func(*server.Store)) (svcServer, error)
	srv    svcServer
	cs     []*svcConn
	closed bool
}

func newSvc(seed uint64, cfg svcConfig) *svc {
	if cfg.procs > 0 && os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(cfg.procs)
	}
	s := &svc{cfg: cfg, start: startGrowd}
	per := cfg.universe / cfg.conns
	z := newZipf(uint64(per), cfg.skew)
	for c := 0; c < cfg.conns; c++ {
		r := newSplitmix(seed, 0x200+uint64(c))
		nGet := cfg.ops * cfg.getPct / 100
		kinds := shuffledKinds(r, nGet, cfg.ops-nGet)
		ops := make([]uint32, len(kinds))
		for i, k := range kinds {
			ops[i] = uint32(k)<<31 | uint32(z.next(r))
		}
		last := make([]uint64, per)
		for i := range last {
			last[i] = 1
		}
		s.cs = append(s.cs, &svcConn{ops: ops, last: last, seq: 1})
	}
	return s
}

func (s *svc) keyIdx(c int, rank uint32) uint32 { return rank*uint32(s.cfg.conns) + uint32(c) }

func (s *svc) setup() error {
	srv, err := s.start(func(st *server.Store) {
		sess := st.C.NewSession()
		defer sess.Close()
		var kb, vb []byte
		for idx := 0; idx < s.cfg.universe/s.cfg.conns*s.cfg.conns; idx++ {
			kb = appendKey(kb[:0], uint32(idx))
			vb = appendValue(vb[:0], uint32(idx), 1)
			sess.Set(server.Key(kb), string(vb))
		}
	})
	if err != nil {
		return err
	}
	s.srv = srv
	for _, c := range s.cs {
		if c.cl, err = client.Dial(srv.Addr()); err != nil {
			return err
		}
		if s.cfg.depth > 0 {
			c.slots = make(chan struct{}, s.cfg.depth)
			c.inflight = make(chan pending, s.cfg.depth)
		}
	}
	return nil
}

func (s *svc) round(m *meter) error {
	var ops uint64
	for _, c := range s.cs {
		ops += uint64(len(c.ops))
	}
	work := s.driveSync
	if s.cfg.depth > 0 {
		work = s.drivePipelined
	}
	runWorkers(m, s.cfg.conns, ops, work)
	for i, c := range s.cs {
		if c.bad != nil {
			m.fail(fmt.Errorf("connection %d: %w", i, c.bad))
		}
	}
	return nil
}

func (c *svcConn) note(err error) {
	c.mu.Lock()
	if c.bad == nil {
		c.bad = err
	}
	c.mu.Unlock()
}

// drivePipelined keeps depth requests in flight on connection ci. It
// decides each request's expected answer from the model when it sends
// it; the callback compares the response with it.
func (s *svc) drivePipelined(ci int, start <-chan struct{}) {
	c := s.cs[ci]
	every := s.cfg.sampleEvery
	var kb, vb, cbBuf []byte
	base := timeBase()
	cb := func(r client.Resp) {
		p := <-c.inflight
		if p.t0 >= 0 {
			h := &c.get
			if p.kind == svSet {
				h = &c.set
			}
			h.add(base.now() - p.t0)
		}
		switch {
		case r.Err != nil || r.Status == server.StatusErr:
			c.failed.Add(1)
		case p.kind == svGet:
			cbBuf = appendValue(cbBuf[:0], p.idx, p.seq)
			if r.Status != server.StatusOK || !bytes.Equal(r.Val, cbBuf) {
				c.note(fmt.Errorf("GET of key %d: status %#x, value other than sequence %d", p.idx, r.Status, p.seq))
			}
		case r.Status != server.StatusOK:
			c.note(fmt.Errorf("SET of key %d: status %#x", p.idx, r.Status))
		}
		<-c.slots
		c.completed.Done()
	}
	<-start
	for i, op := range c.ops {
		rank := op & (1<<31 - 1)
		idx := s.keyIdx(ci, rank)
		kb = appendKey(kb[:0], idx)
		p := pending{kind: uint8(op >> 31), idx: idx, t0: -1}
		if p.kind == svSet {
			c.seq++
			c.last[rank] = c.seq
			vb = appendValue(vb[:0], idx, c.seq)
		}
		p.seq = c.last[rank]
		c.completed.Add(1)
		c.slots <- struct{}{} // blocks while depth requests are in flight
		if i%every == 0 {
			p.t0 = base.now()
		}
		c.inflight <- p
		if p.kind == svGet {
			c.gets++
			c.cl.GetAsync(kb, cb)
		} else {
			c.sets++
			c.cl.SetAsync(kb, vb, cb)
		}
	}
	c.completed.Wait()
}

// driveSync sends one synchronous request at a time on connection ci.
func (s *svc) driveSync(ci int, start <-chan struct{}) {
	c := s.cs[ci]
	every := s.cfg.sampleEvery
	var kb, vb, eb []byte
	<-start
	base := timeBase()
	for i, op := range c.ops {
		rank := op & (1<<31 - 1)
		idx := s.keyIdx(ci, rank)
		kb = appendKey(kb[:0], idx)
		timed := i%every == 0
		var t0 int64
		if op>>31 == svGet {
			c.gets++
			if timed {
				t0 = base.now()
			}
			v, ok, err := c.cl.Get(kb)
			if timed {
				c.get.add(base.now() - t0)
			}
			if err != nil {
				c.failed.Add(1)
				continue
			}
			if eb = appendValue(eb[:0], idx, c.last[rank]); !ok || !bytes.Equal(v, eb) {
				c.note(fmt.Errorf("GET of key %d: found=%v, value other than sequence %d", idx, ok, c.last[rank]))
			}
			continue
		}
		c.sets++
		c.seq++
		vb = appendValue(vb[:0], idx, c.seq)
		if timed {
			t0 = base.now()
		}
		err := c.cl.Set(kb, vb)
		if timed {
			c.set.add(base.now() - t0)
		}
		if err != nil {
			c.failed.Add(1)
			continue
		}
		c.last[rank] = c.seq
	}
}

// check compares the server's own per-opcode counts with the requests
// the benchmark sent, and its SIZE with the model's key count.
func (s *svc) check() error {
	var gets, sets uint64
	for _, c := range s.cs {
		gets += c.gets
		sets += c.sets
	}
	per := s.srv.PerOp()
	if per["get"] != gets || per["set"] != sets {
		return fmt.Errorf("server counted %d GETs and %d SETs, the benchmark sent %d and %d", per["get"], per["set"], gets, sets)
	}
	n, err := s.cs[0].cl.Size()
	if err != nil {
		return fmt.Errorf("SIZE: %w", err)
	}
	if want := uint64(s.cfg.universe / s.cfg.conns * s.cfg.conns); n != want {
		return fmt.Errorf("SIZE = %d, the model holds %d keys", n, want)
	}
	if got := s.srv.PerOp()["size"]; got != 1 {
		return fmt.Errorf("server counted %d SIZE requests, the benchmark sent 1", got)
	}
	return nil
}

func (s *svc) samples() (get, set []int32) {
	for _, c := range s.cs {
		get = append(get, c.get.take()...)
		set = append(set, c.set.take()...)
	}
	return get, set
}

func (s *svc) failed() uint64 {
	var n uint64
	for _, c := range s.cs {
		n += c.failed.Load()
	}
	return n
}

func (s *svc) snap() progSnap { return s.srv.snap() }

func (s *svc) ladderKeys() []uint32 {
	var keys []uint32
	for _, op := range s.cs[0].ops[:min(ladderSample, len(s.cs[0].ops))] {
		keys = append(keys, s.keyIdx(0, op&(1<<31-1)))
	}
	return keys
}

func (s *svc) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, c := range s.cs {
		if c.cl != nil {
			c.cl.Close()
		}
	}
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
		}
	}
}

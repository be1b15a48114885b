package main

import (
	"fmt"
	"runtime"

	growt "repro"
	"repro/internal/cache"
	"repro/internal/server"
)

// store-churn: exactly growd's store, server.NewStore with an entry
// budget, driven through one cache.Session per worker with a
// write-heavy GET/SET/DEL mix over a Zipf universe far larger than the
// budget, so writes evict. The store lives for the whole run. Each round
// runs the same number of GETs, SETs and DELs, on keys drawn afresh from
// the worker's seeded stream: replaying one round's keys would shrink
// the set of keys written to what the budget holds, and stop eviction.

type churnConfig struct {
	workers     int
	universe    int // keys over all workers
	skew        float64
	budget      uint64 // the store's entry budget (WithMaxEntries)
	prefill     int    // SETs per worker before the first window
	ops         int    // ops per worker per window
	getPct      int
	setPct      int // the rest are DELs
	sampleEvery int
}

func defaultChurn() churnConfig {
	return churnConfig{
		workers:     runtime.NumCPU(),
		universe:    1 << 20,
		skew:        0.99,
		budget:      1 << 16,
		prefill:     1 << 16,
		ops:         1 << 16,
		getPct:      40,
		setPct:      45,
		sampleEvery: 16,
	}
}

const (
	chGet = iota
	chSet
	chDel
)

const chRankMask = 1<<30 - 1

// kvStore is what store-churn needs of the store; churnStore adapts
// growd's, and the tests substitute faulty doubles.
type kvStore interface {
	NewSession() kvSession
	Stats() cache.Stats
	Len() uint64
	PoolBorrows() uint64
	Close()
}

type kvSession interface {
	Get(k server.Key) (string, bool)
	Set(k server.Key, v string)
	Delete(k server.Key) bool
	Close()
}

type churnStore struct{ *server.Store }

func (s churnStore) NewSession() kvSession { return s.C.NewSession() }
func (s churnStore) Stats() cache.Stats    { return s.C.Stats() }
func (s churnStore) Len() uint64           { return s.C.Len() }
func (s churnStore) PoolBorrows() uint64   { return s.C.PoolBorrows() }

func newGrowdStore(budget uint64) kvStore {
	return churnStore{server.NewStore(growt.WithMaxEntries(budget))}
}

type churnWorker struct {
	r          *splitmix
	z          *zipf
	kinds      []uint8
	ops        []uint32 // this round's ops: kind<<30 | rank
	first      []uint32 // the first round's ops, for the ladder
	rounds     int
	last       []uint64 // per rank: sequence of the last value set, 0 when absent
	seq        uint64
	gets, hits uint64
	sets       uint64
	get, set   latBuf
	bad        error
}

type churn struct {
	cfg      churnConfig
	newStore func(budget uint64) kvStore
	st       kvStore
	ws       []*churnWorker
	closed   bool
}

func newChurn(seed uint64, cfg churnConfig) *churn {
	c := &churn{cfg: cfg, newStore: newGrowdStore}
	per := cfg.universe / cfg.workers
	z := newZipf(uint64(per), cfg.skew)
	nGet := cfg.ops * cfg.getPct / 100
	nSet := cfg.ops * cfg.setPct / 100
	for w := 0; w < cfg.workers; w++ {
		r := newSplitmix(seed, 0x100+uint64(w))
		cw := &churnWorker{r: r, z: z, kinds: shuffledKinds(r, nGet, nSet, cfg.ops-nGet-nSet),
			ops: make([]uint32, cfg.ops), last: make([]uint64, per)}
		cw.fill()
		cw.first = append([]uint32(nil), cw.ops[:min(ladderSample, len(cw.ops))]...)
		c.ws = append(c.ws, cw)
	}
	return c
}

// fill draws the next round's ops: the same kinds, reshuffled, on fresh
// keys.
func (cw *churnWorker) fill() {
	for i := len(cw.kinds) - 1; i > 0; i-- {
		j := cw.r.below(uint64(i + 1))
		cw.kinds[i], cw.kinds[j] = cw.kinds[j], cw.kinds[i]
	}
	for i, k := range cw.kinds {
		cw.ops[i] = uint32(k)<<30 | uint32(cw.z.next(cw.r))
	}
}

// keyIdx is the global key index of a worker's rank: partitions are
// disjoint, so each key has one writer and the model is exact.
func (c *churn) keyIdx(w int, rank uint32) uint32 { return rank*uint32(c.cfg.workers) + uint32(w) }

func (c *churn) setup() error {
	c.st = c.newStore(c.cfg.budget)
	done := make(chan struct{}, c.cfg.workers)
	for w := range c.ws {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			cw := c.ws[w]
			s := c.st.NewSession()
			defer s.Close()
			var kb, vb []byte
			for rank := 0; rank < c.cfg.prefill && rank < len(cw.last); rank++ {
				idx := c.keyIdx(w, uint32(rank))
				cw.seq++
				kb = appendKey(kb[:0], idx)
				vb = appendValue(vb[:0], idx, cw.seq)
				s.Set(server.Key(kb), string(vb))
				cw.last[rank] = cw.seq
			}
		}(w)
	}
	for range c.ws {
		<-done
	}
	return nil
}

func (c *churn) round(m *meter) error {
	var ops uint64
	for _, cw := range c.ws {
		ops += uint64(len(cw.ops))
	}
	runWorkers(m, c.cfg.workers, ops, c.work)
	for w, cw := range c.ws {
		if cw.bad != nil {
			m.fail(fmt.Errorf("worker %d: %w", w, cw.bad))
		}
	}
	return nil
}

func (c *churn) work(w int, start <-chan struct{}) {
	cw := c.ws[w]
	if cw.rounds > 0 {
		cw.fill()
	}
	cw.rounds++
	s := c.st.NewSession()
	defer s.Close()
	every := c.cfg.sampleEvery
	var kb, vb, eb []byte
	note := func(err error) {
		if cw.bad == nil {
			cw.bad = err
		}
	}
	<-start
	base := timeBase()
	for i, op := range cw.ops {
		rank := op & chRankMask
		idx := c.keyIdx(w, rank)
		kb = appendKey(kb[:0], idx)
		k := server.Key(kb)
		timed := i%every == 0
		var t0 int64
		switch op >> 30 {
		case chGet:
			if timed {
				t0 = base.now()
			}
			v, ok := s.Get(k)
			if timed {
				cw.get.add(base.now() - t0)
			}
			cw.gets++
			if !ok {
				break
			}
			cw.hits++
			want := cw.last[rank]
			if want == 0 {
				note(fmt.Errorf("Get(%s) = hit after a Delete or before any Set", k))
				break
			}
			if eb = appendValue(eb[:0], idx, want); v != string(eb) {
				note(fmt.Errorf("Get(%s) returned a value other than the last one Set (sequence %d)", k, want))
			}
		case chSet:
			cw.seq++
			vb = appendValue(vb[:0], idx, cw.seq)
			v := string(vb)
			if timed {
				t0 = base.now()
			}
			s.Set(k, v)
			if timed {
				cw.set.add(base.now() - t0)
			}
			cw.last[rank] = cw.seq
			cw.sets++
		case chDel:
			if timed {
				t0 = base.now()
			}
			removed := s.Delete(k)
			if timed {
				cw.set.add(base.now() - t0)
			}
			if removed && cw.last[rank] == 0 {
				note(fmt.Errorf("Delete(%s) removed a key that was never Set or already deleted", k))
			}
			cw.last[rank] = 0
		}
	}
}

// check compares the store's own counters with the benchmark's: every
// GET is a hit or a miss, the hits are the ones the benchmark saw, and
// the store holds no more entries than its budget.
func (c *churn) check() error {
	var gets, hits uint64
	for _, cw := range c.ws {
		gets += cw.gets
		hits += cw.hits
	}
	st := c.st.Stats()
	if st.Hits+st.Misses != gets {
		return fmt.Errorf("store counted %d hits + %d misses, the benchmark issued %d GETs", st.Hits, st.Misses, gets)
	}
	if st.Hits != hits {
		return fmt.Errorf("store counted %d hits, the benchmark saw %d", st.Hits, hits)
	}
	if n := c.st.Len(); n > c.cfg.budget {
		return fmt.Errorf("store holds %d entries, over its budget of %d", n, c.cfg.budget)
	}
	return nil
}

func (c *churn) samples() (get, set []int32) {
	for _, cw := range c.ws {
		get = append(get, cw.get.take()...)
		set = append(set, cw.set.take()...)
	}
	return get, set
}

func (c *churn) failed() uint64 { return 0 }

func (c *churn) snap() progSnap {
	st := c.st.Stats()
	p := progSnap{hasCache: true, borrows: c.st.PoolBorrows(), hits: st.Hits, misses: st.Misses,
		evicted: st.Evicted, sweepVisited: st.SweepVisited}
	for _, cw := range c.ws {
		p.sets += cw.sets
	}
	return p
}

func (c *churn) ladderKeys() []uint32 {
	var keys []uint32
	for _, op := range c.ws[0].first {
		keys = append(keys, c.keyIdx(0, op&chRankMask))
	}
	return keys
}

func (c *churn) close() {
	if c.st != nil && !c.closed {
		c.st.Close()
		c.closed = true
	}
}

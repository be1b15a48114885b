package main

import (
	"fmt"
	"runtime"
	"sync"

	growt "repro"
)

// map-grow: the paper's own table, growt.New[uint64, uint64] with
// default options (uaGrow over the word route), driven through one
// Session per worker. Set-up prefills it from empty; each round then
// builds and prefills a fresh table the same way (untimed after the
// first) and runs a window that inserts enough fresh keys for two more
// doublings, finds present and absent keys, and aggregates with
// Compute(Add) on a Zipf-hot key set shared by all workers.

type mapGrowConfig struct {
	workers     int
	prefill     int // keys inserted before each window, from empty
	inserts     int // fresh keys per window, over all workers
	findHit     int // finds of present keys per window
	findMiss    int // finds of absent keys per window
	adds        int // Compute(Add) calls per window
	hot         int // keys the adds go to
	hotSkew     float64
	sampleEvery int // one op in sampleEvery is timed
}

func defaultMapGrow() mapGrowConfig {
	return mapGrowConfig{
		workers:     runtime.NumCPU(),
		prefill:     1 << 16,
		inserts:     3 << 16, // 64 Ki -> 256 Ki keys: two doublings
		findHit:     1 << 18,
		findMiss:    1 << 17,
		adds:        1 << 17,
		hot:         1 << 10,
		hotSkew:     0.99,
		sampleEvery: 64,
	}
}

// Op kinds of the map-grow stream, in the top two bits of an op word.
const (
	mgInsert = iota
	mgFindHit
	mgFindMiss
	mgAdd
)

// Key classes. A key is mix64 of (index<<2 | class) under a seeded salt,
// a bijection, so the classes are disjoint by construction and a key
// seen in a Range can be traced back to its class and index.
const (
	classPresent = 0
	classAbsent  = 1
	classHot     = 2
)

const (
	mgIdxBits   = 54
	mgIdxMask   = 1<<mgIdxBits - 1
	mgDeltaMask = 0xff
	absentSpace = 1 << 24
)

// mgMap is what map-grow needs of a map; growt's Map satisfies it
// through mgGrowt, and the tests substitute faulty doubles.
type mgMap interface {
	Session() mgSession
	Range(fn func(k, v uint64) bool)
	PoolBorrows() uint64
	Close()
}

type mgSession interface {
	Load(k uint64) (uint64, bool)
	Store(k, v uint64)
	Compute(k, d uint64, up func(cur, d uint64) uint64) bool
	Close()
}

type mgGrowt struct{ *growt.Map[uint64, uint64] }

func (m mgGrowt) Session() mgSession { return m.Map.Session() }

func newGrowtMap() mgMap { return mgGrowt{growt.New[uint64, uint64]()} }

type mapGrow struct {
	cfg    mapGrowConfig
	salt   uint64
	ops    [][]uint64 // per worker
	expect []uint64   // per hot rank: the sum of all workers' deltas
	newMap func() mgMap

	m        mgMap
	fresh    bool     // m was built by setup and not yet used
	borrows0 uint64   // PoolBorrows of the tables already retired
	get, set []latBuf // per worker
	errs     []error
	closed   bool
}

func newMapGrow(seed uint64, cfg mapGrowConfig) *mapGrow {
	g := &mapGrow{cfg: cfg, salt: mix64(seed ^ 0x6d61702d67726f77), newMap: newGrowtMap}
	g.expect = make([]uint64, cfg.hot)
	z := newZipf(uint64(cfg.hot), cfg.hotSkew)
	W := cfg.workers
	for w := 0; w < W; w++ {
		r := newSplitmix(seed, uint64(w))
		kinds := shuffledKinds(r, cfg.inserts/W, cfg.findHit/W, cfg.findMiss/W, cfg.adds/W)
		ops := make([]uint64, len(kinds))
		var own uint64 // fresh keys this worker has inserted so far
		for i, k := range kinds {
			var idx, delta uint64
			switch k {
			case mgInsert:
				idx = uint64(cfg.prefill) + uint64(w) + own*uint64(W)
				own++
			case mgFindHit:
				idx = r.below(uint64(cfg.prefill) + own)
				if idx >= uint64(cfg.prefill) {
					idx = uint64(cfg.prefill) + uint64(w) + (idx-uint64(cfg.prefill))*uint64(W)
				}
			case mgFindMiss:
				idx = r.below(absentSpace)
			case mgAdd:
				idx = z.next(r)
				delta = 1 + r.below(mgDeltaMask)
				g.expect[idx] += delta
			}
			ops[i] = uint64(k)<<62 | delta<<mgIdxBits | idx
		}
		g.ops = append(g.ops, ops)
		g.get = append(g.get, nil)
		g.set = append(g.set, nil)
		g.errs = append(g.errs, nil)
	}
	return g
}

func (g *mapGrow) key(class, idx uint64) uint64 { return mix64((idx<<2 | class) ^ g.salt) }

// value is the value map-grow stores for a present key; it fits the
// word route's inline value domain.
func value(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 4 }

func (g *mapGrow) setup() error {
	g.build()
	g.fresh = true
	return nil
}

// build makes a new table and prefills it from empty, spread over the
// workers like the window.
func (g *mapGrow) build() {
	if g.m != nil {
		g.borrows0 += g.m.PoolBorrows()
		g.m.Close()
	}
	g.m = g.newMap()
	var wg sync.WaitGroup
	for w := 0; w < g.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := g.m.Session()
			defer s.Close()
			for idx := w; idx < g.cfg.prefill; idx += g.cfg.workers {
				k := g.key(classPresent, uint64(idx))
				s.Store(k, value(k))
			}
		}(w)
	}
	wg.Wait()
}

func (g *mapGrow) round(m *meter) error {
	if !g.fresh {
		g.build()
	}
	g.fresh = false
	var ops uint64
	for _, o := range g.ops {
		ops += uint64(len(o))
	}
	runWorkers(m, g.cfg.workers, ops, g.work)
	for w, err := range g.errs {
		if err != nil {
			m.fail(fmt.Errorf("worker %d: %w", w, err))
		}
	}
	if err := g.checkTable(); err != nil {
		m.fail(err)
	}
	return nil
}

func (g *mapGrow) work(w int, start <-chan struct{}) {
	s := g.m.Session()
	defer s.Close()
	gh, sh := &g.get[w], &g.set[w]
	every := g.cfg.sampleEvery
	var bad error
	<-start
	base := timeBase()
	for i, op := range g.ops[w] {
		idx := op & mgIdxMask
		timed := i%every == 0
		var t0 int64
		switch op >> 62 {
		case mgInsert:
			k := g.key(classPresent, idx)
			if timed {
				t0 = base.now()
			}
			s.Store(k, value(k))
			if timed {
				sh.add(base.now() - t0)
			}
		case mgFindHit:
			k := g.key(classPresent, idx)
			if timed {
				t0 = base.now()
			}
			v, ok := s.Load(k)
			if timed {
				gh.add(base.now() - t0)
			}
			if (!ok || v != value(k)) && bad == nil {
				bad = fmt.Errorf("Load of present key %#x (index %d) = %d, %v; want %d, true", k, idx, v, ok, value(k))
			}
		case mgFindMiss:
			k := g.key(classAbsent, idx)
			if timed {
				t0 = base.now()
			}
			v, ok := s.Load(k)
			if timed {
				gh.add(base.now() - t0)
			}
			if ok && bad == nil {
				bad = fmt.Errorf("Load of absent key %#x = %d, true; want a miss", k, v)
			}
		case mgAdd:
			k := g.key(classHot, idx)
			d := op >> mgIdxBits & mgDeltaMask
			if timed {
				t0 = base.now()
			}
			s.Compute(k, d, growt.Add[uint64])
			if timed {
				sh.add(base.now() - t0)
			}
		}
	}
	g.errs[w] = bad
}

// checkTable walks the quiescent table after a window: Range must visit
// exactly the prefilled, inserted and hot keys, each once, with the
// values the model expects; the hot keys must hold the tally of the
// seeded Add streams, whose sum is the total of the deltas issued.
func (g *mapGrow) checkTable() error {
	present := g.cfg.prefill + g.cfg.inserts/g.cfg.workers*g.cfg.workers
	seen := make([]bool, present)
	hotSeen := make([]uint64, g.cfg.hot)
	var wantHot, gotHot, extra uint64
	var bad error
	note := func(err error) {
		if bad == nil {
			bad = err
		}
	}
	for _, e := range g.expect {
		wantHot += e
	}
	g.m.Range(func(k, v uint64) bool {
		x := unmix64(k) ^ g.salt
		class, idx := x&3, x>>2
		switch {
		case class == classPresent && idx < uint64(present):
			if seen[idx] {
				note(fmt.Errorf("Range visited key index %d twice", idx))
			}
			seen[idx] = true
			if v != value(k) {
				note(fmt.Errorf("Range: key index %d holds %d, want %d", idx, v, value(k)))
			}
		case class == classHot && idx < uint64(g.cfg.hot):
			if hotSeen[idx] != 0 {
				note(fmt.Errorf("Range visited hot key %d twice", idx))
			}
			hotSeen[idx] = v
			gotHot += v
		default:
			extra++
		}
		return true
	})
	if bad != nil {
		return bad
	}
	var missing int
	for _, s := range seen {
		if !s {
			missing++
		}
	}
	if missing > 0 || extra > 0 {
		return fmt.Errorf("Range visited %d keys the model does not hold and missed %d of %d", extra, missing, present)
	}
	for r, want := range g.expect {
		if hotSeen[r] != want {
			return fmt.Errorf("hot key %d holds %d, want the tally %d", r, hotSeen[r], want)
		}
	}
	if gotHot != wantHot {
		return fmt.Errorf("hot keys sum to %d, want the %d issued", gotHot, wantHot)
	}
	return nil
}

func (g *mapGrow) check() error { return nil } // every round is checked as it ends

func (g *mapGrow) samples() (get, set []int32) {
	for w := range g.get {
		get = append(get, g.get[w].take()...)
		set = append(set, g.set[w].take()...)
	}
	return get, set
}

func (g *mapGrow) failed() uint64 { return 0 }

func (g *mapGrow) snap() progSnap {
	var b uint64
	if g.m != nil {
		b = g.m.PoolBorrows()
	}
	return progSnap{borrows: g.borrows0 + b}
}

func (g *mapGrow) ladderKeys() []uint32 {
	var keys []uint32
	for _, op := range g.ops[0] {
		idx := op & mgIdxMask
		class := uint64(classPresent)
		switch op >> 62 {
		case mgFindMiss:
			class = classAbsent
		case mgAdd:
			class = classHot
		}
		keys = append(keys, uint32(idx<<2|class))
		if len(keys) == ladderSample {
			break
		}
	}
	return keys
}

func (g *mapGrow) close() {
	if g.m != nil && !g.closed {
		g.m.Close()
		g.closed = true
	}
}

// Command perfbench is the repository's benchmark. One process runs one
// workload of the growt stack: a fixed, seeded op stream, repeated in
// whole rounds until the measuring time is used up. It checks every
// answer the program gives against a model kept apart from the program,
// and prints one JSON result as the last line of its standard output.
//
//	perfbench --workload map-grow --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics instead, read around the same rounds and from a
// ladder that replays a sample of the op stream on each layer alone.
// See README.md for the workloads, the metrics and the reference figures.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// procStart stands in for the start of the process: package variables
// are initialised before main runs, after the runtime has started.
var procStart = time.Now()

// workload is one set of inputs with the program objects that serve them.
type workload interface {
	// setup builds the program's objects and prefills them. It is the
	// program's share of the set-up time.
	setup() error
	// round runs the fixed op stream once, bracketing the measured
	// window with m.begin and m.end.
	round(m *meter) error
	// check compares the program's final state with the model.
	check() error
	// samples returns the read and write latencies timed since the last
	// call, in nanoseconds.
	samples() (get, set []int32)
	// failed counts operations the program refused or lost (transport
	// errors, error statuses); the checks cover wrong answers.
	failed() uint64
	// snap returns the program's own counters, cumulative over the run.
	snap() progSnap
	// ladderKeys returns a fixed sample of the op stream's keys, as
	// indices every rung of the ladder can map to its own key type.
	ladderKeys() []uint32
	close()
}

// progSnap holds the program's own counters that the traced run reads
// around each window. has* report which layers the workload runs.
type progSnap struct {
	hasCache, hasServer bool
	borrows             uint64
	hits, misses        uint64
	evicted             uint64
	sweepVisited        uint64
	sets                uint64 // SET requests the benchmark issued
	execNanos, execOps  uint64
}

// add accumulates the counts b - a.
func (p *progSnap) add(a, b progSnap) {
	p.hasCache, p.hasServer = b.hasCache, b.hasServer
	p.borrows += b.borrows - a.borrows
	p.hits += b.hits - a.hits
	p.misses += b.misses - a.misses
	p.evicted += b.evicted - a.evicted
	p.sweepVisited += b.sweepVisited - a.sweepVisited
	p.sets += b.sets - a.sets
	p.execNanos += b.execNanos - a.execNanos
	p.execOps += b.execOps - a.execOps
}

var workloads = []struct {
	name string
	make func(seed uint64) workload
}{
	{"map-grow", func(seed uint64) workload { return newMapGrow(seed, defaultMapGrow()) }},
	{"store-churn", func(seed uint64) workload { return newChurn(seed, defaultChurn()) }},
	{"svc-pipelined", func(seed uint64) workload { return newSvc(seed, pipelinedConfig()) }},
	{"svc-rtt", func(seed uint64) workload { return newSvc(seed, rttConfig()) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: map-grow, store-churn, svc-pipelined or svc-rtt")
	seed := fl.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fl.Int("seconds", 10, "measuring time in seconds (whole rounds run until it is used up)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var mk func(uint64) workload
	for _, w := range workloads {
		if w.name == *name {
			mk = w.make
		}
	}
	switch {
	case mk == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || *seconds > 120:
		fmt.Fprintf(stderr, "perfbench: --seconds must be within 1..120, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	// A hung round must not outlive the caller's patience.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+150*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, rep, err := measure(mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.Meta = runMeta(*name, *seed, *trace)
	rep.Result = res
	if err := writeReport(rep, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	meta, _ := json.Marshal(rep.Meta)
	fmt.Fprintf(stderr, "perfbench: %s\n", meta)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// report is what a run writes to its result file: the metadata that
// makes two result sets comparable, the result, and the per-round and
// per-rung detail behind it.
type report struct {
	Meta   map[string]any `json:"meta"`
	Result result         `json:"result"`
	Rounds []roundStat    `json:"rounds"`
	Ladder []rungRecord   `json:"ladder,omitempty"`
}

func measure(mk func(uint64) workload, seed uint64, span time.Duration, traced bool, stderr io.Writer) (result, report, error) {
	genStart := time.Now()
	w := mk(seed)
	defer w.close()
	baseHeap := heapLiveBytes()
	gen := time.Since(genStart)

	if err := w.setup(); err != nil {
		return result{}, report{}, fmt.Errorf("set-up: %w", err)
	}
	m := &meter{traced: traced, w: w}
	var live uint64
	for {
		if err := w.round(m); err != nil {
			return result{}, report{}, err
		}
		if len(m.rounds) == 1 && !traced {
			// The live heap after a fixed amount of work: a program whose
			// memory grows with the work done would otherwise read larger
			// the faster it runs.
			live = heapLiveBytes()
		}
		if time.Since(m.first) >= span {
			break
		}
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	if err := w.check(); err != nil {
		res.Correct = false
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", err)
	}
	if m.checkErr != nil {
		res.Correct = false
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", m.checkErr)
	}
	var ops uint64
	for _, r := range m.rounds {
		ops += r.Ops
	}
	res.Attempted, res.Failed = ops, w.failed()
	rep := report{Rounds: m.rounds}
	if !traced {
		setup := m.first.Sub(procStart) - gen
		endToEnd(res.Metrics, m.rounds, setup, live-min(live, baseHeap))
		return res, rep, nil
	}
	window := m.windowMetrics()
	w.close() // the ladder runs alone in the process
	ladder, rungs, err := runLadder(w.ladderKeys(), m.prog)
	if err != nil {
		return result{}, report{}, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range window {
		res.Metrics[k] = v
	}
	for k, v := range ladder {
		res.Metrics[k] = v
	}
	rep.Ladder = rungs
	return res, rep, nil
}

// endToEnd derives the end-to-end metrics from the quieter half of the
// rounds: those in which the rest of the machine (other processes, and
// the hypervisor stealing CPU from the VM) took the least CPU time. On a
// shared host a round's rate falls as that share rises (correlation
// -0.8 to -0.96 on the reference host), and which rounds it hits differs
// from run to run.
func endToEnd(out map[string]metric, rounds []roundStat, setup time.Duration, heap uint64) {
	quiet := append([]roundStat(nil), rounds...)
	sort.SliceStable(quiet, func(i, j int) bool { return quiet[i].Others < quiet[j].Others })
	quiet = quiet[:(len(quiet)+1)/2]
	var rates []float64
	var ops uint64
	var cpu float64
	get, set := newLatHist(), newLatHist()
	for _, r := range quiet {
		rates = append(rates, float64(r.Ops)/r.WallS)
		ops += r.Ops
		cpu += r.UserS + r.SysS
		for _, ns := range r.get {
			get.recordNs(int64(ns))
		}
		for _, ns := range r.set {
			set.recordNs(int64(ns))
		}
	}
	out["setup_s"] = metric{setup.Seconds(), "s"}
	out["ops_per_s"] = metric{median(rates), "1/s"}
	out["cpu_us_per_op"] = metric{cpu * 1e6 / float64(ops), "us"}
	out["get_p50_us"] = metric{get.quantile(0.50) / 1e3, "us"}
	out["get_p90_us"] = metric{get.quantile(0.90) / 1e3, "us"}
	out["set_p50_us"] = metric{set.quantile(0.50) / 1e3, "us"}
	out["set_p90_us"] = metric{set.quantile(0.90) / 1e3, "us"}
	out["mem_mb"] = metric{float64(heap) / (1 << 20), "MiB"}
}

// roundStat is one measured window.
type roundStat struct {
	Ops   uint64  `json:"ops"`
	WallS float64 `json:"wall_s"`
	UserS float64 `json:"user_s"`
	SysS  float64 `json:"sys_s"`
	// Others is the share of the machine's CPU time during the window
	// that went to anything but this process: other processes, and time
	// the hypervisor stole.
	Others float64 `json:"others"`

	get, set []int32 // latency samples, ns
}

// ticksPerSecond is the unit of /proc/stat (USER_HZ).
const ticksPerSecond = 100

// meter brackets the measured windows of a run. In a traced run it also
// reads the process's and the program's counters around each window.
type meter struct {
	traced   bool
	w        workload
	first    time.Time
	rounds   []roundStat
	checkErr error

	// The state at the window's start.
	start       time.Time
	user, sys   time.Duration
	busy, ticks uint64
	// Traced runs only: the state at the window's start, and the
	// differences summed over the windows.
	ps, proc procSnap
	pg, prog progSnap
	ob, mig  obs.Snapshot
}

func (m *meter) begin() {
	if m.traced {
		m.pg = m.w.snap()
		m.ob = obs.Default.Snapshot()
		m.ps = takeProcSnap()
	}
	m.busy, m.ticks = vmTicks()
	m.user, m.sys = cpuTime()
	m.start = time.Now()
	if m.first.IsZero() {
		m.first = m.start
	}
}

func (m *meter) end(ops uint64) {
	wall := time.Since(m.start)
	u, s := cpuTime()
	busy, ticks := vmTicks()
	r := roundStat{Ops: ops, WallS: wall.Seconds(), UserS: (u - m.user).Seconds(), SysS: (s - m.sys).Seconds()}
	r.get, r.set = m.w.samples()
	if ticks > m.ticks {
		own := (r.UserS + r.SysS) * ticksPerSecond
		r.Others = max(float64(busy-m.busy)-own, 0) / float64(ticks-m.ticks)
	}
	m.rounds = append(m.rounds, r)
	if m.traced {
		m.proc.add(m.ps, takeProcSnap())
		m.prog.add(m.pg, m.w.snap())
		d := obs.Default.Snapshot().Sub(m.ob)
		if m.mig.Counters == nil {
			m.mig = d
			return
		}
		for k, v := range d.Counters {
			m.mig.Counters[k] += v
		}
		for k, h := range d.Hists {
			m.mig.Hists[k] = m.mig.Hists[k].Merge(h)
		}
	}
}

// runWorkers starts n workers, opens the window once all of them are
// ready, and closes it when the last one is done.
func runWorkers(m *meter, n int, ops uint64, work func(w int, start <-chan struct{})) {
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	for w := 0; w < n; w++ {
		ready.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			ready.Done()
			work(w, start)
		}(w)
	}
	ready.Wait()
	m.begin()
	close(start)
	done.Wait()
	m.end(ops)
}

// fail records a wrong answer seen inside a window; the run reports
// correct=false.
func (m *meter) fail(err error) {
	if m.checkErr == nil {
		m.checkErr = err
	}
}

// windowMetrics derives the per-layer metrics read around the windows.
func (m *meter) windowMetrics() map[string]metric {
	out := map[string]metric{}
	var ops uint64
	var wall float64
	for _, r := range m.rounds {
		ops += r.Ops
		wall += r.WallS
	}
	n := float64(len(m.rounds))
	fo := float64(ops)
	out["proc.read_syscalls_per_op"] = metric{float64(m.proc.syscr) / fo, "count"}
	out["proc.write_syscalls_per_op"] = metric{float64(m.proc.syscw) / fo, "count"}
	out["proc.user_us_per_op"] = metric{float64(m.proc.user.Nanoseconds()) / 1e3 / fo, "us"}
	out["proc.sys_us_per_op"] = metric{float64(m.proc.sys.Nanoseconds()) / 1e3 / fo, "us"}
	out["proc.allocs_per_op"] = metric{float64(m.proc.mallocs) / fo, "count"}
	out["proc.gc_cycles"] = metric{float64(m.proc.gcCycles) / n, "count"}
	out["proc.gc_pause_ms"] = metric{float64(m.proc.gcPause.Nanoseconds()) / 1e6 / n, "ms"}
	out["proc.sched_latency_p99_us"] = metric{m.proc.schedP99(), "us"}

	mig := m.mig
	var migrations uint64
	for k, v := range mig.Counters {
		if strings.HasPrefix(k, "growt_migrations_total") {
			migrations += v
		}
	}
	out["core.migrations"] = metric{float64(migrations) / n, "count"}
	out["core.migration_ms"] = metric{float64(mig.Hist("growt_migration_wall_nanos").Sum) / 1e6 / n, "ms"}
	out["core.assist_p99_us"] = metric{float64(mig.Hist("growt_migration_assist_nanos").Quantile(0.99)) / 1e3, "us"}
	out["growt.pool_borrows_per_op"] = metric{float64(m.prog.borrows) / fo, "count"}
	if m.prog.hasCache {
		out["cache.evictions_per_set"] = metric{float64(m.prog.evicted) / float64(max(m.prog.sets, 1)), "count"}
		out["cache.hit_ratio"] = metric{float64(m.prog.hits) / float64(max(m.prog.hits+m.prog.misses, 1)), "ratio"}
		out["cache.sweep_visited_per_s"] = metric{float64(m.prog.sweepVisited) / wall, "1/s"}
	}
	if m.prog.hasServer && m.prog.execOps > 0 {
		out["server.exec_ns"] = metric{float64(m.prog.execNanos) / float64(m.prog.execOps), "ns"}
	}
	return out
}

func runMeta(name string, seed uint64, trace int) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"trace":         trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git commit is known.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" || n == "BENCHMARK.json" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultDir holds the result and ladder files of every run, relative to
// the directory the benchmark runs in.
const resultDir = ".perfbench"

func writeReport(rep report, traced bool) error {
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if traced {
		kind = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", rep.Meta["workload"], rep.Meta["seed"], kind)
	return os.WriteFile(filepath.Join(resultDir, name), b, 0o644)
}

package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/core"
	"milret/internal/remote"
	"milret/internal/server"
	"milret/internal/store"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for stores; removed afterwards
	spans    string // directory the traced run writes its spans to
	tiny     bool   // self-test scale
}

// sizes fix a workload's corpus, query pool and traffic shape.
type sizes struct {
	perCat     int  // images per scene category (five categories)
	paper      bool // paper geometry (10×10 sampling, 20 regions) or the 6×6 / 9-region sweep point
	reps       int  // set-up repetitions; setup_s is their median
	pool       int  // canned queries
	npos, nneg int  // examples per canned query
	k          int  // results per ranking
	// catalog open loop: offered rate from one sender, p90 latency limit,
	// and the share of the run it takes. Query and batch latencies come
	// from the closed-loop rest of the run: on a 2-vCPU VM a scan that
	// arrives at an idle server pays a variable wake-up, and open-loop
	// scan percentiles swung 25-35% between runs against 15-20% closed
	// loop. Mutation latencies come from the open loop, where a label
	// update does not wait for a CPU behind the other client's scan
	// (closed loop, its p90 flipped between 4.5 and 9 ms run to run).
	rate      float64
	limitMS   float64
	openShare float64
	replace   int // churn: replacement images per category for pixel updates
}

func sizesFor(workload string, tiny bool) sizes {
	var s sizes
	switch workload {
	case "feedback":
		s = sizes{perCat: 200, reps: 3, k: 20}
	case "catalog":
		s = sizes{perCat: 2000, paper: true, reps: 1, pool: 10, npos: 2, nneg: 1, k: 20,
			rate: 24, limitMS: 100, openShare: 0.35}
	case "churn":
		s = sizes{perCat: 400, reps: 3, pool: 10, npos: 2, nneg: 1, k: 20, replace: 24}
	case "fanout":
		s = sizes{perCat: 400, reps: 3, pool: 10, npos: 2, nneg: 1, k: 20}
	}
	if tiny {
		s.perCat, s.reps, s.replace = 12, 1, 4
		s.pool = min(s.pool, 5)
		s.k = 8
		s.rate = 40
	}
	return s
}

// geometry returns the database options of a workload's corpus.
func (s sizes) geometry() milret.Options {
	o := milret.Options{ConceptCacheMB: 64, VerifyOnLoad: true}
	if !s.paper {
		o.Resolution, o.Regions = 6, 9
	}
	return o
}

// setupStats times the set-up steps, per repetition or per call.
type setupStats struct {
	setupS []float64 // whole set-up, per repetition
	addMS  []float64 // each AddImage
	saveS  []float64 // Save calls, summed per repetition
	loadS  []float64 // LoadDatabase calls, summed per repetition
}

// runner holds one run's state.
type runner struct {
	o     options
	sz    sizes
	nproc int
	c     *corpus
	tr    *tracer // nil in untraced runs
	chk   checker
	setup setupStats
	// rec accounts for the closed-loop phase the end-to-end metrics come
	// from; open for catalog's open-loop phase, which also supplies its
	// mutation latencies.
	rec, open *recorder
	elapsed   time.Duration // of the closed-loop phase

	apMu sync.Mutex
	aps  []float64

	st     *stack
	before milret.Stats // backend stats when the measured phase starts
	after  milret.Stats
	evals0 int64 // core.TrainerEvals before set-up
	evals1 int64
	// evalsOutside counts evaluations of training done by the checks,
	// not the served stack.
	evalsOutside int64
	// trainings counts optimizer runs the served stacks performed, seen
	// by the timing Backend (traced runs).
	trainings    atomic.Int64
	measureStart int64 // tracer time the measured phase began
	deadMax      float64
	compacts     int

	// wrap, when set, wraps the front server's handler (self-tests use it
	// to corrupt replies).
	wrap func(http.Handler) http.Handler
}

func (r *runner) known(id string) bool { return r.c.known(id) }

func (r *runner) addAP(ap float64) {
	r.apMu.Lock()
	r.aps = append(r.aps, ap)
	r.apMu.Unlock()
}

// runSetups performs the workload's set-up sz.reps times from scratch,
// timing each, and keeps the last stack for the measured phase.
func (r *runner) runSetups(build func(dir string) (*stack, error)) error {
	for rep := 0; rep < r.sz.reps; rep++ {
		dir := filepath.Join(r.o.dir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		st, err := build(dir)
		if err != nil {
			return err
		}
		r.setup.setupS = append(r.setup.setupS, time.Since(start).Seconds())
		// Collect the set-up's garbage (the ingest database, generated
		// images) now, so a serving process is what the measured phase
		// sees.
		runtime.GC()
		debug.FreeOSMemory()
		if rep < r.sz.reps-1 {
			if err := st.close(); err != nil {
				return fmt.Errorf("close set-up %d: %w", rep, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		r.st = st
	}
	return nil
}

// buildDatabase generates and ingests the corpus, saves it under dir and
// loads it back: the ingest and persistence half of every set-up. It
// returns the loaded database and the store path.
func (r *runner) buildDatabase(dir string) (*milret.Database, string, error) {
	geo := r.sz.geometry()
	db, err := milret.NewDatabase(geo)
	if err != nil {
		return nil, "", err
	}
	if err := r.ingest(db, r.c, r.nproc); err != nil {
		db.Close()
		return nil, "", err
	}
	path := filepath.Join(dir, "corpus.milret")
	start := time.Now()
	err = r.tr.timeCall("store.save", "", func() error { return db.Save(path) })
	r.setup.saveS = append(r.setup.saveS, time.Since(start).Seconds())
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, "", fmt.Errorf("save corpus: %w", err)
	}
	loaded, err := r.load(path)
	if err != nil {
		return nil, "", err
	}
	return loaded, path, nil
}

// load opens a store, adding the time to the repetition's load total
// (the last loadS entry, started by buildDatabase's save).
func (r *runner) load(path string) (*milret.Database, error) {
	start := time.Now()
	var db *milret.Database
	err := r.tr.timeCall("store.load", "", func() error {
		var err error
		db, err = milret.LoadDatabase(path, r.sz.geometry())
		return err
	})
	d := time.Since(start).Seconds()
	if n := len(r.setup.saveS); len(r.setup.loadS) < n {
		r.setup.loadS = append(r.setup.loadS, d)
	} else {
		r.setup.loadS[n-1] += d
	}
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", filepath.Base(path), err)
	}
	return db, nil
}

// serveFront puts the front HTTP server in front of backend: server.New
// over the database in untraced runs, and in traced runs the same
// surface over a timing Backend with a span per request.
func (r *runner) serveFront(st *stack) error {
	var h http.Handler
	switch {
	case r.tr == nil && st.db != nil:
		h = server.New(st.db)
	case r.tr == nil:
		h = server.NewBackend(st.backend)
	default:
		timed := &timedBackend{Backend: st.backend, t: r.tr, trainings: &r.trainings}
		h = r.tr.handler(spanHandler, server.NewBackend(timed))
	}
	if r.wrap != nil {
		h = r.wrap(h)
	}
	base, err := st.listen(h)
	st.base = base
	return err
}

// buildLocal is the set-up of a single-process workload: corpus, store,
// front server.
func (r *runner) buildLocal(dir string) (*stack, error) {
	db, path, err := r.buildDatabase(dir)
	if err != nil {
		return nil, err
	}
	st := &stack{db: db, backend: dbBackend{db}, storePath: path}
	if err := r.serveFront(st); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// buildFanout is the fanout set-up: the corpus store resharded two ways,
// each shard behind its own loopback MILRETR1 shard server, a
// coordinator over both, and the front server over the coordinator. The
// unsharded store stays open as the single-process reference.
func (r *runner) buildFanout(dir string) (*stack, error) {
	ref, src, err := r.buildDatabase(dir)
	if err != nil {
		return nil, err
	}
	st := &stack{ref: ref, storePath: src}
	dst := filepath.Join(dir, "sharded.milret")
	if err := milret.Reshard(src, dst, 2); err != nil {
		st.close()
		return nil, fmt.Errorf("reshard: %w", err)
	}
	topo := &remote.Topology{}
	for i := 0; i < 2; i++ {
		db, err := r.load(store.ShardPath(dst, i))
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, db)
		var h http.Handler = remote.NewShardServer(db)
		if r.tr != nil {
			h = r.tr.handler(spanShard, h)
		}
		mux := http.NewServeMux()
		mux.Handle(remote.RPCPath, h)
		addr, err := st.listen(mux)
		if err != nil {
			st.close()
			return nil, err
		}
		topo.Partitions = append(topo.Partitions, remote.PartitionSpec{Name: fmt.Sprintf("p%d", i), Addr: addr})
	}
	coord, err := remote.NewCoordinator(topo, remote.CoordinatorOptions{ConceptCacheMB: 64})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	st.coord, st.backend = coord, coord
	if err := r.serveFront(st); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// measure runs the measured phase between two backend stats snapshots;
// in traced runs a sampler follows the local database's dead-row share
// and counts compactions.
func (r *runner) measure(phase func()) {
	r.before = r.st.backend.Stats()
	if r.tr != nil {
		r.measureStart = r.tr.at(time.Now())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if r.tr != nil && r.st.db != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sampleDead(stop)
		}()
	}
	phase()
	close(stop)
	wg.Wait()
	r.after = r.st.backend.Stats()
}

func (r *runner) sampleDead(stop <-chan struct{}) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	last := -1
	for {
		st := r.st.db.Stats()
		if rows := st.Instances + st.DeadInstances; rows > 0 {
			r.deadMax = max(r.deadMax, float64(st.DeadInstances)/float64(rows))
		}
		if last >= 0 && st.DeadInstances < last {
			r.compacts++
		}
		last = st.DeadInstances
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// run performs the whole run: set-up, measured phase, final checks.
func (r *runner) run() error {
	r.evals0, _ = core.TrainerEvals()
	var err error
	switch r.o.workload {
	case "feedback":
		err = r.feedback()
	case "catalog":
		err = r.catalog()
	case "churn":
		err = r.churn()
	case "fanout":
		err = r.fanout()
	default:
		err = fmt.Errorf("unknown workload %q", r.o.workload)
	}
	r.evals1, _ = core.TrainerEvals()
	if r.st != nil {
		if cerr := r.st.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}
	return err
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		var kb float64
		for _, line := range strings.Split(string(raw), "\n") {
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
